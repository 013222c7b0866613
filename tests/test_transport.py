"""Message framing, round/byte accounting, and the two transports."""

import struct
import threading

import numpy as np
import pytest

from helpers import CODEC
from ssgpr.session import run_session
from ssgpr.transport import (ASSISTANT, P0, P1, Channel, LocalHub, ProtocolAbort,
                             RoundStats, TcpHub)

BACKENDS = pytest.mark.parametrize("make_hub", [LocalHub, TcpHub], ids=["inproc", "sockets"])


def test_round_stats_counters():
    s = RoundStats()
    s.note_round()
    s.note_send(5, offline=False)
    s.note_recv(5, offline=False)
    s.note_send(3, offline=True)
    out = s.summary()
    assert out["rounds"] == 1
    assert out["online_words_sent"] == 5
    assert out["online_bytes_sent"] == 40
    assert out["offline_words"] == 3


def test_round_stats_scope_attribution():
    s = RoundStats()
    s.push_scope("outer")
    s.push_scope("inner")
    s.note_round()
    s.note_send(4, offline=False)
    s.pop_scope()
    s.pop_scope()
    # Nested traffic rolls up into the outermost protocol scope.
    assert s.per_protocol == {"outer": {"rounds": 1, "words_sent": 4}}


def _pair(hub):
    s0, s1 = RoundStats(), RoundStats()
    ch = {}

    def build(me, peer, stats):
        ch[me] = Channel(hub.link(me, peer), stats, offline=False)

    t0 = threading.Thread(target=build, args=(P0, P1, s0))
    t1 = threading.Thread(target=build, args=(P1, P0, s1))
    t0.start(); t1.start(); t0.join(); t1.join()
    return ch[P0], ch[P1], s0, s1


@BACKENDS
def test_message_roundtrip(make_hub):
    hub = make_hub()
    c0, c1, _, _ = _pair(hub)
    payloads = [np.array([], dtype=np.uint64),
                np.random.default_rng(3).bit_generator.random_raw(1 << 20)]

    def send_all():
        for tag, words in enumerate(payloads, 1):
            c1.send(tag, words)

    # A receiver must drain a large message while it is sent over TCP.
    sender = threading.Thread(target=send_all)
    sender.start()
    got = [c0.recv(1), c0.recv(2)]
    sender.join(timeout=60)
    assert not sender.is_alive()
    for sent, received in zip(payloads, got):
        assert received.dtype == np.uint64 and received.tobytes() == sent.tobytes()
        # The receiver owns its words: it may write them, and the sender's stay put.
        assert received.flags.writeable and not np.shares_memory(received, sent)
    c0.link.close(); c1.link.close()
    hub.close()


def test_local_send_copies_the_words():
    c0, c1, _, _ = _pair(LocalHub())
    words = np.arange(5, dtype=np.uint64)
    c1.send(1, words)
    words[:] = 99
    assert np.array_equal(c0.recv(1), np.arange(5, dtype=np.uint64))


def test_socket_eof_in_mid_payload():
    hub = TcpHub()
    c0, c1, _, _ = _pair(hub)
    # A header promising ten words, then three words and the end of the stream.
    c1.link.sock.sendall(struct.pack("<QQ", 1, 10) + bytes(24))
    c1.link.close()
    with pytest.raises(ConnectionError):
        c0.recv(1)
    c0.link.close()
    hub.close()


def test_local_exchange_counts_one_round():
    c0, c1, s0, s1 = _pair(LocalHub())
    out = {}

    def go(ch, key, val):
        out[key] = ch.exchange(1, np.array([val], dtype=np.uint64))

    t0 = threading.Thread(target=go, args=(c0, 0, 10))
    t1 = threading.Thread(target=go, args=(c1, 1, 20))
    t0.start(); t1.start(); t0.join(); t1.join()
    assert int(out[0][0]) == 20 and int(out[1][0]) == 10
    assert s0.rounds == 1 and s1.rounds == 1
    assert s0.online_words_sent == 1 and s0.online_words_received == 1


def test_zero_length_exchange():
    c0, c1, s0, _ = _pair(LocalHub())
    empty = np.array([], dtype=np.uint64)

    def go(ch):
        ch.exchange(1, empty)

    t1 = threading.Thread(target=go, args=(c1,))
    t1.start()
    got = c0.exchange(1, empty)
    t1.join()
    assert got.size == 0
    assert s0.rounds == 1 and s0.online_words_sent == 0


def test_tag_mismatch_aborts():
    c0, c1, _, _ = _pair(LocalHub())
    c1.send(1, np.array([42], dtype=np.uint64))
    with pytest.raises(ProtocolAbort):
        c0.recv(2)


def test_recv_shape():
    c0, c1, _, _ = _pair(LocalHub())
    c1.send(1, np.arange(6, dtype=np.uint64))
    got = c0.recv(1, shape=(2, 3))
    assert got.shape == (2, 3)


def test_tcp_exchange():
    hub = TcpHub()
    c0, c1, s0, s1 = _pair(hub)
    out = {}

    def go(ch, key, val):
        out[key] = ch.exchange(3, np.full(100, val, dtype=np.uint64))

    t0 = threading.Thread(target=go, args=(c0, 0, 1))
    t1 = threading.Thread(target=go, args=(c1, 1, 2))
    t0.start(); t1.start(); t0.join(); t1.join()
    assert np.all(out[0] == 2) and np.all(out[1] == 1)
    assert s0.rounds == 1 and s1.online_words_sent == 100
    c0.link.close(); c1.link.close()
    hub.close()


@BACKENDS
def test_closed_peer_is_immediate_eof(make_hub):
    hub = make_hub()
    c0, c1, _, _ = _pair(hub)
    c0.link.close()
    with pytest.raises(ConnectionError):
        c1.recv(1)
    c1.link.close()
    hub.close()


def test_offline_channel_not_counted_online():
    s = RoundStats()
    hub = LocalHub()
    ch = {}

    def build(me, peer):
        link = hub.link(me, peer)
        ch[me] = Channel(link, s if me == P0 else RoundStats(), offline=True)

    t0 = threading.Thread(target=build, args=(P0, ASSISTANT))
    t1 = threading.Thread(target=build, args=(ASSISTANT, P0))
    t0.start(); t1.start(); t0.join(); t1.join()
    ch[P0].send(1, np.arange(4, dtype=np.uint64))
    ch[ASSISTANT].recv(1)
    assert s.online_words_sent == 0 and s.offline_words == 4 and s.rounds == 0


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
def test_mis_sized_peer_message_aborts(backend):
    # Party 1 sends three words where party 0's exchange expects two.
    def job(rt):
        if rt.party == P0:
            return rt.exchange(np.zeros(2, dtype=np.uint64))
        tag = rt.next_tag()
        rt.net.peer.send(tag, np.zeros(3, dtype=np.uint64))
        return rt.net.peer.recv(tag)

    with pytest.raises(RuntimeError, match="session failed in party0") as info:
        run_session(job, CODEC, backend=backend)
    cause = info.value.__cause__
    assert isinstance(cause, ProtocolAbort)
    assert f"message tag {(1 << 32) + 1}: expected 2 words, received 3" in str(cause)
