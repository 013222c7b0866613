"""Message transport between the three parties.

Two interchangeable backends carry the same wire format: an in-process
queue hub for tests and benchmarks, and TCP sockets for separate
processes. Every message is a 16-byte header (message tag and word count,
both little-endian u64) followed by the payload as little-endian 64-bit
words. Traffic statistics distinguish online traffic between the compute
servers from offline traffic involving the assistant, and a communication
round is one bidirectional exchange between the compute servers.

Both backends report a closed peer the same way: a receive on a link
whose other end has closed raises ``ConnectionError`` at once.
"""

from __future__ import annotations

import math
import queue
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

P0 = 0
P1 = 1
ASSISTANT = 2

_HEADER = struct.Struct("<QQ")

# How long a receive waits for a live but silent peer before giving up.
RECV_TIMEOUT_S = 300


class ProtocolAbort(RuntimeError):
    """Raised when a received message does not match the expected tag or size."""


@dataclass
class RoundStats:
    """Per-party accounting of rounds and transmitted ring elements.

    Traffic is attributed to the protocol name at the bottom of the scope
    stack, so nested sub-protocol calls roll up into the operation the
    caller asked for. ``exp_openings_outside_window`` counts the pp_exp
    openings that fell outside the Theorem-2 window (leakage telemetry).
    """

    rounds: int = 0
    online_words_sent: int = 0
    online_words_received: int = 0
    offline_words: int = 0
    exp_openings_outside_window: int = 0
    per_protocol: dict = field(default_factory=dict)
    _scopes: list = field(default_factory=list)

    def push_scope(self, name: str):
        self._scopes.append(name)

    def pop_scope(self):
        self._scopes.pop()

    def _bucket(self):
        name = self._scopes[0] if self._scopes else "(none)"
        return self.per_protocol.setdefault(name, {"rounds": 0, "words_sent": 0})

    def note_send(self, words: int, offline: bool):
        if offline:
            self.offline_words += words
        else:
            self.online_words_sent += words
            self._bucket()["words_sent"] += words

    def note_recv(self, words: int, offline: bool):
        if offline:
            self.offline_words += words
        else:
            self.online_words_received += words

    def note_round(self):
        self.rounds += 1
        self._bucket()["rounds"] += 1

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "online_words_sent": self.online_words_sent,
            "online_words_received": self.online_words_received,
            "online_bytes_sent": 8 * self.online_words_sent,
            "offline_words": self.offline_words,
            "exp_openings_outside_window": self.exp_openings_outside_window,
            "per_protocol": {k: dict(v) for k, v in self.per_protocol.items()},
        }


def encode_message(tag: int, payload: np.ndarray) -> bytes:
    # On a little-endian host the words are already "<u8" and go out uncopied.
    words = np.ascontiguousarray(payload, dtype=np.uint64).astype("<u8", copy=False)
    return b"".join((_HEADER.pack(tag, words.size), words.ravel()))


def decode_header(raw: bytes):
    return _HEADER.unpack(raw)


def decode_payload(raw: bytes, count: int) -> np.ndarray:
    return np.frombuffer(raw, dtype="<u8", count=count).astype(np.uint64)


class QueueLink:
    """One end of a pair of in-process queues; ``close`` sends an end-of-stream marker."""

    def __init__(self, out_q: queue.SimpleQueue, in_q: queue.SimpleQueue):
        self.out_q = out_q
        self.in_q = in_q
        self._buf = b""

    def send_bytes(self, data: bytes):
        self.out_q.put(data)

    def recv_bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            try:
                chunk = self.in_q.get(timeout=RECV_TIMEOUT_S)
            except queue.Empty:
                raise TimeoutError("no message from peer") from None
            if chunk is None:
                self.in_q.put(None)  # every later receive sees the end too
                raise ConnectionError("peer closed the connection")
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def close(self):
        self.out_q.put(None)


class SocketLink:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(RECV_TIMEOUT_S)

    def send_bytes(self, data: bytes):
        self.sock.sendall(data)

    def recv_bytes(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                raise ConnectionError("peer closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class Channel:
    """Tagged-message channel to one peer, with traffic accounting."""

    def __init__(self, link: QueueLink | SocketLink, stats: RoundStats, offline: bool):
        self.link = link
        self.stats = stats
        self.offline = offline

    def send(self, tag: int, payload: np.ndarray):
        payload = np.ascontiguousarray(payload, dtype=np.uint64)
        self.link.send_bytes(encode_message(tag, payload))
        self.stats.note_send(payload.size, self.offline)

    def recv(self, tag: int, shape: tuple | None = None) -> np.ndarray:
        got_tag, count = decode_header(self.link.recv_bytes(_HEADER.size))
        if got_tag != tag:
            raise ProtocolAbort(f"expected message tag {tag}, received {got_tag}")
        payload = decode_payload(self.link.recv_bytes(8 * count), count)
        self.stats.note_recv(count, self.offline)
        if shape is not None:
            want = math.prod(shape)
            if count != want:
                raise ProtocolAbort(f"message tag {tag}: expected {want} words, "
                                    f"received {count}")
            payload = payload.reshape(shape)
        return payload

    def exchange(self, tag: int, payload: np.ndarray) -> np.ndarray:
        """Send and receive one message each way; counts one round."""
        payload = np.ascontiguousarray(payload, dtype=np.uint64)
        self.send(tag, payload)
        out = self.recv(tag, shape=payload.shape)
        self.stats.note_round()
        return out


class LocalHub:
    """In-process transport: six queues wiring the three parties together."""

    def __init__(self):
        self.queues = {(a, b): queue.SimpleQueue()
                       for a in (P0, P1, ASSISTANT)
                       for b in (P0, P1, ASSISTANT) if a != b}

    def link(self, me: int, peer: int) -> QueueLink:
        return QueueLink(self.queues[(me, peer)], self.queues[(peer, me)])

    def close(self):
        """Nothing to release; each link closes its own end."""


class TcpHub:
    """TCP transport over localhost with one dedicated connection per pair.

    The lower-numbered party in each pair accepts and the other one dials;
    connect() completes against the listen backlog, so the handshakes need
    no particular ordering across parties.
    """

    def __init__(self, host: str = "127.0.0.1"):
        self.host = host
        self._servers = {}
        self._ports = {}
        for pair in [(P0, P1), (P0, ASSISTANT), (P1, ASSISTANT)]:
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((host, 0))
            srv.listen(1)
            self._servers[pair] = srv
            self._ports[pair] = srv.getsockname()[1]

    def link(self, me: int, peer: int) -> SocketLink:
        pair = (min(me, peer), max(me, peer))
        if me == pair[0]:
            conn, _ = self._servers[pair].accept()
            return SocketLink(conn)
        sock = socket.create_connection((self.host, self._ports[pair]))
        return SocketLink(sock)

    def close(self):
        for srv in self._servers.values():
            srv.close()


class PartyNetwork:
    """A party's channels to its two peers plus its traffic statistics."""

    def __init__(self, me: int, hub):
        self.me = me
        self.stats = RoundStats()
        others = [p for p in (P0, P1, ASSISTANT) if p != me]
        links = {peer: hub.link(me, peer) for peer in others}
        self.channels = {peer: Channel(links[peer], self.stats, offline=(ASSISTANT in (me, peer)))
                         for peer in others}

    @property
    def peer(self) -> Channel:
        """Channel to the other compute server."""
        return self.channels[1 - self.me]

    @property
    def assistant(self) -> Channel:
        return self.channels[ASSISTANT]

    def close(self):
        for ch in self.channels.values():
            ch.link.close()
