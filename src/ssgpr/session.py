"""Per-party protocol runtime and the three-thread session orchestrator.

Both compute servers run the same protocol code with only their party id
differing; the assistant runs the offline request loop. Message tags are
drawn from per-party counters that advance identically on both sides, so
the two transcripts stay aligned without negotiation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .ring import FixedPointCodec, RingParams, ring_reduce
from .offline import AssistantClient, serve_assistant
from .transport import ASSISTANT, P0, P1, LocalHub, PartyNetwork, TcpHub


@dataclass(frozen=True)
class DivisionConfig:
    """Iteration counts of the Newton-based protocols and the square root's domain.

    Eight reciprocal iterations keep the division round budget at the
    conventional 17 (16 iteration rounds plus the final product). A
    division's domain is an argument: the matrix inversion takes it from
    the kernel's public pivot bounds. The square root's first guess is
    fitted at ``sqrt_hi / 2``, so inputs should lie in [0, sqrt_hi].
    """

    iterations: int = 8
    sqrt_hi: float = 16.0
    sqrt_iterations: int = 25

    @property
    def rounds(self) -> int:
        """Round budget of one division (reciprocal plus one multiply)."""
        return 2 * self.iterations + 1


# Truncation offsets are drawn from the pair generator this many at a
# time. The 8-bit draws in a block share generator words, so the offsets
# differ from what one draw per truncation would give; both servers draw
# the same blocks, so their offsets still agree.
PAIR_OFFSET_BLOCK = 4096


class _Scope:
    """Context manager that files traffic under a protocol scope."""

    __slots__ = ("stats", "name")

    def __init__(self, stats, name: str):
        self.stats = stats
        self.name = name

    def __enter__(self):
        self.stats.push_scope(self.name)

    def __exit__(self, *exc):
        self.stats.pop_scope()


class PartyRuntime:
    """One compute server's sequential protocol state."""

    def __init__(self, party: int, net: PartyNetwork, codec: FixedPointCodec,
                 assistant: AssistantClient, pair_rng: np.random.Generator,
                 div: DivisionConfig | None = None):
        self.party = party
        self.net = net
        self.codec = codec
        self.assistant = assistant
        self.pair_rng = pair_rng
        self.div = div or DivisionConfig()
        self._tag = 1 << 32
        self._delta = 1 << (codec.params.l - 3)
        self._offsets = np.empty(0, dtype=np.uint64)
        self._offsets_at = 0

    @property
    def params(self) -> RingParams:
        return self.codec.params

    @property
    def stats(self):
        return self.net.stats

    def next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def exchange(self, payload: np.ndarray) -> np.ndarray:
        """One bidirectional exchange with the peer compute server."""
        return self.net.peer.exchange(self.next_tag(), payload)

    def _pair_offsets(self, n: int) -> np.ndarray:
        """The next ``n`` truncation offsets, uniform on [delta, 2^l - 2 delta)."""
        at = self._offsets_at
        if at + n > self._offsets.size:
            # The range is five delta-wide cells above delta, so an offset
            # is (q + 1) delta + r with q uniform on {0, ..., 4} and r the
            # top l - 3 bits of a raw generator word.
            size = max(n, PAIR_OFFSET_BLOCK)
            cell = self.pair_rng.integers(1, 6, size=size, dtype=np.uint8).astype(np.uint64)
            low_bits = self.params.l - 3
            within = self.pair_rng.bit_generator.random_raw(size) >> np.uint64(64 - low_bits)
            fresh = (cell << np.uint64(low_bits)) | within
            self._offsets = np.concatenate([self._offsets[at:], fresh])
            at = 0
        self._offsets_at = at + n
        return self._offsets[at:at + n]

    def trunc_values(self, values: np.ndarray, bits: int) -> np.ndarray:
        """Shift shared raw words right by ``bits`` via the assistant.

        Party 0 adds a public offset that makes the hidden value strictly
        positive, plus half an output quantum so that the shift rounds;
        party 1 adds a random
        offset drawn from the generator both servers share but the
        assistant does not know. The masked sum can never wrap the ring,
        so the assistant's public shift is exact and the subtracted offset
        shifts commute, leaving at most 1.5 quanta of error.
        """
        delta = self._delta
        shape = values.shape
        lam = self._pair_offsets(values.size).reshape(shape)
        if self.party == 0:
            w = values + np.uint64(delta + (1 << (bits - 1)))
        else:
            w = values + lam
        t = self.assistant.trunc(w, bits).reshape(shape)
        if self.party == 0:
            t = t - (lam >> np.uint64(bits)) - np.uint64(delta >> bits)
        return ring_reduce(t, self.params)

    def scope(self, name: str) -> _Scope:
        return _Scope(self.stats, name)


@dataclass
class SessionResult:
    outputs: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def run_session(job, codec: FixedPointCodec, seed: int = 0, backend: str = "inproc",
                div: DivisionConfig | None = None) -> SessionResult:
    """Run ``job(runtime) -> output`` on both compute servers.

    The assistant thread serves correlated randomness generated from
    ``seed`` and every truncation's masked rescaling request. If any party
    fails, the session raises for the first failure; the connection errors
    it then causes in the other parties are not reported.
    """
    if backend == "inproc":
        hub = LocalHub()
    elif backend == "sockets":
        hub = TcpHub()
    else:
        raise ValueError(f"unknown transport backend {backend!r}")

    outputs = {}
    stats = {}
    failures = []  # (party name, exception) in the order the parties failed

    def party(name: str, me: int):
        net = None
        try:
            net = PartyNetwork(me, hub)
            if me == ASSISTANT:
                serve_assistant(net, codec.params, seed)
                return
            stats[me] = net.stats
            client = AssistantClient(net.assistant)
            pair_rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x7472756E63])
            outputs[me] = job(PartyRuntime(me, net, codec, client, pair_rng, div))
            client.shutdown()
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            # Recorded before this party's links close, so the peers'
            # follow-on connection errors always come later.
            failures.append((name, exc))
        finally:
            if net is not None:
                net.close()

    threads = [threading.Thread(target=party, args=(name, me), daemon=True)
               for name, me in (("assistant", ASSISTANT), ("party0", P0), ("party1", P1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    hub.close()

    if failures:
        name, exc = failures[0]
        raise RuntimeError(f"session failed in {name}") from exc
    return SessionResult(outputs=outputs, stats=stats)
