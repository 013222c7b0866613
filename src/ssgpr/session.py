"""Per-party protocol runtime and the three-thread session orchestrator.

Both compute servers run the same protocol code with only their party id
differing; the assistant runs the offline request loop. Message tags are
drawn from per-party counters that advance identically on both sides, so
the two transcripts stay aligned without negotiation.

Every party gets a generator of its own, keyed by a one-way hash of the
seed and the party. Server i also gets dealing key i, hashed under the
label ``deal/i``, and the assistant gets both keys; server i expands its
half of every dealt uniform word from its key, so those words never
travel. No key reaches the other server, and party 1's truncation
offsets come from its own generator, which no key touches.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .ring import FixedPointCodec, RingParams, ring_reduce
from .offline import AssistantClient, serve_assistant
from .transport import ASSISTANT, P0, P1, LocalHub, PartyNetwork, TcpHub

# The matrix inversion's paths, the default first (DivisionConfig.matinv).
MATINV_PATHS = ("ldl", "paper")


@dataclass(frozen=True)
class DivisionConfig:
    """The matrix inversion's path and the square root's domain.

    ``matinv`` picks the LDL inversion's path. "ldl", the default, runs
    a Goldschmidt reciprocal closed by one Newton step, so a division
    with k reciprocal steps costs k + 3 rounds. Its inversion is one pass
    over the columns: a column's sums and its row of L^{-1} take one
    product round, and its pivot's reciprocal divides the column and that
    row in its Newton close, k + 3 rounds a column. "paper" is the
    paper's algorithm, four products a column and a Newton reciprocal at
    2k + 1 rounds, then forward substitution and a backward division,
    kept as the reference whose counts the tests pin. k is no setting:
    ``protocols.division_steps`` derives it from a division's public
    domain, an argument that the matrix inversion takes from the kernel's
    pivot bounds. The square root's first guess is fitted at
    ``sqrt_hi / 2``, and its inputs should be exact zeros or lie in
    ``protocols.sqrt_domain``, [2^-9, sqrt_hi] at l = 64 and l_f = 26.
    Its step count is no setting either: ``protocols.sqrt_steps`` derives
    it from that domain, 13 steps at the default sqrt_hi of 16.
    """

    sqrt_hi: float = 16.0
    matinv: str = "ldl"

    def __post_init__(self):
        if not 0 < self.sqrt_hi < np.inf:
            raise ValueError(f"sqrt_hi must be finite and positive, got {self.sqrt_hi!r}")
        if self.matinv not in MATINV_PATHS:
            raise ValueError(f"matinv must be one of {', '.join(MATINV_PATHS)}, "
                             f"got {self.matinv!r}")


# Party 1 draws its truncation offsets this many at a time; its 8-bit draws
# share generator words, so they differ from one draw per truncation.
TRUNC_OFFSET_BLOCK = 4096


def keyed_rng(seed: int, label) -> np.random.Generator:
    """Philox keyed by a one-way hash of (seed, label); its state holds no seed.

    A party's own generator is labelled by the party, and server i's
    dealing key by ``deal/i``.
    """
    key = hashlib.blake2b(f"{int(seed)}/{label}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))


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
                 assistant: AssistantClient, rng: np.random.Generator,
                 div: DivisionConfig | None = None):
        self.party = party
        self.net = net
        self.codec = codec
        self.assistant = assistant
        self.rng = rng
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

    def _trunc_offsets(self, n: int) -> np.ndarray:
        """The next ``n`` truncation offsets, uniform on [delta, 2^l - 2 delta)."""
        at = self._offsets_at
        if at + n > self._offsets.size:
            # An offset is (q + 1) delta + r: q, uniform on {0, ..., 4}, picks one of
            # five delta-wide cells above delta; r is the top l - 3 bits of a raw word.
            size = max(n, TRUNC_OFFSET_BLOCK)
            cell = self.rng.integers(1, 6, size=size, dtype=np.uint8).astype(np.uint64)
            low_bits = self.params.l - 3
            within = self.rng.bit_generator.random_raw(size) >> np.uint64(64 - low_bits)
            fresh = (cell << np.uint64(low_bits)) | within
            self._offsets = np.concatenate([self._offsets[at:], fresh])
            at = 0
        self._offsets_at = at + n
        return self._offsets[at:at + n]

    def trunc_values(self, values: np.ndarray, bits: int) -> np.ndarray:
        """Shift shared raw words right by ``bits`` via the assistant.

        Party 0 adds the public offset delta = 2^(l-3) plus half an output
        quantum, so the shift rounds; party 1 adds an offset lambda uniform
        on [delta, 2^l - 2 delta) from its own generator, so the assistant
        sees only the masked sum. The sum cannot wrap, and the shift is
        exact, for a value in [-2 delta - 2^(bits-1), delta - 2^(bits-1));
        outside that window some lambda opens it wrong. Each party then
        subtracts its own shifted offset: at most 1.5 quanta of error.
        """
        if self.party == 0:
            w = values + np.uint64(self._delta + (1 << (bits - 1)))
            mine = np.uint64(self._delta >> bits)
        else:
            lam = self._trunc_offsets(values.size).reshape(values.shape)
            w = values + lam
            mine = lam >> np.uint64(bits)
        t = self.assistant.trunc(ring_reduce(w, self.params), bits).reshape(values.shape)
        return ring_reduce(t - mine, self.params)

    def scope(self, name: str) -> _Scope:
        return _Scope(self.stats, name)


@dataclass
class SessionResult:
    outputs: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def run_session(job, codec: FixedPointCodec, seed: int = 0, backend: str = "inproc",
                div: DivisionConfig | None = None) -> SessionResult:
    """Run ``job(runtime) -> output`` on both compute servers.

    Each party's thread gets only its own generator, ``keyed_rng(seed,
    party)``; server i's thread also gets dealing key i, ``keyed_rng(seed,
    f"deal/{i}")``, and the assistant's thread both keys. If any party
    fails, the session raises for the first failure; the connection
    errors it then causes in the other parties are not reported.
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

    def party(name: str, me: int, rng: np.random.Generator, dealing):
        net = None
        try:
            net = PartyNetwork(me, hub)
            if me == ASSISTANT:
                serve_assistant(net, codec.params, rng, dealing)
                return
            stats[me] = net.stats
            client = AssistantClient(net.assistant, dealing, codec.params)
            outputs[me] = job(PartyRuntime(me, net, codec, client, rng, div))
            client.shutdown()
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            # Recorded before this party's links close, so the peers'
            # follow-on connection errors always come later.
            failures.append((name, exc))
        finally:
            if net is not None:
                net.close()

    def deal_key(i: int) -> np.random.Generator:
        return keyed_rng(seed, f"deal/{i}")

    dealing = {ASSISTANT: (deal_key(P0), deal_key(P1)), P0: deal_key(P0), P1: deal_key(P1)}
    threads = [threading.Thread(target=party, args=(name, me, keyed_rng(seed, me), dealing[me]),
                                daemon=True)
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
