"""Assistant server: correlated randomness plus masked rescaling help.

The assistant is the only source of correlated randomness. Material is
dealt: both compute servers send the same plan, a list of items (Beaver
triples, matrix triples, exponent masks, model masks and kept triples) in
the order the protocol will consume them. The assistant checks that the
two plans agree, generates every item in one vectorised pass from its own
generator, and returns one additive share of the whole plan to each
server. This module alone decides when material travels: ``deal`` only
queues a plan, which rides on the server's next assistant request, after
a truncation's masked words, or alone when a take finds nothing dealt
(just the item taken if nothing is pending). One LDL matrix inversion
thus makes 25n - 7 assistant round trips, 2n - 1 of them for material
alone, next to its 22n - 6 peer rounds.

A model mask B is dealt once per per-model operand (a GP model's
[Inv | alpha] and X^T) and kept by the assistant for the rest of the
session under a key that both servers send in the plan; a kept triple
pairs a fresh A with it as C = A @ B, so a product by the operand opens
only its left side. Both items hold only opcodes, shapes and the key. A
reused key, an unknown one or a shape other than the kept mask's aborts.
Model construction thus makes 25n - 2 assistant round trips on SE, and
an SE prediction batch 7 (``analysis.construct_assistant_round_trips``
and ``analysis.predict_assistant_round_trips``).

The assistant also offers a rescaling service: the servers submit shares
of a value hidden under a random offset known only to party 1, and the
assistant shifts the masked sum and deals it back, with any plan's
material after it, as fresh shares. It sees only uniformly masked words,
never an opening of the data.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .ring import RingParams, from_signed, ring_matmul, ring_mul, ring_reduce
from .sharing import random_ring_elements, shr
from .transport import P0, P1, Channel, PartyNetwork, ProtocolAbort

OP_SHUTDOWN = 0
OP_TRIPLE = 1
OP_MATRIX_TRIPLE = 2
OP_EXP_MASK = 3
OP_TRUNC = 4
OP_MODEL_MASK = 5
OP_KEPT_TRIPLE = 6

# Item opcode -> number of size (and key) words that follow it in a plan.
_ARITY = {OP_TRIPLE: 1, OP_MATRIX_TRIPLE: 3, OP_EXP_MASK: 2, OP_MODEL_MASK: 3,
          OP_KEPT_TRIPLE: 5}


class ProtocolError(RuntimeError):
    """Protocol-level misuse: reused material, bad dimensions, bad domain."""


@dataclass
class Triple:
    """One party's shares of a Beaver triple (a, b, c).

    c = a * b elementwise for a "triple" item and c = a @ b over the ring
    for a "matrix" item.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    consumed: bool = False


@dataclass
class ExpMask:
    """One party's shares of an exponentiation mask pair.

    ``r`` holds shares of the fixed-point encoding of a grid value
    r_hat in [-r_hat_max, r_hat_max); ``m`` holds shares of
    round(e^{-r_hat} * 2^l_f).
    """

    r: np.ndarray
    m: np.ndarray
    consumed: bool = False


@dataclass
class ModelMask:
    """One party's share of a model mask B, which the assistant keeps for the session."""

    b: np.ndarray
    consumed: bool = False


@dataclass
class KeptTriple:
    """One party's shares of a fresh A and C = A @ B against a kept model mask B.

    ``s`` holds shares of A's squared row norms when the item asks for them.
    """

    a: np.ndarray
    c: np.ndarray
    s: np.ndarray | None = None
    consumed: bool = False


def _size(shape) -> int:
    return math.prod(shape)


# Kinds whose spec is a fixed number of integers: (m, n, k), (key, rows,
# cols) and (key, m, rows, cols, norms).
_INT_SPECS = {"matrix": 3, "model_mask": 3, "kept_triple": 5}


def _canonical(kind: str, spec):
    """A plan item's spec with plain-int sizes, so that equal items compare equal.

    Kinds and specs: ("triple", shape), ("matrix", (m, n, k)),
    ("exp_mask", (shape, rmax_enc)), ("model_mask", (key, rows, cols)) and
    ("kept_triple", (key, m, rows, cols, norms)).
    """
    if kind == "triple":
        return tuple(int(s) for s in spec)
    if kind in _INT_SPECS:
        dims = tuple(int(s) for s in spec)
        sizes = dims if kind == "matrix" else dims[1:4]
        if (len(dims) != _INT_SPECS[kind] or min(sizes) < 1
                or kind == "kept_triple" and dims[4] not in (0, 1)):
            raise ValueError(f"a {kind} spec is {_INT_SPECS[kind]} integers with positive "
                             f"sizes (and a 0/1 norms flag), got {spec}")
        return dims
    if kind == "exp_mask":
        shape, rmax_enc = spec
        return tuple(int(s) for s in shape), int(rmax_enc)
    raise ValueError(f"unknown material kind {kind!r}")


def _item_words(kind: str, spec) -> list[int]:
    """Request words of one canonical item: [1, n], [2, m, n, k], [3, n, rmax],
    [5, key, rows, cols] or [6, key, m, rows, cols, norms]."""
    if kind == "triple":
        return [OP_TRIPLE, _size(spec)]
    if kind == "matrix":
        return [OP_MATRIX_TRIPLE, *spec]
    if kind == "model_mask":
        return [OP_MODEL_MASK, *spec]
    if kind == "kept_triple":
        return [OP_KEPT_TRIPLE, *spec]
    shape, rmax_enc = spec
    return [OP_EXP_MASK, _size(shape), rmax_enc]


def _layout(op: int, dims) -> tuple[int, int]:
    """Reply words of one item, and how many of them lead as uniform draws.

    A triple's a and b lead their slot, and a model mask is all uniform;
    products follow. Exponent masks draw nothing uniform.
    """
    if op == OP_TRIPLE:
        return 3 * dims[0], 2 * dims[0]
    if op == OP_MATRIX_TRIPLE:
        m, n, k = dims
        return m * n + n * k + m * k, m * n + n * k
    if op == OP_MODEL_MASK:
        _, rows, cols = dims
        return rows * cols, rows * cols
    if op == OP_KEPT_TRIPLE:
        _, m, rows, cols, norms = dims
        return m * rows + m * cols + norms * m, m * rows
    return 2 * dims[0], 0


def _unpack(kind: str, spec, flat: np.ndarray):
    """One party's material object from its slot of a deal reply."""
    if kind == "triple":
        n = _size(spec)
        return Triple(flat[:n].reshape(spec), flat[n:2 * n].reshape(spec),
                      flat[2 * n:].reshape(spec))
    if kind == "matrix":
        m, n, k = spec
        return Triple(flat[:m * n].reshape(m, n), flat[m * n:m * n + n * k].reshape(n, k),
                      flat[m * n + n * k:].reshape(m, k))
    if kind == "model_mask":
        return ModelMask(flat.reshape(spec[1:]))
    if kind == "kept_triple":
        _, m, rows, cols, norms = spec
        at = m * rows + m * cols
        return KeptTriple(flat[:m * rows].reshape(m, rows), flat[m * rows:at].reshape(m, cols),
                          flat[at:] if norms else None)
    shape, _ = spec
    n = _size(shape)
    return ExpMask(flat[:n].reshape(shape), flat[n:].reshape(shape))


def _parse_plan(request: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
    """Split a dealing request into (opcode, sizes) items, aborting on bad words."""
    items, at = [], 0
    while at < request.size:
        op = int(request[at])
        arity = _ARITY.get(op)
        if arity is None or at + 1 + arity > request.size:
            raise ProtocolAbort(f"malformed dealing request: opcode {op} at word {at} "
                                f"of {request.size}")
        items.append((op, tuple(int(w) for w in request[at + 1:at + 1 + arity])))
        at += 1 + arity
    if not items:
        raise ProtocolAbort("empty dealing request")
    return items


def _deal_shares(rng: np.random.Generator, plan, params: RingParams, kept: dict, lead=()):
    """Both servers' replies to ``lead`` words and a parsed plan, in one pass.

    One uniform draw covers every item's random part, each product and
    each exponent mask pair is written into its slot after ``lead``, and
    one ``shr`` call splits the whole reply into the two servers' shares.
    A model mask is also kept in ``kept`` under its key, and a kept triple
    multiplies its fresh A by the mask it names; a reused key, an unknown
    one or a shape other than the kept mask's aborts.
    """
    layout = [_layout(op, dims) for op, dims in plan]
    uniform = random_ring_elements(rng, sum(head for _, head in layout), params)
    at = len(lead)
    secret = np.empty(at + sum(size for size, _ in layout), dtype=np.uint64)
    secret[:at] = lead
    drawn = 0
    for (op, dims), (size, head) in zip(plan, layout):
        slot = secret[at:at + size]
        slot[:head] = uniform[drawn:drawn + head]
        at += size
        drawn += head
        if op == OP_TRIPLE:
            n = dims[0]
            slot[2 * n:] = ring_mul(slot[:n], slot[n:2 * n], params)
        elif op == OP_MATRIX_TRIPLE:
            m, n, k = dims
            a = slot[:m * n].reshape(m, n)
            b = slot[m * n:m * n + n * k].reshape(n, k)
            slot[m * n + n * k:] = ring_matmul(a, b, params).ravel()
        elif op == OP_MODEL_MASK:
            key, rows, cols = dims
            if key in kept:
                raise ProtocolAbort(f"model key {key} is already kept; a model mask is "
                                    "dealt once")
            kept[key] = slot.reshape(rows, cols).copy()
        elif op == OP_KEPT_TRIPLE:
            key, m, rows, cols, norms = dims
            b = kept.get(key)
            if b is None:
                raise ProtocolAbort(f"a kept triple names model key {key}, which is not kept")
            if b.shape != (rows, cols):
                raise ProtocolAbort(f"a kept triple names model key {key} as {rows} x {cols}, "
                                    f"but its kept mask is {b.shape[0]} x {b.shape[1]}")
            a = slot[:m * rows].reshape(m, rows)
            slot[m * rows:m * rows + m * cols] = ring_matmul(a, b, params).ravel()
            if norms:
                squares = ring_mul(a, a, params).sum(axis=1, dtype=np.uint64)
                slot[m * rows + m * cols:] = ring_reduce(squares, params)
        else:
            # r_hat uniform on the fixed-point grid of [-r_hat_max, r_hat_max).
            n, rmax_enc = dims
            k = rng.integers(-rmax_enc, rmax_enc, size=n, dtype=np.int64)
            r_hat = k.astype(np.float64) / (1 << params.lf)
            slot[:n] = from_signed(k, params)
            slot[n:] = from_signed(np.round(np.exp(-r_hat) * (1 << params.lf)), params)
    return shr(secret, rng, params)


def gen_material(rng: np.random.Generator, kind: str, spec, params: RingParams,
                 kept: dict | None = None):
    """Deal one item outside a session; returns both servers' material.

    ``kept`` holds the model masks by key, as the assistant keeps them.
    """
    spec = _canonical(kind, spec)
    words = _item_words(kind, spec)
    s0, s1 = _deal_shares(rng, [(words[0], tuple(words[1:]))], params,
                          {} if kept is None else kept)
    return _unpack(kind, spec, s0), _unpack(kind, spec, s1)


class AssistantClient:
    """A compute server's side of the assistant: material and rescaling."""

    def __init__(self, channel: Channel):
        self.channel = channel
        self._tag = 0
        self._keys = 0
        self._pending = []  # (kind, spec, words) planned but not yet requested
        self._dealt = deque()  # (kind, spec, material) in dealing order

    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def new_key(self) -> int:
        """A fresh model key; both servers number their model masks alike."""
        self._keys += 1
        return self._keys

    def _request(self, words) -> np.ndarray:
        tag = self._next_tag()
        self.channel.send(tag, np.asarray(words, dtype=np.uint64))
        return self.channel.recv(tag)

    def deal(self, items):
        """Plan the material of ``items``; it rides on the next request.

        ``items`` lists ("triple", shape), ("matrix", (m, n, k)),
        ("exp_mask", (shape, rmax_enc)), ("model_mask", (key, rows, cols))
        and ("kept_triple", (key, m, rows, cols, norms)) in the order the
        protocol will take them; both servers must deal the same plan.
        Nothing is sent here.
        """
        items = [(kind, _canonical(kind, spec)) for kind, spec in items]
        if not items:
            raise ValueError("a deal needs at least one item")
        self._pending += [(kind, spec, _item_words(kind, spec)) for kind, spec in items]

    def _plan_words(self) -> np.ndarray:
        return np.asarray([w for _, _, words in self._pending for w in words], dtype=np.uint64)

    def _queue(self, out: np.ndarray):
        """Unpack the pending plan's material from ``out`` into the dealt queue."""
        at = 0
        for kind, spec, words in self._pending:
            size, _ = _layout(words[0], words[1:])
            self._dealt.append((kind, spec, _unpack(kind, spec, out[at:at + size])))
            at += size
        self._pending = []

    def _take(self, kind: str, spec):
        if not self._dealt:
            if not self._pending:
                self.deal([(kind, spec)])
            self._queue(self._request(self._plan_words()))
        got_kind, got_spec, material = self._dealt.popleft()
        # Shapes usually arrive canonical already; only a mismatch pays for
        # the conversion.
        if got_kind != kind or (got_spec != spec and got_spec != _canonical(kind, spec)):
            spec = _canonical(kind, spec)
            raise ProtocolError(f"dealt material out of order: the next dealt item is a "
                                f"{got_kind} {got_spec}, but a {kind} {spec} was requested")
        return material

    def get_triple(self, shape) -> Triple:
        return self._take("triple", shape)

    def get_matrix_triple(self, m: int, n: int, k: int) -> Triple:
        return self._take("matrix", (m, n, k))

    def get_exp_mask(self, shape, rmax_enc: int) -> ExpMask:
        return self._take("exp_mask", (shape, rmax_enc))

    def get_model_mask(self, key: int, shape) -> ModelMask:
        return self._take("model_mask", (key, *shape))

    def get_kept_triple(self, key: int, m: int, shape, norms: bool = False) -> KeptTriple:
        return self._take("kept_triple", (key, m, *shape, int(norms)))

    def trunc(self, masked: np.ndarray, bits: int) -> np.ndarray:
        """Ask the assistant to shift a masked positive value right by ``bits``.

        Both servers send their share of the masked value; the assistant
        reconstructs it (learning only the masked sum), shifts, and returns
        a fresh additive sharing of the result, any pending plan's after it.
        """
        masked = np.ascontiguousarray(masked, dtype=np.uint64).ravel()
        head = np.asarray([OP_TRUNC, bits, masked.size], dtype=np.uint64)
        if not self._pending:
            return self._request(np.concatenate([head, masked]))
        out = self._request(np.concatenate([head, masked, self._plan_words()]))
        self._queue(out[masked.size:])
        return out[:masked.size]

    def shutdown(self):
        """End the session; material dealt and never taken is an error."""
        unused = [*self._dealt, *self._pending]
        if unused:
            kind, spec, _ = unused[0]
            raise ProtocolError(f"{len(unused)} dealt items were never used, the first "
                                f"a {kind} {spec}; every dealt item must be consumed")
        tag = self._next_tag()
        self.channel.send(tag, np.asarray([OP_SHUTDOWN], dtype=np.uint64))


def serve_assistant(net: PartyNetwork, params: RingParams, rng: np.random.Generator):
    """Assistant main loop: answer matching requests until shutdown.

    Both compute servers must send identical requests but for a
    truncation's masked shares; any divergence aborts the protocol since it
    would indicate a corrupted or inconsistent online phase. A request is a
    shutdown, a dealing plan, or a truncation that a plan may follow; every
    dealt word comes from ``rng``, the assistant's own generator.
    """
    ch0, ch1 = net.channels[P0], net.channels[P1]
    kept = {}  # model key -> model mask, for the rest of the session
    tag = 0
    while True:
        tag += 1
        req0 = ch0.recv(tag)
        req1 = ch1.recv(tag)
        op = int(req0[0]) if req0.size else -1
        # A truncation's words 3 .. stop are each server's own masked share;
        # every other word must match.
        start = stop = 0
        if op == OP_TRUNC:
            n = int(req0[2]) if req0.size >= 3 else -1
            start, stop = 3, 3 + n
            if not 3 <= stop <= req0.size:
                raise ProtocolAbort(f"malformed truncation request: its head announces {n} "
                                    f"masked words, but it holds {max(req0.size - 3, 0)}")
        if (req0.size != req1.size or req0[:start].tobytes() != req1[:start].tobytes()
                or req0[stop:].tobytes() != req1[stop:].tobytes()):
            raise ProtocolAbort("compute servers sent diverging assistant requests")
        if op == OP_SHUTDOWN:
            return
        if op == OP_TRUNC:
            shifted = ring_reduce(req0[3:stop] + req1[3:stop], params) >> req0[1]
            if stop == req0.size:
                t0, t1 = shr(shifted, rng, params)
            else:
                t0, t1 = _deal_shares(rng, _parse_plan(req0[stop:]), params, kept, shifted)
        else:
            t0, t1 = _deal_shares(rng, _parse_plan(req0), params, kept)
        ch0.send(tag, t0)
        ch1.send(tag, t1)
