"""Assistant server: correlated randomness plus masked rescaling help.

The assistant is the only source of correlated randomness. Material is
dealt: both compute servers send the same plan, a list of items (Beaver
triples, matrix triples, exponent masks, model masks, kept triples and
LDL columns) in the order the protocol will consume them. The assistant
checks that the two plans agree and generates every item in one
vectorised pass. An item's uniform head (a triple's a and b, a matrix
triple's A and B, a model mask, a kept triple's A) is h0 + h1, where h_i
comes from server i's dealing key: server i holds key i only and the
assistant holds both. Server i draws h_i itself, in one call per reply
and in plan order, so the reply carries only the truncation result and
the items' other words (products, norms, exponent mask pairs, an LDL
column's mask products), one additive share of them each, shared from
the assistant's own generator. Each server still gets one reply per
request, an empty one if the plan holds only model masks.
This module alone decides when material travels: ``deal`` only
queues a plan, which rides on the server's next assistant request, after
a truncation's masked words, or alone when a take finds nothing dealt
(just the item taken if nothing is pending). Takes stay in dealing
order, so a protocol may deal its next step's plan before this step's
first truncation. One LDL matrix inversion, which deals each column one
ahead, thus makes (k + 4)n + 1 assistant round trips at k reciprocal
steps, 1 of them for material alone, next to its (k + 3)n peer rounds
(23n - 4 with 2 alone, and 22n - 6, on the paper's path at 8 steps).

A model mask B is dealt once per per-model operand (a GP model's
[Inv | alpha] and X^T) and kept by the assistant for the rest of the
session under a key that both servers send in the plan; a kept triple
pairs a fresh A with it as C = A @ B, so a product by the operand opens
only its left side. Kept masks also serve the LDL inversion, which opens
each word of its L, C and V = L^{-1} once: a model mask flagged lower is
square and strictly lower triangular, its head only the n(n-1)/2 words
below the diagonal, and the inversion keeps three, one per matrix.
Column k's ``ldl_column`` item, [7, key_L, key_C, key_V, n, k], then
takes no head and n reply words, M_L[k:n, :k] M_C[k, :k]^T and
M_L[k, :k] M_V[:k, :k], and the final product is a kept triple on V's
mask. A lower mask goes at its last item (``KeptMasks``): L's and C's
after the column k = n - 1, V's after the kept triple on it. All these
items hold only opcodes, shapes, keys, flags and column indices. A
reused key, an unknown or released one, a shape other than the kept
mask's (n x n for an LDL column) or an LDL column k outside 1 .. n - 1
aborts. Model construction thus makes 11n + 6 assistant round trips on
SE, and an SE prediction batch 7
(``analysis.construct_assistant_round_trips`` and
``analysis.predict_assistant_round_trips``).

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
OP_LDL_COLUMN = 7

# Item opcode -> number of size (and key) words that follow it in a plan.
_ARITY = {OP_TRIPLE: 1, OP_MATRIX_TRIPLE: 3, OP_EXP_MASK: 2, OP_MODEL_MASK: 4,
          OP_KEPT_TRIPLE: 5, OP_LDL_COLUMN: 5}


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
    """One party's share of a model mask B, which the assistant keeps for the session.

    A strictly lower mask is zero on and above its diagonal.
    """

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


@dataclass
class ColumnProducts:
    """One party's shares of an LDL column's two products of kept masks.

    For column k of kept masks M_L, M_C and M_V, ``sums`` is
    M_L[k:n, :k] @ M_C[k, :k]^T and ``row`` is M_L[k, :k] @ M_V[:k, :k].
    """

    sums: np.ndarray
    row: np.ndarray
    consumed: bool = False


def _size(shape) -> int:
    return math.prod(shape)


def _strict_lower(words: np.ndarray, n: int) -> np.ndarray:
    """An n x n matrix holding ``words`` below its diagonal, row by row, and zeros elsewhere."""
    out = np.zeros((n, n), dtype=np.uint64)
    out[np.tril_indices(n, -1)] = words
    return out


# Kinds whose spec is a fixed number of integers: (m, n, k), (key, rows,
# cols, lower), (key, m, rows, cols, norms) and (key_L, key_C, key_V, n, k);
# the count, the positive sizes' slice and a 0/1 flag's place, if any.
_INT_SPECS = {"matrix": (3, slice(0, 3), None), "model_mask": (4, slice(1, 3), 3),
              "kept_triple": (5, slice(1, 4), 4), "ldl_column": (5, slice(3, 4), None)}


def _canonical(kind: str, spec):
    """A plan item's spec with plain-int sizes, so that equal items compare equal.

    Kinds and specs: ("triple", shape), ("matrix", (m, n, k)),
    ("exp_mask", (shape, rmax_enc)), ("model_mask", (key, rows, cols, lower)),
    ("kept_triple", (key, m, rows, cols, norms)) and
    ("ldl_column", (key_L, key_C, key_V, n, k)). A lower model mask is
    square; the assistant checks an LDL column's keys and k.
    """
    if kind == "triple":
        return tuple(int(s) for s in spec)
    if kind in _INT_SPECS:
        dims = tuple(int(s) for s in spec)
        count, sizes, flag = _INT_SPECS[kind]
        if (len(dims) != count or min(dims[sizes]) < 1
                or flag is not None and dims[flag] not in (0, 1)
                or kind == "model_mask" and dims[3] and dims[1] != dims[2]):
            raise ValueError(f"a {kind} spec is {count} integers with positive sizes "
                             f"(and a 0/1 flag; a lower mask is square), got {spec}")
        return dims
    if kind == "exp_mask":
        shape, rmax_enc = spec
        return tuple(int(s) for s in shape), int(rmax_enc)
    raise ValueError(f"unknown material kind {kind!r}")


_OPCODES = {"matrix": OP_MATRIX_TRIPLE, "model_mask": OP_MODEL_MASK,
            "kept_triple": OP_KEPT_TRIPLE, "ldl_column": OP_LDL_COLUMN}


def _item_words(kind: str, spec) -> list[int]:
    """Request words of one canonical item: [1, n], [2, m, n, k], [3, n, rmax],
    [5, key, rows, cols, lower], [6, key, m, rows, cols, norms] or
    [7, key_L, key_C, key_V, n, k]."""
    if kind == "triple":
        return [OP_TRIPLE, _size(spec)]
    if kind in _OPCODES:
        return [_OPCODES[kind], *spec]
    shape, rmax_enc = spec
    return [OP_EXP_MASK, _size(shape), rmax_enc]


def _layout(op: int, dims) -> tuple[int, int]:
    """Uniform head words and reply words of one item.

    The head is a triple's a and b, a matrix triple's A and B, a model
    mask (a lower one's words below the diagonal) and a kept triple's A;
    each server expands its half of it from its dealing key. The reply
    words are the rest: products, norms, exponent mask pairs and an LDL
    column's n mask products.
    """
    if op == OP_TRIPLE:
        return 2 * dims[0], dims[0]
    if op == OP_MATRIX_TRIPLE:
        m, n, k = dims
        return m * n + n * k, m * k
    if op == OP_MODEL_MASK:
        _, rows, cols, lower = dims
        return (rows * (rows - 1) // 2 if lower else rows * cols), 0
    if op == OP_KEPT_TRIPLE:
        _, m, rows, cols, norms = dims
        return m * rows, m * cols + norms * m
    if op == OP_LDL_COLUMN:
        return 0, dims[3]
    return 0, 2 * dims[0]


def _unpack(kind: str, spec, head: np.ndarray, tail: np.ndarray):
    """One party's material object from views of its head draw and its reply slot."""
    if kind == "triple":
        n = _size(spec)
        return Triple(head[:n].reshape(spec), head[n:].reshape(spec), tail.reshape(spec))
    if kind == "matrix":
        m, n, k = spec
        return Triple(head[:m * n].reshape(m, n), head[m * n:].reshape(n, k),
                      tail.reshape(m, k))
    if kind == "model_mask":
        _, rows, cols, lower = spec
        return ModelMask(_strict_lower(head, rows) if lower else head.reshape(rows, cols))
    if kind == "kept_triple":
        _, m, rows, cols, norms = spec
        return KeptTriple(head.reshape(m, rows), tail[:m * cols].reshape(m, cols),
                          tail[m * cols:] if norms else None)
    if kind == "ldl_column":
        *_, n, k = spec
        return ColumnProducts(tail[:n - k].reshape(n - k, 1), tail[n - k:].reshape(1, k))
    shape, _ = spec
    n = _size(shape)
    return ExpMask(tail[:n].reshape(shape), tail[n:].reshape(shape))


def _receive(key: np.random.Generator, items, reply: np.ndarray, params: RingParams) -> list:
    """A server's material objects for planned ``(kind, spec, words)`` items.

    One draw from the server's dealing key covers its half of every item's
    uniform head, in plan order; the reply holds the rest.
    """
    layout = [_layout(words[0], words[1:]) for _, _, words in items]
    heads = random_ring_elements(key, sum(head for head, _ in layout), params)
    material, at, drawn = [], 0, 0
    for (kind, spec, _), (head, tail) in zip(items, layout):
        material.append(_unpack(kind, spec, heads[drawn:drawn + head], reply[at:at + tail]))
        drawn += head
        at += tail
    if at != reply.size:
        raise ProtocolAbort(f"a deal reply holds {reply.size} words, but its plan takes {at}")
    return material


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


class KeptMasks(dict):
    """Model key -> the mask the assistant keeps under it; ``lower`` holds the lower masks' keys.

    A GP model's masks stay for the session. An LDL inversion's three
    lower masks go at their last item: L's and C's after the
    ``ldl_column`` with k = n - 1, V's after the kept triple on it, the
    final product's. An item that names a released key aborts as not kept.
    """

    def __init__(self):
        super().__init__()
        self.lower = set()

    def release(self, key: int):
        """Drop the mask kept under ``key`` after its last item, if it is still kept."""
        self.pop(key, None)
        self.lower.discard(key)


def _deal_shares(rng: np.random.Generator, keys, plan, params: RingParams, kept: KeptMasks,
                 lead=()):
    """Both servers' replies to ``lead`` words and a parsed plan, in one pass.

    Every item's uniform head is h0 + h1, one draw from each dealing key in
    ``keys``, summed in place. Each product and each exponent mask pair is
    written into its slot after ``lead``, and the words are split in place
    into two additive shares, share 0 uniform from ``rng``; the heads
    themselves never travel. A model mask is also kept in ``kept`` under
    its key, a kept triple multiplies its fresh A by the mask it names, and
    an LDL column multiplies blocks of the three n x n masks it names; a
    lower mask leaves ``kept`` after its last item. A reused key, an
    unknown one, a shape other than the kept mask's or an LDL column k
    outside 1 .. n - 1 aborts.
    """
    layout = [_layout(op, dims) for op, dims in plan]
    count = sum(head for head, _ in layout)
    heads = random_ring_elements(keys[0], count, params)
    heads += random_ring_elements(keys[1], count, params)
    heads = ring_reduce(heads, params)
    at = len(lead)
    secret = np.empty(at + sum(tail for _, tail in layout), dtype=np.uint64)
    secret[:at] = lead
    drawn = 0
    for (op, dims), (head, tail) in zip(plan, layout):
        uniform = heads[drawn:drawn + head]
        slot = secret[at:at + tail]
        drawn += head
        at += tail
        if op == OP_TRIPLE:
            n = dims[0]
            slot[:] = ring_mul(uniform[:n], uniform[n:], params)
        elif op == OP_MATRIX_TRIPLE:
            m, n, k = dims
            a = uniform[:m * n].reshape(m, n)
            b = uniform[m * n:].reshape(n, k)
            slot[:] = ring_matmul(a, b, params).ravel()
        elif op == OP_MODEL_MASK:
            key, rows, cols, lower = dims
            if key in kept:
                raise ProtocolAbort(f"model key {key} is already kept; a model mask is "
                                    "dealt once")
            if lower and rows != cols:
                raise ProtocolAbort(f"a lower model mask is square, not {rows} x {cols}")
            if lower:
                kept[key] = _strict_lower(uniform, rows)
                kept.lower.add(key)
            else:
                kept[key] = uniform.reshape(rows, cols).copy()
        elif op == OP_KEPT_TRIPLE:
            key, m, rows, cols, norms = dims
            b = _kept_mask(kept, key, rows, cols, "a kept triple")
            a = uniform.reshape(m, rows)
            slot[:m * cols] = ring_matmul(a, b, params).ravel()
            if norms:
                squares = ring_mul(a, a, params).sum(axis=1, dtype=np.uint64)
                slot[m * cols:] = ring_reduce(squares, params)
            if key in kept.lower:  # V's mask, after the inversion's final product
                kept.release(key)
        elif op == OP_LDL_COLUMN:
            *keys_lcv, n, k = dims
            m_l, m_c, m_v = (_kept_mask(kept, key, n, n, "an LDL column") for key in keys_lcv)
            if not 1 <= k < n:
                raise ProtocolAbort(f"an LDL column names column {k} of {n}; its products "
                                    "exist for 1 <= k <= n - 1")
            slot[:n - k] = ring_matmul(m_l[k:, :k], m_c[k, :k].reshape(k, 1), params).ravel()
            slot[n - k:] = ring_matmul(m_l[k:k + 1, :k], m_v[:k, :k], params).ravel()
            if k == n - 1:  # the last column to read L's and C's masks
                for key in keys_lcv[:2]:
                    kept.release(key)
        else:
            # r_hat uniform on the fixed-point grid of [-r_hat_max, r_hat_max).
            n, rmax_enc = dims
            k = rng.integers(-rmax_enc, rmax_enc, size=n, dtype=np.int64)
            r_hat = k.astype(np.float64) / (1 << params.lf)
            slot[:n] = from_signed(k, params)
            slot[n:] = from_signed(np.round(np.exp(-r_hat) * (1 << params.lf)), params)
    share0 = random_ring_elements(rng, secret.size, params)
    secret -= share0
    return share0, ring_reduce(secret, params)


def _kept_mask(kept: KeptMasks, key: int, rows: int, cols: int, item: str) -> np.ndarray:
    """The mask kept under ``key``, which ``item`` names as rows x cols; aborts otherwise."""
    b = kept.get(key)
    if b is None:
        raise ProtocolAbort(f"{item} names model key {key}, which is not kept")
    if b.shape != (rows, cols):
        raise ProtocolAbort(f"{item} names model key {key} as {rows} x {cols}, "
                            f"but its kept mask is {b.shape[0]} x {b.shape[1]}")
    return b


def gen_material(rng: np.random.Generator, kind: str, spec, params: RingParams,
                 kept: KeptMasks | None = None):
    """Deal one item outside a session; returns both servers' material.

    It takes a session's dealing path, with two throwaway dealing keys
    drawn from ``rng``. ``kept`` holds the model masks by key, as the
    assistant keeps them.
    """
    spec = _canonical(kind, spec)
    words = _item_words(kind, spec)
    seeds = [int(w) for w in rng.bit_generator.random_raw(2)]

    def key(i):
        return np.random.Generator(np.random.Philox(key=seeds[i]))

    replies = _deal_shares(rng, (key(0), key(1)), [(words[0], tuple(words[1:]))], params,
                           KeptMasks() if kept is None else kept)
    items = [(kind, spec, words)]
    (m0,), (m1,) = (_receive(key(i), items, replies[i], params) for i in (0, 1))
    return m0, m1


class AssistantClient:
    """A compute server's side of the assistant: material and rescaling.

    ``key`` is this server's dealing key, from which it expands its half
    of every dealt item's uniform head.
    """

    def __init__(self, channel: Channel, key: np.random.Generator, params: RingParams):
        self.channel = channel
        self.key = key
        self.params = params
        self._tag = 0
        self._keys = 0
        self._pending = []  # (kind, spec, words) planned but not yet requested
        self._dealt = deque()  # (kind, spec, material) in dealing order

    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    @property
    def requests(self) -> int:
        """Requests made so far, that is, assistant round trips."""
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
        ("exp_mask", (shape, rmax_enc)), ("model_mask", (key, rows, cols,
        lower)), ("kept_triple", (key, m, rows, cols, norms)) and
        ("ldl_column", (key_L, key_C, key_V, n, k)) in the order the
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
        """Queue the pending plan's material, from the key and the reply ``out``."""
        material = _receive(self.key, self._pending, out, self.params)
        self._dealt.extend((kind, spec, m) for (kind, spec, _), m in zip(self._pending, material))
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

    def get_model_mask(self, key: int, shape, lower: bool = False) -> ModelMask:
        return self._take("model_mask", (key, *shape, int(lower)))

    def get_kept_triple(self, key: int, m: int, shape, norms: bool = False) -> KeptTriple:
        return self._take("kept_triple", (key, m, *shape, int(norms)))

    def get_ldl_column(self, keys, n: int, k: int) -> ColumnProducts:
        return self._take("ldl_column", (*keys, n, k))

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


def serve_assistant(net: PartyNetwork, params: RingParams, rng: np.random.Generator,
                    keys: tuple[np.random.Generator, np.random.Generator]):
    """Assistant main loop: answer matching requests until shutdown.

    Both compute servers must send identical requests but for a
    truncation's masked shares; any divergence aborts the protocol since it
    would indicate a corrupted or inconsistent online phase. A request is a
    shutdown, a dealing plan, or a truncation that a plan may follow. Each
    server gets exactly one reply per request, empty if its plan holds only
    model masks. Dealt heads come from both servers' dealing ``keys``; the
    rest of every reply is shared from ``rng``, the assistant's own
    generator.
    """
    ch0, ch1 = net.channels[P0], net.channels[P1]
    kept = KeptMasks()
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
                t0, t1 = _deal_shares(rng, keys, _parse_plan(req0[stop:]), params, kept,
                                      shifted)
            del shifted
        else:
            t0, t1 = _deal_shares(rng, keys, _parse_plan(req0), params, kept)
        del req0, req1
        ch0.send(tag, t0)
        ch1.send(tag, t1)
        # A link is done with the words once send returns; nothing of this
        # request waits for the next one.
        del t0, t1
