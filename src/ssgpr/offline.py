"""Assistant server: correlated randomness plus masked rescaling help.

The assistant is the only source of correlated randomness. For each
Beaver triple, matrix triple or exponent mask both compute servers send
identical size-only requests; the assistant checks that the two requests
agree, generates the material from its own seed, and returns one additive
share to each server.

The assistant also offers a rescaling service: the servers submit shares
of a value hidden under a random offset known only to them, and the
assistant shifts the masked sum and deals it back as fresh shares. It sees
only uniformly masked words, never an opening of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ring import RingParams, from_signed, ring_mul, ring_matmul
from .sharing import random_ring_elements, shr
from .transport import P0, P1, Channel, PartyNetwork, ProtocolAbort

OP_SHUTDOWN = 0
OP_TRIPLE = 1
OP_MATRIX_TRIPLE = 2
OP_EXP_MASK = 3
OP_TRUNC = 4


@dataclass
class BeaverTriple:
    """One party's shares of (u, v, c) with c = u * v elementwise."""

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    consumed: bool = False


@dataclass
class MatrixTriple:
    """One party's shares of (A, B, C) with C = A @ B over the ring."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    consumed: bool = False


@dataclass
class ExpMask:
    """One party's shares of an exponentiation mask pair.

    ``r`` holds shares of the fixed-point encoding of a grid value
    r_hat in [0, r_hat_max]; ``m`` holds shares of round(e^{-r_hat} * 2^l_f).
    """

    r: np.ndarray
    m: np.ndarray
    consumed: bool = False


def gen_triple(rng: np.random.Generator, shape, params: RingParams):
    u = random_ring_elements(rng, shape, params)
    v = random_ring_elements(rng, shape, params)
    c = ring_mul(u, v, params)
    u0, u1 = shr(u, rng, params)
    v0, v1 = shr(v, rng, params)
    c0, c1 = shr(c, rng, params)
    return BeaverTriple(u0, v0, c0), BeaverTriple(u1, v1, c1)


def gen_matrix_triple(rng: np.random.Generator, m: int, n: int, k: int, params: RingParams):
    if min(m, n, k) < 1:
        raise ValueError(f"matrix triple dimensions must be positive, got {(m, n, k)}")
    a = random_ring_elements(rng, (m, n), params)
    b = random_ring_elements(rng, (n, k), params)
    c = ring_matmul(a, b, params)
    a0, a1 = shr(a, rng, params)
    b0, b1 = shr(b, rng, params)
    c0, c1 = shr(c, rng, params)
    return MatrixTriple(a0, b0, c0), MatrixTriple(a1, b1, c1)


def gen_exp_mask(rng: np.random.Generator, shape, rmax_enc: int, params: RingParams):
    """Draw r_hat uniformly on the fixed-point grid of [-r_hat_max, r_hat_max)."""
    k = rng.integers(-rmax_enc, rmax_enc, size=shape, dtype=np.int64)
    r_hat = k.astype(np.float64) / (1 << params.lf)
    m = np.round(np.exp(-r_hat) * (1 << params.lf)).astype(np.int64)
    r0, r1 = shr(from_signed(k, params), rng, params)
    m0, m1 = shr(from_signed(m, params), rng, params)
    return ExpMask(r0, m0), ExpMask(r1, m1)


class AssistantClient:
    """A compute server's side of the assistant: material and rescaling."""

    def __init__(self, channel: Channel):
        self.channel = channel
        self._tag = 0

    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def _request(self, words) -> np.ndarray:
        tag = self._next_tag()
        self.channel.send(tag, np.asarray(words, dtype=np.uint64))
        return self.channel.recv(tag)

    def get_triple(self, shape) -> BeaverTriple:
        shape = tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out = self._request([OP_TRIPLE, n])
        u, v, c = out[:n], out[n:2 * n], out[2 * n:]
        return BeaverTriple(u.reshape(shape), v.reshape(shape), c.reshape(shape))

    def get_matrix_triple(self, m: int, n: int, k: int) -> MatrixTriple:
        out = self._request([OP_MATRIX_TRIPLE, m, n, k])
        a = out[:m * n].reshape(m, n)
        b = out[m * n:m * n + n * k].reshape(n, k)
        c = out[m * n + n * k:].reshape(m, k)
        return MatrixTriple(a, b, c)

    def get_exp_mask(self, shape, rmax_enc: int) -> ExpMask:
        shape = tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out = self._request([OP_EXP_MASK, n, rmax_enc])
        return ExpMask(out[:n].reshape(shape), out[n:].reshape(shape))

    def trunc(self, masked: np.ndarray, bits: int) -> np.ndarray:
        """Ask the assistant to shift a masked positive value right by ``bits``.

        Both servers send their share of the masked value; the assistant
        reconstructs it (learning only the masked sum), shifts, and returns
        a fresh additive sharing of the result.
        """
        masked = np.ascontiguousarray(masked, dtype=np.uint64).ravel()
        head = np.asarray([OP_TRUNC, bits, masked.size], dtype=np.uint64)
        return self._request(np.concatenate([head, masked]))

    def shutdown(self):
        tag = self._next_tag()
        self.channel.send(tag, np.asarray([OP_SHUTDOWN], dtype=np.uint64))


def serve_assistant(net: PartyNetwork, params: RingParams, seed: int):
    """Assistant main loop: answer matching requests until shutdown.

    Both compute servers must send byte-identical requests; any divergence
    aborts the protocol since it would indicate a corrupted or inconsistent
    online phase.
    """
    rng = np.random.default_rng(np.random.Philox(seed))
    ch0, ch1 = net.channels[P0], net.channels[P1]
    tag = 0
    while True:
        tag += 1
        req0 = ch0.recv(tag)
        req1 = ch1.recv(tag)
        op = int(req0[0]) if req0.size else -1
        if op == OP_TRUNC:
            same = req0.size == req1.size and np.array_equal(req0[:3], req1[:3])
        else:
            same = req0.shape == req1.shape and np.array_equal(req0, req1)
        if not same:
            raise ProtocolAbort("compute servers sent diverging assistant requests")
        if op == OP_SHUTDOWN:
            return
        if op == OP_TRIPLE:
            n = int(req0[1])
            s0, s1 = gen_triple(rng, (n,), params)
            ch0.send(tag, np.concatenate([s0.u, s0.v, s0.c]))
            ch1.send(tag, np.concatenate([s1.u, s1.v, s1.c]))
        elif op == OP_MATRIX_TRIPLE:
            m, n, k = int(req0[1]), int(req0[2]), int(req0[3])
            s0, s1 = gen_matrix_triple(rng, m, n, k, params)
            ch0.send(tag, np.concatenate([s0.a.ravel(), s0.b.ravel(), s0.c.ravel()]))
            ch1.send(tag, np.concatenate([s1.a.ravel(), s1.b.ravel(), s1.c.ravel()]))
        elif op == OP_EXP_MASK:
            n, rmax_enc = int(req0[1]), int(req0[2])
            s0, s1 = gen_exp_mask(rng, (n,), rmax_enc, params)
            ch0.send(tag, np.concatenate([s0.r, s0.m]))
            ch1.send(tag, np.concatenate([s1.r, s1.m]))
        elif op == OP_TRUNC:
            bits, n = int(req0[1]), int(req0[2])
            total = (req0[3:3 + n] + req1[3:3 + n]) & params.mask
            shifted = total >> np.uint64(bits)
            t0, t1 = shr(shifted, rng, params)
            ch0.send(tag, t0)
            ch1.send(tag, t1)
        else:
            raise ProtocolAbort(f"unknown offline request opcode {op}")
