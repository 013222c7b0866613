"""Interactive protocols on secret-shared values.

Every function here is executed symmetrically by both compute servers,
which stay in lockstep through the exchange barriers. Round costs match
the standard accounting: one round per Beaver product, 2k+1 rounds for a
division with k Newton iterations, and one round total for the masked
exponentiation regardless of input size. A step whose material is known
up front deals it from the assistant in one round trip; every other
product fetches its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .offline import ProtocolError
from .ring import (RingParams, ring_add, ring_matmul, ring_mul, ring_neg, ring_reduce, ring_sub,
                   to_signed)
from .session import PartyRuntime
from .sharing import SharedArray


@dataclass(frozen=True)
class ExpParams:
    """Public parameters of the masked exponentiation.

    Inputs must lie in [u_min, 0]; masks are drawn from [-r_max, r_max).
    The correctness condition (r_max - u_min)*log2(e) <= l_f < (l-1)/2
    is checked by analysis.validate_exp_params before a session starts.
    """

    u_min: float = -4.0
    r_max: float = 1.25

    def rmax_enc(self, lf: int) -> int:
        return int(round(self.r_max * (1 << lf)))


def _consume(material):
    if material.consumed:
        raise ProtocolError("offline material reused; every triple and mask is single-use")
    material.consumed = True
    return material


def _reciprocal_plan(rt: PartyRuntime, shape) -> list:
    """The triples ss_reciprocal takes at the default division budget."""
    return [("triple", shape)] * (2 * rt.div.iterations)


def _div_plan(rt: PartyRuntime, u_shape, v_shape) -> list:
    """The triples ss_div takes: the reciprocal's, then the broadcast product's."""
    return _reciprocal_plan(rt, v_shape) + [("triple", np.broadcast_shapes(u_shape, v_shape))]


def _open_masked(d_mine: np.ndarray, e_mine: np.ndarray, theirs: np.ndarray, p):
    """Open d and e from this server's halves and the peer's concatenated ones."""
    n = d_mine.size
    return (ring_add(d_mine, theirs[:n].reshape(d_mine.shape), p),
            ring_add(e_mine, theirs[n:].reshape(e_mine.shape), p))


def _rescale(rt: PartyRuntime, x: SharedArray, bits: int | None = None) -> SharedArray:
    """Drop ``bits`` fraction bits from a shared value.

    The masked words go to the assistant, which is exact to 1.5 quanta
    for any value.
    """
    if bits is None:
        bits = x.codec.lf
    vals = rt.trunc_values(x.values, bits)
    return SharedArray(x.party, vals, x.codec, x.scale - bits)


def _beaver(rt: PartyRuntime, u: SharedArray, v: SharedArray, t, product,
            truncate: bool) -> SharedArray:
    """Beaver product of u and v with triple ``t`` under ``product``.

    One exchange round opens d = u - a and e = v - b; then party i takes
    z = u*e + d*(v - i*e) + c, the same ring value as u*e + d*v + c - i*d*e
    in two products instead of three.
    """
    t = _consume(t)
    p = rt.params
    d_mine = ring_sub(u.values, t.a, p)
    e_mine = ring_sub(v.values, t.b, p)
    theirs = rt.exchange(np.concatenate([d_mine.ravel(), e_mine.ravel()]))
    d, e = _open_masked(d_mine, e_mine, theirs, p)
    v_term = v.values if rt.party == 0 else ring_sub(v.values, e, p)
    z = ring_add(product(u.values, e, p), product(d, v_term, p), p)
    z = ring_add(z, t.c, p)
    out = SharedArray(rt.party, z, u.codec, u.scale + v.scale)
    if truncate:
        out = _rescale(rt, out, v.scale)
    return out


def ss_mul(rt: PartyRuntime, u: SharedArray, v: SharedArray,
           truncate: bool = True) -> SharedArray:
    """Elementwise Beaver product of two shared arrays.

    One exchange round carrying two ring elements per element per
    direction. The result is truncated back to the inputs' common scale
    unless ``truncate`` is False, in which case the raw double-scale
    product is returned.
    """
    if u.shape != v.shape:
        u_b, v_b = np.broadcast_arrays(u.values, v.values)
        u = SharedArray(u.party, u_b.copy(), u.codec, u.scale)
        v = SharedArray(v.party, v_b.copy(), v.codec, v.scale)
    with rt.scope("ss_mul"):
        return _beaver(rt, u, v, rt.assistant.get_triple(u.shape), ring_mul, truncate)


def ss_matmul(rt: PartyRuntime, u: SharedArray, v: SharedArray,
              truncate: bool = True) -> SharedArray:
    """Beaver matrix product of shared (m x n) and (n x k) matrices."""
    if u.values.ndim != 2 or v.values.ndim != 2 or u.shape[1] != v.shape[0]:
        raise ProtocolError(f"matmul dimension mismatch: {u.shape} x {v.shape}")
    m, n = u.shape
    with rt.scope("ss_matmul"):
        return _beaver(rt, u, v, rt.assistant.get_matrix_triple(m, n, v.shape[1]),
                       ring_matmul, truncate)


def ss_dist(rt: PartyRuntime, x: SharedArray, y: SharedArray | None = None) -> SharedArray:
    """Squared-Euclidean distance matrix between shared point sets.

    Uses ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b with all combining done
    on raw double-scale values so that one truncation covers each output
    entry. The self-distance form cancels exactly, giving a zero diagonal
    up to the truncation's last bit.
    """
    if x.values.ndim != 2:
        raise ProtocolError("ss_dist expects 2-d point matrices")
    p = rt.params
    with rt.scope("ss_dist"):
        if y is None:
            cross = ss_matmul(rt, x, x.T, truncate=False)
            norms = SharedArray(rt.party, np.diagonal(cross.values).copy(),
                                x.codec, cross.scale)
            raw = ring_sub(ring_add(norms.values[:, None], norms.values[None, :], p),
                           ring_mul(np.uint64(2), cross.values, p), p)
        else:
            if y.values.ndim != 2 or x.shape[1] != y.shape[1]:
                raise ProtocolError(f"ss_dist feature mismatch: {x.shape} vs {y.shape}")
            sq_x = ss_mul(rt, x, x, truncate=False)
            sq_y = ss_mul(rt, y, y, truncate=False)
            cross = ss_matmul(rt, x, y.T, truncate=False)
            nx = ring_reduce(sq_x.values.sum(axis=1, dtype=np.uint64), p)
            ny = ring_reduce(sq_y.values.sum(axis=1, dtype=np.uint64), p)
            raw = ring_sub(ring_add(nx[:, None], ny[None, :], p),
                           ring_mul(np.uint64(2), cross.values, p), p)
        out = SharedArray(rt.party, raw, x.codec, 2 * x.scale)
        return _rescale(rt, out, x.scale)


def _affine_reciprocal_init(rt: PartyRuntime, v: SharedArray, lo: float, hi: float) -> SharedArray:
    """Local affine minimax first guess for 1/v on the public domain."""
    beta = 2.0 / (lo * hi + (lo + hi) ** 2 / 4.0)
    alpha = beta * (lo + hi)
    y = _rescale(rt, -v.scale_public(beta))
    return y.add_public(alpha)


def ss_reciprocal(rt: PartyRuntime, v: SharedArray,
                  domain: tuple[float, float]) -> SharedArray:
    """Newton reciprocal y <- y (2 - v y) on a public positive domain (lo, hi).

    Two rounds per iteration. The caller guarantees the reconstructed
    divisor lies in the domain; nothing is detectable online otherwise.
    """
    lo, hi = domain
    with rt.scope("ss_div"):
        y = _affine_reciprocal_init(rt, v, lo, hi)
        for _ in range(rt.div.iterations):
            t = ss_mul(rt, v, y)
            y = ss_mul(rt, y, (-t).add_public(2.0))
    return y


def ss_div(rt: PartyRuntime, u: SharedArray, v: SharedArray,
           domain: tuple[float, float]) -> SharedArray:
    """Shared division u / v as one reciprocal plus one product."""
    with rt.scope("ss_div"):
        return ss_mul(rt, u, ss_reciprocal(rt, v, domain))


def ss_sqrt(rt: PartyRuntime, x: SharedArray) -> SharedArray:
    """Shared square root via inverse-square-root Newton iterations.

    z <- z (3 - x z^2) / 2 from a tangent-line first guess at sqrt_hi / 2,
    then one product by x. Three rounds and six assistant round trips per
    iteration: the halving rides on the third product's truncation. Exact
    zero inputs map to zero since the final multiply scales the bounded
    iterate by x.
    """
    x0 = rt.div.sqrt_hi / 2.0
    a = 1.5 / math.sqrt(x0)
    b = 0.5 / x0 ** 1.5
    with rt.scope("ss_sqrt"):
        z = _rescale(rt, -x.scale_public(b)).add_public(a)
        for _ in range(rt.div.sqrt_iterations):
            s = ss_mul(rt, z, z)
            t = ss_mul(rt, x, s)
            y = (-t).add_public(3.0)
            raw = ss_mul(rt, z, y, truncate=False)
            # One bit more than y's scale halves the product at z's scale.
            z = SharedArray(rt.party, rt.trunc_values(raw.values, y.scale + 1), z.codec, z.scale)
        return ss_mul(rt, x, z)


_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# Elements per block of _exp_correction: its ~30 passes over a block of
# this size stay in cache, where whole 50k-word arrays fall out of it.
_EXP_BLOCK = 4096


def _exp_correction(x_pub: np.ndarray, m: np.ndarray, party: int, p: RingParams,
                    shift: int) -> np.ndarray:
    """One party's share of x_pub * e^{-r}, rescaled by ``shift`` bits.

    ``x_pub`` holds the public factor (non-negative integer-valued
    floats, possibly above 2^64) and ``m`` this party's share of the
    mask's e^{-r}. Party 0 returns floor((x*m + 2^(shift-1)) / 2^shift)
    and party 1 returns -floor(x*(2^l - m) / 2^shift), both mod 2^l, so
    the two shares sum to the rounded product without the double-width
    intermediate ever wrapping.

    Each x = M * 2^E with M < 2^53 is exact in float64, so the product
    M * factor (under 2^117) is built from 32-bit limbs in a high and a
    low uint64 word, and each element shifts right by its own shift - E.
    The work runs over blocks of ``_EXP_BLOCK`` elements.
    """
    x_flat, m_flat = np.ravel(x_pub), np.ravel(m)
    out = np.empty(m_flat.shape, dtype=np.uint64)
    for i in range(0, out.size, _EXP_BLOCK):
        j = i + _EXP_BLOCK
        out[i:j] = _exp_correction_block(x_flat[i:j], m_flat[i:j], party, p, shift)
    return out.reshape(np.shape(m))


def _exp_correction_block(x_pub: np.ndarray, m: np.ndarray, party: int, p: RingParams,
                          shift: int) -> np.ndarray:
    """``_exp_correction`` on one block of flat arrays."""
    _, exp2 = np.frexp(x_pub)
    e_pow = np.maximum(exp2 - 53, 0)
    mant = np.ldexp(x_pub, -e_pow).astype(np.uint64)
    if np.any(e_pow >= shift):
        raise ProtocolError("public exponent factor too large for the rescaling shift")
    s = (shift - e_pow).astype(np.uint64)
    if party == 0:
        factor = m
    else:
        # 2^l - m; at l = 64 the complement of m = 0 is 2^64, which wraps
        # to 0 here and is restored below as M in the high word.
        factor = np.uint64(p.modulus & 0xFFFFFFFFFFFFFFFF) - m
    m_lo, m_hi = mant & _LOW32, mant >> _32
    f_lo, f_hi = factor & _LOW32, factor >> _32
    low = m_lo * f_lo
    mid_a = m_lo * f_hi
    mid_b = m_hi * f_lo
    carry = (low >> _32) + (mid_a & _LOW32) + (mid_b & _LOW32)
    lo = (low & _LOW32) | (carry << _32)
    hi = m_hi * f_hi + (mid_a >> _32) + (mid_b >> _32) + (carry >> _32)
    if party == 0:
        rounded = lo + (np.uint64(1) << (s - np.uint64(1)))
        hi += rounded < lo
        lo = rounded
    else:
        hi += mant * (factor == 0)
    out = (lo >> s) | (hi << (np.uint64(64) - s))
    return ring_reduce(out, p) if party == 0 else ring_neg(out, p)


def pp_exp(rt: PartyRuntime, u: SharedArray, params: ExpParams,
           policy: str = "strict") -> SharedArray:
    """Masked exponentiation: shares of e^u for shared u in [u_min, 0].

    The servers open d = u + r for a pre-shared random mask r, evaluate
    e^{d} publicly and correct with their shares of e^{-r}. One exchange
    round and 2nl bits of online traffic for an n-element input.

    The public factor is encoded at scale 2*l_f and the product rescaled
    locally, which halves the mask-quantization error against an l_f-scale
    factor, and the shares come back at scale l_f. The correction forms
    the double-width product exactly in vectorised limbs
    (``_exp_correction``).

    Openings outside [u_min - r_max, r_max), the window the Theorem-2
    leakage bound covers (widened by a 4-quantum encoding slack), are
    counted on ``RoundStats.exp_openings_outside_window``. Both servers
    see every opening, so the count reveals nothing new. ``policy``
    decides what such an opening does: "strict" rejects it, "clamp"
    proceeds (the natural underflow of e^d keeps far-negative inputs near
    zero).
    """
    if policy not in ("strict", "clamp"):
        raise ValueError(f"unknown pp_exp policy {policy!r}")
    lf = rt.codec.lf
    p = rt.params
    rmax_enc = params.rmax_enc(lf)
    with rt.scope("pp_exp"):
        mask = _consume(rt.assistant.get_exp_mask(u.shape, rmax_enc))
        d_mine = ring_add(u.values, mask.r, p)
        d_theirs = rt.exchange(d_mine)
        d = to_signed(ring_add(d_mine, d_theirs, p), p)
        d_hat = d.astype(np.float64) / (1 << lf)
        slack = 4.0 / (1 << lf)
        outside = int(np.count_nonzero((d_hat < params.u_min - params.r_max - slack)
                                       | (d_hat >= params.r_max + slack)))
        rt.stats.exp_openings_outside_window += outside
        if outside and policy == "strict":
            raise ProtocolError("opened exponent outside the configured input range")
        # Valid inputs never open above r_max; capping there keeps a
        # corrupted or out-of-domain opening finite instead of
        # overflowing e^d. Far-negative openings need no cap since e^d
        # underflows to the correct zero.
        d_hat = np.minimum(d_hat, params.r_max + slack)
        x_pub = np.round(np.exp(d_hat) * float(1 << (2 * lf)))
        out_vals = _exp_correction(x_pub, mask.m, rt.party, p, 2 * lf)
        return SharedArray(rt.party, out_vals, u.codec, lf)


@dataclass
class LdlFactors:
    """Shares of the unit-lower-triangular L and the pivot vector D."""

    L: SharedArray
    D: SharedArray


def _column(x: SharedArray, rows, col) -> SharedArray:
    return SharedArray(x.party, x.values[rows, col].reshape(-1, 1), x.codec, x.scale)


def pp_cholesky_ldl(rt: PartyRuntime, u: SharedArray,
                    pivot_domain: tuple[float, float]) -> LdlFactors:
    """LDL^T decomposition of a shared positive-definite matrix.

    Column k costs four product rounds (the pivot update and the column
    update) plus one division by the pivot; the first column is a single
    division and the last column needs only its pivot. Total rounds
    R_div + (n-2)(4+R_div) + 2. Each column deals all its material in one
    assistant round trip.
    """
    n = u.shape[0]
    if u.values.ndim != 2 or u.shape[1] != n:
        raise ProtocolError("pp_cholesky_ldl expects a square matrix")
    if n < 2:
        raise ProtocolError("pp_cholesky_ldl needs n >= 2")
    codec = u.codec
    p = rt.params
    with rt.scope("pp_cholesky"):
        L = SharedArray(rt.party, np.zeros((n, n), dtype=np.uint64), codec)
        d_vals = np.zeros(n, dtype=np.uint64)

        # d_1 = u_11; first column of L by one vector division.
        d_vals[0] = u.values[0, 0]
        pivot = SharedArray(rt.party, u.values[0:1, 0:1], codec)
        col = _column(u, slice(0, n), 0)
        rt.assistant.deal(_div_plan(rt, (n, 1), (1, 1)))
        l_col = ss_div(rt, col, pivot, pivot_domain)
        L.values[:, 0] = l_col.values[:, 0]

        for k in range(1, n):
            # The column's material in the order its products take it:
            # pivot update, column update, division by the pivot.
            rows = n - k - 1
            plan = [("triple", (1, k)), ("matrix", (1, k, 1))]
            if rows:
                plan += [("triple", (1, k)), ("matrix", (rows, k, 1))]
                plan += _div_plan(rt, (rows, 1), (1, 1))
            rt.assistant.deal(plan)
            # Pivot: d_k = u_kk - sum_m l_km^2 d_m, two product rounds.
            lk = SharedArray(rt.party, L.values[k:k + 1, :k], codec)      # 1 x k
            dk_prev = SharedArray(rt.party, d_vals[:k].reshape(-1, 1), codec)
            lk_sq = ss_mul(rt, lk, lk)
            acc = ss_matmul(rt, lk_sq, dk_prev)                            # 1 x 1
            d_k = SharedArray(rt.party, ring_sub(u.values[k:k + 1, k:k + 1],
                                                 acc.values, p), codec)
            d_vals[k] = d_k.values[0, 0]
            if k == n - 1:
                break
            # Column: hat_l = u_{k+1:n,k} - L_{k+1:n,1:k} (l_k * d) , two rounds.
            w = ss_mul(rt, lk, SharedArray(rt.party, d_vals[:k].reshape(1, -1), codec))
            below = SharedArray(rt.party, L.values[k + 1:, :k], codec)
            acc2 = ss_matmul(rt, below, w.T)                               # (n-k-1) x 1
            hat = SharedArray(rt.party, ring_sub(u.values[k + 1:, k:k + 1],
                                                 acc2.values, p), codec)
            # One division by the shared pivot.
            l_col = ss_div(rt, hat, d_k, pivot_domain)
            L.values[k + 1:, k] = l_col.values[:, 0]
            L.values[k, k] = codec.encode(1.0) if rt.party == 0 else 0

        L.values[n - 1, n - 1] = codec.encode(1.0) if rt.party == 0 else 0
        D = SharedArray(rt.party, d_vals, codec)
    return LdlFactors(L=L, D=D)


def pp_forward(rt: PartyRuntime, L: SharedArray) -> SharedArray:
    """Invert a shared unit lower-triangular matrix, one round per row.

    Row k of V = L^{-1} is v_{k,1:k-1} = -l_{k,1:k-1} V_{1:k-1,1:k-1},
    costing a single matrix product round for each k = 2..n.
    """
    n = L.shape[0]
    codec = L.codec
    one = codec.encode(1.0)
    with rt.scope("pp_forward"):
        V = SharedArray(rt.party, np.zeros((n, n), dtype=np.uint64), codec)
        V.values[0, 0] = one if rt.party == 0 else 0
        for k in range(1, n):
            lk = SharedArray(rt.party, L.values[k:k + 1, :k], codec)
            head = SharedArray(rt.party, V.values[:k, :k], codec)
            row = ss_matmul(rt, lk, head)
            V.values[k, :k] = ring_neg(row.values[0], rt.params)
            V.values[k, k] = one if rt.party == 0 else 0
    return V


def pp_backward(rt: PartyRuntime, V: SharedArray, D: SharedArray,
                pivot_domain: tuple[float, float]) -> SharedArray:
    """Combine the factors into the inverse: Lambda = V^T D^{-1} V.

    One vector division for D^{-1} (reciprocal rounds plus the product
    with V's rows) and one matrix product round.
    """
    n = V.shape[0]
    with rt.scope("pp_backward"):
        d_col = SharedArray(rt.party, D.values.reshape(-1, 1), D.codec, D.scale)
        rt.assistant.deal(_reciprocal_plan(rt, (n, 1)))
        recip = ss_reciprocal(rt, d_col, pivot_domain)
        scaled = ss_mul(rt, SharedArray(rt.party, np.broadcast_to(
            recip.values, (n, n)).copy(), V.codec, recip.scale), V)
        return ss_matmul(rt, V.T, scaled)


def pp_matinv(rt: PartyRuntime, u: SharedArray,
              pivot_domain: tuple[float, float]) -> SharedArray:
    """Invert a shared positive-definite matrix via LDL^T factors.

    Total rounds (21n - 23) + (n - 1) + 18 = 22n - 6 at the default
    division budget, and 25n - 4 assistant round trips: 23n - 6
    truncations and 2n + 2 deals (analysis.matinv_assistant_round_trips).
    """
    with rt.scope("pp_matinv"):
        factors = pp_cholesky_ldl(rt, u, pivot_domain)
        V = pp_forward(rt, factors.L)
        return pp_backward(rt, V, factors.D, pivot_domain)
