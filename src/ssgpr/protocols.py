"""Interactive protocols on secret-shared values.

Every function here is executed symmetrically by both compute servers,
which stay in lockstep through the exchange barriers. Round costs match
the standard accounting: one round per Beaver product, and one round total
for the masked exponentiation regardless of input size. A division's
reciprocal steps k follow from the divisor's public domain
(``division_steps``). It takes k + 3 rounds on the default "ldl" path
(k - 1 Goldschmidt steps closed by one Newton step) and 2k + 1 on the
paper's Newton path (``DivisionConfig.matinv``). On "ldl" the matrix
inversion divides by each pivot in the reciprocal's own k + 2 rounds,
since its Newton close carries the numerators, and takes (k + 3)n rounds
in one pass over the columns. A step whose material is known up front
deals it ahead, and ``offline`` decides when it travels; every other product takes
whatever the assistant next hands it. One exchange may open several
masked arrays (``_open``): a Beaver product's two operands, the model
masks of a GP model, the words an LDL column wrote since the last one,
or ss_dist's x - A, which serves both of its products. A product by a
``ModelOperand`` opens only its left operand, against a mask the
assistant keeps. The "ldl" inversion opens each word of its L, C and
V = L^{-1} once in the same way, against three masks kept for the
session, so its online words grow as n^2; the paper's path opens every
product's operands afresh, n^3 words.
"""

from __future__ import annotations

import functools
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


def _reciprocal_plan(rt: PartyRuntime, v_shape, domain, along: int = 0) -> list:
    """The triples ss_reciprocal takes for a divisor of ``v_shape`` on ``domain``.

    On the "ldl" path these are the first residual's, one per Goldschmidt
    step (stacked but the last) and the closing Newton step's two, which
    also carry ``along`` words (a single divisor's numerators).
    """
    k = division_steps(domain, rt.codec.lf, rt.div.matinv)
    if rt.div.matinv == "paper":
        return [("triple", v_shape)] * (2 * k)
    close = (1 + along,) if along else v_shape
    return ([("triple", v_shape)]
            + [("triple", (2, *v_shape)) if step < k - 2 else ("triple", v_shape)
               for step in range(k - 1)]
            + [("triple", close)] * 2)


def _div_plan(rt: PartyRuntime, u_shape, v_shape, domain: tuple[float, float]) -> list:
    """The triples ss_div takes: the reciprocal's, then the broadcast product's."""
    return (_reciprocal_plan(rt, v_shape, domain)
            + [("triple", np.broadcast_shapes(u_shape, v_shape))])


def _open(rt: PartyRuntime, *mine: np.ndarray) -> list[np.ndarray]:
    """Open several masked arrays in one exchange, from this server's halves and the peer's."""
    p = rt.params
    theirs = rt.exchange(np.concatenate([m.ravel() for m in mine]))
    out, at = [], 0
    for m in mine:
        out.append(ring_add(m, theirs[at:at + m.size].reshape(m.shape), p))
        at += m.size
    return out


def _rescale(rt: PartyRuntime, x: SharedArray, bits: int | None = None) -> SharedArray:
    """Drop ``bits`` fraction bits from a shared value.

    The masked words go to the assistant, which is exact to 1.5 quanta
    for any value.
    """
    if bits is None:
        bits = x.codec.lf
    vals = rt.trunc_values(x.values, bits)
    return SharedArray(x.party, vals, x.codec, x.scale - bits)


def _beaver(rt: PartyRuntime, u: SharedArray, v: SharedArray, t, combine,
            truncate: bool) -> SharedArray:
    """Beaver product of u and v with triple ``t`` under ``combine``, in one round.

    One exchange opens d = u - a and e = v - b; then party i takes
    z = u*e + d*(v - i*e) + c under ``combine`` (ring_mul or ring_matmul),
    the same ring value as u*e + d*v + c - i*d*e in two products instead
    of three. Unless ``truncate`` is False, one truncation rescales z by
    v's scale.
    """
    t = _consume(t)
    p = rt.params
    d, e = _open(rt, ring_sub(u.values, t.a, p), ring_sub(v.values, t.b, p))
    z = ring_add(_combine(rt, u.values, v.values, d, e, combine), t.c, p)
    # The opened words die with the product, so a truncation holds neither.
    del d, e
    out = SharedArray(rt.party, z, u.codec, u.scale + v.scale)
    return _rescale(rt, out, v.scale) if truncate else out


def _combine(rt: PartyRuntime, u: np.ndarray, v: np.ndarray, d: np.ndarray, e: np.ndarray,
             product) -> np.ndarray:
    """This party's u*e + d*(v - i*e), a Beaver share before the triple's c."""
    p = rt.params
    v_term = v if rt.party == 0 else ring_sub(v, e, p)
    return ring_add(product(u, e, p), product(d, v_term, p), p)


@dataclass
class ModelOperand:
    """Shares of a per-model matrix, opened once as value - B against a kept mask B.

    The assistant keeps B under ``key`` for the session, so a product by
    this operand takes a fresh left mask A with C = A @ B and opens only
    the left operand (SecureML's reuse of a fixed operand's mask).
    ``unopened`` holds words of ``opened`` still to open, as (index, this
    server's value - B there); the next product's exchange opens them with
    its left operand.
    """

    value: SharedArray
    opened: np.ndarray
    key: int
    unopened: tuple | None = None

    @property
    def shape(self):
        return self.value.shape


def open_model_masks(rt: PartyRuntime, operands) -> list[ModelOperand]:
    """Open each (key, shared matrix) minus its model mask, all in one exchange.

    The masks come dealt under their keys; each is taken and opened once.
    """
    p = rt.params
    with rt.scope("open_model_masks"):
        masks = [_consume(rt.assistant.get_model_mask(key, x.shape)) for key, x in operands]
        opened = _open(rt, *[ring_sub(x.values, mask.b, p)
                             for (_, x), mask in zip(operands, masks)])
    return [ModelOperand(x, f, key) for (key, x), f in zip(operands, opened)]


def _kept_product(rt: PartyRuntime, u: SharedArray, v: ModelOperand, t) -> tuple:
    """Raw shares of u @ v against v's kept mask, and the opened u - A.

    One exchange opens d = u - A for the kept triple ``t`` (A, C = A @ B),
    and with it v's unopened words, if any.
    """
    t = _consume(t)
    masked = ring_sub(u.values, t.a, rt.params)
    if v.unopened is None:
        (d,) = _open(rt, masked)
    else:
        index, half = v.unopened
        d, v.opened[index] = _open(rt, masked, half)
        v.unopened = None
    z = ring_add(_combine(rt, u.values, v.value.values, d, v.opened, ring_matmul), t.c,
                 rt.params)
    return z, d


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


def _stacked_mul(rt: PartyRuntime, lefts, rights) -> list[SharedArray]:
    """Equal-shaped elementwise products lefts[i] * rights[i] in one Beaver round.

    The operands are stacked along a new first axis, so one triple and one
    exchange serve them all; all must share one scale.
    """
    def stack(xs):
        return SharedArray(rt.party, np.stack([x.values for x in xs]), xs[0].codec, xs[0].scale)

    out = ss_mul(rt, stack(lefts), stack(rights))
    return [out[i] for i in range(len(lefts))]


def ss_matmul(rt: PartyRuntime, u: SharedArray, v: SharedArray | ModelOperand,
              truncate: bool = True) -> SharedArray:
    """Beaver matrix product of shared (m x n) and (n x k) matrices.

    Against a ``ModelOperand`` only u's mask is opened.
    """
    if u.values.ndim != 2 or len(v.shape) != 2 or u.shape[1] != v.shape[0]:
        raise ProtocolError(f"matmul dimension mismatch: {u.shape} x {v.shape}")
    m, n = u.shape
    with rt.scope("ss_matmul"):
        if isinstance(v, SharedArray):
            t = rt.assistant.get_matrix_triple(m, n, v.shape[1])
            return _beaver(rt, u, v, t, ring_matmul, truncate)
        z, _ = _kept_product(rt, u, v, rt.assistant.get_kept_triple(v.key, m, v.shape))
        out = SharedArray(rt.party, z, u.codec, u.scale + v.value.scale)
        return _rescale(rt, out, v.value.scale) if truncate else out


def ss_dist(rt: PartyRuntime, x: SharedArray, y: ModelOperand | None = None,
            y_norms: SharedArray | None = None):
    """Squared-Euclidean distances between shared point sets.

    Uses ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b with all combining done
    on raw double-scale values so that one truncation covers each output
    entry. The self form ``ss_dist(x)`` returns the n(n-1)/2 distances
    above the diagonal, flat in ``np.triu_indices(n, 1)`` order and
    truncated, with the points' raw squared row norms; ``mirror_upper``
    rebuilds a symmetric matrix from the distances. The cross form
    ``ss_dist(x, y, y_norms)`` takes the points' transpose as a
    ``ModelOperand`` and their raw norms from the self form, and returns
    the (m x n) matrix in one round: one exchange opens x - A, and a kept
    triple against y's mask gives both x @ y and x's row norms.
    """
    if x.values.ndim != 2:
        raise ProtocolError("ss_dist expects 2-d point matrices")
    p = rt.params
    with rt.scope("ss_dist"):
        if y is None:
            cross = ss_matmul(rt, x, x.T, truncate=False).values
            norms = np.diagonal(cross)
            rows, cols = np.triu_indices(x.shape[0], 1)
            raw = ring_sub(ring_add(norms[rows], norms[cols], p),
                           ring_mul(np.uint64(2), cross[rows, cols], p), p)
        else:
            if len(y.shape) != 2 or x.shape[1] != y.shape[0]:
                raise ProtocolError(f"ss_dist feature mismatch: {x.shape} vs {y.shape}")
            m = x.shape[0]
            t = rt.assistant.get_kept_triple(y.key, m, y.shape, norms=True)
            cross, d = _kept_product(rt, x, y, t)
            # x's squared norms from the same opening: (A + d)^2 = A^2 + x*d + d*(x - d).
            sq = _combine(rt, x.values, x.values, d, d, ring_mul).sum(axis=1, dtype=np.uint64)
            x_norms = ring_add(sq, t.s, p)
            raw = ring_sub(ring_add(x_norms[:, None], y_norms.values[None, :], p),
                           ring_mul(np.uint64(2), cross, p), p)
        out = _rescale(rt, SharedArray(rt.party, raw, x.codec, 2 * x.scale), x.scale)
        if y is None:
            return out, SharedArray(rt.party, norms.copy(), x.codec, 2 * x.scale)
        return out


def mirror_upper(rt: PartyRuntime, upper: SharedArray, n: int, diagonal: float) -> SharedArray:
    """Symmetric (n x n) shares from a strict upper triangle in ss_dist's self-form order.

    The triangle is mirrored below the diagonal, so the shares are exactly
    symmetric, and the diagonal holds the public value ``diagonal``.
    """
    rows, cols = np.triu_indices(n, 1)
    out = np.empty((n, n), dtype=np.uint64)
    out[rows, cols] = upper.values
    out[cols, rows] = upper.values
    np.fill_diagonal(out, rt.codec.encode(diagonal) if rt.party == 0 else 0)
    return SharedArray(rt.party, out, upper.codec, upper.scale)


def affine_reciprocal_coefficients(lo: float, hi: float) -> tuple[float, float]:
    """(alpha, beta) of the minimax affine first guess alpha - beta v for 1/v on [lo, hi]."""
    beta = 2.0 / (lo * hi + (lo + hi) ** 2 / 4.0)
    return beta * (lo + hi), beta


def reciprocal_steps(domain: tuple[float, float], lf: int) -> int:
    """Least reciprocal step count k >= 1 with e0^(2^k) < 2^-lf on a public domain.

    e0 = max |1 - v y0| over [lo, hi] for the affine first guess y0, an
    error that equioscillates between the ends and the midpoint. k Newton
    steps, or k - 1 Goldschmidt steps and the closing Newton step (hence
    k >= 1), leave relative error e0^(2^k); fewer return a reciprocal off
    by more than a quantum. At signal variance 1 the kernel's pivot domain
    needs 7 steps at noise variance 0.1, 8 at 0.05, 10 at 0.01 and 14 at
    1e-3 (l_f = 26).
    """
    lo, hi = domain
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"a reciprocal domain needs 0 < lo < hi, got {domain!r}")
    alpha, beta = affine_reciprocal_coefficients(lo, hi)
    e0 = max(abs(1.0 - v * (alpha - beta * v)) for v in (lo, (lo + hi) / 2.0, hi))
    steps = 1
    while e0 ** (2 ** steps) >= 2.0 ** -lf:
        steps += 1
    return steps


@functools.lru_cache(maxsize=64)
def division_steps(domain: tuple[float, float], lf: int, matinv: str) -> int:
    """Reciprocal steps of a division on ``domain``: the bound, and on "paper" at least 8.

    The paper's path keeps its 8 Newton steps, so the counts that reference
    pins hold. Memoised: an inversion asks once a column.
    """
    steps = reciprocal_steps(domain, lf)
    return max(8, steps) if matinv == "paper" else steps


def _affine_reciprocal_init(rt: PartyRuntime, v: SharedArray, lo: float, hi: float) -> SharedArray:
    """Local affine minimax first guess for 1/v on the public domain."""
    alpha, beta = affine_reciprocal_coefficients(lo, hi)
    y = _rescale(rt, -v.scale_public(beta))
    return y.add_public(alpha)


def _residual(rt: PartyRuntime, v: SharedArray, y: SharedArray) -> SharedArray:
    """e = 1 - v y, one round."""
    return (-ss_mul(rt, v, y)).add_public(1.0)


def _stack(*xs: SharedArray) -> SharedArray:
    """One flat shared vector of equal-scale shared arrays, end to end."""
    x = xs[0]
    return SharedArray(x.party, np.concatenate([y.values.ravel() for y in xs]), x.codec, x.scale)


def ss_reciprocal(rt: PartyRuntime, v: SharedArray, domain: tuple[float, float],
                  along: SharedArray | None = None):
    """Reciprocal 1/v on a public positive domain (lo, hi) in k steps.

    From the affine first guess y0, with e0 = max |1 - v y0| over the
    domain, both paths reach relative error e0^(2^k) before truncation
    noise; k is ``division_steps`` for the domain.

    - "paper": k Newton steps y <- y (2 - v y), two rounds each.
    - "ldl": e = 1 - v y0 in one round, then k - 1 Goldschmidt steps
      y <- y + y e, e <- e^2, each one stacked product [y; e] * [e; e] but
      the last, a plain y e. Goldschmidt carries its truncation error
      along, so one Newton step closes: a fresh e = 1 - v y, then
      y <- y + y e. k + 2 rounds.

    On "ldl" a single divisor v (one element) may take a flat vector
    ``along`` of numerators a, which its Newton close divides at no extra
    round: one product [v; a] * y gives e = 1 - v y and a y, and a second,
    [y; a y] * e, gives y e and a y e. The call then returns 1/v and a/v,
    both y (1 + e) times their numerators.

    The caller guarantees the reconstructed divisor lies in the domain;
    nothing is detectable online otherwise.
    """
    lo, hi = domain
    k = division_steps(domain, rt.codec.lf, rt.div.matinv)
    paper = rt.div.matinv == "paper"
    if along is not None and (paper or v.values.size != 1):
        raise ProtocolError("only the ldl path's reciprocal of one divisor carries numerators")
    with rt.scope("ss_div"):
        y = _affine_reciprocal_init(rt, v, lo, hi)
        if paper:
            for _ in range(k):
                t = ss_mul(rt, v, y)
                y = ss_mul(rt, y, (-t).add_public(2.0))
            return y
        e = _residual(rt, v, y)
        for step in range(k - 1):
            if step < k - 2:
                ye, e = _stacked_mul(rt, (y, e), (e, e))
            else:
                ye = ss_mul(rt, y, e)
            y = y + ye
        if along is None:
            return y + ss_mul(rt, y, _residual(rt, v, y))
        y = y.reshape(1)
        first = ss_mul(rt, _stack(v, along), y)
        scaled = _stack(y, first[1:])
        scaled = scaled + ss_mul(rt, scaled, (-first[:1]).add_public(1.0))
        return scaled[:1], scaled[1:]


def ss_div(rt: PartyRuntime, u: SharedArray, v: SharedArray,
           domain: tuple[float, float]) -> SharedArray:
    """Shared division u / v as one reciprocal plus one product."""
    with rt.scope("ss_div"):
        return ss_mul(rt, u, ss_reciprocal(rt, v, domain))


def sqrt_domain(sqrt_hi: float, params: RingParams) -> tuple[float, float]:
    """[x_lo, sqrt_hi], the inputs on which ss_sqrt opens right.

    The iterate z tends to 1/sqrt(x), and its square's raw word, at twice
    l_f fraction bits, must stay below the truncation bound 2^(l - 3). So
    x_lo = 2^-(l - 3 - 2 l_f), 2^-9 at l = 64 and l_f = 26; below it the
    masked word can wrap and the root opens wrong. Exact zeros open right.
    """
    return 2.0 ** -(params.l - 3 - 2 * params.lf), sqrt_hi


def _sqrt_first_guess(sqrt_hi: float) -> tuple[float, float]:
    """(a, b) of the tangent a - b x to 1/sqrt(x) at sqrt_hi / 2."""
    x0 = sqrt_hi / 2.0
    return 1.5 / math.sqrt(x0), 0.5 / x0 ** 1.5


@functools.lru_cache(maxsize=64)
def sqrt_steps(sqrt_hi: float, params: RingParams) -> int:
    """Least Newton step count k >= 1 that takes ss_sqrt within 2^-l_f on its domain.

    A float model of z <- z (3 - x z^2) / 2 from the tangent first guess
    at sqrt_hi / 2, measuring x z_k against sqrt(x): the absolute error
    where sqrt(x) is below 1, the relative error above. The tangent lies
    below the convex 1/sqrt(x) and touches it at sqrt_hi / 2, so the
    guess is worst at the ends of ``sqrt_domain``, which are checked (a
    geometric sweep of the model found no worse point between them); the
    binding one is x_lo. At l_f = 26 that is 13 steps at sqrt_hi = 16,
    17 at 432 and 19 at 1200. Memoised: every square root asks.
    """
    lo, hi = sqrt_domain(sqrt_hi, params)
    top = 2.0 ** (params.l - 1 - params.lf)
    if not lo < hi < top:
        raise ValueError(f"sqrt_hi must lie between the square root's floor {lo:g} and "
                         f"the ring's range {top:g}, got {sqrt_hi!r}")
    a, b = _sqrt_first_guess(hi)
    x = np.array([lo, hi])
    z = a - b * x
    tolerance = 2.0 ** -params.lf * np.maximum(1.0, np.sqrt(x))
    steps = 0
    while True:
        z = z * (3.0 - x * z * z) / 2.0
        steps += 1
        if np.all(np.abs(x * z - np.sqrt(x)) < tolerance):
            return steps


def ss_sqrt(rt: PartyRuntime, x: SharedArray) -> SharedArray:
    """Shared square root via inverse-square-root Newton iterations.

    z <- (3z - (xz) z^2) / 2 from a tangent-line first guess at
    sqrt_hi / 2, then one product by x. The step count k is
    ``sqrt_steps`` of sqrt_hi, so inputs should lie in ``sqrt_domain``,
    [2^-9, sqrt_hi] at l = 64 and l_f = 26, or be exact zeros. Two rounds
    per iteration: one stacked product [z; x] * [z; z] gives z^2 and xz,
    and a second, left at the raw double scale, gives (xz) z^2.
    Subtracting that from 3z lifted to the raw scale is local, and one
    truncation by one bit more than z's scale halves the difference back
    to z's scale. So an iteration makes two truncations. Before truncation noise the raw word
    is the one z (3 - x z^2) would give, with the same overflow envelope.
    The noise differs: the truncation errors e of z^2 and xz enter the raw
    product as (xz) e + z^2 e, about z^2 e per iteration, where the
    three-product form's error was about z e. So the iteration is noisier
    by 1/sqrt(x). On [0.01, sqrt_hi) the final product's truncation adds
    an error of the same order, and the measured relative error is
    unchanged; below 0.01 the extra noise adds to an error that is
    already large there.

    Each iteration's two triples (after the last, the final product's)
    ride on the truncation before it, the first guess's or a halving, when
    the previous iteration's are spent. analysis.sqrt_rounds and
    analysis.sqrt_assistant_round_trips give the counts. Exact zero inputs
    map to zero since the final multiply scales the bounded iterate by x.
    """
    a, b = _sqrt_first_guess(rt.div.sqrt_hi)
    p = rt.params
    iterations = sqrt_steps(rt.div.sqrt_hi, p)
    plans = ([[("triple", (2, *x.shape)), ("triple", x.shape)]] * iterations
             + [[("triple", x.shape)]])
    with rt.scope("ss_sqrt"):
        rt.assistant.deal(plans[0])
        z = _rescale(rt, -x.scale_public(b)).add_public(a)
        three = np.uint64(3 << z.scale)
        for i in range(iterations):
            z_sq, xz = _stacked_mul(rt, (z, x), (z, z))
            raw = ss_mul(rt, xz, z_sq, truncate=False)
            diff = ring_sub(ring_mul(z.values, three, p), raw.values, p)
            rt.assistant.deal(plans[i + 1])
            z = SharedArray(rt.party, rt.trunc_values(diff, z.scale + 1), z.codec, z.scale)
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


# _exp_correction takes a public factor below 2^(2 l_f + 53) and fails loudly
# above it; e^d opens at most e^(r_max), about 3.5 at the defaults, so a
# scale below 2^50 stays clear of that bound.
MAX_EXP_SCALE = 2.0 ** 50


def pp_exp(rt: PartyRuntime, u: SharedArray, params: ExpParams,
           policy: str = "strict", scale: float = 1.0) -> SharedArray:
    """Masked exponentiation: shares of scale * e^u for shared u in [u_min, 0].

    The servers open d = u + r for a pre-shared random mask r, evaluate
    scale * e^{d} publicly and correct with their shares of e^{-r}. One
    exchange round and 2nl bits of online traffic for an n-element input.
    The public ``scale`` (a kernel's signal variance) costs no truncation;
    it must lie in (0, 2^50).

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
    if not 0 < scale < MAX_EXP_SCALE:
        raise ValueError(f"pp_exp scale must lie in (0, 2^50), got {scale!r}")
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
        x_pub = np.round(scale * np.exp(d_hat) * float(1 << (2 * lf)))
        out_vals = _exp_correction(x_pub, mask.m, rt.party, p, 2 * lf)
        return SharedArray(rt.party, out_vals, u.codec, lf)


@dataclass
class LdlFactors:
    """Shares of the unit-lower-triangular L and the pivot vector D.

    The "ldl" path's one pass also gives V = L^{-1} and W = D^{-1} V, whose
    product V^T W is the inverse. V comes as a ``ModelOperand`` against the
    strictly lower mask the assistant keeps for it: every word but the
    last row's is open, and those open with the next product by V. On
    "paper" both are None.
    """

    L: SharedArray
    D: SharedArray
    V: ModelOperand | None = None
    W: SharedArray | None = None


def _column(x: SharedArray, rows, col) -> SharedArray:
    return SharedArray(x.party, x.values[rows, col].reshape(-1, 1), x.codec, x.scale)


class _OpenedOnce:
    """A growing shared matrix whose words each open once, against a mask the assistant keeps.

    ``values`` are this server's shares, ``mask`` its share of the kept
    strictly lower mask M, and ``opened`` the public value - M of every
    word opened so far. On and above the diagonal M is zero, so there
    ``opened`` may hold a public value itself.
    """

    def __init__(self, name: str, values: np.ndarray, mask: np.ndarray):
        self.name = name
        self.values = values
        self.mask = mask
        self.opened = np.zeros_like(values)
        self.asked = np.zeros(values.shape, dtype=bool)

    def masked(self, index, p: RingParams) -> np.ndarray:
        """This server's half of value - M at ``index``; a word asked for twice fails."""
        if self.asked[index].any():
            hit = np.zeros_like(self.asked)
            hit[index] = True
            i, j = np.argwhere(hit & self.asked)[0]
            raise ProtocolError(f"{self.name}[{i}, {j}] would open a second time against its "
                                "kept mask; each word opens once")
        self.asked[index] = True
        return ring_sub(self.values[index], self.mask[index], p)


def _ldl_column_plan(rt: PartyRuntime, n: int, k: int, domain: tuple[float, float],
                     keys=None) -> list:
    """Column k's material in the order its products take it, for pivots on ``domain``.

    On "ldl", every column takes its pivot's reciprocal, whose close
    carries n - 1 numerators. Column 0's plan then deals the three
    strictly lower n x n masks of L, C and V under ``keys``, which the
    assistant keeps for the session and column 1 takes; column k >= 1
    first takes its product round's ``ldl_column`` item, the two mask
    products M_L[k:n, :k] M_C[k, :k]^T and M_L[k, :k] M_V[:k, :k]. On
    "paper", column 0 is one vector division; column k >= 1 takes the
    pivot update's triple and matrix triple, then, for all but the last
    column, the column update's and the division by the pivot's.
    """
    rows = n - k - 1
    if rt.div.matinv != "paper":
        reciprocal = _reciprocal_plan(rt, (1,), domain, n - 1)
        if k == 0:
            return reciprocal + [("model_mask", (key, n, n, 1)) for key in keys]
        return [("ldl_column", (*keys, n, k))] + reciprocal
    if k == 0:
        return _div_plan(rt, (n, 1), (1, 1), domain)
    plan = [("triple", (1, k)), ("matrix", (1, k, 1))]
    if rows:
        plan += ([("triple", (1, k)), ("matrix", (rows, k, 1))]
                 + _div_plan(rt, (rows, 1), (1, 1), domain))
    return plan


def pp_cholesky_ldl(rt: PartyRuntime, u: SharedArray,
                    pivot_domain: tuple[float, float]) -> LdlFactors:
    """LDL^T decomposition of a shared positive-definite matrix.

    Column k's sums are the pivot's, sum_m l_km^2 d_m, and the column
    update's, L_{k+1:n,1:k} (l_k * d), and then the column divides by its
    pivot. With K = ``division_steps`` reciprocal steps on the pivot domain:

    - "ldl", the default, is one pass that also inverts. Crout's form
      (Golub & Van Loan, Sec. 4.1) keeps each column's words before the
      division, c_ik = l_ik d_k, so one product L_{k:n,1:k} C_{k,1:k}^T
      gives the pivot's sum first and the column's after it. The same
      exchange and truncation give row k of V = L^{-1},
      -L_{k,1:k} V_{1:k-1,1:k-1}. Every word of L, C and V is opened once,
      against a strictly lower mask the assistant keeps for the session
      (SecureML's reused mask, as for a ``ModelOperand``): column k's
      exchange opens only the words written since column k - 1,
      L[k:n, k-1], C[k:n, k-1] and V[k-1, :k-1], and both products are
      local Beaver combines with the column's ``ldl_column`` mask
      products. Then one reciprocal of d_k carries the column below the
      pivot and row k of V through its Newton close (``ss_reciprocal``'s
      ``along``), which gives column k of L and row k of W = D^{-1} V
      with no division product. Column 0 has no product round, so the
      pass takes (K + 2) + (n-1)(K + 3) = (K + 3)n - 1 rounds.
    - "paper" takes four products a column, l_k * l_k and its product by
      d, then w = l_k * d and the column update, and then one division by
      the pivot; the first column is a single division, and the last
      needs only its pivot, two rounds. Total R_div + (n-2)(4 + R_div) + 2
      rounds with R_div = 2K + 1.

    Each column's material is dealt one step ahead (``_ldl_column_plan``;
    columns count from 0): column 1's rides with column 0's on column 0's
    first truncation, the reciprocal's first guess, and column k + 1's on
    column k's first truncation. So no column requests material alone,
    and at most two columns' material is in flight, besides the three
    kept masks.
    """
    n = u.shape[0]
    if u.values.ndim != 2 or u.shape[1] != n:
        raise ProtocolError("pp_cholesky_ldl expects a square matrix")
    if n < 2:
        raise ProtocolError("pp_cholesky_ldl needs n >= 2")
    with rt.scope("pp_cholesky"):
        if rt.div.matinv == "paper":
            rt.assistant.deal(_ldl_column_plan(rt, n, 0, pivot_domain))
            return _paper_columns(rt, u, pivot_domain)
        keys = tuple(rt.assistant.new_key() for _ in "LCV")
        rt.assistant.deal(_ldl_column_plan(rt, n, 0, pivot_domain, keys))
        return _one_pass_columns(rt, u, pivot_domain, keys)


def _column_products(rt: PartyRuntime, L: _OpenedOnce, C: _OpenedOnce, V: _OpenedOnce,
                     t, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column k's L[k:, :k] C[k, :k]^T and L[k, :k] V[:k, :k], rescaled, in one round.

    One exchange opens the words written since column k - 1; every word
    either product reads is then open, and each is a local Beaver combine
    with ``t``'s mask products. One truncation rescales both.
    """
    t = _consume(t)
    p = rt.params
    n = L.values.shape[0]
    fresh = [(L, np.s_[k:, k - 1]), (C, np.s_[k:, k - 1]), (V, np.s_[k - 1, :k - 1])]
    opened = _open(rt, *[x.masked(index, p) for x, index in fresh])
    for (x, index), words in zip(fresh, opened):
        x.opened[index] = words
    sums = _combine(rt, L.values[k:, :k], C.values[k:k + 1, :k].T, L.opened[k:, :k],
                    C.opened[k:k + 1, :k].T, ring_matmul)
    row = _combine(rt, L.values[k:k + 1, :k], V.values[:k, :k], L.opened[k:k + 1, :k],
                   V.opened[:k, :k], ring_matmul)
    raw = ring_add(np.concatenate([sums.ravel(), row.ravel()]),
                   np.concatenate([t.sums.ravel(), t.row.ravel()]), p)
    out = rt.trunc_values(raw, rt.codec.lf)
    return out[:n - k], out[n - k:]


def _one_pass_columns(rt: PartyRuntime, u: SharedArray, pivot_domain: tuple[float, float],
                      keys) -> LdlFactors:
    """The "ldl" path's pass: L, D, V = L^{-1} and W = D^{-1} V, column by column.

    L, C and V open against the masks kept under ``keys``.
    """
    n = u.shape[0]
    codec = u.codec
    p = rt.params
    one = codec.encode(1.0)

    def shared(x):
        return SharedArray(rt.party, x, codec)

    client = rt.assistant
    # C holds the columns before their division, with the pivots on its diagonal.
    L, C, V, W = (np.zeros((n, n), dtype=np.uint64) for _ in range(4))
    C[:, 0] = u.values[:, 0]
    for k in range(n):
        if k + 1 < n:
            client.deal(_ldl_column_plan(rt, n, k + 1, pivot_domain, keys))
        if k == 1:
            # The masks came with column 0's plan. They are zero on and above
            # the diagonal, so V opens there as its public unit triangle.
            masks = [_consume(client.get_model_mask(key, (n, n), lower=True)).b for key in keys]
            kept = [_OpenedOnce(name, x, b) for name, x, b in zip("LCV", (L, C, V), masks)]
            np.fill_diagonal(kept[2].opened, one)
        if k:
            # One round: the sums c_ik = u_ik - L_{i,1:k} C_{k,1:k}^T for i >= k
            # and row k of V.
            with rt.scope("ss_matmul"):
                sums, row = _column_products(rt, *kept, client.get_ldl_column(keys, n, k), k)
            C[k:, k] = ring_sub(u.values[k:, k], sums, p)
            V[k, :k] = ring_neg(row, p)
        if rt.party == 0:
            L[k, k] = V[k, k] = one
        # 1/d_k, the column below the pivot over d_k (L's) and row k of V over d_k (W's).
        inv_d, scaled = ss_reciprocal(rt, shared(C[k, k:k + 1]), pivot_domain,
                                      along=shared(np.concatenate([C[k + 1:, k], V[k, :k]])))
        L[k + 1:, k] = scaled.values[:n - k - 1]
        W[k, :k] = scaled.values[n - k - 1:]
        W[k, k] = inv_d.values[0]
    # No column reads V's last row; the final product opens it.
    last = np.s_[n - 1, :n - 1]
    v_model = ModelOperand(shared(V), kept[2].opened, keys[2], (last, kept[2].masked(last, p)))
    return LdlFactors(L=shared(L), D=shared(np.diagonal(C).copy()), V=v_model, W=shared(W))


def _paper_columns(rt: PartyRuntime, u: SharedArray,
                   pivot_domain: tuple[float, float]) -> LdlFactors:
    """The "paper" path's columns: four products and one division each."""
    n = u.shape[0]
    codec = u.codec
    p = rt.params
    L = SharedArray(rt.party, np.zeros((n, n), dtype=np.uint64), codec)
    d_vals = np.zeros(n, dtype=np.uint64)

    # d_1 = u_11; first column of L by one vector division.
    d_vals[0] = u.values[0, 0]
    pivot = SharedArray(rt.party, u.values[0:1, 0:1], codec)
    col = _column(u, slice(0, n), 0)
    rt.assistant.deal(_ldl_column_plan(rt, n, 1, pivot_domain))
    l_col = ss_div(rt, col, pivot, pivot_domain)
    L.values[:, 0] = l_col.values[:, 0]

    for k in range(1, n):
        if k + 1 < n:
            rt.assistant.deal(_ldl_column_plan(rt, n, k + 1, pivot_domain))
        lk = SharedArray(rt.party, L.values[k:k + 1, :k], codec)      # 1 x k
        d_row = SharedArray(rt.party, d_vals[:k].reshape(1, -1), codec)
        # acc holds the pivot's sum, then the column update's: (n-k) x 1.
        acc = ss_matmul(rt, ss_mul(rt, lk, lk), d_row.T).values
        if k < n - 1:
            w = ss_mul(rt, lk, d_row)
            below = SharedArray(rt.party, L.values[k + 1:, :k], codec)
            acc = np.vstack([acc, ss_matmul(rt, below, w.T).values])
        # Pivot: d_k = u_kk - sum_m l_km^2 d_m.
        d_k = SharedArray(rt.party, ring_sub(u.values[k:k + 1, k:k + 1], acc[:1], p), codec)
        d_vals[k] = d_k.values[0, 0]
        if k == n - 1:
            break
        # Column: hat_l = u_{k+1:n,k} - L_{k+1:n,1:k} (l_k * d).
        hat = SharedArray(rt.party, ring_sub(u.values[k + 1:, k:k + 1], acc[1:], p), codec)
        # One division by the shared pivot.
        l_col = ss_div(rt, hat, d_k, pivot_domain)
        L.values[k + 1:, k] = l_col.values[:, 0]
        L.values[k, k] = codec.encode(1.0) if rt.party == 0 else 0

    L.values[n - 1, n - 1] = codec.encode(1.0) if rt.party == 0 else 0
    return LdlFactors(L=L, D=SharedArray(rt.party, d_vals, codec))


def pp_forward(rt: PartyRuntime, L: SharedArray) -> SharedArray:
    """Invert a shared unit lower-triangular matrix, one round per row.

    Row k of V = L^{-1} is v_{k,1:k-1} = -l_{k,1:k-1} V_{1:k-1,1:k-1},
    costing a single matrix product round for each k = 2..n. Each row
    deals the next row's matrix triple, which rides on its truncation;
    the first row's request carries the first two rows' and is the only
    one for material alone.
    """
    n = L.shape[0]
    codec = L.codec
    one = codec.encode(1.0)
    with rt.scope("pp_forward"):
        V = SharedArray(rt.party, np.zeros((n, n), dtype=np.uint64), codec)
        V.values[0, 0] = one if rt.party == 0 else 0
        rt.assistant.deal([("matrix", (1, 1, 1))])
        for k in range(1, n):
            if k + 1 < n:
                rt.assistant.deal([("matrix", (1, k + 1, k + 1))])
            lk = SharedArray(rt.party, L.values[k:k + 1, :k], codec)
            head = SharedArray(rt.party, V.values[:k, :k], codec)
            row = ss_matmul(rt, lk, head)
            V.values[k, :k] = ring_neg(row.values[0], rt.params)
            V.values[k, k] = one if rt.party == 0 else 0
    return V


def pp_backward(rt: PartyRuntime, V: SharedArray, D: SharedArray,
                pivot_domain: tuple[float, float]) -> SharedArray:
    """Combine the factors into the inverse: Lambda = V^T D^{-1} V.

    One division of V's rows by D, dealt ahead so that its triples ride
    on the reciprocal's first truncation, and one matrix product round,
    whose (n, n, n) triple travels alone: riding it on the division would
    hold it through the division's rounds and raise peak memory.
    """
    with rt.scope("pp_backward"):
        d_col = SharedArray(rt.party, D.values.reshape(-1, 1), D.codec, D.scale)
        rt.assistant.deal(_div_plan(rt, V.shape, d_col.shape, pivot_domain))
        return ss_matmul(rt, V.T, ss_div(rt, V, d_col, pivot_domain))


def pp_matinv(rt: PartyRuntime, u: SharedArray,
              pivot_domain: tuple[float, float]) -> SharedArray:
    """Invert a shared positive-definite matrix via LDL^T factors.

    On the default "ldl" path, pp_cholesky_ldl's one pass gives V = L^{-1}
    and W = D^{-1} V, and one product gives the inverse V^T W, as
    (W^T V)^T against V's kept mask: a kept triple opens only W^T - A,
    with V's last row. At K reciprocal steps that is (K + 3)n - 1 + 1 =
    (K + 3)n peer rounds and (K + 4)n + 1 assistant round trips, 10n and
    11n + 1 at the default kernel's 7. The "paper" path runs the paper's
    three phases, Cholesky, pp_forward and pp_backward:
    (21n - 23) + (n - 1) + 18 = 22n - 6 peer rounds and 23n - 4 round
    trips at 8 steps (analysis.expected_rounds and
    analysis.matinv_assistant_round_trips). A round trip is a
    truncation's or a request for material alone. The final product's
    kept triple is the only such request on "ldl", and on "paper" the
    first forward row's is the other. Since "ldl" opens each word of L, C
    and V once, its online words grow as n^2, where "paper"'s grow as
    n^3 (analysis.matinv_online_words).
    """
    with rt.scope("pp_matinv"):
        factors = pp_cholesky_ldl(rt, u, pivot_domain)
        if rt.div.matinv == "paper":
            V = pp_forward(rt, factors.L)
            return pp_backward(rt, V, factors.D, pivot_domain)
        V, W = factors.V, factors.W
        # L is dropped before the final product's triple arrives.
        del factors
        return ss_matmul(rt, W.T, V).T
