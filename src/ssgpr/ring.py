"""Wrapping arithmetic on Z_{2^l} and the fixed-point real <-> ring encoding.

All values live in numpy uint64 arrays. At l = 64 the uint64 wrap is the
ring reduction, so results are used as they come; for l < 64 every
operation reduces to the low l bits.

``ring_matmul`` runs large products on float64 BLAS: each word is cut
into limbs of 22, 21 and 21 bits, one dgemm runs per limb pair whose
shift is below 64, and the results are shifted and added back in uint64.
Up to an inner dimension of 512 every sum of limb products at one shift
stays below 2^53, where float64 holds integers exactly, so the result is
bit-identical to the uint64 product whatever order BLAS sums in. Longer
and small products run on the uint64 product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RangeError(ValueError):
    """Raised when a real value falls outside the representable range."""


@dataclass(frozen=True)
class RingParams:
    """Bit width ``l`` of the ring and number of fractional bits ``l_f``."""

    l: int = 64
    lf: int = 26

    def __post_init__(self):
        if not (0 < self.l <= 64):
            raise ValueError(f"ring width must be in (0, 64], got {self.l}")
        if not (0 <= self.lf < self.l):
            raise ValueError(f"fractional bits must be in [0, l), got {self.lf}")

    @property
    def mask(self) -> np.uint64:
        if self.l == 64:
            return np.uint64(0xFFFFFFFFFFFFFFFF)
        return np.uint64((1 << self.l) - 1)

    @property
    def modulus(self) -> int:
        return 1 << self.l

    @property
    def half(self) -> int:
        """First value of the negative (upper) half of the ring."""
        return 1 << (self.l - 1)

    @property
    def scale(self) -> int:
        return 1 << self.lf

    @property
    def real_bound(self) -> float:
        """Representable reals are [-real_bound, real_bound)."""
        return float(2 ** (self.l - self.lf - 1))


def _as_u64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64)


def ring_reduce(x: np.ndarray, params: RingParams) -> np.ndarray:
    """Reduce uint64 words into Z_{2^l}; at l = 64 they already are."""
    if params.l == 64:
        return x
    return x & params.mask


def ring_add(a, b, params: RingParams) -> np.ndarray:
    return ring_reduce(_as_u64(a) + _as_u64(b), params)


def ring_sub(a, b, params: RingParams) -> np.ndarray:
    return ring_reduce(_as_u64(a) - _as_u64(b), params)


def ring_neg(a, params: RingParams) -> np.ndarray:
    return ring_reduce(np.uint64(0) - _as_u64(a), params)


def ring_mul(a, b, params: RingParams) -> np.ndarray:
    return ring_reduce(_as_u64(a) * _as_u64(b), params)


_EXACT = 1 << 53
# Limb widths, low limb first, summing to 64.
_LIMB_WIDTHS = (22, 21, 21)
# The fewest multiply-adds at which the limb product beats the uint64
# product, measured on one pinned core with single-threaded OpenBLAS:
# 100x100x100 takes 0.4-0.5 ms against 1.1-1.5 ms, 500x100x100 2.4-2.5
# ms against 7.1-7.5 ms.
_LIMB_MIN_MACS = 1 << 19
# Below this size in any dimension the limb split and recombination
# passes cost more than the uint64 product (about 1.2 ns per
# multiply-add) saves. Lopsided shapes with an inner dimension near
# this bound and a side past 1000 still lose by up to 1.8x; no product
# in the package has that shape.
_LIMB_MIN_DIM = 16
# Rows of the left operand per block, which bounds the temporaries.
_LIMB_ROWS = 64


def _limb_groups(widths) -> tuple:
    """(shift, limb pairs) for every shift below 64 that a limb pair lands on."""
    offsets = [sum(widths[:i]) for i in range(len(widths))]
    groups = {}
    for i, oi in enumerate(offsets):
        for j, oj in enumerate(offsets):
            if oi + oj < 64:
                groups.setdefault(oi + oj, []).append((i, j))
    return tuple(sorted(groups.items()))


_LIMB_GROUPS = _limb_groups(_LIMB_WIDTHS)
# The largest inner dimension whose same-shift sums all stay below 2^53
# (512 for these widths); longer products run on the uint64 ``@``.
_LIMB_MAX_K = (_EXACT - 1) // max(
    sum(((1 << _LIMB_WIDTHS[i]) - 1) * ((1 << _LIMB_WIDTHS[j]) - 1) for i, j in pairs)
    for _, pairs in _LIMB_GROUPS)


def _use_limbs(m: int, k: int, n: int) -> bool:
    """Whether an (m x k) @ (k x n) product runs on the limb path."""
    return min(m, k, n) >= _LIMB_MIN_DIM and k <= _LIMB_MAX_K and m * k * n >= _LIMB_MIN_MACS


def _limbs(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Write the limbs of x, low first, into out[0], out[1], ... as exact float64."""
    shift = 0
    for limb, w in zip(out, _LIMB_WIDTHS):
        np.right_shift(x, np.uint64(shift), out=tmp)
        if shift + w < 64:
            tmp &= np.uint64((1 << w) - 1)
        # Through int64: numpy's uint64 -> float64 cast is ten times slower.
        limb[...] = tmp.view(np.int64)
        shift += w


def _limb_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod 2^64 from one float64 dgemm per limb pair below bit 64.

    The left operand runs in blocks of ``_LIMB_ROWS`` rows, and every
    temporary is allocated once, so the working set stays near the
    size of b's limbs.
    """
    (m, k), n = a.shape, b.shape[1]
    rows = min(m, _LIMB_ROWS)
    nl = len(_LIMB_WIDTHS)
    b_limbs = np.empty((nl, k, n))
    _limbs(b, b_limbs, np.empty((k, n), dtype=np.uint64))
    a_limbs = np.empty((nl, rows, k))
    a_tmp = np.empty((rows, k), dtype=np.uint64)
    acc, prod = np.empty((rows, n)), np.empty((rows, n))
    word = np.empty((rows, n), dtype=np.int64)
    out = np.empty((m, n), dtype=np.uint64)
    for r in range(0, m, rows):
        h = min(rows, m - r)
        if h < rows:
            a_limbs, a_tmp, acc, prod, word = (a_limbs[:, :h], a_tmp[:h], acc[:h], prod[:h],
                                               word[:h])
        _limbs(a[r:r + h], a_limbs, a_tmp)
        block, uword = out[r:r + h], word.view(np.uint64)
        for g, (shift, pairs) in enumerate(_LIMB_GROUPS):
            (i, j), *rest = pairs
            np.matmul(a_limbs[i], b_limbs[j], out=acc)
            for i, j in rest:
                np.matmul(a_limbs[i], b_limbs[j], out=prod)
                acc += prod
            word[...] = acc
            if g == 0:
                block[...] = uword
            else:
                uword <<= np.uint64(shift)
                block += uword
    return out


def ring_matmul(a, b, params: RingParams) -> np.ndarray:
    """Matrix product mod 2^l: limbs on BLAS for large 2-d shapes, else uint64 ``@``."""
    a, b = _as_u64(a), _as_u64(b)
    if (a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]
            and _use_limbs(*a.shape, b.shape[1])):
        return ring_reduce(_limb_matmul(a, b), params)
    return ring_reduce(a @ b, params)


def to_signed(v, params: RingParams) -> np.ndarray:
    """Reinterpret ring elements as two's-complement int64 values."""
    v = _as_u64(v)
    if params.l == 64:
        return v.astype(np.int64)
    s = v.astype(np.int64)
    return np.where(s >= params.half, s - params.modulus, s)


def from_signed(s, params: RingParams) -> np.ndarray:
    return ring_reduce(np.asarray(s).astype(np.int64).astype(np.uint64), params)


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals onto the fixed-point grid {k / 2^l_f} embedded in Z_{2^l}."""

    params: RingParams = RingParams()

    @property
    def lf(self) -> int:
        return self.params.lf

    @property
    def quantum(self) -> float:
        return 2.0 ** -self.params.lf

    def encode(self, x) -> np.ndarray:
        """Round x to the grid (half away from zero) and embed in the ring."""
        x = np.asarray(x, dtype=np.float64)
        bound = self.params.real_bound
        if np.any(x < -bound) or np.any(x >= bound):
            raise RangeError(f"value outside representable range [-{bound}, {bound})")
        scaled = x * self.params.scale
        rounded = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
        return from_signed(rounded, self.params)

    def decode(self, e) -> np.ndarray:
        return to_signed(e, self.params).astype(np.float64) / self.params.scale
