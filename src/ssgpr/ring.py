"""Wrapping arithmetic on Z_{2^l} and the fixed-point real <-> ring encoding.

All values live in numpy uint64 arrays. At l = 64 the uint64 wrap is the
ring reduction, so results are used as they come; for l < 64 every
operation reduces to the low l bits.
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


def ring_matmul(a, b, params: RingParams) -> np.ndarray:
    return ring_reduce(_as_u64(a) @ _as_u64(b), params)


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

    def truncate(self, e) -> np.ndarray:
        """Rescale a raw double-precision product back to scale l_f.

        Arithmetic right shift in the signed interpretation, rounding to
        nearest (plain value-level truncation; shared values are rescaled
        through the assistant by ``PartyRuntime.trunc_values``).
        """
        s = to_signed(e, self.params)
        s = (s + (1 << (self.params.lf - 1))) >> np.int64(self.params.lf)
        return from_signed(s, self.params)
