"""(2,2)-additive secret sharing over Z_{2^l}.

A secret x is split as x = ([x]_0 + [x]_1) mod 2^l where [x]_0 is uniform.
Linear operations are local; each party's half lives in a SharedArray.
At l = 64 shares are used as the uint64 wrap leaves them; narrower rings
reduce after every operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ring import (FixedPointCodec, RingParams, from_signed, ring_add, ring_mul,
                   ring_neg, ring_reduce, ring_sub, to_signed)


def random_ring_elements(rng: np.random.Generator, shape, params: RingParams) -> np.ndarray:
    """Uniform elements of Z_{2^l}: raw 64-bit generator words, reduced."""
    return ring_reduce(rng.bit_generator.random_raw(shape), params)


def shr(x, rng: np.random.Generator, params: RingParams):
    """Split ring elements into two additive shares; share 0 is uniform."""
    x = ring_reduce(np.asarray(x, dtype=np.uint64), params)
    s0 = random_ring_elements(rng, x.shape, params)
    s1 = ring_sub(x, s0, params)
    return s0, s1


def rec(s0, s1, params: RingParams) -> np.ndarray:
    """Reconstruct the secret from both shares."""
    return ring_add(s0, s1, params)


@dataclass
class SharedArray:
    """One party's half of a secret-shared uint64 array.

    ``scale`` tracks the fixed-point scale (in fractional bits) of the
    underlying secret; fresh encodings carry scale l_f and every secret
    multiplication doubles it until a truncation brings it back down.
    """

    party: int
    values: np.ndarray
    codec: FixedPointCodec
    scale: int = -1

    def __post_init__(self):
        self.values = ring_reduce(np.asarray(self.values, dtype=np.uint64), self.codec.params)
        if self.scale < 0:
            self.scale = self.codec.lf

    @property
    def params(self) -> RingParams:
        return self.codec.params

    @property
    def shape(self):
        return self.values.shape

    def _check(self, other: "SharedArray"):
        if other.party != self.party:
            raise ValueError("cannot combine shares held by different parties")
        if other.scale != self.scale:
            raise ValueError(f"scale mismatch: {self.scale} vs {other.scale}")

    def __add__(self, other: "SharedArray") -> "SharedArray":
        self._check(other)
        return SharedArray(self.party, ring_add(self.values, other.values, self.params),
                           self.codec, self.scale)

    def __sub__(self, other: "SharedArray") -> "SharedArray":
        self._check(other)
        return SharedArray(self.party, ring_sub(self.values, other.values, self.params),
                           self.codec, self.scale)

    def __neg__(self) -> "SharedArray":
        return SharedArray(self.party, ring_neg(self.values, self.params), self.codec, self.scale)

    def __getitem__(self, idx) -> "SharedArray":
        return SharedArray(self.party, self.values[idx], self.codec, self.scale)

    @property
    def T(self) -> "SharedArray":
        return SharedArray(self.party, self.values.T, self.codec, self.scale)

    def reshape(self, *shape) -> "SharedArray":
        return SharedArray(self.party, self.values.reshape(*shape), self.codec, self.scale)

    def copy(self) -> "SharedArray":
        return SharedArray(self.party, self.values.copy(), self.codec, self.scale)

    def add_public(self, x) -> "SharedArray":
        """Add a public real constant; only party 0 adjusts its share."""
        if self.party != 0:
            return self.copy()
        enc = from_signed(np.round(np.asarray(x, dtype=np.float64) * (1 << self.scale)),
                          self.params)
        return SharedArray(self.party, ring_add(self.values, enc, self.params),
                           self.codec, self.scale)

    def scale_int(self, k: int) -> "SharedArray":
        """Multiply by a public integer (exact, scale unchanged)."""
        v = ring_mul(self.values, int(k) & int(self.params.mask), self.params)
        return SharedArray(self.party, v, self.codec, self.scale)

    def scale_public(self, x: float) -> "SharedArray":
        """Multiply by a public real; raises the scale by l_f."""
        enc = from_signed(np.round(float(x) * self.codec.params.scale), self.params)
        v = ring_mul(self.values, enc, self.params)
        return SharedArray(self.party, v, self.codec, self.scale + self.codec.lf)


def share_reals(x, codec: FixedPointCodec, rng: np.random.Generator):
    """Encode reals and return the pair of SharedArray halves."""
    enc = codec.encode(x)
    s0, s1 = shr(enc, rng, codec.params)
    return SharedArray(0, s0, codec), SharedArray(1, s1, codec)


def reconstruct(a: SharedArray, b: SharedArray) -> np.ndarray:
    """Open a shared value to its real interpretation."""
    if a.scale != b.scale:
        raise ValueError("scale mismatch between shares")
    total = rec(a.values, b.values, a.params)
    return to_signed(total, a.params).astype(np.float64) / (1 << a.scale)
