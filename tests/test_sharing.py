"""(2,2)-additive sharing and the share-local linear operations."""

import numpy as np
import pytest
import scipy.stats

from helpers import CODEC, QUANTUM
from ssgpr.ring import FixedPointCodec, RingParams, ring_sub
from ssgpr.sharing import rec, reconstruct, share_reals, shr, random_ring_elements

L5 = RingParams(5, 3)
C5 = FixedPointCodec(L5)


def test_shr_worked_example():
    # x* = (0.625, 0.375, 0.375) with party-0 shares r = (6, 9, 6).
    enc = C5.encode([0.625, 0.375, 0.375])
    r = np.array([6, 9, 6], dtype=np.uint64)
    share1 = ring_sub(enc, r, L5)
    assert share1.tolist() == [31, 26, 29]


def test_shr_zero_example():
    enc = np.uint64(0)
    r = np.uint64(5)
    assert int(ring_sub(enc, r, L5)) == 27


def test_rec_worked_example():
    assert int(rec(np.uint64(6), np.uint64(31), L5)) == 5
    assert float(C5.decode(rec(np.uint64(6), np.uint64(31), L5))) == 0.625


def test_rec_zero():
    assert int(rec(np.uint64(0), np.uint64(0), L5)) == 0


def test_shr_rec_roundtrip_bitwise():
    rng = np.random.default_rng(3)
    enc = rng.integers(0, 32, 200, dtype=np.uint64)
    s0, s1 = shr(enc, rng, L5)
    assert np.array_equal(rec(s0, s1, L5), enc)


def test_reconstruction_independent_of_randomness():
    enc = C5.encode([1.0, -0.5])
    for seed in (0, 1, 2):
        s0, s1 = shr(enc, np.random.default_rng(seed), L5)
        assert np.array_equal(rec(s0, s1, L5), enc)


def test_shared_addition():
    rng = np.random.default_rng(5)
    a0, a1 = share_reals(3.0, CODEC, rng)
    b0, b1 = share_reals(4.0, CODEC, rng)
    assert float(reconstruct(a0 + b0, a1 + b1)) == 7.0


def test_shared_subtraction_and_negation():
    rng = np.random.default_rng(6)
    a0, a1 = share_reals(3.0, CODEC, rng)
    b0, b1 = share_reals(4.0, CODEC, rng)
    assert float(reconstruct(a0 - b0, a1 - b1)) == -1.0
    assert float(reconstruct(-a0, -a1)) == -3.0


def test_add_public_touches_only_party0():
    rng = np.random.default_rng(7)
    a0, a1 = share_reals(3.0, CODEC, rng)
    c0, c1 = a0.add_public(2.0), a1.add_public(2.0)
    assert float(reconstruct(c0, c1)) == 5.0
    assert np.array_equal(c1.values, a1.values)
    assert not np.array_equal(c0.values, a0.values)


def test_scale_public_by_one_within_quantum():
    rng = np.random.default_rng(8)
    x = np.array([1.25, -2.5, 0.3])
    a0, a1 = share_reals(x, CODEC, rng)
    # The product sits at the raised scale 2*l_f; opening there is exact.
    got = reconstruct(a0.scale_public(1.0), a1.scale_public(1.0))
    assert np.max(np.abs(got - x)) <= QUANTUM


def test_scale_int_exact():
    rng = np.random.default_rng(9)
    a0, a1 = share_reals(1.5, CODEC, rng)
    assert float(reconstruct(a0.scale_int(4), a1.scale_int(4))) == 6.0


def test_party_and_scale_mismatch_rejected():
    rng = np.random.default_rng(11)
    a0, a1 = share_reals(1.0, CODEC, rng)
    with pytest.raises(ValueError):
        a0 + a1
    with pytest.raises(ValueError):
        a0 + a0.scale_public(2.0)
    with pytest.raises(ValueError):
        reconstruct(a0.scale_public(2.0), a1)


def test_shared_array_views():
    rng = np.random.default_rng(12)
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    a0, a1 = share_reals(x, CODEC, rng)
    assert np.array_equal(reconstruct(a0.T, a1.T), x.T)
    assert np.array_equal(reconstruct(a0.reshape(3, 2), a1.reshape(3, 2)),
                          x.reshape(3, 2))
    assert np.array_equal(reconstruct(a0[1], a1[1]), x[1])


def test_random_ring_elements_respect_mask():
    rng = np.random.default_rng(13)
    r = random_ring_elements(rng, 1000, RingParams(8, 3))
    assert r.max() < 256


def test_random_ring_elements_uniform_top_byte():
    # At l = 64 nothing is masked away, so the top byte must be uniform too.
    r = random_ring_elements(np.random.default_rng(14), 25_600, RingParams(64, 26))
    counts = np.bincount((r >> np.uint64(56)).astype(np.int64), minlength=256)
    assert scipy.stats.chisquare(counts).pvalue > 1e-3
