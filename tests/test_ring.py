"""Fixed-point encoding and wrapping ring arithmetic."""

import itertools

import numpy as np
import pytest

from ssgpr.ring import (_LIMB_MAX_K, _LIMB_MIN_DIM, _LIMB_WIDTHS, FixedPointCodec, RangeError,
                        RingParams, _limb_matmul, _use_limbs, from_signed, ring_add,
                        ring_matmul, ring_mul, ring_neg, ring_reduce, ring_sub, to_signed)

L5 = RingParams(5, 3)
C5 = FixedPointCodec(L5)


def test_encode_examples_l5():
    assert int(C5.encode(1.125123)) == 9
    assert int(C5.encode(0.0)) == 0
    assert int(C5.encode(-0.125)) == 31


def test_decode_examples_l5():
    assert float(C5.decode(11)) == 1.375
    assert float(C5.decode(0)) == 0.0
    assert float(C5.decode(31)) == -0.125


def test_encode_decode_roundtrip_on_grid():
    # Every representable grid value survives the roundtrip bitwise.
    grid = np.arange(32, dtype=np.uint64)
    assert np.array_equal(C5.encode(C5.decode(grid)), grid)


def test_encode_rounds_half_away_from_zero():
    assert int(C5.encode(0.0625)) == 1
    assert int(C5.encode(-0.0625)) == 31


def test_encode_range_error():
    with pytest.raises(RangeError):
        C5.encode(C5.params.real_bound)
    with pytest.raises(RangeError):
        C5.encode(-C5.params.real_bound - 1.0)


def test_ring_add_wraparound():
    assert int(ring_add(30, 5, L5)) == 3


def test_ring_mul_example():
    assert int(ring_mul(9, 9, L5)) == 17  # 81 mod 32


def test_ring_add_identity():
    a = np.arange(32, dtype=np.uint64)
    assert np.array_equal(ring_add(a, 0, L5), a)


def test_ring_sub_neg():
    assert int(ring_sub(3, 5, L5)) == 30
    assert int(ring_neg(1, L5)) == 31
    assert int(ring_neg(0, L5)) == 0


def test_ring_matmul_matches_int_matmul_mod():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 32, (3, 4), dtype=np.uint64)
    b = rng.integers(0, 32, (4, 2), dtype=np.uint64)
    want = (a.astype(object) @ b.astype(object)) % 32
    assert np.array_equal(ring_matmul(a, b, L5), want.astype(np.uint64))


def test_signed_reinterpretation():
    assert int(to_signed(31, L5)) == -1
    assert int(to_signed(15, L5)) == 15
    assert int(to_signed(16, L5)) == -16
    assert int(from_signed(-1, L5)) == 31
    s = np.array([-16, -1, 0, 1, 15])
    assert np.array_equal(to_signed(from_signed(s, L5), L5), s)


def test_l64_wraps_on_hardware():
    p = RingParams(64, 26)
    top = np.uint64(0xFFFFFFFFFFFFFFFF)
    assert int(ring_add(top, 1, p)) == 0
    assert int(ring_mul(top, top, p)) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(0, 0)
    with pytest.raises(ValueError):
        RingParams(65, 26)
    with pytest.raises(ValueError):
        RingParams(16, 16)
    with pytest.raises(ValueError):
        RingParams(16, -1)


def test_params_derived_quantities():
    p = RingParams(16, 3)
    assert p.modulus == 1 << 16
    assert p.half == 1 << 15
    assert p.scale == 8
    assert p.real_bound == 2.0 ** 12
    assert int(p.mask) == 0xFFFF
    assert FixedPointCodec(p).quantum == 0.125


# ------------------------------------------------ limb ring_matmul

NARROW_AND_WIDE = [RingParams(64, 26), RingParams(60, 20), RingParams(48, 12), L5]


def int_matmul(a, b, p):
    """Python-int oracle for ring_matmul."""
    return ((a.astype(object) @ b.astype(object)) % p.modulus).astype(np.uint64)


def ring_words(rng, shape, p, fill):
    """Uniform words of Z_{2^l}, or the worst case 2^l - 1 everywhere."""
    if fill == "ones":
        return np.full(shape, p.modulus - 1, dtype=np.uint64)
    return rng.integers(0, p.modulus, shape, dtype=np.uint64)


@pytest.mark.parametrize("fill", ["random", "ones"])
@pytest.mark.parametrize("k", [1, 10, 100, 200, 400, 512])
@pytest.mark.parametrize("p", NARROW_AND_WIDE, ids=lambda p: f"l{p.l}")
def test_limb_kernel_matches_int_oracle(p, k, fill):
    # 70 rows make a full and a partial row block; the transposed copies
    # are non-contiguous views.
    rng = np.random.default_rng([p.l, k])
    a = ring_words(rng, (70, k), p, fill)
    b = ring_words(rng, (k, 3), p, fill)
    want = int_matmul(a, b, p)
    at, bt = np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T
    assert k == 1 or not (at.flags.c_contiguous or bt.flags.c_contiguous)
    for x, y in ((a, b), (at, bt)):
        assert np.array_equal(ring_reduce(_limb_matmul(x, y), p), want)


@pytest.mark.parametrize("shape, limbs", [
    ((64, 128, 64), True), ((64, 128, 63), False), ((15, 256, 300), False),
    ((32, 512, 32), True), ((64, 513, 64), False), ((48, 1000, 48), False),
], ids=["limbs", "macs-below", "dim-below", "k-at-bound", "k-past-bound", "k-1000"])
def test_ring_matmul_both_sides_of_the_gate(shape, limbs):
    m, k, n = shape
    assert _use_limbs(m, k, n) == limbs
    rng = np.random.default_rng(list(shape))
    for p, fill in ((RingParams(64, 26), "random"), (RingParams(48, 12), "ones")):
        a = ring_words(rng, (k, m), p, fill).T
        b = ring_words(rng, (k, n), p, fill)
        assert np.array_equal(ring_matmul(a, b, p), int_matmul(a, b, p))


def largest_same_shift_sum(widths):
    """Largest sum of limb products landing on one shift below 64, per inner index."""
    offsets = [sum(widths[:i]) for i in range(len(widths))]
    sums = {}
    for (oi, wi), (oj, wj) in itertools.product(zip(offsets, widths), repeat=2):
        if oi + oj < 64:
            sums[oi + oj] = sums.get(oi + oj, 0) + (2 ** wi - 1) * (2 ** wj - 1)
    return max(sums.values())


def test_limb_widths_stay_exact_for_every_inner_dimension():
    # Pure arithmetic: for every k the gate sends to the limb path, k times
    # the largest same-shift sum of limb products stays below 2^53, so
    # every partial sum BLAS forms is an exact float64 integer; the next k
    # would not be, and the gate sends it to the uint64 product.
    assert sum(_LIMB_WIDTHS) == 64
    bound = largest_same_shift_sum(_LIMB_WIDTHS)
    for k in range(1, 2 * _LIMB_MAX_K):
        if _use_limbs(_LIMB_MIN_DIM, k, 1 << 40):
            assert _LIMB_MIN_DIM <= k and k * bound < 2 ** 53
        else:
            assert k < _LIMB_MIN_DIM or k > _LIMB_MAX_K
    assert (_LIMB_MAX_K + 1) * bound >= 2 ** 53
