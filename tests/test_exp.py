"""Masked exponentiation: accuracy, cost, and opening policies."""

import re

import numpy as np
import pytest

from helpers import QUANTUM, open_result, run_shared
from ssgpr.gpr import KernelConfig
from ssgpr.protocols import _EXP_BLOCK, ExpParams, _exp_correction, pp_exp
from ssgpr.ring import FixedPointCodec, RingParams
from ssgpr.sharing import reconstruct
from ssgpr.transport import P0, P1

EP = ExpParams()


def test_exp_zero_near_one():
    res = run_shared(lambda rt, u: pp_exp(rt, u, EP), [np.zeros(8)])
    got = open_result(res)
    # The composed grid product e^{d} * e^{-r} is not bit-exactly 1.0;
    # it stays within the Theorem-1 composition error.
    assert np.max(np.abs(got - 1.0)) <= 4 * QUANTUM


def test_exp_minus_one():
    res = run_shared(lambda rt, u: pp_exp(rt, u, EP), [np.array([-1.0])], seed=7)
    assert abs(float(open_result(res)[0]) - np.exp(-1.0)) <= 2 * QUANTUM


def test_exp_accuracy_over_range():
    rng = np.random.default_rng(1)
    u = rng.uniform(-4.0, 0.0, 2000)
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP), [u])
    assert np.max(np.abs(open_result(res) - np.exp(u))) <= 4 * QUANTUM


def test_exp_single_round_and_volume():
    n = 50
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP), [np.full(n, -0.5)])
    s = res.stats[P0].summary()["per_protocol"]["pp_exp"]
    assert s["rounds"] == 1
    assert s["words_sent"] == n  # one ring element per input per direction


def test_exp_strict_policy_rejects_out_of_range():
    with pytest.raises(RuntimeError):
        run_shared(lambda rt, x: pp_exp(rt, x, EP, policy="strict"),
                   [np.array([-20.0])])


def test_exp_clamp_policy_underflows_gracefully():
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP, policy="clamp"),
                     [np.array([-30.0])])
    assert abs(float(open_result(res)[0])) <= 4 * QUANTUM


def test_exp_unknown_policy():
    with pytest.raises(RuntimeError):
        run_shared(lambda rt, x: pp_exp(rt, x, EP, policy="bogus"),
                   [np.array([-1.0])])


def test_exp_matrix_shape_preserved():
    u = np.random.default_rng(2).uniform(-3, 0, (4, 5))
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP), [u])
    got = open_result(res)
    assert got.shape == (4, 5)
    assert np.max(np.abs(got - np.exp(u))) <= 4 * QUANTUM


def test_exp_rmax_enc():
    assert EP.rmax_enc(26) == int(round(1.25 * (1 << 26)))


# ------------------------------------------------ exact correction oracle

def loop_correction(x_pub, m, party, p, shift):
    """The per-element Python-int correction, the reference for _exp_correction."""
    half = 1 << (shift - 1)
    vals = []
    for xe, me in zip(np.ravel(x_pub), np.ravel(m)):
        xe, me = int(xe), int(me)
        if party == 0:
            s = (xe * me + half) >> shift
        else:
            s = -((xe * (p.modulus - me)) >> shift)
        vals.append(s % p.modulus)
    return np.array(vals, dtype=np.uint64).reshape(np.shape(x_pub))


@pytest.mark.parametrize("ring, params", [
    (RingParams(64, 26), EP),
    (RingParams(60, 20), EP),
    (RingParams(48, 12), EP),
    (RingParams(64, 29), ExpParams(u_min=-4.0, r_max=16.0)),
], ids=["64-26", "60-20", "48-12", "64-29-rmax16"])
def test_exp_correction_matches_integer_loop(ring, params):
    lf = ring.lf
    rng = np.random.default_rng(ring.l * 64 + lf)
    slack = 4.0 / (1 << lf)
    ceiling = np.round(np.exp(params.r_max + slack) * float(1 << (2 * lf)))
    d_hat = rng.uniform(params.u_min - params.r_max - 2.0, params.r_max + slack, 40)
    x_pub = np.concatenate([[0.0, 1.0, ceiling], np.round(np.exp(d_hat) * float(1 << (2 * lf)))])
    edges = np.array([0, 1, ring.modulus - 1], dtype=np.uint64)
    m = np.concatenate([edges, rng.integers(0, ring.modulus, 40, dtype=np.uint64)])
    xx, mm = np.meshgrid(x_pub, m)
    for party in (0, 1):
        got = _exp_correction(xx, mm, party, ring, 2 * lf)
        assert got.dtype == np.uint64
        assert np.array_equal(got, loop_correction(xx, mm, party, ring, 2 * lf))


def test_exp_correction_blocks_match_integer_loop():
    # Past _EXP_BLOCK elements the correction runs block by block; a
    # ragged last block and a 2-d shape must come back in place.
    ring = RingParams(64, 26)
    rng = np.random.default_rng(7)
    shape = (3, _EXP_BLOCK // 2 + 5)
    x_pub = np.round(np.exp(rng.uniform(-20.0, 1.0, shape)) * float(1 << 52))
    m = rng.integers(0, ring.modulus, shape, dtype=np.uint64)
    for party in (0, 1):
        got = _exp_correction(x_pub, m, party, ring, 52)
        assert got.shape == shape
        assert np.array_equal(got, loop_correction(x_pub, m, party, ring, 52))


def test_exp_correction_rejects_factor_past_the_shift():
    # r_max = 40 fails validate_exp_params; called directly, its clamp
    # ceiling e^40 * 2^52 needs more than the 52-bit shift can take.
    ring = RingParams(64, 26)
    x_pub = np.array([np.round(np.exp(40.0) * float(1 << 52))])
    with pytest.raises(RuntimeError, match="too large"):
        _exp_correction(x_pub, np.array([5], dtype=np.uint64), 0, ring, 52)


@pytest.mark.parametrize("ring", [RingParams(60, 20), RingParams(48, 12)], ids=["l60", "l48"])
def test_exp_accuracy_narrow_rings(ring):
    codec = FixedPointCodec(ring)
    u = np.random.default_rng(3).uniform(-4.0, 0.0, 2000)
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP), [u], codec=codec)
    assert np.max(np.abs(open_result(res) - np.exp(u))) <= 4 * codec.quantum


# ---------------------------------------------------- leakage telemetry

def outside_counts(res):
    return [res.stats[p].summary()["exp_openings_outside_window"] for p in (P0, P1)]


def test_exp_openings_in_window_not_counted():
    u = np.concatenate([np.random.default_rng(4).uniform(EP.u_min, 0.0, 500), [EP.u_min, 0.0]])
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP, policy="clamp"), [u])
    assert outside_counts(res) == [0, 0]


def test_exp_far_negative_openings_counted_under_clamp():
    n = 9
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP, policy="clamp"), [np.full(n, -40.0)])
    assert outside_counts(res) == [n, n]


def test_exp_outside_count_agrees_between_servers():
    u = np.array([-40.0, -2.0, 3.0, -0.5, -12.0, 0.0, 2.5])
    res = run_shared(lambda rt, x: pp_exp(rt, x, EP, policy="clamp"), [u], seed=5)
    assert outside_counts(res) == [4, 4]


@pytest.mark.parametrize("scale", [0.8, 3.0, 2.0 ** 20])
def test_exp_public_scale_costs_no_truncation(scale):
    # scale * e^u comes out of the one opening, within the unscaled error
    # times the scale plus a quantum, and makes no assistant round trip
    # beyond the mask's own request.
    u = np.random.default_rng(3).uniform(-4.0, 0.0, 500)

    def job(rt, x):
        out = pp_exp(rt, x, EP, scale=scale)
        return out, rt.assistant._tag

    res = run_shared(job, [u], seed=5)
    got = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    assert np.max(np.abs(got - scale * np.exp(u))) <= (4 * scale + 1) * QUANTUM
    assert res.outputs[P0][1] == res.outputs[P1][1] == 1


@pytest.mark.parametrize("scale", [0.0, -1.0, 2.0 ** 50, float("inf"), float("nan")])
def test_exp_scale_outside_its_domain_rejected(scale):
    with pytest.raises(RuntimeError) as info:
        run_shared(lambda rt, x: pp_exp(rt, x, EP, scale=scale), [np.zeros(3)])
    assert re.search(r"^pp_exp scale must lie in \(0, 2\^50\)", str(info.value.__cause__))


def test_signal_variance_past_the_exp_scale_rejected_by_name():
    with pytest.raises(ValueError, match=r"^signal_variance must be below 2\^50"):
        KernelConfig(signal_variance=2.0 ** 50)
    KernelConfig(signal_variance=2.0 ** 49)
