"""Masked exponentiation: accuracy, cost, and opening policies."""

import numpy as np
import pytest

from helpers import QUANTUM, open_result, run_shared
from ssgpr.protocols import ExpParams, pp_exp
from ssgpr.transport import P0

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
