"""Analytical claims: parameter validation, exact leakage, round counts."""

from fractions import Fraction

import pytest

from ssgpr.analysis import (construct_assistant_round_trips, construct_rounds, expected_rounds,
                            leakage_enumerate, matinv_assistant_round_trips,
                            predict_assistant_round_trips, predict_rounds, validate_exp_params)
from ssgpr.protocols import ExpParams
from ssgpr.ring import RingParams


def test_validate_reference_params_accepted():
    rep = validate_exp_params(ExpParams(u_min=-4.0, r_max=16.0), RingParams(64, 29))
    assert rep.accepted
    assert 28.8 < rep.required_lf < 28.9  # 20 * log2(e)


def test_validate_insufficient_precision_rejected():
    rep = validate_exp_params(ExpParams(u_min=-4.0, r_max=16.0), RingParams(64, 28))
    assert not rep.accepted
    assert rep.precision_slack_bits < 0


def test_validate_overflow_bound_rejected():
    rep = validate_exp_params(ExpParams(u_min=-4.0, r_max=16.0), RingParams(64, 32))
    assert not rep.accepted
    assert rep.overflow_slack_bits <= 0


def test_validate_default_session_params():
    rep = validate_exp_params(ExpParams(), RingParams(64, 26))
    assert rep.accepted


@pytest.mark.parametrize("params", [ExpParams(u_min=20.0, r_max=40.0),
                                    ExpParams(u_min=-1.0, r_max=0.0)])
def test_validate_empty_input_or_mask_range_rejected(params):
    # Both pass the slack bounds at (64, 29), but [u_min, 0] or
    # [-r_max, r_max) is empty; r_max = 40 would also push the public
    # factor past what the exact correction can rescale.
    rep = validate_exp_params(params, RingParams(64, 29))
    assert rep.precision_slack_bits >= 0 and rep.overflow_slack_bits > 0
    assert not rep.accepted


def test_leakage_worked_example():
    rep = leakage_enumerate(3, 5)
    assert rep.expected_leakage == Fraction(7, 15)
    assert rep.p_secure == Fraction(3, 5)
    assert rep.matches_closed_form


def test_leakage_single_known_input():
    rep = leakage_enumerate(1, 8)
    assert rep.expected_leakage == Fraction(1)
    assert rep.p_exact_exposure == Fraction(1)
    assert rep.matches_closed_form


def test_leakage_enumeration_matches_closed_forms():
    for m_u, m_r in [(2, 2), (2, 7), (5, 5), (4, 9)]:
        assert leakage_enumerate(m_u, m_r).matches_closed_form


def test_leakage_rejects_bad_grids():
    with pytest.raises(ValueError):
        leakage_enumerate(0, 5)
    with pytest.raises(ValueError):
        leakage_enumerate(6, 5)
    with pytest.raises(ValueError):
        leakage_enumerate(5, 10 ** 5)


def test_rounds_ppmi_example():
    assert expected_rounds("ppmi", 10) == 214


def test_rounds_cholesky_example():
    assert expected_rounds("cholesky", 2) == 19


def test_rounds_exp_is_one():
    assert expected_rounds("ppexp") == 1
    assert expected_rounds("PP-Exp") == 1


def test_rounds_benchmark_size():
    assert expected_rounds("matinv", 100) == 2194


def test_rounds_components_sum():
    n = 10
    total = (expected_rounds("cholesky", n) + expected_rounds("forward", n)
             + expected_rounds("backward", n))
    assert total == expected_rounds("matinv", n) == 22 * n - 6


def test_rounds_rejects_bad_args():
    with pytest.raises(ValueError):
        expected_rounds("cholesky", 1)
    with pytest.raises(ValueError):
        expected_rounds("nonsense", 4)


def test_assistant_round_trips_matinv():
    for n in (2, 3, 10, 200):
        assert matinv_assistant_round_trips(n) == 23 * n - 4
    assert matinv_assistant_round_trips(200) == 4596
    # Ten reciprocal iterations: R_div = 21, four more truncations a division.
    assert matinv_assistant_round_trips(3, r_div=21) == 77
    assert matinv_assistant_round_trips(10, r_div=21) == 266
    with pytest.raises(ValueError):
        matinv_assistant_round_trips(1)


def test_construct_rounds_closed_form():
    # 22n - 6 for the inversion; SE adds ss_dist, pp_exp, alpha and the
    # one opening of both model masks; Matern adds the square root's
    # 2k + 1 rounds and its product.
    for n in (2, 10, 100, 200):
        assert construct_rounds("se", n) == 22 * n - 6 + 4
        assert construct_rounds("matern32", n, sqrt_iterations=7) == 22 * n - 6 + 2 * 7 + 6
    assert construct_rounds("se", 200) + 10 * predict_rounds("se") == 4438
    assert construct_rounds("se", 100) + 12 * predict_rounds("se") == 2246
    assert construct_rounds("matern32", 100) + 10 * predict_rounds("matern32") == 2810
    assert construct_rounds("se", 8, r_div=21) == 21 + 6 * 25 + 2 + 7 + 22 + 4
    assert construct_assistant_round_trips("se", 200) == 23 * 200 + 1
    assert construct_assistant_round_trips("matern32", 100) == 23 * 100 + 2 * 25 + 4
    with pytest.raises(ValueError):
        construct_rounds("linear", 10)


def test_predict_batch_closed_form():
    assert predict_rounds("se") == predict_rounds("se", sqrt_iterations=3) == 4
    assert predict_rounds("matern32") == 56
    assert predict_rounds("matern32", sqrt_iterations=3) == 12
    assert predict_assistant_round_trips("se") == 7
    assert predict_assistant_round_trips("matern32") == 60
    with pytest.raises(ValueError):
        predict_assistant_round_trips("linear")
