"""Analytical claims: parameter validation, exact leakage, round counts."""

from fractions import Fraction

import pytest

from ssgpr.analysis import (construct_assistant_round_trips, construct_rounds, expected_rounds,
                            leakage_enumerate, matinv_assistant_round_trips,
                            predict_assistant_round_trips, predict_rounds, reciprocal_steps,
                            validate_exp_params)
from ssgpr.gpr import KernelConfig
from ssgpr.protocols import ExpParams, division_steps, sqrt_domain, sqrt_steps
from ssgpr.ring import RingParams
from ssgpr.session import DivisionConfig

PAPER = DivisionConfig(matinv="paper")
# matern-n100-sockets' square-root domain (sqrt_hi = 3 * 4 * 6^2).
MATERN_BENCH = DivisionConfig(sqrt_hi=432.0)


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
    assert expected_rounds("ppmi", 10, PAPER) == 214
    assert expected_rounds("ppmi", 10) == 100


def test_rounds_cholesky_example():
    assert expected_rounds("cholesky", 2, PAPER) == 19
    assert expected_rounds("cholesky", 2) == 19


def test_rounds_exp_is_one():
    assert expected_rounds("ppexp") == 1
    assert expected_rounds("PP-Exp") == 1


def test_rounds_benchmark_size():
    assert expected_rounds("matinv", 100, PAPER) == 2194
    assert expected_rounds("matinv", 100) == 1000
    assert expected_rounds("matinv", 200) == 2000


def test_rounds_components_sum():
    # The paper's inversion is its three phases; the default one is the
    # one-pass Cholesky, which does forward's and backward's work, and the
    # final product.
    n = 10
    total = sum(expected_rounds(step, n, PAPER) for step in ("cholesky", "forward", "backward"))
    assert total == expected_rounds("matinv", n, PAPER) == 22 * n - 6
    assert expected_rounds("cholesky", n) + 1 == expected_rounds("matinv", n) == 10 * n


def test_rounds_rejects_bad_args():
    with pytest.raises(ValueError):
        expected_rounds("cholesky", 1)
    with pytest.raises(ValueError):
        expected_rounds("nonsense", 4)


def test_assistant_round_trips_matinv():
    for n in (2, 3, 10, 200):
        assert matinv_assistant_round_trips(n, PAPER) == 23 * n - 4
    assert matinv_assistant_round_trips(200, PAPER) == 4596
    # Ten reciprocal iterations: R_div = 21, four more truncations a division.
    assert matinv_assistant_round_trips(3, PAPER, steps=10) == 77
    assert matinv_assistant_round_trips(10, PAPER, steps=10) == 266
    with pytest.raises(ValueError):
        matinv_assistant_round_trips(1)


def test_assistant_round_trips_matinv_ldl():
    for n in (2, 3, 10, 200):
        assert matinv_assistant_round_trips(n) == 11 * n + 1
    assert matinv_assistant_round_trips(200) == 2201
    # Ten reciprocal steps: R_div = 13, three more truncations a column.
    assert matinv_assistant_round_trips(3, steps=10) == 43
    assert matinv_assistant_round_trips(10, steps=10) == 141


def test_construct_rounds_closed_form():
    # 22n - 6 for the paper's inversion; SE adds ss_dist, pp_exp, alpha and
    # the one opening of both model masks; Matern adds the square root's
    # 2k + 1 rounds and its product.
    for n in (2, 10, 100, 200):
        assert construct_rounds("se", n, PAPER) == 22 * n - 6 + 4
        assert construct_rounds("matern32", n, PAPER, root_steps=7) == 22 * n - 6 + 2 * 7 + 6
    assert construct_rounds("se", 200, PAPER) + 10 * predict_rounds("se") == 4438
    assert construct_rounds("se", 100, PAPER) + 12 * predict_rounds("se") == 2246
    assert (construct_rounds("matern32", 100, PAPER, root_steps=25)
            + 10 * predict_rounds("matern32", root_steps=25) == 2810)
    assert construct_rounds("se", 8, PAPER, steps=10) == 21 + 6 * 25 + 2 + 7 + 22 + 4
    assert construct_assistant_round_trips("se", 200, PAPER) == 23 * 200 + 1
    # At sqrt_hi = 16 the square root takes 13 steps.
    assert construct_assistant_round_trips("matern32", 100, PAPER) == 23 * 100 + 2 * 13 + 4
    with pytest.raises(ValueError):
        construct_rounds("linear", 10)


def test_construct_rounds_closed_form_ldl():
    # 10n for the default inversion and the same additions as above.
    for n in (2, 10, 100, 200):
        assert construct_rounds("se", n) == 10 * n + 4
        assert construct_rounds("matern32", n, root_steps=7) == 10 * n + 2 * 7 + 6
    # The bench's three workloads: construction plus their prediction batches.
    assert construct_rounds("se", 200) + 10 * predict_rounds("se") == 2044
    assert construct_rounds("se", 100) + 12 * predict_rounds("se") == 1052
    assert (construct_rounds("matern32", 100, MATERN_BENCH)
            + 10 * predict_rounds("matern32", MATERN_BENCH) == 1440)
    assert construct_rounds("se", 8, steps=10) == 13 * 8 + 4
    assert construct_assistant_round_trips("se", 200) + 10 * 7 == 2276
    assert construct_assistant_round_trips("se", 100) + 12 * 7 == 1190
    assert (construct_assistant_round_trips("matern32", 100, MATERN_BENCH)
            + 10 * predict_assistant_round_trips("matern32", MATERN_BENCH) == 1583)
    assert construct_assistant_round_trips("matern32", 100) == 11 * 100 + 2 * 13 + 9


def test_closed_forms_default_to_the_default_kernels_step_bound():
    # Left out, the step count is the bound of KernelConfig()'s pivot
    # domain at l_f = 26 on "ldl", and at least the paper's 8 on "paper".
    bound = reciprocal_steps(KernelConfig().pivot_domain, RingParams().lf)
    assert bound == 7
    for div, steps in ((DivisionConfig(), bound), (PAPER, 8)):
        assert expected_rounds("matinv", 10, div) == expected_rounds("matinv", 10, div, steps)
        assert (matinv_assistant_round_trips(10, div)
                == matinv_assistant_round_trips(10, div, steps))
        for kind in ("se", "matern32"):
            assert construct_rounds(kind, 10, div) == construct_rounds(kind, 10, div, steps)
            assert (construct_assistant_round_trips(kind, 10, div)
                    == construct_assistant_round_trips(kind, 10, div, steps))


@pytest.mark.parametrize("noise, want", [(0.1, 7), (0.05, 8), (0.01, 10), (1e-3, 14)])
def test_reciprocal_steps_on_the_pivot_domain(noise, want):
    # The least k with e0^(2^k) < 2^-26 for the SE pivot domain at s^2 = 1.
    domain = KernelConfig(noise_variance=noise).pivot_domain
    assert reciprocal_steps(domain, 26) == want
    lo, hi = domain
    e0 = (hi - lo) ** 2 / ((hi + lo) ** 2 + 4 * lo * hi)  # the minimax guess's error
    assert e0 ** (2 ** want) < 2.0 ** -26 <= e0 ** (2 ** (want - 1))
    assert division_steps(domain, 26, "ldl") == want
    assert division_steps(domain, 26, "paper") == max(8, want)


def test_reciprocal_steps_floor_at_one():
    # On (1, 1.0001) the first guess alone is within 2^-26, but the "ldl"
    # path's Newton close needs a step.
    lo, hi = 1.0, 1.0001
    assert (hi - lo) ** 2 / ((hi + lo) ** 2 + 4 * lo * hi) < 2.0 ** -26
    assert reciprocal_steps((lo, hi), 26) == division_steps((lo, hi), 26, "ldl") == 1


def test_reciprocal_steps_rejects_an_empty_domain():
    with pytest.raises(ValueError, match="0 < lo < hi"):
        reciprocal_steps((0.0, 2.0), 26)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        reciprocal_steps((2.0, 1.0), 26)


def test_predict_batch_closed_form():
    assert predict_rounds("se") == predict_rounds("se", root_steps=3) == 4
    assert predict_rounds("matern32") == 2 * 13 + 6
    assert predict_rounds("matern32", root_steps=3) == 12
    assert predict_assistant_round_trips("se") == 7
    assert predict_assistant_round_trips("matern32") == 2 * 13 + 10
    with pytest.raises(ValueError):
        predict_assistant_round_trips("linear")


@pytest.mark.parametrize("sqrt_hi, want", [(16.0, 13), (40.0, 14), (400.0, 17), (432.0, 17),
                                           (1200.0, 19)])
def test_closed_forms_default_to_the_square_roots_step_count(sqrt_hi, want):
    # Left out, the Matern counts take sqrt_steps of div.sqrt_hi on the
    # default ring; SE takes no square root.
    div = DivisionConfig(sqrt_hi=sqrt_hi)
    assert sqrt_steps(sqrt_hi, RingParams()) == want
    for kind in ("se", "matern32"):
        assert construct_rounds(kind, 10, div) == construct_rounds(kind, 10, div, root_steps=want)
        assert predict_rounds(kind, div) == predict_rounds(kind, root_steps=want)
        assert (construct_assistant_round_trips(kind, 10, div)
                == construct_assistant_round_trips(kind, 10, div, root_steps=want))
        assert (predict_assistant_round_trips(kind, div)
                == predict_assistant_round_trips(kind, root_steps=want))
    assert predict_rounds("matern32", div) == 2 * want + 6


def test_sqrt_steps_are_the_float_models_least_count():
    # The Newton map from the tangent at sqrt_hi / 2 reaches 2^-26 at the
    # floor 2^-9 in k steps and not in k - 1; the top end converges first.
    def error(x, k, hi=16.0):
        z = 1.5 / (hi / 2) ** 0.5 - 0.5 / (hi / 2) ** 1.5 * x
        for _ in range(k):
            z = z * (3 - x * z * z) / 2
        return abs(x * z - x ** 0.5) / max(1.0, x ** 0.5)

    k = sqrt_steps(16.0, RingParams())
    assert error(2.0 ** -9, k) < 2.0 ** -26 <= error(2.0 ** -9, k - 1)
    assert error(16.0, k - 1) < 2.0 ** -26
    # At l_f = 20 the floor falls to 2^-(61 - 40), so the guess starts
    # further off there: 22 steps for a target of 2^-20.
    assert sqrt_domain(16.0, RingParams(64, 20))[0] == 2.0 ** -21
    assert sqrt_steps(16.0, RingParams(64, 20)) == 22


@pytest.mark.parametrize("sqrt_hi", [2.0 ** -9, 1e-3, 2.0 ** 37])
def test_sqrt_steps_reject_a_domain_outside_the_ring(sqrt_hi):
    with pytest.raises(ValueError, match="sqrt_hi must lie between the square root's floor"):
        sqrt_steps(sqrt_hi, RingParams())
