"""Kernels, the plaintext oracle, loss metrics, and the shared pipeline."""

import numpy as np
import pytest

from helpers import CODEC, open_item, open_result, run_shared
from ssgpr.gpr import (KernelConfig, Predictions, gpr_predict_plaintext,
                       kernel_matrix_plaintext, kernel_plaintext, loss_metrics,
                       pp_gpr_construct, pp_gpr_predict, pp_kernel)
from ssgpr.protocols import ExpParams, ss_dist
from ssgpr.transport import P0, P1

EP = ExpParams()


def test_kernel_at_zero_distance_is_signal_variance():
    x = np.array([1.0, -2.0])
    for kind in ("se", "matern32"):
        cfg = KernelConfig(kind=kind, signal_variance=1.7)
        assert kernel_plaintext(x, x, cfg) == pytest.approx(1.7)


def test_se_kernel_example():
    cfg = KernelConfig(kind="se", length_scale=1.0, signal_variance=1.0)
    # squared distance 2 -> e^{-1}
    assert kernel_plaintext([0.0, 0.0], [1.0, 1.0], cfg) == pytest.approx(
        0.3678794411714423)


def test_matern_kernel_example():
    cfg = KernelConfig(kind="matern32", length_scale=1.0, signal_variance=1.0)
    # squared distance 3 -> (1 + 3) e^{-3}
    got = kernel_plaintext([0.0], [np.sqrt(3.0)], cfg)
    assert got == pytest.approx(4.0 * np.exp(-3.0))
    assert got == pytest.approx(0.1991, abs=5e-5)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(kind="linear")
    with pytest.raises(ValueError):
        KernelConfig(noise_variance=0.0)


def test_predict_1x1_closed_form():
    cfg = KernelConfig(kind="se", signal_variance=1.0, noise_variance=0.1)
    y1 = 2.0
    got = gpr_predict_plaintext([[0.5]], [y1], [[0.5]], cfg)
    assert got.mean[0] == pytest.approx(y1 / 1.1)
    assert got.variance[0] == pytest.approx(1.0 - 1.0 / 1.1)


def test_predict_far_point_recovers_prior():
    cfg = KernelConfig(kind="se", signal_variance=0.8, noise_variance=0.1)
    got = gpr_predict_plaintext([[0.0]], [5.0], [[1e6]], cfg)
    assert abs(got.mean[0]) < 1e-12
    assert got.variance[0] == pytest.approx(0.8)


def test_predict_variance_bounded_by_prior():
    rng = np.random.default_rng(0)
    cfg = KernelConfig(kind="se", signal_variance=1.3)
    x = rng.uniform(-3, 3, (20, 2))
    y = rng.normal(size=20)
    xs = rng.uniform(-3, 3, (10, 2))
    got = gpr_predict_plaintext(x, y, xs, cfg)
    assert np.all(got.variance <= 1.3 + 1e-12)
    assert np.all(got.variance >= 0.0)


def test_loss_metrics_identical():
    p = Predictions(np.array([1.0, 2.0]), np.array([0.5, 0.7]))
    out = loss_metrics(p, Predictions(p.mean.copy(), p.variance.copy()))
    assert out["loss_mu"] == 0.0 and out["loss_var"] == 0.0


def test_loss_metrics_relative_example():
    mean = np.array([1.0, -2.0, 5.0])
    var = np.array([0.5, 0.25, 1.0])
    out = loss_metrics(Predictions(mean, var),
                       Predictions(mean * 1.001, var.copy()))
    assert out["loss_mu"] == pytest.approx(0.001)
    assert out["loss_var"] == 0.0


def test_loss_metrics_excludes_zero_oracle_entries():
    out = loss_metrics(Predictions(np.array([0.0, 2.0]), np.array([1.0, 1.0])),
                       Predictions(np.array([5.0, 2.0]), np.array([1.0, 1.0])))
    assert out["excluded_mu"] == 1 and out["loss_mu"] == 0.0


def test_pp_kernel_matches_plaintext_gram():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (5, 2))
    cfg = KernelConfig(kind="se")

    def job(rt, xs):
        return pp_kernel(rt, ss_dist(rt, xs, xs), cfg, EP, policy="clamp")

    got = open_result(run_shared(job, [x], seed=23))
    want = kernel_matrix_plaintext(x, x, cfg)
    assert np.max(np.abs(got - want)) <= 1e-4
    # The diagonal goes through exp(0), which carries a few quanta of
    # composed truncation error rather than being exact on the grid.
    assert np.max(np.abs(np.diag(got) - cfg.signal_variance)) <= 4 * CODEC.quantum


def test_pp_kernel_matern_matches_plaintext():
    # Well-spaced points keep 3*d inside the square root's public domain;
    # the self form leaves out the zero-distance diagonal, which the GPR
    # layer writes directly.
    x = np.array([[0.0, 0.0], [0.7, 0.0], [0.0, 1.1], [-0.9, -0.4]])
    cfg = KernelConfig(kind="matern32", length_scale=1.0, signal_variance=0.5)

    def job(rt, xs):
        return pp_kernel(rt, ss_dist(rt, xs), cfg, EP, policy="clamp")

    got = open_result(run_shared(job, [x], seed=29))
    want = kernel_matrix_plaintext(x, x, cfg)[np.triu_indices(4, 1)]
    assert np.max(np.abs(got - want)) <= 1e-4


def test_construct_matern_gram_diagonal_is_signal_variance():
    x = np.array([[0.0, 0.0], [0.8, 0.2], [-0.5, 0.9], [0.3, -1.0], [-1.1, -0.6]])
    y = np.array([0.4, -0.2, 0.1, 0.7, -0.5])
    cfg = KernelConfig(kind="matern32", signal_variance=0.5, noise_variance=0.1)

    def job(rt, xs, ys):
        return pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp").K

    K = open_result(run_shared(job, [x, y], seed=43))
    assert np.array_equal(np.diag(K), np.full(5, 0.5))
    off = ~np.eye(5, dtype=bool)
    assert np.max(np.abs(K - kernel_matrix_plaintext(x, x, cfg))[off]) <= 1e-4


@pytest.mark.parametrize("kind", ["se", "matern32"])
def test_construct_gram_is_exactly_symmetric(kind):
    # The kernel runs on the strict upper triangle only and is mirrored.
    n = 7
    x = np.random.default_rng(5).uniform(-0.8, 0.8, (n, 2))
    cfg = KernelConfig(kind=kind, signal_variance=0.5, noise_variance=0.1)

    def job(rt, xs, ys):
        return pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp").K

    res = run_shared(job, [x, np.zeros(n)], seed=47)
    for party in (P0, P1):
        share = res.outputs[party].values
        assert np.array_equal(share, share.T)
        assert res.stats[party].summary()["per_protocol"]["pp_exp"]["words_sent"] == \
            n * (n - 1) // 2
    K = open_result(res)
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(K - kernel_matrix_plaintext(x, x, cfg))) <= 1e-4


def test_construct_inverse_identity_product():
    rng = np.random.default_rng(4)
    x = rng.uniform(-10, 10, (8, 2))
    cfg = KernelConfig(kind="se", noise_variance=0.1)

    def job(rt, xs, ys):
        model = pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp")
        return model.K, model.Inv

    res = run_shared(job, [x, rng.normal(size=8)], seed=31)
    K = open_item(res, 0)
    inv = open_item(res, 1)
    a = kernel_matrix_plaintext(x, x, cfg) + cfg.noise_variance * np.eye(8)
    assert np.max(np.abs(K - kernel_matrix_plaintext(x, x, cfg))) <= 1e-4
    assert np.linalg.norm(a @ inv - np.eye(8), 2) ** 2 <= 1e-3


def test_predict_at_training_point_with_small_noise():
    # Well-separated points: the posterior mean collapses to y / (1 + noise).
    x = np.array([[0.0], [5.0], [10.0], [15.0]])
    y = np.array([0.2, -0.12, 0.16, -0.2])
    cfg = KernelConfig(kind="se", length_scale=1.0, signal_variance=1.0,
                       noise_variance=0.05)
    oracle = gpr_predict_plaintext(x, y, x, cfg)

    def job(rt, xs, ys):
        model = pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp")
        return pp_gpr_predict(rt, model, xs, EP, policy="clamp")

    res = run_shared(job, [x, y], seed=37)
    mean = open_item(res, 0)
    var = open_item(res, 1)
    assert np.max(np.abs(mean - y)) <= 1e-2
    assert np.max(np.abs(mean - oracle.mean)) <= 1e-4
    assert np.max(np.abs(var - oracle.variance)) <= 1e-3
    assert np.all(var <= cfg.signal_variance + 1e-9)


def test_y_shift_applied_to_predictions():
    x = np.array([[0.0], [4.0]])
    y = np.array([0.5, -0.5])
    cfg = KernelConfig(kind="se", noise_variance=0.1)
    shift = 10.0

    def job(rt, xs, ys):
        model = pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp", y_shift=shift)
        return pp_gpr_predict(rt, model, xs, EP, policy="clamp")

    res = run_shared(job, [x, y], seed=41)
    mean = open_item(res, 0)
    oracle = gpr_predict_plaintext(x, y, x, cfg)
    assert np.max(np.abs(mean - (oracle.mean + shift))) <= 1e-4
