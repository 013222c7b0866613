"""Kernels, the plaintext oracle, loss metrics, and the shared pipeline."""

import numpy as np
import pytest

from helpers import CODEC, cross_dist, open_item, open_result, run_shared
from ssgpr.analysis import (construct_assistant_round_trips, construct_rounds,
                            predict_assistant_round_trips, predict_rounds)
from ssgpr.gpr import (KernelConfig, Predictions, gpr_predict_plaintext,
                       kernel_matrix_plaintext, kernel_plaintext, loss_metrics,
                       pp_gpr_construct, pp_gpr_predict, pp_kernel)
from ssgpr.offline import OP_KEPT_TRIPLE, OP_LDL_COLUMN, OP_MODEL_MASK, OP_TRUNC, _parse_plan
from ssgpr.protocols import ExpParams, sqrt_steps, ss_dist
from ssgpr.session import DivisionConfig
from ssgpr.sharing import reconstruct
from ssgpr.transport import P0, P1

EP = ExpParams()
# The square root's domain in the counting sessions, 14 Newton steps.
COUNTED = DivisionConfig(sqrt_hi=40.0)


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
        return pp_kernel(rt, cross_dist(rt, xs, xs), cfg, EP, policy="clamp")

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
        return pp_kernel(rt, ss_dist(rt, xs)[0], cfg, EP, policy="clamp")

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


# ------------------------------------------------ the model mask and batches

def _session_counts(kind, batches, n=9, d=3, m=4, seed=51):
    """Peer rounds, assistant round trips and online words per server:
    construction alone, then after each of ``batches`` prediction batches."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = rng.normal(size=n)
    queries = rng.uniform(-1, 1, (batches, m, d))
    cfg = KernelConfig(kind=kind, signal_variance=0.8, noise_variance=0.1)

    def counts(rt):
        return rt.stats.rounds, rt.assistant._tag, rt.stats.online_words_sent

    def job(rt, xs, ys, *qs):
        model = pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp")
        seen = [counts(rt)]
        outs = []
        for q in qs:
            outs.append(pp_gpr_predict(rt, model, q, EP, policy="clamp"))
            seen.append(counts(rt))
        return seen, outs

    res = run_shared(job, [x, y, *queries], seed=seed, div=COUNTED)
    assert res.outputs[P0][0] == res.outputs[P1][0]
    for b, q in enumerate(queries):
        oracle = gpr_predict_plaintext(x, y, q, cfg)
        mean = reconstruct(res.outputs[P0][1][b][0], res.outputs[P1][1][b][0])
        var = reconstruct(res.outputs[P0][1][b][1], res.outputs[P1][1][b][1])
        assert np.max(np.abs(mean - oracle.mean)) <= 1e-4
        assert np.max(np.abs(var - oracle.variance)) <= 1e-4
    return res.outputs[P0][0]


@pytest.mark.parametrize("kind", ["se", "matern32"])
@pytest.mark.parametrize("batches", [1, 2, 3])
def test_batches_open_the_model_mask_once(kind, batches):
    # Construction opens R = [Inv | alpha] and X^T against their model
    # masks once; every batch after it has the same exact cost, which
    # opens only its own operands: x* - A (m x d) once for both of
    # ss_dist's products, the exponent's m x n, k* - A for k* @ R, and
    # the variance product's two m x n arrays; Matern adds the square
    # root's (6k + 2) m n words and the product's 2 m n.
    n, d, m, k = 9, 3, 4, sqrt_steps(COUNTED.sqrt_hi, CODEC.params)
    seen = _session_counts(kind, batches, n, d, m)
    rounds, trips, words = seen[0]
    assert rounds == construct_rounds(kind, n, COUNTED)
    assert trips == construct_assistant_round_trips(kind, n, COUNTED)
    batch_words = m * d + 4 * m * n + ((6 * k + 4) * m * n if kind == "matern32" else 0)
    for b in range(1, batches + 1):
        assert seen[b] == (rounds + b * predict_rounds(kind, COUNTED),
                           trips + b * predict_assistant_round_trips(kind, COUNTED),
                           words + b * batch_words)


def test_construction_opens_each_model_operand_once():
    # Beyond ss_dist, the kernel and the inversion, construction sends
    # alpha's product (n^2 + n words) and the one opening of R and X^T
    # (n(n + 1) + d n words), in two peer rounds.
    n, d = 9, 3
    x = np.random.default_rng(53).uniform(-1, 1, (n, d))
    cfg = KernelConfig(kind="se", noise_variance=0.1)

    def job(rt, xs, ys):
        model = pp_gpr_construct(rt, xs, ys, cfg, EP, policy="clamp")
        return model, rt.stats.summary()["per_protocol"]

    res = run_shared(job, [x, np.ones(n)], seed=53)
    per = res.outputs[P0][1]
    assert per["open_model_masks"] == {"rounds": 1, "words_sent": n * (n + 1) + d * n}
    model0, model1 = res.outputs[P0][0], res.outputs[P1][0]
    assert model0.R.key == model1.R.key and model0.Xt.key == model1.Xt.key
    assert model0.R.key != model0.Xt.key
    assert np.array_equal(model0.R.opened, model1.R.opened)
    inv = reconstruct(model0.Inv, model1.Inv)
    alpha = reconstruct(model0.alpha, model1.alpha)
    assert np.max(np.abs(alpha - inv @ np.ones(n))) <= 1e-4


def test_two_models_in_one_session_keep_separate_masks():
    rng = np.random.default_rng(55)
    x1, x2 = rng.uniform(-1, 1, (7, 2)), rng.uniform(-1, 1, (11, 2))
    y1, y2 = rng.normal(size=7), rng.normal(size=11)
    q = rng.uniform(-1, 1, (3, 2))
    cfg = KernelConfig(kind="se", signal_variance=0.8, noise_variance=0.1)

    def job(rt, a1, b1, a2, b2, qs):
        m1 = pp_gpr_construct(rt, a1, b1, cfg, EP)
        m2 = pp_gpr_construct(rt, a2, b2, cfg, EP)
        # Interleaved batches: each product must take its own model's mask.
        out = [pp_gpr_predict(rt, m, qs, EP) for m in (m1, m2, m1, m2)]
        return out, {m1.R.key, m1.Xt.key, m2.R.key, m2.Xt.key}

    res = run_shared(job, [x1, y1, x2, y2, q], seed=55)
    assert len(res.outputs[P0][1]) == 4
    for i, (x, y) in enumerate([(x1, y1), (x2, y2)] * 2):
        oracle = gpr_predict_plaintext(x, y, q, cfg)
        mean = reconstruct(res.outputs[P0][0][i][0], res.outputs[P1][0][i][0])
        var = reconstruct(res.outputs[P0][0][i][1], res.outputs[P1][0][i][1])
        assert np.max(np.abs(mean - oracle.mean)) <= 1e-4
        assert np.max(np.abs(var - oracle.variance)) <= 1e-4


def test_model_items_hold_only_opcodes_shapes_and_keys():
    # Every plan word of a model mask, kept triple or LDL column that either
    # server sends, over construction and two batches, is an opcode, a
    # shape, a key, a column index or a flag; the assistant sees no opened
    # word.
    n, d, m = 6, 2, 3
    rng = np.random.default_rng(57)
    x, y, q = rng.uniform(-1, 1, (n, d)), rng.normal(size=n), rng.uniform(-1, 1, (m, d))
    cfg = KernelConfig(kind="se")

    def job(rt, xs, ys, qs):
        items = []
        request = rt.assistant._request

        def recording_request(words):
            words = np.asarray(words, dtype=np.uint64)
            plan = words[3 + int(words[2]):] if words[0] == OP_TRUNC else words
            if plan.size:
                items.extend(_parse_plan(plan))
            return request(words)

        rt.assistant._request = recording_request
        model = pp_gpr_construct(rt, xs, ys, cfg, EP)
        for _ in range(2):
            pp_gpr_predict(rt, model, qs, EP)
        return items, (model.R.key, model.Xt.key)

    res = run_shared(job, [x, y, q], seed=57)
    items, (r_key, x_key) = res.outputs[P0]
    assert res.outputs[P1][0] == items
    model_items = [item for item in items
                   if item[0] in (OP_MODEL_MASK, OP_KEPT_TRIPLE, OP_LDL_COLUMN)]
    # The inversion's three lower masks of L, C and V come first, with its
    # columns' products of them and the final product's kept triple on V.
    lcv = (r_key - 3, r_key - 2, r_key - 1)
    assert model_items == [*[(OP_MODEL_MASK, (key, n, n, 1)) for key in lcv],
                           *[(OP_LDL_COLUMN, (*lcv, n, k)) for k in range(1, n)],
                           (OP_KEPT_TRIPLE, (lcv[2], n, n, n, 0)),
                           (OP_MODEL_MASK, (r_key, n, n + 1, 0)), (OP_MODEL_MASK, (x_key, d, n, 0)),
                           *[(OP_KEPT_TRIPLE, (x_key, m, d, n, 1)),
                             (OP_KEPT_TRIPLE, (r_key, m, n, n + 1, 0))] * 2]
