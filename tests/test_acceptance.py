"""End-to-end acceptance checks, one test per criterion.

Each test is a single criterion with its stated tolerance; the terminal
summary (tests/conftest.py) prints one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import scipy.stats

from helpers import CODEC, QUANTUM, open_result, run_shared
from ssgpr.analysis import leakage_enumerate, matinv_online_words
from ssgpr.cli import DEFAULTS, run_gpr
from ssgpr.data import Dataset, ScenarioSplit, split_scenario, standardize
from ssgpr.gpr import (KernelConfig, kernel_matrix_plaintext, pp_gpr_construct,
                       pp_gpr_predict)
from ssgpr.protocols import ExpParams, pp_exp, pp_matinv, ss_mul
from ssgpr.ring import RingParams, ring_mul, from_signed
from ssgpr.sharing import rec, reconstruct, share_reals, shr, random_ring_elements
from ssgpr.session import DivisionConfig, run_session
from ssgpr.transport import P0, P1

PAPER = DivisionConfig(matinv="paper")


def se_gram(n, run, noise=0.1):
    rng = np.random.default_rng((n << 20) + run)
    x = rng.uniform(-10.0, 10.0, (n, 2))
    cfg = KernelConfig(kind="se", length_scale=1.0, signal_variance=1.0,
                       noise_variance=noise)
    return kernel_matrix_plaintext(x, x, cfg) + noise * np.eye(n), cfg


def matinv_session(mat, cfg, seed, matinv="ldl"):
    s = share_reals(mat, CODEC, np.random.default_rng(seed))
    return run_session(lambda rt: pp_matinv(rt, s[rt.party],
                                            pivot_domain=cfg.pivot_domain),
                       CODEC, seed=seed, div=DivisionConfig(matinv=matinv))


def test_criterion_1_exp_correctness():
    """Theorem-1 exponentiation correctness: exhaustive on a small ring,
    statistical at the working width."""
    # Small ring, l=24 / l_f=8, u_min=-4, r_max at the Theorem-1 bound.
    l, lf, u_min = 24, 8, -4.0
    params = RingParams(l, lf)
    r_max = lf * math.log(2.0) + u_min
    assert (r_max - u_min) * math.log2(math.e) <= lf
    rmax_enc = math.floor(r_max * (1 << lf))

    k_u = np.arange(int(u_min * (1 << lf)), 1)          # every grid input
    k_r = np.arange(-rmax_enc, rmax_enc)                # every grid mask
    d_hat = (k_u[:, None] + k_r[None, :]).astype(np.float64) / (1 << lf)
    e_d = np.round(np.exp(d_hat) * (1 << lf))
    m = np.round(np.exp(-k_r.astype(np.float64) / (1 << lf)) * (1 << lf))

    # The ring product never wraps, so reconstruction is exact.
    exact = e_d * m[None, :]
    assert exact.max() < params.modulus
    ring_prod = ring_mul(from_signed(e_d, params),
                         from_signed(np.broadcast_to(m, e_d.shape), params), params)
    assert np.array_equal(ring_prod.astype(np.float64), exact)

    # Error is bounded by the composition of the two grid roundings.
    got = exact / float(1 << (2 * lf))
    want = np.exp(k_u.astype(np.float64) / (1 << lf))[:, None]
    bound = (0.5 * (np.exp(d_hat) + np.exp(-k_r / (1 << lf))[None, :]) / (1 << lf)
             + 0.25 / (1 << (2 * lf)))
    assert np.all(np.abs(got - want) <= bound)

    # Additive sharing of the masked factors is linear, hence exact.
    rng = np.random.default_rng(0)
    m0, m1 = shr(from_signed(m, params), rng, params)
    assert np.array_equal(rec(m0, m1, params), from_signed(m, params))

    # Working width, l=64: 10^5 random inputs within 4 * 2^-26.
    rng = np.random.default_rng(1)
    u = rng.uniform(-4.0, 0.0, 100_000)
    res = run_shared(lambda rt, x: pp_exp(rt, x, ExpParams()), [u], seed=101)
    assert np.max(np.abs(open_result(res) - np.exp(u))) <= 4 * 2.0 ** -26


def test_criterion_2_exp_communication():
    """PP-Exp costs one round and exactly 2*n*l bits online."""
    for n in (1_000, 10_000):
        u = np.random.default_rng(n).uniform(-4.0, 0.0, n)
        res = run_shared(lambda rt, x: pp_exp(rt, x, ExpParams()), [u], seed=n)
        for party in (P0, P1):
            s = res.stats[party].summary()["per_protocol"]["pp_exp"]
            assert s["rounds"] == 1
        total_bits = 8 * 8 * sum(
            res.stats[p].summary()["per_protocol"]["pp_exp"]["words_sent"]
            for p in (P0, P1))
        assert total_bits == 2 * n * CODEC.params.l


def test_criterion_3_matinv_accuracy():
    """Matrix inversion of SE gram matrices: mean Loss_MI <= 1e-3 over
    10 runs for n in {50, 100, 200}."""
    for n in (50, 100, 200):
        losses = []
        for run in range(10):
            mat, cfg = se_gram(n, run)
            res = matinv_session(mat, cfg, seed=n * 100 + run)
            lam = open_result(res)
            losses.append(np.linalg.norm(mat @ lam - np.eye(n), 2) ** 2)
        assert np.mean(losses) <= 1e-3, f"n={n}: mean Loss_MI {np.mean(losses)}"


def test_criterion_4_matinv_communication():
    """Matrix inversion rounds follow 22n - 6 exactly on the paper's path
    and 10n on the default one. Online words equal
    analysis.matinv_online_words on both paths; on the paper's path, which
    opens every product's operands afresh, they scale as n^3 within 0.2 of
    the exponent, and on the default one, which opens each L, C and V word
    once, as n^2."""
    volumes = {}
    for n in (8, 16, 32, 64, 128, 192, 256):
        mat, cfg = se_gram(n, 0)
        s = matinv_session(mat, cfg, seed=n).stats[P0].summary()["per_protocol"]["pp_matinv"]
        paper = matinv_session(mat, cfg, seed=n, matinv="paper")
        p = paper.stats[P0].summary()["per_protocol"]["pp_matinv"]
        if n <= 64:
            assert s["rounds"] == 10 * n, f"n={n}: rounds {s['rounds']}"
            assert p["rounds"] == 22 * n - 6, f"n={n}: paper rounds {p['rounds']}"
        assert s["words_sent"] == matinv_online_words(n), f"n={n}: words {s['words_sent']}"
        assert p["words_sent"] == matinv_online_words(n, PAPER), \
            f"n={n}: paper words {p['words_sent']}"
        volumes[n] = p["words_sent"]
    # The cubic matrix-product traffic dominates once n is past the
    # R_div * n^2 division overhead, so the exponent is fit there.
    sizes = np.array([64, 128, 192, 256], dtype=np.float64)
    words = np.array([volumes[int(v)] for v in sizes], dtype=np.float64)
    slope = np.polyfit(np.log(sizes), np.log(words), 1)[0]
    assert 2.8 <= slope <= 3.2, f"paper volume exponent {slope}"


def _diabetes_like(seed, n=80, n_test=20, d=10):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.25, 0.25, (n, d))
    y = 10.0 + np.sin(x.sum(axis=1))
    x_star = x[:n_test] + rng.uniform(-0.08, 0.08, (n_test, d))
    return Dataset(x, y), x_star


def _gpr_config(**overrides):
    cfg = dict(DEFAULTS)
    cfg.update(overrides)
    return cfg


def test_criterion_5_gpr_se_accuracy():
    """SE-kernel GPR at n=80 / 20 test points over 5 seeds:
    Loss_mu <= 0.01%, Loss_var <= 0.1%, within the time budget."""
    ds, x_star = _diabetes_like(5)
    cfg = _gpr_config(kernel="se", length_scale=0.23, signal_variance=0.8,
                      noise_variance=0.1, seeds=[0, 1, 2, 3, 4])
    t0 = time.monotonic()
    report = run_gpr(ds, x_star, cfg)
    elapsed = time.monotonic() - t0
    assert report["loss_mu_mean"] <= 1e-4, report["loss_mu_mean"]
    assert report["loss_var_mean"] <= 1e-3, report["loss_var_mean"]
    assert elapsed / len(cfg["seeds"]) < 120.0


def test_criterion_6_gpr_matern_accuracy():
    """Matern-3/2 GPR on the same data: Loss_mu <= 1%, Loss_var <= 0.1%."""
    ds, x_star = _diabetes_like(6)
    # sqrt_hi bounds 3 * max squared distance of the standardized inputs.
    cfg = _gpr_config(kernel="matern32", length_scale=1.0, signal_variance=0.1,
                      noise_variance=0.1, seeds=[0, 1, 2, 3, 4], sqrt_hi=400.0)
    report = run_gpr(ds, x_star, cfg)
    assert report["loss_mu_mean"] <= 1e-2, report["loss_mu_mean"]
    assert report["loss_var_mean"] <= 1e-3, report["loss_var_mean"]


def test_criterion_7_leakage_closed_forms():
    """Exact leakage enumeration matches the closed forms for every
    1 <= m_u <= m_r <= 64."""
    from fractions import Fraction
    for m_r in range(1, 65):
        for m_u in range(1, m_r + 1):
            rep = leakage_enumerate(m_u, m_r)
            assert rep.matches_closed_form, (m_u, m_r)
    example = leakage_enumerate(3, 5)
    assert example.expected_leakage == Fraction(7, 15)
    assert example.p_secure == Fraction(3, 5)


def test_criterion_8_scenarios_bitwise_identical():
    """HDS, VDS, and PDS runs of the same 20-point dataset produce
    bitwise-identical reconstructed predictions."""
    rng = np.random.default_rng(42)
    raw = Dataset(rng.uniform(-2.0, 2.0, (20, 2)), rng.normal(size=20) + 5.0)
    ds, prep = standardize(raw)
    x_star = prep.apply_x(raw.X[:5] + 0.1)
    cfg = KernelConfig(kind="se", noise_variance=0.1)
    splits = {
        "hds": ScenarioSplit("hds", row_ranges=[(0, 10), (10, 20)]),
        "vds": ScenarioSplit("vds", col_ranges=[(0, 1), (1, 2)]),
        "pds": ScenarioSplit("pds"),
    }
    outputs = {}
    for name, split in splits.items():
        bundles = split_scenario(ds, x_star, split, CODEC, seed=7)

        def job(rt, bundles=bundles):
            b = bundles[rt.party]
            model = pp_gpr_construct(rt, b["X"], b["y"], cfg, ExpParams(),
                                     policy="clamp", y_shift=prep.y_shift)
            return pp_gpr_predict(rt, model, b["x_star"], ExpParams(),
                                  policy="clamp")

        res = run_session(job, CODEC, seed=11)
        mean = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
        var = reconstruct(res.outputs[P0][1], res.outputs[P1][1])
        outputs[name] = (mean, var)
    for name in ("vds", "pds"):
        assert np.array_equal(outputs["hds"][0], outputs[name][0]), name
        assert np.array_equal(outputs["hds"][1], outputs[name][1]), name


def test_criterion_9_primitive_properties():
    """Sharing primitives: exact reconstruction, multiplication within
    two quanta, and uniform share randomness."""
    # Shr/Rec roundtrip, 10^5 random values, bitwise.
    rng = np.random.default_rng(9)
    enc = CODEC.encode(rng.uniform(-1000.0, 1000.0, 100_000))
    s0, s1 = shr(enc, rng, CODEC.params)
    assert np.array_equal(rec(s0, s1, CODEC.params), enc)

    # Beaver multiplication within 2^{-lf+1} on 10^4 pairs.
    u = CODEC.decode(CODEC.encode(rng.uniform(-8.0, 8.0, 10_000)))
    v = CODEC.decode(CODEC.encode(rng.uniform(-8.0, 8.0, 10_000)))
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b), [u, v], seed=99)
    assert np.max(np.abs(open_result(res) - u * v)) <= 2.0 ** (-CODEC.lf + 1)

    # Share randomness is uniform: chi-squared over the full l=8 ring.
    draws = random_ring_elements(np.random.default_rng(10), 100_000, RingParams(8, 3))
    counts = np.bincount(draws.astype(np.int64), minlength=256)
    assert scipy.stats.chisquare(counts).pvalue > 1e-3
