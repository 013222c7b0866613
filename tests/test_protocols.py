"""Interactive protocols: products, distances, division and square root,
and the matrix-inversion pipeline with its round counts."""

import re

import numpy as np
import pytest

from helpers import CODEC, QUANTUM, cross_dist, open_result, run_shared
from ssgpr import protocols
from ssgpr.analysis import (expected_rounds, matinv_assistant_round_trips, matinv_online_words,
                            reciprocal_steps, sqrt_assistant_round_trips, sqrt_rounds)
from ssgpr.gpr import KernelConfig, kernel_matrix_plaintext
from ssgpr.offline import OP_KEPT_TRIPLE, OP_MATRIX_TRIPLE, OP_TRUNC, gen_material
from ssgpr.protocols import (ProtocolError, mirror_upper, pp_backward, pp_cholesky_ldl,
                             pp_forward, pp_matinv, ss_div, ss_dist, ss_matmul, ss_mul,
                             ss_reciprocal, ss_sqrt, sqrt_domain, sqrt_steps, _consume,
                             _div_plan, _ldl_column_plan)
from ssgpr.ring import FixedPointCodec, RingParams, from_signed
from ssgpr.session import TRUNC_OFFSET_BLOCK, DivisionConfig, PartyRuntime
from ssgpr.sharing import SharedArray, reconstruct, shr
from ssgpr.transport import P0, P1


PAPER = DivisionConfig(matinv="paper")
# Public divisor domains whose reciprocal step bound (l_f = 26) is the key.
# The bound depends on hi / lo alone.
STEP_DOMAINS = {1: (1.0, 1.01), 2: (1.0, 1.2), 3: (1.0, 2.0),
                8: KernelConfig(noise_variance=0.05).pivot_domain,
                10: KernelConfig(noise_variance=0.01).pivot_domain,
                14: KernelConfig(noise_variance=1e-3).pivot_domain}


def scoped(result, name):
    return result.stats[P0].summary()["per_protocol"][name]


# ---------------------------------------------------------------- products

def test_mul_example():
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b),
                     [np.array([2.0]), np.array([3.0])])
    assert abs(float(open_result(res)[0]) - 6.0) <= QUANTUM


def test_mul_by_zero():
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b),
                     [np.array([5.0]), np.array([0.0])])
    assert abs(float(open_result(res)[0])) <= QUANTUM


def test_mul_identity():
    x = np.array([1.25, -3.5, 0.01])
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b), [x, np.ones(3)])
    # exact truncation is within 1.5 quanta of the true product
    assert np.max(np.abs(open_result(res) - x)) <= 1.5 * QUANTUM


def test_mul_costs_one_round_two_elements_each_way():
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b),
                     [np.arange(7.0), np.arange(7.0)])
    s = scoped(res, "ss_mul")
    assert s["rounds"] == 1
    assert s["words_sent"] == 2 * 7


def test_mul_broadcasts():
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b),
                     [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([2.0])])
    got = open_result(res)
    assert np.max(np.abs(got - [[2.0, 4.0], [6.0, 8.0]])) <= QUANTUM


def test_triple_reuse_rejected():
    t0, _ = gen_material(np.random.default_rng(1), "triple", (1,), CODEC.params)
    _consume(t0)
    with pytest.raises(ProtocolError):
        _consume(t0)


def test_matmul_identity():
    m = np.array([[1.5, -2.0], [0.25, 3.0]])
    res = run_shared(lambda rt, a, b: ss_matmul(rt, a, b), [np.eye(2), m])
    assert np.max(np.abs(open_result(res) - m)) <= QUANTUM


def test_matmul_random_vs_plaintext():
    rng = np.random.default_rng(2)
    a = rng.uniform(-4, 4, (2, 2))
    b = rng.uniform(-4, 4, (2, 2))
    res = run_shared(lambda rt, x, y: ss_matmul(rt, x, y), [a, b])
    grid = CODEC.decode(CODEC.encode(a)) @ CODEC.decode(CODEC.encode(b))
    assert np.max(np.abs(open_result(res) - grid)) <= 2.0 ** (-CODEC.lf + 1)


def test_matmul_dimension_mismatch():
    with pytest.raises(RuntimeError):
        run_shared(lambda rt, a, b: ss_matmul(rt, a, b),
                   [np.ones((2, 3)), np.ones((2, 3))])


@pytest.mark.parametrize("codec", [CODEC, FixedPointCodec(RingParams(48, 16))],
                         ids=["l64", "l48"])
@pytest.mark.parametrize("op", ["mul", "matmul"])
def test_beaver_shares_match_textbook(codec, op):
    # Textbook Beaver shares are z_i = c_i + a_i*e + d*b_i + i*d*e from the
    # dealt triple and the opened d, e. The servers split the same product
    # differently: z_i = u_i*e + d*(v_i - i*e) + c_i, which moves
    # d_0*e + d*e_0 (P0's own halves of the openings) from P1's share to
    # P0's. Recomputed here on Python ints, independent of ring.py.
    rng = np.random.default_rng(6)
    x = rng.uniform(-3, 3, (3, 4))
    y = rng.uniform(-3, 3, (3, 4) if op == "mul" else (4, 2))
    protocol = ss_mul if op == "mul" else ss_matmul

    def job(rt, sx, sy):
        seen = {}
        take, exchange = rt.assistant._take, rt.exchange

        def record_take(kind, spec):
            t = take(kind, spec)
            seen["a"], seen["b"], seen["c"] = t.a.copy(), t.b.copy(), t.c.copy()
            return t

        def record_exchange(payload):
            theirs = exchange(payload)
            seen["mine"], seen["theirs"] = payload.copy(), theirs.copy()
            return theirs

        rt.assistant._take, rt.exchange = record_take, record_exchange
        return protocol(rt, sx, sy, truncate=False).values, seen

    res = run_shared(job, [x, y], codec=codec)
    mod = codec.params.modulus
    mul = (lambda p, q: p * q) if op == "mul" else (lambda p, q: p @ q)
    z0, seen0 = res.outputs[P0]
    z1, seen1 = res.outputs[P1]
    n = x.size
    halves0 = seen0["mine"].astype(object)
    opened = (halves0 + seen0["theirs"].astype(object)) % mod
    d, e = opened[:n].reshape(x.shape), opened[n:].reshape(y.shape)
    d0, e0 = halves0[:n].reshape(x.shape), halves0[n:].reshape(y.shape)
    resplit = mul(d0, e) + mul(d, e0)
    for i, (z, seen) in enumerate(((z0, seen0), (z1, seen1))):
        a, b, c = (seen[k].astype(object) for k in "abc")
        textbook = c + mul(a, e) + mul(d, b) + i * mul(d, e)
        want = (textbook + (1 - 2 * i) * resplit) % mod
        assert np.array_equal(z.astype(object), want)
    # The opened product is exactly (a + d)(b + e) over the ring.
    u = (seen0["a"].astype(object) + seen1["a"].astype(object) + d) % mod
    v = (seen0["b"].astype(object) + seen1["b"].astype(object) + e) % mod
    assert np.array_equal((z0.astype(object) + z1.astype(object)) % mod, mul(u, v) % mod)


# --------------------------------------------------------------- distances

def test_dist_self_zero_diagonal():
    # A point's distance to itself cancels exactly before the truncation.
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, (4, 2))
    res = run_shared(lambda rt, a, b: cross_dist(rt, a, b), [x, x])
    got = open_result(res)
    assert np.max(np.abs(np.diag(got))) <= 2 * QUANTUM


def test_dist_self_form_is_the_strict_upper_triangle():
    rng = np.random.default_rng(8)
    n = 6
    x = rng.uniform(-5, 5, (n, 3))

    def job(rt, a):
        upper, _ = ss_dist(rt, a)
        return upper, mirror_upper(rt, upper, n, 1.5), cross_dist(rt, a, a)

    res = run_shared(job, [x])
    upper = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    cross = reconstruct(res.outputs[P0][2], res.outputs[P1][2])
    rows, cols = np.triu_indices(n, 1)
    assert upper.shape == (n * (n - 1) // 2,)
    # Both forms truncate the same exact raw distances of the encoded points.
    assert np.max(np.abs(upper - cross[rows, cols])) <= 2 * QUANTUM
    for party in (P0, P1):
        share = res.outputs[party][1].values
        assert np.array_equal(share, share.T)
    full = reconstruct(res.outputs[P0][1], res.outputs[P1][1])
    assert np.array_equal(full[rows, cols], upper)
    assert np.array_equal(np.diag(full), np.full(n, 1.5))


def test_dist_two_points():
    res = run_shared(lambda rt, a, b: cross_dist(rt, a, b),
                     [np.array([[1.0]]), np.array([[3.0]])])
    assert abs(open_result(res).item() - 4.0) <= 4 * QUANTUM


def test_dist_symmetry():
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, (5, 3))
    res = run_shared(lambda rt, a, b: cross_dist(rt, a, b), [x, x])
    got = open_result(res)
    assert np.max(np.abs(got - got.T)) <= QUANTUM


def test_dist_rejects_1d():
    with pytest.raises(RuntimeError):
        run_shared(lambda rt, a: ss_dist(rt, a), [np.ones(3)])


# ---------------------------------------------------------------- division

DOMAIN = (0.1, 100.0)  # public divisor bounds of the tests below

def test_reciprocal_of_one():
    res = run_shared(lambda rt, v: ss_reciprocal(rt, v, DOMAIN), [np.array([1.0])])
    assert abs(float(open_result(res)[0]) - 1.0) <= 10 * QUANTUM


def test_reciprocal_of_four():
    res = run_shared(lambda rt, v: ss_reciprocal(rt, v, DOMAIN), [np.array([4.0])])
    assert abs(float(open_result(res)[0]) - 0.25) <= 1e-4 * 0.25


def test_reciprocal_domain_sweep():
    v = np.array([0.5, 1.0, 2.0, 4.0, 10.0, 40.0])
    res = run_shared(lambda rt, x: ss_reciprocal(rt, x, DOMAIN), [v])
    rel = np.abs(open_result(res) - 1.0 / v) * v
    assert np.max(rel) <= 1e-4


def test_reciprocal_domain_sweep_paper():
    v = np.array([0.5, 1.0, 2.0, 4.0, 10.0, 40.0])
    res = run_shared(lambda rt, x: ss_reciprocal(rt, x, DOMAIN), [v], div=PAPER)
    rel = np.abs(open_result(res) - 1.0 / v) * v
    assert np.max(rel) <= 1e-4


@pytest.mark.parametrize("matinv", ["ldl", "paper"])
def test_reciprocal_converges_at_the_step_bound(matinv, monkeypatch):
    # On (0.005, 2.02), sigma^2 = 0.01's pivot domain, the bound's 10 steps
    # reach the truncation noise floor (about 1e-6 relative at v = 0.005,
    # where 1/v = 200) and 9, forced in place of the bound, stop at e0^512,
    # about 4e-5, at both ends.
    domain = STEP_DOMAINS[10]
    v = np.array([domain[0], 0.01, 0.1, 1.0, domain[1]])

    def rel_error():
        res = run_shared(lambda rt, x: ss_reciprocal(rt, x, domain), [v],
                         div=DivisionConfig(matinv=matinv))
        return np.max(np.abs(open_result(res) - 1.0 / v) * v)

    at_bound = rel_error()
    monkeypatch.setattr(protocols, "division_steps", lambda *args: 9)
    assert reciprocal_steps(domain, CODEC.lf) == 10
    assert at_bound <= 2e-6 and rel_error() >= 20 * at_bound


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_division_counts_and_plan_on_the_ldl_path(k):
    # On a domain whose bound is k: k - 1 Goldschmidt steps and the Newton
    # close, k + 3 rounds and k + 4 truncations a division, on exactly the
    # triples _div_plan deals, and the quotient converged.
    domain = STEP_DOMAINS[k]
    u, v = np.array([[6.0], [1.0]]), np.array([[1.005]])

    def job(rt, a, b):
        rt.assistant.deal(_div_plan(rt, a.shape, b.shape, domain))
        before = rt.assistant.requests
        out = ss_div(rt, a, b, domain)
        return out, rt.assistant.requests - before

    res = run_shared(job, [u, v])
    assert reciprocal_steps(domain, CODEC.lf) == k
    assert scoped(res, "ss_div")["rounds"] == k + 3
    assert res.outputs[P0][1] == res.outputs[P1][1] == k + 4
    got = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    assert np.max(np.abs(got - u / v)) <= 1e-4 * 2.0


@pytest.mark.parametrize("matinv", ["ldl", "paper"])
def test_division_on_a_domain_the_first_guess_covers(matinv):
    # On (1, 1.0001) the affine guess alone is within 2^-26, so the bound
    # is its floor, one step: 4 rounds on "ldl"; "paper" keeps its 8.
    domain = (1.0, 1.0001)
    res = run_shared(lambda rt, u, v: ss_div(rt, u, v, domain),
                     [np.array([3.0]), np.array([1.00005])], div=DivisionConfig(matinv=matinv))
    assert scoped(res, "ss_div")["rounds"] == (4 if matinv == "ldl" else 17)
    assert abs(float(open_result(res)[0]) - 3.0 / 1.00005) <= 4 * QUANTUM


def test_div_example():
    res = run_shared(lambda rt, u, v: ss_div(rt, u, v, DOMAIN),
                     [np.array([6.0]), np.array([3.0])])
    assert abs(float(open_result(res)[0]) - 2.0) <= 1e-4 * 2.0


def test_div_round_budget():
    # The default pivot domain's bound is 7; the paper's path keeps its 8.
    res = run_shared(lambda rt, u, v: ss_div(rt, u, v, (0.05, 2.2)),
                     [np.array([3.0]), np.array([1.5])], div=PAPER)
    assert scoped(res, "ss_div")["rounds"] == 17


def test_div_round_budget_ldl():
    res = run_shared(lambda rt, u, v: ss_div(rt, u, v, STEP_DOMAINS[8]),
                     [np.array([3.0]), np.array([1.5])])
    assert scoped(res, "ss_div")["rounds"] == 11


BAD_NEWTON_SETTINGS = [("sqrt_hi", 0.0), ("sqrt_hi", -16.0), ("sqrt_hi", float("inf")),
                       ("sqrt_hi", float("nan")), ("matinv", "newton"), ("matinv", "LDL")]


@pytest.mark.parametrize("field, value", BAD_NEWTON_SETTINGS)
def test_out_of_domain_newton_settings_rejected(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {re.escape(repr(value))}$"):
        DivisionConfig(**{field: value})


# ------------------------------------------------------------- square root

def test_sqrt_of_four():
    res = run_shared(lambda rt, x: ss_sqrt(rt, x), [np.array([4.0])])
    assert abs(float(open_result(res)[0]) - 2.0) <= 1e-3 * 2.0


def test_sqrt_of_zero():
    res = run_shared(lambda rt, x: ss_sqrt(rt, x), [np.array([0.0])])
    assert abs(float(open_result(res)[0])) <= 1.001 * QUANTUM


def test_sqrt_of_one():
    res = run_shared(lambda rt, x: ss_sqrt(rt, x), [np.array([1.0])])
    assert abs(float(open_result(res)[0]) - 1.0) <= 1e-3


def test_sqrt_sweep():
    x = np.array([0.01, 0.1, 0.5, 2.0, 9.0, 15.0])
    res = run_shared(lambda rt, v: ss_sqrt(rt, v), [x])
    rel = np.abs(open_result(res) - np.sqrt(x)) / np.sqrt(x)
    assert np.max(rel) <= 1e-3


def test_sqrt_assistant_round_trips(monkeypatch):
    # Two truncations per iteration, plus the first guess's and the final
    # product's; every triple rides on one of them.
    def job(rt, x):
        before = rt.assistant._tag
        ss_sqrt(rt, x)
        return rt.assistant._tag - before

    monkeypatch.setattr(protocols, "sqrt_steps", lambda *args: 5)
    res = run_shared(job, [np.array([4.0, 9.0])])
    assert res.outputs[P0] == res.outputs[P1] == 2 * 5 + 2


@pytest.mark.parametrize("size, iterations", [
    (1000, 7),
    (3641, 2),
    (4950, 25),  # the n = 100 gram's strict upper triangle
    (1000, 1),
])
def test_sqrt_counts_match_closed_forms(size, iterations, monkeypatch):
    x = np.linspace(0.5, 12.0, size)

    def job(rt, v):
        before = rt.assistant._tag
        out = ss_sqrt(rt, v)
        return out, rt.assistant._tag - before

    monkeypatch.setattr(protocols, "sqrt_steps", lambda *args: iterations)
    res = run_shared(job, [x])
    assert sqrt_assistant_round_trips(iterations) == 2 * iterations + 2
    for party in (P0, P1):
        assert res.outputs[party][1] == sqrt_assistant_round_trips(iterations)
        summary = res.stats[party].summary()
        assert summary["per_protocol"]["ss_sqrt"]["rounds"] == sqrt_rounds(iterations)
        # Four words per element per round on the stacked product, two on the other.
        assert summary["online_words_sent"] == (6 * iterations + 2) * size
    got = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    if iterations >= 7:  # one or two iterations are too few to converge
        assert np.max(np.abs(got - np.sqrt(x)) / np.sqrt(x)) <= 1e-3


def _sqrt_sweep_error(sqrt_hi):
    """Largest relative error of ss_sqrt over 400 geometric inputs across its domain."""
    x = np.geomspace(*sqrt_domain(sqrt_hi, CODEC.params), 400)
    res = run_shared(lambda rt, v: ss_sqrt(rt, v), [x], div=DivisionConfig(sqrt_hi=sqrt_hi))
    return np.max(np.abs(open_result(res) - np.sqrt(x)) / np.sqrt(x))


@pytest.mark.parametrize("sqrt_hi, k", [(16.0, 13), (432.0, 17), (1200.0, 19)])
def test_sqrt_converges_at_the_derived_step_count(sqrt_hi, k):
    # From the floor 2^-9, where the iterate's square would leave the
    # truncation window, up to sqrt_hi: 432 is matern-n100-sockets' domain.
    assert sqrt_domain(sqrt_hi, CODEC.params) == (2.0 ** -9, sqrt_hi)
    assert sqrt_steps(sqrt_hi, CODEC.params) == k
    assert _sqrt_sweep_error(sqrt_hi) <= 2e-5


@pytest.mark.parametrize("sqrt_hi, k", [(16.0, 13), (432.0, 17)])
def test_sqrt_misses_at_one_step_below_the_derived_count(sqrt_hi, k, monkeypatch):
    # One step short, the inputs near the floor are still converging.
    monkeypatch.setattr(protocols, "sqrt_steps", lambda *args: k - 1)
    assert _sqrt_sweep_error(sqrt_hi) > 2e-5


# ------------------------------------------------------ truncation offsets

@pytest.mark.parametrize("l", [64, 48])
def test_truncation_offsets_uniform_on_their_range(l):
    rt = PartyRuntime(1, None, FixedPointCodec(RingParams(l, 16)), None,
                      np.random.default_rng(l))
    delta = 1 << (l - 3)
    # Calls below and above a block, so that blocks are both split and refilled.
    lam = np.concatenate([rt._trunc_offsets(k)
                          for k in (1, 3000, 2 * TRUNC_OFFSET_BLOCK + 7, 50_000)])
    assert int(lam.min()) >= delta and int(lam.max()) < (1 << l) - 2 * delta
    # The range [delta, 2^l - 2 delta) is five delta-wide cells.
    cell, within = np.divmod(lam - np.uint64(delta), np.uint64(delta))
    counts = np.bincount(cell.astype(np.int64), minlength=5)
    expected = lam.size / 5
    assert ((counts - expected) ** 2 / expected).sum() < 18.47  # chi-square, 4 dof, p = 0.001
    # Uniform within a cell: mean position 1/2, standard error about 0.0012.
    assert abs(float(np.mean(within / delta)) - 0.5) < 0.006


@pytest.mark.parametrize("ratio, offset", [(-1.99, "min"), (-1.5, "min"), (-1.01, "min"),
                                           (0.99, "max"), (-1.99, "max"), (0.99, "min")])
def test_truncation_exact_across_its_window(ratio, offset):
    # Party 0's public offset delta = 2^(l-3) puts the no-wrap window at
    # [-2 delta - 2^(b-1), delta - 2^(b-1)), so a raw value in (-2 delta, -delta)
    # must survive party 1's smallest offset, delta, and one just below
    # delta its largest. Without party 0's delta, the first would wrap.
    p, lf = CODEC.params, CODEC.lf
    delta = 1 << (p.l - 3)
    lam = delta if offset == "min" else (1 << p.l) - 2 * delta - 1
    value = ratio * delta / 2.0 ** (2 * lf)  # the real value at scale 2 l_f
    shares = shr(from_signed(np.full(3, ratio * delta), p), np.random.default_rng(5), p)

    def job(rt):
        if rt.party == 1:
            rt._trunc_offsets = lambda n: np.full(n, lam, dtype=np.uint64)
        vals = rt.trunc_values(shares[rt.party], lf)
        return SharedArray(rt.party, vals, CODEC, lf)

    res = run_shared(job, [])
    assert np.max(np.abs(open_result(res) - value)) <= 1.5 * QUANTUM


# --------------------------------------------------- matrix inversion chain

def _open_factors(res):
    L = reconstruct(res.outputs[P0].L, res.outputs[P1].L)
    D = reconstruct(res.outputs[P0].D, res.outputs[P1].D)
    return L, D


def test_cholesky_2x2_example():
    u = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, pivot_domain=(1.0, 3.0)), [u])
    L, D = _open_factors(res)
    assert np.max(np.abs(D - [2.0, 1.5])) <= 1e-3
    assert np.max(np.abs(L - [[1.0, 0.0], [0.5, 1.0]])) <= 1e-3


def test_cholesky_identity():
    # On "ldl" L's column goes through two truncations, each within 1.5
    # quanta; over session seeds 0-39 the error reached 2 quanta on both
    # paths.
    for div in (DivisionConfig(), PAPER):
        for seed in range(40):
            res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, pivot_domain=(0.5, 2.0)),
                             [np.eye(3)], seed=seed, div=div)
            L, D = _open_factors(res)
            assert np.max(np.abs(L - np.eye(3))) <= 2 * QUANTUM, (div.matinv, seed)
            assert np.max(np.abs(D - 1.0)) <= 10 * QUANTUM, (div.matinv, seed)


def test_cholesky_round_count():
    for n in (2, 4):
        x = np.random.default_rng(n).uniform(-3, 3, (n, 2))
        u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)) + 0.1 * np.eye(n)
        res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.05, 2.2)), [u], div=PAPER)
        assert scoped(res, "pp_cholesky")["rounds"] == 21 * n - 23


def test_cholesky_round_count_ldl():
    # The one pass: column 0's reciprocal, then a product round and a
    # reciprocal for each later column, 10 rounds a column at the domain's
    # 7 steps.
    for n in (2, 4):
        x = np.random.default_rng(n).uniform(-3, 3, (n, 2))
        u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)) + 0.1 * np.eye(n)
        res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.05, 2.2)), [u])
        assert scoped(res, "pp_cholesky")["rounds"] == 10 * n - 1


def test_cholesky_paths_agree():
    # Both paths compute the same factors, up to truncation noise.
    n = 6
    x = np.random.default_rng(11).uniform(-2, 2, (n, 2))
    u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)) + 0.1 * np.eye(n)
    want = np.linalg.cholesky(u)
    for div in (DivisionConfig(), PAPER):
        res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.05, 2.2)), [u], div=div)
        L, D = _open_factors(res)
        assert np.max(np.abs(L * np.sqrt(D) - want)) <= 1e-5


def test_cholesky_rejects_nonsquare():
    with pytest.raises(RuntimeError) as info:
        run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.5, 2.0)), [np.ones((2, 3))])
    assert isinstance(info.value.__cause__, ProtocolError)


def test_forward_identity():
    res = run_shared(lambda rt, a: pp_forward(rt, a), [np.eye(3)])
    assert np.max(np.abs(open_result(res) - np.eye(3))) <= QUANTUM


def test_forward_2x2_example():
    L = np.array([[1.0, 0.0], [0.5, 1.0]])
    res = run_shared(lambda rt, a: pp_forward(rt, a), [L])
    assert np.max(np.abs(open_result(res) - [[1.0, 0.0], [-0.5, 1.0]])) <= QUANTUM


def test_forward_round_count():
    for n in (2, 5):
        res = run_shared(lambda rt, a: pp_forward(rt, a), [np.eye(n)])
        assert scoped(res, "pp_forward")["rounds"] == n - 1


def test_backward_composes_2x2_inverse():
    V = np.array([[1.0, 0.0], [-0.5, 1.0]])
    D = np.array([2.0, 1.5])
    res = run_shared(lambda rt, v, d: pp_backward(rt, v, d, pivot_domain=(1.0, 3.0)),
                     [V, D])
    want = np.linalg.inv(np.array([[2.0, 1.0], [1.0, 2.0]]))  # [[2/3,-1/3],[-1/3,2/3]]
    assert np.max(np.abs(open_result(res) - want)) <= 1e-3


def test_backward_round_count():
    res = run_shared(lambda rt, v, d: pp_backward(rt, v, d, pivot_domain=(0.5, 2.0)),
                     [np.eye(2), np.ones(2)], div=PAPER)
    assert scoped(res, "pp_backward")["rounds"] == 18


def test_backward_round_count_ldl():
    # The division's k + 3 rounds at (0.5, 2.0)'s 4 steps, and the product.
    res = run_shared(lambda rt, v, d: pp_backward(rt, v, d, pivot_domain=(0.5, 2.0)),
                     [np.eye(2), np.ones(2)])
    assert scoped(res, "pp_backward")["rounds"] == 8


def test_matinv_identity():
    res = run_shared(lambda rt, a: pp_matinv(rt, a, pivot_domain=(0.5, 2.0)),
                     [np.eye(3)])
    assert np.max(np.abs(open_result(res) - np.eye(3))) <= 4 * QUANTUM


def test_matinv_round_count_n10():
    n = 10
    x = np.random.default_rng(7).uniform(-10, 10, (n, 2))
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    u = np.exp(-d / 2) + 0.1 * np.eye(n)
    res = run_shared(lambda rt, a: pp_matinv(rt, a, (0.05, 2.2)), [u], div=PAPER)
    assert scoped(res, "pp_matinv")["rounds"] == 214 == 22 * n - 6


def test_matinv_round_count_n10_ldl():
    n = 10
    x = np.random.default_rng(7).uniform(-10, 10, (n, 2))
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    u = np.exp(-d / 2) + 0.1 * np.eye(n)
    res = run_shared(lambda rt, a: pp_matinv(rt, a, (0.05, 2.2)), [u])
    assert scoped(res, "pp_matinv")["rounds"] == 100 == 10 * n


@pytest.mark.parametrize("n, iterations, want", [(3, 8, 65), (10, 8, 226),
                                                  (3, 10, 77), (10, 10, 266)])
def test_matinv_assistant_round_trips(n, iterations, want):
    _check_matinv_round_trips(n, PAPER, iterations, want)


@pytest.mark.parametrize("n, iterations, want", [(3, 8, 37), (10, 8, 121),
                                                  (3, 10, 43), (10, 10, 141)])
def test_matinv_assistant_round_trips_ldl(n, iterations, want):
    _check_matinv_round_trips(n, DivisionConfig(), iterations, want)


def _check_matinv_round_trips(n, div, steps, want):
    # The gram's pivots lie in every domain here; its bound is ``steps``.
    x = np.random.default_rng(n).uniform(-10, 10, (n, 2))
    u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1) / 2) + 0.1 * np.eye(n)

    def job(rt, a):
        # The client numbers its requests, so its tag counts round trips.
        before = rt.assistant._tag
        pp_matinv(rt, a, STEP_DOMAINS[steps])
        return rt.assistant._tag - before

    res = run_shared(job, [u], div=div)
    assert reciprocal_steps(STEP_DOMAINS[steps], CODEC.lf) == steps
    assert res.outputs[P0] == res.outputs[P1] == want
    assert want == matinv_assistant_round_trips(n, div, steps)
    assert scoped(res, "pp_matinv")["words_sent"] == matinv_online_words(n, div, steps)


def _se_gram(n, seed):
    x = np.random.default_rng(seed).uniform(-10, 10, (n, 2))
    return np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1) / 2) + 0.1 * np.eye(n)


def _requests_for_material_alone(div, n):
    """(scope under pp_matinv, request words) of each request that is not a truncation."""

    def job(rt, a):
        alone, request = [], rt.assistant._request

        def spy(words):
            if int(words[0]) != OP_TRUNC:
                alone.append((rt.stats._scopes[1], [int(w) for w in words]))
            return request(words)

        rt.assistant._request = spy
        pp_matinv(rt, a, (0.05, 2.2))
        return alone

    res = run_shared(job, [_se_gram(n, 5)], div=div)
    assert res.outputs[P0] == res.outputs[P1]
    return res.outputs[P0]


def test_matinv_requests_material_alone_only_twice():
    # On the paper's path every request rides on a truncation but two: the
    # first forward row's, which carries rows 1 and 2's triples, and
    # backward's final product's.
    n = 6
    assert _requests_for_material_alone(PAPER, n) == [
        ("pp_forward", [OP_MATRIX_TRIPLE, 1, 1, 1, OP_MATRIX_TRIPLE, 1, 2, 2]),
        ("pp_backward", [OP_MATRIX_TRIPLE, n, n, n])]


@pytest.mark.parametrize("n", [2, 6])
def test_matinv_requests_material_alone_only_once(n):
    # On the default path only the final product's kept triple, against
    # V's mask under the inversion's third key, travels alone.
    assert _requests_for_material_alone(DivisionConfig(), n) == [
        ("ss_matmul", [OP_KEPT_TRIPLE, 3, n, n, n, 0])]


def _item_words(kind, spec):
    """Words of per-step material; the one pass's three kept masks are session material."""
    if kind == "triple":
        return 3 * int(np.prod(spec))
    if kind == "ldl_column":
        return spec[3]
    if kind == "model_mask":
        return 0
    m, n, k = spec
    return m * n + n * k + m * k


def test_ldl_and_forward_hold_only_the_current_and_next_steps_material():
    # Steps in take order: the one pass's columns 0 .. n-1, then forward
    # rows 1 .. n-1 run alone on its L. After each take but the kept
    # masks', the per-step material dealt and not yet taken, with the item
    # just taken, never exceeds the words of the taking step's plan and
    # the next step's: at most two columns'.
    n = 7

    def job(rt, a):
        client = rt.assistant
        steps = ([_ldl_column_plan(rt, n, k, (0.05, 2.2), (1, 2, 3)) for k in range(n)]
                 + [[("matrix", (1, k, k))] for k in range(1, n)])
        owner = [i for i, step in enumerate(steps) for _ in step]
        words = [sum(_item_words(*item) for item in step) for step in steps] + [0]
        seen, take, taken = [], client._take, []

        def spy(kind, spec):
            material = take(kind, spec)
            step = owner[len(taken)]
            taken.append(kind)
            if kind == "model_mask":
                return material
            held = _item_words(kind, spec) + sum(
                _item_words(k, s) for k, s, _ in [*client._dealt, *client._pending])
            seen.append((held, words[step], words[step] + words[step + 1]))
            return material

        client._take = spy
        factors = pp_cholesky_ldl(rt, a, (0.05, 2.2))
        pp_forward(rt, factors.L)
        assert len(taken) == len(owner) and taken.count("model_mask") == 3
        return seen

    res = run_shared(job, [_se_gram(n, 6)])
    for seen in (res.outputs[P0], res.outputs[P1]):
        assert all(held <= bound for held, _, bound in seen)
        # The next step's material is in flight at some take.
        assert any(held > current for held, current, _ in seen)


def test_one_pass_factors_match_plaintext_ldl():
    # The default path's L, D and W = D^{-1} V, with V = L^{-1}, against
    # LDL^T from numpy's Cholesky factor.
    n = 8
    u = _se_gram(n, 12)
    res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.05, 2.2)), [u])
    # V comes as a ModelOperand against its kept mask.
    parts = [dict(vars(f), V=f.V.value) for f in (res.outputs[P0], res.outputs[P1])]
    got = {name: reconstruct(parts[0][name], parts[1][name]) for name in ("L", "D", "V", "W")}
    chol = np.linalg.cholesky(u)
    d = np.diag(chol) ** 2
    lower = chol / np.diag(chol)
    inv_lower = np.linalg.inv(lower)
    want = {"L": lower, "D": d, "V": inv_lower, "W": inv_lower / d[:, None]}
    for name, value in want.items():
        assert np.max(np.abs(got[name] - value)) <= 1e-5, name
    assert np.max(np.abs(got["V"].T @ got["W"] - np.linalg.inv(u))) <= 1e-4


@pytest.mark.parametrize("name", ["L", "C", "V"])
def test_a_kept_word_opens_once(name):
    # Opening a word of L, C or V a second time against its kept mask
    # fails, naming the matrix and the word.
    x = protocols._OpenedOnce(name, np.arange(16, dtype=np.uint64).reshape(4, 4),
                              np.zeros((4, 4), dtype=np.uint64))
    x.masked(np.s_[2, :2], CODEC.params)
    with pytest.raises(ProtocolError, match=rf"{name}\[2, 1\] would open a second time"):
        x.masked(np.s_[1:, 1], CODEC.params)


def test_one_pass_opens_every_word_below_the_diagonal_once(monkeypatch):
    # Over one inversion each server opens every strictly lower word of L,
    # C and V against its kept mask, V's last row with the final product.
    made = []

    class Recording(protocols._OpenedOnce):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(protocols, "_OpenedOnce", Recording)
    n = 6
    u = _se_gram(n, 3)
    res = run_shared(lambda rt, a: pp_matinv(rt, a, (0.05, 2.2)), [u])
    assert sorted(x.name for x in made) == sorted("LCV" * 2)
    for x in made:
        assert np.array_equal(x.asked, np.tri(n, k=-1, dtype=bool)), x.name
    assert np.max(np.abs(open_result(res) - np.linalg.inv(u))) <= 1e-4


def test_paper_path_keeps_no_inverse_factors():
    res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.05, 2.2)), [_se_gram(4, 1)],
                     div=PAPER)
    assert res.outputs[P0].V is None and res.outputs[P0].W is None


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_matinv_counts_on_the_one_pass(k, backend):
    # (k + 3)n peer rounds, (k + 4)n + 1 assistant round trips and
    # analysis.matinv_online_words on a pivot domain whose bound is k;
    # where the gram's pivots lie outside that domain the inverse is off,
    # but the counts hold.
    for n in (2, 3, 10):
        def job(rt, a):
            before = rt.assistant.requests
            pp_matinv(rt, a, STEP_DOMAINS[k])
            return rt.assistant.requests - before

        res = run_shared(job, [_se_gram(n, n)], backend=backend)
        assert (scoped(res, "pp_matinv")["rounds"] == (k + 3) * n
                == expected_rounds("matinv", n, steps=k))
        assert (res.outputs[P0] == res.outputs[P1] == (k + 4) * n + 1
                == matinv_assistant_round_trips(n, steps=k))
        assert scoped(res, "pp_matinv")["words_sent"] == matinv_online_words(n, steps=k)


def test_reciprocal_carries_numerators_only_for_one_ldl_divisor():
    along = np.array([1.0, 2.0])
    for values, div in (([np.array([2.0]), along], PAPER),
                        ([np.array([2.0, 3.0]), along], DivisionConfig())):
        with pytest.raises(RuntimeError) as info:
            run_shared(lambda rt, v, a: ss_reciprocal(rt, v, DOMAIN, along=a), values, div=div)
        assert isinstance(info.value.__cause__, ProtocolError)


def test_reciprocal_divides_its_numerators():
    res = run_shared(lambda rt, v, a: ss_reciprocal(rt, v, DOMAIN, along=a),
                     [np.array([4.0]), np.array([1.0, -2.0, 10.0])])
    inv = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    scaled = reconstruct(res.outputs[P0][1], res.outputs[P1][1])
    assert abs(inv[0] - 0.25) <= 1e-4 * 0.25
    assert np.max(np.abs(scaled - [0.25, -0.5, 2.5])) <= 1e-4 * 2.5
    assert scoped(res, "ss_div")["rounds"] == reciprocal_steps(DOMAIN, CODEC.lf) + 2


def _matinv_over_sockets(div):
    n = 6
    u = _se_gram(n, 9)

    def job(rt, a):
        return pp_matinv(rt, a, (0.05, 2.2)), rt.assistant.requests

    res = run_shared(job, [u], backend="sockets", div=div)
    inv = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    assert np.max(np.abs(inv - np.linalg.inv(u))) <= 1e-4
    assert res.outputs[P0][1] == res.outputs[P1][1]
    return n, scoped(res, "pp_matinv")["rounds"], res.outputs[P0][1]


def test_matinv_over_sockets():
    n, rounds, trips = _matinv_over_sockets(PAPER)
    assert rounds == 22 * n - 6 == expected_rounds("matinv", n, PAPER)
    assert trips == 23 * n - 4 == matinv_assistant_round_trips(n, PAPER)


def test_matinv_over_sockets_ldl():
    n, rounds, trips = _matinv_over_sockets(DivisionConfig())
    assert rounds == 10 * n == expected_rounds("matinv", n)
    assert trips == 11 * n + 1 == matinv_assistant_round_trips(n)


def test_matinv_accuracy_se_gram():
    n = 12
    x = np.random.default_rng(8).uniform(-10, 10, (n, 2))
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    u = np.exp(-d / 2) + 0.1 * np.eye(n)
    res = run_shared(lambda rt, a: pp_matinv(rt, a, (0.05, 2.2)), [u])
    lam = open_result(res)
    assert np.linalg.norm(u @ lam - np.eye(n), 2) ** 2 <= 1e-3


@pytest.mark.parametrize("matinv", ["ldl", "paper"])
def test_matinv_small_noise_gram_at_the_step_bound(matinv):
    # 40 standard-normal 3-d points at sigma^2 = 1e-3: the pivots reach
    # down to about 1e-3, and the bound's 14 steps keep the inverse inside
    # criterion 3's gate (8 steps left ||A Inv - I||_F^2 near 19).
    cfg = KernelConfig(noise_variance=1e-3)
    x = np.random.default_rng(3).normal(size=(40, 3))
    a = kernel_matrix_plaintext(x, x, cfg) + cfg.noise_variance * np.eye(40)
    steps = reciprocal_steps(cfg.pivot_domain, CODEC.lf)
    assert steps == 14
    res = run_shared(lambda rt, m: pp_matinv(rt, m, cfg.pivot_domain), [a],
                     div=DivisionConfig(matinv=matinv))
    assert np.linalg.norm(a @ open_result(res) - np.eye(40)) ** 2 <= 1e-3


def test_sockets_backend_end_to_end():
    res = run_shared(lambda rt, a, b: ss_mul(rt, a, b),
                     [np.array([2.0]), np.array([3.0])], backend="sockets")
    assert abs(float(open_result(res)[0]) - 6.0) <= QUANTUM


def test_narrow_ring_products_and_inverse():
    # At l = 48 every operation must reduce its words itself, since the
    # uint64 wrap is not the ring's.
    codec = FixedPointCodec(RingParams(48, 16))
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-4, 4, 50), rng.uniform(-4, 4, 50)
    x = np.random.default_rng(8).uniform(-2, 2, (4, 2))
    u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1) / 2) + 0.1 * np.eye(4)

    def job(rt, sa, sb, su):
        words = []
        # Words sent to the peer, and to the assistant (truncation requests
        # carry this server's share of the masked value).
        for channel in (rt.net.peer, rt.assistant.channel):
            def recording_send(tag, payload, send=channel.send):
                words.append(int(np.max(payload, initial=0)))
                send(tag, payload)

            channel.send = recording_send
        return ss_mul(rt, sa, sb), pp_matinv(rt, su, (0.05, 2.2)), max(words)

    res = run_shared(job, [a, b, u], codec=codec)
    prod = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    inv = reconstruct(res.outputs[P0][1], res.outputs[P1][1])
    assert np.max(np.abs(prod - a * b)) <= 1e-4
    assert np.max(np.abs(inv - np.linalg.inv(u))) <= 5e-4
    for party in (P0, P1):
        prod_share, inv_share, sent_max = res.outputs[party]
        assert int(prod_share.values.max()) < 1 << 48
        assert int(inv_share.values.max()) < 1 << 48
        assert sent_max < 1 << 48
