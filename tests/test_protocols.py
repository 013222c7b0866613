"""Interactive protocols: products, distances, Newton division and
square root, and the matrix-inversion pipeline with its round counts."""

import numpy as np
import pytest

from helpers import CODEC, QUANTUM, open_result, run_shared
from ssgpr.analysis import matinv_assistant_round_trips
from ssgpr.offline import gen_material
from ssgpr.protocols import (ProtocolError, pp_backward, pp_cholesky_ldl,
                             pp_forward, pp_matinv, ss_div, ss_dist, ss_matmul, ss_mul,
                             ss_reciprocal, ss_sqrt, _consume)
from ssgpr.ring import FixedPointCodec, RingParams
from ssgpr.session import PAIR_OFFSET_BLOCK, DivisionConfig, PartyRuntime
from ssgpr.sharing import reconstruct
from ssgpr.transport import P0, P1


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
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, (4, 2))
    res = run_shared(lambda rt, a: ss_dist(rt, a), [x])
    got = open_result(res)
    assert np.max(np.abs(np.diag(got))) <= 2 * QUANTUM


def test_dist_two_points():
    res = run_shared(lambda rt, a, b: ss_dist(rt, a, b),
                     [np.array([[1.0]]), np.array([[3.0]])])
    assert abs(open_result(res).item() - 4.0) <= 4 * QUANTUM


def test_dist_symmetry():
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, (5, 3))
    res = run_shared(lambda rt, a: ss_dist(rt, a), [x])
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


def test_div_example():
    res = run_shared(lambda rt, u, v: ss_div(rt, u, v, DOMAIN),
                     [np.array([6.0]), np.array([3.0])])
    assert abs(float(open_result(res)[0]) - 2.0) <= 1e-4 * 2.0


def test_div_round_budget():
    res = run_shared(lambda rt, u, v: ss_div(rt, u, v, DOMAIN),
                     [np.array([6.0]), np.array([3.0])])
    assert scoped(res, "ss_div")["rounds"] == 17


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


def test_sqrt_assistant_round_trips():
    # Per iteration three products, each a one-item deal and a truncation;
    # plus the first guess's truncation and the final product's two.
    def job(rt, x):
        before = rt.assistant._tag
        ss_sqrt(rt, x)
        return rt.assistant._tag - before

    res = run_shared(job, [np.array([4.0, 9.0])], div=DivisionConfig(sqrt_iterations=5))
    assert res.outputs[P0] == res.outputs[P1] == 6 * 5 + 3


# ------------------------------------------------------ truncation offsets

@pytest.mark.parametrize("l", [64, 48])
def test_truncation_offsets_uniform_on_their_range(l):
    rt = PartyRuntime(0, None, FixedPointCodec(RingParams(l, 16)), None,
                      np.random.default_rng(l))
    delta = 1 << (l - 3)
    # Calls below and above a block, so that blocks are both split and refilled.
    lam = np.concatenate([rt._pair_offsets(k)
                          for k in (1, 3000, 2 * PAIR_OFFSET_BLOCK + 7, 50_000)])
    assert int(lam.min()) >= delta and int(lam.max()) < (1 << l) - 2 * delta
    # The range [delta, 2^l - 2 delta) is five delta-wide cells.
    cell, within = np.divmod(lam - np.uint64(delta), np.uint64(delta))
    counts = np.bincount(cell.astype(np.int64), minlength=5)
    expected = lam.size / 5
    assert ((counts - expected) ** 2 / expected).sum() < 18.47  # chi-square, 4 dof, p = 0.001
    # Uniform within a cell: mean position 1/2, standard error about 0.0012.
    assert abs(float(np.mean(within / delta)) - 0.5) < 0.006


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
    res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, pivot_domain=(0.5, 2.0)),
                     [np.eye(3)])
    L, D = _open_factors(res)
    assert np.max(np.abs(L - np.eye(3))) <= QUANTUM
    assert np.max(np.abs(D - 1.0)) <= 10 * QUANTUM


def test_cholesky_round_count():
    for n in (2, 4):
        x = np.random.default_rng(n).uniform(-3, 3, (n, 2))
        u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)) + 0.1 * np.eye(n)
        res = run_shared(lambda rt, a: pp_cholesky_ldl(rt, a, (0.05, 2.2)), [u])
        assert scoped(res, "pp_cholesky")["rounds"] == 21 * n - 23


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
                     [np.eye(2), np.ones(2)])
    assert scoped(res, "pp_backward")["rounds"] == 18


def test_matinv_identity():
    res = run_shared(lambda rt, a: pp_matinv(rt, a, pivot_domain=(0.5, 2.0)),
                     [np.eye(3)])
    assert np.max(np.abs(open_result(res) - np.eye(3))) <= 4 * QUANTUM


def test_matinv_round_count_n10():
    n = 10
    x = np.random.default_rng(7).uniform(-10, 10, (n, 2))
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    u = np.exp(-d / 2) + 0.1 * np.eye(n)
    res = run_shared(lambda rt, a: pp_matinv(rt, a, (0.05, 2.2)), [u])
    assert scoped(res, "pp_matinv")["rounds"] == 214 == 22 * n - 6


@pytest.mark.parametrize("n, iterations, want", [(3, 8, 71), (10, 8, 246),
                                                  (3, 10, 83), (10, 10, 286)])
def test_matinv_assistant_round_trips(n, iterations, want):
    x = np.random.default_rng(n).uniform(-10, 10, (n, 2))
    u = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1) / 2) + 0.1 * np.eye(n)
    div = DivisionConfig(iterations=iterations)

    def job(rt, a):
        # The client numbers its requests, so its tag counts round trips.
        before = rt.assistant._tag
        pp_matinv(rt, a, (0.05, 2.2))
        return rt.assistant._tag - before

    res = run_shared(job, [u], div=div)
    assert res.outputs[P0] == res.outputs[P1] == want
    assert want == matinv_assistant_round_trips(n, r_div=div.rounds)


def test_matinv_accuracy_se_gram():
    n = 12
    x = np.random.default_rng(8).uniform(-10, 10, (n, 2))
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    u = np.exp(-d / 2) + 0.1 * np.eye(n)
    res = run_shared(lambda rt, a: pp_matinv(rt, a, (0.05, 2.2)), [u])
    lam = open_result(res)
    assert np.linalg.norm(u @ lam - np.eye(n), 2) ** 2 <= 1e-3


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
        send = rt.net.peer.send

        def recording_send(tag, payload):
            words.append(int(np.max(payload, initial=0)))
            send(tag, payload)

        rt.net.peer.send = recording_send
        return ss_mul(rt, sa, sb), pp_matinv(rt, su, (0.05, 2.2)), max(words)

    res = run_shared(job, [a, b, u], codec=codec)
    prod = reconstruct(res.outputs[P0][0], res.outputs[P1][0])
    inv = reconstruct(res.outputs[P0][1], res.outputs[P1][1])
    assert np.max(np.abs(prod - a * b)) <= 1e-4
    assert np.max(np.abs(inv - np.linalg.inv(u))) <= 5e-4
    for party in (P0, P1):
        prod_share, inv_share, peer_max = res.outputs[party]
        assert int(prod_share.values.max()) < 1 << 48
        assert int(inv_share.values.max()) < 1 << 48
        assert peer_max < 1 << 48
