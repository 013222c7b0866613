"""Correlated-randomness generation, the assistant loop, and each party's generator."""

import copy

import numpy as np
import pytest
import scipy.stats

import ssgpr.offline as offline
import ssgpr.session as session
from helpers import CODEC, QUANTUM, run_shared
from ssgpr.data import Dataset, ScenarioSplit, split_scenario
from ssgpr.gpr import KernelConfig, pp_gpr_construct, pp_gpr_predict
from ssgpr.offline import (OP_TRIPLE, OP_TRUNC, KeptMasks, ProtocolError, _parse_plan,
                           gen_material, serve_assistant)
from ssgpr.protocols import ExpParams, _kept_product, open_model_masks, ss_dist, ss_mul
from ssgpr.ring import (FixedPointCodec, RingParams, _use_limbs, ring_add, ring_matmul,
                        ring_mul, to_signed)
from ssgpr.session import PartyRuntime, run_session
from ssgpr.sharing import SharedArray, rec, reconstruct
from ssgpr.transport import P0, P1, ProtocolAbort

P64 = CODEC.params


def test_triple_is_multiplicative():
    s0, s1 = gen_material(np.random.default_rng(0), "triple", (50,), P64)
    u = rec(s0.a, s1.a, P64)
    v = rec(s0.b, s1.b, P64)
    c = rec(s0.c, s1.c, P64)
    assert np.array_equal(c, ring_mul(u, v, P64))


def test_triple_batch_independent():
    s0, s1 = gen_material(np.random.default_rng(1), "triple", (1000,), P64)
    u = rec(s0.a, s1.a, P64)
    assert len(np.unique(u)) > 990


def test_matrix_triple_2x2():
    s0, s1 = gen_material(np.random.default_rng(2), "matrix", (2, 2, 2), P64)
    a = rec(s0.a, s1.a, P64)
    b = rec(s0.b, s1.b, P64)
    c = rec(s0.c, s1.c, P64)
    assert np.array_equal(c, ring_matmul(a, b, P64))


def test_matrix_triple_on_the_limb_path():
    # At this shape the assistant's c = a @ b runs on ring_matmul's float64
    # limb path; the native uint64 product is the independent oracle.
    assert _use_limbs(500, 100, 100)
    s0, s1 = gen_material(np.random.default_rng(5), "matrix", (500, 100, 100), P64)
    a = rec(s0.a, s1.a, P64)
    b = rec(s0.b, s1.b, P64)
    c = rec(s0.c, s1.c, P64)
    assert np.array_equal(c, a @ b)


def test_matrix_triple_1x1x1_is_scalar_beaver():
    s0, s1 = gen_material(np.random.default_rng(3), "matrix", (1, 1, 1), P64)
    a = rec(s0.a, s1.a, P64)
    b = rec(s0.b, s1.b, P64)
    c = rec(s0.c, s1.c, P64)
    assert int(c[0, 0]) == int(ring_mul(a, b, P64)[0, 0])


def test_matrix_triple_zero_dimension_rejected():
    with pytest.raises(ValueError):
        gen_material(np.random.default_rng(4), "matrix", (2, 2, 0), P64)


def test_exp_mask_consistency():
    # Every mask satisfies m = round(e^{-r_hat} * 2^lf) for its own r_hat.
    lf = P64.lf
    rmax_enc = int(round(1.25 * (1 << lf)))
    s0, s1 = gen_material(np.random.default_rng(5), "exp_mask", ((500,), rmax_enc), P64)
    k = to_signed(rec(s0.r, s1.r, P64), P64)
    assert np.all(k >= -rmax_enc) and np.all(k < rmax_enc)
    r_hat = k.astype(np.float64) / (1 << lf)
    m = to_signed(rec(s0.m, s1.m, P64), P64)
    want = np.round(np.exp(-r_hat) * (1 << lf))
    assert np.array_equal(m.astype(np.float64), want)


def test_exp_mask_zero_is_one():
    # A mask with r_hat = 0 carries e^0 = 1.0 exactly on the grid.
    p = RingParams(16, 3)
    codec = FixedPointCodec(p)
    s0, s1 = gen_material(np.random.default_rng(6), "exp_mask", ((500,), 8), p)
    k = to_signed(rec(s0.r, s1.r, p), p)
    m = rec(s0.m, s1.m, p)
    zero = k == 0
    assert zero.any()
    assert np.all(m[zero] == codec.encode(1.0))


def test_exp_mask_representable_at_wide_fraction_params():
    # l=64, l_f=29, r_hat in [-16, 16): every e^{-r_hat} encoding is >= 1.
    p = RingParams(64, 29)
    rmax_enc = 16 << 29
    s0, s1 = gen_material(np.random.default_rng(7), "exp_mask", ((2000,), rmax_enc), p)
    m = to_signed(rec(s0.m, s1.m, p), p)
    assert m.min() >= 1


def test_exp_mask_value_accuracy():
    # decode(Rec(m)) tracks e^{-r_hat} within half a quantum.
    codec = CODEC
    rmax_enc = int(round(1.25 * (1 << codec.lf)))
    s0, s1 = gen_material(np.random.default_rng(8), "exp_mask", ((200,), rmax_enc), P64)
    r_hat = to_signed(rec(s0.r, s1.r, P64), P64).astype(np.float64) / (1 << codec.lf)
    got = to_signed(rec(s0.m, s1.m, P64), P64).astype(np.float64) / (1 << codec.lf)
    assert np.max(np.abs(got - np.exp(-r_hat))) <= 2.0 ** (-codec.lf - 1)


def _assert_heads_uniform(s0, s1, p):
    # Each server's half of a and b, expanded from its dealing key, and the
    # reconstructed a and b spread uniformly over 64 bins.
    for u in (s0.a, s1.a, s0.b, s1.b, rec(s0.a, s1.a, p), rec(s0.b, s1.b, p)):
        counts = np.bincount((u >> np.uint64(10)).astype(np.int64), minlength=64)
        assert scipy.stats.chisquare(counts).pvalue > 1e-3


def test_triple_values_uniform_chi_squared():
    # 10^4 triples on l=16, dealt with two throwaway keys.
    p = RingParams(16, 3)
    s0, s1 = gen_material(np.random.default_rng(12), "triple", (10_000,), p)
    _assert_heads_uniform(s0, s1, p)


def test_session_heads_uniform_chi_squared():
    # The same through a session, the heads expanded from its dealing keys.
    p = RingParams(16, 3)
    res = run_session(lambda rt: rt.assistant.get_triple((10_000,)), FixedPointCodec(p),
                      seed=12)
    _assert_heads_uniform(res.outputs[P0], res.outputs[P1], p)


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
def test_session_reports_the_assistant_abort(backend):
    # The servers ask for triples of different sizes. The assistant's
    # abort is the cause reported, not the connection errors it then
    # causes in both servers.
    def job(rt):
        rt.assistant.get_triple((1,) if rt.party == 0 else (2,))

    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_session(job, CODEC, backend=backend)
    assert isinstance(info.value.__cause__, ProtocolAbort)
    assert "diverging" in str(info.value.__cause__)


def test_dealt_material_is_multiplicative():
    # One deal of several items; each reconstructs to a valid triple.
    def job(rt):
        rt.assistant.deal([("triple", (2, 3)), ("matrix", (2, 3, 4)), ("triple", (1,))])
        return (rt.assistant.get_triple((2, 3)), rt.assistant.get_matrix_triple(2, 3, 4),
                rt.assistant.get_triple((1,)))

    res = run_session(job, CODEC)
    t0, m0, s0 = res.outputs[P0]
    t1, m1, s1 = res.outputs[P1]
    for a, b in ((t0, t1), (s0, s1)):
        u, v, c = (rec(x, y, P64) for x, y in ((a.a, b.a), (a.b, b.b), (a.c, b.c)))
        assert np.array_equal(c, ring_mul(u, v, P64))
    a, b, c = (rec(x, y, P64) for x, y in ((m0.a, m1.a), (m0.b, m1.b), (m0.c, m1.c)))
    assert a.shape == (2, 3) and b.shape == (3, 4)
    assert np.array_equal(c, ring_matmul(a, b, P64))


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
def test_every_kind_of_dealt_material_holds_its_algebra(backend):
    # Heads expanded from the dealing keys and products shared by the
    # assistant reconstruct to valid items of every kind.
    rmax_enc = int(round(1.25 * (1 << CODEC.lf)))

    def job(rt):
        a = rt.assistant
        key = a.new_key()
        lcv = [a.new_key() for _ in "LCV"]
        a.deal([("triple", (2, 3)), ("matrix", (2, 3, 4)), ("exp_mask", ((6,), rmax_enc)),
                ("model_mask", (key, 3, 4, 0)), ("kept_triple", (key, 5, 3, 4, 1)),
                *[("model_mask", (k, 5, 5, 1)) for k in lcv], ("ldl_column", (*lcv, 5, 3))])
        return (a.get_triple((2, 3)), a.get_matrix_triple(2, 3, 4),
                a.get_exp_mask((6,), rmax_enc), a.get_model_mask(key, (3, 4)),
                a.get_kept_triple(key, 5, (3, 4), norms=True),
                [a.get_model_mask(k, (5, 5), lower=True) for k in lcv],
                a.get_ldl_column(lcv, 5, 3))

    res = run_session(job, CODEC, backend=backend)
    (t0, m0, e0, b0, k0, lower0, col0), (t1, m1, e1, b1, k1, lower1, col1) = (
        res.outputs[P0], res.outputs[P1])
    u, v, c = (rec(x, y, P64) for x, y in ((t0.a, t1.a), (t0.b, t1.b), (t0.c, t1.c)))
    assert u.shape == (2, 3) and np.array_equal(c, ring_mul(u, v, P64))
    a, b, c = (rec(x, y, P64) for x, y in ((m0.a, m1.a), (m0.b, m1.b), (m0.c, m1.c)))
    assert b.shape == (3, 4) and np.array_equal(c, a @ b)
    k = to_signed(rec(e0.r, e1.r, P64), P64)
    assert np.all(k >= -rmax_enc) and np.all(k < rmax_enc)
    want = np.round(np.exp(-k.astype(np.float64) / (1 << CODEC.lf)) * (1 << CODEC.lf))
    assert np.array_equal(to_signed(rec(e0.m, e1.m, P64), P64).astype(np.float64), want)
    mask = rec(b0.b, b1.b, P64)
    a = rec(k0.a, k1.a, P64)
    assert a.shape == (5, 3) and np.array_equal(rec(k0.c, k1.c, P64), a @ mask)
    assert np.array_equal(rec(k0.s, k1.s, P64), (a * a).sum(axis=1))
    # The lower masks are zero on and above the diagonal, and column 3's
    # products are of their blocks.
    m_l, m_c, m_v = (rec(x.b, y.b, P64) for x, y in zip(lower0, lower1))
    for b in (m_l, m_c, m_v):
        assert b.shape == (5, 5) and not np.triu(b).any() and b[np.tril_indices(5, -1)].all()
    assert np.array_equal(rec(col0.sums, col1.sums, P64), m_l[3:, :3] @ m_c[3, :3].reshape(3, 1))
    assert np.array_equal(rec(col0.row, col1.row, P64), m_l[3:4, :3] @ m_v[:3, :3])


_TAKE = {
    "triple": lambda a, spec: a.get_triple(spec),
    "matrix": lambda a, spec: a.get_matrix_triple(*spec),
    "exp_mask": lambda a, spec: a.get_exp_mask(*spec),
    "model_mask": lambda a, spec: a.get_model_mask(spec[0], spec[1:3], spec[3]),
    "kept_triple": lambda a, spec: a.get_kept_triple(spec[0], spec[1], spec[2:4], spec[4]),
    "ldl_column": lambda a, spec: a.get_ldl_column(spec[:3], spec[3], spec[4]),
}
LOWER_MASKS = [("model_mask", (key, 4, 4, 1)) for key in (1, 2, 3)]


@pytest.mark.parametrize("lead", [0, 5], ids=["alone", "on-a-truncation"])
@pytest.mark.parametrize("requests, want", [
    ([("triple", (2, 3))], [6]),
    ([("matrix", (2, 3, 4))], [8]),
    ([("exp_mask", ((5,), 8))], [10]),
    ([("model_mask", (1, 3, 4, 0))], [0]),
    ([("model_mask", (1, 3, 4, 0)), ("kept_triple", (1, 2, 3, 4, 0))], [0, 8]),
    ([("model_mask", (1, 3, 4, 0)), ("kept_triple", (1, 2, 3, 4, 1))], [0, 10]),
    ([*LOWER_MASKS, ("ldl_column", (1, 2, 3, 4, 1))], [0, 0, 0, 4]),
    ([*LOWER_MASKS, ("ldl_column", (1, 2, 3, 4, 3))], [0, 0, 0, 4]),
], ids=["triple", "matrix", "exp_mask", "model_mask", "kept_triple", "kept_triple-norms",
        "ldl_column-1", "ldl_column-3"])
def test_each_server_receives_only_the_non_uniform_words(requests, want, lead):
    # One deal per request: a server receives the item's products, norms
    # or exponent mask pairs and any truncation result, never its uniform
    # head. A model mask's reply is empty, but it is still a reply; an LDL
    # column's holds its n mask products, whatever its k.
    def job(rt, sx):
        got = []
        recv = rt.assistant.channel.recv

        def counting_recv(tag, shape=None):
            words = recv(tag, shape)
            got.append(words.size)
            return words

        rt.assistant.channel.recv = counting_recv
        for kind, spec in requests:
            rt.assistant.deal([(kind, spec)])
            if lead:
                rt.trunc_values(sx.values, 3)
            _TAKE[kind](rt.assistant, spec)
        return got

    res = run_shared(job, [np.arange(5.0)])
    assert res.outputs[P0] == res.outputs[P1] == [w + lead for w in want]


def test_dealt_item_of_wrong_shape_rejected():
    def job(rt):
        rt.assistant.deal([("triple", (2,))])
        rt.assistant.get_matrix_triple(1, 1, 1)

    with pytest.raises(RuntimeError, match="session failed in party") as info:
        run_session(job, CODEC)
    err = info.value.__cause__
    assert isinstance(err, ProtocolError)
    assert "triple (2,)" in str(err) and "matrix (1, 1, 1)" in str(err)


def test_unused_dealt_material_fails_shutdown():
    def job(rt):
        rt.assistant.deal([("triple", (1,)), ("triple", (3,))])
        rt.assistant.get_triple((1,))

    with pytest.raises(RuntimeError, match="session failed in party") as info:
        run_session(job, CODEC)
    assert isinstance(info.value.__cause__, ProtocolError)
    assert "never used" in str(info.value.__cause__)
    assert "triple (3,)" in str(info.value.__cause__)


def test_unsent_deal_fails_shutdown():
    # A deal sends nothing by itself; the plan nobody took a request for
    # is still unused at the end of the session.
    tags = []

    def job(rt):
        rt.assistant.deal([("triple", (3,))])
        tags.append(rt.assistant._tag)

    with pytest.raises(RuntimeError, match="session failed in party") as info:
        run_session(job, CODEC)
    assert tags == [0, 0]
    assert isinstance(info.value.__cause__, ProtocolError)
    assert "never used" in str(info.value.__cause__)
    assert "triple (3,)" in str(info.value.__cause__)


def test_deal_rides_on_the_next_truncation():
    x = np.array([[1.5, -2.25, 0.0], [7.0, -0.5, 3.125]])

    def job(rt, sx):
        before = rt.assistant._tag
        rt.assistant.deal([("triple", (2, 3)), ("matrix", (2, 3, 4))])
        shifted = rt.trunc_values(sx.values, 3)
        material = rt.assistant.get_triple((2, 3)), rt.assistant.get_matrix_triple(2, 3, 4)
        return shifted, material, rt.assistant._tag - before

    res = run_shared(job, [x])
    (v0, (t0, m0), requests0), (v1, (t1, m1), requests1) = res.outputs[P0], res.outputs[P1]
    assert requests0 == requests1 == 1
    got = to_signed(rec(v0, v1, P64), P64).astype(np.float64) / (1 << (CODEC.lf - 3))
    assert np.max(np.abs(got - x)) <= 1.5 * QUANTUM * 8
    u, v, c = (rec(a, b, P64) for a, b in ((t0.a, t1.a), (t0.b, t1.b), (t0.c, t1.c)))
    assert np.array_equal(c, ring_mul(u, v, P64))
    a, b, c = (rec(p, q, P64) for p, q in ((m0.a, m1.a), (m0.b, m1.b), (m0.c, m1.c)))
    assert np.array_equal(c, ring_matmul(a, b, P64))


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
def test_diverging_plans_on_a_truncation_abort(backend):
    # The masked shares differ between the servers by design; the plans
    # riding after them must not.
    reached = []

    def job(rt, sx):
        rt.assistant.deal([("triple", (1,) if rt.party == 0 else (2,))])
        reached.append(rt.assistant._tag)
        rt.trunc_values(sx.values, 3)

    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_shared(job, [np.arange(4.0)], backend=backend)
    assert reached == [0, 0]
    assert isinstance(info.value.__cause__, ProtocolAbort)
    assert "diverging" in str(info.value.__cause__)


def test_truncation_head_announcing_too_many_words_aborts():
    # The head announces five masked words, but four follow it, the last
    # two of them a plan.
    def job(rt):
        tag = rt.assistant._next_tag()
        rt.assistant.channel.send(tag, np.asarray([OP_TRUNC, 3, 5, 11, 12, OP_TRIPLE, 1],
                                                  dtype=np.uint64))
        rt.assistant.channel.recv(tag)

    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_session(job, CODEC, backend="inproc")
    err = info.value.__cause__
    assert isinstance(err, ProtocolAbort)
    assert "announces 5 masked words" in str(err) and "holds 4" in str(err)


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
def test_diverging_deal_plans_abort(backend):
    def job(rt):
        last = ("triple", (2,)) if rt.party == 0 else ("matrix", (1, 1, 2))
        rt.assistant.deal([("triple", (1,)), last])
        rt.assistant.get_triple((1,))

    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_session(job, CODEC, backend=backend)
    assert isinstance(info.value.__cause__, ProtocolAbort)
    assert "diverging" in str(info.value.__cause__)


def test_malformed_plan_aborts():
    # Unknown opcode, an item cut short, and an empty plan.
    for words in ([1, 4, 9, 1], [2, 3, 3], []):
        with pytest.raises(ProtocolAbort):
            _parse_plan(np.asarray(words, dtype=np.uint64))
    assert _parse_plan(np.asarray([1, 4, 3, 5, 7], dtype=np.uint64)) == [(1, (4,)), (3, (5, 7))]


# ------------------------------------------------------ per-party generators

SEED = 65792


def test_one_seed_for_shares_and_session_reveals_nothing():
    # split_scenario and run_session may take the same seed. Party 0 holds
    # its share x0 of X and sees ss_dist's first opening d = X - a. Were the
    # assistant's first mask a equal to x0, d would be party 1's share and
    # party 0 would rebuild X as x0 + d.
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(-2.0, 2.0, (8, 3)), rng.normal(size=8))
    bundles = split_scenario(ds, ds.X[:2], ScenarioSplit(), CODEC, SEED)

    def job(rt):
        opened = []
        exchange = rt.net.peer.exchange

        def recording_exchange(tag, payload):
            theirs = exchange(tag, payload)
            opened.append(ring_add(payload, theirs, P64))
            return theirs

        rt.net.peer.exchange = recording_exchange
        ss_dist(rt, bundles[rt.party]["X"])
        return opened[0][:ds.X.size]  # d leads the first opening

    d = run_session(job, CODEC, seed=SEED).outputs[P0]
    x0, x1 = (bundles[i]["X"].values.ravel() for i in (P0, P1))
    assert not np.array_equal(d, x1)
    assert not np.array_equal(rec(x0, d, P64), CODEC.encode(ds.X).ravel())


def _first_words(rng, count=8):
    """The next ``count`` raw words of a generator, leaving it untouched."""
    return copy.deepcopy(rng).bit_generator.random_raw(count)


def test_assistant_generator_holds_no_seed_and_cannot_rebuild_offsets(monkeypatch):
    given = []

    def spy(net, params, rng, keys):
        given.append(copy.deepcopy((rng, keys)))  # their state before the first draw
        serve_assistant(net, params, rng, keys)

    monkeypatch.setattr(session, "serve_assistant", spy)
    res = run_shared(lambda rt, a, b: (ss_mul(rt, a, b), rt._offsets.copy()),
                     [np.arange(4.0), np.ones(4)], seed=SEED)
    rng, keys = given[0]
    assert isinstance(rng, np.random.Generator)
    for g in (rng, *keys):
        entropy = getattr(g.bit_generator.seed_seq, "entropy", None)
        assert entropy is None or SEED not in np.ravel(entropy).tolist()
    offsets = res.outputs[P1][1]
    assert offsets.size == session.TRUNC_OFFSET_BLOCK
    # Neither the assistant's stream, nor either dealing key, nor the pair
    # generator the two servers once shared, keyed by the seed and the tag
    # b"trunc", gives them.
    pair = np.random.default_rng([SEED, int.from_bytes(b"trunc", "big")])
    for candidate in (rng, *keys, pair):
        rebuilt = PartyRuntime(P1, None, CODEC, None, candidate)._trunc_offsets(offsets.size)
        assert not np.array_equal(rebuilt, offsets)


def test_each_server_gets_only_its_own_dealing_key(monkeypatch):
    # A server's thread gets its own generator and its own dealing key;
    # the assistant's gets its generator and both keys.
    servers, assistant = {}, []

    def runtime_spy(party, net, codec, client, rng, div=None):
        servers[party] = [_first_words(rng), _first_words(client.key)]
        return PartyRuntime(party, net, codec, client, rng, div)

    def assistant_spy(net, params, rng, keys):
        assistant.append([_first_words(rng), *(_first_words(key) for key in keys)])
        serve_assistant(net, params, rng, keys)

    monkeypatch.setattr(session, "PartyRuntime", runtime_spy)
    monkeypatch.setattr(session, "serve_assistant", assistant_spy)
    run_shared(lambda rt, a, b: ss_mul(rt, a, b), [np.arange(4.0), np.ones(4)], seed=SEED)
    deal = [_first_words(session.keyed_rng(SEED, f"deal/{i}")) for i in (P0, P1)]
    own = {i: _first_words(session.keyed_rng(SEED, i)) for i in (P0, P1)}
    for i in (P0, P1):
        mine, key = servers[i]
        assert np.array_equal(mine, own[i]) and np.array_equal(key, deal[i])
        for other in (deal[1 - i], own[1 - i]):
            assert not any(np.array_equal(got, other) for got in servers[i])
    rng, key0, key1 = assistant[0]
    assert np.array_equal(key0, deal[P0]) and np.array_equal(key1, deal[P1])
    assert not any(np.array_equal(rng, w) for w in (*deal, *own.values()))


def test_party0_draws_no_truncation_offsets():
    def job(rt, a, b):
        ss_mul(rt, a, b)
        return rt._offsets.size

    res = run_shared(job, [np.arange(4.0), np.ones(4)], seed=SEED)
    assert res.outputs[P0] == 0
    assert res.outputs[P1] == session.TRUNC_OFFSET_BLOCK


# ------------------------------------------------------------ model masks

def test_kept_triple_on_the_limb_path():
    # A kept triple pairs a fresh A with the mask B kept under its key. At
    # this shape its C = A @ B runs on ring_matmul's limb path; the native
    # uint64 product is the oracle, and the squared row norms are exact.
    assert _use_limbs(64, 100, 101)
    kept = KeptMasks()
    rng = np.random.default_rng(9)
    b0, b1 = gen_material(rng, "model_mask", (3, 100, 101, 0), P64, kept)
    b = rec(b0.b, b1.b, P64)
    assert np.array_equal(kept[3], b)
    for norms in (0, 1):
        s0, s1 = gen_material(rng, "kept_triple", (3, 64, 100, 101, norms), P64, kept)
        a = rec(s0.a, s1.a, P64)
        assert a.shape == (64, 100)
        assert np.array_equal(rec(s0.c, s1.c, P64), a @ b)
        if norms:
            assert np.array_equal(rec(s0.s, s1.s, P64), (a * a).sum(axis=1))
        else:
            assert s0.s is None and s1.s is None
    assert np.array_equal(kept[3], b)


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
@pytest.mark.parametrize("key, shape, cause", [
    (7, (3, 4), "names model key 7, which is not kept"),
    (1, (3, 5), "names model key 1 as 3 x 5, but its kept mask is 3 x 4"),
    (None, None, "model key 1 is already kept"),
], ids=["unknown-key", "wrong-shape", "reused-key"])
def test_bad_model_key_aborts(backend, key, shape, cause):
    def job(rt):
        mine = rt.assistant.new_key()
        rt.assistant.get_model_mask(mine, (3, 4))
        if key is None:  # the same key dealt a second time
            rt.assistant.get_model_mask(mine, (3, 4))
        else:
            rt.assistant.get_kept_triple(key, 2, shape)

    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_session(job, CODEC, backend=backend)
    assert isinstance(info.value.__cause__, ProtocolAbort)
    assert cause in str(info.value.__cause__)


def test_fresh_mask_of_a_kept_triple_is_single_use():
    def job(rt, su, sv):
        key = rt.assistant.new_key()
        rt.assistant.deal([("model_mask", (key, 3, 2, 0)), ("kept_triple", (key, 2, 3, 2, 0))])
        (v,) = open_model_masks(rt, [(key, sv)])
        t = rt.assistant.get_kept_triple(key, 2, (3, 2))
        z, _ = _kept_product(rt, su, v, t)
        with pytest.raises(ProtocolError, match="reused"):
            _kept_product(rt, su, v, t)
        return SharedArray(rt.party, z, su.codec, 2 * su.scale)

    u = np.arange(6.0).reshape(2, 3) / 4
    v = np.arange(6.0).reshape(3, 2) - 2
    res = run_shared(job, [u, v])
    got = reconstruct(res.outputs[P0], res.outputs[P1])
    assert np.array_equal(got, u @ v)


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
@pytest.mark.parametrize("keys, n, k, cause", [
    ((1, 2, 7), 4, 2, "an LDL column names model key 7, which is not kept"),
    ((1, 2, 3), 5, 2, "names model key 1 as 5 x 5, but its kept mask is 4 x 4"),
    ((1, 2, 4), 4, 2, "names model key 4 as 4 x 4, but its kept mask is 3 x 4"),
    ((1, 2, 3), 4, 0, "names column 0 of 4"),
    ((1, 2, 3), 4, 4, "names column 4 of 4"),
], ids=["unknown-key", "other-n", "other-shape", "k-0", "k-n"])
def test_bad_ldl_column_aborts(backend, keys, n, k, cause):
    # Three 4 x 4 lower masks under keys 1 .. 3 and a 3 x 4 one under 4.
    def job(rt):
        a = rt.assistant
        for _ in range(3):
            a.get_model_mask(a.new_key(), (4, 4), lower=True)
        a.get_model_mask(a.new_key(), (3, 4))
        a.get_ldl_column(keys, n, k)

    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_session(job, CODEC, backend=backend)
    assert isinstance(info.value.__cause__, ProtocolAbort)
    assert cause in str(info.value.__cause__)


@pytest.mark.parametrize("backend", ["inproc", "sockets"])
@pytest.mark.parametrize("case", ["L-after-the-last-column", "C-after-the-last-column",
                                  "V-after-its-kept-triple"])
def test_a_released_lower_mask_is_not_kept(backend, case):
    # Three 4 x 4 lower masks under keys 1 .. 3 as L, C and V. Column 3,
    # the last, releases L's and C's; V's stays for one kept triple, the
    # final product's, and goes after it.
    def job(rt):
        a = rt.assistant
        for _ in range(3):
            a.get_model_mask(a.new_key(), (4, 4), lower=True)
        a.get_ldl_column((1, 2, 3), 4, 3)
        if case.startswith("L"):
            a.get_ldl_column((1, 2, 3), 4, 2)
        elif case.startswith("C"):
            a.get_kept_triple(2, 2, (4, 4))
        else:
            a.get_kept_triple(3, 2, (4, 4))
            a.get_kept_triple(3, 2, (4, 4))

    key = {"L": 1, "C": 2, "V": 3}[case[0]]
    with pytest.raises(RuntimeError, match="session failed in assistant") as info:
        run_session(job, CODEC, backend=backend)
    assert isinstance(info.value.__cause__, ProtocolAbort)
    assert f"names model key {key}, which is not kept" in str(info.value.__cause__)


def test_an_inversion_releases_its_masks_and_a_model_keeps_its_own(monkeypatch):
    # After a GP model's construction and a prediction batch, the assistant
    # keeps the model's two masks and none of the inversion's three.
    kept = []

    class Watched(KeptMasks):
        def __init__(self):
            super().__init__()
            kept.append(self)

    monkeypatch.setattr(offline, "KeptMasks", Watched)
    rng = np.random.default_rng(8)
    x, y, q = rng.uniform(-1, 1, (6, 2)), rng.normal(size=6), rng.uniform(-1, 1, (3, 2))
    cfg = KernelConfig(kind="se", noise_variance=0.1)

    def job(rt, xs, ys, qs):
        model = pp_gpr_construct(rt, xs, ys, cfg, ExpParams(), policy="clamp")
        pp_gpr_predict(rt, model, qs, ExpParams(), policy="clamp")
        return model.R.key, model.Xt.key

    res = run_shared(job, [x, y, q])
    (masks,) = kept
    assert sorted(masks) == sorted(res.outputs[P0]) and not masks.lower


def test_lower_model_mask_is_square():
    with pytest.raises(ValueError, match="a lower mask is square"):
        gen_material(np.random.default_rng(0), "model_mask", (1, 3, 4, 1), P64)
