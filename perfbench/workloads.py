"""Benchmark workloads: synthetic data, one timed session, and its checks.

Every session shares the training data (``data.split_scenario``), starts
the three parties (``session.run_session``), builds a model on both
servers and then answers prediction batches for one model user in a
closed loop: the user shares a batch, waits for both servers' answers,
opens and checks them against the plaintext oracle, and only then sends
the next batch.
"""

from __future__ import annotations

import math
import queue
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ssgpr import analysis, data, gpr, session, sharing
from ssgpr.protocols import ExpParams
from ssgpr.ring import FixedPointCodec, RingParams

CODEC = FixedPointCodec(RingParams(64, 26))
EXP = ExpParams()
POLICY = "clamp"
DIM = 10
# Correctness gate: every opened posterior mean and variance must lie
# within this absolute distance of gpr.gpr_predict_plaintext. The outputs
# are on the scale of the standardised targets and of signal_variance=1.
TOLERANCE = 1e-3
# A server waiting this long for the model user's next batch gives up.
QUEUE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str
    n: int
    backend: str
    batch_size: int
    batches: int


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("construct-se-n200", "se", 200, "inproc", 10, 10),
    Workload("predict-bulk-se-n100", "se", 100, "inproc", 500, 12),
    Workload("matern-n100-sockets", "matern32", 100, "sockets", 10, 10),
]}


@dataclass
class Inputs:
    """Everything a run derives from its seed, before any timing."""

    workload: Workload
    dataset: data.Dataset
    kernel: gpr.KernelConfig
    div: session.DivisionConfig
    batches: list
    oracles: list


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Standardised 10-d data with a smooth target, from ``seed`` alone."""
    rng = np.random.default_rng([seed, workload.n, DIM])
    n_test = workload.batch_size * workload.batches
    mix = rng.normal(size=(DIM, DIM)) / math.sqrt(DIM)
    raw = rng.normal(size=(workload.n + n_test, DIM)) @ (np.eye(DIM) + 0.5 * mix)
    w = rng.normal(size=DIM) / math.sqrt(DIM)
    y_all = np.sin(2.0 * raw @ w) + 0.1 * rng.normal(size=len(raw))
    ds, prep = data.standardize(data.Dataset(raw[:workload.n], y_all[:workload.n]))
    x_test = prep.apply_x(raw[workload.n:])

    # Public domain of the Matern square root, from a bound the data
    # owners declare: each knows its rows' norms, and the largest squared
    # distance is at most (2 * max norm)^2, so sqrt_hi = 3 * 4 * r^2 with
    # r rounded up to a whole number.
    radius = math.ceil(float(np.linalg.norm(np.vstack([ds.X, x_test]), axis=1).max()))
    sqdist_bound = 4.0 * radius ** 2
    div = session.DivisionConfig(sqrt_hi=3.0 * sqdist_bound)
    actual = float(gpr.sqdist_matrix(np.vstack([ds.X, x_test]), ds.X).max())
    if actual > sqdist_bound:
        raise ValueError(f"declared squared-distance bound {sqdist_bound} is below "
                         f"the data's {actual:.3f}")

    kernel = gpr.KernelConfig(kind=workload.kernel, length_scale=math.sqrt(DIM),
                              signal_variance=1.0, noise_variance=0.1)
    batches = np.split(x_test, workload.batches)
    oracles = [gpr.gpr_predict_plaintext(ds.X, ds.y, b, kernel) for b in batches]
    return Inputs(workload, ds, kernel, div, batches, oracles)


class CheckFailed(RuntimeError):
    """An output or an exact count did not match its reference."""


@dataclass
class SessionRecord:
    setup_s: float = 0.0
    construct_s: float = 0.0
    run_s: float = 0.0
    predict_stage_s: float = 0.0
    batch_s: list = field(default_factory=list)
    points: int = 0
    counts: dict = field(default_factory=dict)
    max_err_mean: float = 0.0
    max_err_var: float = 0.0


def _party_counts(rt) -> dict:
    # The assistant client numbers its requests, so its last tag is the
    # number of requests made so far.
    return {"rounds": rt.stats.rounds,
            "assistant_requests": rt.assistant._tag,
            "per_protocol": rt.stats.summary()["per_protocol"]}


def setup_probe(inputs: Inputs, seed: int) -> float:
    """Set-up alone: share the data and start the parties; jobs return at once."""
    w = inputs.workload
    started = {}
    t0 = time.perf_counter()
    data.split_scenario(inputs.dataset, np.zeros((0, DIM)), data.ScenarioSplit(),
                        CODEC, seed)

    def job(rt):
        started[rt.party] = time.perf_counter()

    session.run_session(job, CODEC, seed=seed, backend=w.backend, div=inputs.div)
    return max(started.values()) - t0


def run_one(inputs: Inputs, seed: int) -> SessionRecord:
    """One full session; raises CheckFailed or the session's error on failure."""
    w = inputs.workload
    rec = SessionRecord()
    started, construct, counts = {}, {}, {}
    inboxes = (queue.Queue(), queue.Queue())
    outbox = queue.Queue()
    stop = threading.Event()
    user_error = []

    def job(rt):
        started[rt.party] = time.perf_counter()
        mine = bundles[rt.party]
        t0 = time.perf_counter()
        model = gpr.pp_gpr_construct(rt, mine["X"], mine["y"], inputs.kernel, EXP,
                                     policy=POLICY)
        construct[rt.party] = time.perf_counter() - t0
        outbox.put((rt.party, None))
        while True:
            x_star = inboxes[rt.party].get(timeout=QUEUE_TIMEOUT_S)
            if x_star is None:
                break
            outbox.put((rt.party, gpr.pp_gpr_predict(rt, model, x_star, EXP,
                                                     policy=POLICY)))
        counts[rt.party] = _party_counts(rt)

    def model_user():
        rng = np.random.default_rng([seed, 0x75736572])

        def answers():
            got = {}
            while len(got) < 2:
                try:
                    party, answer = outbox.get(timeout=0.2)
                except queue.Empty:
                    if stop.is_set():
                        raise RuntimeError("session ended before answering") from None
                    continue
                got[party] = answer
            return got

        try:
            answers()  # both servers have built the model
            stage0 = time.perf_counter()
            for x, oracle in zip(inputs.batches, inputs.oracles):
                s0, s1 = sharing.share_reals(x, CODEC, rng)
                t0 = time.perf_counter()
                inboxes[0].put(s0)
                inboxes[1].put(s1)
                got = answers()
                rec.batch_s.append(time.perf_counter() - t0)
                mean = sharing.reconstruct(got[0][0], got[1][0])
                var = sharing.reconstruct(got[0][1], got[1][1])
                rec.max_err_mean = max(rec.max_err_mean,
                                       float(np.max(np.abs(mean - oracle.mean))))
                rec.max_err_var = max(rec.max_err_var,
                                      float(np.max(np.abs(var - oracle.variance))))
                rec.points += len(x)
            rec.predict_stage_s = time.perf_counter() - stage0
        except BaseException as exc:  # noqa: BLE001 - reported by run_one
            user_error.append(exc)
        finally:
            inboxes[0].put(None)
            inboxes[1].put(None)

    t_start = time.perf_counter()
    bundles = data.split_scenario(inputs.dataset, np.zeros((0, DIM)),
                                  data.ScenarioSplit(), CODEC, seed)
    user = threading.Thread(target=model_user, daemon=True)
    user.start()
    try:
        result = session.run_session(job, CODEC, seed=seed, backend=w.backend,
                                     div=inputs.div)
    finally:
        stop.set()
        user.join()
    rec.run_s = time.perf_counter() - t_start
    if user_error:
        raise user_error[0]
    rec.setup_s = max(started.values()) - t_start
    rec.construct_s = max(construct.values())
    rec.counts = exact_counts(inputs, counts, result.stats)
    if rec.max_err_mean > TOLERANCE or rec.max_err_var > TOLERANCE:
        raise CheckFailed(f"outputs diverge from the plaintext oracle: max |mean error| "
                          f"{rec.max_err_mean:.3g}, max |variance error| "
                          f"{rec.max_err_var:.3g}, tolerance {TOLERANCE:g}")
    return rec


def exact_counts(inputs: Inputs, counts: dict, stats: dict) -> dict:
    """Whole-session counts, after checking them against the closed forms."""
    w = inputs.workload
    c0, c1 = counts[0], counts[1]
    for key in ("rounds", "assistant_requests", "per_protocol"):
        if c0[key] != c1[key]:
            raise CheckFailed(f"servers disagree on {key}: {c0[key]} vs {c1[key]}")
    per = c0["per_protocol"]
    want = analysis.expected_rounds("matinv", w.n)
    if per.get("pp_matinv", {}).get("rounds") != want:
        raise CheckFailed(f"pp_matinv took {per.get('pp_matinv')} rounds, closed form {want}")
    # pp_exp runs once per kernel evaluation: construction plus each batch.
    exp_calls = 1 + w.batches
    if per.get("pp_exp", {}).get("rounds") != exp_calls * analysis.expected_rounds("pp_exp"):
        raise CheckFailed(f"pp_exp took {per.get('pp_exp')} rounds over {exp_calls} calls, "
                          "closed form 1 each")
    s0, s1 = stats[0], stats[1]
    rounds, req = c0["rounds"], c0["assistant_requests"]
    return {
        "peer_rounds": rounds,
        "assistant_rtts": req,
        # Per server: one message per exchange, per request, and the shutdown.
        "messages": rounds + req + 1,
        "online_bytes": 8 * (s0.online_words_sent + s1.online_words_sent) + 16 * 2 * rounds,
        # Each server sends req + 1 messages to the assistant and gets req replies.
        "assistant_bytes": 8 * (s0.offline_words + s1.offline_words) + 16 * 2 * (2 * req + 1),
    }


def warm_up(workload: Workload):
    """A tiny untimed session so lazy imports and first calls are paid."""
    small = Workload(workload.name, workload.kernel, 8, workload.backend, 2, 1)
    run_one(make_inputs(small, 0), 0)


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)
