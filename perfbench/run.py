"""End-to-end and per-layer benchmark of private GP construction and prediction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct-se-n200 --seed 1 --seconds 35 --trace 0

It imports the package from ``src/`` of the checkout, pins itself to one
CPU, and runs whole sessions of the workload back to back until
``--seconds`` have passed. Every session's outputs are checked against the
plaintext oracle and its round counts against the closed forms; a session
that fails a check or raises is counted as failed and gives no timing.

The last line of standard output is the result, one JSON object. With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` traced
and untraced sessions alternate, and it holds the per-layer metrics of the
traced ones plus the tracing overhead. The line before it records the host
and the sample count of every timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT_DIR = os.path.join(HERE, "out")
# Set-up takes about a millisecond and follows the host's speed drift, so
# before each session a run also measures set-up alone this many times;
# the samples then cover the whole run rather than one moment of it.
SETUP_PROBES_PER_SESSION = 4
# A traced run goes on past --seconds until it has one traced and one
# untraced session, but never longer than this.
GRACE_S = 60.0
# A run that has not finished by then has a hung session; it reports a
# failed result and exits before the 180 s a run may take.
WATCHDOG_S = 170.0

# The two servers and the assistant are threads that hand the GIL to one
# another thousands of times per second. Unpinned, each wake-up may cross
# vCPUs: on a 2-vCPU x86-64 VM one n=200 construction took 4.3-5.4 s
# unpinned against 2.9-3.6 s pinned, and up to 15 s on a busier day.
# Pinning hides cross-core wake-up cost, so an optimisation that only
# removes that cost needs an unpinned workload added to the benchmark
# before it can show. Pinned or not, that VM's own speed drifted by
# 10-20% over tens of seconds, which sets the floor on run-to-run spread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")


def pin_to_one_cpu() -> dict:
    before = sorted(os.sched_getaffinity(0))
    cpu = before[0]
    os.sched_setaffinity(0, {cpu})
    return {"affinity_before": before, "affinity": sorted(os.sched_getaffinity(0))}


def host_record(pinning: dict) -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), **pinning,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def end_to_end(records, setup_samples, counts) -> tuple[dict, dict]:
    batches = [b for r in records for b in r.batch_s]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "construct_s": (statistics.median(r.construct_s for r in records), "s"),
        "predict_batch_s.p50": (statistics.median(batches), "s"),
        "predict_batch_s.p90": (statistics.quantiles(batches, n=10, method="inclusive")[-1], "s"),
        "predict_qps": (sum(r.points for r in records)
                        / sum(r.predict_stage_s for r in records), "1/s"),
        "run_s": (statistics.median(r.run_s for r in records), "s"),
        "peer_rounds": (counts["peer_rounds"], "count"),
        "assistant_rtts": (counts["assistant_rtts"], "count"),
        "messages": (counts["messages"], "count"),
        "online_mb": (counts["online_bytes"] / 1e6, "MB"),
        "assistant_mb": (counts["assistant_bytes"] / 1e6, "MB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    samples = {"setup_s": len(setup_samples), "construct_s": len(records),
               "predict_batch_s": len(batches), "predict_qps": len(batches),
               "run_s": len(records)}
    return metrics, samples


def per_layer(tracers, traced, untraced, workload, counts) -> tuple[dict, dict]:
    """Per-session layer figures (median over traced sessions)."""
    from workloads import CheckFailed
    from ssgpr import analysis
    from ssgpr.transport import P0, P1

    protocol_fns = ["ss_mul", "ss_matmul", "ss_dist", "pp_exp", "ss_reciprocal",
                    "ss_sqrt", "pp_cholesky_ldl", "pp_forward", "pp_backward", "pp_matinv"]
    gpr_fns = ["pp_kernel", "pp_gpr_construct", "pp_gpr_predict"]
    offline_ops = ["triple", "matrix_triple", "exp_mask", "trunc"]

    def one(tr) -> dict:
        # Exact-count checks made per call, on both servers.
        want = analysis.expected_rounds("matinv", workload.n)
        for name, expect in (("protocols.pp_matinv", {want}), ("protocols.pp_exp", {1})):
            if tr.call_rounds(name) != expect:
                raise CheckFailed(f"{name} per-call rounds {sorted(tr.call_rounds(name))}, "
                                  f"closed form {sorted(expect)}")
        for name in {n for t in tr.threads for n in t.rounds}:
            if tr.party_rounds(P0, name) != tr.party_rounds(P1, name):
                raise CheckFailed(f"servers disagree on {name} rounds")
        for party in (P0, P1):
            sends = tr.total_calls("transport.Channel.send", party)
            if sends != counts["messages"]:
                raise CheckFailed(f"server {party} sent {sends} traced messages, session "
                                  f"counters imply {counts['messages']}")
        sent = tr.total_extra("transport.Channel.send")
        if sent != counts["online_bytes"] + counts["assistant_bytes"]:
            raise CheckFailed(f"traced {sent} bytes, session counters imply "
                              f"{counts['online_bytes'] + counts['assistant_bytes']}")

        # Figures are those of server P0; P1 runs the same code. Only
        # offline.gen_s is the assistant thread's.
        assistant = [t for t in tr.threads if t.root == "offline.serve_assistant"]
        m = {
            "transport.messages": (tr.total_calls("transport.Channel.send", P0), "count"),
            "transport.bytes": (tr.total_extra("transport.Channel.send", P0), "B"),
            "transport.send_s": (tr.total_seconds("transport.Channel.send", P0), "s"),
            "transport.recv_wait_s": (tr.total_seconds("transport.Channel.recv", P0), "s"),
        }
        request_s = 0.0
        for op in offline_ops:
            name = "offline.AssistantClient." + ("trunc" if op == "trunc" else f"get_{op}")
            m[f"offline.requests.{op}"] = (tr.total_calls(name, P0), "count")
            request_s += tr.total_seconds(name, P0)
        m["offline.request_s"] = (request_s, "s")
        m["offline.gen_s"] = (sum(t.seconds("offline.serve_assistant")
                                  - t.seconds("transport.Channel.recv")
                                  - t.seconds("transport.Channel.send")
                                  for t in assistant), "s")
        for metric, name in (("session.trunc_values", "session.PartyRuntime.trunc_values"),
                             ("ring.ring_matmul", "ring.ring_matmul"),
                             ("ring.ring_mul", "ring.ring_mul")):
            m[f"{metric}.calls"] = (tr.total_calls(name, P0), "count")
            m[f"{metric}.s"] = (tr.total_seconds(name, P0), "s")
        m["ring.ring_matmul.macs"] = (tr.total_extra("ring.ring_matmul", P0), "count")
        m["sharing.SharedArray.new"] = (tr.total_calls("sharing.SharedArray.__init__", P0),
                                        "count")
        m["sharing.SharedArray.s"] = (tr.total_seconds("sharing.SharedArray.__init__", P0), "s")
        for layer, fns, fields in (("protocols", protocol_fns, ("calls", "s", "self_s", "rounds")),
                                   ("gpr", gpr_fns, ("s", "self_s", "rounds"))):
            for fn in fns:
                name = f"{layer}.{fn}"
                values = {"calls": (tr.total_calls(name, P0), "count"),
                          "s": (tr.total_seconds(name, P0), "s"),
                          "self_s": (tr.total_self_seconds(name, P0), "s"),
                          "rounds": (tr.party_rounds(P0, name), "count")}
                for f in fields:
                    m[f"{name}.{f}"] = values[f]
        m["protocols.pp_exp.elements"] = (tr.total_extra("protocols.pp_exp", P0), "count")
        m["data.split_scenario.s"] = (tr.total_seconds("data.split_scenario"), "s")
        return m

    per_session = [one(tr) for tr in tracers]
    metrics = {k: (statistics.median(s[k][0] for s in per_session), per_session[0][k][1])
               for k in per_session[0]}
    metrics["trace.overhead_s"] = (statistics.median(r.construct_s for r in traced)
                                   - statistics.median(r.construct_s for r in untraced), "s")
    return metrics, {"traced_sessions": len(traced), "untraced_sessions": len(untraced)}


def write_spans(path, host, args, tracers, metrics):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"host": host, "workload": args.workload, "seed": args.seed,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "sessions": [tr.span_log() for tr in tracers]}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ssgpr")):
        print(f"no ssgpr sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, CheckFailed, log, make_inputs, run_one, setup_probe, warm_up
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = host_record(pin_to_one_cpu())
    inputs = make_inputs(workload, args.seed)
    tally = {"attempted": 0, "failed": 0}

    def give_up():
        log(f"run still going after {WATCHDOG_S:.0f} s: a session is hung")
        print(json.dumps({"correct": False, "attempted": tally["attempted"] + 1,
                          "failed": tally["failed"] + 1, "metrics": {}}), flush=True)
        os._exit(0)

    watchdog = threading.Timer(WATCHDOG_S, give_up)
    watchdog.daemon = True
    watchdog.start()

    def attempt(label, fn, *fn_args, operation=True):
        """Run one checked session; a failure is counted and yields None.

        Set-up probes answer no query, so only a failed one is counted.
        """
        try:
            result = fn(*fn_args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            tally["attempted"] += 1
            tally["failed"] += 1
            log(f"{label} failed: {type(exc).__name__}: {exc}"
                + (f" (caused by {exc.__cause__!r})" if exc.__cause__ else ""))
            return None
        tally["attempted"] += operation
        return result

    attempt("warm-up session", warm_up, workload)
    setup_samples = []
    records, traced, untraced, tracers = [], [], [], []
    counts = None

    def checked_session(seed, tracer):
        nonlocal counts
        if tracer is None:
            rec = run_one(inputs, seed)
        else:
            with tracer.installed():
                rec = run_one(inputs, seed)
        if counts is None:
            counts = rec.counts
        elif rec.counts != counts:
            raise CheckFailed(f"session counts {rec.counts} differ from the "
                              f"first session's {counts}")
        return rec

    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and (not args.trace or (traced and untraced)):
            break
        if now >= deadline + GRACE_S or (tally["failed"] >= 3 and not records):
            break
        index += 1
        seed = (args.seed << 16) + (index << 8)
        for i in range(SETUP_PROBES_PER_SESSION):
            probe = attempt(f"set-up probe {index}.{i}", setup_probe, inputs,
                            seed + 1 + i, operation=False)
            if probe is not None:
                setup_samples.append(probe)
        tracer = Tracer() if args.trace and index % 2 == 0 else None
        rec = attempt(f"session {index}", checked_session, seed, tracer)
        if rec is None:
            continue
        records.append(rec)
        setup_samples.append(rec.setup_s)
        if tracer is None:
            untraced.append(rec)
        else:
            traced.append(rec)
            tracers.append(tracer)

    watchdog.cancel()
    metrics, samples = {}, {}
    if args.trace and traced and untraced:
        try:
            metrics, samples = per_layer(tracers, traced, untraced, workload, counts)
        except CheckFailed as exc:
            tally["failed"] += 1
            log(f"traced check failed: {exc}")
        if metrics:
            write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                        host, args, tracers, metrics)
    elif not args.trace and records:
        metrics, samples = end_to_end(records, setup_samples, counts)

    correct = tally["failed"] == 0 and bool(metrics)
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "samples": samples,
                      "construct_s_per_session": [r.construct_s for r in records],
                      "max_abs_error": {"mean": max((r.max_err_mean for r in records), default=None),
                                        "variance": max((r.max_err_var for r in records),
                                                        default=None)}}))
    print(json.dumps({"correct": correct, **tally,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
