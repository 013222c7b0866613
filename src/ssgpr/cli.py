"""Command-line driver: end-to-end runs, benchmarks, and analysis reports.

Subcommands: run-gpr, bench-exp, bench-matinv, analyze-leakage and
validate-params. Configuration is a flat key=value file whose keys are
those of ``DEFAULTS``; the flags --scenario, --kernel, --seed, --backend
and (for run-gpr) --test-size override their keys. Metrics are emitted
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from .analysis import (construct_assistant_round_trips, construct_rounds, expected_rounds,
                       leakage_enumerate, matinv_assistant_round_trips, matinv_online_words,
                       predict_assistant_round_trips, predict_rounds, reciprocal_steps,
                       validate_exp_params)
from .data import Dataset, ScenarioSplit, ingest_csv, read_matrix, split_scenario, standardize
from .gpr import (MATERN32, KernelConfig, Predictions, gpr_predict_plaintext,
                  kernel_matrix_plaintext, loss_metrics, pp_gpr_construct, pp_gpr_predict,
                  sqdist_matrix)
from .protocols import ExpParams, division_steps, pp_exp, pp_matinv, sqrt_domain, sqrt_steps
from .ring import FixedPointCodec, RingParams
from .session import DivisionConfig, run_session
from .sharing import reconstruct, share_reals
from .transport import P0, P1

DEFAULTS = {
    "l": 64,
    "lf": 26,
    "u_min": -4.0,
    "r_max": 1.25,
    "kernel": "se",
    "length_scale": 1.0,
    "signal_variance": 1.0,
    "noise_variance": 0.1,
    "scenario": "hds",
    "backend": "inproc",
    "seeds": [0],
    "sqrt_hi": 16.0,
    "normalize": True,
    "exp_policy": "clamp",
    "test_size": 0,
    "has_header": False,
}


def load_config(path: str | None) -> dict:
    """Flat key=value configuration with '#' comments."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in cfg:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                cfg[key] = _coerce(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _coerce(key: str, value: str):
    ref = DEFAULTS[key]
    if isinstance(ref, bool):
        word = value.lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key} must be 1/true/yes/on or 0/false/no/off, got {value!r}")
    try:
        if isinstance(ref, int):
            return int(value)
        if isinstance(ref, float):
            return float(value)
        if isinstance(ref, list):
            return [int(v) for v in value.replace(",", " ").split()]
    except ValueError:
        kind = {int: "an integer", float: "a number", list: "a list of integers"}[type(ref)]
        raise ValueError(f"{key} must be {kind}, got {value!r}") from None
    return value


def session_pieces(cfg: dict):
    codec = FixedPointCodec(RingParams(cfg["l"], cfg["lf"]))
    exp_params = ExpParams(u_min=cfg["u_min"], r_max=cfg["r_max"])
    if not cfg["seeds"]:
        raise ValueError("seeds must list at least one seed")
    div = DivisionConfig(sqrt_hi=cfg["sqrt_hi"])
    kernel = _kernel(cfg)
    report = validate_exp_params(exp_params, codec.params)
    if not report.accepted:
        raise ValueError("exponentiation parameters fail the correctness bound "
                         "u_min <= 0 < r_max, (r_max - u_min)*log2(e) <= l_f < (l-1)/2: "
                         f"required l_f >= {report.required_lf:.2f}")
    return codec, exp_params, div, kernel


def _kernel(cfg: dict) -> KernelConfig:
    return KernelConfig(kind=cfg["kernel"], length_scale=cfg["length_scale"],
                        signal_variance=cfg["signal_variance"],
                        noise_variance=cfg["noise_variance"])


def run_gpr(dataset: Dataset, x_star, cfg: dict) -> dict:
    """One full model construction + prediction per seed, with metrics."""
    codec, exp_params, div, kernel = session_pieces(cfg)
    steps = division_steps(kernel.pivot_domain, codec.lf, div.matinv)
    ds, prep = standardize(dataset, cfg["normalize"])
    xs = prep.apply_x(x_star)
    roots = None  # the square root's Newton steps, on Matern-3/2
    if kernel.kind == MATERN32:
        roots = sqrt_steps(div.sqrt_hi, codec.params)
        # The square root takes 3 d for every training-training and
        # test-training squared distance d, and its domain ends at sqrt_hi.
        points = np.vstack([ds.X, np.atleast_2d(xs)])
        dist = sqdist_matrix(points, ds.X)
        need = 3.0 * float(dist.max())
        if div.sqrt_hi < need:
            raise ValueError(f"sqrt_hi = {div.sqrt_hi:g} is below 3 x the largest squared "
                             f"distance between the standardised points, {need:.4g}; "
                             "the Matern square root would leave its domain")
        # Below the floor of its domain, 0 < 3 d < x_lo, the kernel value
        # opens wrong (a sweep of ss_sqrt opened wrong values from 0.999 x
        # x_lo down and none above it; the 1% margin covers the shared d's
        # noise). An exact zero opens right, and the gram's diagonal is public.
        bound = 1.01 * sqrt_domain(div.sqrt_hi, codec.params)[0]
        np.fill_diagonal(dist, np.inf)
        rows, cols = np.nonzero(3.0 * dist < bound)
        exact = ((points[rows] - ds.X[cols]) ** 2).sum(axis=1)  # 0 for equal points
        if np.any(exact > 0):
            raise ValueError(f"squared distance {exact[exact > 0].min():.4g} between "
                             f"standardised points is below {bound / 3:.4g}, where 3 x "
                             "it would wrap the Matern square root; drop or merge the "
                             "near-duplicate points")
    oracle = gpr_predict_plaintext(ds.X, ds.y, xs, kernel)
    oracle = Predictions(oracle.mean + prep.y_shift, oracle.variance)
    split = ScenarioSplit(scenario=cfg["scenario"])

    runs = []
    for seed in cfg["seeds"]:
        bundles = split_scenario(ds, xs, split, codec, seed)

        def job(rt, bundles=bundles):
            b = bundles[rt.party]

            def counts():
                return time.perf_counter(), rt.stats.rounds, rt.assistant.requests

            start = counts()
            model = pp_gpr_construct(rt, b["X"], b["y"], kernel, exp_params,
                                     policy=cfg["exp_policy"], y_shift=prep.y_shift)
            built = counts()
            mean, var = pp_gpr_predict(rt, model, b["x_star"], exp_params,
                                       policy=cfg["exp_policy"])
            done = counts()
            # (seconds, peer rounds, assistant round trips) of construction
            # and of the batch.
            return (mean, var, [y - x for x, y in zip(start, built)],
                    [y - x for x, y in zip(built, done)])

        result = run_session(job, codec, seed=seed, backend=cfg["backend"], div=div)
        mean = reconstruct(result.outputs[P0][0], result.outputs[P1][0])
        var = reconstruct(result.outputs[P0][1], result.outputs[P1][1])
        losses = loss_metrics(oracle, Predictions(mean, var))
        stats = result.stats[P0].summary()
        construct, predict = result.outputs[P0][2], result.outputs[P0][3]
        # (report key, what, unit, recorded, closed form)
        checks = [
            ("matinv_rounds", "the matrix inversion", "peer rounds",
             stats["per_protocol"].get("pp_matinv", {}).get("rounds", 0),
             expected_rounds("matinv", ds.n, div, steps)),
            ("construct_rounds", "model construction", "peer rounds", construct[1],
             construct_rounds(kernel.kind, ds.n, div, steps, roots)),
            ("construct_assistant_round_trips", "model construction",
             "assistant round trips", construct[2],
             construct_assistant_round_trips(kernel.kind, ds.n, div, steps, roots)),
            ("predict_rounds", "a prediction batch", "peer rounds", predict[1],
             predict_rounds(kernel.kind, div, roots)),
            ("predict_assistant_round_trips", "a prediction batch", "assistant round trips",
             predict[2], predict_assistant_round_trips(kernel.kind, div, roots)),
        ]
        run = {
            "seed": seed,
            **losses,
            "construction_seconds": construct[0],
            "prediction_seconds": predict[0],
            "rounds": stats["rounds"],
            "exp_openings_outside_window": stats["exp_openings_outside_window"],
            "per_protocol": stats["per_protocol"],
            "predictions_mean": mean.tolist(),
            "predictions_variance": var.tolist(),
        }
        for key, _, _, recorded, expected in checks:
            run[f"{key}_expected"], run[f"{key}_recorded"] = expected, recorded
        runs.append(run)
        for _, what, unit, recorded, expected in checks:
            if recorded != expected:
                raise RuntimeError(f"{what} took {recorded} {unit}, closed form {expected}")

    mus = [r["loss_mu"] for r in runs]
    vars_ = [r["loss_var"] for r in runs]
    return {
        "n": ds.n, "d": ds.d, "n_test": int(np.atleast_2d(xs).shape[0]),
        "kernel": kernel.kind, "scenario": cfg["scenario"],
        "loss_mu_mean": float(np.mean(mus)), "loss_mu_std": float(np.std(mus)),
        "loss_var_mean": float(np.mean(vars_)), "loss_var_std": float(np.std(vars_)),
        "runs": runs,
    }


def bench_exp(cfg: dict, sizes) -> dict:
    """Accuracy and communication of the exponentiation on random inputs.

    Each seed draws its own inputs of every size, from (seed, size).
    ``max_abs_error`` is the worst over the seeds and ``seconds`` the
    median of server 0's times; rounds and volume are the same for every
    seed.
    """
    codec, exp_params, div, _ = session_pieces(cfg)
    results = []
    for n in sizes:
        entry, errors, seconds = None, [], []
        for seed in cfg["seeds"]:
            rng = np.random.default_rng([seed, int(n)])
            u = rng.uniform(exp_params.u_min, 0.0, int(n))
            s0, s1 = share_reals(u, codec, rng)

            def job(rt, shares=(s0, s1)):
                t0 = time.perf_counter()
                out = pp_exp(rt, shares[rt.party], exp_params, policy="strict")
                return out, time.perf_counter() - t0

            result = run_session(job, codec, seed=int(rng.integers(1 << 62)),
                                 backend=cfg["backend"], div=div)
            got = reconstruct(result.outputs[P0][0], result.outputs[P1][0])
            errors.append(float(np.max(np.abs(got - np.exp(u)))))
            seconds.append(result.outputs[P0][1])
            if entry is None:
                stats0 = result.stats[P0].summary()
                stats1 = result.stats[P1].summary()
                entry = {
                    "n": int(n),
                    "rounds": stats0["per_protocol"]["pp_exp"]["rounds"],
                    "rounds_expected": expected_rounds("ppexp"),
                    "volume_bits": 8 * 8 * (stats0["per_protocol"]["pp_exp"]["words_sent"]
                                            + stats1["per_protocol"]["pp_exp"]["words_sent"]),
                    "volume_bits_expected": 2 * int(n) * codec.params.l,
                }
        entry["max_abs_error"] = max(errors)
        entry["seconds"] = statistics.median(seconds)
        results.append(entry)
    return {"op": "exp", "seeds": list(cfg["seeds"]), "results": results}


def bench_matinv(cfg: dict, sizes, runs: int = 10) -> dict:
    """Loss_MI and communication of the matrix inversion on the config kernel's grams.

    Each gram is of uniform points in [-10, 10]^2, with the config's
    noise variance on its diagonal (0.1 at the defaults). Every seed draws
    ``runs`` grams of each size, from (seed, size, run); Loss_MI's mean
    and std and ``seconds``, the median of server 0's inversion times, run
    over all of them. Rounds, round trips and words are the same for
    every gram.
    """
    codec, _, div, kernel = session_pieces(cfg)
    if runs < 1:
        raise ValueError(f"--runs must be at least 1, got {runs}")
    steps = division_steps(kernel.pivot_domain, codec.lf, div.matinv)
    results = []
    for n in sizes:
        losses, seconds = [], []
        entry = None
        for seed in cfg["seeds"]:
            for run in range(runs):
                rng = np.random.default_rng([seed, int(n), run])
                x = rng.uniform(-10.0, 10.0, (int(n), 2))
                mat = kernel_matrix_plaintext(x, x, kernel)
                mat += kernel.noise_variance * np.eye(int(n))
                s0, s1 = share_reals(mat, codec, rng)

                def job(rt, shares=(s0, s1)):
                    t0 = time.perf_counter()
                    out = pp_matinv(rt, shares[rt.party], pivot_domain=kernel.pivot_domain)
                    return out, time.perf_counter() - t0, rt.assistant.requests

                result = run_session(job, codec, seed=int(rng.integers(1 << 62)),
                                     backend=cfg["backend"], div=div)
                lam = reconstruct(result.outputs[P0][0], result.outputs[P1][0])
                losses.append(float(np.linalg.norm(mat @ lam - np.eye(int(n)), 2) ** 2))
                seconds.append(result.outputs[P0][1])
                if entry is None:
                    stats = result.stats[P0].summary()
                    entry = {
                        "n": int(n),
                        "rounds": stats["per_protocol"]["pp_matinv"]["rounds"],
                        "rounds_expected": expected_rounds("matinv", int(n), div, steps),
                        "assistant_round_trips": result.outputs[P0][2],
                        "assistant_round_trips_expected":
                            matinv_assistant_round_trips(int(n), div, steps),
                        "volume_words_per_direction":
                            stats["per_protocol"]["pp_matinv"]["words_sent"],
                        "volume_words_per_direction_expected":
                            matinv_online_words(int(n), div, steps),
                    }
        entry["seconds"] = statistics.median(seconds)
        entry["loss_mi_mean"] = float(np.mean(losses))
        entry["loss_mi_std"] = float(np.std(losses))
        results.append(entry)
    return {"op": "matinv", "seeds": list(cfg["seeds"]), "runs": runs, "results": results}


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssgpr",
                                     description="Three-party secret-sharing GPR engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--scenario", choices=["hds", "vds", "pds"])
        p.add_argument("--kernel", choices=["se", "matern32"])
        p.add_argument("--seed", help="comma-separated seed list")
        p.add_argument("--backend", choices=["inproc", "sockets"])
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("run-gpr", help="end-to-end model construction and prediction")
    common(p)
    p.add_argument("--data", required=True, help="training CSV (features..., target)")
    p.add_argument("--test", help="test-input CSV (features only)")
    p.add_argument("--test-size", type=int, help="hold out the last k rows as test inputs")

    p = sub.add_parser("bench-exp", help="exponentiation accuracy/communication bench")
    common(p)
    p.add_argument("--sizes", default="1000,10000")

    p = sub.add_parser("bench-matinv", help="matrix inversion accuracy/communication bench")
    common(p)
    p.add_argument("--sizes", default="8,16,32")
    p.add_argument("--runs", type=int, default=10)

    p = sub.add_parser("analyze-leakage", help="Theorem 2 leakage enumeration")
    common(p)
    p.add_argument("--m-u", type=int, required=True)
    p.add_argument("--m-r", type=int, required=True)

    p = sub.add_parser("validate-params", help="Theorem 1 parameter check")
    common(p)

    return parser


def _apply_flags(cfg: dict, args) -> dict:
    if args.scenario:
        cfg["scenario"] = args.scenario
    if args.kernel:
        cfg["kernel"] = args.kernel
    if args.seed:
        cfg["seeds"] = [int(s) for s in args.seed.replace(",", " ").split()]
    if args.backend:
        cfg["backend"] = args.backend
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_flags(load_config(args.config), args)
        if args.command == "run-gpr":
            dataset = ingest_csv(args.data, has_header=cfg["has_header"])
            if args.test:
                x_star = read_matrix(args.test, has_header=cfg["has_header"])
            else:
                k = args.test_size or cfg["test_size"] or max(1, dataset.n // 5)
                x_star = dataset.X[-k:]
                dataset = Dataset(dataset.X[:-k], dataset.y[:-k])
            report = run_gpr(dataset, x_star, cfg)
        elif args.command in ("bench-exp", "bench-matinv"):
            sizes = [int(s) for s in args.sizes.replace(",", " ").split()]
            if not sizes:
                raise ValueError("--sizes must list at least one size")
            report = (bench_exp(cfg, sizes) if args.command == "bench-exp"
                      else bench_matinv(cfg, sizes, runs=args.runs))
        elif args.command == "analyze-leakage":
            rep = leakage_enumerate(args.m_u, args.m_r)
            report = {
                "m_u": rep.m_u, "m_r": rep.m_r,
                "p_secure": str(rep.p_secure),
                "expected_leakage": str(rep.expected_leakage),
                "p_exact_exposure": str(rep.p_exact_exposure),
                "matches_closed_form": rep.matches_closed_form,
            }
        elif args.command == "validate-params":
            ring = RingParams(cfg["l"], cfg["lf"])
            rep = validate_exp_params(ExpParams(u_min=cfg["u_min"],
                                                r_max=cfg["r_max"]), ring)
            report = {
                "accepted": rep.accepted,
                "required_lf": rep.required_lf,
                "precision_slack_bits": rep.precision_slack_bits,
                "overflow_slack_bits": rep.overflow_slack_bits,
                # The steps each pivot's reciprocal takes on the default path,
                # and the Matern square root's on [x_lo, sqrt_hi].
                "reciprocal_steps": reciprocal_steps(_kernel(cfg).pivot_domain, cfg["lf"]),
                "sqrt_steps": sqrt_steps(cfg["sqrt_hi"], ring),
            }
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command}")
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(f"ssgpr: {args.command} failed: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
