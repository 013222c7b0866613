"""Command-line driver: subcommands, configuration, and error funnel."""

import dataclasses
import json

import numpy as np
import pytest

from ssgpr import cli, protocols
from ssgpr.analysis import expected_rounds
from ssgpr.cli import bench_exp, bench_matinv, load_config, main, run_gpr
from ssgpr.data import Dataset, standardize
from ssgpr.gpr import sqdist_matrix
from ssgpr.session import DivisionConfig
from ssgpr.transport import P0


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def paper_path(monkeypatch):
    """Run the CLI's sessions on the paper's inversion path.

    No config key selects it: the path is ``DivisionConfig.matinv``, and
    this swaps it into the config's ``DivisionConfig``.
    """
    pieces = cli.session_pieces

    def on_paper(cfg):
        codec, exp_params, div, kernel = pieces(cfg)
        return codec, exp_params, dataclasses.replace(div, matinv="paper"), kernel

    monkeypatch.setattr(cli, "session_pieces", on_paper)


def test_validate_params_default_accepts(capsys):
    code, out, _ = run_cli(["validate-params"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["accepted"] is True
    assert report["required_lf"] == pytest.approx(5.25 * np.log2(np.e))


def test_analyze_leakage_worked_example(capsys):
    code, out, _ = run_cli(["analyze-leakage", "--m-u", "3", "--m-r", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["expected_leakage"] == "7/15"
    assert report["p_secure"] == "3/5"
    assert report["matches_closed_form"] is True


def test_analyze_leakage_bad_regime_fails(capsys):
    code, _, err = run_cli(["analyze-leakage", "--m-u", "9", "--m-r", "5"], capsys)
    assert code == 2
    assert "failed" in err


def test_bench_exp_round_and_volume(capsys):
    code, out, _ = run_cli(["bench-exp", "--sizes", "64"], capsys)
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["rounds"] == 1 == entry["rounds_expected"]
    assert entry["volume_bits"] == 2 * 64 * 64 == entry["volume_bits_expected"]
    assert entry["max_abs_error"] <= 4 * 2.0 ** -26


def test_bench_matinv_rounds(paper_path, capsys):
    code, out, _ = run_cli(["bench-matinv", "--sizes", "8", "--runs", "2"], capsys)
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["rounds"] == 170 == entry["rounds_expected"]
    assert entry["assistant_round_trips"] == 23 * 8 - 4 == entry["assistant_round_trips_expected"]
    assert entry["volume_words_per_direction"] == 1193 == \
        entry["volume_words_per_direction_expected"]
    assert entry["loss_mi_mean"] <= 1e-3


def test_bench_matinv_rounds_ldl(capsys):
    code, out, _ = run_cli(["bench-matinv", "--sizes", "8", "--runs", "2"], capsys)
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["rounds"] == 10 * 8 == entry["rounds_expected"]
    assert entry["assistant_round_trips"] == 11 * 8 + 1 == entry["assistant_round_trips_expected"]
    # 8 (4 * 8 + 24) + 8 * 7 + 7 * 6 / 2 + 7 + 8^2: each L, C and V word opens once.
    assert entry["volume_words_per_direction"] == 596 == \
        entry["volume_words_per_direction_expected"]
    assert entry["loss_mi_mean"] <= 1e-3


def test_bench_matinv_seconds_is_the_median_of_its_runs(monkeypatch):
    # Server 0's inversion time of each run, replaced by 3, 1 and 2
    # seconds: the report gives their median, not the first run's.
    real, times = cli.run_session, iter([3.0, 1.0, 2.0])

    def timed(*args, **kw):
        result = real(*args, **kw)
        inverse, _, trips = result.outputs[P0]
        result.outputs[P0] = (inverse, next(times), trips)
        return result

    monkeypatch.setattr(cli, "run_session", timed)
    report = bench_matinv(load_config(None), [3], runs=3)
    assert report["runs"] == 3
    assert report["results"][0]["seconds"] == 2.0


def test_benches_use_every_seed():
    # Three seeds are three sets of inputs: bench-exp reports the worst
    # error over them and bench-matinv Loss_MI over all their grams, so
    # neither equals seed 0's alone.
    def with_seeds(seeds):
        cfg = load_config(None)
        cfg["seeds"] = seeds
        return cfg

    exp = {tuple(seeds): bench_exp(with_seeds(seeds), [64])["results"][0]["max_abs_error"]
           for seeds in ([0], [1], [2], [0, 1, 2])}
    assert exp[0, 1, 2] == max(exp[0,], exp[1,], exp[2,]) != exp[0,]
    mats = {tuple(seeds): bench_matinv(with_seeds(seeds), [4], runs=1)
            for seeds in ([0], [1], [2], [0, 1, 2])}
    assert mats[0, 1, 2]["seeds"] == [0, 1, 2]
    losses = [mats[seed,]["results"][0]["loss_mi_mean"] for seed in (0, 1, 2)]
    assert len(set(losses)) == 3
    assert mats[0, 1, 2]["results"][0]["loss_mi_mean"] == pytest.approx(np.mean(losses))


@pytest.mark.parametrize("command", ["run-gpr", "bench-exp", "bench-matinv"])
def test_empty_seed_list_rejected(command, tmp_path, capsys):
    # An empty list once gave NaN losses with no runs, or an index error.
    data = tmp_path / "train.csv"
    data.write_text("".join(f"{i},{i % 3}.5\n" for i in range(6)))
    cfg = tmp_path / "cfg"
    cfg.write_text("seeds =\n")
    args = {"run-gpr": ["--data", str(data)], "bench-exp": ["--sizes", "8"],
            "bench-matinv": ["--sizes", "4", "--runs", "1"]}[command]
    code, out, err = run_cli([command, "--config", str(cfg), *args], capsys)
    assert code == 2 and out == ""
    assert f"{command} failed: seeds must list at least one seed" in err


@pytest.mark.parametrize("command", ["bench-exp", "bench-matinv"])
def test_empty_size_list_rejected(command, capsys):
    code, out, err = run_cli([command, "--sizes", ","], capsys)
    assert code == 2 and out == ""
    assert f"{command} failed: --sizes must list at least one size" in err


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_bench_matinv_rejects_runs_below_one(runs, capsys):
    code, out, err = run_cli(["bench-matinv", "--sizes", "4", "--runs", runs], capsys)
    assert code == 2 and out == ""
    assert f"--runs must be at least 1, got {runs}" in err


def _run_gpr_cli(tmp_path, capsys, *config):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.25, 0.25, (12, 2))
    y = 10.0 + np.sin(x.sum(axis=1))
    rows = "\n".join(",".join(f"{v:.8f}" for v in (*xi, yi)) for xi, yi in zip(x, y))
    data = tmp_path / "train.csv"
    data.write_text(rows + "\n")
    cfg = tmp_path / "cfg"
    cfg.write_text("".join(f"{line}\n" for line in config))
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(["run-gpr", "--data", str(data), "--test-size", "2",
                            "--seed", "0", "--config", str(cfg), "--out", str(out_path)],
                           capsys)
    assert code == 0, err
    report = json.loads(out_path.read_text())
    assert report["n"] == 10 and report["n_test"] == 2
    assert report["loss_mu_mean"] <= 1e-4
    assert report["loss_var_mean"] <= 1e-3
    return report


def test_run_gpr_end_to_end_ldl(tmp_path, capsys):
    run = _run_gpr_cli(tmp_path, capsys)["runs"][0]
    assert run["matinv_rounds_recorded"] == run["matinv_rounds_expected"] == 10 * 10
    assert run["construct_rounds_recorded"] == run["construct_rounds_expected"] == 10 * 10 + 4
    assert (run["construct_assistant_round_trips_recorded"]
            == run["construct_assistant_round_trips_expected"] == 11 * 10 + 6)


def test_run_gpr_end_to_end(tmp_path, capsys, paper_path):
    run = _run_gpr_cli(tmp_path, capsys)["runs"][0]
    assert run["matinv_rounds_recorded"] == run["matinv_rounds_expected"]
    assert run["construct_rounds_recorded"] == run["construct_rounds_expected"] == 22 * 10 - 2
    assert (run["construct_assistant_round_trips_recorded"]
            == run["construct_assistant_round_trips_expected"] == 23 * 10 + 1)
    assert run["predict_rounds_recorded"] == run["predict_rounds_expected"] == 4
    assert (run["predict_assistant_round_trips_recorded"]
            == run["predict_assistant_round_trips_expected"] == 7)
    assert isinstance(run["exp_openings_outside_window"], int)


def test_matern_sqrt_domain_below_the_data_rejected():
    # Standardised 10-d points lie far enough apart that 3 d passes 16.
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.25, 0.25, (24, 10))
    y = 10.0 + np.sin(x.sum(axis=1))
    cfg = load_config(None)
    cfg.update(kernel="matern32", sqrt_hi=16.0)
    ds, prep = standardize(Dataset(x[:20], y[:20]))
    need = 3.0 * sqdist_matrix(np.vstack([ds.X, prep.apply_x(x[20:])]), ds.X).max()
    assert need > 16.0
    with pytest.raises(ValueError, match=rf"sqrt_hi = 16 is below .* {need:.4g}"):
        run_gpr(Dataset(x[:20], y[:20]), x[20:], cfg)


def _matern_near_training(offset):
    # 40 training points in 3-d and queries ``offset`` per coordinate from
    # six of them, under criterion 6's kernel.
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 3))
    cfg = load_config(None)
    cfg.update(kernel="matern32", sqrt_hi=200.0, signal_variance=0.1, seeds=[0, 1])
    return Dataset(x, np.sin(x.sum(axis=1))), x[:6] + offset, cfg


def test_matern_near_duplicate_queries_rejected():
    # 3 d is about 1.4e-3 here, below the 2^-9 where the square root wraps.
    data, queries, cfg = _matern_near_training(0.01)
    ds, prep = standardize(data)
    d = ((prep.apply_x(queries) - ds.X[:6]) ** 2).sum(axis=1).min()
    assert 3 * d < 2.0 ** -9
    with pytest.raises(ValueError, match=rf"squared distance {d:.4g} between .* below 0.0006576"):
        run_gpr(data, queries, cfg)


@pytest.mark.parametrize("offset", [0.0125, 0.02])
def test_matern_queries_just_above_the_square_roots_floor_run(offset):
    # 3 d is about 2.1e-3 and 5.4e-3, just above the floor 2^-9, where the
    # square root's derived step count binds; criterion 6's tolerances hold.
    data, queries, cfg = _matern_near_training(offset)
    ds, prep = standardize(data)
    d = ((prep.apply_x(queries) - ds.X[:6]) ** 2).sum(axis=1).min()
    assert 2.0 ** -9 < 3 * d < 6e-3
    report = run_gpr(data, queries, cfg)
    assert report["loss_mu_mean"] <= 1e-2, report["loss_mu_mean"]
    assert report["loss_var_mean"] <= 1e-3, report["loss_var_mean"]


def test_matern_queries_equal_to_training_rows_run():
    data, queries, cfg = _matern_near_training(0.0)
    report = run_gpr(data, queries, cfg)
    assert report["loss_mu_mean"] <= 1e-2, report["loss_mu_mean"]
    assert report["loss_var_mean"] <= 1e-3, report["loss_var_mean"]


@pytest.mark.parametrize("kernel, key, field, value", [
    ("matern32", "sqrt_hi", "sqrt_hi", -200.0),
])
def test_run_gpr_rejects_out_of_domain_newton_settings(kernel, key, field, value):
    # Each bad value fails by name before any session starts.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(22, 3))
    cfg = load_config(None)
    cfg.update(kernel=kernel, sqrt_hi=200.0, seeds=[0])
    cfg[key] = value
    with pytest.raises(ValueError, match=rf"{field} must be .*, got {value!r}"):
        run_gpr(Dataset(x[:20], np.sin(x[:20].sum(axis=1))), x[20:], cfg)


def test_run_gpr_names_the_div_iterations_key(tmp_path, capsys):
    # The reciprocal step count comes from the pivot domain, so a config
    # that still sets it fails by the key's name, as an unknown key.
    path = tmp_path / "cfg"
    path.write_text("div_iterations = 10\n")
    code, _, err = run_cli(["run-gpr", "--data", str(tmp_path / "train.csv"),
                            "--config", str(path)], capsys)
    assert code == 2
    assert "cfg:1: unknown key 'div_iterations'" in err


@pytest.mark.parametrize("kernel, want", [("se", 4), ("matern32", 2 * 3 + 6)])
def test_run_gpr_checks_the_predict_batch_closed_form(kernel, want, monkeypatch):
    # Three square-root steps in the sessions and in run-gpr's closed forms.
    for module in (protocols, cli):
        monkeypatch.setattr(module, "sqrt_steps", lambda *args: 3)
    cfg = load_config(None)
    cfg.update(kernel=kernel, sqrt_hi=200.0)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(14, 2))
    data = Dataset(x[:12], np.sin(x[:12, 0]))
    run = run_gpr(data, x[12:], cfg)["runs"][0]
    assert run["predict_rounds_recorded"] == run["predict_rounds_expected"] == want
    monkeypatch.setattr(cli, "predict_rounds", lambda *args: want + 1)
    with pytest.raises(RuntimeError, match=f"took {want} peer rounds, closed form {want + 1}"):
        run_gpr(data, x[12:], cfg)


@pytest.mark.parametrize("name, what, unit, at", [
    ("expected_rounds", "the matrix inversion", "peer rounds", 22 * 8 - 6),
    ("construct_rounds", "model construction", "peer rounds", 22 * 8 - 2),
    ("construct_assistant_round_trips", "model construction", "assistant round trips",
     23 * 8 + 1),
    ("predict_assistant_round_trips", "a prediction batch", "assistant round trips", 7),
])
def test_run_gpr_names_both_counts_on_a_closed_form_mismatch(name, what, unit, at,
                                                             monkeypatch, paper_path):
    x = np.random.default_rng(4).normal(size=(10, 2))
    data = Dataset(x[:8], np.sin(x[:8, 0]))
    monkeypatch.setattr(cli, name, lambda *args, **kw: at + 1)
    with pytest.raises(RuntimeError, match=f"^{what} took {at} {unit}, closed form {at + 1}$"):
        run_gpr(data, x[8:], load_config(None))


@pytest.mark.parametrize("name, what, unit, at", [
    ("expected_rounds", "the matrix inversion", "peer rounds", 10 * 8),
    ("construct_rounds", "model construction", "peer rounds", 10 * 8 + 4),
    ("construct_assistant_round_trips", "model construction", "assistant round trips",
     11 * 8 + 6),
])
def test_run_gpr_names_both_counts_on_a_closed_form_mismatch_ldl(name, what, unit, at,
                                                                 monkeypatch):
    x = np.random.default_rng(4).normal(size=(10, 2))
    data = Dataset(x[:8], np.sin(x[:8, 0]))
    monkeypatch.setattr(cli, name, lambda *args, **kw: at + 1)
    with pytest.raises(RuntimeError, match=f"^{what} took {at} {unit}, closed form {at + 1}$"):
        run_gpr(data, x[8:], load_config(None))


def test_matinv_closed_form_follows_division_budget(paper_path):
    # sigma^2 = 0.01's pivot domain takes ten reciprocal iterations, a
    # 21-round division, so an n=8 inversion takes
    # 21 + 6*25 + 2 + 7 + 22 = 202 rounds, not 170.
    cfg = load_config(None)
    cfg["noise_variance"] = 0.01
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.25, 0.25, (10, 2))
    y = 10.0 + np.sin(x.sum(axis=1))
    run = run_gpr(Dataset(x[:8], y[:8]), x[8:], cfg)["runs"][0]
    assert run["matinv_rounds_recorded"] == run["matinv_rounds_expected"] == 202
    entry = bench_matinv(cfg, [8], runs=1)["results"][0]
    assert entry["rounds"] == entry["rounds_expected"] == 202
    # Each of the n divisions makes four more truncations: 23n - 4 + 4n.
    assert entry["assistant_round_trips"] == entry["assistant_round_trips_expected"] == 212


def test_matinv_closed_form_follows_division_budget_ldl():
    # sigma^2 = 0.01's ten reciprocal steps make a 13-round division budget
    # on the default path, so an n=8 inversion takes 13 * 8 = 104 rounds,
    # not 80.
    cfg = load_config(None)
    cfg["noise_variance"] = 0.01
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.25, 0.25, (10, 2))
    y = 10.0 + np.sin(x.sum(axis=1))
    run = run_gpr(Dataset(x[:8], y[:8]), x[8:], cfg)["runs"][0]
    assert run["matinv_rounds_recorded"] == run["matinv_rounds_expected"] == 104
    entry = bench_matinv(cfg, [8], runs=1)["results"][0]
    assert entry["rounds"] == entry["rounds_expected"] == 104
    # Each of the n columns makes three more truncations: 11n + 1 + 3n.
    assert entry["assistant_round_trips"] == entry["assistant_round_trips_expected"] == 113


def _small_noise_data():
    # 40 standard-normal 3-d points, close enough that the SE gram's least
    # eigenvalue sits near sigma^2, with y = sin(sum x) plus 0.05 noise.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(44, 3))
    y = np.sin(x.sum(axis=1)) + 0.05 * rng.normal(size=44)
    return Dataset(x[:40], y[:40]), x[40:]


@pytest.mark.parametrize("matinv", ["ldl", "paper"])
def test_run_gpr_small_noise_accuracy(matinv, request):
    # sigma^2 = 0.01 needs 10 reciprocal steps, which the pivot domain
    # gives with no setting; both paths meet criterion 5's tolerances
    # (8 steps once returned losses near 2e-3 and 2e-2, with nothing failing).
    if matinv == "paper":
        request.getfixturevalue("paper_path")
    data, queries = _small_noise_data()
    cfg = load_config(None)
    cfg["noise_variance"] = 0.01
    report = run_gpr(data, queries, cfg)
    assert report["loss_mu_mean"] <= 1e-4, report["loss_mu_mean"]
    assert report["loss_var_mean"] <= 1e-3, report["loss_var_mean"]


@pytest.mark.parametrize("matinv", ["ldl", "paper"])
def test_run_gpr_smaller_noise_accuracy(matinv, request):
    # sigma^2 = 1e-3's pivot domain takes 14 steps, with no setting: the
    # inversion runs on the closed form at 14, within criterion 5's tolerances.
    if matinv == "paper":
        request.getfixturevalue("paper_path")
    data, queries = _small_noise_data()
    cfg = load_config(None)
    cfg["noise_variance"] = 1e-3
    report = run_gpr(data, queries, cfg)
    run = report["runs"][0]
    assert (run["matinv_rounds_recorded"] == run["matinv_rounds_expected"]
            == expected_rounds("matinv", 40, DivisionConfig(matinv=matinv), 14))
    assert report["loss_mu_mean"] <= 1e-4, report["loss_mu_mean"]
    assert report["loss_var_mean"] <= 1e-3, report["loss_var_mean"]


def test_bench_matinv_grams_take_the_config_noise(tmp_path, capsys):
    # validate-params, run-gpr and bench-matinv read one noise variance:
    # at 1e-3 the pivot domain needs 14 steps, bench-matinv's grams carry
    # it on the diagonal, and 14 steps invert them within criterion 3's gate.
    path = tmp_path / "cfg"
    path.write_text("noise_variance = 0.001\n")
    code, out, _ = run_cli(["validate-params", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["reciprocal_steps"] == 14
    code, out, err = run_cli(["bench-matinv", "--sizes", "8", "--runs", "2",
                              "--config", str(path)], capsys)
    assert code == 0, err
    entry = json.loads(out)["results"][0]
    assert entry["rounds"] == entry["rounds_expected"] == (14 + 3) * 8
    assert (entry["assistant_round_trips"] == entry["assistant_round_trips_expected"]
            == (14 + 4) * 8 + 1)
    assert entry["loss_mi_mean"] <= 1e-3


def test_validate_params_reports_the_reciprocal_step_bound(tmp_path, capsys):
    code, out, _ = run_cli(["validate-params"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["reciprocal_steps"] == 7 and "div_iterations" not in report
    path = tmp_path / "cfg"
    path.write_text("noise_variance = 0.001\n")
    code, out, _ = run_cli(["validate-params", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["reciprocal_steps"] == 14


def test_validate_params_reports_the_square_roots_step_count(tmp_path, capsys):
    code, out, _ = run_cli(["validate-params"], capsys)
    assert code == 0
    assert json.loads(out)["sqrt_steps"] == 13
    path = tmp_path / "cfg"
    path.write_text("sqrt_hi = 432\n")
    code, out, _ = run_cli(["validate-params", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["sqrt_steps"] == 17


def test_run_gpr_scenario_flag(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.25, 0.25, (8, 2))
    y = 10.0 + np.sin(x.sum(axis=1))
    data = tmp_path / "train.csv"
    data.write_text("\n".join(",".join(f"{v:.8f}" for v in (*xi, yi))
                              for xi, yi in zip(x, y)) + "\n")
    code, out, err = run_cli(["run-gpr", "--data", str(data), "--test-size", "2",
                              "--scenario", "pds"], capsys)
    assert code == 0, err
    assert json.loads(out)["scenario"] == "pds"


def test_run_gpr_missing_file_funnels_error(capsys):
    code, _, err = run_cli(["run-gpr", "--data", "/nonexistent.csv"], capsys)
    assert code == 2
    assert "run-gpr failed" in err


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("lf = 20  # fewer fraction bits\nseeds = 1,2\nnormalize = off\n")
    cfg = load_config(str(path))
    assert cfg["lf"] == 20
    assert cfg["seeds"] == [1, 2]
    assert cfg["normalize"] is False


def test_config_boolean_typo_rejected(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("normalize = flase\n")
    with pytest.raises(ValueError, match="normalize.*'flase'"):
        load_config(str(path))
    path.write_text("has_header = 0\nnormalize = No\n")
    cfg = load_config(str(path))
    assert cfg["has_header"] is False and cfg["normalize"] is False


def test_config_numeric_value_rejected_with_key_and_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("l = 64\nlf = abc\n")
    with pytest.raises(ValueError, match=r"cfg:2: lf must be an integer, got 'abc'"):
        load_config(str(path))
    path.write_text("r_max = 1,5\n")
    with pytest.raises(ValueError, match=r"cfg:1: r_max must be a number, got '1,5'"):
        load_config(str(path))
    path.write_text("seeds = 1, two\n")
    with pytest.raises(ValueError, match=r"cfg:1: seeds must be a list of integers"):
        load_config(str(path))


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(str(path))


def test_removed_domain_keys_rejected(tmp_path):
    # A division's domain comes from the kernel and the square root needs
    # only sqrt_hi, so these keys would be accepted and then ignored.
    path = tmp_path / "cfg"
    for line in ("div_lo = 0.5\n", "sqrt_lo = 0.01\n"):
        path.write_text(line)
        with pytest.raises(ValueError, match="cfg:1: unknown key"):
            load_config(str(path))


def test_config_rejects_the_sqrt_iterations_key(tmp_path):
    # The square root's step count comes from sqrt_hi, so the key is unknown.
    path = tmp_path / "cfg"
    path.write_text("sqrt_hi = 400\nsqrt_iterations = 25\n")
    with pytest.raises(ValueError, match=r"cfg:2: unknown key 'sqrt_iterations'"):
        load_config(str(path))


def test_config_flag_overrides(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("lf = 29\nu_min = -4\nr_max = 16\n")
    code, out, _ = run_cli(["validate-params", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["accepted"] is True
