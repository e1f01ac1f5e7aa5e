import concurrent.futures
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from randmon import cli, harness, lti
from randmon.attacks import saturation_budget
from randmon.cli import main
from randmon.config import load_config_dict, read_config
from randmon.detectors import CusumDetector, tune_cusum
from randmon.errors import InvalidParameter, ValidationError
from randmon.harness import (
    EMIT_CHUNK_ROWS,
    _column_table,
    budget_curve,
    emit_outputs,
    run_scenario,
    run_sweep,
    tuned_thresholds,
    write_budget_curve,
)
from randmon.lti import NoiseSource, simulate, solve_dare, make_controller
from randmon.config import build_plant

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "plant": {"preset": "ugv"},
    "monitors": {"alpha_des": 0.05},
    "detectors": {"kind": "bdd"},
    "horizon": 3000,
    "seed": 42,
}


@pytest.fixture(scope="module")
def base_artifacts():
    return run_scenario(load_config_dict(dict(BASE)))


def test_no_attack_rates_sane(base_artifacts):
    for test, rates in base_artifacts.summary.alarm_rate.items():
        for rate in rates:
            assert 0.0 <= rate < 0.15


def test_summary_matches_records(base_artifacts):
    art = base_artifacts
    for test, rates in art.summary.alarm_rate.items():
        flags = art.alarm[test]
        for i, rate in enumerate(rates):
            col = flags[:, i]
            col = col[~np.isnan(col)]
            assert col.size == art.summary.verdict_steps[test][i]
            assert rate == col.mean()


def test_minimum_horizon_produces_rate_sample():
    raw = dict(BASE)
    raw["horizon"] = 200  # window + rate_window exactly
    art = run_scenario(load_config_dict(raw))
    assert art.horizon == 200
    assert np.isfinite(art.rate["wsr"][-1]).all()


def test_monitors_do_not_perturb_plant():
    cfg = load_config_dict(dict(BASE))
    art = run_scenario(cfg)
    plant = build_plant(cfg.plant_spec)
    kss = solve_dare(plant)
    K = make_controller(plant)
    noise_seed = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    bare = simulate(plant, kss, K, NoiseSource(plant.Q, plant.R, noise_seed), cfg.horizon)
    np.testing.assert_array_equal(art.x, bare["x"])
    np.testing.assert_array_equal(art.r, bare["r"])
    np.testing.assert_array_equal(art.xhat, bare["xhat"])
    np.testing.assert_array_equal(art.xi, bare["xi"])


def test_csv_round_trip(tmp_path, base_artifacts):
    path = emit_outputs(base_artifacts, "csv", str(tmp_path / "run.csv"))
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        assert header[:2] == ["#", "randmon"]
        meta = dict(part.split("=", 1) for part in header[2:])
        cols, *rows = csv.reader(handle)
    data = np.array(rows, dtype=float)
    assert meta["config_hash"] == base_artifacts.summary.config_hash
    assert int(meta["seed"]) == base_artifacts.summary.seed
    assert cols == _column_table(base_artifacts)[0]
    assert data.shape[0] == base_artifacts.horizon
    # alarm rates recomputed from the re-ingested rows equal the summary
    for test in ("wsr", "sir", "bdd"):
        for i in range(3):
            col = data[:, cols.index(f"{test}_alarm{i}")]
            col = col[~np.isnan(col)]
            assert col.mean() == base_artifacts.summary.alarm_rate[test][i]
    # 17-significant-digit floats survive the trip exactly
    np.testing.assert_array_equal(data[:, cols.index("x0")], base_artifacts.x[:, 0])


@pytest.mark.parametrize("name", ["ugv_noattack", "ugv_stealthy_randaware"])
def test_score_residuals_reproduces_a_written_runs_scores(name, tmp_path):
    # 1300 steps: five full CUSUM blocks and a tail, every scored column written
    raw = {**read_config(CONFIGS / f"{name}.json"), "horizon": 1300}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path), "--format", "csv",
                 "--quiet"]) == 0
    (path,) = tmp_path.glob("run_*.csv")
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        cols, *rows = csv.reader(handle)
    columns = dict(zip(cols, zip(*rows)))
    cfg = load_config_dict(raw)
    s = sum(col.startswith("r") for col in cols)
    r = np.array([columns[f"r{i}"] for i in range(s)], dtype=float).T
    _, _, bdd, cusum, _, _ = harness._set_up(cfg)
    p, alarm, rate, cusum_s, _ = harness.score_residuals(cfg, r, bdd, cusum)
    scored = {**{f"{t}_p": a for t, a in p.items()}, **{f"{t}_alarm": a for t, a in alarm.items()},
              **{f"{t}_rate": a for t, a in rate.items()}, "cusum_S": cusum_s}
    assert {f"{t}_alarm" for t in alarm} == {"wsr_alarm", "sir_alarm", "bdd_alarm", "cusum_alarm"}
    for prefix, array in scored.items():
        for i in range(s):
            assert tuple("%.17g" % v for v in array[:, i].tolist()) == columns[f"{prefix}{i}"]


def test_csv_byte_identical_across_runs(tmp_path):
    digests = []
    for run in range(2):
        art = run_scenario(load_config_dict(dict(BASE)))
        path = emit_outputs(art, "csv", str(tmp_path / f"run{run}.csv"))
        digests.append(hashlib.sha256(open(path, "rb").read()).hexdigest())
    assert digests[0] == digests[1]


def test_jsonl_structure(tmp_path, base_artifacts):
    path = emit_outputs(base_artifacts, "jsonl", str(tmp_path / "run.jsonl"))
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert lines[0]["record"] == "meta"
    assert lines[0]["schema_version"] == 1
    assert lines[-1]["record"] == "summary"
    assert lines[-1]["alarm_rate"]["wsr"] == base_artifacts.summary.alarm_rate["wsr"]
    steps = [l for l in lines if l["record"] == "step"]
    assert len(steps) == base_artifacts.horizon
    assert steps[0]["wsr_p0"] is None  # warm-up NaN encodes as null


def test_jsonl_values_round_trip_across_chunks(tmp_path):
    # several full chunks and a partial last one
    art = run_scenario(load_config_dict({**BASE, "detectors": {"kind": "both"},
                                         "horizon": 6 * EMIT_CHUNK_ROWS + 5}))
    emit_outputs(art, "jsonl", str(tmp_path / "run.jsonl"))
    records = map(json.loads, (tmp_path / "run.jsonl").read_text(encoding="utf-8").splitlines())
    steps = [r for r in records if r["record"] == "step"]
    assert len(steps) == art.horizon
    cols = _column_table(art)[0]
    assert all(list(step)[1:] == cols for step in steps)
    read = np.array([[np.nan if step[c] is None else step[c] for c in cols] for step in steps])
    expected = {"k": art.k}
    for prefix, array in [("x", art.x), ("xhat", art.xhat), ("r", art.r), ("xi", art.xi),
                          ("cusum_S", art.cusum_s),
                          *[(f"{t}_p", a) for t, a in art.p.items()],
                          *[(f"{t}_alarm", a) for t, a in art.alarm.items()],
                          *[(f"{t}_rate", a) for t, a in art.rate.items()]]:
        expected.update({f"{prefix}{i}": array[:, i] for i in range(array.shape[1])})
    assert sorted(expected) == sorted(cols)
    for j, col in enumerate(cols):
        np.testing.assert_array_equal(read[:, j], expected[col], err_msg=col)


def reference_emit(artifacts, fmt, path):
    """The writer emit_outputs replaced: csv.writer with format(v, ".17g"), one json.dumps per row."""
    cols, arrays = _column_table(artifacts)
    summary = artifacts.summary
    meta = {"schema_version": summary.schema_version, "config_hash": summary.config_hash,
            "seed": summary.seed}
    as_csv = fmt == "csv"
    with open(path, "w", newline="" if as_csv else None, encoding="utf-8") as handle:
        if as_csv:
            handle.write("# randmon " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
            writer = csv.writer(handle)
            writer.writerow(cols)
        else:
            handle.write(json.dumps({"record": "meta", **meta}) + "\n")
        for start in range(0, artifacts.horizon, EMIT_CHUNK_ROWS):
            rows = np.hstack([a[start:start + EMIT_CHUNK_ROWS] for a in arrays]).tolist()
            if as_csv:
                writer.writerows([format(v, ".17g") for v in row] for row in rows)
            else:
                for row in rows:
                    values = {c: None if v != v else v for c, v in zip(cols, row)}
                    handle.write(json.dumps({"record": "step", **values}) + "\n")
        if not as_csv:
            handle.write(json.dumps({"record": "summary", **asdict(summary)}) + "\n")
    return path


EDGE_VALUES = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                        0.1, -0.1, 1 / 3, -2 / 3, 1.0, -7.0, 2.0 ** 53, 1e16, 1e22, 123456789.0])


def with_edge_values(artifacts):
    """The artifacts with EDGE_VALUES cycled through several columns, at a shift per column."""
    def fill(array, offset):
        rows, width = array.shape
        index = np.arange(rows)[:, None] + 5 * np.arange(width) + offset
        return EDGE_VALUES[index % EDGE_VALUES.size]

    return replace(
        artifacts,
        x=fill(artifacts.x, 0),
        r=fill(artifacts.r, 1),
        xi=fill(artifacts.xi, 2),
        p={**artifacts.p, "wsr": fill(artifacts.p["wsr"], 3)},
        rate={**artifacts.rate, "cusum": fill(artifacts.rate["cusum"], 4)},
        cusum_s=fill(artifacts.cusum_s, 6),
    )


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_emission_matches_reference_writer(fmt, tmp_path):
    # the columns left alone keep the run's own values, warm-up NaNs included
    art = with_edge_values(run_scenario(load_config_dict(
        {**BASE, "detectors": {"kind": "both"}, "horizon": 6 * EMIT_CHUNK_ROWS + 5})))
    got = emit_outputs(art, fmt, str(tmp_path / f"got.{fmt}"))
    want = reference_emit(art, fmt, str(tmp_path / f"want.{fmt}"))
    assert open(got, "rb").read() == open(want, "rb").read()


def test_budget_curve_table(tmp_path):
    alphas = [0.05, 0.1, 0.2]
    ells = [20, 50, 100, 500, 2000]
    rows = budget_curve(alphas, ells)
    assert len(rows) == len(alphas) * len(ells)
    for row in rows:
        assert 0.0 <= row["ratio"] <= 0.5
        budget = saturation_budget(row["ell"], row["alpha_des"])
        assert row["beta"] == budget.beta and row["gamma"] == budget.gamma
    # the large-window column approaches the limiting ratio
    tail = [r["ratio"] for r in rows if r["ell"] == 2000]
    assert all(abs(t - rows[0]["asymptote"]) < 0.03 for t in tail)
    path = write_budget_curve(rows, str(tmp_path / "budget.csv"))
    text = open(path, encoding="utf-8").read()
    assert text.count("\n") == len(rows) + 1


def test_three_phase_scenario_fig4_style():
    alpha = 0.1
    cfg = load_config_dict({
        "plant": {"preset": "ugv"},
        "monitors": {"alpha_des": alpha},
        "detectors": {"kind": "cusum", "bias_scale": 1.5},
        "attacks": [
            {"kind": "bias_concentrate", "sensors": [0], "start": 1000, "stop": 3500},
            {"kind": "pattern_runs", "sensors": [0], "start": 4500, "stop": 7000},
            {"kind": "symmetric_flood", "sensors": [0], "start": 8000, "stop": 11000},
        ],
        "horizon": 11000,
        "seed": 404,
    })
    art = run_scenario(cfg)

    def rate(test, k0, k1):
        a = art.alarm[test][k0:k1, 0]
        a = a[~np.isnan(a)]
        return float(a.mean())

    bar = 3.0 * alpha  # the compromised-sensor threshold
    phases = {"one": (1300, 3500), "two": (4800, 7000), "three": (8300, 11000)}
    spikes = {"wsr": "one", "sir": "two", "cusum": "three"}
    for test, hot in spikes.items():
        for name, (k0, k1) in phases.items():
            r = rate(test, k0, k1)
            if name == hot:
                assert r >= bar, f"{test} should spike in phase {name}, rate {r}"
            else:
                assert r < bar, f"{test} should stay quiet in phase {name}, rate {r}"


@pytest.mark.filterwarnings("ignore::randmon.errors.SmallSampleWarning")
def test_deviation_summary_stable_plant():
    # the pinned residual leaves mostly-tied windows, so the runs monitor
    # legitimately flags its approximation as unreliable during this attack
    cfg = load_config_dict({
        "plant": {"A": [[0.90, 0.05], [0.00, 0.80]], "B": [[0.5], [1.0]],
                   "C": [[1.0, 0.0]], "Q": [[2e-4, 0.0], [0.0, 2e-4]], "R": [[4e-4]]},
        "monitors": {"alpha_des": 0.05, "window": 50, "rate_window": 50},
        "detectors": {"kind": "bdd"},
        "attacks": [{"kind": "worst_case_bdd", "sensors": [0], "start": 0, "stop": 6000}],
        "horizon": 6000,
        "seed": 17,
    })
    art = run_scenario(cfg)
    dev = art.summary.deviation
    assert dev is not None and dev["stable"]
    predicted = np.asarray(dev["predicted"])
    measured = np.asarray(dev["measured"])
    assert np.all(np.abs(measured - predicted) / np.abs(predicted) < 0.15)


def test_deviation_summary_unstable_open_loop(base_artifacts):
    cfg = load_config_dict({**BASE, "attacks": [
        {"kind": "worst_case_bdd", "sensors": [0], "start": 0, "stop": 3000}]})
    art = run_scenario(cfg)
    dev = art.summary.deviation
    # the vehicle heading channel integrates: no finite limit exists
    assert dev is not None and not dev["stable"]
    assert dev["predicted"] is None


def test_deviation_summary_absent_for_bdd_attack_without_bdd():
    # against a CUSUM-only loop the bad-data attack pins a derived threshold, not a
    # configured one, so it predicts nothing
    cfg = load_config_dict({**BASE, "detectors": {"kind": "cusum"}, "horizon": 1200,
                            "attacks": [{"kind": "worst_case_bdd", "sensors": [0], "start": 300}]})
    art = run_scenario(cfg)
    assert art.xi[300:, 0].any()
    assert art.summary.deviation is None


def test_tuned_thresholds_report():
    cfg = load_config_dict({**BASE, "detectors": {"kind": "both"}})
    out = tuned_thresholds(cfg)
    assert len(out["bdd_tau"]) == 3
    assert len(out["cusum_tau"]) == 3
    assert out["wsr_bounds"][0] < out["wsr_bounds"][1]
    for tau, sigma in zip(out["bdd_tau"], out["sigma"]):
        assert abs(tau / sigma - 1.959964) < 1e-4


def test_sweep_serial_matches_parallel():
    raw = {
        "plant": {"preset": "ugv"},
        "monitors": {"alpha_des": 0.05},
        "detectors": {"kind": "bdd"},
        "horizon": 1200,
        "seed": 3,
    }
    # 2 alphas x 2 attacks: each of the 2 workers takes a block of 2 cells
    serial = run_sweep(raw, [0.05, 0.1], ["none", "bias_concentrate"], workers=1)
    parallel = run_sweep(raw, [0.05, 0.1], ["none", "bias_concentrate"], workers=2)
    assert serial == parallel
    assert [(cell["alpha_des"], cell["attack"]) for cell in serial] == [
        (0.05, "none"), (0.05, "bias_concentrate"), (0.1, "none"), (0.1, "bias_concentrate")]


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    # A fork-started pool starts max_workers processes at the first submit; this
    # serial stand-in records the pool size and starts none.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, chunksize):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness, "_sweep_cell", lambda cell: cell[1:])
    kinds = ["none", "pattern_runs", "bias_concentrate"]
    assert run_sweep(dict(BASE), [0.05, 0.1], kinds, workers=64) == [
        (a, kind) for a in (0.05, 0.1) for kind in kinds]
    assert sizes == [6]


def test_cli_import_loads_no_process_pool():
    """Only a sweep with workers uses a process pool, so a start of the CLI does not load it."""
    code = "import sys, randmon.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_sweep_config_error_raised_before_fan_out():
    with pytest.raises(ValidationError) as info:
        run_sweep(dict(BASE), [0.05], ["none", "bogus"], workers=2)
    assert str(info.value) == "attacks[0].kind: unknown kind 'bogus'"


@pytest.mark.parametrize("workers", [0, "2"])
def test_sweep_reports_a_bad_worker_count_with_the_cells_problems(workers):
    # 0 used to run serially and "2" to raise a bare TypeError
    with pytest.raises(ValidationError) as info:
        run_sweep(dict(BASE), [0.05], ["none", "bogus"], workers=workers)
    assert info.value.problems == [f"workers: must be an integer >= 1, got {workers!r}",
                                   "attacks[0].kind: unknown kind 'bogus'"]


def test_cli_sweep_attack_cells_that_would_start_at_the_horizon_exit_2(tmp_path, monkeypatch,
                                                                       capsys):
    raw = {"plant": {"preset": "ugv"}, "horizon": 200}
    load_config_dict(raw)  # a valid run
    message = ("sweep: attack cells start at 2 * monitors.window = 200, which is not before "
               "horizon 200")
    _exits_2_before_any_work(raw, ("sweep",), message, tmp_path, monkeypatch, capsys,
                             "--attacks", "none,pattern_runs")


def test_cli_sweep_stealth_bound_violation_exits_2_before_any_cell(tmp_path, monkeypatch,
                                                                  capsys):
    # at alpha 0.5 the default bias_concentrate draws would cross the bad-data threshold;
    # load finds it, so no cell is set up, tuned or run, the valid alpha 0.05 ones included
    raw = {**BASE, "horizon": 400, "monitors": {"window": 30, "rate_window": 30, "alpha_tau": 1.0}}
    message = ("attacks[0]: bias_concentrate draws would cross the bad-data threshold: "
               "|mu_a| + 3 sigma_a = 0.0186281 > 0.0144453")
    _exits_2_before_any_work(raw, ("sweep",), message, tmp_path, monkeypatch, capsys,
                             "--alphas", "0.05,0.5", "--attacks", "none,bias_concentrate")


def test_sweep_worker_reports_stealth_bound_violation_whole():
    # at alpha 0.5 the default bias_concentrate draws would cross the bad-data threshold
    raw = {**BASE, "horizon": 400, "monitors": {"window": 30, "rate_window": 30, "alpha_tau": 1.0}}
    with pytest.raises(ValidationError) as serial:
        run_sweep(raw, [0.5, 0.6], ["bias_concentrate"], workers=1)
    with pytest.raises(ValidationError) as parallel:
        run_sweep(raw, [0.5, 0.6], ["bias_concentrate"], workers=2)
    assert parallel.value.problems == serial.value.problems
    assert str(parallel.value) == str(serial.value)
    assert str(serial.value).startswith("attacks[0]: bias_concentrate draws would cross")


def test_sweep_reports_every_bad_cell_once_in_cell_order():
    # both alpha cells break the bound, each at its own threshold; the unknown kind's
    # problem, the same text in each alpha, is reported once, where it first occurs
    raw = {**BASE, "horizon": 400, "monitors": {"window": 30, "rate_window": 30, "alpha_tau": 1.0}}
    bound = "attacks[0]: bias_concentrate draws would cross the bad-data threshold: "
    with pytest.raises(ValidationError) as both:
        run_sweep(raw, [0.5, 0.6], ["bias_concentrate"])
    assert both.value.problems == [bound + "|mu_a| + 3 sigma_a = 0.0186281 > 0.0144453",
                                   bound + "|mu_a| + 3 sigma_a = 0.0173423 > 0.0112309"]
    with pytest.raises(ValidationError) as mixed:
        run_sweep(raw, [0.5, 0.6], ["none", "bias_concentrate", "bogus"], workers=2)
    assert mixed.value.problems == [both.value.problems[0], "attacks[0].kind: unknown kind 'bogus'",
                                    both.value.problems[1]]


@pytest.fixture
def live_cusum_steps(monkeypatch):
    """Every ``CusumDetector.step`` call's statistic, in call order."""
    recorded = []
    real_step = CusumDetector.step

    def counted(self, r):
        alarm = real_step(self, r)
        recorded.append(self.S.copy())
        return alarm

    monkeypatch.setattr(CusumDetector, "step", counted)
    return recorded


@pytest.mark.parametrize("name", ["ugv_noattack", "ugv_stealthy_randaware", "ugv_three_phase"])
def test_shipped_configs_step_no_live_cusum(name, live_cusum_steps):
    raw = read_config(CONFIGS / f"{name}.json")
    art = run_scenario(load_config_dict({**raw, "horizon": 1200}))
    assert art.cusum_s is not None and live_cusum_steps == []


def test_cusum_attack_steps_the_live_detector_once_per_step(live_cusum_steps):
    raw = {**BASE, "detectors": {"kind": "both"}, "horizon": 1500,
           "attacks": [{"kind": "worst_case_cusum", "sensors": [0, 2], "start": 300}]}
    art = run_scenario(load_config_dict(raw))
    # no attack reads the last residual
    assert len(live_cusum_steps) == art.horizon - 1
    assert np.array(live_cusum_steps).tobytes() == art.cusum_s[:-1].tobytes()
    assert art.xi[300:, 0].any()


# --- command line ------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "randmon.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_run_and_outputs(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({**BASE, "horizon": 400}))
    out_dir = tmp_path / "out"
    result = run_cli("run", "--config", str(cfg_path), "--out", str(out_dir),
                     "--format", "csv", "--seed", "9")
    assert result.returncode == 0
    written = list(out_dir.glob("run_*.csv"))
    assert len(written) == 1
    assert "alarm_rate" in result.stdout


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**BASE, "monitors": {"alpha_des": 5.0}}))
    result = run_cli("run", "--config", str(cfg_path))
    assert result.returncode == 2
    assert "config error" in result.stderr


@pytest.mark.parametrize("raw, message", [
    ([1], "top level: must be an object"),
    ({"monitors": []}, "monitors: must be an object"),
    ({"monitors": {"window": None}}, "monitors.window: must be an integer >= 3, got None"),
], ids=["top-level-list", "monitors-list", "window-null"])
def test_cli_sweep_reports_the_config_error_run_reports(tmp_path, raw, message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    run = run_cli("run", "--config", str(cfg_path))
    sweep = run_cli("sweep", "--config", str(cfg_path), "--attacks", "pattern_runs,none",
                    "--out", str(tmp_path / "sweep.csv"))
    assert run.returncode == sweep.returncode == 2
    assert sweep.stderr == run.stderr == f"config error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    cfg_path = tmp_path / "undetectable.json"
    cfg_path.write_text(json.dumps({
        "plant": {"A": [[1.2, 0.0], [0.0, 0.5]], "B": [[1.0], [1.0]],
                   "C": [[0.0, 1.0]], "Q": [[0.1, 0.0], [0.0, 0.1]], "R": [[0.1]]},
        "horizon": 1000,
        "seed": 0,
    }))
    result = run_cli("run", "--config", str(cfg_path))
    assert result.returncode == 3
    assert "runtime error" in result.stderr


@pytest.mark.parametrize("horizon, code, message", [
    (10**15, 3, "runtime error"),  # valid, but its records fail to allocate at once
    (10**15 + 1, 2, "config error"),
])
def test_cli_horizon_beyond_memory(tmp_path, horizon, code, message):
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text(json.dumps({**BASE, "horizon": horizon}))
    result = run_cli("run", "--config", str(cfg_path))
    assert result.returncode == code
    assert message in result.stderr
    assert "Traceback" not in result.stderr


def test_set_up_solves_each_riccati_equation_once(monkeypatch):
    calls = []
    solve = lti._riccati_fixed_point
    monkeypatch.setattr(lti, "_riccati_fixed_point", lambda *a: calls.append(1) or solve(*a))

    def solves(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    cfg = load_config_dict({**BASE, "horizon": 200})
    assert solves(run_scenario, cfg) == 2  # the filter and the LQR gain
    assert solves(tuned_thresholds, cfg) == 1  # the filter
    assert solves(lti.LtiPlant, [[0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]) == 0


def test_run_after_tune_iterates_no_riccati_equation(riccati_iterations):
    # the benchmark's W1 order: load, design the controller and tune, then run
    cfg = load_config_dict({**BASE, "horizon": 300})
    make_controller(build_plant(cfg.plant_spec))
    tuned_thresholds(cfg)
    assert len(riccati_iterations) == 2
    riccati_iterations.clear()
    run_scenario(cfg)
    assert riccati_iterations == []


def test_sweep_iterates_each_riccati_equation_once(riccati_iterations):
    cells = run_sweep({**BASE, "horizon": 300}, [0.05], ["none", "bias_concentrate",
                                                         "pattern_runs"], workers=1)
    assert len(cells) == 3
    # the filter equation (A, C, Q, R), then the control equation (A', B', Qx, Ru)
    assert [call[1].shape for call in riccati_iterations] == [(3, 3), (2, 3)]


def test_cusum_tuning_cache_tells_tiny_sigmas_apart(monkeypatch):
    # Both residual sigmas are below 5e-16, so they agree to 15 decimals.
    harness._tuned_cusum_tau.cache_clear()
    cfgs = [load_config_dict({
        "plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "Q": [[q]], "R": [[q]]},
        "detectors": {"kind": "cusum"},
        "horizon": 200,
    }) for q in (1e-34, 4e-34)]
    tuned_thresholds(cfgs[0])
    cfg = cfgs[1]
    sigma = solve_dare(build_plant(cfg.plant_spec)).sigma[0]
    direct = tune_cusum(sigma, cfg.bias_scale * sigma, cfg.alpha_des["cusum"],
                        n_samples=cfg.tuning_samples, seed=cfg.tuning_seed)
    assert tuned_thresholds(cfg)["cusum_tau"] == [direct.tau]


def test_run_after_tune_reuses_the_tuned_cusum_thresholds(monkeypatch):
    # The benchmark's set-up tunes a config, then runs it.
    calls = []
    monkeypatch.setattr(harness, "tune_cusum",
                        lambda *a, **k: calls.append(a) or tune_cusum(*a, **k))
    harness._tuned_cusum_tau.cache_clear()
    cfg = load_config_dict({**BASE, "detectors": {"kind": "cusum"}, "horizon": 200})
    tau = tuned_thresholds(cfg)["cusum_tau"]
    assert len(calls) == 1  # one per config: every sensor is tuned in the same call
    calls.clear()
    art = run_scenario(cfg)
    assert calls == []
    assert art.cusum_s is not None
    assert tuned_thresholds(cfg)["cusum_tau"] == tau and calls == []


def test_cli_budget(tmp_path):
    out = tmp_path / "budget.csv"
    result = run_cli("budget", "--alphas", "0.05,0.2", "--ells", "20,100", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 cells


@pytest.mark.parametrize("args, message", [
    (["--ells", "5"], "budget needs a window of at least 20, got 5"),
    (["--alphas", "1.5"], "alpha_des: must be a number in (0, 1], got 1.5"),
], ids=["ell-below-20", "alpha-above-1"])
def test_cli_budget_bad_argument_is_a_config_error(tmp_path, args, message):
    out = tmp_path / "budget.csv"
    result = run_cli("budget", *args, "--out", str(out))
    assert result.returncode == 2
    assert result.stderr == f"config error: {message}\n"
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the command computed before it rejected its input")


@pytest.mark.parametrize("command", ["run", "sweep", "budget"])
def test_cli_unwritable_output_exits_2_before_any_work(command, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(BASE)))
    for module, name in ((harness, "run_scenario"), (cli, "run_scenario"),
                         (cli, "budget_curve")):
        monkeypatch.setattr(module, name, _no_work)
    # run's --out is a directory, here an existing file or empty; the others' is a
    # file in a missing directory, a directory, or empty
    outs = [cfg_path, ""] if command == "run" else [tmp_path / "missing" / "out.csv", tmp_path, ""]
    args = [] if command == "budget" else ["--config", str(cfg_path)]
    for out in outs:
        assert main([command, *args, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def _exits_2_before_any_work(raw, commands, message, tmp_path, monkeypatch, capsys, *extra):
    """Each command exits 2 with ``message`` on stderr and nothing on stdout, set-up untouched."""
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(raw))
    for module, name in ((harness, "run_scenario"), (cli, "run_scenario"), (harness, "_set_up")):
        monkeypatch.setattr(module, name, _no_work)
    sweep_csv = tmp_path / "sweep.csv"
    for command in commands:
        args = ["--out", str(sweep_csv)] if command == "sweep" else []
        assert main([command, "--config", str(cfg_path), *args, *extra, "--quiet"]) == 2
        assert tuple(capsys.readouterr()) == ("", f"config error: {message}\n")
    assert not sweep_csv.exists()


def test_cli_unstable_explicit_gain_is_a_config_error(tmp_path, monkeypatch, capsys):
    scalar_plant = {"A": [[0.5]], "B": [[10]], "C": [[1]], "Q": [[1]], "R": [[1]]}
    for raw, rho in (
            ({**BASE, "controller": {"K": [[100, 0, 0], [0, 0, 0]]}}, "1.469112"),
            ({**BASE, "controller": {"K": [[1e308, 1e308, 0], [0, 0, 0]]}}, "5.424947e+305"),
            # B K overflows: no RuntimeWarning, and the closed loop counts as unstable
            ({**BASE, "plant": scalar_plant, "controller": {"K": [[1e308]]}}, "inf")):
        message = f"controller.K: closed loop unstable: rho(A + BK) = {rho} >= 1"
        _exits_2_before_any_work(raw, ("run", "tune", "sweep"), message, tmp_path, monkeypatch,
                                 capsys)


@pytest.mark.parametrize("mass", [1e12, 1e308])
def test_cli_lqr_plant_with_an_unreachable_marginal_mode_is_a_config_error(
        mass, tmp_path, monkeypatch, capsys):
    # The ZOH leaves the velocity mode at |lambda| >= 1 - 1e-12 with B[0] ~ ts / mass: the
    # LQR iteration used to run its whole budget (about 4 s) and exit 3.
    raw = {**BASE, "plant": {"preset": "ugv", "params": {"mass": mass}}}
    message = ("plant: the inputs cannot reach the mode(s) of A at eigenvalue(s) 1, on or "
               "within 1e-12 of the unit circle, so no LQR gain stabilises the plant")
    start = time.perf_counter()
    _exits_2_before_any_work(raw, ("run", "tune"), message, tmp_path, monkeypatch, capsys)
    assert time.perf_counter() - start < 1.0
    for reachable in (10.0, 1e6):
        load_config_dict({**raw, "plant": {"preset": "ugv", "params": {"mass": reachable}}})
    for path in sorted(CONFIGS.glob("*.json")):
        load_config_dict(read_config(path))


@pytest.mark.parametrize("kind", ["cusum", "both"])
@pytest.mark.parametrize("bias_scale", [0.5, math.sqrt(2.0 / math.pi)], ids=["0.5", "sqrt(2/pi)"])
def test_cli_cusum_bias_scale_at_most_half_normal_mean_is_a_config_error(
        kind, bias_scale, tmp_path, monkeypatch, capsys):
    raw = {**BASE, "detectors": {"kind": kind, "bias_scale": bias_scale}}
    message = (f"detectors.bias_scale: must exceed sqrt(2/pi) = 0.797885 for a CUSUM detector, "
               f"got {bias_scale!r}")
    _exits_2_before_any_work(raw, ("run", "tune", "sweep"), message, tmp_path, monkeypatch, capsys)
    load_config_dict({**raw, "detectors": {"kind": "bdd", "bias_scale": bias_scale}})


@pytest.mark.parametrize("sensors", [[0, 0], []], ids=["repeated", "empty"])
def test_cli_attack_sensor_list_empty_or_repeated_is_a_config_error(
        sensors, tmp_path, monkeypatch, capsys):
    raw = {**BASE, "attacks": [{"kind": "bias_concentrate", "sensors": sensors}]}
    message = f"attacks[0].sensors: must name each attacked sensor once, got {sensors}"
    # a sweep replaces the base config's attacks, so only run and tune read this list
    _exits_2_before_any_work(raw, ("run", "tune"), message, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("workers", [0, -3])
def test_cli_sweep_workers_below_one_is_a_config_error(workers, tmp_path, monkeypatch, capsys):
    message = f"workers: must be an integer >= 1, got {workers}"
    _exits_2_before_any_work(dict(BASE), ("sweep",), message, tmp_path, monkeypatch, capsys,
                             "--workers", str(workers))


def test_cli_tune(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(BASE)))
    result = run_cli("tune", "--config", str(cfg_path))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert "bdd_tau" in payload


def test_cli_tune_rejects_the_config_run_rejects(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({**BASE, "attacks": [
        {"kind": "pattern_runs", "sensors": [0], "params": {"amplitude": 5.0}}]}))
    message = "config error: attacks[0]: pattern amplitude 5 exceeds the bad-data bound\n"
    for command in ("tune", "run"):
        assert main([command, "--config", str(cfg_path), "--quiet"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", message)


@pytest.mark.parametrize("kind, params, message", [
    ("symmetric_flood", {"amplitude": 1e308, "jitter": 1e308}, "|amplitude| + |jitter|"),
    ("worst_case_bdd_randaware", {"epsilon": 1e308}, "epsilon"),
], ids=["flood", "epsilon"])
def test_cli_rejects_attack_magnitude_no_stealth_bound_caps(kind, params, message, tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({**BASE, "attacks": [
        {"kind": kind, "sensors": [0], "params": params}]}))
    for command in ("tune", "run"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check itself overflows nothing
            assert main([command, "--config", str(cfg_path), "--quiet"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"config error: attacks[0]: {message} exceeds 1e+150\n")


def test_cli_quiet_goes_after_the_command(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(BASE)))
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "run", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quiet" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_exits_zero(tmp_path, unbuffered):
    # The reader is gone before the first line arrives, as it is for every line
    # after the first in `randmon tune ... | head -1`. Buffered, the write fails
    # in the final flush; unbuffered, inside print.
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(BASE)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "randmon.cli", "tune", "--config", str(cfg_path), "--quiet"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == ""


# A worst-case attack leaves the filter blind, so on this open-loop unstable plant
# the estimation error grows as 10^k and overflows to inf within the horizon; the
# signed-rank test must reject the window rather than rank the inf or NaN.
OVERFLOW = {
    "plant": {"A": [[10.0]], "B": [[1.0]], "C": [[1.0]], "Q": [[0.1]], "R": [[0.1]]},
    "horizon": 600,
    "seed": 5,
    "attacks": [{"kind": "worst_case_bdd", "sensors": [0], "start": 200, "stop": 600}],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_is_invalid_parameter():
    with pytest.raises(InvalidParameter, match="non-finite"):
        run_scenario(load_config_dict(OVERFLOW))


def test_cli_non_finite_residual_exit_code(tmp_path):
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(OVERFLOW))
    result = run_cli("run", "--config", str(cfg_path), "--quiet")
    assert result.returncode == 3
    assert ("runtime error: r: must be a 2-D array of real numbers, none a bool or "
            "non-finite") in result.stderr
    assert "Traceback" not in result.stderr
