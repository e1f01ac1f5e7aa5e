import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from randmon.attacks import saturation_budget
from randmon.config import load_config_dict
from randmon.errors import InvalidParameter
from randmon.harness import (
    budget_curve,
    csv_columns,
    emit_outputs,
    read_run_csv,
    run_scenario,
    run_sweep,
    tuned_thresholds,
    write_budget_curve,
)
from randmon.lti import NoiseSource, simulate, solve_dare, make_controller
from randmon.config import build_plant

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
    gains = make_controller(plant)
    noise_seed = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    bare = simulate(plant, kss, gains, NoiseSource(plant.Q, plant.R, noise_seed), cfg.horizon)
    np.testing.assert_array_equal(art.x, bare["x"])
    np.testing.assert_array_equal(art.r, bare["r"])


def test_csv_round_trip(tmp_path, base_artifacts):
    path = emit_outputs(base_artifacts, "csv", str(tmp_path / "run.csv"))
    meta, cols, data = read_run_csv(path)
    assert meta["config_hash"] == base_artifacts.summary.config_hash
    assert int(meta["seed"]) == base_artifacts.summary.seed
    assert cols == csv_columns(base_artifacts)
    assert data.shape[0] == base_artifacts.horizon
    # alarm rates recomputed from the re-ingested rows equal the summary
    for test in ("wsr", "sir", "bdd"):
        for i in range(3):
            col = data[:, cols.index(f"{test}_alarm{i}")]
            col = col[~np.isnan(col)]
            assert col.mean() == base_artifacts.summary.alarm_rate[test][i]
    # 17-significant-digit floats survive the trip exactly
    np.testing.assert_array_equal(data[:, cols.index("x0")], base_artifacts.x[:, 0])


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
    serial = run_sweep(raw, [0.05], ["none", "bias_concentrate"], workers=1)
    parallel = run_sweep(raw, [0.05], ["none", "bias_concentrate"], workers=2)
    assert serial == parallel
    kinds = {cell["attack"] for cell in serial}
    assert kinds == {"none", "bias_concentrate"}


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


def test_cli_budget(tmp_path):
    out = tmp_path / "budget.csv"
    result = run_cli("budget", "--alphas", "0.05,0.2", "--ells", "20,100", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 cells


def test_cli_tune(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(BASE)))
    result = run_cli("tune", "--config", str(cfg_path))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert "bdd_tau" in payload


# A flood of 1e308-sized residuals overflows to inf within the first window;
# the signed-rank test must reject the window rather than rank the inf or NaN.
OVERFLOW = {
    "plant": {"preset": "ugv"},
    "horizon": 600,
    "seed": 5,
    "attacks": [{"kind": "symmetric_flood", "sensors": [0], "start": 200, "stop": 600,
                 "params": {"amplitude": 1e308, "jitter": 1e308}}],
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
    assert "runtime error: window contains non-finite values" in result.stderr
    assert "Traceback" not in result.stderr
