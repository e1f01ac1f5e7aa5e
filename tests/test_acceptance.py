"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here; seeds are fixed so every run is
reproducible.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from randmon.attacks import AttackPlan, build_attack_policy, saturation_budget
from randmon.config import load_config_dict
from randmon.detectors import BadDataDetector, CusumDetector, tune_cusum
from randmon.deviation import (
    deviation_limit,
    run_attack_ensemble,
    validate_against_simulation,
)
from randmon.harness import emit_outputs, run_scenario
from randmon.lti import NoiseSource, simulate, step
from randmon.monitors import (
    runs_moments,
    sir_bounds,
    sir_test,
    wsr_bounds,
    wsr_moments,
    wsr_test,
)

LIMIT_RATIO = 1.0 - math.sqrt(2.0) / 2.0


def report(num: int, desc: str, checks) -> None:
    failed = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {desc}")
    assert not failed, f"criterion {num}: " + "; ".join(failed)


def test_c01_false_alarm_calibration():
    checks = []
    for alpha in (0.05, 0.20):
        t0 = time.monotonic()
        cfg = load_config_dict({
            "plant": {"preset": "ugv"},
            "monitors": {"alpha_des": alpha},
            "detectors": {"kind": "bdd"},
            "horizon": 100_000,
            "seed": 2024,
        })
        art = run_scenario(cfg)
        elapsed = time.monotonic() - t0
        for test in ("wsr", "sir", "bdd"):
            for i, rate in enumerate(art.summary.alarm_rate[test]):
                checks.append((
                    abs(rate - alpha) < 0.03,
                    f"{test} sensor {i} rate {rate:.4f} vs alpha {alpha}",
                ))
        checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s at alpha {alpha}"))
    report(1, "no-attack alarm rates within 0.03 of the desired level, < 60 s/run", checks)


def test_c02_attack_selectivity():
    checks = []
    for alpha in (0.05, 0.20):
        rates = {}
        for kind in ("bias_concentrate", "pattern_runs"):
            cfg = load_config_dict({
                "plant": {"preset": "ugv"},
                "monitors": {"alpha_des": alpha},
                "detectors": {"kind": "both"},
                "attacks": [{"kind": kind, "sensors": [0], "start": 2000, "stop": 12000}],
                "horizon": 12_000,
                "seed": 21,
            })
            art = run_scenario(cfg)
            rates[kind] = {}
            for test in ("wsr", "sir", "bdd", "cusum"):
                flags = art.alarm[test][2300:12000, 0]
                flags = flags[~np.isnan(flags)]
                rates[kind][test] = float(flags.mean())

        r1, r2 = rates["bias_concentrate"], rates["pattern_runs"]
        checks.append((r1["wsr"] >= 3 * alpha,
                       f"attack #1 wsr rate {r1['wsr']:.3f} < 3*{alpha}"))
        checks.append((abs(r1["sir"] - alpha) <= 0.05,
                       f"attack #1 sir rate {r1['sir']:.3f} not within 0.05 of {alpha}"))
        checks.append((r2["sir"] >= 3 * alpha,
                       f"attack #2 sir rate {r2['sir']:.3f} < 3*{alpha}"))
        # quiet monitors must not be elevated (the attacks are built to not
        # increase the boundary alarm rates; a drop below the false-alarm
        # floor is stealth, not detection)
        checks.append((r2["wsr"] <= alpha + 0.05,
                       f"attack #2 wsr rate {r2['wsr']:.3f} elevated above {alpha}"))
        for kind in rates:
            for test in ("bdd", "cusum"):
                checks.append((rates[kind][test] <= alpha + 0.05,
                               f"{kind} elevated {test} to {rates[kind][test]:.3f}"))
    report(2, "scripted attacks raise only their targeted monitor", checks)


def test_c03_saturating_fraction_limit_and_oracle():
    checks = []
    for alpha in (0.01, 0.05, 0.2):
        ratio = saturation_budget(5000, alpha).ratio
        checks.append((
            abs(ratio - LIMIT_RATIO) < 0.02,
            f"alpha {alpha}: ratio {ratio:.4f} vs limit {LIMIT_RATIO:.4f}",
        ))
    mismatches = 0
    for alpha in (0.01, 0.05, 0.1, 0.2):
        for ell in range(20, 201):
            budget = saturation_budget(ell, alpha)
            omega_minus, _ = wsr_bounds(ell, alpha)
            total = 0
            gamma = None
            for j in range(1, ell + 1):  # brute-force enumeration of rank sums
                total += j
                if total > omega_minus:
                    gamma = j
                    break
            if budget.gamma != gamma or budget.beta != ell - gamma:
                mismatches += 1
    checks.append((mismatches == 0, f"{mismatches} brute-force mismatches"))
    report(3, "saturating fraction converges to 1 - sqrt(2)/2; enumeration matches", checks)


def test_c04_pvalue_bound_equivalence():
    rng = np.random.default_rng(888)
    ell = 100
    windows = rng.standard_normal((10_000, ell))
    disagreements = {"wsr": 0, "sir": 0}
    for alpha in (0.05, 0.2):
        wsr_lo, wsr_hi = wsr_bounds(ell, alpha)
        sir_lo, sir_hi = sir_bounds(ell - 1, alpha)
        for row in windows:
            w = wsr_test(row, alpha)
            bound_alarm = min(w.w_plus, w.w_minus) < wsr_lo or max(w.w_plus, w.w_minus) > wsr_hi
            if w.alarm != bound_alarm:
                disagreements["wsr"] += 1
            s = sir_test(row, alpha)
            if not s.tie_alarm:
                if s.alarm != (s.n_runs < sir_lo or s.n_runs > sir_hi):
                    disagreements["sir"] += 1
    checks = [
        (disagreements["wsr"] == 0, f"{disagreements['wsr']} wsr disagreements"),
        (disagreements["sir"] == 0, f"{disagreements['sir']} sir disagreements"),
    ]
    report(4, "p-value alarms equal interval-bound alarms on 10k windows, exactly", checks)


def test_c05_worst_case_stealth(ugv_plant, ugv_kss, ugv_gains):
    checks = []
    horizon = 10_000
    alpha = 0.05

    bdd = BadDataDetector.tuned(ugv_kss.sigma, alpha)
    plan = AttackPlan(kind="worst_case_bdd", sensors=(0,), start=0, stop=horizon + 1)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 alpha_des=alpha, bdd=bdd, seed=1)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 2)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    alarms = 0
    max_gap = 0.0
    for _ in range(horizon):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        alarms += int(bdd.step(state.r)[0])
        max_gap = max(max_gap, abs(state.r[0] - bdd.tau[0]))
    checks.append((alarms == 0, f"{alarms} bad-data alarms under the pinned attack"))
    checks.append((max_gap < 1e-9, f"residual strays {max_gap:.2e} from the threshold"))

    sigma0 = float(ugv_kss.sigma[0])
    tuning = tune_cusum(sigma0, 1.5 * sigma0, alpha, seed=3)
    tau_scaled = tuning.tau / sigma0 * ugv_kss.sigma  # recursion scales with sigma
    cusum = CusumDetector(tau=tau_scaled, bias=1.5 * ugv_kss.sigma)
    plan = AttackPlan(kind="worst_case_cusum", sensors=(0,), start=0, stop=horizon + 1)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 alpha_des=alpha, cusum=cusum, seed=4)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 5)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    alarms = 0
    max_gap = 0.0
    for k in range(horizon):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        alarms += int(cusum.step(state.r)[0])
        if k >= 1:  # statistic saturates from the first attacked update
            max_gap = max(max_gap, abs(cusum.S[0] - cusum.tau[0]))
    checks.append((alarms == 0, f"{alarms} cusum alarms under the holding attack"))
    checks.append((max_gap < 1e-9, f"statistic strays {max_gap:.2e} from the threshold"))
    report(5, "detector-only worst-case attacks are perfectly stealthy over 10k steps", checks)


def test_c06_deviation_limit_ensemble(stable_plant, stable_kss, stable_gains):
    from randmon.detectors import tune_bdd

    t0 = time.monotonic()
    alpha = 0.05
    tau = tune_bdd(stable_kss.sigma[0], alpha)

    def factory(j):
        plan = AttackPlan(kind="worst_case_bdd", sensors=(0,), start=0, stop=10**9)
        return build_attack_policy(plan, 1, stable_plant.C, stable_kss.sigma,
                                   alpha_des=alpha, seed=j)

    traj = run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory,
                               n_runs=100, horizon=4000, base_seed=77)
    pred = deviation_limit(stable_plant, stable_kss, stable_gains, [tau])
    out = validate_against_simulation(pred, traj, burn_in=500)
    elapsed = time.monotonic() - t0
    tol = np.maximum(0.10, 4.0 * out.ensemble_stderr / np.abs(pred.delta))
    checks = [
        (bool(np.all(out.relative_error < tol)),
         f"relative error {out.relative_error} vs tolerance {tol}"),
        (elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"),
    ]
    report(6, "100-seed ensemble matches the closed-form deviation limit", checks)


def test_c07_statistic_moment_checks():
    rng = np.random.default_rng(1234)
    n_windows = 100_000

    w_vals = rng.standard_normal((n_windows, 50))
    w_plus = np.empty(n_windows)
    for j in range(n_windows):
        w_plus[j] = wsr_test(w_vals[j], 0.05).w_plus
    w_mean, w_var = wsr_moments(50)

    r_vals = rng.standard_normal((n_windows, 50))
    n_runs = np.empty(n_windows)
    for j in range(n_windows):
        out = sir_test(r_vals[j], 0.05)
        assert out.ell_prime_eff == 49
        n_runs[j] = out.n_runs
    r_mean, r_var = runs_moments(50)

    checks = [
        (abs(w_plus.mean() - w_mean) / w_mean < 0.02,
         f"rank-sum mean {w_plus.mean():.2f} vs {w_mean}"),
        (abs(w_plus.var() - w_var) / w_var < 0.02,
         f"rank-sum var {w_plus.var():.1f} vs {w_var}"),
        (abs(n_runs.mean() - r_mean) / r_mean < 0.02,
         f"runs mean {n_runs.mean():.3f} vs {r_mean:.3f}"),
        (abs(n_runs.var() - r_var) / r_var < 0.02,
         f"runs var {n_runs.var():.3f} vs {r_var:.3f}"),
    ]
    report(7, "Monte Carlo moments of both statistics match closed forms to 2%", checks)


def test_c08_half_normal_residual_moments(ugv_plant, ugv_kss, ugv_gains):
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 31_337)
    out = simulate(ugv_plant, ugv_kss, ugv_gains, noise, 1_000_000)
    a = np.abs(out["r"][500:])
    checks = []
    for i in range(3):
        target_mean = math.sqrt(2.0 / math.pi) * ugv_kss.sigma[i]
        target_var = ugv_kss.sigma[i] ** 2 * (1.0 - 2.0 / math.pi)
        m, v = a[:, i].mean(), a[:, i].var()
        checks.append((abs(m - target_mean) / target_mean < 0.01,
                       f"sensor {i} |r| mean {m:.5f} vs {target_mean:.5f}"))
        checks.append((abs(v - target_var) / target_var < 0.02,
                       f"sensor {i} |r| var {v:.3e} vs {target_var:.3e}"))
    report(8, "1e6 no-attack residual magnitudes match half-normal moments", checks)


def test_c09_byte_identical_outputs(tmp_path):
    raw = {
        "plant": {"preset": "ugv"},
        "monitors": {"alpha_des": 0.05},
        "detectors": {"kind": "bdd"},
        "attacks": [{"kind": "bias_concentrate", "sensors": [0], "start": 500, "stop": 2000}],
        "horizon": 5000,
        "seed": 99,
    }
    digests = []
    for run in range(2):
        art = run_scenario(load_config_dict(dict(raw)))
        path = emit_outputs(art, "csv", str(tmp_path / f"{run}.csv"))
        digests.append(hashlib.sha256(open(path, "rb").read()).hexdigest())
    checks = [(digests[0] == digests[1], f"digests differ: {digests}")]
    report(9, "identical config and seed produce byte-identical CSV", checks)


def test_c10_randomness_aware_attack_floor():
    # The detectability floor: the schedule-aware attack biases the residual
    # by tau * beta/ell while no monitor's rate reaches its compromised
    # threshold. The CUSUM channel is configured with its bias above the
    # bad-data threshold (pinned steps then never accumulate), which caps its
    # attainable false-alarm rate; 0.02 is inside that cap.
    alphas = {"wsr": 0.05, "sir": 0.05, "bdd": 0.05, "cusum": 0.02}
    cfg = load_config_dict({
        "plant": {"preset": "ugv"},
        "monitors": {"alpha_des": alphas},
        "detectors": {"kind": "both", "bias_scale": 2.2},
        "attacks": [{"kind": "worst_case_bdd_randaware", "sensors": [0],
                      "start": 0, "stop": 20_000}],
        "horizon": 20_000,
        "seed": 11,
    })
    art = run_scenario(cfg)
    checks = []
    for test, alpha in alphas.items():
        rate = art.summary.alarm_rate[test][0]
        checks.append((rate < 3.0 * alpha,
                       f"{test} rate {rate:.4f} reaches compromised bar {3 * alpha}"))
    report(10, "schedule-aware worst-case attack stays below every compromised bar", checks)
