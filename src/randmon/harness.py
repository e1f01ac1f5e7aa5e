"""Scenario execution: wire plant, monitors, detectors and attacks; emit results.

Every run is driven by one master seed. Noise, attack dither and saturation
schedules draw from independent child streams, so runs are bit-reproducible
and attack randomness does not perturb the noise sequence.

A run has two phases. The first steps the closed loop (plant, estimator,
controller, attack) and the CUSUM detector, and records the trajectory and
the residuals. CUSUM stays in the loop because the CUSUM worst-case attack is
synced to the detector's live statistic every step. The second phase scores
the recorded residual array: the two window tests, the bad-data detector and
the sliding alarm rates of all four tests, over all steps at once. Nothing in
the loop reads those, so the split leaves every output byte unchanged.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import attacks as atk
from .config import ScenarioConfig, config_hash, build_plant
from .detectors import BadDataDetector, CusumDetector, tune_cusum
from .deviation import deviation_limit
from .errors import InvalidParameter
from .lti import (
    ControllerGains,
    NoiseSource,
    initial_state,
    make_controller,
    solve_dare,
    step,
)
from .monitors import alarm_rate_scan, sir_scan, wsr_scan

log = logging.getLogger(__name__)

RATE_ASYMPTOTE = 1.0 - math.sqrt(2.0) / 2.0

_TESTS = ("wsr", "sir", "bdd", "cusum")

# Cache of tuned CUSUM thresholds keyed by the exact tuning inputs; tuning is
# Monte Carlo over >= 1e6 samples and identical inputs recur across sweeps.
_cusum_cache: dict = {}


def _tuned_cusum_tau(sigma: float, bias: float, alpha: float, n_samples: int, seed: int) -> float:
    key = (round(sigma, 15), round(bias, 15), round(alpha, 15), n_samples, seed)
    if key not in _cusum_cache:
        tuning = tune_cusum(sigma, bias, alpha, n_samples=n_samples, seed=seed)
        log.info(
            "tuned cusum: sigma=%.6g bias=%.6g alpha=%.4g -> tau=%.6g (rate %.5f)",
            sigma, bias, alpha, tuning.tau, tuning.achieved_rate,
        )
        _cusum_cache[key] = tuning.tau
    return _cusum_cache[key]


@dataclass
class RunSummary:
    schema_version: int
    config_hash: str
    seed: int
    horizon: int
    alarm_rate: dict            # test -> list per sensor (mean over verdict steps)
    verdict_steps: dict         # test -> list per sensor
    compromised: dict           # test -> list per sensor (final sliding verdict)
    final_sliding_rate: dict    # test -> list per sensor
    deviation: Optional[dict] = None


@dataclass
class RunArtifacts:
    """Per-step records plus the summary for one scenario run."""

    config: ScenarioConfig
    summary: RunSummary
    k: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    r: np.ndarray
    xi: np.ndarray
    p: dict        # test -> (horizon, s) arrays (NaN before warm-up); bdd/cusum have no p
    alarm: dict    # test -> (horizon, s) float arrays: 0/1, NaN before warm-up
    rate: dict     # test -> (horizon, s) sliding alarm rates, NaN before ring full
    cusum_s: Optional[np.ndarray]

    @property
    def horizon(self) -> int:
        return self.k.shape[0]


def _build_controller(cfg: ScenarioConfig, plant) -> ControllerGains:
    spec = cfg.controller_spec
    if "K" in spec:
        return make_controller(plant, K=np.asarray(spec["K"], dtype=float),
                               kr=np.asarray(spec["kr"], dtype=float) if "kr" in spec else None)
    return make_controller(
        plant,
        state_weights=spec.get("state_weights"),
        input_weights=spec.get("input_weights"),
    )


def _enabled_tests(cfg: ScenarioConfig) -> tuple:
    tests = ["wsr", "sir"]
    if cfg.detector_kind in ("bdd", "both"):
        tests.append("bdd")
    if cfg.detector_kind in ("cusum", "both"):
        tests.append("cusum")
    return tuple(tests)


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    """Execute one scenario and return its artifacts.

    Deterministic for a given config and seed. Phase 1 simulates the closed
    loop with the CUSUM detector inside it, since the CUSUM worst-case attack
    reads the detector's statistic each step. Phase 2 scores the recorded
    ``(horizon, s)`` residuals with ``wsr_scan``, ``sir_scan``, the bad-data
    threshold and ``alarm_rate_scan``. Monitors are pure observers of the
    residual stream; the plant trajectory does not depend on them.
    """
    plant = build_plant(cfg.plant_spec)
    kss = solve_dare(plant)
    gains = _build_controller(cfg, plant)
    s, n, horizon = plant.s, plant.n, cfg.horizon
    tests = _enabled_tests(cfg)

    master = np.random.SeedSequence(cfg.seed)
    noise_seed, attack_root = master.spawn(2)
    noise = NoiseSource(plant.Q, plant.R, noise_seed)

    bdd = BadDataDetector.tuned(kss.sigma, cfg.alpha_des["bdd"]) if "bdd" in tests else None
    cusum = None
    if "cusum" in tests:
        bias = cfg.bias_scale * kss.sigma
        tau = np.array([
            _tuned_cusum_tau(float(sig), float(b), cfg.alpha_des["cusum"],
                             cfg.tuning_samples, cfg.tuning_seed)
            for sig, b in zip(kss.sigma, bias)
        ])
        cusum = CusumDetector(tau=tau, bias=bias, alpha_des=cfg.alpha_des["cusum"])

    attack_seeds = attack_root.spawn(max(1, len(cfg.attacks)))
    policies = [
        atk.build_attack_policy(
            plan,
            s,
            plant.C,
            kss.sigma,
            ell=cfg.window,
            alpha_des=cfg.alpha_des["wsr"],
            bdd=bdd,
            cusum=cusum,
            seed=attack_seeds[j],
        )
        for j, plan in enumerate(cfg.attacks)
    ]
    combined = atk.CompositeAttack(policies, s)
    cusum_policies = [p for p in policies if isinstance(p, atk.CusumWorstCaseAttack)]

    rec_k = np.arange(horizon)
    rec_x = np.empty((horizon, n))
    rec_xhat = np.empty((horizon, n))
    rec_r = np.empty((horizon, s))
    rec_xi = np.zeros((horizon, s))
    rec_cusum_s = np.full((horizon, s), np.nan) if cusum is not None else None
    cusum_alarm = np.full((horizon, s), np.nan) if cusum is not None else None

    # Phase 1: the closed loop.
    state = initial_state(plant, kss, noise=noise, attack=combined)
    for k in range(horizon):
        rec_x[k] = state.x
        rec_xhat[k] = state.xhat
        rec_r[k] = state.r
        if combined.last_k == k:
            rec_xi[k] = combined.last_xi
        if cusum is not None:
            cusum_alarm[k] = cusum.step(state.r)
            rec_cusum_s[k] = cusum.S
            for policy in cusum_policies:
                policy.sync_statistic(cusum.S)
        if k + 1 < horizon:
            state = step(plant, kss, gains, state, attack=combined, noise=noise)

    # Phase 2: score the recorded residuals. Degenerate windows (all zeros,
    # or too few distinct consecutive values to count runs) are maximally
    # non-random: they alarm with p = NaN.
    rec_p, rec_alarm = {}, {}
    for t, scan in (("wsr", wsr_scan), ("sir", sir_scan)):
        rec_p[t], rec_alarm[t] = scan(rec_r, cfg.window, cfg.alpha_des[t])
    if bdd is not None:
        rec_alarm["bdd"] = bdd.step(rec_r).astype(float)
    if cusum is not None:
        rec_alarm["cusum"] = cusum_alarm

    rec_rate, rates, verdicts, compromised, final_rate = {}, {}, {}, {}, {}
    for t in tests:
        first = min(cfg.window - 1, horizon) if t in rec_p else 0
        flags = rec_alarm[t][first:]
        rec_rate[t] = np.full((horizon, s), np.nan)
        rec_rate[t][first:], final, flagged = alarm_rate_scan(flags, cfg.rate_window,
                                                              cfg.alpha_tau)
        verdicts[t] = [flags.shape[0]] * s
        rates[t] = (flags.sum(axis=0) / flags.shape[0]).tolist() if flags.size else [math.nan] * s
        compromised[t] = flagged.tolist()
        final_rate[t] = final.tolist()

    summary = RunSummary(
        schema_version=1,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        horizon=horizon,
        alarm_rate=rates,
        verdict_steps=verdicts,
        compromised=compromised,
        final_sliding_rate=final_rate,
        deviation=_deviation_report(cfg, plant, kss, gains, policies, bdd, cusum, rec_x),
    )
    return RunArtifacts(
        config=cfg,
        summary=summary,
        k=rec_k,
        x=rec_x,
        xhat=rec_xhat,
        r=rec_r,
        xi=rec_xi,
        p=rec_p,
        alarm=rec_alarm,
        rate=rec_rate,
        cusum_s=rec_cusum_s,
    )


def _deviation_report(cfg, plant, kss, gains, policies, bdd, cusum, x):
    """Predicted vs measured mean state offset for the first worst-case phase.

    The predicted forcing is the mean residual the attack construction holds:
    the full threshold for detector-only pinning, threshold * beta/ell for the
    schedule-aware variant against the magnitude threshold, and the bias for
    the CUSUM-holding sequences. No prediction is reported when the open loop
    has no finite limit.
    """
    for policy, plan in zip(policies, cfg.attacks):
        if not plan.kind.startswith("worst_case"):
            continue
        er = np.zeros(plant.s)
        for i in plan.sensors:
            if plan.kind == "worst_case_bdd" and bdd is not None:
                er[i] = bdd.tau[i]
            elif plan.kind == "worst_case_bdd_randaware" and bdd is not None:
                er[i] = bdd.tau[i] * policy.budget.ratio
            elif plan.kind.startswith("worst_case_cusum") and cusum is not None:
                er[i] = cusum.bias[i]
            else:
                return None
        pred = deviation_limit(plant, kss, gains, er)
        settle = plan.start + 4 * cfg.window
        stop = min(plan.stop, cfg.horizon)
        measured = x[settle:stop].mean(axis=0).tolist() if settle < stop else None
        return {
            "attack": plan.kind,
            "expected_residual": er.tolist(),
            "stable": pred.stable,
            "predicted": pred.delta.tolist() if pred.delta is not None else None,
            "measured": measured,
        }
    return None


# --- output emission ----------------------------------------------------------------


def csv_columns(artifacts: RunArtifacts) -> list:
    """Fixed column order for the CSV contract (documented in the README)."""
    n = artifacts.x.shape[1]
    s = artifacts.r.shape[1]
    cols = ["k"]
    cols += [f"x{j}" for j in range(n)]
    cols += [f"xhat{j}" for j in range(n)]
    cols += [f"r{i}" for i in range(s)]
    cols += [f"xi{i}" for i in range(s)]
    for t in _TESTS:
        if t in artifacts.p:
            cols += [f"{t}_p{i}" for i in range(s)]
        if t in artifacts.alarm:
            cols += [f"{t}_alarm{i}" for i in range(s)]
            cols += [f"{t}_rate{i}" for i in range(s)]
    if artifacts.cusum_s is not None:
        cols += [f"cusum_S{i}" for i in range(s)]
    return cols


def _row_arrays(artifacts: RunArtifacts) -> list:
    arrays = [artifacts.k.astype(float)[:, None], artifacts.x, artifacts.xhat,
              artifacts.r, artifacts.xi]
    for t in _TESTS:
        if t in artifacts.p:
            arrays.append(artifacts.p[t])
        if t in artifacts.alarm:
            arrays.append(artifacts.alarm[t])
            arrays.append(artifacts.rate[t])
    if artifacts.cusum_s is not None:
        arrays.append(artifacts.cusum_s)
    return arrays


def emit_outputs(artifacts: RunArtifacts, fmt: str, path: str) -> str:
    """Write artifacts as CSV or JSONL; returns the path written.

    CSV carries a first comment line with schema version, config hash and
    seed, then one row per step with floats at 17 significant digits. JSONL
    holds a meta record, one record per step (NaN encoded as null) and a
    final summary record.
    """
    if fmt == "csv":
        return _emit_csv(artifacts, path)
    if fmt == "jsonl":
        return _emit_jsonl(artifacts, path)
    raise InvalidParameter(f"unknown output format {fmt!r}")


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _emit_csv(artifacts: RunArtifacts, path: str) -> str:
    cols = csv_columns(artifacts)
    data = np.hstack(_row_arrays(artifacts))
    meta = artifacts.summary
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(
            f"# randmon schema_version={meta.schema_version} "
            f"config_hash={meta.config_hash} seed={meta.seed}\n"
        )
        writer = csv.writer(handle)
        writer.writerow(cols)
        for row in data:
            writer.writerow([_fmt(v) for v in row])
    return path


def _emit_jsonl(artifacts: RunArtifacts, path: str) -> str:
    cols = csv_columns(artifacts)
    data = np.hstack(_row_arrays(artifacts))
    meta = artifacts.summary

    def clean(value):
        return None if isinstance(value, float) and math.isnan(value) else value

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "record": "meta",
            "schema_version": meta.schema_version,
            "config_hash": meta.config_hash,
            "seed": meta.seed,
        }) + "\n")
        for row in data:
            record = {"record": "step"}
            record.update({c: clean(float(v)) for c, v in zip(cols, row)})
            handle.write(json.dumps(record) + "\n")
        summary = {
            "record": "summary",
            "schema_version": meta.schema_version,
            "config_hash": meta.config_hash,
            "seed": meta.seed,
            "horizon": meta.horizon,
            "alarm_rate": meta.alarm_rate,
            "verdict_steps": meta.verdict_steps,
            "compromised": meta.compromised,
            "final_sliding_rate": meta.final_sliding_rate,
            "deviation": meta.deviation,
        }
        handle.write(json.dumps(summary) + "\n")
    return path


def read_run_csv(path: str):
    """Read back an emitted CSV; returns (meta dict, column names, data array)."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if not header.startswith("# randmon"):
            raise InvalidParameter(f"{path} is not a randmon run CSV")
        meta = dict(part.split("=", 1) for part in header[2:].split()[1:])
        reader = csv.reader(handle)
        cols = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return meta, cols, np.asarray(rows)


# --- derived tables -----------------------------------------------------------------


def budget_curve(alpha_list, ell_list) -> list:
    """Saturating-fraction table over an (alpha, ell) grid.

    Each row carries alpha, ell, gamma, beta, beta/ell and the limiting ratio
    1 - sqrt(2)/2 for reference.
    """
    rows = []
    for alpha in alpha_list:
        for ell in ell_list:
            budget = atk.saturation_budget(int(ell), float(alpha))
            rows.append({
                "alpha_des": float(alpha),
                "ell": int(ell),
                "gamma": budget.gamma,
                "beta": budget.beta,
                "ratio": budget.ratio,
                "asymptote": RATE_ASYMPTOTE,
            })
    return rows


def write_budget_curve(rows, path: str) -> str:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["alpha_des", "ell", "gamma", "beta", "ratio", "asymptote"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) if isinstance(v, float) else v for k, v in row.items()})
    return path


def tuned_thresholds(cfg: ScenarioConfig) -> dict:
    """Detector thresholds and monitor bounds for a config, for `randmon tune`."""
    from .monitors import sir_bounds, wsr_bounds

    plant = build_plant(cfg.plant_spec)
    kss = solve_dare(plant)
    out = {
        "sigma": kss.sigma.tolist(),
        "wsr_bounds": list(wsr_bounds(cfg.window, cfg.alpha_des["wsr"])),
        "sir_bounds": list(sir_bounds(cfg.window - 1, cfg.alpha_des["sir"])),
    }
    if cfg.detector_kind in ("bdd", "both"):
        out["bdd_tau"] = BadDataDetector.tuned(kss.sigma, cfg.alpha_des["bdd"]).tau.tolist()
    if cfg.detector_kind in ("cusum", "both"):
        bias = cfg.bias_scale * kss.sigma
        out["cusum_bias"] = bias.tolist()
        out["cusum_tau"] = [
            _tuned_cusum_tau(float(sig), float(b), cfg.alpha_des["cusum"],
                             cfg.tuning_samples, cfg.tuning_seed)
            for sig, b in zip(kss.sigma, bias)
        ]
    return out


# --- sweeps -------------------------------------------------------------------------


def _sweep_cell(args):
    raw_cfg, alpha, attack_kind = args
    from .config import load_config_dict

    raw = json.loads(json.dumps(raw_cfg))
    raw.setdefault("monitors", {})["alpha_des"] = alpha
    raw.pop("attacks", None)
    if attack_kind != "none":
        start = raw["monitors"].get("window", 100) * 2
        raw["attacks"] = [{
            "kind": attack_kind,
            "sensors": [0],
            "start": start,
            "stop": raw.get("horizon", 10_000),
        }]
    cfg = load_config_dict(raw)
    artifacts = run_scenario(cfg)
    return {
        "alpha_des": alpha,
        "attack": attack_kind,
        "alarm_rate": artifacts.summary.alarm_rate,
    }


def run_sweep(raw_cfg: dict, alphas, attack_kinds, workers: int = 1) -> list:
    """Cartesian sweep over desired rates and attack kinds.

    Scenarios run in parallel across worker processes; each cell reports the
    per-test, per-sensor alarm rates of its run.
    """
    cells = [(raw_cfg, float(a), kind) for a in alphas for kind in attack_kinds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_cell, cells))
    return [_sweep_cell(cell) for cell in cells]


def write_sweep(results, path: str) -> str:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha_des", "attack", "test", "sensor", "alarm_rate"])
        for cell in results:
            for test, rates in sorted(cell["alarm_rate"].items()):
                for i, rate in enumerate(rates):
                    writer.writerow([cell["alpha_des"], cell["attack"], test, i, _fmt(rate)])
    return path
