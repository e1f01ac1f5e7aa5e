"""Scenario execution: wire plant, monitors, detectors and attacks; emit results.

Every run is driven by one master seed. Noise, attack dither and saturation
schedules draw from independent child streams, so runs are bit-reproducible
and attack randomness does not perturb the noise sequence.

A run has two phases. The first is ``lti.simulate``: it steps the closed
loop (plant, estimator, controller, attack) and records the trajectory, the
residuals and the applied attack. Only a run whose CUSUM worst-case attack
reads the live detector steps it there, in simulate's ``on_step`` callback.
The second phase scores the recorded residual array: the window tests, the
boundary detectors and the sliding alarm rates of all four tests, over all
steps at once, with the live detector's float operations, so the split leaves
every output byte unchanged.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import attacks as atk
from .config import (DEFAULT_HORIZON, DEFAULT_WINDOW, MONITOR_TESTS, SCHEMA_VERSION,
                     ScenarioConfig, build_plant, config_hash, load_config_dict)
from .detectors import BadDataDetector, CusumDetector, cusum_alarm_fraction, tune_cusum
from .deviation import deviation_limit
from .errors import InvalidParameter, ValidationError
from .lti import NoiseSource, make_controller, simulate, solve_dare
from .monitors import alarm_rate_scan, sir_bounds, sir_scan, wsr_bounds, wsr_scan

log = logging.getLogger(__name__)

RATE_ASYMPTOTE = 1.0 - math.sqrt(2.0) / 2.0

# Tuned CUSUM thresholds are cached by the exact tuning inputs; tuning is Monte
# Carlo over >= 1e6 samples and identical inputs recur across sweeps.
@functools.lru_cache(maxsize=None)
def _tuned_cusum_tau(sigma: float, bias: float, alpha: float, n_samples: int, seed: int) -> float:
    tuning = tune_cusum(sigma, bias, alpha, n_samples=n_samples, seed=seed)
    log.info(
        "tuned cusum: sigma=%.6g bias=%.6g alpha=%.4g -> tau=%.6g (rate %.5f)",
        sigma, bias, alpha, tuning.tau, tuning.achieved_rate,
    )
    return tuning.tau


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


def _set_up(cfg: ScenarioConfig) -> tuple:
    """The plant, its steady-state filter and the detectors calibrated from it.

    Returns ``(plant, kss, bdd, cusum)``; a detector the config disables is None.
    """
    plant = build_plant(cfg.plant_spec)
    kss = solve_dare(plant)
    bdd = cusum = None
    if cfg.detector_kind in ("bdd", "both"):
        bdd = BadDataDetector.tuned(kss.sigma, cfg.alpha_des["bdd"])
    if cfg.detector_kind in ("cusum", "both"):
        bias = cfg.bias_scale * kss.sigma
        tau = [
            _tuned_cusum_tau(float(sig), float(b), cfg.alpha_des["cusum"],
                             cfg.tuning_samples, cfg.tuning_seed)
            for sig, b in zip(kss.sigma, bias)
        ]
        cusum = CusumDetector(tau=tau, bias=bias)
    return plant, kss, bdd, cusum


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    """Execute one scenario and return its artifacts.

    Deterministic for a given config and seed. Phase 1 is ``lti.simulate``;
    when a CUSUM worst-case attack reads the detector's statistic, the live
    detector is stepped in its ``on_step`` callback. Phase 2 scores the
    recorded ``(horizon, s)`` residuals with ``wsr_scan``, ``sir_scan``, the
    bad-data threshold, ``cusum_alarm_fraction`` and ``alarm_rate_scan``.
    Monitors are pure observers of the residual stream; the plant trajectory
    does not depend on them.
    """
    plant, kss, bdd, cusum = _set_up(cfg)
    spec = cfg.controller_spec
    K = make_controller(plant, K=spec.get("K"), state_weights=spec.get("state_weights"),
                        input_weights=spec.get("input_weights"))
    s, horizon = plant.s, cfg.horizon

    master = np.random.SeedSequence(cfg.seed)
    noise_seed, attack_root = master.spawn(2)
    noise = NoiseSource(plant.Q, plant.R, noise_seed)

    # a plan whose parameters break its stealth bound is a config error, each one reported
    attack_seeds = attack_root.spawn(max(1, len(cfg.attacks)))
    policies, problems = [], []
    for j, plan in enumerate(cfg.attacks):
        try:
            policies.append(atk.build_attack_policy(
                plan,
                s,
                plant.C,
                kss.sigma,
                ell=cfg.window,
                alpha_des=cfg.alpha_des["wsr"],
                bdd=bdd,
                cusum=cusum,
                seed=attack_seeds[j],
            ))
        except InvalidParameter as exc:
            problems.append(f"attacks[{j}]: {exc}")
    if problems:
        raise ValidationError(problems)
    combined = atk.CompositeAttack(policies, s) if policies else None

    # Phase 1: the closed loop. A live CUSUM detector consumes r[k] before the
    # attack for step k + 1 reads its statistic.
    live = any(plan.kind.startswith("worst_case_cusum") for plan in cfg.attacks)
    traj = simulate(plant, kss, K, noise, horizon, attack=combined,
                    on_step=(lambda k, r: cusum.step(r)) if live else None)
    rec_x, rec_r = traj["x"], traj["r"]

    # Phase 2: score the recorded residuals. Degenerate windows (all zeros,
    # or too few distinct consecutive values to count runs) are maximally
    # non-random: they alarm with p = NaN.
    rec_p, rec_alarm = {}, {}
    for t, scan in (("wsr", wsr_scan), ("sir", sir_scan)):
        rec_p[t], rec_alarm[t] = scan(rec_r, cfg.window, cfg.alpha_des[t])
    if bdd is not None:
        rec_alarm["bdd"] = bdd.step(rec_r).astype(float)
    rec_cusum_s = None
    if cusum is not None:  # S[k] after step k; the alarm at step k is S[k - 1] > tau
        rec_cusum_s = np.empty((horizon, s))
        for i, (tau, bias) in enumerate(zip(cusum.tau.tolist(), cusum.bias.tolist())):
            cusum_alarm_fraction(np.abs(rec_r[:, i]), tau, bias, out=rec_cusum_s[:, i])
        rec_alarm["cusum"] = np.zeros((horizon, s))
        rec_alarm["cusum"][1:] = rec_cusum_s[:-1] > cusum.tau

    # rec_alarm holds the enabled tests in MONITOR_TESTS order, the summary's key order
    rec_rate, rates, verdicts, compromised, final_rate = {}, {}, {}, {}, {}
    for t in rec_alarm:
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
        schema_version=SCHEMA_VERSION,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        horizon=horizon,
        alarm_rate=rates,
        verdict_steps=verdicts,
        compromised=compromised,
        final_sliding_rate=final_rate,
        deviation=_deviation_report(cfg, plant, kss, K, policies, rec_x),
    )
    return RunArtifacts(
        summary=summary,
        k=np.arange(horizon),
        x=rec_x,
        xhat=traj["xhat"],
        r=rec_r,
        xi=traj["xi"],
        p=rec_p,
        alarm=rec_alarm,
        rate=rec_rate,
        cusum_s=rec_cusum_s,
    )


def _deviation_report(cfg, plant, kss, K, policies, x):
    """Predicted vs measured mean state offset for the first worst-case phase.

    The predicted forcing is the policy's ``forcing``. Nothing is reported
    when it is None, a bad-data attack run without the bad-data detector (its
    threshold then is not a configured one); the prediction is None when the
    open loop has no finite limit.
    """
    for policy, plan in zip(policies, cfg.attacks):
        if not plan.kind.startswith("worst_case"):
            continue
        if policy.forcing is None:
            return None
        pred = deviation_limit(plant, kss, K, policy.forcing)
        settle = plan.start + 4 * cfg.window
        stop = min(plan.stop, cfg.horizon)
        measured = x[settle:stop].mean(axis=0).tolist() if settle < stop else None
        return {
            "attack": plan.kind,
            "expected_residual": policy.forcing.tolist(),
            "stable": pred.stable,
            "predicted": pred.delta.tolist() if pred.delta is not None else None,
            "measured": measured,
        }
    return None


# --- output emission ----------------------------------------------------------------


#: Rows written per chunk. Each chunk's slices are stacked into one small float64
#: block, so emission memory does not grow with the horizon; at 256 rows the
#: block and its Python floats still raised a 5000-step run's peak RSS by 0.8 MB.
EMIT_CHUNK_ROWS = 64


def _column_table(artifacts: RunArtifacts) -> tuple:
    """The output table: column names in README contract order, and the arrays holding them.

    Each array is ``(horizon, width)``; laid side by side they give the columns.
    """
    table = [("x", artifacts.x), ("xhat", artifacts.xhat), ("r", artifacts.r), ("xi", artifacts.xi)]
    for t in MONITOR_TESTS:
        if t in artifacts.p:
            table.append((f"{t}_p", artifacts.p[t]))
        if t in artifacts.alarm:
            table += [(f"{t}_alarm", artifacts.alarm[t]), (f"{t}_rate", artifacts.rate[t])]
    if artifacts.cusum_s is not None:
        table.append(("cusum_S", artifacts.cusum_s))
    names = ["k"] + [f"{prefix}{i}" for prefix, array in table for i in range(array.shape[1])]
    return names, [artifacts.k[:, None]] + [array for _, array in table]


def emit_outputs(artifacts: RunArtifacts, fmt: str, path: str) -> str:
    """Write artifacts as CSV or JSONL; returns the path written.

    CSV carries a first comment line with schema version, config hash and
    seed, then a header row and one row per step with floats at 17
    significant digits. JSONL holds a meta record, one record per step (NaN
    encoded as null, +-inf as Infinity/-Infinity) and a final summary record.
    Both read the columns of ``_column_table`` and stream the rows
    ``EMIT_CHUNK_ROWS`` at a time: each chunk's values fill one per-row
    template, repeated once per row, and go out in one write.
    """
    if fmt not in ("csv", "jsonl"):
        raise InvalidParameter(f"unknown output format {fmt!r}")
    cols, arrays = _column_table(artifacts)
    summary = artifacts.summary
    meta = {"schema_version": summary.schema_version, "config_hash": summary.config_hash,
            "seed": summary.seed}
    as_csv = fmt == "csv"
    # "%.17g" % v is format(v, ".17g") and "%r" % v is float.__repr__, which
    # json.dumps uses for finite floats; no column name needs CSV quoting.
    if as_csv:
        row = ",".join(["%.17g"] * len(cols)) + "\r\n"
    else:
        row = "{" + ", ".join(['"record": "step"'] + [f"{json.dumps(c)}: %r" for c in cols]) + "}\n"
    with open(path, "w", newline="" if as_csv else None, encoding="utf-8") as handle:
        if as_csv:
            handle.write("# randmon " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
            handle.write(",".join(cols) + "\r\n")
        else:
            handle.write(json.dumps({"record": "meta", **meta}) + "\n")
        for start in range(0, artifacts.horizon, EMIT_CHUNK_ROWS):
            block = np.hstack([a[start:start + EMIT_CHUNK_ROWS] for a in arrays])
            text = (row * block.shape[0]) % tuple(block.ravel().tolist())
            if not as_csv:  # every value follows ": ", so only the reprs of NaN and +-inf match
                text = (text.replace(": nan", ": null").replace(": inf", ": Infinity")
                        .replace(": -inf", ": -Infinity"))
            handle.write(text)
        if not as_csv:
            handle.write(json.dumps({"record": "summary", **asdict(summary)}) + "\n")
    return path


def _fmt(value: float) -> str:
    return format(value, ".17g")


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
    _, kss, bdd, cusum = _set_up(cfg)
    out = {
        "sigma": kss.sigma.tolist(),
        "wsr_bounds": list(wsr_bounds(cfg.window, cfg.alpha_des["wsr"])),
        "sir_bounds": list(sir_bounds(cfg.window - 1, cfg.alpha_des["sir"])),
    }
    if bdd is not None:
        out["bdd_tau"] = bdd.tau.tolist()
    if cusum is not None:
        out["cusum_bias"] = cusum.bias.tolist()
        out["cusum_tau"] = cusum.tau.tolist()
    return out


# --- sweeps -------------------------------------------------------------------------


def _sweep_config(raw_cfg, alpha: float, attack_kind: str) -> ScenarioConfig:
    """The base config at one desired rate, under one attack on sensor 0 from two windows in.

    A base whose top level or ``monitors`` is not an object is validated as it
    is, so the sweep reports the config error ``randmon run`` gives for it.
    """
    raw = json.loads(json.dumps(raw_cfg))
    monitors = raw.get("monitors", {}) if isinstance(raw, dict) else None
    if isinstance(monitors, dict):
        raw["monitors"] = {**monitors, "alpha_des": alpha}
        raw.pop("attacks", None)
        if attack_kind != "none":
            window = monitors.get("window", DEFAULT_WINDOW)
            raw["attacks"] = [{
                "kind": attack_kind,
                "sensors": [0],
                "start": 2 * window if type(window) is int else 0,
                "stop": raw.get("horizon", DEFAULT_HORIZON),
            }]
    return load_config_dict(raw)


def _sweep_cell(args):
    cfg, alpha, attack_kind = args
    return {
        "alpha_des": alpha,
        "attack": attack_kind,
        "alarm_rate": run_scenario(cfg).summary.alarm_rate,
    }


def run_sweep(raw_cfg: dict, alphas, attack_kinds, workers: int = 1) -> list:
    """Cartesian sweep over desired rates and attack kinds.

    Every cell's config is validated up front, so a config error stops the
    sweep before any scenario runs. Scenarios run in parallel across worker
    processes; each cell reports the per-test, per-sensor alarm rates of its
    run. Cells are alpha-major and each worker takes one contiguous block of
    them, so a worker tunes CUSUM for as few alphas as it can (the tuning
    cache is per process).
    """
    cells = [(_sweep_config(raw_cfg, float(a), kind), float(a), kind)
             for a in alphas for kind in attack_kinds]
    # a fork-started pool starts all its workers at the first submit
    workers = min(workers, len(cells))
    if workers > 1:
        block = math.ceil(len(cells) / workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_cell, cells, chunksize=block))
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
