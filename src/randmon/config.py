"""Scenario configuration: JSON schema, strict validation, canonical hashing.

Configs are plain JSON. Unknown keys are rejected at every level so typos in
experiment sweeps fail loudly, and validation reports every violated
invariant at once rather than stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .attacks import AttackPlan, check_plan, entry_problems, stealth_threshold
from .detectors import CUSUM_MIN_SAMPLES, BadDataDetector
from .errors import InvalidParameter, ValidationError
from .lti import (LtiPlant, UgvParams, count_problem, discretize_ugv, drift_problem,
                  gain_problems, is_integer, make_controller, plant_problems, positive_problem,
                  raise_first, rate_problem, sample_period_problems, solve_dare, ugv_problems,
                  unknown_keys, variances_problem)

SCHEMA_VERSION = 1

MONITOR_TESTS = ("wsr", "sir", "bdd", "cusum")

#: default measurement/process noise for the UGV preset (velocity, heading,
#: yaw rate channels)
UGV_DEFAULT_Q = [1e-5, 1e-6, 1e-5]
UGV_DEFAULT_R = [4e-4, 1e-4, 2.5e-4]

_PLANT_KEYS = {"preset", "params", "ts", "q_diag", "r_diag", "A", "B", "C", "Q", "R"}
_CONTROLLER_KEYS = {"mode", "state_weights", "input_weights", "K"}
_MONITOR_KEYS = {"window", "rate_window", "alpha_des", "alpha_tau"}
_DETECTOR_KEYS = {"kind", "bias_scale", "tuning_samples", "tuning_seed"}
_OUTPUT_KEYS = {"dir", "format"}
_TOP_KEYS = {"plant", "controller", "monitors", "detectors", "attacks", "horizon", "seed", "output"}

DEFAULT_TUNING_SEED = 7_654_321
#: default ``monitors.window`` and ``monitors.rate_window``
DEFAULT_WINDOW = 100
DEFAULT_HORIZON = 10_000
#: largest accepted ``horizon``: far more steps than a run's records could ever hold
MAX_HORIZON = 10**15


@dataclass
class ScenarioConfig:
    """Fully-resolved description of one simulation run."""

    plant_spec: dict
    controller_spec: dict
    window: int
    rate_window: int
    alpha_des: dict            # per test name
    alpha_tau: float
    detector_kind: str         # 'bdd' | 'cusum' | 'both'
    bias_scale: float
    tuning_samples: int
    tuning_seed: int
    attacks: list[AttackPlan]
    horizon: int
    seed: int
    output_dir: Optional[str] = None
    output_format: str = "csv"

    def to_dict(self) -> dict:
        """Canonical plain-dict form; round-trips through load_config_dict."""
        return {
            "plant": dict(self.plant_spec),
            "controller": dict(self.controller_spec),
            "monitors": {
                "window": self.window,
                "rate_window": self.rate_window,
                "alpha_des": dict(self.alpha_des),
                "alpha_tau": self.alpha_tau,
            },
            "detectors": {
                "kind": self.detector_kind,
                "bias_scale": self.bias_scale,
                "tuning_samples": self.tuning_samples,
                "tuning_seed": self.tuning_seed,
            },
            "attacks": [asdict(plan) for plan in self.attacks],
            "horizon": self.horizon,
            "seed": self.seed,
            "output": {"dir": self.output_dir, "format": self.output_format},
        }


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 of the canonical JSON serialization (stable across reloads)."""
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _led(section: str, problems) -> list:
    """Each ``(field, text)`` problem of a section as load reports it, led by the section."""
    return [f"{section}.{field}: {text}" if field else f"{section}: {text}"
            for field, text in problems]


def detects(detector_kind: str, name: str) -> bool:
    """Whether a run of ``detectors.kind`` ``detector_kind`` has detector ``name``, bdd or cusum."""
    return detector_kind in (name, "both")


def run_bdd(detector_kind: str, sigma, alpha_des: dict) -> Optional[BadDataDetector]:
    """The run's bad-data detector, tuned at ``alpha_des["bdd"]``, or None if it has none; with
    ``alpha_des["wsr"]`` it sets a plan's ``attacks.stealth_threshold``, at load and set-up."""
    return BadDataDetector.tuned(sigma, alpha_des["bdd"]) if detects(detector_kind, "bdd") else None


def build_plant(spec: dict) -> LtiPlant:
    """Instantiate the plant from its resolved spec dict (``ScenarioConfig.plant_spec``)."""
    if spec.get("preset") == "ugv":
        raise_first(sample_period_problems(spec["ts"]))  # load checks ts before the params
        params = UgvParams(**spec.get("params", {}))
        return discretize_ugv(params, spec["ts"], np.diag(spec["q_diag"]), np.diag(spec["r_diag"]))
    return LtiPlant(**{key: spec[key] for key in (*"ABCQR", "ts")})


def _unreachable_marginal_modes(plant: LtiPlant) -> list:
    """The eigenvalues of A, each formatted once, whose modes no input can stabilise.

    A mode at eigenvalue lam with |lam| >= 1 - 1e-12 counts: one closer to the
    unit circle than that is marginal at double precision, and the LQR fixed
    point contracts on it by |lam|^2 per iteration. It is unreachable when the
    smallest singular value of [A - lam I, B] is at most 1e-12 times the
    largest (the PBH rank test).
    """
    found = []
    for lam in np.linalg.eigvals(plant.A):
        if abs(lam) < 1.0 - 1e-12:
            continue
        sv = np.linalg.svd(np.hstack([plant.A - lam * np.eye(plant.n), plant.B]),
                           compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            found.append(f"{lam.real:.6g}" if lam.imag == 0 else f"{lam:.6g}")
    return list(dict.fromkeys(found))


def _validate_plant(spec, problems: list) -> tuple:
    """The plant spec with ``ts`` and the UGV's noise variances filled in, and its sizes.

    The sizes are (states, inputs, sensors): 3, 2 and 3 for the UGV; the rows of ``A``,
    the columns of ``B`` and the rows of ``C`` for an explicit plant; None where the spec
    does not give one. The sample period, an explicit plant, the UGV parameters and its
    noise variances are checked by ``lti``'s rule sets.
    """
    if not isinstance(spec, dict):
        problems.append("plant: must be an object")
        return {}, (None, None, None)
    preset = spec.get("preset")
    if preset is None:
        out = {"ts": 1.0, **spec}
        found, arrays = plant_problems(out)
        sizes = tuple(None if arrays[key] is None else arrays[key].shape[axis]
                      for key, axis in zip("ABC", (0, 1, 0)))
    else:
        out = {"ts": 0.05, "q_diag": list(UGV_DEFAULT_Q), "r_diag": list(UGV_DEFAULT_R), **spec}
        found = sample_period_problems(out["ts"])
        found += [] if preset == "ugv" else [("preset", f"unknown preset {preset!r}")]
        params = spec.get("params", {})
        found += (ugv_problems(params) if isinstance(params, dict)
                  else [("params", "must be an object")])
        found += [(key, problem) for key, unit in (("q_diag", "state"), ("r_diag", "sensor"))
                  if (problem := variances_problem(out[key], 3, f"UGV {unit}")[0])]
        sizes = (3, 2, 3) if preset == "ugv" else (None, None, None)
    problems += _led("plant", unknown_keys(spec, _PLANT_KEYS) + found)
    return out, sizes


def _section(raw: dict, name: str, allowed: set, problems: list) -> dict:
    """``raw[name]``, an object with known keys only; ``{}`` when absent or not an object."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        problems.append(f"{name}: must be an object")
        return {}
    problems += _led(name, unknown_keys(section, allowed))
    return section


def load_config_dict(raw: dict) -> ScenarioConfig:
    """Validate a parsed config mapping and fill defaults.

    Raises ``ValidationError`` listing every violated invariant. The plant is
    built once, when nothing else is wrong; with attack plans its filter is
    solved too, and each plan held to its stealth bound (``attacks.check_plan``).
    """
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ValidationError(["top level: must be an object"])
    problems += _led("top level", unknown_keys(raw, _TOP_KEYS))

    plant_spec, (n_states, n_inputs, n_sensors) = _validate_plant(
        raw.get("plant", {"preset": "ugv"}), problems)

    controller_spec = dict(_section(raw, "controller", _CONTROLLER_KEYS, problems))
    if "K" not in controller_spec:
        controller_spec.setdefault("mode", "lqr")
    if controller_spec.get("mode", "lqr") != "lqr":
        problems.append(f"controller.mode: must be \"lqr\", got {controller_spec['mode']!r}")
    found, K = gain_problems(controller_spec, n_states, n_inputs)[:2]
    problems += _led("controller", [problem for problem in found if problem[0] == "K"])
    if "K" in controller_spec and not problems:  # the given gain must stabilise the plant
        plant = build_plant(plant_spec)  # outside the try: a ZOH overflow is a runtime error
        try:
            make_controller(plant, K=K)
        except InvalidParameter as exc:
            problems.append(f"controller.{exc}")
    problems += _led("controller", [problem for problem in found if problem[0] != "K"])
    if not problems and "K" not in controller_spec:  # the LQR design must reach every such mode
        modes = _unreachable_marginal_modes(plant := build_plant(plant_spec))  # no try, as above
        if modes:
            problems.append(f"plant: the inputs cannot reach the mode(s) of A at eigenvalue(s) "
                            f"{', '.join(modes)}, on or within 1e-12 of the unit circle, so "
                            "no LQR gain stabilises the plant")

    def report(field: str, problem: str) -> bool:  # whether a rule found no problem
        if problem:
            problems.append(f"{field}: {problem}")
        return not problem

    monitors = _section(raw, "monitors", _MONITOR_KEYS, problems)
    window = monitors.get("window", DEFAULT_WINDOW)
    rate_window = monitors.get("rate_window", DEFAULT_WINDOW)
    # the runs test needs two differences per window
    report("monitors.window", count_problem(window, 3))
    report("monitors.rate_window", count_problem(rate_window, 2))

    alpha_raw = monitors.get("alpha_des", 0.05)
    alpha_des: dict = {}
    if isinstance(alpha_raw, dict):
        for key in alpha_raw:
            if key not in MONITOR_TESTS:
                problems.append(f"monitors.alpha_des: unknown test {key!r}")
        for test in MONITOR_TESTS:
            value = alpha_raw.get(test, 0.05)
            if report(f"monitors.alpha_des.{test}", rate_problem(value)):
                alpha_des[test] = float(value)
    elif report("monitors.alpha_des", rate_problem(alpha_raw)):
        alpha_des = {test: float(alpha_raw) for test in MONITOR_TESTS}
    if not alpha_des:
        alpha_des = {test: 0.05 for test in MONITOR_TESTS}

    alpha_tau = monitors.get("alpha_tau")
    if alpha_tau is None:
        alpha_tau = 3.0 * max(alpha_des.values())
        if alpha_tau > 1.0:
            problems.append(f"monitors.alpha_tau: the default 3 * max(alpha_des) = {alpha_tau!r}"
                            " exceeds 1, so monitors.alpha_tau must be set, in (0, 1]")
    else:
        report("monitors.alpha_tau", rate_problem(alpha_tau, allow_one=True))

    detectors = _section(raw, "detectors", _DETECTOR_KEYS, problems)
    detector_kind = detectors.get("kind", "both")
    if detector_kind not in ("bdd", "cusum", "both"):
        problems.append(f"detectors.kind: must be bdd, cusum or both, got {detector_kind!r}")
    bias_scale = detectors.get("bias_scale", 1.5)  # in units of sigma
    has_cusum = detects(detector_kind, "cusum")
    if report("detectors.bias_scale", positive_problem(bias_scale)) and has_cusum:
        report("detectors.bias_scale", drift_problem(bias_scale))
    tuning_samples = detectors.get("tuning_samples", CUSUM_MIN_SAMPLES)
    report("detectors.tuning_samples", count_problem(tuning_samples, CUSUM_MIN_SAMPLES))
    tuning_seed = detectors.get("tuning_seed", DEFAULT_TUNING_SEED)
    report("detectors.tuning_seed", count_problem(tuning_seed, 0))

    horizon = raw.get("horizon", DEFAULT_HORIZON)
    horizon_ok = report("horizon", count_problem(horizon, 1))
    if horizon_ok and horizon > MAX_HORIZON:
        problems.append(f"horizon: must be <= {MAX_HORIZON}, got {horizon}")
    elif horizon_ok and is_integer(window) and is_integer(rate_window) and (
            horizon < window + rate_window):
        problems.append(
            f"horizon: must be >= window + rate_window = {window + rate_window}, got {horizon}"
        )

    seed = raw.get("seed", 0)
    report("seed", count_problem(seed, 0))

    attacks_raw = raw.get("attacks", [])
    plans: dict[int, AttackPlan] = {}  # by index in attacks, of each entry with no problem
    if not isinstance(attacks_raw, list):
        problems.append("attacks: must be a list")
        attacks_raw = []
    for idx, entry in enumerate(attacks_raw):
        where = f"attacks[{idx}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        entry = {"kind": "none", "sensors": [0], "start": 0,
                 "stop": horizon if is_integer(horizon) else 0, "params": {}, **entry}
        found = entry_problems(entry)
        problems += _led(where, found)
        if found:
            continue
        plan = AttackPlan(**entry)
        problems += [f"{where}: overlaps attacks[{j}] on sensor {i}; replacement-style attacks "
                     "must not overlap" for i in plan.sensors for j, other in plans.items()
                     if i in other.sensors and plan.start < other.stop and other.start < plan.stop]
        plans[idx] = plan

    output = _section(raw, "output", _OUTPUT_KEYS, problems)
    output_dir = output.get("dir")
    if not (output_dir is None or isinstance(output_dir, str) and "\0" not in output_dir):
        problems.append(f"output.dir: must be a path string or null, got {output_dir!r}")
    output_format = output.get("format", "csv")
    if output_format not in ("csv", "jsonl"):
        problems.append(f"output.format: must be csv or jsonl, got {output_format!r}")

    def plan_problems(**bounds):  # attacks.check_plan's, each led by its plan
        ell = window if is_integer(window) else None
        return [problem for idx, plan in plans.items() for problem in _led(
            f"attacks[{idx}]", check_plan(plan, n_sensors, ell=ell, has_cusum=has_cusum,
                                          **bounds)[0])]

    problems += plan_problems()
    if plans and not problems:  # so the plant is built
        sigma = solve_dare(plant).sigma
        problems += plan_problems(sigma=sigma, tau_b=stealth_threshold(
            sigma, alpha_des["wsr"], run_bdd(detector_kind, sigma, alpha_des)))
    if problems:
        raise ValidationError(problems)

    return ScenarioConfig(
        plant_spec=plant_spec,
        controller_spec=controller_spec,
        window=int(window),  # numpy integers too, stored as Python ints
        rate_window=int(rate_window),
        alpha_des=alpha_des,
        alpha_tau=float(alpha_tau),
        detector_kind=detector_kind,
        bias_scale=float(bias_scale),
        tuning_samples=int(tuning_samples),
        tuning_seed=int(tuning_seed),
        attacks=list(plans.values()),
        horizon=int(horizon),
        seed=int(seed),
        output_dir=output_dir,
        output_format=output_format,
    )


def read_config(path):
    """Read and parse a JSON scenario file, unvalidated; ``ValidationError`` if it cannot."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    except (OSError, ValueError, RecursionError) as exc:  # bad bytes, a huge int, deep nesting
        raise ValidationError([f"cannot read {path}: {exc}"]) from exc


def load_config(path, seed: Optional[int] = None) -> ScenarioConfig:
    """Read, parse and validate a JSON scenario file; ``seed`` overrides its seed."""
    raw = read_config(path)
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return load_config_dict(raw)
