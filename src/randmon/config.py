"""Scenario configuration: JSON schema, strict validation, canonical hashing.

Configs are plain JSON. Unknown keys are rejected at every level so typos in
experiment sweeps fail loudly, and validation reports every violated
invariant at once rather than stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attacks import ATTACK_KINDS, AttackPlan, check_plan
from .detectors import CUSUM_MIN_SAMPLES, HALF_NORMAL_MEAN_FACTOR, tune_bdd
from .errors import InvalidParameter, ValidationError
from .lti import (LtiPlant, UgvParams, _check_covariance, discretize_ugv, make_controller,
                  solve_dare)

SCHEMA_VERSION = 1

MONITOR_TESTS = ("wsr", "sir", "bdd", "cusum")

#: default measurement/process noise for the UGV preset (velocity, heading,
#: yaw rate channels)
UGV_DEFAULT_Q = [1e-5, 1e-6, 1e-5]
UGV_DEFAULT_R = [4e-4, 1e-4, 2.5e-4]

_PLANT_KEYS = {"preset", "params", "ts", "q_diag", "r_diag", "A", "B", "C", "Q", "R"}
_UGV_PARAM_KEYS = {"mass", "inertia", "width", "roll_resistance", "turn_resistance"}
_CONTROLLER_KEYS = {"mode", "state_weights", "input_weights", "K"}
_MONITOR_KEYS = {"window", "rate_window", "alpha_des", "alpha_tau"}
_DETECTOR_KEYS = {"kind", "bias_scale", "tuning_samples", "tuning_seed"}
_ATTACK_KEYS = {"kind", "sensors", "start", "stop", "params"}
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
            "attacks": [
                {
                    "kind": p.kind,
                    "sensors": list(p.sensors),
                    "start": p.start,
                    "stop": p.stop,
                    "params": dict(p.params),
                }
                for p in self.attacks
            ],
            "horizon": self.horizon,
            "seed": self.seed,
            "output": {"dir": self.output_dir, "format": self.output_format},
        }


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 of the canonical JSON serialization (stable across reloads)."""
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _reject_unknown(mapping: dict, allowed: set, where: str, problems: list) -> None:
    for key in mapping:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r}")


def _is_int(value) -> bool:
    return type(value) is int  # bool is not an integer


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)  # bool is not a number
    except OverflowError:  # an int beyond the float range
        return False


def _finite_list(value) -> bool:
    return isinstance(value, list) and all(map(_finite_number, value))


def _finite_array(value) -> bool:
    """A finite number, a list of them, or a rectangular list of such lists."""
    if isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        return len(set(map(len, value))) == 1 and all(map(_finite_list, value))
    return _finite_list(value if isinstance(value, list) else [value])


def _check_psd(matrix, where: str, name: str, problems: list) -> None:
    """Report a square ``matrix`` that ``lti._check_covariance`` rejects (asymmetric, not PSD)."""
    try:
        _check_covariance(np.atleast_2d(np.asarray(matrix, dtype=float)), name)
    except InvalidParameter as exc:
        problems.append(f"{where}: {exc}")


def build_plant(spec: dict) -> LtiPlant:
    """Instantiate the plant from its resolved spec dict (``ScenarioConfig.plant_spec``)."""
    if spec.get("preset") == "ugv":
        params = UgvParams(**spec.get("params", {}))
        return discretize_ugv(params, spec["ts"], np.diag(spec["q_diag"]), np.diag(spec["r_diag"]))
    return LtiPlant(
        A=np.asarray(spec["A"], dtype=float),
        B=np.asarray(spec["B"], dtype=float),
        C=np.asarray(spec["C"], dtype=float),
        Q=np.asarray(spec["Q"], dtype=float),
        R=np.asarray(spec["R"], dtype=float),
        ts=spec["ts"],
    )


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
    the columns of ``B`` and the rows of ``C`` (each read once, by ``_shape``) for an
    explicit plant; None where the spec does not give one.
    """
    if not isinstance(spec, dict):
        problems.append("plant: must be an object")
        return {}, (None, None, None)
    _reject_unknown(spec, _PLANT_KEYS, "plant", problems)
    out = dict(spec)
    if spec.get("preset") is not None:
        out.setdefault("ts", 0.05)
        out.setdefault("q_diag", list(UGV_DEFAULT_Q))
        out.setdefault("r_diag", list(UGV_DEFAULT_R))
    else:
        out.setdefault("ts", 1.0)
    ts = out["ts"]
    if not (_finite_number(ts) and ts > 0):
        problems.append(f"plant.ts: must be a finite positive number, got {ts!r}")
    if spec.get("preset") is not None:
        if spec["preset"] != "ugv":
            problems.append(f"plant.preset: unknown preset {spec['preset']!r}")
        params = spec.get("params", {})
        if isinstance(params, dict):
            _reject_unknown(params, _UGV_PARAM_KEYS, "plant.params", problems)
            for key, value in params.items():
                if not (_finite_number(value) and value > 0):
                    problems.append(f"plant.params.{key}: must be a finite positive number")
        else:
            problems.append("plant.params: must be an object")
        for diag_key, dim in (("q_diag", 3), ("r_diag", 3)):
            if not _finite_list(out[diag_key]) or len(out[diag_key]) != dim:
                problems.append(f"plant.{diag_key}: must be a list of {dim} finite variances")
            else:
                _check_psd(np.diag(out[diag_key]), f"plant.{diag_key}", f"diag({diag_key})",
                           problems)
        return out, ((3, 2, 3) if spec["preset"] == "ugv" else (None, None, None))

    shapes = {key: _shape(spec.get(key)) for key in ("A", "B", "C", "Q", "R")}
    for key, shape in shapes.items():
        if key not in spec:
            problems.append(f"plant.{key}: required for explicit plants")
        elif shape is None:
            problems.append(f"plant.{key}: must be a matrix of finite numbers")
    A, B, C, Q, R = shapes.values()
    checks = []
    if A is not None:
        n = A[0]
        checks += [("A", A, A[1] == n, "must be square"),
                   ("B", B, B is None or B[0] == n, f"must have one row per state ({n})"),
                   ("C", C, C is None or C[1] == n, f"must have one column per state ({n})"),
                   ("Q", Q, Q is None or Q == (n, n), f"must be {n}x{n} (states x states)")]
    if C is not None:
        s = C[0]
        checks.append(("R", R, R is None or R == (s, s), f"must be {s}x{s} (sensors x sensors)"))
    for key, shape, ok, rule in checks:
        if not ok:
            problems.append(f"plant.{key}: {rule}, got {shape[0]}x{shape[1]}")
    for key, shape in (("Q", Q), ("R", R)):
        if shape is not None and shape[0] == shape[1]:
            _check_psd(spec[key], f"plant.{key}", key, problems)
    return out, (A and A[0], B and B[1], C and C[0])  # a shape is a non-empty tuple


def _shape(value) -> Optional[tuple]:
    """(rows, columns) of a matrix field read as the plant reads it, None if not numeric.

    A number or a flat list is one row.
    """
    if not _finite_array(value):
        return None
    return np.atleast_2d(np.asarray(value, dtype=float)).shape


def _section(raw: dict, name: str, allowed: set, problems: list) -> dict:
    """``raw[name]``, an object with known keys only; ``{}`` when absent or not an object."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        problems.append(f"{name}: must be an object")
        return {}
    _reject_unknown(section, allowed, name, problems)
    return section


def _validate_alpha(value, where: str, problems: list) -> bool:
    if not (_finite_number(value) and 0.0 < value < 1.0):
        problems.append(f"{where}: must be a number in (0, 1), got {value!r}")
        return False
    return True


def load_config_dict(raw: dict) -> ScenarioConfig:
    """Validate a parsed config mapping and fill defaults.

    Raises ``ValidationError`` listing every violated invariant. The plant is
    built once, when nothing else is wrong; with attack plans its filter is
    solved too, and each plan held to its stealth bound (``attacks.check_plan``).
    """
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ValidationError(["top level: must be an object"])
    _reject_unknown(raw, _TOP_KEYS, "top level", problems)

    plant_spec, (n_states, n_inputs, n_sensors) = _validate_plant(
        raw.get("plant", {"preset": "ugv"}), problems)

    controller_spec = dict(_section(raw, "controller", _CONTROLLER_KEYS, problems))
    if "K" not in controller_spec:
        controller_spec.setdefault("mode", "lqr")
    if controller_spec.get("mode", "lqr") != "lqr":
        problems.append(f"controller.mode: must be \"lqr\", got {controller_spec['mode']!r}")
    if "K" in controller_spec:
        K = _shape(controller_spec["K"])
        if K is None:
            problems.append("controller.K: must be a matrix of finite numbers")
        else:
            want = (n_inputs if n_inputs is not None else K[0],
                    n_states if n_states is not None else K[1])
            if K != want:
                problems.append(f"controller.K: must be {want[0]}x{want[1]} (plant inputs x "
                                f"states), got {K[0]}x{K[1]}")
        if not problems:  # the given gain must stabilise the plant
            plant = build_plant(plant_spec)  # outside the try: a ZOH overflow is a runtime error
            try:
                make_controller(plant, K=controller_spec["K"])
            except InvalidParameter as exc:
                problems.append(f"controller.K: {exc}")
    for key, dim in (("state_weights", n_states), ("input_weights", n_inputs)):
        if key not in controller_spec:
            continue
        weights = controller_spec[key]
        if not _finite_list(weights):
            problems.append(f"controller.{key}: must be a list of finite numbers")
        elif "K" not in controller_spec and dim is not None and len(weights) != dim:
            problems.append(f"controller.{key}: must have {dim} entries, one per plant "
                            f"{key.split('_')[0]}, got {len(weights)}")
        elif "K" not in controller_spec and weights:
            _check_psd(np.diag(weights), f"controller.{key}", f"diag({key})", problems)
    if not problems and "K" not in controller_spec:  # the LQR design must reach every such mode
        modes = _unreachable_marginal_modes(plant := build_plant(plant_spec))  # no try, as above
        if modes:
            problems.append(f"plant: the inputs cannot reach the mode(s) of A at eigenvalue(s) "
                            f"{', '.join(modes)}, on or within 1e-12 of the unit circle, so "
                            "no LQR gain stabilises the plant")

    monitors = _section(raw, "monitors", _MONITOR_KEYS, problems)
    window = monitors.get("window", DEFAULT_WINDOW)
    rate_window = monitors.get("rate_window", DEFAULT_WINDOW)
    # the runs test needs two differences per window
    for name, value, least in (("monitors.window", window, 3),
                               ("monitors.rate_window", rate_window, 2)):
        if not _is_int(value) or value < least:
            problems.append(f"{name}: must be an integer >= {least}")

    alpha_raw = monitors.get("alpha_des", 0.05)
    alpha_des: dict = {}
    if isinstance(alpha_raw, dict):
        for key in alpha_raw:
            if key not in MONITOR_TESTS:
                problems.append(f"monitors.alpha_des: unknown test {key!r}")
        for test in MONITOR_TESTS:
            value = alpha_raw.get(test, 0.05)
            if _validate_alpha(value, f"monitors.alpha_des.{test}", problems):
                alpha_des[test] = float(value)
    else:
        if _validate_alpha(alpha_raw, "monitors.alpha_des", problems):
            alpha_des = {test: float(alpha_raw) for test in MONITOR_TESTS}
    if not alpha_des:
        alpha_des = {test: 0.05 for test in MONITOR_TESTS}

    alpha_tau = monitors.get("alpha_tau")
    if alpha_tau is None:
        alpha_tau = 3.0 * max(alpha_des.values())
        if alpha_tau > 1.0:
            problems.append(f"monitors.alpha_tau: the default 3 * max(alpha_des) = {alpha_tau!r}"
                            " exceeds 1, so monitors.alpha_tau must be set, in (0, 1]")
    elif not (_finite_number(alpha_tau) and 0.0 < alpha_tau <= 1.0):
        problems.append(f"monitors.alpha_tau: must lie in (0, 1], got {alpha_tau!r}")

    detectors = _section(raw, "detectors", _DETECTOR_KEYS, problems)
    detector_kind = detectors.get("kind", "both")
    if detector_kind not in ("bdd", "cusum", "both"):
        problems.append(f"detectors.kind: must be bdd, cusum or both, got {detector_kind!r}")
    bias_scale = detectors.get("bias_scale", 1.5)
    if not (_finite_number(bias_scale) and bias_scale > 0):
        problems.append(f"detectors.bias_scale: must be a finite positive number, got {bias_scale!r}")
    elif detector_kind in ("cusum", "both") and bias_scale <= HALF_NORMAL_MEAN_FACTOR:
        problems.append(f"detectors.bias_scale: must exceed sqrt(2/pi) = "
                        f"{HALF_NORMAL_MEAN_FACTOR:.6g} for a CUSUM detector, got {bias_scale!r}")
    tuning_samples = detectors.get("tuning_samples", CUSUM_MIN_SAMPLES)
    if not _is_int(tuning_samples) or tuning_samples < CUSUM_MIN_SAMPLES:
        problems.append(f"detectors.tuning_samples: must be an integer >= {CUSUM_MIN_SAMPLES}")
    tuning_seed = detectors.get("tuning_seed", DEFAULT_TUNING_SEED)
    if not _is_int(tuning_seed) or tuning_seed < 0:
        problems.append("detectors.tuning_seed: must be a nonnegative integer")

    horizon = raw.get("horizon", DEFAULT_HORIZON)
    if not _is_int(horizon) or horizon < 1:
        problems.append("horizon: must be a positive integer")
    elif horizon > MAX_HORIZON:
        problems.append(f"horizon: must be <= {MAX_HORIZON}, got {horizon}")
    elif _is_int(window) and _is_int(rate_window) and horizon < window + rate_window:
        problems.append(
            f"horizon: must be >= window + rate_window = {window + rate_window}, got {horizon}"
        )

    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        problems.append("seed: must be a nonnegative integer")

    attacks_raw = raw.get("attacks", [])
    plans: dict[int, AttackPlan] = {}  # by index in attacks
    if not isinstance(attacks_raw, list):
        problems.append("attacks: must be a list")
        attacks_raw = []
    per_sensor_windows: dict[int, list] = {}
    for idx, entry in enumerate(attacks_raw):
        where = f"attacks[{idx}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        _reject_unknown(entry, _ATTACK_KEYS, where, problems)
        kind = entry.get("kind", "none")
        if kind not in ATTACK_KINDS:
            problems.append(f"{where}.kind: unknown kind {kind!r}")
            continue
        sensors = entry.get("sensors", [0])
        if not isinstance(sensors, list) or not all(map(_is_int, sensors)):
            problems.append(f"{where}.sensors: must be a list of integer indices")
            continue
        if not sensors or len(set(sensors)) < len(sensors):
            problems.append(f"{where}.sensors: must name each attacked sensor once, got {sensors}")
            continue
        start = entry.get("start", 0)
        stop = entry.get("stop", horizon if _is_int(horizon) else 0)
        if not (_is_int(start) and _is_int(stop) and 0 <= start < stop):
            problems.append(f"{where}: requires integer 0 <= start < stop")
            continue
        params = entry.get("params", {})
        if not isinstance(params, dict):
            problems.append(f"{where}.params: must be an object")
            continue
        for i in sensors:
            for other_start, other_stop, other_idx in per_sensor_windows.get(i, []):
                if start < other_stop and other_start < stop:
                    problems.append(
                        f"{where}: overlaps attacks[{other_idx}] on sensor {i}; "
                        "replacement-style attacks must not overlap"
                    )
            per_sensor_windows.setdefault(i, []).append((start, stop, idx))
        plans[idx] = AttackPlan(kind=kind, sensors=tuple(sensors), start=start, stop=stop,
                                params=params)

    output = _section(raw, "output", _OUTPUT_KEYS, problems)
    output_dir = output.get("dir")
    if not (output_dir is None or isinstance(output_dir, str) and "\0" not in output_dir):
        problems.append(f"output.dir: must be a path string or null, got {output_dir!r}")
    output_format = output.get("format", "csv")
    if output_format not in ("csv", "jsonl"):
        problems.append(f"output.format: must be csv or jsonl, got {output_format!r}")

    def plan_problems(**bounds):  # attacks.check_plan's, each led by its plan and field
        return [f"attacks[{idx}]{field}: {text}" for idx, plan in plans.items()
                for field, _, text in check_plan(
                    plan, n_sensors, ell=window if _is_int(window) else None,
                    has_cusum=detector_kind != "bdd", **bounds)[0]]

    problems += plan_problems()
    if plans and not problems:  # so the plant is built
        sigma = solve_dare(plant).sigma
        # the bad-data threshold of the run's detector, or the one the policy derives
        problems += plan_problems(sigma=sigma, tau_b=tune_bdd(
            sigma, alpha_des["bdd" if detector_kind != "cusum" else "wsr"]))
    if problems:
        raise ValidationError(problems)

    return ScenarioConfig(
        plant_spec=plant_spec,
        controller_spec=controller_spec,
        window=window,
        rate_window=rate_window,
        alpha_des=alpha_des,
        alpha_tau=float(alpha_tau),
        detector_kind=detector_kind,
        bias_scale=float(bias_scale),
        tuning_samples=tuning_samples,
        tuning_seed=tuning_seed,
        attacks=list(plans.values()),
        horizon=horizon,
        seed=seed,
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
