import copy
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randmon.attacks import THRESHOLD_MARGIN, AttackPlan, stealth_threshold
from randmon.config import (
    _validate_plant,
    build_plant,
    config_hash,
    load_config,
    load_config_dict,
    run_bdd,
)
from randmon.errors import InvalidParameter, RandmonError, ValidationError
from randmon.harness import _set_up

MINIMAL = {"plant": {"preset": "ugv"}, "horizon": 1000, "seed": 1}


def test_minimal_preset_defaults():
    cfg = load_config_dict(dict(MINIMAL))
    assert cfg.window == 100
    assert cfg.rate_window == 100
    assert cfg.alpha_des == {"wsr": 0.05, "sir": 0.05, "bdd": 0.05, "cusum": 0.05}
    assert abs(cfg.alpha_tau - 0.15) < 1e-12
    assert cfg.detector_kind == "both"
    assert cfg.plant_spec["ts"] == 0.05


def test_alpha_out_of_range_named():
    raw = dict(MINIMAL)
    raw["monitors"] = {"alpha_des": 1.5}
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert any("monitors.alpha_des" in p for p in err.value.problems)


def test_default_alpha_tau_above_one_asks_for_alpha_tau():
    with pytest.raises(ValidationError) as err:
        load_config_dict({**MINIMAL, "monitors": {"alpha_des": {"wsr": 0.5}}})
    assert err.value.problems == [
        "monitors.alpha_tau: the default 3 * max(alpha_des) = 1.5 exceeds 1, so "
        "monitors.alpha_tau must be set, in (0, 1]"]
    cfg = load_config_dict({**MINIMAL, "monitors": {"alpha_des": 0.5, "alpha_tau": 1.0}})
    assert cfg.alpha_tau == 1.0


def test_per_test_alpha():
    raw = dict(MINIMAL)
    raw["monitors"] = {"alpha_des": {"wsr": 0.05, "cusum": 0.02}}
    cfg = load_config_dict(raw)
    assert cfg.alpha_des["wsr"] == 0.05
    assert cfg.alpha_des["cusum"] == 0.02
    assert cfg.alpha_des["sir"] == 0.05  # unlisted tests take the default


def test_unknown_keys_rejected_everywhere():
    for raw in (
        {**MINIMAL, "extra": 1},
        {**MINIMAL, "plant": {"preset": "ugv", "oops": 2}},
        {**MINIMAL, "monitors": {"windw": 100}},
        {**MINIMAL, "detectors": {"knd": "both"}},
        {**MINIMAL, "attacks": [{"kind": "none", "startt": 0, "stop": 10}]},
    ):
        with pytest.raises(ValidationError) as err:
            load_config_dict(raw)
        assert any("unknown key" in p for p in err.value.problems)


def test_horizon_must_cover_warmup():
    raw = dict(MINIMAL)
    raw["horizon"] = 150
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert any("horizon" in p for p in err.value.problems)


def test_attack_sensor_range_checked():
    raw = dict(MINIMAL)
    raw["attacks"] = [{"kind": "none", "sensors": [7], "start": 0, "stop": 100}]
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert any("sensors" in p for p in err.value.problems)


def test_overlapping_attacks_rejected():
    raw = dict(MINIMAL)
    raw["attacks"] = [
        {"kind": "bias_concentrate", "sensors": [0], "start": 100, "stop": 500},
        {"kind": "pattern_runs", "sensors": [0], "start": 400, "stop": 800},
    ]
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert any("overlaps" in p for p in err.value.problems)


def test_non_overlapping_attacks_pass():
    raw = dict(MINIMAL)
    raw["attacks"] = [
        {"kind": "bias_concentrate", "sensors": [0], "start": 100, "stop": 400},
        {"kind": "pattern_runs", "sensors": [0], "start": 500, "stop": 800},
        {"kind": "bias_concentrate", "sensors": [1], "start": 100, "stop": 400},
    ]
    cfg = load_config_dict(raw)
    assert len(cfg.attacks) == 3


def test_all_violations_reported_together():
    raw = dict(MINIMAL)
    raw["monitors"] = {"alpha_des": 2.0, "window": 1}
    raw["detectors"] = {"kind": "nonsense"}
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert len(err.value.problems) >= 3


def test_round_trip_and_stable_hash(tmp_path):
    raw = dict(MINIMAL)
    raw["attacks"] = [{"kind": "pattern_runs", "sensors": [0], "start": 200, "stop": 900}]
    cfg = load_config_dict(raw)
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
    cfg2 = load_config_dict(json.loads(text))
    assert cfg2.to_dict() == cfg.to_dict()
    assert config_hash(cfg2) == config_hash(cfg)
    path = tmp_path / "scenario.json"
    path.write_text(text)
    cfg3 = load_config(path)
    assert config_hash(cfg3) == config_hash(cfg)


def test_numpy_integers_load_as_python_ints():
    # config_hash's json.dumps cannot serialise a numpy integer, so load converts them
    fields = {"horizon": 500, "seed": 3, "monitors": {"window": 100, "rate_window": 100},
              "detectors": {"tuning_samples": 10**6, "tuning_seed": 7}}
    as_numpy = {"horizon": np.int64(500), "seed": np.int32(3),
                "monitors": {"window": np.int64(100), "rate_window": np.uint16(100)},
                "detectors": {"tuning_samples": np.int64(10**6), "tuning_seed": np.uint8(7)}}
    cfg = load_config_dict({**MINIMAL, **as_numpy})
    assert config_hash(cfg) == config_hash(load_config_dict({**MINIMAL, **fields}))
    assert {type(getattr(cfg, name)) for name in ("horizon", "seed", "window", "rate_window",
                                                  "tuning_samples", "tuning_seed")} == {int}


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"plant": {"preset": "ugv",}}')
    with pytest.raises(ValidationError, match=r"broken\.json:1:28: Expecting property name") as err:
        load_config(path)
    assert "broken.json" in str(err.value)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ValidationError, match=r"^cannot read .*absent\.json: \[Errno 2\] "):
        load_config(tmp_path / "absent.json")


def test_explicit_plant_requires_matrices():
    raw = {"plant": {"A": [[0.5]]}, "horizon": 1000, "seed": 0}
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    missing = [p for p in err.value.problems if "required" in p]
    assert len(missing) == 4  # B, C, Q, R


def test_attack_params_checked_against_kind():
    raw = dict(MINIMAL)
    raw["attacks"] = [
        {"kind": "bias_concentrate", "sensors": [0], "start": 100, "stop": 400,
         "params": {"mu_a": "x", "sigma_a": [0.001, 0.001]}},
        {"kind": "symmetric_flood", "sensors": [1], "start": 100, "stop": 400,
         "params": {"typo_key": 1, "jitter": float("inf")}},
    ]
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    problems = err.value.problems
    assert len(problems) == 4  # every problem at once
    assert any("attacks[0].params.mu_a" in p for p in problems)
    assert any("attacks[0].params.sigma_a" in p for p in problems)  # not one per sensor
    assert any("attacks[1].params: unknown key 'typo_key'" in p for p in problems)
    assert any("attacks[1].params.jitter" in p for p in problems)


def test_bad_attack_param_is_config_error_exit(tmp_path, capsys):
    from randmon.cli import main

    raw = dict(MINIMAL)
    raw["attacks"] = [{"kind": "bias_concentrate", "sensors": [0], "start": 100, "stop": 400,
                       "params": {"mu_a": "x"}}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    assert "attacks[0].params.mu_a" in capsys.readouterr().err


def test_negative_seed_override_is_config_error_exit(tmp_path, capsys):
    from randmon.cli import main

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    assert main(["run", "--config", str(path), "--seed", "-1", "--quiet"]) == 2
    assert "seed: must be an integer >= 0, got -1" in capsys.readouterr().err
    assert load_config(path, seed=7).seed == 7


@pytest.mark.parametrize("command", ["run", "tune", "sweep"])
@pytest.mark.parametrize("content", [
    None, b'{"plant": ', b"\xff\xfe{}",
    # past Python's limit on the digits of an integer read from a string
    pytest.param(b'{"horizon": ' + b"1" * 5000 + b"}", id="5000-digit-int"),
    pytest.param(b'{"plant": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", id="nested-200000-deep"),
])
def test_unreadable_config_is_config_error_exit(command, content, tmp_path, capsys):
    from randmon.cli import main

    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "sweep.csv"
    args = [] if command == "tune" else ["--out", str(out)]
    assert main([command, "--config", str(path), *args, "--quiet"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "tune", "sweep"])
def test_window_of_two_is_config_error_exit(command, tmp_path, capsys):
    from randmon.cli import main

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**MINIMAL, "monitors": {"window": 2, "rate_window": 2}}))
    args = [] if command == "tune" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(path), *args, "--quiet"]) == 2
    # the runs test needs two differences per window; the rate window may still be 2
    assert capsys.readouterr().err == ("config error: monitors.window: must be an integer >= 3, "
                                       "got 2\n")


def test_negative_sigma_a_rejected_at_load(tmp_path, capsys):
    from randmon.cli import main

    raw = dict(MINIMAL)
    raw["attacks"] = [
        {"kind": "bias_concentrate", "sensors": [0], "start": 250, "stop": 400,
         "params": {"sigma_a": -0.001}},
        {"kind": "bias_concentrate", "sensors": [1], "start": 250, "stop": 400,
         "params": {"mu_a": 0.001, "sigma_a": [0.001, -0.0, -1e-9]}},
        {"kind": "symmetric_flood", "sensors": [2], "start": 250, "stop": 400,
         "params": {"jitter": "x"}},
        {"kind": "worst_case_bdd_randaware", "sensors": [0], "start": 400, "stop": 600,
         "params": {"epsilon": -1}},
    ]
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    problems = err.value.problems
    assert len(problems) == 4  # reported with every other problem at once
    assert any("attacks[0].params.sigma_a: must be >= 0" in p for p in problems)
    assert any("attacks[1].params.sigma_a: must be >= 0" in p for p in problems)
    assert any("attacks[2].params.jitter" in p for p in problems)
    assert any("attacks[3].params.epsilon: must be >= 0" in p for p in problems)

    raw["attacks"] = raw["attacks"][:1]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert "attacks[0].params.sigma_a" in capsys.readouterr().err


def _attack(**entry):
    return {**MINIMAL, "attacks": [{"kind": "bias_concentrate", "sensors": [0], "start": 250,
                                    "stop": 400, **entry}]}


def _explicit(**plant):
    return {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "Q": [[0.1]], "R": [[0.1]],
                      **plant},
            "horizon": 1000, "seed": 0}


#: a stable two-state, one-input, one-sensor explicit plant
TWO_STATES = {"A": [[0.5, 0.1], [0.0, 0.5]], "B": [[1.0], [0.5]], "C": [[1.0, 0.0]],
              "Q": [[0.1, 0.0], [0.0, 0.1]], "R": [[0.1]]}


def _ugv(**plant):
    return {**MINIMAL, "plant": {"preset": "ugv", **plant}}


def _controller(**controller):
    return {**MINIMAL, "controller": controller}


MISTYPED = {
    "tuning_seed-str": ({**MINIMAL, "detectors": {"tuning_seed": "abc"}}, "detectors.tuning_seed"),
    "tuning_seed-negative": ({**MINIMAL, "detectors": {"tuning_seed": -1}}, "detectors.tuning_seed"),
    "seed-bool": ({**MINIMAL, "seed": True}, "seed"),
    "start-bool": (_attack(start=True), "attacks[0]: requires integer"),
    "stop-bool": (_attack(start=0, stop=True), "attacks[0]: requires integer"),
    "sensors-bool": (_attack(sensors=[True]), "attacks[0].sensors"),
    "mode-pid": (_controller(mode="pid"), "controller.mode"),
    "preset-ts-str": (_ugv(ts="x"), "plant.ts"),
    "preset-ts-nan": (_ugv(ts=float("nan")), "plant.ts"),
    "explicit-ts-negative": (_explicit(ts=-1.0), "plant.ts"),
    "mass-bool": (_ugv(params={"mass": True}), "plant.params.mass"),
    "mass-nan": (_ugv(params={"mass": float("nan")}), "plant.params.mass"),
    "q_diag-str": (_ugv(q_diag=["a", "b", "c"]), "plant.q_diag"),
    "r_diag-nan": (_ugv(r_diag=[4e-4, float("nan"), 2.5e-4]), "plant.r_diag"),
    "A-str-entry": (_explicit(A=[["x"]]), "plant.A"),
    "B-bool": (_explicit(B=[[True]]), "plant.B"),
    "C-str": (_explicit(C="zz"), "plant.C"),
    "C-ragged": (_explicit(C=[[1.0], [1.0, 2.0]]), "plant.C"),
    "Q-nan": (_explicit(Q=[[float("nan")]]), "plant.Q"),
    "R-inf": (_explicit(R=float("inf")), "plant.R"),
    "K-str": (_controller(K="nope"), "controller.K"),
    "K-null-entry": (_controller(K=[[None, 0.0, 0.0], [0.0, 0.0, 0.0]]), "controller.K"),
    "state_weights-str": (_controller(state_weights=["a", 1.0, 1.0]), "controller.state_weights"),
    "input_weights-number": (_controller(input_weights=5), "controller.input_weights"),
    "kr": (_controller(K=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], kr=[[1e9, 3], [2, 5]]),
           "controller: unknown key 'kr'"),
    "alpha_tau-bool": ({**MINIMAL, "monitors": {"alpha_tau": True}}, "monitors.alpha_tau"),
    "bias_scale-nan": ({**MINIMAL, "detectors": {"bias_scale": float("nan")}},
                       "detectors.bias_scale"),
    "bias_scale-inf": ({**MINIMAL, "detectors": {"bias_scale": float("inf")}},
                       "detectors.bias_scale"),
    "bias_scale-bool": ({**MINIMAL, "detectors": {"bias_scale": True}}, "detectors.bias_scale"),
    "randaware-window": ({**_attack(kind="worst_case_bdd_randaware"), "monitors": {"window": 19}},
                         "attacks[0].kind"),
    "state_weights-length": (_controller(state_weights=[1, 2]), "controller.state_weights"),
    "input_weights-length": (_controller(input_weights=[1, 1, 1]), "controller.input_weights"),
    "explicit-state_weights-length": ({**_explicit(), "controller": {"state_weights": [1, 1]}},
                                      "controller.state_weights"),
    "explicit-flat-C-sensor": ({**_explicit(A=[[0.5, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]],
                                            C=[1.0, 0.0], Q=[[0.1, 0.0], [0.0, 0.1]]),
                                "attacks": [{"kind": "none", "sensors": [1], "start": 0,
                                             "stop": 100}]},
                               "attacks[0].sensors"),
    "explicit-input_weights-length": ({**_explicit(B=[[1.0, 0.5]]),
                                       "controller": {"input_weights": [1.0]}},
                                      "controller.input_weights"),
    "cusum-attack-bdd-detector": ({**_attack(kind="worst_case_cusum", start=0),
                                   "detectors": {"kind": "bdd"}}, "attacks[0].kind"),
    "cusum-randaware-bdd-detector": ({**_attack(kind="worst_case_cusum_randaware", start=0),
                                      "detectors": {"kind": "bdd"}}, "attacks[0].kind"),
    "A-not-square": (_explicit(A=[[0.5, 0.1]]), "plant.A: must be square"),
    "B-rows": (_explicit(B=[[1.0], [1.0]]), "plant.B"),
    "C-columns": (_explicit(C=[[1.0, 0.0]]), "plant.C"),
    "Q-shape": (_explicit(**{**TWO_STATES, "Q": [[0.1]]}), "plant.Q"),
    "R-shape": (_explicit(R=[[0.1, 0.0], [0.0, 0.1]]), "plant.R"),
    "K-shape": ({**_explicit(**TWO_STATES), "controller": {"K": [[-0.1, -0.1, 0.0]]}},
                "controller.K"),
    "preset-K-shape": (_controller(K=[[-1.0, 0.0], [0.0, -1.0]]), "controller.K"),
    "output-dir-bool": ({**MINIMAL, "output": {"dir": True}}, "output.dir"),
    "output-dir-nul": ({**MINIMAL, "output": {"dir": "out\0put"}}, "output.dir"),
    "output-dir-number": ({**MINIMAL, "output": {"dir": 1.5}}, "output.dir"),
    "output-dir-list": ({**MINIMAL, "output": {"dir": ["out"]}}, "output.dir"),
    "q_diag-negative": (_ugv(q_diag=[1e-5, -1e-6, 1e-5]), "plant.q_diag"),
    "r_diag-negative": (_ugv(r_diag=[4e-4, 1e-4, -2.5e-4]), "plant.r_diag"),
    "state_weights-negative": (_controller(state_weights=[1, -1, 1]), "controller.state_weights"),
    "input_weights-negative": (_controller(input_weights=[1, -2]), "controller.input_weights"),
    "Q-asymmetric": (_explicit(**{**TWO_STATES, "Q": [[0.1, 0.05], [0.0, 0.1]]}), "plant.Q"),
    "Q-not-psd": (_explicit(**{**TWO_STATES, "Q": [[0.1, 0.2], [0.2, 0.1]]}), "plant.Q"),
    "R-negative": (_explicit(R=[[-0.1]]), "plant.R"),
    "alpha_des-unknown-test": ({**MINIMAL, "monitors": {"alpha_des": {"wsr": 0.05, "ks": 0.1}}},
                               "monitors.alpha_des: unknown test 'ks'"),
    "tuning_samples-small": ({**MINIMAL, "detectors": {"tuning_samples": 10}},
                             "detectors.tuning_samples"),
    "tuning_samples-float": ({**MINIMAL, "detectors": {"tuning_samples": 1e6}},
                             "detectors.tuning_samples"),
    "horizon-zero": ({**MINIMAL, "horizon": 0}, "horizon: must be an integer >= 1, got 0"),
    "horizon-negative": ({**MINIMAL, "horizon": -5}, "horizon: must be an integer >= 1, got -5"),
    "horizon-float": ({**MINIMAL, "horizon": 1.5}, "horizon: must be an integer >= 1, got 1.5"),
    "params-list": (_attack(params=[0.1]), "attacks[0].params: must be an object"),
    "params-str": (_attack(params="x"), "attacks[0].params: must be an object"),
    # integers beyond the float range
    "ts-huge-int": (_ugv(ts=10**400), "plant.ts"),
    "state_weights-huge-int": (_controller(state_weights=[10**400, 1, 1]),
                               "controller.state_weights"),
}


@pytest.mark.parametrize("raw, where", MISTYPED.values(), ids=MISTYPED.keys())
def test_mistyped_scalar_rejected_at_load(raw, where):
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert [p for p in err.value.problems if p.startswith(where)] == err.value.problems


@pytest.mark.parametrize("case", ["kr", "mass-nan", "q_diag-str", "C-str", "bias_scale-nan",
                                  "randaware-window", "state_weights-length",
                                  "cusum-attack-bdd-detector", "A-not-square", "Q-shape",
                                  "output-dir-bool", "output-dir-nul", "K-shape",
                                  "r_diag-negative", "state_weights-negative", "Q-asymmetric",
                                  "alpha_des-unknown-test", "tuning_samples-small",
                                  "tuning_samples-float", "horizon-zero", "horizon-negative",
                                  "horizon-float", "params-list", "params-str", "ts-huge-int",
                                  "state_weights-huge-int"])
def test_mistyped_field_exits_2(case, tmp_path, capsys):
    from randmon.cli import main

    raw, where = MISTYPED[case]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert where in capsys.readouterr().err


def test_null_noise_diagonal_rejected_at_load():
    with pytest.raises(ValidationError) as err:
        load_config_dict({**MINIMAL, "plant": {"preset": "ugv", "q_diag": None}})
    assert err.value.problems == ["plant.q_diag: must be a list of finite numbers"]


def test_sizes_at_their_limits_load():
    load_config_dict(_controller(state_weights=[1, 2, 3], input_weights=[1, 1]))
    load_config_dict({**_explicit(B=[[1.0, 0.5]]), "controller": {"input_weights": [1.0, 2.0]}})
    load_config_dict({**_attack(kind="worst_case_cusum_randaware"), "monitors": {"window": 20}})
    load_config_dict({**MINIMAL, "monitors": {"window": 3, "rate_window": 2}})
    load_config_dict({**_explicit(**TWO_STATES), "controller": {"K": [[-0.1, -0.1]]}})


def test_plant_shapes_reported_together():
    raw = _explicit(A=[[0.5, 0.1]], B=[[1.0], [1.0]], C=[[1.0, 0.0, 0.0]], Q=[[0.1, 0.1]],
                    R=[[0.1], [0.1]])
    raw["controller"] = {"K": [[-0.1, 0.0]]}
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert err.value.problems == [
        "plant.A: must be square, got 1x2",
        "plant.B: must have one row per state (1), got 2x1",
        "plant.C: must have one column per state (1), got 1x3",
        "plant.Q: must be 1x1 (states x states), got 1x2",
        "plant.R: must be 1x1 (sensors x sensors), got 2x1",
        "controller.K: must be 1x1 (plant inputs x states), got 1x2",
    ]


def test_non_numeric_matrices_reported_together():
    raw = _explicit(A="a", C=[[1.0], [2.0, 3.0]], Q=[[None]])
    raw["controller"] = {"K": "nope", "input_weights": [True]}
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert sorted(p.split(":")[0] for p in err.value.problems) == [
        "controller.K", "controller.input_weights", "plant.A", "plant.C", "plant.Q"]


#: a gain that stabilises the UGV (rho(A + BK) = 0.965)
UGV_K = [[-1, -1, 0], [-1, 1, 0]]

#: load's exact problem list, in order, for configs with bad plant or controller fields
PLANT_AND_CONTROLLER_PROBLEMS = {
    "params-bool": (_ugv(params={"mass": True}),
                    ["plant.params.mass: must be a finite positive number, got True"]),
    "params-negative": (_ugv(params={"inertia": -0.5}),
                        ["plant.params.inertia: must be a finite positive number, got -0.5"]),
    "params-str": (_ugv(params={"width": "wide"}),
                   ["plant.params.width: must be a finite positive number, got 'wide'"]),
    "params-unknown": (_ugv(params={"mass": 2.0, "wheels": 4}),
                       ["plant.params: unknown key 'wheels'"]),
    "params-unknown-and-bad": (_ugv(params={"wheels": -4, "mass": math.inf}),
                               ["plant.params: unknown key 'wheels'",
                                "plant.params.wheels: must be a finite positive number, got -4",
                                "plant.params.mass: must be a finite positive number, got inf"]),
    "params-inf": (_ugv(params={"roll_resistance": math.inf}),
                   ["plant.params.roll_resistance: must be a finite positive number, got inf"]),
    "params-list": (_ugv(params=[1]), ["plant.params: must be an object"]),
    "ts-inf": (_ugv(ts=math.inf), ["plant.ts: must be a finite positive number, got inf"]),
    "ts-preset-params-noise": (
        _ugv(preset="car", ts=0, params={"mass": 0, "x": 1}, q_diag=[1], r_diag="x"),
        ["plant.ts: must be a finite positive number, got 0", "plant.preset: unknown preset 'car'",
         "plant.params: unknown key 'x'",
         "plant.params.mass: must be a finite positive number, got 0",
         "plant.q_diag: must have 3 entries, one per UGV state, got 1",
         "plant.r_diag: must be a list of finite numbers"]),
    "q_diag-not-psd": (_ugv(q_diag=[1e-5, -1e-6, 1e-5]),
                       ["plant.q_diag: must have no negative entry, got -1e-06"]),
    "r_diag-length": (_ugv(r_diag=[4e-4, 1e-4]),
                      ["plant.r_diag: must have 3 entries, one per UGV sensor, got 2"]),
    "A-str": (_explicit(A="a"), ["plant.A: must be a matrix of finite numbers"]),
    "C-ragged": (_explicit(C=[[1.0], [1.0, 2.0]]), ["plant.C: must be a matrix of finite numbers"]),
    "B-bool": (_explicit(B=[[True]]), ["plant.B: must be a matrix of finite numbers"]),
    "A-3d": (_explicit(A=[[[0.5]]]), ["plant.A: must be a matrix of finite numbers"]),
    "A-empty": (_explicit(A=[]), ["plant.A: must be square, got 1x0"]),
    "Q-empty-row": (_explicit(Q=[[]]), ["plant.Q: must be 1x1 (states x states), got 1x0"]),
    "R-huge-int": (_explicit(R=[[10**400]]), ["plant.R: must be a matrix of finite numbers"]),
    "explicit-ts-inf": (_explicit(ts=math.inf),
                        ["plant.ts: must be a finite positive number, got inf"]),
    "Q-asymmetric": (_explicit(**{**TWO_STATES, "Q": [[0.1, 0.05], [0.0, 0.1]]}),
                     ["plant.Q: must be symmetric"]),
    "R-not-psd": (_explicit(R=[[-0.1]]), ["plant.R: must be positive semidefinite"]),
    "Q-psd-after-R-shape": (
        _explicit(**{**TWO_STATES, "Q": [[0.1, 0.2], [0.2, 0.1]], "R": [[0.1, 0.0], [0.0, 0.1]]}),
        ["plant.R: must be 1x1 (sensors x sensors), got 2x2",
         "plant.Q: must be positive semidefinite"]),
    "Q-shape-and-psd": (_explicit(**{**TWO_STATES, "Q": [[-0.1]]}),
                        ["plant.Q: must be 2x2 (states x states), got 1x1",
                         "plant.Q: must be positive semidefinite"]),
    "missing-keys": ({"plant": {"A": [[0.5]], "ts": 0.1}, "horizon": 1000},
                     [f"plant.{key}: required for explicit plants" for key in "BCQR"]),
    "number-and-flat-lists": (_explicit(A=0.5, B=[1.0], C=[1.0, 0.0]),
                              ["plant.C: must have one column per state (1), got 1x2"]),
    "K-str": (_controller(K="x"), ["controller.K: must be a matrix of finite numbers"]),
    "K-null": (_controller(K=None), ["controller.K: must be a matrix of finite numbers"]),
    "K-shape": (_controller(K=[[-1.0, 0.0], [0.0, -1.0]]),
                ["controller.K: must be 2x3 (plant inputs x states), got 2x2"]),
    "K-shape-beside-a-bad-A": ({**_explicit(A="a"), "controller": {"K": [[0.1, 0.2]]}},
                               ["plant.A: must be a matrix of finite numbers"]),
    "state_weights-length": (_controller(state_weights=[1, 2]),
                             ["controller.state_weights: must have 3 entries, one per plant state, "
                              "got 2"]),
    "input_weights-length": (_controller(input_weights=[1]),
                             ["controller.input_weights: must have 2 entries, one per plant input, "
                              "got 1"]),
    "weights-empty": (_controller(state_weights=[], input_weights=[]),
                      ["controller.state_weights: must have 3 entries, one per plant state, got 0",
                       "controller.input_weights: must have 2 entries, one per plant input, "
                       "got 0"]),
    "weights-negative": (_controller(state_weights=[1, -1, 1], input_weights=[-2, 1]),
                         ["controller.state_weights: must have no negative entry, got -1.0",
                          "controller.input_weights: must have no negative entry, got -2.0"]),
    "weights-scalar": (_controller(state_weights=5),
                       ["controller.state_weights: must be a list of finite numbers"]),
    "weights-junk-beside-K": (_controller(K=UGV_K, input_weights="junk"),
                              ["controller.input_weights: must be a list of finite numbers"]),
    "weights-length-and-sign-beside-K": (_controller(K=UGV_K, state_weights=[1],
                                                     input_weights=[-1, -1]), []),
    "weights-beside-a-bad-A": ({**_explicit(A="a"), "controller": {"state_weights": [1, -1]}},
                               ["plant.A: must be a matrix of finite numbers",
                                "controller.state_weights: must have no negative entry, "
                                "got -1.0"]),
    "unstable-K-and-junk-weights": (
        _controller(K=[[100, 0, 0], [0, 0, 0]], state_weights="junk", input_weights=[True]),
        ["controller.K: closed loop unstable: rho(A + BK) = 1.469112 >= 1",
         "controller.state_weights: must be a list of finite numbers",
         "controller.input_weights: must be a list of finite numbers"]),
    "mode-and-K": (_controller(mode="pid", K="x", input_weights=[1, 2, 3]),
                   ["controller.mode: must be \"lqr\", got 'pid'",
                    "controller.K: must be a matrix of finite numbers"]),
}


@pytest.mark.parametrize("raw, problems", PLANT_AND_CONTROLLER_PROBLEMS.values(),
                         ids=PLANT_AND_CONTROLLER_PROBLEMS.keys())
def test_plant_and_controller_problems_are_pinned(raw, problems):
    try:
        load_config_dict(raw)
    except ValidationError as exc:
        assert exc.problems == problems
    else:
        assert problems == []


def test_stealth_bound_violations_are_one_config_error(tmp_path, capsys):
    from randmon.cli import main

    raw = {**SHIPPED["ugv_noattack"], "horizon": 400,
           "monitors": {"window": 30, "rate_window": 30, "alpha_des": 0.05},
           "attacks": [{"kind": "pattern_runs", "sensors": [0], "start": 100, "stop": 300,
                        "params": {"amplitude": 5.0}},
                       {"kind": "bias_concentrate", "sensors": [1], "start": 100, "stop": 300,
                        "params": {"sigma_a": 5.0}}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: attacks[0]: pattern amplitude 5 exceeds the bad-data bound; "
        "attacks[1]: sigma_a must be below the natural residual deviation\n")
    assert not list(tmp_path.glob("run_*"))


def test_stealth_bound_violation_is_rejected_at_load():
    raw = {**MINIMAL, "attacks": [{"kind": "pattern_runs", "sensors": [0],
                                   "params": {"amplitude": 5.0}}]}
    with pytest.raises(ValidationError) as err:
        load_config_dict(raw)
    assert err.value.problems == ["attacks[0]: pattern amplitude 5 exceeds the bad-data bound"]


def test_null_attack_param_takes_its_default_at_load():
    # as build_attack_policy takes it; a bool is no number, alone or in a list
    load_config_dict(_attack(params={"mu_a": None, "sigma_a": None}))
    with pytest.raises(ValidationError) as err:
        load_config_dict(_attack(params={"mu_a": [0.001, True, 0.001]}))
    assert err.value.problems == [
        "attacks[0].params.mu_a: must be a finite number or one per sensor; got [0.001, True, 0.001]"]


def test_huge_sample_time_is_runtime_error_exit(tmp_path, capsys):
    from randmon.cli import main

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**MINIMAL, "plant": {"preset": "ugv", "ts": 1e308}}))
    assert main(["run", "--config", str(path), "--quiet"]) == 3
    assert "runtime error:" in capsys.readouterr().err


def _plan(entry, **raw):
    """A UGV config of one attack phase, ``entry`` over its defaults, and the settings ``raw``."""
    return {**MINIMAL, **raw, "attacks": [{"kind": "pattern_runs", "sensors": [0], **entry}]}


@pytest.mark.parametrize("kind", ["bdd", "cusum", "both"])
def test_load_holds_a_plan_to_the_threshold_the_run_builds(kind):
    """Load's stealth threshold is the built policy's: the BDD's at alpha_des.bdd, or without
    a BDD the one derived at alpha_des.wsr (the two differ here)."""
    monitors = {"alpha_des": {"wsr": 0.05, "bdd": 0.01}}
    cfg = load_config_dict(_plan({"kind": "worst_case_bdd"}, monitors=monitors,
                                 detectors={"kind": kind}))
    _, kss, *_, (policy,), _ = _set_up(cfg)
    tau_b = stealth_threshold(kss.sigma, cfg.alpha_des["wsr"],
                              run_bdd(kind, kss.sigma, cfg.alpha_des))
    assert policy.consts[1] == (tau_b * (1.0 - THRESHOLD_MARGIN)).tolist()  # pinned at tau_b
    # load refuses a pattern of |r| up to 1.5 amplitude just above that threshold, not below
    for scale, refused in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
        raw = _plan({"params": {"amplitude": scale * tau_b[0] / 1.5}}, monitors=monitors,
                    detectors={"kind": kind})
        try:
            load_config_dict(raw)
        except ValidationError:
            assert refused
        else:
            assert not refused


# --- fuzzed shipped configs ----------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
#: the shipped configs and an explicit two-state plant (the golden case's) with a gain
#: and both weights lists
FUZZ_BASES = {**SHIPPED, "explicit_two_state": {
    "plant": {"A": [[0.9, 0.05], [0.0, 0.8]], "B": [[0.5], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
              "Q": [[2e-4, 0.0], [0.0, 2e-4]], "R": [[4e-4, 0.0], [0.0, 1e-4]], "ts": 0.1},
    "controller": {"K": [[-0.3, -0.2]], "state_weights": [1.0, 2.0], "input_weights": [0.5]},
    "monitors": {"window": 100, "rate_window": 100, "alpha_des": 0.05},
    "detectors": {"kind": "both", "bias_scale": 1.5},
    "attacks": [], "horizon": 1000, "seed": 5, "output": {"dir": "out", "format": "csv"}}}
#: a problem of a field that an lti rule set owns, as build_plant raises it (a Python
#: caller cannot leave a matrix out, so "required" is load's alone)
LTI_PLANT_PROBLEM = re.compile(r"plant\.(A|B|C|Q|R|ts|params\.[^:]+): (?!required)")
#: a problem of an attack entry that ``attacks.entry_problems`` finds, as AttackPlan raises it
#: after the lead (a Python caller cannot pass an unknown key: the call itself fails)
ATTACK_ENTRY_PROBLEM = re.compile(r"attacks\[(\d+)\](\.|: )(?=kind: unknown kind|sensors: must "
                                  r"|requires integer|params: must be an object)")

#: what a fuzzed field may become: each JSON type, signed zeros, NaN, infinities, huge
FUZZ_VALUES = (True, False, "", "x", [], [1.0], [[1.0]], {}, {"x": 1}, None,
               0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308)
#: fields the shipped configs leave at their defaults
OPTIONAL_FIELDS = (("plant", "ts"), ("plant", "params"), ("plant", "params", "mass"),
                   ("plant", "q_diag"), ("plant", "r_diag"), ("monitors", "alpha_tau"),
                   ("detectors", "tuning_seed"), ("controller",), ("controller", "K"),
                   ("controller", "state_weights"), ("controller", "input_weights"),
                   ("attacks", 0, "params"),
                   *(("attacks", 0, "params", key)
                     for key in ("mu_a", "sigma_a", "amplitude", "jitter", "epsilon")))
#: fields that set the length of a run, left alone so each example stays short
RUN_LENGTH = (("horizon",), ("monitors",), ("monitors", "window"), ("monitors", "rate_window"),
              ("detectors", "tuning_samples"))


def _fields(node, path=()):
    """The path of every field under a parsed JSON object, parents before children."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _put(raw, path, value) -> None:
    """Set the field at ``path``, making missing objects on the way.

    Skipped where an earlier change left a value with no fields on the way.
    """
    node = raw
    try:
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[path[-1]] = value
    except (TypeError, IndexError):
        pass


FIELDS = {name: [path for path in (*_fields(raw), *OPTIONAL_FIELDS)
                 if path not in RUN_LENGTH and (path[:2] != ("attacks", 0) or raw["attacks"])]
          for name, raw in FUZZ_BASES.items()}


def _fuzzed(name, *changes):
    """The base config ``name``, shortened, with each ``(path, value)`` change made."""
    raw = json.loads(json.dumps(FUZZ_BASES[name]))
    raw["horizon"] = 400
    raw["monitors"].update(window=30, rate_window=30)
    for path, value in changes:
        _put(raw, path, value)
    return raw


@st.composite
def fuzzed_configs(draw):
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    # each change its own object
    return _fuzzed(name, *[(draw(st.sampled_from(FIELDS[name])),
                            copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES))))
                           for _ in range(draw(st.integers(1, 2)))])


@settings(max_examples=60, deadline=None)
@given(fuzzed_configs())
# stealth bounds that only the policy build used to check: load passed, run exited 2
@example(_fuzzed("ugv_three_phase", (("attacks", 0, "params", "mu_a"), 1e308)))
@example(_fuzzed("ugv_stealthy_randaware", (("attacks", 0, "params", "epsilon"), 1e308)))
# values the plant constructors used to accept or to fail on with a bare error
@example(_fuzzed("ugv_noattack", (("plant", "params", "mass"), math.inf)))
@example(_fuzzed("explicit_two_state", (("plant", "C", 0), [1.0])))
@example(_fuzzed("explicit_two_state", (("plant", "ts"), math.inf), (("plant", "A", 1, 0), True)))
# finite entries near the largest float: an overflow in the covariance check or the
# filter set-up, and a negative-zero dither margin the attack's uniform draw rejected
@example(_fuzzed("explicit_two_state", (("plant", "R", 1, 1), 1e308)))
@example(_fuzzed("explicit_two_state", (("plant", "C", 0, 0), 1e308)))
@example(_fuzzed("ugv_stealthy_randaware", (("attacks", 0, "params", "epsilon"), -0.0)))
# attack entries the library used to accept: a float sensor, a bool start, a list of params
@example(_fuzzed("ugv_three_phase", (("attacks", 1, "sensors"), [1.0])))
@example(_fuzzed("ugv_three_phase", (("attacks", 2, "start"), True), (("attacks", 2, "params"), [])))
def test_fuzzed_shipped_config_exits_0_2_or_3(raw):
    from randmon.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a run writes to its config's own output.dir
        try:
            with open("scenario.json", "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            try:  # load is the whole config contract: run exits 2 exactly when it rejects
                load_config_dict(copy.deepcopy(raw))
                rejected = False
            except ValidationError as exc:
                rejected = True
                found = [p for p in exc.problems if p.startswith("plant")]
                if found and all(map(LTI_PLANT_PROBLEM.match, found)):  # the library says the same
                    with pytest.raises(InvalidParameter) as built:
                        build_plant(_validate_plant(copy.deepcopy(raw["plant"]), [])[0])
                    assert f"plant.{built.value}" == found[0]
                if all(map(ATTACK_ENTRY_PROBLEM.match, exc.problems)):  # the library says the same
                    lead = ATTACK_ENTRY_PROBLEM.match(exc.problems[0])
                    entry = raw["attacks"][int(lead[1])]
                    with pytest.raises(InvalidParameter) as built:
                        AttackPlan(**{"kind": "none", "stop": raw["horizon"], **entry})
                    assert lead[0] + str(built.value) == exc.problems[0]
            except (RandmonError, np.linalg.LinAlgError):  # a runtime error, as in run: exit 3
                rejected = False
            code = main(["run", "--config", "scenario.json", "--quiet"])
            assert code in (0, 2, 3)
            assert (code == 2) == rejected
        finally:
            os.chdir(cwd)
