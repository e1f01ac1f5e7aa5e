import copy
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from randmon.config import (
    config_hash,
    load_config,
    load_config_dict,
)
from randmon.errors import ParseError, ValidationError

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


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"plant": {"preset": "ugv",}}')
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert "broken.json" in str(err.value)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
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
    assert "seed: must be a nonnegative integer" in capsys.readouterr().err
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
    "horizon-zero": ({**MINIMAL, "horizon": 0}, "horizon: must be a positive integer"),
    "horizon-negative": ({**MINIMAL, "horizon": -5}, "horizon: must be a positive integer"),
    "horizon-float": ({**MINIMAL, "horizon": 1.5}, "horizon: must be a positive integer"),
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
                                  "output-dir-bool", "K-shape", "r_diag-negative",
                                  "state_weights-negative", "Q-asymmetric",
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
    assert err.value.problems == ["plant.q_diag: must be a list of 3 finite variances"]


def test_sizes_at_their_limits_load():
    load_config_dict(_controller(state_weights=[1, 2, 3], input_weights=[1, 1]))
    load_config_dict({**_explicit(B=[[1.0, 0.5]]), "controller": {"input_weights": [1.0, 2.0]}})
    load_config_dict({**_attack(kind="worst_case_cusum_randaware"), "monitors": {"window": 20}})
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


def test_huge_sample_time_is_runtime_error_exit(tmp_path, capsys):
    from randmon.cli import main

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**MINIMAL, "plant": {"preset": "ugv", "ts": 1e308}}))
    assert main(["run", "--config", str(path), "--quiet"]) == 3
    assert "runtime error:" in capsys.readouterr().err


# --- fuzzed shipped configs ----------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}

#: what a fuzzed field may become: each JSON type, signed zeros, NaN, infinities, huge
FUZZ_VALUES = (True, False, "", "x", [], [1.0], [[1.0]], {}, {"x": 1}, None,
               0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308)
#: fields the shipped configs leave at their defaults
OPTIONAL_FIELDS = (("plant", "ts"), ("plant", "params"), ("plant", "params", "mass"),
                   ("plant", "q_diag"), ("plant", "r_diag"), ("monitors", "alpha_tau"),
                   ("detectors", "tuning_seed"), ("controller",), ("controller", "K"),
                   ("controller", "state_weights"), ("controller", "input_weights"),
                   ("attacks", 0, "params"))
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
          for name, raw in SHIPPED.items()}


@st.composite
def fuzzed_configs(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    raw = json.loads(json.dumps(SHIPPED[name]))
    raw["horizon"] = 400
    raw["monitors"].update(window=30, rate_window=30)
    for _ in range(draw(st.integers(1, 2))):
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))  # each change its own object
        _put(raw, draw(st.sampled_from(FIELDS[name])), value)
    return raw


@settings(max_examples=60, deadline=None)
@given(fuzzed_configs())
def test_fuzzed_shipped_config_exits_0_2_or_3(raw):
    from randmon.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a run writes to its config's own output.dir
        try:
            with open("scenario.json", "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            assert main(["run", "--config", "scenario.json", "--quiet"]) in (0, 2, 3)
        finally:
            os.chdir(cwd)
