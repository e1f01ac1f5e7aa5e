import ast
import math
import re

import numpy as np
import pytest

import randmon.deviation
import randmon.lti
from randmon.config import UGV_DEFAULT_Q, UGV_DEFAULT_R, load_config_dict
from randmon.errors import InvalidParameter, NonConvergence, RandmonError, ValidationError
from randmon.attacks import (ATTACK_KINDS, ATTACK_PARAMS, AttackPlan, AttackPolicy,
                             CompositeAttack, build_attack_policy, saturation_budget, stack)
from randmon.detectors import (BadDataDetector, CusumDetector, cusum_alarm_fraction, tune_bdd,
                               tune_cusum)
from randmon.deviation import (DeviationPrediction, deviation_limit, run_attack_ensemble,
                               validate_against_simulation)
from randmon.gaussian import std_normal_quantile
from randmon.harness import budget_curve
from randmon.monitors import (AlarmRateTracker, alarm_rate_scan, signed_ranks, sir_bounds,
                              sir_scan, sir_test, wsr_scan, wsr_test)
from randmon.lti import (
    CHUNK,
    KalmanSteadyState,
    LtiPlant,
    NoiseSource,
    UgvParams,
    _expm,
    _riccati_fixed_point,
    discretize_ugv,
    lqr_gain,
    make_controller,
    simulate,
    solve_dare,
    spectral_radius,
    step,
    ugv_continuous,
    zoh_discretize,
)


class RecordingNoise(NoiseSource):
    """Noise source that remembers every draw, for recursion identity checks."""

    def __init__(self, Q, R, seed):
        super().__init__(Q, R, seed)
        self.nus = []
        self.etas = []

    def draw(self):
        nu, eta = super().draw()
        self.nus.append(nu)
        self.etas.append(eta)
        return nu, eta

    def draw_eta(self):
        eta = super().draw_eta()
        self.etas.append(eta)
        return eta


# --- Riccati / steady state ----------------------------------------------------------


def test_dare_zero_dynamics():
    plant = LtiPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], Q=[[0.3]], R=[[0.2]], ts=1.0)
    kss = solve_dare(plant)
    assert abs(kss.P[0, 0] - 0.3) < 1e-12
    assert abs(kss.L[0, 0]) < 1e-12
    assert abs(kss.Sigma[0, 0] - 0.5) < 1e-12


def test_dare_scalar_closed_form():
    a, c, q, r = 0.9, 1.0, 0.1, 0.2
    plant = LtiPlant(A=[[a]], B=[[1.0]], C=[[c]], Q=[[q]], R=[[r]], ts=1.0)
    kss = solve_dare(plant)
    # p^2 + p(r - a^2 r - q) - q r = 0, positive root via the quadratic formula
    b = r - a * a * r - q
    root = (-b + math.sqrt(b * b + 4.0 * q * r)) / 2.0
    assert abs(kss.P[0, 0] - root) < 1e-9


def test_dare_fixed_point_residual(ugv_plant, ugv_kss):
    A, C, Q, R = ugv_plant.A, ugv_plant.C, ugv_plant.Q, ugv_plant.R
    P = ugv_kss.P
    S = R + C @ P @ C.T
    Pn = A @ P @ A.T - A @ P @ C.T @ np.linalg.solve(S, C @ P @ A.T) + Q
    assert np.linalg.norm(Pn - P) / np.linalg.norm(P) < 1e-10


def test_dare_ugv_sigma_psd(ugv_plant, ugv_kss):
    Sigma = ugv_kss.Sigma
    np.testing.assert_allclose(Sigma, Sigma.T, rtol=1e-12)
    assert np.linalg.eigvalsh(Sigma).min() > 0
    assert np.all(np.diag(Sigma) >= np.diag(ugv_plant.R))
    assert np.all(ugv_kss.sigma > 0)


def test_undetectable_plant_rejected():
    # unstable mode invisible to the sensor: covariance iteration diverges
    with pytest.raises(NonConvergence):
        solve_dare(LtiPlant(A=[[1.2, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]], C=[[0.0, 1.0]],
                            Q=np.eye(2) * 0.1, R=[[0.1]], ts=1.0))


def test_covariance_validation():
    with pytest.raises(InvalidParameter):
        LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], Q=[[-0.1]], R=[[0.1]], ts=1.0)
    with pytest.raises(InvalidParameter):
        LtiPlant(A=[[0.5, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                 Q=[[0.1, 0.05], [0.0, 0.1]], R=[[0.1]], ts=1.0)


def test_dimension_validation():
    with pytest.raises(InvalidParameter,
                       match=r"^C: must have one column per state \(1\), got 1x2$"):
        LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0, 0.0]], Q=[[0.1]], R=[[0.1]], ts=1.0)


def riccati_reference(A, C, Q, R, tol=1e-12, max_iter=100_000):
    """The Riccati fixed point evaluated as written: every product formed anew."""
    P = Q.copy()
    for _ in range(max_iter):
        S = R + C @ P @ C.T
        X = np.linalg.solve(S, C @ P @ A.T)
        Pn = A @ P @ A.T - A @ P @ C.T @ X + Q
        Pn = 0.5 * (Pn + Pn.T)
        assert np.all(np.isfinite(Pn))
        step = np.linalg.norm(Pn - P)
        scale = np.linalg.norm(Pn)
        if np.isfinite(step) and np.isfinite(scale) and step <= tol * max(scale, np.finfo(float).tiny):
            return Pn
        P = Pn
    raise AssertionError("reference iteration did not converge")


# the explicit two-state plant of the golden case explicit_plant_K_worst_case_cusum
EXPLICIT_PLANT = LtiPlant(A=[[0.9, 0.05], [0.0, 0.8]], B=[[0.5], [1.0]], C=np.eye(2),
                          Q=np.diag([2e-4, 2e-4]), R=np.diag([4e-4, 1e-4]), ts=0.1)


@pytest.mark.parametrize("equation", ["ugv_kalman", "ugv_lqr", "c06_kalman", "explicit_kalman"])
def test_riccati_shared_products_match_reference(equation, ugv_plant, stable_plant):
    plant = {"ugv": ugv_plant, "c06": stable_plant, "explicit": EXPLICIT_PLANT}[
        equation.split("_")[0]]
    if equation.endswith("lqr"):
        # the control equation, as make_controller's default identity weights pose it
        args = (plant.A.T, plant.B.T, np.eye(plant.n), np.eye(plant.m))
    else:
        args = (plant.A, plant.C, plant.Q, plant.R)
    got = _riccati_fixed_point(*args)
    assert got.tobytes() == riccati_reference(*args).tobytes()


def test_riccati_memo_iterates_equal_inputs_once(riccati_iterations, ugv_plant):
    args = (ugv_plant.A, ugv_plant.C, ugv_plant.Q, ugv_plant.R)
    first = _riccati_fixed_point(*args)
    twin = discretize_ugv(UgvParams(), ugv_plant.ts, ugv_plant.Q, ugv_plant.R)
    assert twin.A is not ugv_plant.A and twin.A.strides == ugv_plant.A.strides
    again = _riccati_fixed_point(twin.A, twin.C, twin.Q, twin.R)
    assert len(riccati_iterations) == 1
    assert riccati_iterations[0][0] is ugv_plant.A  # a miss runs on the caller's arrays
    assert again is not first
    assert again.tobytes() == first.tobytes() == riccati_reference(*args).tobytes()


def test_riccati_memo_hands_out_copies(riccati_iterations, ugv_plant):
    kss, K = solve_dare(ugv_plant), make_controller(ugv_plant)
    P = _riccati_fixed_point(ugv_plant.A, ugv_plant.C, ugv_plant.Q, ugv_plant.R)
    want = [M.tobytes() for M in (kss.P, kss.L, K, P)]
    for M in (kss.P, kss.L, K, P):
        M[...] = np.nan
    kss, K = solve_dare(ugv_plant), make_controller(ugv_plant)
    P = _riccati_fixed_point(ugv_plant.A, ugv_plant.C, ugv_plant.Q, ugv_plant.R)
    assert [M.tobytes() for M in (kss.P, kss.L, K, P)] == want
    assert len(riccati_iterations) == 2  # the filter and the control equation, once each


def test_riccati_memo_iterates_again_for_another_value_or_layout(riccati_iterations,
                                                                  ugv_plant):
    A, C, Q, R = ugv_plant.A, ugv_plant.C, ugv_plant.Q, ugv_plant.R
    nudged = A.copy()
    nudged[2, 2] = np.nextafter(nudged[2, 2], 0.0)
    fortran = np.asfortranarray(A)
    assert fortran.tobytes() == A.tobytes() and fortran.strides != A.strides
    for first in (A, nudged, fortran, A):
        _riccati_fixed_point(first, C, Q, R)
    assert [id(call[0]) for call in riccati_iterations] == [id(A), id(nudged), id(fortran)]


def test_riccati_memo_knows_a_plant_built_from_copies(riccati_iterations, ugv_plant):
    # the ZOH returns contiguous matrices, so copies share the original's key
    solve_dare(ugv_plant), make_controller(ugv_plant)
    riccati_iterations.clear()
    copies = LtiPlant(A=ugv_plant.A.copy(), B=ugv_plant.B.copy(), C=ugv_plant.C.copy(),
                      Q=ugv_plant.Q.copy(), R=ugv_plant.R.copy(), ts=ugv_plant.ts)
    kss, K = solve_dare(copies), make_controller(copies)
    assert riccati_iterations == []
    assert kss.L.tobytes() == solve_dare(ugv_plant).L.tobytes()
    assert K.tobytes() == make_controller(ugv_plant).tobytes()


def test_riccati_memo_raises_again_on_retry(riccati_iterations):
    # an unstable mode the sensor cannot see: the iteration diverges
    args = (np.array([[1.2, 0.0], [0.0, 0.5]]), np.array([[0.0, 1.0]]), np.eye(2) * 0.1,
            np.array([[0.1]]))
    for _ in range(2):
        with pytest.raises(NonConvergence):
            _riccati_fixed_point(*args)
    assert len(riccati_iterations) == 2


# --- spectral radius ------------------------------------------------------------------


@pytest.mark.parametrize("value, message", [
    ("a", "M: must be a matrix of finite numbers"),
    ([[1.0, math.inf], [0.0, 1.0]], "M: must be a matrix of finite numbers"),
    ([[1.0, 2.0]], "M: must be square, got 1x2"),
    (np.zeros((0, 0)), "M: must have at least one row, got 0x0"),
], ids=["text", "inf", "not-square", "empty"])
def test_spectral_radius_rejects_what_is_not_a_square_matrix_of_numbers(value, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        spectral_radius(value)


@pytest.mark.parametrize("call, message", [
    (lambda: LtiPlant(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)),
                      Q=np.zeros((0, 0)), R=[[1.0]]), "A: must have at least one state, got 0x0"),
    (lambda: LtiPlant(A=[[0.5]], B=[[1.0]], C=np.zeros((0, 1)), Q=[[1.0]], R=np.zeros((0, 0))),
     "C: must have at least one sensor, got 0x1"),
    (lambda: NoiseSource(np.zeros((0, 0)), [[1.0]], 1),
     "Q: must have at least one state, got 0x0"),
    (lambda: NoiseSource([[1.0]], np.zeros((0, 0)), 1),
     "R: must have at least one sensor, got 0x0"),
], ids=["plant-states", "plant-sensors", "noise-states", "noise-sensors"])
def test_plant_without_states_or_sensors_is_invalid(call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()



def test_spectral_radius_identity():
    assert abs(spectral_radius(np.eye(3)) - 1.0) < 1e-12


def test_spectral_radius_diagonal():
    assert abs(spectral_radius(np.diag([0.5, -0.9])) - 0.9) < 1e-12


def test_spectral_radius_companion_golden_ratio():
    # companion matrix of z^2 - z - 1
    companion = np.array([[1.0, 1.0], [1.0, 0.0]])
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(spectral_radius(companion) - golden) < 1e-8


# --- discretization -------------------------------------------------------------------


def test_zoh_limit_small_ts():
    Ac, Bc = ugv_continuous(UgvParams())
    Ad, Bd = zoh_discretize(Ac, Bc, 1e-8)
    assert np.abs(Ad - np.eye(3)).max() < 1e-6
    assert np.abs(Bd).max() < 1e-6


def test_heading_integrates_yaw_rate():
    Ac, Bc = ugv_continuous(UgvParams())
    Ad, _ = zoh_discretize(Ac, Bc, 0.05)
    assert abs(Ad[1, 2] - 0.05) / 0.05 < 0.05


def test_zoh_matches_taylor_series():
    Ac, _ = ugv_continuous(UgvParams())
    ts = 0.05
    Ad, _ = zoh_discretize(Ac, np.zeros((3, 2)), ts)
    expm = np.zeros((3, 3))
    term = np.eye(3)
    for j in range(21):
        expm = expm + term
        term = term @ (Ac * ts) / (j + 1)
    assert np.abs(Ad - expm).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
def test_expm_matches_scipy_past_the_squaring_threshold(n):
    # 1-norms of 0.5 to 50: the ones above 1 are scaled down and squared back
    from scipy.linalg import expm

    rng = np.random.default_rng(n)
    for norm in np.geomspace(0.5, 50.0, 12):
        M = rng.standard_normal((n, n))
        M *= norm / np.linalg.norm(M, 1)
        want = expm(M)
        assert np.abs(_expm(M) - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("ts", [2.0, 20.0, 200.0])
def test_zoh_matches_scipy_at_long_sample_times(ts):
    from scipy.linalg import expm

    Ac, Bc = ugv_continuous(UgvParams())
    Ad, Bd = zoh_discretize(Ac, Bc, ts)
    aug = np.zeros((5, 5))
    aug[:3, :3], aug[:3, 3:] = Ac, Bc
    want = expm(aug * ts)
    assert np.abs(np.hstack([Ad, Bd]) - want[:3]).max() <= 1e-10 * np.abs(want).max()


def test_discretize_huge_sample_time_raises():
    # The 1-norm of the scaled augmented matrix overflows to inf.
    with pytest.raises(RandmonError):
        discretize_ugv(UgvParams(), 1e308, np.eye(3) * 1e-5, np.eye(3) * 1e-4)


def test_ugv_rejects_bad_params():
    with pytest.raises(InvalidParameter):
        discretize_ugv(UgvParams(mass=-1.0), 0.05, np.eye(3) * 1e-5, np.eye(3) * 1e-4)
    with pytest.raises(InvalidParameter):
        discretize_ugv(UgvParams(), 0.0, np.eye(3) * 1e-5, np.eye(3) * 1e-4)


#: an explicit one-state plant, and the UGV's default noise
SCALAR_PLANT = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "Q": [[0.1]], "R": [[0.1]], "ts": 1.0}
UGV_Q, UGV_R = np.diag(UGV_DEFAULT_Q), np.diag(UGV_DEFAULT_R)

def _policy(kind, sensors=(0,), params=None, **args):
    """A call that builds a policy of one phase on the UGV, with the keyword arguments ``args``."""
    return lambda ugv: build_attack_policy(AttackPlan(kind, sensors, params=params or {}), 3,
                                           ugv.C, solve_dare(ugv).sigma, **args)


def _plan(entry, **raw):
    """A config of one attack phase, ``entry`` over its defaults, and the settings ``raw``."""
    return {**raw, "attacks": [{"kind": "pattern_runs", "sensors": [0], **entry}]}


#: a library call on bad input, beside the config that load rejects for the same input
LIBRARY_CALLS = {
    "A-str": (lambda ugv: LtiPlant(**{**SCALAR_PLANT, "A": "a"}),
              {"plant": {**SCALAR_PLANT, "A": "a"}}),
    "A-bool": (lambda ugv: LtiPlant(**{**SCALAR_PLANT, "A": [[True]]}),
               {"plant": {**SCALAR_PLANT, "A": [[True]]}}),
    "C-ragged": (lambda ugv: LtiPlant(**{**SCALAR_PLANT, "C": [[1.0], [1.0, 2.0]]}),
                 {"plant": {**SCALAR_PLANT, "C": [[1.0], [1.0, 2.0]]}}),
    "ts-inf": (lambda ugv: LtiPlant(**{**SCALAR_PLANT, "ts": math.inf}),
               {"plant": {**SCALAR_PLANT, "ts": math.inf}}),
    "ugv-ts-inf": (lambda ugv: discretize_ugv(UgvParams(), math.inf, UGV_Q, UGV_R),
                   {"plant": {"preset": "ugv", "ts": math.inf}}),
    "mass-str": (lambda ugv: discretize_ugv(UgvParams(mass="heavy"), 0.05, UGV_Q, UGV_R),
                 {"plant": {"preset": "ugv", "params": {"mass": "heavy"}}}),
    "mass-bool": (lambda ugv: ugv_continuous(UgvParams(mass=True)),
                  {"plant": {"preset": "ugv", "params": {"mass": True}}}),
    "mass-inf": (lambda ugv: ugv_continuous(UgvParams(mass=math.inf)),
                 {"plant": {"preset": "ugv", "params": {"mass": math.inf}}}),
    "UgvParams-mass": (lambda ugv: UgvParams(mass=-1.0),
                       {"plant": {"preset": "ugv", "params": {"mass": -1.0}}}),
    "noise-Q-str": (lambda ugv: NoiseSource("a", UGV_R, 1),
                    {"plant": {**SCALAR_PLANT, "Q": "a"}}),
    "K-str": (lambda ugv: make_controller(ugv, K="x"), {"controller": {"K": "x"}}),
    "K-unstable": (lambda ugv: make_controller(ugv, K=[[100, 0, 0], [0, 0, 0]]),
                   {"controller": {"K": [[100, 0, 0], [0, 0, 0]]}}),
    "input_weights-one": (lambda ugv: make_controller(ugv, input_weights=[1]),
                          {"controller": {"input_weights": [1]}}),
    "state_weights-two": (lambda ugv: make_controller(ugv, state_weights=[1, 2]),
                          {"controller": {"state_weights": [1, 2]}}),
    "state_weights-negative": (lambda ugv: make_controller(ugv, state_weights=[1, -1, 1]),
                               {"controller": {"state_weights": [1, -1, 1]}}),
    "AttackPlan-kind": (lambda ugv: AttackPlan("x", (0,), 0, 10), _plan({"kind": "x", "stop": 10})),
    "policy-sensor": (_policy("pattern_runs", (5,)), _plan({"sensors": [5]})),
    "policy-no-cusum": (_policy("worst_case_cusum"),
                        _plan({"kind": "worst_case_cusum"}, detectors={"kind": "bdd"})),
    "policy-short-window": (_policy("worst_case_bdd_randaware", ell=10),
                            _plan({"kind": "worst_case_bdd_randaware"}, monitors={"window": 10})),
    "policy-param-unknown": (_policy("pattern_runs", params={"bogus": 1}),
                             _plan({"params": {"bogus": 1}})),
    "policy-param-value": (_policy("pattern_runs", params={"amplitude": "abc"}),
                           _plan({"params": {"amplitude": "abc"}})),
    "policy-stealth": (_policy("pattern_runs", params={"amplitude": 5.0}),
                       _plan({"params": {"amplitude": 5.0}})),
}


@pytest.mark.parametrize("call, raw", LIBRARY_CALLS.values(), ids=LIBRARY_CALLS.keys())
def test_library_raises_loads_first_problem(call, raw, ugv_plant):
    with pytest.raises(ValidationError) as load:
        load_config_dict({**raw, "horizon": 1000})
    with pytest.raises(InvalidParameter) as library:
        call(ugv_plant)
    first = load.value.problems[0]  # the library's text, led by its section
    lead = re.match(r"(plant|controller|attacks\[0\])(\.|: )", first)
    assert str(library.value) == first[lead.end():]


def _ensemble(ugv, **args):
    """An unattacked two-run ensemble of ten steps, but for ``args``."""
    args = {"n_runs": 2, "horizon": 10, "base_seed": 0, **args}
    return run_attack_ensemble(ugv, solve_dare(ugv), make_controller(ugv), lambda j: None, **args)


def _cases(function, field, arg, call, values):
    return [pytest.param(field, arg, call, value, id=f"{field}-{function}-{value!r}")
            for value in values]


#: each scalar rule on a load field and on a library argument, with its bad values: a bool, a
#: string, NaN, out of range and, for a count, a float
SCALAR_RULES = [
    *_cases("tune_cusum", "monitors.alpha_des", "alpha_des",
            lambda ugv, v: tune_cusum(1.0, 1.5, v), [True, "a", math.nan, 1.0, 0.0]),
    *_cases("AlarmRateTracker", "monitors.alpha_tau", "alpha_tau",
            lambda ugv, v: AlarmRateTracker(10, v), [True, "a", math.nan, 1.5, 0.0]),
    *_cases("sir_bounds", "monitors.rate_window", "ell_prime",
            lambda ugv, v: sir_bounds(v, 0.05), [True, "a", math.nan, 1, 2.5]),
    *_cases("tune_cusum", "detectors.tuning_samples", "n_samples",
            lambda ugv, v: tune_cusum(1.0, 1.5, 0.05, n_samples=v),
            [True, "a", math.nan, 10, 1.5e6]),
    *_cases("tune_cusum", "detectors.tuning_seed", "seed",
            lambda ugv, v: tune_cusum(1.0, 1.5, 0.05, seed=v), [True, "a", math.nan, -1, 1.5]),
    *_cases("NoiseSource", "seed", "seed",
            lambda ugv, v: NoiseSource(UGV_Q, UGV_R, v), [True, "a", math.nan, -1, 1.5]),
    *_cases("build_attack_policy", "seed", "seed",
            lambda ugv, v: build_attack_policy(AttackPlan(kind="none"), 3, ugv.C, np.ones(3),
                                               seed=v), [True, -1]),
    *_cases("run_attack_ensemble", "seed", "base_seed",
            lambda ugv, v: _ensemble(ugv, base_seed=v), [True, -1]),
    *_cases("simulate", "horizon", "horizon",
            lambda ugv, v: simulate(ugv, solve_dare(ugv), make_controller(ugv), None, v),
            [True, "a", math.nan, 0, 1.5]),
    *_cases("run_attack_ensemble", "horizon", "horizon",
            lambda ugv, v: _ensemble(ugv, horizon=v), [True, 0]),
    *_cases("tune_cusum", "detectors.bias_scale", "bias / sigma",
            lambda ugv, v: tune_cusum(1.0, v, 0.05), [0.5, math.sqrt(2.0 / math.pi)]),
]


@pytest.mark.parametrize("field, arg, call, value", SCALAR_RULES)
def test_library_raises_the_scalar_rule_text_load_prints(field, arg, call, value, ugv_plant):
    *section, key = field.split(".")  # a config whose only change from the defaults is field
    raw = {section[0]: {key: value}} if section else {key: value}
    with pytest.raises(ValidationError) as load:
        load_config_dict({"horizon": 1000, **raw})
    with pytest.raises(InvalidParameter) as library:
        call(ugv_plant, value)
    name, text = str(library.value).split(": ", 1)
    assert (name, load.value.problems) == (arg, [f"{field}: {text}"])


def _window_of(shape):
    return np.random.default_rng(0).standard_normal(shape)


#: library calls that took a bool as a rate of 1, raised a bare TypeError or numpy's
#: ValueError, or returned a value, beside the text each raises now
SCALAR_HOLES = {
    "wsr_scan-alpha-bool": (lambda ugv: wsr_scan(_window_of((30, 1)), 10, True),
                            "alpha_des: must be a number in (0, 1], got True"),
    "tune_bdd-alpha-bool": (lambda ugv: tune_bdd(1.0, True),
                            "alpha_des: must be a number in (0, 1], got True"),
    "alarm_rate_scan-alpha_tau-bool": (
        lambda ugv: alarm_rate_scan(np.zeros((30, 1), dtype=bool), 10, True),
        "alpha_tau: must be a number in (0, 1], got True"),
    "saturation_budget-alpha-bool": (lambda ugv: saturation_budget(20, True),
                                     "alpha_des: must be a number in (0, 1], got True"),
    "wsr_scan-alpha-str": (lambda ugv: wsr_scan(_window_of((30, 1)), 10, "a"),
                           "alpha_des: must be a number in (0, 1], got 'a'"),
    "wsr_test-alpha-none": (lambda ugv: wsr_test(_window_of(30), None),
                            "alpha_des: must be a number in (0, 1], got None"),
    "tune_bdd-alpha-str": (lambda ugv: tune_bdd(1.0, "a"),
                           "alpha_des: must be a number in (0, 1], got 'a'"),
    "tune_cusum-alpha-str": (lambda ugv: tune_cusum(1.0, 1.5, "a"),
                             "alpha_des: must be a number in (0, 1), got 'a'"),
    "AlarmRateTracker-alpha_tau-str": (lambda ugv: AlarmRateTracker(10, "a"),
                                       "alpha_tau: must be a number in (0, 1], got 'a'"),
    "sir_bounds-float": (lambda ugv: sir_bounds(2.5, 0.05),
                         "ell_prime: must be an integer >= 2, got 2.5"),
    "build_attack_policy-ell-str": (
        lambda ugv: build_attack_policy(AttackPlan(kind="worst_case_bdd_randaware"), 3, ugv.C,
                                        np.ones(3), ell="a"),
        "window length: must be an integer >= 1, got 'a'"),
    "budget_curve-ell-float": (lambda ugv: budget_curve([0.05], [20.5]),  # was cut to 20
                               "window length: must be an integer >= 1, got 20.5"),
    "tune_cusum-seed-negative": (lambda ugv: tune_cusum(1.0, 1.5, 0.05, seed=-1),
                                 "seed: must be an integer >= 0, got -1"),
    "NoiseSource-seed-negative": (lambda ugv: NoiseSource(UGV_Q, UGV_R, -1),
                                  "seed: must be an integer >= 0, got -1"),
    "build_attack_policy-seed-negative": (
        lambda ugv: build_attack_policy(AttackPlan(kind="none"), 3, ugv.C, np.ones(3), seed=-1),
        "seed: must be an integer >= 0, got -1"),
    "run_attack_ensemble-base_seed-negative": (lambda ugv: _ensemble(ugv, base_seed=-1),
                                               "base_seed: must be an integer >= 0, got -1"),
    "simulate-horizon-float": (
        lambda ugv: simulate(ugv, solve_dare(ugv), make_controller(ugv), None, 1.5),
        "horizon: must be an integer >= 1, got 1.5"),
    "run_attack_ensemble-n_runs-float": (lambda ugv: _ensemble(ugv, n_runs=2.5),
                                         "n_runs: must be an integer >= 1, got 2.5"),
    "validate_against_simulation-burn_in-float": (
        lambda ugv: validate_against_simulation(
            DeviationPrediction(None, None, False, 1.0), np.zeros((10, 100, 3)), burn_in=1.5),
        "burn_in: must be an integer >= 0, got 1.5"),
    "BadDataDetector-tau-nan": (lambda ugv: BadDataDetector(tau=[1.0, math.nan]),
                                "tau: every tau must be nonnegative (inf included)"),
    "CusumDetector-bias-nan": (lambda ugv: CusumDetector(tau=[1.0], bias=[math.nan]),
                               "bias: must be a 0/1-D array of real numbers, none a bool or "
                               "non-finite"),
    "cusum_alarm_fraction-bias-nan": (lambda ugv: cusum_alarm_fraction(np.ones(10), 1.0, math.nan),
                                      "bias: must be a 0/1-D array of real numbers, none a "
                                      "bool or non-finite"),
}


@pytest.mark.parametrize("call, message", SCALAR_HOLES.values(), ids=SCALAR_HOLES.keys())
def test_scalar_arguments_raise_invalid_parameter(call, message, ugv_plant):
    with pytest.raises(InvalidParameter) as err:
        call(ugv_plant)
    assert str(err.value) == message


#: each array argument of the public numeric API: its name, a call with only it replaced,
#: a value it accepts, whether it refuses NaN and whether it refuses bools
ARRAY_ARGS = {
    "signed_ranks": ("values", lambda ugv, v: signed_ranks(v), _window_of(30), True, True),
    "wsr_test": ("window", lambda ugv, v: wsr_test(v, 0.05), _window_of(30), True, True),
    "sir_test": ("window", lambda ugv, v: sir_test(v, 0.05), _window_of(30), True, True),
    "wsr_scan": ("r", lambda ugv, v: wsr_scan(v, 10, 0.05), _window_of((30, 2)), True, True),
    "sir_scan": ("r", lambda ugv, v: sir_scan(v, 10, 0.05), _window_of((30, 2)), True, True),
    "alarm_rate_scan": ("flags", lambda ugv, v: alarm_rate_scan(v, 5, 0.5), np.zeros((30, 2)),
                        True, False),
    "cusum_alarm_fraction-x": ("x", lambda ugv, v: cusum_alarm_fraction(v, [1.0]),
                               np.ones((30, 1)), False, True),
    "cusum_alarm_fraction-tau": ("tau", lambda ugv, v: cusum_alarm_fraction(np.ones(30), v), 1.0,
                                 True, True),
    "cusum_alarm_fraction-bias": ("bias", lambda ugv, v: cusum_alarm_fraction(np.ones(30), 1.0, v),
                                  0.5, True, True),
    "BadDataDetector-tau": ("tau", lambda ugv, v: BadDataDetector(tau=v), [1.0, 2.0], True, True),
    "CusumDetector-tau": ("tau", lambda ugv, v: CusumDetector(tau=v, bias=[0.5]), [1.0], True,
                          True),
    "CusumDetector-bias": ("bias", lambda ugv, v: CusumDetector(tau=[1.0], bias=v), [0.5], True,
                           True),
    "CusumDetector-S": ("S", lambda ugv, v: CusumDetector(tau=[1.0], bias=[0.5], S=v), [[0.0]],
                        False, True),
    "tune_bdd": ("sigma", lambda ugv, v: tune_bdd(v, 0.05), [1.0, 2.0], True, True),
    "tune_cusum-sigma": ("sigma", lambda ugv, v: tune_cusum(v, [1.5], 0.05), [1.0], True, True),
    "tune_cusum-bias": ("bias", lambda ugv, v: tune_cusum([1.0], v, 0.05), [1.5], True, True),
    "build_attack_policy-c_rows": (
        "c_rows", lambda ugv, v: build_attack_policy(AttackPlan(kind="none"), 3, v, np.ones(3)),
        np.eye(3), True, True),
    "build_attack_policy-sigma": (
        "sigma", lambda ugv, v: build_attack_policy(AttackPlan(kind="none"), 3, ugv.C, v),
        np.ones(3), True, True),
    "validate_against_simulation": (
        "trajectories", lambda ugv, v: validate_against_simulation(
            DeviationPrediction(None, None, False, 1.0), v, burn_in=1),
        np.zeros((10, 20, 3)), True, True),
    "std_normal_quantile": ("p", lambda ugv, v: std_normal_quantile(v), 0.5, True, True),
    "simulate": ("K", lambda ugv, v: simulate(ugv, solve_dare(ugv), v, None, 10),
                 [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], True, True),
    "run_attack_ensemble": ("K", lambda ugv, v: run_attack_ensemble(
        ugv, solve_dare(ugv), v, lambda j: None, 2, 10), [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                            True, True),
    "deviation_limit": ("K", lambda ugv, v: deviation_limit(ugv, solve_dare(ugv), v, np.zeros(3)),
                        [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], True, True),
    "deviation_limit-expected_r": ("expected_r", lambda ugv, v: deviation_limit(
        ugv, solve_dare(ugv), [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], v), np.zeros((3, 1)), True,
                                   True),
    "lqr_gain-A": ("A", lambda ugv, v: lqr_gain(v, [[1.0]], [[1.0]], [[1.0]]), [[0.5]], True, True),
    "lqr_gain-B": ("B", lambda ugv, v: lqr_gain([[0.5]], v, [[1.0]], [[1.0]]), [[1.0]], True, True),
    "lqr_gain-Qx": ("Qx", lambda ugv, v: lqr_gain([[0.5]], [[1.0]], v, [[1.0]]), [[1.0]], True,
                    True),
    "lqr_gain-Ru": ("Ru", lambda ugv, v: lqr_gain([[0.5]], [[1.0]], [[1.0]], v), [[1.0]], True,
                    True),
    "NoiseSource-Q": ("Q", lambda ugv, v: NoiseSource(v, [[1.0]], 1), [[1.0]], True, True),
    "NoiseSource-R": ("R", lambda ugv, v: NoiseSource([[1.0]], v, 1), [[1.0]], True, True),
    "spectral_radius": ("M", lambda ugv, v: spectral_radius(v), [[0.5]], True, True),
    "zoh_discretize-Ac": ("Ac", lambda ugv, v: zoh_discretize(v, [[1.0]], 0.1), [[0.0]], True,
                          True),
    "zoh_discretize-Bc": ("Bc", lambda ugv, v: zoh_discretize([[0.0]], v, 0.1), [[1.0]], True,
                          True),
    "zoh_discretize-ts": ("ts", lambda ugv, v: zoh_discretize([[0.0]], [[1.0]], v), 0.1, True,
                          True),
}


def _array_cases():
    for function, (arg, call, good, refuses_nan, refuses_bools) in ARRAY_ARGS.items():
        good = np.asarray(good, dtype=float)
        nan = good.copy()
        nan.flat[0] = math.nan
        bad = {"str": "a", "ragged": [[1.0], [1.0, 2.0]], "complex": good + 1j,
               "one-axis-too-many": good[None], "bools": good.astype(bool), "nan": nan}
        for kind, value in bad.items():
            if (kind != "bools" or refuses_bools) and (kind != "nan" or refuses_nan):
                yield pytest.param(arg, call, value, id=f"{function}-{kind}")


@pytest.mark.parametrize("arg, call, value", _array_cases())
def test_array_arguments_raise_invalid_parameter_after_their_name(arg, call, value, ugv_plant):
    with pytest.raises(InvalidParameter) as err:
        call(ugv_plant, value)
    assert str(err.value).startswith(f"{arg}: ")


@pytest.mark.parametrize("call, message", [
    (lambda: zoh_discretize([[0.0, 1.0]], [[1.0]], 0.1), "Ac: must be square, got 1x2"),
    (lambda: zoh_discretize([[0.0]], [[1.0], [1.0]], 0.1),
     r"Bc: must have one row per state \(1\), got 2x1"),
    (lambda: zoh_discretize([[0.0]], [[1.0]], "a"),
     "ts: must be a finite positive number, got 'a'"),
    (lambda: zoh_discretize([[0.0]], [[1.0]], math.nan),
     "ts: must be a finite positive number, got nan"),
    (lambda: zoh_discretize([[0.0]], [[1.0]], -1.0),
     "ts: must be a finite positive number, got -1.0"),
], ids=["Ac-not-square", "Bc-rows", "ts-str", "ts-nan", "ts-negative"])
def test_zoh_discretize_checks_its_sizes_and_sample_period(call, message):
    # each used to fail in numpy (a bare broadcast ValueError or UFuncTypeError), in the
    # matrix exponential (NonConvergence), or, for ts < 0, to return Bd = [[-1.]]
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()


def test_lqr_gain_rejects_weights_of_the_wrong_size(ugv_plant):
    # a 1x1 input weight used to broadcast over both inputs and design another gain
    with pytest.raises(InvalidParameter, match=r"^Ru: must be 2x2 \(inputs x inputs\), got 1x1$"):
        lqr_gain(ugv_plant.A, ugv_plant.B, np.eye(3), [[1.0]])
    with pytest.raises(InvalidParameter, match=r"^Qx: must be symmetric$"):
        lqr_gain(ugv_plant.A, ugv_plant.B, [[1, 0, 0], [1, 1, 0], [0, 0, 1]], np.eye(2))
    with pytest.raises(InvalidParameter, match=r"^A: must be 3x3 \(states x states\), got 2x2$"):
        lqr_gain(np.eye(2), ugv_plant.B, np.eye(3), np.eye(2))


# --- controller -----------------------------------------------------------------------


def test_lqr_stabilizes_ugv(ugv_plant):
    K = lqr_gain(ugv_plant.A, ugv_plant.B, np.eye(3), np.eye(2))
    assert spectral_radius(ugv_plant.A + ugv_plant.B @ K) < 1.0


def test_make_controller_rejects_unstable_gain(ugv_plant):
    with pytest.raises(InvalidParameter):
        make_controller(ugv_plant, K=np.zeros((2, 3)))  # leaves the heading integrator


# --- stepping -------------------------------------------------------------------------


def test_noiseless_consistent_start(ugv_plant, ugv_kss, ugv_gains):
    state = step(ugv_plant, ugv_kss, ugv_gains, None)
    for _ in range(20):
        state = step(ugv_plant, ugv_kss, ugv_gains, state)
        assert np.abs(state.r).max() == 0.0
        assert np.abs(state.e).max() == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda ugv, kss, K, other: simulate(ugv, kss, K, NoiseSource(other.Q, other.R, 1), 5),
     "noise: must draw the plant's 3 states and 3 sensors, got 2 and 1"),
    (lambda ugv, kss, K, other: simulate(ugv, solve_dare(other), K, None, 5),
     r"kss.L: must be 3x3 \(states x sensors\), got 2x1"),
    (lambda ugv, kss, K, other: run_attack_ensemble(ugv, solve_dare(other), K, lambda j: None, 2,
                                                    5),
     r"kss.L: must be 3x3 \(states x sensors\), got 2x1"),
    (lambda ugv, kss, K, other: deviation_limit(ugv, solve_dare(other), K, np.zeros(3)),
     r"kss.L: must be 3x3 \(states x sensors\), got 2x1"),
], ids=["simulate-noise", "simulate-kss", "ensemble-kss", "deviation-kss"])
def test_a_filter_or_noise_of_another_plant_is_invalid(call, message, ugv_plant, ugv_kss,
                                                        ugv_gains, stable_plant):
    # these used to fail in the loop or the solves with numpy's bare broadcast ValueError
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call(ugv_plant, ugv_kss, ugv_gains, stable_plant)


def test_constant_attack_first_residual(ugv_plant, ugv_kss, ugv_gains):
    c = 0.37
    state = step(ugv_plant, ugv_kss, ugv_gains, None)
    state = step(ugv_plant, ugv_kss, ugv_gains, state,
                 attack=lambda k, e, eta, r_prev: np.array([c, 0.0, 0.0]))
    assert state.r[0] == c
    assert state.r[1] == 0.0


def test_residual_statistics_match_sigma(ugv_plant, ugv_kss, ugv_gains):
    N = 50_000
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 314159)
    out = simulate(ugv_plant, ugv_kss, ugv_gains, noise, N)
    r = out["r"][200:]  # discard the short transient from the exact start
    target = np.diag(ugv_kss.Sigma)
    var = r.var(axis=0)
    assert np.all(np.abs(var - target) / target < 0.05)
    # mean within 4 sigma / sqrt(N) per channel
    bound = 4.0 * ugv_kss.sigma / math.sqrt(r.shape[0])
    assert np.all(np.abs(r.mean(axis=0)) < bound)
    # full covariance in Frobenius norm
    cov = np.cov(r.T)
    rel = np.linalg.norm(cov - ugv_kss.Sigma) / np.linalg.norm(ugv_kss.Sigma)
    assert rel < 0.05


def test_error_recursion_identity(ugv_plant, ugv_kss, ugv_gains):
    # e+ must equal (A - LC) e - L (xi + eta) + nu at machine precision
    noise = RecordingNoise(ugv_plant.Q, ugv_plant.R, 99)
    xi = np.array([0.01, -0.02, 0.005])

    def attack(k, e, eta, r_prev):
        return xi

    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=attack, noise=noise)
    A, C, L = ugv_plant.A, ugv_plant.C, ugv_kss.L
    for k in range(200):
        prev = state
        state = step(ugv_plant, ugv_kss, ugv_gains, prev, attack=attack, noise=noise)
        nu = noise.nus[-1]
        eta_prev = noise.etas[-2]  # the draw that entered prev.r
        predicted = (A - L @ C) @ prev.e - L @ (xi + eta_prev) + nu
        assert np.abs(state.e - predicted).max() < 1e-12


def test_seeded_runs_bit_reproducible(ugv_plant, ugv_kss, ugv_gains):
    a = simulate(ugv_plant, ugv_kss, ugv_gains, NoiseSource(ugv_plant.Q, ugv_plant.R, 5), 500)
    b = simulate(ugv_plant, ugv_kss, ugv_gains, NoiseSource(ugv_plant.Q, ugv_plant.R, 5), 500)
    assert np.array_equal(a["x"], b["x"])
    assert np.array_equal(a["r"], b["r"])


def test_step_rejects_bad_attack_shape(ugv_plant, ugv_kss, ugv_gains):
    state = step(ugv_plant, ugv_kss, ugv_gains, None)
    with pytest.raises(InvalidParameter, match=r"^attack signal must have shape \(3,\), got \(2,\)$"):
        step(ugv_plant, ugv_kss, ugv_gains, state, attack=lambda k, e, eta, r_prev: np.zeros(2))


#: the one-sensor SCALAR_PLANT's K, filter and noise, each with one of another plant's sizes
STEP_SIZES = {
    "noise": ({"noise": NoiseSource(np.eye(2), np.eye(2), 1)},
              r"noise: must draw the plant's 1 states and 1 sensors, got 2 and 2"),
    "kss": ({"kss": KalmanSteadyState(np.eye(2), np.ones((2, 1)), np.eye(1), np.ones(1))},
            r"kss\.L: must be 1x1 \(states x sensors\), got 2x1"),
    "K-wide": ({"K": [[0.1, 0.1]]}, r"K: must be 1x1 \(plant inputs x states\), got 1x2"),
    "K-str": ({"K": "a"}, r"K: must be a matrix of finite numbers"),
}


@pytest.mark.parametrize("args, message", STEP_SIZES.values(), ids=STEP_SIZES.keys())
def test_step_checks_its_sizes_at_step_0(args, message):
    """K, the filter and the noise must be the plant's sizes, checked once, at step 0."""
    one = LtiPlant(**SCALAR_PLANT)
    args = {"K": make_controller(one), "kss": solve_dare(one), "noise": None, **args}
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        step(one, state=None, **args)


def test_semidefinite_noise_falls_back_to_eig():
    # rank-deficient Q: Cholesky fails, eigendecomposition square root applies
    Q = np.array([[1.0, 1.0], [1.0, 1.0]]) * 1e-4
    ns = NoiseSource(Q, np.eye(2) * 1e-4, 3)
    draws = np.array([ns.draw()[0] for _ in range(2000)])
    cov = np.cov(draws.T)
    assert np.abs(cov - Q).max() < 2e-5


# --- lockstep kernel against the per-step reference -----------------------------------

RECORDED = ("x", "xhat", "r", "xi")


def reference_run(plant, kss, gains, noise, horizon, attack=None):
    """``simulate``'s contract stepped one state at a time with ``step``."""
    state = None
    rows = {name: [] for name in RECORDED}
    for _ in range(horizon):
        state = step(plant, kss, gains, state, attack=attack, noise=noise)
        for name in RECORDED:
            rows[name].append(getattr(state, name))
    return {name: np.array(values) for name, values in rows.items()}


def attacked_loop(plant, kss, kind, seed=3):
    """A fresh policy of ``kind`` on sensors 0 and 2."""
    cusum = CusumDetector(tau=4.0 * kss.sigma, bias=1.5 * kss.sigma)
    plan = AttackPlan(kind=kind, sensors=(0, 2), start=40, stop=530)
    return build_attack_policy(plan, plant.s, plant.C, kss.sigma, ell=20,
                               bdd=BadDataDetector.tuned(kss.sigma, 0.05), cusum=cusum,
                               seed=seed)


def assert_same_generator_state(source, other):
    """Both noise sources, or both attack generators, are at the same point of their streams."""
    rng, other = (getattr(g, "_rng", g) for g in (source, other))
    np.testing.assert_equal(rng.bit_generator.state, other.bit_generator.state)


def assert_bit_equal(got, want):
    for name in RECORDED:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_lockstep_matches_reference_for_every_attack(kind, ugv_plant, ugv_kss, ugv_gains):
    horizon = 2 * CHUNK + 60
    ref_noise, noise = (NoiseSource(ugv_plant.Q, ugv_plant.R, 17) for _ in range(2))
    want = reference_run(ugv_plant, ugv_kss, ugv_gains, ref_noise, horizon,
                         attacked_loop(ugv_plant, ugv_kss, kind))
    got = simulate(ugv_plant, ugv_kss, ugv_gains, noise, horizon,
                   attack=attacked_loop(ugv_plant, ugv_kss, kind))
    assert_bit_equal(got, want)
    if kind != "none":
        assert np.any(want["xi"][40:530] != 0.0)


@pytest.mark.parametrize("horizon", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "noise-None"])
def test_lockstep_matches_reference_at_chunk_edges(horizon, noisy, ugv_plant, ugv_kss,
                                                    ugv_gains):
    noises = [NoiseSource(ugv_plant.Q, ugv_plant.R, 23) if noisy else None for _ in range(2)]
    attack = attacked_loop(ugv_plant, ugv_kss, "bias_concentrate")
    want = reference_run(ugv_plant, ugv_kss, ugv_gains, noises[0], horizon,
                         attacked_loop(ugv_plant, ugv_kss, "bias_concentrate"))
    got = simulate(ugv_plant, ugv_kss, ugv_gains, noises[1], horizon, attack=attack)
    assert_bit_equal(got, want)
    if noisy:
        assert_same_generator_state(noises[1], noises[0])


def test_noise_free_run_at_epsilon_zero_records_a_positive_zero_attack(ugv_plant, ugv_kss,
                                                                        ugv_gains):
    """A run sums its attack onto zeros, so an attack of -0.0 is recorded as +0.0.

    Noise-free, e is 0 until the first saturating step, and each step before it
    leaves ``-ce - eta - delta`` = -0.0 - 0.0 - 0.0 = -0.0 at epsilon 0 (seed 4's
    schedule starts with four such steps). The run records +0.0 in xi and r, as
    the same policy inside a one-phase ``CompositeAttack`` does, and as ``step``
    does.
    """
    plan = AttackPlan(kind="worst_case_bdd_randaware", sensors=(0, 2), start=0, stop=10**6,
                      params={"epsilon": 0.0})

    def build():
        return build_attack_policy(plan, ugv_plant.s, ugv_plant.C, ugv_kss.sigma, ell=20,
                                   bdd=BadDataDetector.tuned(ugv_kss.sigma, 0.05), seed=4)

    zeros = np.zeros(ugv_plant.s)
    assert np.signbit(build()(0, zeros, zeros, None)[[0, 2]]).all()
    horizon = CHUNK + 30
    got = simulate(ugv_plant, ugv_kss, ugv_gains, None, horizon, attack=build())
    assert_bit_equal(got, simulate(ugv_plant, ugv_kss, ugv_gains, None, horizon,
                                   attack=CompositeAttack([build()])))
    assert_bit_equal(got, reference_run(ugv_plant, ugv_kss, ugv_gains, None, horizon, build()))
    zero = got["xi"][:, [0, 2]] == 0.0
    assert zero[:4].all() and not np.signbit(got["xi"][:, [0, 2]][zero]).any()
    assert not np.signbit(got["r"][:4]).any()


def test_lockstep_noise_blocks_equal_per_step_draws(ugv_plant):
    per_step = NoiseSource(ugv_plant.Q, ugv_plant.R, 5)
    blocked = NoiseSource(ugv_plant.Q, ugv_plant.R, 5)
    etas = [per_step.draw_eta()]
    nus = [np.zeros(ugv_plant.n)]
    for _ in range(CHUNK + 9):
        nu, eta = per_step.draw()
        nus.append(nu)
        etas.append(eta)
    first = blocked.block(10, initial=True)
    second = blocked.block(CHUNK)
    nu = np.concatenate([first[0], second[0]])[:, :, 0]
    eta = np.concatenate([first[1], second[1]])[:, :, 0]
    assert nu.tobytes() == np.array(nus).tobytes()
    assert eta.tobytes() == np.array(etas).tobytes()
    assert_same_generator_state(blocked, per_step)


#: a stable plant whose every output mixes states, for ensembles attacked on two sensors
MIXING_PLANT = LtiPlant(
    A=[[0.90, 0.10, 0.00], [0.00, 0.80, 0.10], [0.05, 0.00, 0.70]],
    B=[[0.5], [1.0], [0.2]],
    C=[[1.0, 0.5, 0.0], [0.0, -0.3, 1.0]],
    Q=np.diag([2e-4, 2e-4, 2e-4]),
    R=np.diag([4e-4, 3e-4]),
    ts=1.0,
)


def phases(attack):
    """The one-phase policies of an ``AttackPolicy`` or ``CompositeAttack``."""
    return getattr(attack, "policies", [attack])


def assert_ensemble_matches_per_run_reference(plant, factory, cusum, n_runs=12):
    """Each run of the stacked ensemble is bit-equal to ``reference_run`` of the same run.

    The reference steps each run alone with ``step``, under a second policy the
    factory builds for it, so the ensemble's one stacked policy must reproduce
    every run's own products, draws and CUSUM statistic, and each run's attack
    generators must end where the reference's do. Every phase attacks, a
    CUSUM phase raises no alarm in its window, and the tuned detector is never
    stepped. A stack of ``n_runs=1`` takes the stacked path too.
    """
    horizon, base_seed = CHUNK + 40, 808
    kss, gains = solve_dare(plant), make_controller(plant)
    built = []

    def recording(j):
        built.append(factory(j))
        return built[-1]

    got = run_attack_ensemble(plant, kss, gains, recording, n_runs=n_runs, horizon=horizon,
                              base_seed=base_seed)
    seeds = np.random.SeedSequence(base_seed).spawn(n_runs)
    references = [factory(j) for j in range(n_runs)]
    want = [reference_run(plant, kss, gains, NoiseSource(plant.Q, plant.R, seeds[j]), horizon,
                          references[j])
            for j in range(n_runs)]
    assert got.shape == (n_runs, horizon, plant.n)
    assert got.tobytes() == np.array([run["x"] for run in want]).tobytes()
    for ours, theirs, run in zip(built, references, want):
        for phase, reference in zip(phases(ours), phases(theirs)):
            assert_same_generator_state(phase.rngs[0], reference.rngs[0])
            plan, window = phase.plan, slice(phase.plan.start, phase.plan.stop)
            sensors = list(plan.sensors)
            assert (plan.kind == "none") != np.any(run["xi"][window, sensors] != 0.0)
            if plan.kind.startswith("worst_case_cusum"):
                # The alarm at step k + 1 is S[k] > tau. Each attacked step's S stays at
                # or below tau, so no attacked residual raises an alarm (the alarm at
                # `start` itself is decided by the clean S[start - 1]).
                S = np.empty((horizon, len(sensors)))
                cusum_alarm_fraction(np.abs(run["r"][:, sensors]), cusum.tau[sensors],
                                     cusum.bias[sensors], out=S)
                assert not np.any(S[window] > cusum.tau[sensors])
    assert not cusum.S.any()


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_lockstep_ensemble_matches_per_run_reference(kind, stable_plant, stable_kss):
    start, stop = 30, 250
    sigma = float(stable_kss.sigma[0])
    cusum = CusumDetector(tau=tune_cusum(sigma, 1.5 * sigma, 0.05).tau, bias=1.5 * sigma)

    def factory(j):  # every run's policy from the one tuned detector
        plan = AttackPlan(kind=kind, sensors=(0,), start=start, stop=stop)
        return build_attack_policy(plan, 1, stable_plant.C, stable_kss.sigma, ell=20,
                                   alpha_des=0.05, cusum=cusum, seed=j)

    for n_runs in (12, 1):
        assert_ensemble_matches_per_run_reference(stable_plant, factory, cusum, n_runs)


@pytest.fixture(scope="module")
def mixing_cusum():
    sigma = solve_dare(MIXING_PLANT).sigma
    return CusumDetector(tau=[tune_cusum(float(sig), 1.5 * sig, 0.05).tau for sig in sigma],
                         bias=1.5 * sigma)


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_lockstep_ensemble_on_mixed_outputs_matches_per_run_reference(kind, mixing_cusum):
    sigma = solve_dare(MIXING_PLANT).sigma

    def factory(j):  # both sensors, each C row mixing two states
        plan = AttackPlan(kind=kind, sensors=(0, 1), start=30, stop=250)
        return build_attack_policy(plan, 2, MIXING_PLANT.C, sigma, ell=20, alpha_des=0.05,
                                   cusum=mixing_cusum, seed=j)

    assert_ensemble_matches_per_run_reference(MIXING_PLANT, factory, mixing_cusum)


#: each attack parameter as a multiple of the per-sensor residual deviation
PARAM_SCALES = {"mu_a": 0.5, "sigma_a": 0.2, "amplitude": 0.3, "jitter": 0.2, "epsilon": 1e-6}


@pytest.mark.parametrize("kind", [kind for kind in ATTACK_KINDS if ATTACK_PARAMS[kind]])
def test_lockstep_ensemble_with_numpy_parameters_matches_per_run_reference(kind, mixing_cusum):
    sigma = solve_dare(MIXING_PLANT).sigma

    def factory(j):  # per-sensor numpy parameters, as build_attack_policy accepts them
        params = {key: PARAM_SCALES[key] * sigma for key in ATTACK_PARAMS[kind]}
        plan = AttackPlan(kind=kind, sensors=(0, 1), start=30, stop=250, params=params)
        return build_attack_policy(plan, 2, MIXING_PLANT.C, sigma, ell=20, alpha_des=0.05,
                                   cusum=mixing_cusum, seed=j)

    assert_ensemble_matches_per_run_reference(MIXING_PLANT, factory, mixing_cusum)


def test_lockstep_ensemble_of_composites_matches_per_run_reference(mixing_cusum):
    sigma = solve_dare(MIXING_PLANT).sigma
    plans = [AttackPlan(kind="worst_case_bdd_randaware", sensors=(0,), start=30, stop=200),
             AttackPlan(kind="worst_case_cusum_randaware", sensors=(1,), start=120, stop=280)]

    def factory(j):  # two overlapping phases per run, each with its own generator
        phase_seeds = np.random.SeedSequence(j).spawn(2)
        return CompositeAttack([
            build_attack_policy(plan, 2, MIXING_PLANT.C, sigma, ell=20, alpha_des=0.05,
                                bdd=BadDataDetector.tuned(sigma, 0.05), cusum=mixing_cusum,
                                seed=seed)
            for plan, seed in zip(plans, phase_seeds)])

    for n_runs in (12, 1):
        assert_ensemble_matches_per_run_reference(MIXING_PLANT, factory, mixing_cusum, n_runs)


class KeepingAttack:
    """An attack that keeps every array it is handed, beside a copy taken when handed."""

    def __init__(self, attack):
        self.attack, self.kept = attack, []

    def __call__(self, k, e, eta, r_prev):
        self.kept.append([(a, a.copy()) for a in (e, eta, r_prev) if a is not None])
        return self.attack(k, e, eta, r_prev)

    def assert_unchanged(self):
        for k, handed in enumerate(self.kept):
            for kept, copy in handed:
                assert kept.tobytes() == copy.tobytes(), f"step {k}"


def test_lockstep_never_rewrites_what_it_hands_an_attack(monkeypatch, ugv_plant, ugv_kss,
                                                         ugv_gains, stable_plant, stable_kss,
                                                         stable_gains):
    horizon = 2 * CHUNK + 10  # past two noise chunks
    attack = KeepingAttack(attacked_loop(ugv_plant, ugv_kss, "worst_case_cusum_randaware"))
    got = simulate(ugv_plant, ugv_kss, ugv_gains, NoiseSource(ugv_plant.Q, ugv_plant.R, 6),
                   horizon, attack=attack)
    attack.assert_unchanged()
    assert len(attack.kept) == horizon
    for k, (e, eta, *r_prev) in enumerate(attack.kept):
        assert e[0].tobytes() == (got["x"][k] - got["xhat"][k]).tobytes()
        assert [r[0].tobytes() for r in r_prev] == [got["r"][k - 1].tobytes()] * (k > 0)

    kept = []
    monkeypatch.setattr(randmon.deviation, "stack",
                        lambda runs: kept.append(KeepingAttack(stack(runs))) or kept[-1])

    def factory(j):
        plan = AttackPlan(kind="worst_case_cusum", sensors=(0,), start=20, stop=horizon)
        return build_attack_policy(plan, 1, stable_plant.C, stable_kss.sigma,
                                   cusum=CusumDetector(tau=4.0 * stable_kss.sigma,
                                                       bias=1.5 * stable_kss.sigma), seed=j)

    run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory, n_runs=3,
                        horizon=horizon)
    kept[0].assert_unchanged()
    assert len(kept[0].kept) == horizon
    assert [array.shape for array, _ in kept[0].kept[1]] == [(3, 2), (3, 1), (3, 1)]


def test_simulate_hands_a_policy_one_runs_vectors(monkeypatch, ugv_plant, ugv_kss, ugv_gains):
    """Only an ensemble's stack takes stacks: ``simulate`` calls a policy as ``step`` does."""
    shapes, call = [], AttackPolicy.__call__

    def recording(policy, k, e, eta, r_prev):
        shapes.append((e.shape, eta.shape, None if r_prev is None else r_prev.shape))
        return call(policy, k, e, eta, r_prev)

    monkeypatch.setattr(AttackPolicy, "__call__", recording)
    simulate(ugv_plant, ugv_kss, ugv_gains, NoiseSource(ugv_plant.Q, ugv_plant.R, 4), 60,
             attack=attacked_loop(ugv_plant, ugv_kss, "worst_case_cusum_randaware"))
    n, s = ugv_plant.n, ugv_plant.s
    assert shapes == [((n,), (s,), None)] + [((n,), (s,), (s,))] * 59


def test_lti_imports_no_attack_module():
    """The kernel calls any attack through its call protocol; it names no attack type."""
    with open(randmon.lti.__file__) as source:
        tree = ast.parse(source.read())
    imported = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert imported and not [name for name in imported if "attacks" in name.split(".")]


def test_lockstep_rejects_bad_attack_shape(ugv_plant, ugv_kss, ugv_gains):
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 1)
    with pytest.raises(InvalidParameter, match=r"^attack signal must have shape \(3,\), got \(2,\)$"):
        simulate(ugv_plant, ugv_kss, ugv_gains, noise, 10, attack=lambda k, e, eta, r_prev: np.zeros(2))
