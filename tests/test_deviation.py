import numpy as np
import pytest

from randmon.attacks import AttackPlan, build_attack_policy, saturation_budget
from randmon.deviation import (
    deviation_limit,
    expected_residual,
    run_attack_ensemble,
    validate_against_simulation,
)
from randmon.errors import IllConditionedWarning, InsufficientEnsemble, InvalidParameter
from randmon.lti import ControllerGains, KalmanSteadyState, LtiPlant


def scalar_setup(a=0.5, k=-0.3, l=0.4):
    plant = LtiPlant(A=[[a]], B=[[1.0]], C=[[1.0]], Q=[[0.01]], R=[[0.01]], ts=1.0)
    kss = KalmanSteadyState(
        P=np.array([[0.01]]),
        L=np.array([[l]]),
        Sigma=np.array([[0.02]]),
        sigma=np.array([np.sqrt(0.02)]),
    )
    gains = ControllerGains(K=np.array([[k]]))
    return plant, kss, gains


# --- expected residual -------------------------------------------------------------------


def test_expected_residual_clean_sensors():
    budget = saturation_budget(100, 0.05)
    out = expected_residual("bdd", [1.0, 2.0, 3.0], budget, sensors=[], n_sensors=3)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_expected_residual_product():
    budget = saturation_budget(100, 0.05)
    budget.beta, budget.gamma = 29, 71
    out = expected_residual("bdd", 2.0, budget, sensors=[0], n_sensors=2)
    assert abs(out[0] - 0.58) < 1e-12
    assert out[1] == 0.0


def test_expected_residual_limit():
    budget = saturation_budget(50_000, 0.05)
    out = expected_residual("bdd", 1.0, budget, sensors=[0], n_sensors=1)
    assert abs(out[0] - (1.0 - np.sqrt(2.0) / 2.0)) < 0.005
    # holding the CUSUM statistic leaves a residual at the bias, whatever the budget
    for b in (budget, None):
        assert expected_residual("cusum", 0.7, b, sensors=[0], n_sensors=1)[0] == 0.7
    # the detector-only bad-data attack pins the full threshold
    assert expected_residual("bdd", 2.0, None, sensors=[0], n_sensors=1)[0] == 2.0


def test_expected_residual_validation():
    budget = saturation_budget(100, 0.05)
    with pytest.raises(InvalidParameter):
        expected_residual("bad", 1.0, budget, sensors=[0], n_sensors=1)
    with pytest.raises(InvalidParameter):
        expected_residual("bdd", 1.0, budget, sensors=[5], n_sensors=1)


# --- deviation limit ---------------------------------------------------------------------


def test_deviation_limit_scalar_hand_solved():
    plant, kss, gains = scalar_setup()
    pred = deviation_limit(plant, kss, gains, [1.0])
    # hand solution: |e_inf| = 0.4/0.5 = 0.8, delta = (-0.3*0.8)/(1-0.5+0.3) = -0.3
    assert pred.stable
    assert abs(abs(pred.est_error_limit[0]) - 0.8) < 1e-12
    assert abs(pred.delta[0] - (-0.3)) < 1e-12


def test_deviation_limit_fixed_point():
    plant, kss, gains = scalar_setup()
    pred = deviation_limit(plant, kss, gains, [1.0])
    A, B, K, L = plant.A, plant.B, gains.K, kss.L
    e, d = pred.est_error_limit, pred.delta
    np.testing.assert_allclose(A @ e - L @ [1.0], e, atol=1e-10)
    np.testing.assert_allclose((A + B @ K) @ d - B @ K @ e, d, atol=1e-10)


def test_deviation_limit_zero_forcing():
    plant, kss, gains = scalar_setup()
    pred = deviation_limit(plant, kss, gains, [0.0])
    assert pred.delta[0] == 0.0


def test_deviation_limit_linearity():
    plant, kss, gains = scalar_setup()
    one = deviation_limit(plant, kss, gains, [1.0]).delta
    two = deviation_limit(plant, kss, gains, [2.0]).delta
    np.testing.assert_allclose(two, 2.0 * one, atol=1e-12)


def test_deviation_limit_unstable_open_loop(ugv_plant, ugv_kss, ugv_gains):
    # the heading channel integrates: rho(A) = 1 exactly, no finite limit
    pred = deviation_limit(ugv_plant, ugv_kss, ugv_gains, [0.01, 0.0, 0.0])
    assert not pred.stable
    assert pred.delta is None
    assert pred.rho_open >= 1.0


def test_deviation_limit_shared_kernel_for_cusum():
    plant, kss, gains = scalar_setup()
    budget = saturation_budget(100, 0.05)
    er_b = expected_residual("bdd", 2.0, budget, sensors=[0], n_sensors=1)
    er_c = expected_residual("cusum", 0.7, budget, sensors=[0], n_sensors=1)
    db = deviation_limit(plant, kss, gains, er_b).delta
    dc = deviation_limit(plant, kss, gains, er_c).delta
    np.testing.assert_allclose(dc, db * (0.7 / (2.0 * budget.ratio)), atol=1e-12)


def test_deviation_limit_warns_when_ill_conditioned():
    # one open-loop pole a hair inside the unit circle: cond(I - A) ~ 5e10
    plant = LtiPlant(A=np.diag([1.0 - 1e-11, 0.5]), B=[[1.0], [1.0]], C=[[1.0, 1.0]],
                     Q=np.eye(2) * 0.01, R=[[0.01]], ts=1.0)
    kss = KalmanSteadyState(P=np.eye(2) * 0.01, L=np.array([[0.1], [0.1]]),
                            Sigma=np.array([[0.03]]), sigma=np.array([np.sqrt(0.03)]))
    gains = ControllerGains(K=np.array([[-0.4, -0.4]]))
    with pytest.warns(IllConditionedWarning):
        pred = deviation_limit(plant, kss, gains, [1.0])
    assert pred.stable
    assert np.all(np.isfinite(pred.delta))


# --- ensemble validation -----------------------------------------------------------------


def test_validate_requires_enough_runs():
    pred = deviation_limit(*scalar_setup(), [1.0])
    with pytest.raises(InsufficientEnsemble):
        validate_against_simulation(pred, np.zeros((5, 100, 1)), burn_in=10)


def test_no_attack_ensemble_unbiased(stable_plant, stable_kss, stable_gains):
    def factory(j):
        return None

    traj = run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory,
                               n_runs=24, horizon=1500, base_seed=101)
    pred = deviation_limit(stable_plant, stable_kss, stable_gains, [0.0])
    report = validate_against_simulation(pred, traj, burn_in=300)
    assert np.all(np.abs(report.ensemble_mean) < 4.0 * report.ensemble_stderr)


def test_bdd_attack_ensemble_matches_prediction(stable_plant, stable_kss, stable_gains):
    from randmon.detectors import tune_bdd

    tau = tune_bdd(stable_kss.sigma[0], 0.05)

    def factory(j):
        plan = AttackPlan(kind="worst_case_bdd", sensors=(0,), start=0, stop=10**9)
        return build_attack_policy(plan, 1, stable_plant.C, stable_kss.sigma,
                                   alpha_des=0.05, seed=j)

    traj = run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory,
                               n_runs=30, horizon=1500, base_seed=55)
    pred = deviation_limit(stable_plant, stable_kss, stable_gains, [tau])
    report = validate_against_simulation(pred, traj, burn_in=400)
    tol = np.maximum(0.10, 4.0 * report.ensemble_stderr / np.abs(pred.delta))
    assert np.all(report.relative_error < tol)
