import numpy as np
import pytest

from randmon.attacks import AttackPlan, build_attack_policy, saturation_budget
from randmon.detectors import BadDataDetector, CusumDetector
from randmon.deviation import (
    deviation_limit,
    run_attack_ensemble,
    validate_against_simulation,
)
from randmon.errors import IllConditionedWarning, InsufficientEnsemble, InvalidParameter
from randmon.lti import KalmanSteadyState, LtiPlant


def scalar_setup(a=0.5, k=-0.3, l=0.4):
    plant = LtiPlant(A=[[a]], B=[[1.0]], C=[[1.0]], Q=[[0.01]], R=[[0.01]], ts=1.0)
    kss = KalmanSteadyState(
        P=np.array([[0.01]]),
        L=np.array([[l]]),
        Sigma=np.array([[0.02]]),
        sigma=np.array([np.sqrt(0.02)]),
    )
    return plant, kss, np.array([[k]])


# --- forcing of the worst-case policies --------------------------------------------------


def forcing(kind, sensors, n_sensors, *, tau=None, bias=None, ell=100):
    """``forcing`` of a worst-case policy against a BDD of threshold ``tau`` or a
    CUSUM of bias ``bias`` (threshold 1)."""
    bdd = None if tau is None else BadDataDetector(tau=np.ones(n_sensors) * tau)
    cusum = None if bias is None else CusumDetector(tau=np.ones(n_sensors),
                                                    bias=np.ones(n_sensors) * bias)
    plan = AttackPlan(kind=kind, sensors=sensors)
    return build_attack_policy(plan, n_sensors, np.eye(n_sensors), np.ones(n_sensors),
                               ell=ell, alpha_des=0.05, bdd=bdd, cusum=cusum).forcing


def test_expected_residual_clean_sensors():
    out = forcing("worst_case_bdd_randaware", (), 3, tau=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out, np.zeros(3))


def test_expected_residual_product():
    ratio = saturation_budget(100, 0.05).ratio
    out = forcing("worst_case_bdd_randaware", (0,), 2, tau=2.0)
    assert out[0] == 2.0 * ratio
    assert out[1] == 0.0


def test_expected_residual_limit():
    out = forcing("worst_case_bdd_randaware", (0,), 1, tau=1.0, ell=50_000)
    assert abs(out[0] - (1.0 - np.sqrt(2.0) / 2.0)) < 0.005
    # holding the CUSUM statistic leaves a residual at the bias, whatever the budget
    for kind in ("worst_case_cusum", "worst_case_cusum_randaware"):
        assert forcing(kind, (0,), 1, bias=0.7)[0] == 0.7
    # the detector-only bad-data attack pins the full threshold
    assert forcing("worst_case_bdd", (0,), 1, tau=2.0)[0] == 2.0


def test_expected_residual_validation():
    # a bad-data attack without a configured detector, and the scripted kinds
    for kind in ("worst_case_bdd", "worst_case_bdd_randaware", "pattern_runs", "none"):
        assert forcing(kind, (0,), 1) is None
    with pytest.raises(InvalidParameter):
        forcing("worst_case_bdd", (5,), 1, tau=1.0)


# --- deviation limit ---------------------------------------------------------------------


def test_deviation_limit_scalar_hand_solved():
    plant, kss, K = scalar_setup()
    pred = deviation_limit(plant, kss, K, [1.0])
    # hand solution: |e_inf| = 0.4/0.5 = 0.8, delta = (-0.3*0.8)/(1-0.5+0.3) = -0.3
    assert pred.stable
    assert abs(abs(pred.est_error_limit[0]) - 0.8) < 1e-12
    assert abs(pred.delta[0] - (-0.3)) < 1e-12


def test_deviation_limit_fixed_point():
    plant, kss, K = scalar_setup()
    pred = deviation_limit(plant, kss, K, [1.0])
    A, B, L = plant.A, plant.B, kss.L
    e, d = pred.est_error_limit, pred.delta
    np.testing.assert_allclose(A @ e - L @ [1.0], e, atol=1e-10)
    np.testing.assert_allclose((A + B @ K) @ d - B @ K @ e, d, atol=1e-10)


def test_deviation_limit_zero_forcing():
    plant, kss, K = scalar_setup()
    pred = deviation_limit(plant, kss, K, [0.0])
    assert pred.delta[0] == 0.0


def test_deviation_limit_linearity():
    plant, kss, K = scalar_setup()
    one = deviation_limit(plant, kss, K, [1.0]).delta
    two = deviation_limit(plant, kss, K, [2.0]).delta
    np.testing.assert_allclose(two, 2.0 * one, atol=1e-12)


def test_deviation_limit_unstable_open_loop(ugv_plant, ugv_kss, ugv_gains):
    # the heading channel integrates: rho(A) = 1 exactly, no finite limit
    pred = deviation_limit(ugv_plant, ugv_kss, ugv_gains, [0.01, 0.0, 0.0])
    assert not pred.stable
    assert pred.delta is None
    assert pred.rho_open >= 1.0


def test_deviation_limit_shared_kernel_for_cusum():
    plant, kss, K = scalar_setup()
    ratio = saturation_budget(100, 0.05).ratio
    er_b = forcing("worst_case_bdd_randaware", (0,), 1, tau=2.0)
    er_c = forcing("worst_case_cusum_randaware", (0,), 1, bias=0.7)
    db = deviation_limit(plant, kss, K, er_b).delta
    dc = deviation_limit(plant, kss, K, er_c).delta
    np.testing.assert_allclose(dc, db * (0.7 / (2.0 * ratio)), atol=1e-12)


def test_deviation_limit_warns_when_ill_conditioned():
    # one open-loop pole a hair inside the unit circle: cond(I - A) ~ 5e10
    plant = LtiPlant(A=np.diag([1.0 - 1e-11, 0.5]), B=[[1.0], [1.0]], C=[[1.0, 1.0]],
                     Q=np.eye(2) * 0.01, R=[[0.01]], ts=1.0)
    kss = KalmanSteadyState(P=np.eye(2) * 0.01, L=np.array([[0.1], [0.1]]),
                            Sigma=np.array([[0.03]]), sigma=np.array([np.sqrt(0.03)]))
    K = np.array([[-0.4, -0.4]])
    with pytest.warns(IllConditionedWarning):
        pred = deviation_limit(plant, kss, K, [1.0])
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
