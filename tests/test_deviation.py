import ast

import numpy as np
import pytest

import randmon.deviation
from randmon.attacks import AttackPlan, CompositeAttack, build_attack_policy, saturation_budget
from randmon.detectors import BadDataDetector, CusumDetector
from randmon.deviation import (
    deviation_limit,
    run_attack_ensemble,
    validate_against_simulation,
)
from randmon.errors import IllConditionedWarning, InvalidParameter
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
    # a plan names at least one sensor; each sensor it does not name has zero forcing
    out = forcing("worst_case_bdd_randaware", (1,), 3, tau=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out[[0, 2]], np.zeros(2))


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


@pytest.mark.parametrize("expected_r", [["a"], [np.nan], [np.inf], [True]],
                         ids=["str", "nan", "inf", "bool"])
def test_deviation_limit_rejects_a_non_finite_expected_residual(expected_r):
    # a string used to raise a bare ValueError, and a NaN to pass into the solves
    plant, kss, K = scalar_setup()
    message = r"^expected_r: must be a 0/1/2-D array of real numbers, none a bool or non-finite$"
    with pytest.raises(InvalidParameter, match=message):
        deviation_limit(plant, kss, K, expected_r)


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


def test_validate_rejects_trajectories_of_another_state_count():
    # a one-state prediction used to broadcast against three states and return three means
    plant, kss, K = scalar_setup()
    prediction = deviation_limit(plant, kss, K, [0.1])
    message = r"^trajectories: must have one entry per state \(1\) on its last axis, got 3$"
    with pytest.raises(InvalidParameter, match=message):
        validate_against_simulation(prediction, np.zeros((10, 5, 3)), burn_in=1)


def test_validate_requires_enough_runs():
    pred = deviation_limit(*scalar_setup(), [1.0])
    with pytest.raises(InvalidParameter, match=r"^need at least 10 runs, got 5$"):
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


def cusum_policy(plant, kss, seed, start=0):
    cusum = CusumDetector(tau=4.0 * kss.sigma, bias=1.5 * kss.sigma)
    plan = AttackPlan(kind="worst_case_cusum", sensors=(0,), start=start, stop=10**9)
    return build_attack_policy(plan, 1, plant.C, kss.sigma, cusum=cusum, seed=seed)


def test_ensemble_rejects_one_policy_object_for_two_runs(stable_plant, stable_kss, stable_gains):
    # Run 1's policy object returned again for run 3 would step one CUSUM copy on two
    # runs' residuals, so neither run would be the run simulated alone.
    shared = cusum_policy(stable_plant, stable_kss, seed=1)

    def factory(j):
        return shared if j in (1, 3) else cusum_policy(stable_plant, stable_kss, seed=j)

    message = r"^runs 1 and 3 share one attack policy object; each run needs its own$"
    with pytest.raises(InvalidParameter, match=message):
        run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory, n_runs=5,
                            horizon=50)


@pytest.mark.parametrize("case, message", [
    ("plan", r"^run 2's attack policy cannot share a stack with run 0's: "),
    ("callable", r"^policy_factory must return an AttackPolicy or CompositeAttack "
                 r"\(or None for every run\), got function$"),
    ("none", r"^run 1's attack is a NoneType, run 0's an AttackPolicy$"),
    ("composite", r"^run 1's attack cannot share a stack with run 0's CompositeAttack: "
                  r"the runs need the same phases$"),
], ids=["plan", "callable", "none", "composite"])
def test_ensemble_rejects_policies_it_cannot_stack(case, message, stable_plant, stable_kss,
                                                   stable_gains):
    def factory(j):
        if case == "callable":
            return lambda k, e, eta, r_prev: np.zeros(1)
        if case == "none" and j == 1:
            return None
        if case == "composite" and j == 0:
            return CompositeAttack([cusum_policy(stable_plant, stable_kss, seed=j)])
        return cusum_policy(stable_plant, stable_kss, seed=j, start=5 if j == 2 else 0)

    with pytest.raises(InvalidParameter, match=message):
        run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory, n_runs=3,
                            horizon=50)


def test_deviation_names_no_attack_class():
    """The ensemble joins its runs' attacks through ``attacks.stack`` alone."""
    with open(randmon.deviation.__file__) as source:
        tree = ast.parse(source.read())
    from_attacks = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module in ("attacks", "randmon.attacks") for alias in node.names]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert from_attacks == ["stack"]
    assert not names & {"AttackPolicy", "CompositeAttack"}
