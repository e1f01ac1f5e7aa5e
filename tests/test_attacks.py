import math

import numpy as np
import pytest

from randmon.attacks import (
    THRESHOLD_MARGIN,
    AttackPlan,
    build_attack_policy,
    saturation_budget,
    schedule_saturation,
)
from randmon.detectors import BadDataDetector, CusumDetector
from randmon.errors import InvalidParameter
from randmon.lti import NoiseSource, step
from randmon.monitors import wsr_bounds, wsr_test

RATE_LIMIT = 1.0 - math.sqrt(2.0) / 2.0


# --- saturation budget ------------------------------------------------------------------


def test_budget_brute_force_window_25():
    alpha = 0.05
    budget = saturation_budget(25, alpha)
    omega_minus, _ = wsr_bounds(25, alpha)
    feasible = [g for g in range(1, 26) if g * (g + 1) / 2.0 > omega_minus]
    assert budget.gamma == min(feasible)
    assert budget.beta == 25 - budget.gamma
    assert budget.gamma + budget.beta == 25


def test_budget_exact_over_grid():
    # alpha = 1 puts omega_minus at its largest, the null mean ell(ell+1)/4
    for alpha in (1e-12, 0.01, 0.05, 0.1, 0.2, 1.0):
        for ell in range(20, 501):
            budget = saturation_budget(ell, alpha)
            omega_minus, _ = wsr_bounds(ell, alpha)
            ranks = np.arange(1, ell + 1)
            sums = np.cumsum(ranks)
            assert sums[-1] > omega_minus  # gamma = ell is always feasible
            expected_gamma = int(np.argmax(sums > omega_minus)) + 1
            assert (budget.gamma, budget.beta) == (expected_gamma, ell - expected_gamma)


def test_budget_limit_large_window():
    # converges to 1 - sqrt(2)/2; at ell = 1e4 the worst case over these
    # alphas sits just past 0.01 away (0.0106 at alpha = 0.01)
    for alpha in (0.01, 0.05, 0.2):
        ratio = saturation_budget(10_000, alpha).ratio
        assert abs(ratio - RATE_LIMIT) < 0.011
    # and the deviation shrinks as the window grows
    for alpha in (0.01, 0.05, 0.2):
        d_small = abs(saturation_budget(10_000, alpha).ratio - RATE_LIMIT)
        d_large = abs(saturation_budget(40_000, alpha).ratio - RATE_LIMIT)
        assert d_large < d_small


def test_budget_monotone_in_alpha():
    for ell in (50, 100, 500):
        ratios = [saturation_budget(ell, a).ratio for a in (0.01, 0.05, 0.1, 0.2)]
        assert all(x >= y for x, y in zip(ratios, ratios[1:]))


def test_budget_rejects_small_window():
    with pytest.raises(InvalidParameter):
        saturation_budget(10, 0.05)


# --- saturation schedule ----------------------------------------------------------------


def test_schedule_zero_beta():
    budget = saturation_budget(100, 0.05)
    budget.beta = 0
    out = schedule_saturation(budget, np.random.default_rng(0))
    assert out.dtype == bool and not out.any()


def test_schedule_exact_count():
    for alpha in (0.01, 0.05, 0.2):
        budget = saturation_budget(100, alpha)
        out = schedule_saturation(budget, np.random.default_rng(1))
        assert out.sum() == budget.beta
        assert out.size == budget.ell


def test_schedule_deterministic_under_seed():
    budget = saturation_budget(100, 0.05)
    a = schedule_saturation(budget, np.random.Generator(np.random.Philox(5)))
    b = schedule_saturation(budget, np.random.Generator(np.random.Philox(5)))
    assert np.array_equal(a, b)


# --- per-step worst-case signals ---------------------------------------------------------


def test_bdd_signal_pins_residual():
    c_rows = np.array([[1.0, 0.5]])
    e, eta = np.array([0.2, -0.1]), np.array([0.03])
    plan = AttackPlan(kind="worst_case_bdd", sensors=(0,))
    policy = build_attack_policy(plan, 1, c_rows, np.ones(1), bdd=BadDataDetector(tau=[2.0]))
    xi = policy(0, e, eta)[0]
    r = c_rows[0] @ e + eta[0] + xi
    assert abs(r - 2.0) < 1e-9
    assert r < 2.0  # margin keeps the strict threshold un-crossed


def test_bdd_signal_modes():
    e, eta = np.array([0.0]), np.array([0.0])
    eps = 0.002
    plan = AttackPlan(kind="worst_case_bdd_randaware", sensors=(0,), params={"epsilon": eps})
    policy = build_attack_policy(plan, 1, np.eye(1), np.ones(1), ell=20,
                                 bdd=BadDataDetector(tau=[2.0]), seed=3)
    assert policy.schedule.any() and not policy.schedule.all()
    for k in range(40):
        xi = policy(k, e, eta)[0]
        if policy.schedule[k % 20]:  # saturating: the threshold less the dither
            assert 0 < 2.0 - xi <= eps + 1e-9
        else:  # non-saturating: minus the dither
            assert -eps <= xi <= 0.0


def test_cusum_signal_holds_statistic():
    c_rows = np.array([[1.0]])
    cusum = CusumDetector(tau=[0.8], bias=[1.5])
    plan = AttackPlan(kind="worst_case_cusum", sensors=(0,))
    policy = build_attack_policy(plan, 1, c_rows, np.ones(1), cusum=cusum)
    e, eta = np.array([0.05]), np.array([-0.02])
    for k in range(50):
        r = c_rows[0] @ e + eta[0] + policy(k, e, eta)[0]
        assert not cusum.step([r])[0]
        assert abs(cusum.S[0] - cusum.tau[0]) < 1e-9  # held at the threshold from the first step


def test_cusum_policy_reads_live_detector_statistic():
    cusum = CusumDetector(tau=[0.8, 0.9], bias=[1.5, 1.2])
    plan = AttackPlan(kind="worst_case_cusum", sensors=(0, 1), start=0, stop=100)
    policy = build_attack_policy(plan, 2, np.eye(2), np.ones(2), cusum=cusum, seed=1)
    e, eta = np.array([0.05, -0.3]), np.array([-0.02, 0.1])
    for S in ([0.0, 0.0], [0.3, 0.7], [0.8, 0.1]):
        cusum.S = np.array(S)
        xi = policy(4, e, eta)
        for i in range(2):
            base = -e[i] - eta[i]
            held = cusum.tau[i] * (1.0 - THRESHOLD_MARGIN)
            assert xi[i] == base + cusum.bias[i] - S[i] + held


# --- attack plans and policies -----------------------------------------------------------


def test_plan_validation():
    with pytest.raises(InvalidParameter):
        AttackPlan(kind="unknown_kind")
    with pytest.raises(InvalidParameter):
        AttackPlan(kind="none", start=10, stop=10)


def test_policy_inactive_outside_window(ugv_plant, ugv_kss):
    plan = AttackPlan(kind="worst_case_bdd", sensors=(0,), start=5, stop=10)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma, seed=0)
    e = np.zeros(3)
    eta = np.zeros(3)
    assert not policy(4, e, eta).any()
    assert policy(5, e, eta)[0] != 0.0
    assert not policy(10, e, eta).any()


def test_none_policy_zero_vector(ugv_plant, ugv_kss):
    policy = build_attack_policy(AttackPlan(kind="none"), 3, ugv_plant.C, ugv_kss.sigma, seed=0)
    assert not policy(0, np.zeros(3), np.zeros(3)).any()


@pytest.mark.parametrize("kind, params, message", [
    ("bias_concentrate", {"mu_a": 10.0, "sigma_a": 0.001}, "would cross the bad-data threshold"),
    ("bias_concentrate", {"sigma_a": 5.0}, "sigma_a must be below"),
    ("pattern_runs", {"amplitude": 5.0}, "exceeds the bad-data bound"),
], ids=["mu_a-bound", "sigma_a-deviation", "pattern-amplitude"])
def test_bias_concentrate_rejects_threshold_violations(kind, params, message, ugv_plant, ugv_kss):
    plan = AttackPlan(kind=kind, sensors=(0,), params=params)
    with pytest.raises(InvalidParameter, match=message):
        build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma, alpha_des=0.05, seed=0)


def test_pattern_attack_forces_signs(ugv_plant, ugv_kss, ugv_gains):
    plan = AttackPlan(kind="pattern_runs", sensors=(0,), start=0, stop=10_000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma, alpha_des=0.05, seed=1)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 2)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    rs = [state.r[0]]
    for _ in range(200):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        rs.append(state.r[0])
    diffs = np.sign(np.diff(rs[4:]))  # past the ramp-in
    pattern = np.tile([1.0, 1.0, 1.0, -1.0], 60)[: diffs.size]
    # the forced cycle is +,+,+,-; alignment may start anywhere in the cycle
    matches = [
        np.array_equal(diffs, np.roll(np.tile([1.0, 1.0, 1.0, -1.0], 60), -shift)[: diffs.size])
        for shift in range(4)
    ]
    assert any(matches)


def test_worst_case_bdd_stealth_closed_loop(ugv_plant, ugv_kss, ugv_gains):
    alpha = 0.05
    bdd = BadDataDetector.tuned(ugv_kss.sigma, alpha)
    plan = AttackPlan(kind="worst_case_bdd", sensors=(0,), start=0, stop=4000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 alpha_des=alpha, bdd=bdd, seed=3)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 4)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    alarms = 0
    for _ in range(2000):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        alarms += int(bdd.step(state.r)[0])
        assert abs(state.r[0] - bdd.tau[0]) < 1e-9
    assert alarms == 0


def test_randaware_bdd_mean_residual_matches_budget(ugv_plant, ugv_kss, ugv_gains):
    alpha, ell = 0.05, 100
    bdd = BadDataDetector.tuned(ugv_kss.sigma, alpha)
    budget = saturation_budget(ell, alpha)
    plan = AttackPlan(kind="worst_case_bdd_randaware", sensors=(0,), start=0, stop=30_000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 ell=ell, alpha_des=alpha, bdd=bdd, seed=5)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 6)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    rs = []
    for _ in range(20_000):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        rs.append(state.r[0])
    rs = np.asarray(rs)
    predicted = bdd.tau[0] * budget.ratio
    assert abs(rs.mean() - predicted) / predicted < 0.01
    # saturating steps sit at the threshold, the rest just below zero
    assert np.all(np.abs(rs) <= bdd.tau[0])
    assert ((rs > 0.5 * bdd.tau[0]).mean() - budget.ratio) < 0.01


def test_randaware_bdd_window_stays_inside_wsr_band(ugv_plant, ugv_kss, ugv_gains):
    alpha, ell = 0.05, 100
    bdd = BadDataDetector.tuned(ugv_kss.sigma, alpha)
    plan = AttackPlan(kind="worst_case_bdd_randaware", sensors=(0,), start=0, stop=10_000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 ell=ell, alpha_des=alpha, bdd=bdd, seed=7)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 8)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    rs = []
    for _ in range(3000):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        rs.append(state.r[0])
    alarms = sum(wsr_test(np.asarray(rs[k - ell:k]), alpha).alarm
                 for k in range(ell + 200, 3000))
    assert alarms / (3000 - ell - 200) <= alpha + 0.05


def test_worst_case_cusum_stealth_and_mean(ugv_plant, ugv_kss, ugv_gains):
    alpha = 0.05
    cusum = CusumDetector(tau=[0.01, 0.01, 0.01], bias=1.5 * ugv_kss.sigma)
    plan = AttackPlan(kind="worst_case_cusum", sensors=(0,), start=0, stop=5000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 alpha_des=alpha, cusum=cusum, seed=9)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 10)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    alarms = 0
    rs = []
    for _ in range(3000):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        alarms += int(cusum.step(state.r)[0])
        rs.append(state.r[0])
        assert cusum.S[0] <= cusum.tau[0]
    assert alarms == 0
    assert abs(cusum.S[0] - cusum.tau[0]) < 1e-9
    # the holding sequence leaves a residual near the bias, not near
    # tau_c * beta / ell: measured and documented rather than forced
    assert abs(np.mean(rs[2:]) - cusum.bias[0]) < 0.05 * cusum.bias[0]


def test_randaware_cusum_statistic_bounded(ugv_plant, ugv_kss, ugv_gains):
    alpha = 0.05
    cusum = CusumDetector(tau=[0.02, 0.02, 0.02], bias=1.5 * ugv_kss.sigma)
    plan = AttackPlan(kind="worst_case_cusum_randaware", sensors=(0,), start=0, stop=5000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 ell=100, alpha_des=alpha, cusum=cusum, seed=11)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 12)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    alarms = 0
    rs = []
    for _ in range(3000):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        alarms += int(cusum.step(state.r)[0])
        rs.append(state.r[0])
        assert cusum.S[0] <= cusum.tau[0] + 1e-12
    assert alarms == 0
    # non-saturating steps leave r = bias - delta, so the mean goes to the
    # bias rather than the nominal tau_c * beta / ell expression
    assert abs(np.mean(rs[2:]) - cusum.bias[0]) < 0.05 * cusum.bias[0]


def test_schedule_epsilon_sign_structure(ugv_plant, ugv_kss, ugv_gains):
    # with dither from U(0, eps), non-saturating residuals sit just below zero
    alpha, ell = 0.05, 100
    bdd = BadDataDetector.tuned(ugv_kss.sigma, alpha)
    plan = AttackPlan(kind="worst_case_bdd_randaware", sensors=(0,), start=0, stop=2000)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma,
                                 ell=ell, alpha_des=alpha, bdd=bdd, seed=13)
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 14)
    state = step(ugv_plant, ugv_kss, ugv_gains, None, attack=policy, noise=noise)
    eps = 1e-6 * ugv_kss.sigma[0]
    for _ in range(500):
        state = step(ugv_plant, ugv_kss, ugv_gains, state, attack=policy, noise=noise)
        k = state.k
        saturating = policy.schedule[(k - plan.start) % ell]
        if saturating:
            assert state.r[0] > 0.5 * bdd.tau[0]
        else:
            assert -2 * eps < state.r[0] < 0.0 or abs(state.r[0]) < 2 * eps
