import math
import re

import numpy as np
import pytest

from randmon.attacks import (
    THRESHOLD_MARGIN,
    AttackPlan,
    build_attack_policy,
    saturation_budget,
    schedule_saturation,
    stack,
)
from randmon.config import load_config_dict
from randmon.detectors import BadDataDetector, CusumDetector
from randmon.errors import InvalidParameter, ValidationError
from randmon.lti import CHUNK, NoiseSource, step
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


def test_budget_rejects_non_integer_window():  # it used to fail with a bare TypeError
    message = r"^window length: must be an integer >= 1, got 20\.5$"
    with pytest.raises(InvalidParameter, match=message):
        saturation_budget(20.5, 0.05)


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
    xi = policy(0, e, eta, None)[0]
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
        xi = policy(k, e, eta, None)[0]
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
    r = None
    for k in range(50):
        r = np.array([c_rows[0] @ e + eta[0] + policy(k, e, eta, r)[0]])
        assert not cusum.step(r)[0]
        assert abs(cusum.S[0] - cusum.tau[0]) < 1e-9  # held at the threshold from the first step


def test_cusum_policy_reads_live_detector_statistic():
    plan = AttackPlan(kind="worst_case_cusum", sensors=(0, 1), start=0, stop=100)
    e, eta = np.array([0.05, -0.3]), np.array([-0.02, 0.1])
    for S in ([0.0, 0.0], [0.3, 0.7], [0.8, 0.1]):
        cusum = CusumDetector(tau=[0.8, 0.9], bias=[1.5, 1.2], S=S)
        policy = build_attack_policy(plan, 2, np.eye(2), np.ones(2), cusum=cusum, seed=1)
        xi = policy(4, e, eta, None)
        for i in range(2):
            base = -e[i] - eta[i]
            held = cusum.tau[i] * (1.0 - THRESHOLD_MARGIN)
            assert xi[i] == base + cusum.bias[i] - S[i] + held


@pytest.mark.parametrize("runs", [1, 20])
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_row_product_is_each_runs_own_product(n, s, runs):
    """A stacked policy's ``C e`` carries each run's own ``float(C[i] @ e)`` bits.

    The trap: ``C @ E`` over the (R, n, 1) stack, ``einsum`` and ``e2d @ C.T``
    compute the same sums through other kernels, and in many random cases
    differ in the last bits from the per-run product once s > 1, under the
    default, Haswell and Sandybridge OpenBLAS kernels. One row against each
    run's column, ``(C[i][None, None] @ E)[:, 0, 0]``, is the per-run product,
    and it is the form the policy uses. The stacked worst-case policy's output
    must then equal every run's own policy's, byte for byte.
    """
    rng = np.random.default_rng(1000 * n + 10 * s + runs)
    plan = AttackPlan(kind="worst_case_bdd", sensors=tuple(range(s)))
    for _ in range(50):
        C = rng.standard_normal((s, n)) * 10.0 ** rng.uniform(-3, 3, size=(s, 1))
        E = rng.standard_normal((runs, n)) * 10.0 ** rng.uniform(-3, 3, size=(runs, 1))
        eta = rng.standard_normal((runs, s))
        for i in range(s):
            got = (C[i][None, None] @ E[:, :, None])[:, 0, 0]
            assert got.tobytes() == np.array([float(C[i] @ e) for e in E]).tobytes()
        policies = [build_attack_policy(plan, s, C, np.ones(s), bdd=BadDataDetector(tau=np.ones(s)),
                                        seed=j) for j in range(runs)]
        stacked = stack(policies)(3, E, eta, None)
        per_run = [policy(3, e, eta_j, None) for policy, e, eta_j in zip(policies, E, eta)]
        assert stacked.tobytes() == np.array(per_run).tobytes()


# --- chunk-drawn randomness --------------------------------------------------------------

DRAWING_KINDS = ("bias_concentrate", "symmetric_flood", "worst_case_bdd_randaware",
                 "worst_case_cusum_randaware")


def one_step_reference(policy, rng, k, sensors):
    """A kind's attack on ``sensors`` at active step k for e = 0 and eta = 0 (``ce = 0.0``),
    drawing one value per sensor from ``rng`` as the per-step policy drew them."""
    out = []
    for i in sensors:
        if policy.plan.kind == "bias_concentrate":
            mu, sd = policy.consts
            out.append(rng.normal(mu[i], sd[i]) - 0.0 - 0.0)
        elif policy.plan.kind == "symmetric_flood":
            amp, jitter = policy.consts
            sign = 1.0 if rng.random() < 0.5 else -1.0
            out.append(sign * (amp[i] + jitter[i] * rng.random()) - 0.0 - 0.0)
        else:  # S stays 0.0: no residual is handed in
            bias, pinned, eps = policy.consts
            v = -0.0 - 0.0 if bias is None else (-0.0 - 0.0) + bias[i]
            saturating = policy.schedule[(k - policy.plan.start) % len(policy.schedule)]
            out.append(((v - 0.0) + pinned[i] if saturating else v) - rng.uniform(0.0, eps[i]))
    return out


@pytest.mark.parametrize("start, stop, horizon", [
    (37, 37 + CHUNK + 100, 37 + CHUNK + 130),  # the window starts and stops inside chunks
    (5, 2**62, 5 + 2 * CHUNK + 17),            # the horizon ends inside the third chunk
], ids=["window-inside-chunks", "horizon-mid-chunk"])
@pytest.mark.parametrize("runs", [None, 1, 3], ids=["one-run", "stack-of-1", "stack-of-3"])
@pytest.mark.parametrize("kind", DRAWING_KINDS)
def test_chunk_draws_equal_one_draw_per_active_step_and_sensor(kind, runs, start, stop, horizon,
                                                                ugv_plant, ugv_kss):
    """Every active step gets the values of one draw per step and sensor, run by run.

    A reference generator per run, seeded as the run's policy is, draws once per
    active step and sensor in (step, sensor) order; the policy, which draws a
    chunk of active steps at a time, must attack with exactly those values.
    Drawing a chunk sensor-major, or a chunk on an inactive step, gives others.
    """
    sigma = ugv_kss.sigma
    plan = AttackPlan(kind=kind, sensors=(0, 2), start=start, stop=stop)

    def build(seed):
        return build_attack_policy(plan, 3, ugv_plant.C, sigma, ell=20,
                                   bdd=BadDataDetector.tuned(sigma, 0.05),
                                   cusum=CusumDetector(tau=4.0 * sigma, bias=1.5 * sigma),
                                   seed=seed)

    seeds = [0] if runs is None else list(range(10, 10 + runs))
    attack = build(0) if runs is None else stack([build(seed) for seed in seeds])
    references = [build(seed) for seed in seeds]  # fresh: each generator where the run's starts
    shape = (3,) if runs is None else (runs, 3)
    zeros = np.zeros(shape)
    active = 0
    for k in range(horizon):
        xi = attack(k, zeros, zeros, None)
        want = np.zeros((len(seeds), 3))
        if start <= k < stop:
            active += 1
            for j, ref in enumerate(references):
                want[j, [0, 2]] = one_step_reference(ref, ref.rngs[0], k, (0, 2))
        assert xi.tobytes() == want.reshape(shape).tobytes(), f"step {k}"
    assert active == min(stop, horizon) - start > CHUNK


# --- attack plans and policies -----------------------------------------------------------


def test_plan_validation():
    with pytest.raises(InvalidParameter):
        AttackPlan(kind="unknown_kind")
    with pytest.raises(InvalidParameter):
        AttackPlan(kind="none", start=10, stop=10)


#: attack entries that break a rule of ``attacks.entry_problems``; the library used to
#: accept the first six (truncating 0.7 and True to a sensor), and failed on the last
#: three with a bare ValueError, TypeError and AttributeError
BAD_ENTRIES = {
    "sensor-float": {"kind": "pattern_runs", "sensors": [0.7]},
    "sensor-bool": {"kind": "pattern_runs", "sensors": [True]},
    "sensors-repeated": {"kind": "none", "sensors": [0, 0]},
    "sensors-empty": {"kind": "none", "sensors": []},
    "start-negative": {"kind": "none", "start": -5},
    "window-floats": {"kind": "none", "start": 1.5, "stop": 9.2},
    "sensor-str": {"kind": "none", "sensors": ["a"]},
    "start-str": {"kind": "none", "start": "a"},
    "params-list": {"kind": "none", "params": [1]},
    "kind-unknown": {"kind": "bogus"},
    "sensors-number": {"kind": "none", "sensors": 0},
    "stop-bool": {"kind": "none", "start": 0, "stop": True},
    "kind-and-window": {"kind": "bogus", "sensors": [0], "start": 5, "stop": 5},
}


@pytest.mark.parametrize("entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_plan_raises_loads_first_problem(entry):
    with pytest.raises(ValidationError) as load:
        load_config_dict({"plant": {"preset": "ugv"}, "horizon": 1000, "attacks": [entry]})
    with pytest.raises(InvalidParameter) as library:
        AttackPlan(**entry)
    first = load.value.problems[0]
    unled = re.sub(r"^attacks\[0\](\.|: )", "", first)  # load's text less its prefix
    assert unled != first and str(library.value) == unled


@pytest.mark.parametrize("plan, n_sensors, c_rows, sigma, message", [
    (AttackPlan(kind="bias_concentrate", sensors=(1,)), 2, np.ones((1, 2)), np.ones(2),
     r"c_rows: must have one row per sensor \(2\), got 1x2"),
    (AttackPlan(kind="none"), 1, np.ones((1, 2)), np.ones(2),
     r"sigma: must be one number or one per sensor \(1\), got 2"),
], ids=["c_rows", "sigma"])
def test_policy_needs_one_c_row_and_one_sigma_per_sensor(plan, n_sensors, c_rows, sigma, message):
    # the first used to build and raise a bare IndexError at its first active step, the
    # second to broadcast into per-sensor parameters of two entries
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        build_attack_policy(plan, n_sensors, c_rows, sigma)
    # one sensor of a two-state plant, as the deviation benchmark builds it
    build_attack_policy(AttackPlan(kind="worst_case_bdd"), 1, np.ones((1, 2)), np.ones(1))


def test_load_reports_every_entry_problem():
    entry = {"kind": "bogus", "sensors": [0, 0], "start": 1.5, "params": [1], "typo": 1}
    with pytest.raises(ValidationError) as load:
        load_config_dict({"plant": {"preset": "ugv"}, "horizon": 1000, "attacks": [entry]})
    assert load.value.problems == [
        "attacks[0]: unknown key 'typo'",
        "attacks[0].kind: unknown kind 'bogus'",
        "attacks[0].sensors: must name each attacked sensor once, got [0, 0]",
        "attacks[0]: requires integer 0 <= start < stop",
        "attacks[0].params: must be an object",
    ]


def test_plan_takes_numpy_integers_as_python_ints():
    plan = AttackPlan(kind="none", sensors=[np.int64(2)], start=np.int32(3), stop=np.uint8(9))
    assert (plan.sensors, plan.start, plan.stop) == ((2,), 3, 9)
    assert all(type(v) is int for v in (*plan.sensors, plan.start, plan.stop))


def test_policy_inactive_outside_window(ugv_plant, ugv_kss):
    plan = AttackPlan(kind="worst_case_bdd", sensors=(0,), start=5, stop=10)
    policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma, seed=0)
    e = np.zeros(3)
    eta = np.zeros(3)
    assert not policy(4, e, eta, None).any()
    assert policy(5, e, eta, None)[0] != 0.0
    assert not policy(10, e, eta, None).any()


def test_none_policy_zero_vector(ugv_plant, ugv_kss):
    policy = build_attack_policy(AttackPlan(kind="none"), 3, ugv_plant.C, ugv_kss.sigma, seed=0)
    assert not policy(0, np.zeros(3), np.zeros(3), None).any()


@pytest.mark.parametrize("kind, params, message", [
    ("bias_concentrate", {"mu_a": 10.0, "sigma_a": 0.001}, "would cross the bad-data threshold"),
    ("bias_concentrate", {"sigma_a": 5.0}, "sigma_a must be below"),
    ("pattern_runs", {"amplitude": 5.0}, "exceeds the bad-data bound"),
    ("pattern_runs", {"amplitude": -5.0}, "pattern amplitude -5 exceeds the bad-data bound"),
], ids=["mu_a-bound", "sigma_a-deviation", "pattern-amplitude", "negative-pattern-amplitude"])
def test_bias_concentrate_rejects_threshold_violations(kind, params, message, ugv_plant, ugv_kss):
    plan = AttackPlan(kind=kind, sensors=(0,), params=params)
    with pytest.raises(InvalidParameter, match=message):
        build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma, alpha_des=0.05, seed=0)


@pytest.mark.parametrize("kind, key", [
    ("bias_concentrate", "mu_a"), ("bias_concentrate", "sigma_a"), ("pattern_runs", "amplitude"),
    ("symmetric_flood", "amplitude"), ("symmetric_flood", "jitter"),
    ("worst_case_bdd_randaware", "epsilon"), ("worst_case_cusum_randaware", "epsilon"),
])
def test_null_param_means_default(kind, key, ugv_plant, ugv_kss):
    cusum = CusumDetector(tau=5.0 * ugv_kss.sigma, bias=0.5 * ugv_kss.sigma)

    def attack(params):
        plan = AttackPlan(kind=kind, sensors=(0, 2), params=params)
        policy = build_attack_policy(plan, 3, ugv_plant.C, ugv_kss.sigma, ell=20,
                                     cusum=cusum, seed=3)
        rng = np.random.default_rng(0)
        return np.array([policy(k, rng.normal(size=ugv_plant.A.shape[0]),
                                rng.normal(size=3), None) for k in range(40)])

    np.testing.assert_array_equal(attack({key: None}), attack({}))


@pytest.mark.parametrize("kind, key, value, message", [
    ("pattern_runs", "amplitude", [0.1, 0.2], "must be a finite number or one per sensor; got "),
    ("pattern_runs", "amplitude", "abc", "must be a finite number or one per sensor; got "),
    ("pattern_runs", "amplitude", math.nan, "must be a finite number or one per sensor; got "),
    ("bias_concentrate", "sigma_a", -0.1, "must be >= 0; got "),
    ("worst_case_bdd_randaware", "epsilon", -0.5, "must be >= 0; got "),
    ("pattern_runs", "amplitude", True, "must be a finite number or one per sensor; got "),
    ("pattern_runs", "amplitude", [0.1, False, 0.1],
     "must be a finite number or one per sensor; got "),
    ("pattern_runs", "typo", 5, "unknown key 'typo'$"),
], ids=["too-few", "text", "nan", "negative-sigma_a", "negative-epsilon", "bool", "bool-entry",
        "unknown-key"])
def test_bad_param_is_rejected_when_built(kind, key, value, message):
    """A parameter the policy could not use fails at build time, led by its field: the key's
    own for a value, ``params`` for an unknown key."""
    plan = AttackPlan(kind=kind, sensors=(0,), params={key: value})
    field = "params" if message.startswith("unknown") else f"params.{key}"
    with pytest.raises(InvalidParameter, match=f"^{field}: {message}"):
        build_attack_policy(plan, 3, np.eye(3), np.ones(3), seed=0)


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
    alarms = int(cusum.step(state.r)[0])
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
    alarms = int(cusum.step(state.r)[0])
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
