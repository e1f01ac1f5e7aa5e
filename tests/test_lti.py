import math

import numpy as np
import pytest

from randmon.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
    RandmonError,
)
from randmon.attacks import ATTACK_KINDS, AttackPlan, build_attack_policy
from randmon.detectors import BadDataDetector, CusumDetector
from randmon.deviation import run_attack_ensemble
from randmon.lti import (
    CHUNK,
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
    with pytest.raises(DimensionMismatch):
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


# --- spectral radius ------------------------------------------------------------------


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


def test_constant_attack_first_residual(ugv_plant, ugv_kss, ugv_gains):
    c = 0.37
    state = step(ugv_plant, ugv_kss, ugv_gains, None)
    state = step(ugv_plant, ugv_kss, ugv_gains, state,
                 attack=lambda k, e, eta: np.array([c, 0.0, 0.0]))
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

    def attack(k, e, eta):
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
    with pytest.raises(DimensionMismatch):
        step(ugv_plant, ugv_kss, ugv_gains, state, attack=lambda k, e, eta: np.zeros(2))


def test_semidefinite_noise_falls_back_to_eig():
    # rank-deficient Q: Cholesky fails, eigendecomposition square root applies
    Q = np.array([[1.0, 1.0], [1.0, 1.0]]) * 1e-4
    ns = NoiseSource(Q, np.eye(2) * 1e-4, 3)
    draws = np.array([ns.draw()[0] for _ in range(2000)])
    cov = np.cov(draws.T)
    assert np.abs(cov - Q).max() < 2e-5


# --- lockstep kernel against the per-step reference -----------------------------------

RECORDED = ("x", "xhat", "r", "xi")


def reference_run(plant, kss, gains, noise, horizon, attack=None, on_step=None):
    """``simulate``'s contract stepped one state at a time with ``step``."""
    state = None
    rows = {name: [] for name in RECORDED}
    for k in range(horizon):
        state = step(plant, kss, gains, state, attack=attack, noise=noise)
        for name in RECORDED:
            rows[name].append(getattr(state, name))
        if on_step is not None:
            on_step(k, state.r)
    return {name: np.array(values) for name, values in rows.items()}


def attacked_loop(plant, kss, kind, seed=3):
    """A fresh policy of ``kind`` on sensors 0 and 2, and the on_step that feeds its CUSUM."""
    cusum = CusumDetector(tau=4.0 * kss.sigma, bias=1.5 * kss.sigma)
    plan = AttackPlan(kind=kind, sensors=(0, 2), start=40, stop=530)
    policy = build_attack_policy(plan, plant.s, plant.C, kss.sigma, ell=20,
                                 bdd=BadDataDetector.tuned(kss.sigma, 0.05), cusum=cusum,
                                 seed=seed)
    return policy, lambda k, r: cusum.step(r)


def assert_same_generator_state(noise, other):
    np.testing.assert_equal(noise._rng.bit_generator.state, other._rng.bit_generator.state)


def assert_bit_equal(got, want):
    for name in RECORDED:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_lockstep_matches_reference_for_every_attack(kind, ugv_plant, ugv_kss, ugv_gains):
    horizon = 2 * CHUNK + 60
    runs = []
    for _ in range(2):
        policy, on_step = attacked_loop(ugv_plant, ugv_kss, kind)
        runs.append((NoiseSource(ugv_plant.Q, ugv_plant.R, 17), policy, on_step))
    (ref_noise, ref_policy, ref_on_step), (noise, policy, on_step) = runs
    want = reference_run(ugv_plant, ugv_kss, ugv_gains, ref_noise, horizon, ref_policy,
                         ref_on_step)
    got = simulate(ugv_plant, ugv_kss, ugv_gains, noise, horizon, attack=policy,
                   on_step=on_step)
    assert_bit_equal(got, want)
    if kind != "none":
        assert np.any(want["xi"][40:530] != 0.0)


@pytest.mark.parametrize("horizon", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "noise-None"])
def test_lockstep_matches_reference_at_chunk_edges(horizon, noisy, ugv_plant, ugv_kss,
                                                    ugv_gains):
    noises = [NoiseSource(ugv_plant.Q, ugv_plant.R, 23) if noisy else None for _ in range(2)]
    attack = attacked_loop(ugv_plant, ugv_kss, "bias_concentrate")[0]
    want = reference_run(ugv_plant, ugv_kss, ugv_gains, noises[0], horizon,
                         attacked_loop(ugv_plant, ugv_kss, "bias_concentrate")[0])
    got = simulate(ugv_plant, ugv_kss, ugv_gains, noises[1], horizon, attack=attack)
    assert_bit_equal(got, want)
    if noisy:
        assert_same_generator_state(noises[1], noises[0])


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


def test_lockstep_ensemble_matches_per_run_reference(stable_plant, stable_kss, stable_gains):
    n_runs, horizon, base_seed = 12, CHUNK + 40, 808

    def factory(j):
        plan = AttackPlan(kind="worst_case_bdd_randaware", sensors=(0,), start=30, stop=250)
        return build_attack_policy(plan, 1, stable_plant.C, stable_kss.sigma, ell=20,
                                   alpha_des=0.05, seed=j)

    got = run_attack_ensemble(stable_plant, stable_kss, stable_gains, factory, n_runs=n_runs,
                              horizon=horizon, base_seed=base_seed)
    seeds = np.random.SeedSequence(base_seed).spawn(n_runs)
    want = np.array([
        reference_run(stable_plant, stable_kss, stable_gains,
                      NoiseSource(stable_plant.Q, stable_plant.R, seeds[j]), horizon,
                      factory(j))["x"]
        for j in range(n_runs)
    ])
    assert got.shape == (n_runs, horizon, stable_plant.n)
    assert got.tobytes() == want.tobytes()


def test_lockstep_rejects_bad_attack_shape(ugv_plant, ugv_kss, ugv_gains):
    noise = NoiseSource(ugv_plant.Q, ugv_plant.R, 1)
    with pytest.raises(DimensionMismatch):
        simulate(ugv_plant, ugv_kss, ugv_gains, noise, 10, attack=lambda k, e, eta: np.zeros(2))
