import math

import numpy as np
import pytest

from randmon.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
)
from randmon.lti import (
    LtiPlant,
    NoiseSource,
    UgvParams,
    discretize_ugv,
    initial_state,
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
        LtiPlant(A=[[1.2, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]], C=[[0.0, 1.0]],
                 Q=np.eye(2) * 0.1, R=[[0.1]], ts=1.0)


def test_covariance_validation():
    with pytest.raises(InvalidParameter):
        LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], Q=[[-0.1]], R=[[0.1]], ts=1.0)
    with pytest.raises(InvalidParameter):
        LtiPlant(A=[[0.5, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                 Q=[[0.1, 0.05], [0.0, 0.1]], R=[[0.1]], ts=1.0)


def test_dimension_validation():
    with pytest.raises(DimensionMismatch):
        LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0, 0.0]], Q=[[0.1]], R=[[0.1]], ts=1.0)


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
    state = initial_state(ugv_plant, ugv_kss)
    for _ in range(20):
        state = step(ugv_plant, ugv_kss, ugv_gains, state)
        assert np.abs(state.r).max() == 0.0
        assert np.abs(state.e).max() == 0.0


def test_constant_attack_first_residual(ugv_plant, ugv_kss, ugv_gains):
    c = 0.37
    state = initial_state(ugv_plant, ugv_kss)
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

    state = initial_state(ugv_plant, ugv_kss, noise=noise, attack=attack)
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
    state = initial_state(ugv_plant, ugv_kss)
    with pytest.raises(DimensionMismatch):
        step(ugv_plant, ugv_kss, ugv_gains, state, attack=lambda k, e, eta: np.zeros(2))


def test_semidefinite_noise_falls_back_to_eig():
    # rank-deficient Q: Cholesky fails, eigendecomposition square root applies
    Q = np.array([[1.0, 1.0], [1.0, 1.0]]) * 1e-4
    ns = NoiseSource(Q, np.eye(2) * 1e-4, 3)
    draws = np.array([ns.draw()[0] for _ in range(2000)])
    cov = np.cov(draws.T)
    assert np.abs(cov - Q).max() < 2e-5
