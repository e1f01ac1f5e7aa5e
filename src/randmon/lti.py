"""Discrete LTI plant, steady-state Kalman filtering, and closed-loop stepping.

Estimator convention
--------------------
The estimate carried in :class:`SimState` is the one-step-ahead prediction.
Each residual is the current measurement minus the predicted output, and the
steady-state gain is applied to that residual when the estimate is propagated
to the next step:

    x[k+1]    = A x[k] + B u[k] + nu[k]
    y[k]      = C x[k] + eta[k] + xi[k]
    r[k]      = y[k] - C xhat[k]
    xhat[k+1] = A xhat[k] + B u[k] + L r[k]

Under this convention the estimation error e = x - xhat obeys

    e[k+1] = (A - L C) e[k] - L (xi[k] + eta[k]) + nu[k]

and the stationary residual covariance is R + C P C^T with P the prediction
error covariance solving the filter Riccati equation. The controller acts on
the predicted estimate.

Stepping
--------
:func:`simulate` (one run) and ``deviation.run_attack_ensemble`` (many
seeded runs) both call :func:`_lockstep`, which advances every run together.
The states of all runs are held as ``(runs, n, 1)`` column stacks, so each
product of the recursions above is one stacked ``@`` call; numpy computes it
as one matrix-vector product per run, with the same bits as the per-run
``A @ x``. Each run's noise is drawn and coloured ``CHUNK`` steps at a time
(:meth:`NoiseSource.block`), from the same Philox stream as per-step
:meth:`NoiseSource.draw` calls. :func:`step` is the same recursion one run and
one step at a time, starting from ``state=None`` at the zero start; it is the
reference the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
    SingularInnovation,
)

Array = np.ndarray
AttackSignal = Optional[Callable[[int, Array, Array], Array]]

_COND_LIMIT = 1e12

#: Stopping rule of the Riccati fixed-point iteration: relative step, iteration cap.
RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000
#: Stopping rule of the matrix exponential's Taylor series: relative term size, term cap.
EXPM_TOL = 1e-15
EXPM_MAX_TERMS = 80

#: Steps of noise each run draws and colours at once in the lockstep kernel.
CHUNK = 256


def _matrix(value, name: str) -> Array:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter(f"{name} contains non-finite entries")
    return arr


def _check_covariance(M: Array, name: str) -> Array:
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if not np.allclose(M, M.T, rtol=1e-10, atol=1e-10 * scale):
        raise InvalidParameter(f"{name} must be symmetric")
    sym = 0.5 * (M + M.T)
    if np.linalg.eigvalsh(sym).min() < -1e-10:
        raise InvalidParameter(f"{name} must be positive semidefinite")
    return sym


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"spectral radius needs a square matrix, got {M.shape}")
    return float(np.abs(np.linalg.eigvals(M)).max())


@dataclass
class LtiPlant:
    """Discrete plant x+ = A x + B u + nu, y = C x + eta, with noise covariances.

    Construction validates shapes, symmetry and positive semidefiniteness of Q
    and R. Whether the filter can be stabilized is left to :func:`solve_dare`,
    which every simulation and score needs first: it rejects a plant on which
    the Riccati iteration cannot converge (e.g. an undetectable unstable mode).
    """

    A: Array
    B: Array
    C: Array
    Q: Array
    R: Array
    ts: float = 1.0

    def __post_init__(self):
        self.A = _matrix(self.A, "A")
        self.B = _matrix(self.B, "B")
        self.C = _matrix(self.C, "C")
        self.Q = _check_covariance(_matrix(self.Q, "Q"), "Q")
        self.R = _check_covariance(_matrix(self.R, "R"), "R")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {self.B.shape}")
        if self.C.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {self.C.shape}")
        if self.Q.shape != (n, n):
            raise DimensionMismatch(f"Q must be {n}x{n}, got {self.Q.shape}")
        if self.R.shape != (self.C.shape[0],) * 2:
            raise DimensionMismatch(f"R must be {self.C.shape[0]}x{self.C.shape[0]}")
        if not self.ts > 0.0:
            raise InvalidParameter(f"sample period must be positive, got {self.ts}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def s(self) -> int:
        return self.C.shape[0]


@dataclass
class KalmanSteadyState:
    """Steady-state filter quantities derived from the plant.

    P is the prediction error covariance, L the steady gain, Sigma the
    residual covariance R + C P C^T, and sigma its per-sensor standard
    deviations.
    """

    P: Array
    L: Array
    Sigma: Array
    sigma: Array


def _riccati_fixed_point(A, C, Q, R):
    """Iterate P -> A P A' - A P C' (R + C P C')^-1 C P A' + Q from P0 = Q.

    ``@`` groups left to right, so ``C P`` and ``A P`` are each formed once per
    iteration and reused; the norms are ``np.linalg.norm``'s own Frobenius
    form. The iterates are bit-equal to evaluating the formula as written.
    """
    solve, isfinite = np.linalg.solve, np.isfinite
    At, Ct = A.T, C.T
    floor = np.finfo(float).tiny
    P = Q.copy()
    # Divergence (undetectable unstable modes) is detected explicitly, so the
    # intermediate overflows on that path are expected and silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(RICCATI_MAX_ITER):
            CP, AP = C @ P, A @ P
            try:
                X = solve(R + CP @ Ct, CP @ At)
            except np.linalg.LinAlgError as exc:
                raise SingularInnovation("innovation covariance is singular") from exc
            Pn = AP @ At - AP @ Ct @ X + Q
            Pn = 0.5 * (Pn + Pn.T)
            if not isfinite(Pn).all():
                raise NonConvergence("covariance iteration diverged (undetectable unstable mode?)")
            d, pn = (Pn - P).ravel(order="K"), Pn.ravel(order="K")
            step, scale = math.sqrt(d.dot(d)), math.sqrt(pn.dot(pn))
            # Relative step tolerance; the tiny floor only matters for P = 0, and
            # overflowed norms (divergence in progress) must not count as converged.
            if isfinite(step) and isfinite(scale) and step <= RICCATI_TOL * max(scale, floor):
                return Pn
            P = Pn
    raise NonConvergence(f"Riccati iteration did not converge in {RICCATI_MAX_ITER} iterations")


def solve_dare(plant: LtiPlant) -> KalmanSteadyState:
    """Solve the filter Riccati equation by fixed-point iteration.

    Returns the prediction error covariance P, the steady gain
    L = A P C^T (R + C P C^T)^-1, the residual covariance Sigma and the
    per-sensor residual standard deviations.

    Raises ``NonConvergence`` if the iteration cap is reached and
    ``SingularInnovation`` if R + C P C^T is numerically singular.
    """
    A, C, Q, R = plant.A, plant.C, plant.Q, plant.R
    P = _riccati_fixed_point(A, C, Q, R)
    Sigma = R + C @ P @ C.T
    Sigma = 0.5 * (Sigma + Sigma.T)
    if np.linalg.cond(Sigma) > _COND_LIMIT:
        raise SingularInnovation("innovation covariance condition number exceeds 1e12")
    L = np.linalg.solve(Sigma, C @ P @ A.T).T
    diag = np.diag(Sigma)
    if np.any(diag <= 0.0):
        raise SingularInnovation("residual variance must be positive for every sensor")
    return KalmanSteadyState(P=P, L=L, Sigma=Sigma, sigma=np.sqrt(diag))


def lqr_gain(A, B, Qx, Ru) -> Array:
    """State-feedback gain K with u = K x such that A + B K is stable.

    Solves the control Riccati equation through the same fixed-point kernel
    (it is the filter equation applied to the transposed system).
    """
    A = _matrix(A, "A")
    B = _matrix(B, "B")
    Qx = _check_covariance(_matrix(Qx, "Qx"), "Qx")
    Ru = _check_covariance(_matrix(Ru, "Ru"), "Ru")
    P = _riccati_fixed_point(A.T, B.T, Qx, Ru)
    F = np.linalg.solve(Ru + B.T @ P @ B, B.T @ P @ A)
    return -F


def make_controller(
    plant: LtiPlant,
    K=None,
    state_weights=None,
    input_weights=None,
) -> Array:
    """The gain K of the state feedback u = K xhat, checking rho(A + B K) < 1.

    Either pass K explicitly or let it be designed from LQR weights
    (identity weights by default).
    """
    if K is None:
        Qx = np.diag(state_weights) if state_weights is not None else np.eye(plant.n)
        Ru = np.diag(input_weights) if input_weights is not None else np.eye(plant.m)
        K = lqr_gain(plant.A, plant.B, Qx, Ru)
    K = _matrix(K, "K")
    if K.shape != (plant.m, plant.n):
        raise DimensionMismatch(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    rho = spectral_radius(plant.A + plant.B @ K)
    if rho >= 1.0:
        raise InvalidParameter(f"closed loop unstable: rho(A + BK) = {rho:.6f} >= 1")
    return K


def _sqrt_psd(M: Array) -> Array:
    """Matrix square root for covariance sampling.

    Cholesky when positive definite, eigendecomposition fallback for
    semidefinite inputs (negative eigenvalues from roundoff clipped to zero).
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        return V * np.sqrt(np.clip(w, 0.0, None))


class NoiseSource:
    """Seedable process/measurement noise generator.

    Standard normal draws come from a counter-based Philox generator and are
    colored by square-root factors of Q and R, so runs are bit-reproducible
    for a given seed.
    """

    def __init__(self, Q, R, seed: int):
        Q = _check_covariance(_matrix(Q, "Q"), "Q")
        R = _check_covariance(_matrix(R, "R"), "R")
        self._lq = _sqrt_psd(Q)
        self._lr = _sqrt_psd(R)
        self._n = Q.shape[0]
        self._s = R.shape[0]
        self._rng = np.random.Generator(np.random.Philox(seed))

    def draw(self):
        """Return one (nu, eta) pair."""
        nu = self._lq @ self._rng.standard_normal(self._n)
        eta = self._lr @ self._rng.standard_normal(self._s)
        return nu, eta

    def draw_eta(self) -> Array:
        """Measurement noise only, used for the initial output."""
        return self._lr @ self._rng.standard_normal(self._s)

    def block(self, rows: int, initial: bool = False):
        """Noise of ``rows`` steps as column stacks nu (rows, n, 1) and eta (rows, s, 1).

        The standard normals are those of ``rows`` successive :meth:`draw`
        calls (n, then s per step), and each step is coloured by the same
        matrix-vector product, so the values and the generator's final state
        equal the per-step draws. With ``initial``, row 0 is the zero start:
        only its eta is drawn, as by :meth:`draw_eta`, and its nu is zero.
        """
        n, s = self._n, self._s
        if initial:
            z = np.zeros((rows, n + s))
            z[0, n:] = self._rng.standard_normal(s)
            z[1:] = self._rng.standard_normal((rows - 1, n + s))
        else:
            z = self._rng.standard_normal((rows, n + s))
        return self._lq @ z[:, :n, None], self._lr @ z[:, n:, None]


@dataclass
class SimState:
    """Closed-loop state at one step.

    ``xhat`` is the one-step-ahead prediction (see module docstring), ``e``
    the estimation error x - xhat recomputed fresh each step, ``r`` the
    residual y - C xhat and ``xi`` the attack added to this step's
    measurement.
    """

    k: int
    x: Array
    xhat: Array
    e: Array
    r: Array
    xi: Array


def _resolve_attack(attack: AttackSignal, k: int, e: Array, eta: Array, s: int) -> Array:
    if attack is None:
        return np.zeros(s)
    xi = np.asarray(attack(k, e, eta), dtype=float)
    if xi.shape != (s,):
        raise DimensionMismatch(f"attack signal must have shape ({s},), got {xi.shape}")
    return xi


def step(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: Array,
    state: Optional[SimState] = None,
    attack: AttackSignal = None,
    noise: Optional[NoiseSource] = None,
) -> SimState:
    """Advance the closed loop by one step and return the successor state.

    ``state=None`` takes step 0 from the zero start (x = xhat = 0), where only
    the measurement noise is drawn. ``attack`` is either None or a callable
    ``(k, e, eta) -> s-vector`` evaluated with the new step index, the new
    estimation error and the new measurement noise draw (the
    omniscient-attacker interface); its value is added to the new measurement.
    """
    if state is None:
        k = 0
        x = np.zeros(plant.n)
        xhat = x.copy()
        eta = noise.draw_eta() if noise is not None else np.zeros(plant.s)
    else:
        if state.x.shape != (plant.n,) or state.r.shape != (plant.s,):
            raise DimensionMismatch("state dimensions do not match the plant")
        u = K @ state.xhat
        if noise is not None:
            nu, eta = noise.draw()
        else:
            nu, eta = np.zeros(plant.n), np.zeros(plant.s)
        drive = plant.B @ u
        k = state.k + 1
        x = plant.A @ state.x + drive + nu
        xhat = plant.A @ state.xhat + drive + kss.L @ state.r
    e = x - xhat
    xi = _resolve_attack(attack, k, e, eta, plant.s)
    r = plant.C @ x + eta + xi - plant.C @ xhat
    return SimState(k=k, x=x, xhat=xhat, e=e, r=r, xi=xi)


def simulate(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: Array,
    noise: Optional[NoiseSource],
    horizon: int,
    attack: AttackSignal = None,
    on_step: Optional[Callable[[int, Array], None]] = None,
):
    """Run ``horizon`` steps from the zero start and return stacked trajectories.

    Returns a dict with arrays ``x`` and ``xhat`` (horizon, n), ``r`` and the
    applied attack ``xi`` (horizon, s). Row k holds the state at step k.

    ``on_step(k, r)``, when given, is called with each step index and its
    residual r[k] right after it is computed and before the next step. A
    detector stepped there has consumed r[k] when the attack for step k + 1
    is synthesised, which is how an attacker reads a live detector statistic.
    Pass it only for such an attack: recorded residuals are scored afterwards.
    """
    callback = None
    if on_step is not None:
        def callback(k, r):
            on_step(k, r[0])
    out = _lockstep(plant, kss, K, [noise], horizon, [attack],
                    ("x", "xhat", "r", "xi"), callback)
    return {name: rows[0] for name, rows in out.items()}


def _lockstep(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: Array,
    noises,
    horizon: int,
    attacks,
    record,
    on_step: Optional[Callable[[int, Array], None]] = None,
):
    """Advance independent runs together for ``horizon`` steps from the zero start.

    Run j draws from ``noises[j]`` (None: noise-free) and is attacked by
    ``attacks[j]``, called as in :func:`step` with run j's own e and eta.
    Returns ``{name: (runs, horizon, dim)}`` for each name in ``record``
    (among x, xhat, r, xi). ``on_step(k, r)`` gets the (runs, s) residuals
    of step k before step k + 1 is taken. Every product, sum and draw is the
    one :func:`step` makes, in the same order, so each run is bit-equal to
    stepping it alone.
    """
    if horizon < 1:
        raise InvalidParameter("horizon must be at least 1")
    runs, n, s = len(attacks), plant.n, plant.s
    A, B, C, L = plant.A, plant.B, plant.C, kss.L
    dims = {"x": n, "xhat": n, "r": s, "xi": s}
    out = {name: np.empty((runs, horizon, dims[name])) for name in record}
    nu = np.zeros((runs, CHUNK, n, 1))
    eta = np.zeros((runs, CHUNK, s, 1))
    xi = np.zeros((runs, s, 1))
    x = np.zeros((runs, n, 1))
    xhat = x.copy()
    r = None
    for k in range(horizon):
        i = k % CHUNK
        if i == 0:
            rows = min(CHUNK, horizon - k)
            for j, noise in enumerate(noises):
                if noise is not None:
                    nu[j, :rows], eta[j, :rows] = noise.block(rows, initial=k == 0)
        if k > 0:
            u = K @ xhat
            drive = B @ u
            x = A @ x + drive + nu[:, i]
            xhat = A @ xhat + drive + L @ r
        e = x - xhat
        for j, attack in enumerate(attacks):
            if attack is not None:
                xi[j, :, 0] = _resolve_attack(attack, k, e[j, :, 0], eta[j, i, :, 0], s)
        r = C @ x + eta[:, i] + xi - C @ xhat
        state = {"x": x, "xhat": xhat, "r": r, "xi": xi}
        for name, rec in out.items():
            rec[:, k] = state[name][:, :, 0]
        if on_step is not None:
            on_step(k, r[:, :, 0])
    return out


# --- zero-order-hold discretization -------------------------------------------------


def _expm(M: Array) -> Array:
    """Matrix exponential by scaling-and-squaring on a truncated Taylor series."""
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed norm is raised below
        norm = np.linalg.norm(M, 1)
    if not math.isfinite(norm):
        raise NonConvergence(f"matrix exponential of a matrix with 1-norm {norm}")
    squarings = max(0, int(math.ceil(math.log2(norm)))) if norm > 1.0 else 0
    A = M / (2.0 ** squarings)
    result = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for j in range(1, EXPM_MAX_TERMS + 1):
        term = term @ A / j
        result = result + term
        if np.linalg.norm(term, 1) <= EXPM_TOL * max(1.0, np.linalg.norm(result, 1)):
            break
    else:
        raise NonConvergence("matrix exponential series did not converge")
    for _ in range(squarings):
        result = result @ result
    return result


def zoh_discretize(Ac: Array, Bc: Array, ts: float):
    """Exact zero-order-hold discretization of a continuous pair (Ac, Bc)."""
    Ac = _matrix(Ac, "Ac")
    Bc = _matrix(Bc, "Bc")
    n, m = Ac.shape[0], Bc.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = Ac
    aug[:n, n:] = Bc
    E = _expm(aug * ts)
    return E[:n, :n], E[:n, n:]


@dataclass(frozen=True)
class UgvParams:
    """Physical constants of the skid-steer ground vehicle model.

    State is [forward velocity, heading, yaw rate]; inputs are the left and
    right wheel forces. ``width`` is the track width; the two resistances damp
    rolling and turning.
    """

    mass: float = 10.0
    inertia: float = 0.5
    width: float = 0.4
    roll_resistance: float = 5.0
    turn_resistance: float = 0.8


def ugv_continuous(params: UgvParams):
    """Continuous-time (Ac, Bc) of the skid-steer vehicle linear model."""
    for name in ("mass", "inertia", "width", "roll_resistance", "turn_resistance"):
        if not getattr(params, name) > 0.0:
            raise InvalidParameter(f"UGV parameter {name} must be positive")
    m, iz, w = params.mass, params.inertia, params.width
    Ac = np.array([
        [-params.roll_resistance / m, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -params.turn_resistance / iz],
    ])
    Bc = np.array([
        [1.0 / m, 1.0 / m],
        [0.0, 0.0],
        [w / (2.0 * iz), -w / (2.0 * iz)],
    ])
    return Ac, Bc


def discretize_ugv(params: UgvParams, ts: float, Q, R) -> LtiPlant:
    """Discrete UGV plant via exact ZOH. Q and R are supplied by the caller.

    All three states are measured (C = I), matching a velocity sensor, a
    heading sensor and a yaw-rate gyro.
    """
    if not ts > 0.0:
        raise InvalidParameter(f"sample period must be positive, got {ts}")
    Ac, Bc = ugv_continuous(params)
    Ad, Bd = zoh_discretize(Ac, Bc, ts)
    return LtiPlant(A=Ad, B=Bd, C=np.eye(3), Q=Q, R=R, ts=ts)
