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
Each run's x and xhat are held side by side in one ``(runs, 2, n, 1)`` column
stack z, so ``A @ z`` and ``C @ z`` are one stacked call each; numpy computes
every stacked product as one matrix-vector product per run and per vector,
with the same bits as the per-run ``A @ x``. When both x and xhat are
recorded (:func:`simulate`), each step's z is computed straight into its
record row, and the records are views of it; otherwise z alternates between
two rows and the recorded half is copied out. The other products and the
input are written into buffers allocated once (``out=``), residuals straight
into their record rows, and each step's process noise sits beside
``L @ r_prev``, so both state updates are two in-place adds in the float
order of the recursions above. The kernel takes each step's rows by iterating
its arrays a chunk at a time, not by indexing them. Each run's noise is drawn
and coloured ``CHUNK`` steps at a time (:meth:`NoiseSource.block`), from the
same Philox stream as per-step :meth:`NoiseSource.draw` calls. The kernel
calls its attack once per step for all runs, with the step index and the
runs' stacked e, eta and previous residuals (for :func:`simulate`, one run's
vectors, as :func:`step` hands them), and takes every run's attack back: an
ensemble's attack is one policy joined from the runs' own, a sweep's calls
each cell's own attack on its rows (``attacks.PerRunAttacks``). Nothing it hands
an attack is written again, so an attack may keep it. Every attack's value
goes through :func:`_resolve_attack`, as in :func:`step`: it is taken as
floats, checked for eta's shape and summed onto zeros, which turns a -0.0
attack into +0.0. :func:`step` is the same recursion one run and one step at
a time, starting from ``state=None`` at the zero start; it is the reference
the kernel is tested against.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, NonConvergence, SingularInnovation

Array = np.ndarray
AttackSignal = Optional[Callable[[int, Array, Array, Optional[Array]], Array]]

_COND_LIMIT = 1e12

#: Stopping rule of the Riccati fixed-point iteration: relative step, iteration cap.
RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000
#: Stopping rule of the matrix exponential's Taylor series: relative term size, term cap.
EXPM_TOL = 1e-15
EXPM_MAX_TERMS = 80

#: Steps of noise each run draws and colours at once in the lockstep kernel, and active
#: steps of randomness each attack policy draws at once.
CHUNK = 256


# --- value rules. A scalar rule gives what is wrong with a value, or "", an array rule the
# value as floats, or None. A rule set gives each problem as (field, text), field a dotted
# path or "" for the object itself; load leads it with its section, the library raises the first.


def real_array(value, ndim: int = 2) -> Optional[Array]:
    """The real-number rule: ``value`` as floats if it is a real number (no bool; inf and NaN
    too), or a rectangular list or array of them with at most ``ndim`` axes; else None. Integer
    and float arrays: no copy."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = np.asarray(value, dtype=float)
        return arr if arr.ndim <= ndim else None
    try:
        cells = np.asarray(value, dtype=object)
        return cells.astype(float) if cells.ndim <= ndim and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in cells.flat) else None
    except (OverflowError, ValueError):  # an int beyond floats; nesting beyond numpy's axes
        return None


def finite_array(value, ndim: int = 2) -> Optional[Array]:
    """The finite-number rule: :func:`real_array` with every value finite; else None."""
    arr = real_array(value, ndim)
    return arr if arr is not None and np.isfinite(arr).all() else None


def array_arg(name: str, value, ndims=(0, 1, 2), finite: bool = True) -> Array:
    """``value`` as floats with a number of axes in ``ndims``, by :func:`finite_array` (by
    :func:`real_array` without ``finite``); else raise the rule's text after ``name``."""
    arr = (finite_array if finite else real_array)(value, max(ndims))
    require(name, "" if arr is not None and arr.ndim in ndims else f"must be a "
            f"{'/'.join(map(str, ndims))}-D array of real numbers, none a bool"
            f"{' or non-finite' * finite}")
    return arr


def sigma_array(sigma) -> Array:
    """The sigma rule: per-sensor deviations, a finite number > 0 or a non-empty flat list."""
    sig = array_arg("sigma", sigma, (0, 1))
    require("sigma", "" if sig.size and (sig > 0.0).all() else "must be > 0, and not empty")
    return sig


def is_integer(value) -> bool:
    """The integer rule: a Python or numpy integer, and not a bool (no ``int()`` truncation)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def positive_problem(value) -> str:
    """The positive rule: a finite real number (no bool) above zero."""
    ok = finite_array(value, 0) is not None and value > 0
    return "" if ok else f"must be a finite positive number, got {value!r}"


def rate_problem(value, allow_one: bool = False) -> str:
    """The rate rule: a finite real number (no bool) in (0, 1), or in (0, 1] with ``allow_one``."""
    ok = finite_array(value, 0) is not None and (0 < value < 1 or allow_one and value == 1)
    return "" if ok else f"must be a number in (0, 1{']' if allow_one else ')'}, got {value!r}"


def count_problem(value, least: int) -> str:
    """The count rule: an integer (:func:`is_integer`) of at least ``least``."""
    ok = is_integer(value) and value >= least
    return "" if ok else f"must be an integer >= {least}, got {value!r}"


#: the clean mean of |r| / sigma, for a residual r ~ N(0, sigma^2)
HALF_NORMAL_MEAN_FACTOR = math.sqrt(2.0 / math.pi)


def drift_problem(scale) -> str:
    """The CUSUM drift rule on a bias of ``scale`` sigma: above the clean mean of |r| / sigma."""
    ok = scale > HALF_NORMAL_MEAN_FACTOR
    return "" if ok else (f"must exceed sqrt(2/pi) = {HALF_NORMAL_MEAN_FACTOR:.6g} for a CUSUM "
                          f"detector, got {scale!r}")


def require(name: str, problem: Optional[str]) -> None:
    """Raise a rule's ``problem`` as ``InvalidParameter`` after ``name``, unless it is ""."""
    if problem:
        raise_first([(name, problem)])


def raise_first(problems) -> None:
    """Raise the first of ``problems`` as ``InvalidParameter``: ``<field>: <text>``, or the text."""
    if problems:
        field, text = problems[0]
        raise InvalidParameter(f"{field}: {text}" if field else text)


def unknown_keys(mapping, known, field: str = "") -> list:
    """The known-key rule: a problem of ``field`` for each key of ``mapping`` not in ``known``."""
    return [(field, f"unknown key {key!r}") for key in mapping if key not in known]


def philox(seed) -> np.random.Generator:
    """A Philox generator from ``seed``, an integer >= 0 or a ``SeedSequence``; else raise."""
    if not isinstance(seed, np.random.SeedSequence):
        require("seed", count_problem(seed, 0))
    return np.random.Generator(np.random.Philox(seed))


def matrix_problem(value, units, size=(None, None)) -> tuple:
    """The matrix rule: ``(text, M)``, ``M`` the value as a 2-D float array by
    :func:`finite_array` (a number or a flat list is one row) or None, ``text`` its first
    problem or "". ``units`` names what its rows and columns count, and ``size`` how many
    of each it must have (None: any); two like units make it square, and rows that
    ``size`` leaves free must number at least one."""
    M = finite_array(value)
    if M is None:
        return "must be a matrix of finite numbers", None
    M = np.atleast_2d(M)
    (rows, cols), (row_unit, col_unit) = M.shape, units
    if row_unit == col_unit and size == (None, None):
        text = "" if rows == cols else "must be square"
    elif all(k in (None, got) for k, got in zip(size, M.shape)):
        text = ""
    elif size[1] is None:
        text = f"must have one row per {row_unit[:-1]} ({size[0]})"
    elif size[0] is None:
        text = f"must have one column per {col_unit[:-1]} ({size[1]})"
    else:
        text = f"must be {size[0]}x{size[1]} ({row_unit} x {col_unit})"
    if not text and size[0] is None and not rows:
        text = f"must have at least one {row_unit[:-1]}"
    return text and f"{text}, got {rows}x{cols}", M


def covariance_problem(M: Array) -> tuple:
    """``(problem or "", 0.5 (M + M'))`` for a square M: it must be symmetric and PSD.

    The tests run on M over its largest entry (at least 1) and M is halved before the
    sum, so finite entries up to the largest float cannot overflow. An empty M passes.
    """
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    unit = M / scale
    if not np.allclose(unit, unit.T, rtol=1e-10, atol=1e-10):
        return "must be symmetric", M
    sym = 0.5 * M + 0.5 * M.T
    if sym.size and np.linalg.eigvalsh(sym).min() < -1e-10:
        return "must be positive semidefinite", sym
    return "", sym


def matrix_arg(name: str, value, units, size=(None, None), covariance: bool = False) -> Array:
    """``value`` by :func:`matrix_problem` and, with ``covariance``, symmetrised by
    :func:`covariance_problem`; else raise the first problem after ``name``."""
    problem, M = matrix_problem(value, units, size)
    require(name, problem)
    if covariance:
        problem, M = covariance_problem(M)
        require(name, problem)
    return M


def variances_problem(value, length: Optional[int], unit: str) -> tuple:
    """The variance-list rule: ``(text, v)``, ``v`` the value as a flat float array by
    :func:`finite_array` or None, ``text`` its first problem or "": a flat list of finite
    numbers, with ``length`` one per ``unit``, each >= 0."""
    v = finite_array(value, 1)
    if v is None or v.ndim != 1:
        return "must be a list of finite numbers", None
    if length is not None and len(v) != length:
        return f"must have {length} entries, one per {unit}, got {len(v)}", v
    return "" if (v >= 0.0).all() else f"must have no negative entry, got {float(v.min())!r}", v


# --- plant and controller rules


def sample_period_problems(ts) -> list:
    return [("ts", problem)] if (problem := positive_problem(ts)) else []


def plant_problems(spec) -> tuple:
    """``(problems, arrays)`` of an explicit plant: ``spec`` maps ``ts`` and A, B, C, Q, R.

    Each matrix must be given and pass :func:`matrix_problem`: A square, with at least one
    state, B with one row and C one column per state, C with at least one sensor, Q states
    x states and R sensors x sensors; Q and R, when square, must be covariances. ``arrays``
    holds each 2-D float matrix, Q and R symmetrised, or None if missing or not numeric.
    """
    problems, arrays = sample_period_problems(spec.get("ts")), {}

    def rows(key, units, size):  # the rows of a numeric matrix, or None
        problem, arrays[key] = (matrix_problem(spec[key], units, size) if key in spec
                                else ("required for explicit plants", None))
        problems.extend([(key, problem)] if problem else [])
        return None if arrays[key] is None else len(arrays[key])

    n = rows("A", ("states", "states"), (None, None))
    rows("B", ("states", "inputs"), (n, None))
    s = rows("C", ("sensors", "states"), (None, n))
    rows("Q", ("states", "states"), (n, n))
    rows("R", ("sensors", "sensors"), (s, s))
    for key in ("Q", "R"):
        if arrays[key] is not None and len(arrays[key]) == arrays[key].shape[1]:
            problem, arrays[key] = covariance_problem(arrays[key])
            problems += [(key, problem)] if problem else []
    return problems, arrays


def gain_problems(gain, n: Optional[int], m: Optional[int]) -> tuple:
    """``(problems, K, Qx, Ru)`` of the ``K``, ``state_weights`` and ``input_weights`` in ``gain``.

    K must be a finite m x n matrix (n, m: states, inputs; None if unknown), by
    :func:`matrix_problem`. Each weights list is a variance list (:func:`variances_problem`)
    of one entry per state or input; beside K the weights are unused, and only their type
    is checked. Qx and Ru are the LQR weights as matrices, identities by default.
    """
    problems, K, weights = [], None, []
    if "K" in gain:
        problem, K = matrix_problem(gain["K"], ("plant inputs", "states"), (m, n))
        problems += [("K", problem)] if problem else []
    for key, dim in (("state_weights", n), ("input_weights", m)):
        W = None if dim is None else np.eye(dim)
        if key in gain:
            problem, w = variances_problem(gain[key], dim, f"plant {key.split('_')[0]}")
            if "K" not in gain or w is None:
                problems += [(key, problem)] if problem else []
            W = W if problem or "K" in gain else np.diag(w)
        weights.append(W)
    return (problems, K, *weights)


def plant_gain(plant: LtiPlant, K, kss: KalmanSteadyState, noises=()) -> Array:
    """``K`` as floats, plant inputs x states, by the matrix rule (:func:`matrix_problem`),
    after which ``kss`` (its L states x sensors) and each noise source (None: none) must be
    the plant's sizes; else raise."""
    K = matrix_arg("K", K, ("plant inputs", "states"), (plant.m, plant.n))
    require("kss.L", matrix_problem(kss.L, ("states", "sensors"), (plant.n, plant.s))[0])
    for noise in noises:
        require("noise", "" if noise is None or (noise._n, noise._s) == (plant.n, plant.s) else
                f"must draw the plant's {plant.n} states and {plant.s} sensors, got {noise._n} "
                f"and {noise._s}")
    return K


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of ``M``, a square matrix by :func:`matrix_problem`."""
    M = matrix_arg("M", M, ("rows", "rows"))
    return float(np.abs(np.linalg.eigvals(M)).max())


@dataclass
class LtiPlant:
    """Discrete plant x+ = A x + B u + nu, y = C x + eta, with noise covariances.

    Construction checks the inputs by :func:`plant_problems`. Whether the filter
    can be stabilized is left to :func:`solve_dare`, which every simulation and
    score needs first: it rejects a plant on which the Riccati iteration cannot
    converge (e.g. an undetectable unstable mode).
    """

    A: Array
    B: Array
    C: Array
    Q: Array
    R: Array
    ts: float = 1.0

    def __post_init__(self):
        problems, arrays = plant_problems(vars(self))
        raise_first(problems)
        vars(self).update(arrays)

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


#: The Riccati solutions of this process, by the key of :func:`_riccati_fixed_point`.
_riccati_solutions: dict = {}


def _riccati_fixed_point(A, C, Q, R):
    """The fixed point of P -> A P A' - A P C' (R + C P C')^-1 C P A' + Q, from P0 = Q.

    Memoised per process, so that set-up repeated in one process (a tune
    before a run, a seed loop) iterates each distinct equation once. The key
    is each input's dtype, shape, strides and bytes, so only inputs whose
    iteration gives the same bits share a solve.
    A miss runs :func:`_riccati_iterate` on the caller's own arrays; every
    call returns a fresh copy, so a caller may change what it gets. An error
    is raised again on every call and never stored.
    """
    key = tuple((M.dtype.str, M.shape, M.strides, M.tobytes()) for M in (A, C, Q, R))
    P = _riccati_solutions.get(key)
    if P is None:
        P = _riccati_solutions[key] = _riccati_iterate(A, C, Q, R)
    return P.copy()


def _riccati_iterate(A, C, Q, R):
    """Iterate P -> A P A' - A P C' (R + C P C')^-1 C P A' + Q from P0 = Q.

    ``@`` groups left to right, so ``C P`` and ``A P`` are each formed once per
    iteration and reused; the norms are ``np.linalg.norm``'s own Frobenius
    form. The iterates are bit-equal to evaluating the formula as written.
    """
    solve, isfinite = np.linalg.solve, math.isfinite
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
            d, pn = (Pn - P).ravel(order="K"), Pn.ravel(order="K")
            step, scale = math.sqrt(d.dot(d)), math.sqrt(pn.dot(pn))
            # A non-finite entry of Pn makes its norm non-finite, so Pn itself is
            # checked only then; overflowed norms of a finite Pn (divergence in
            # progress) must not count as converged either. Relative step
            # tolerance; the tiny floor only matters for P = 0.
            if not (isfinite(step) and isfinite(scale)):
                if not np.isfinite(Pn).all():
                    raise NonConvergence("covariance iteration diverged (undetectable unstable "
                                         "mode?)")
            elif step <= RICCATI_TOL * max(scale, floor):
                return Pn
            P = Pn
    raise NonConvergence(f"Riccati iteration did not converge in {RICCATI_MAX_ITER} iterations")


def solve_dare(plant: LtiPlant) -> KalmanSteadyState:
    """Solve the filter Riccati equation by fixed-point iteration.

    Returns the prediction error covariance P, the steady gain
    L = A P C^T (R + C P C^T)^-1, the residual covariance Sigma and the
    per-sensor residual standard deviations.

    P comes from :func:`_riccati_fixed_point`, so a plant equal to one already
    solved in this process (same A, C, Q, R bytes and layout) is not iterated
    again; the rest is recomputed on every call, and nothing returned is shared.
    Raises ``NonConvergence`` if the iteration cap is reached and
    ``SingularInnovation`` if R + C P C^T is numerically singular or overflows
    (a sensor gain near the largest float), on every call.
    """
    A, C, Q, R = plant.A, plant.C, plant.Q, plant.R
    P = _riccati_fixed_point(A, C, Q, R)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised just below
        Sigma = R + C @ P @ C.T
        Sigma = 0.5 * (Sigma + Sigma.T)
    if not np.isfinite(Sigma).all():
        raise SingularInnovation("innovation covariance R + C P C' overflows")
    if np.linalg.cond(Sigma) > _COND_LIMIT:
        raise SingularInnovation("innovation covariance condition number exceeds 1e12")
    L = np.linalg.solve(Sigma, C @ P @ A.T).T
    diag = np.diag(Sigma)
    if np.any(diag <= 0.0):
        raise SingularInnovation("residual variance must be positive for every sensor")
    return KalmanSteadyState(P=P, L=L, Sigma=Sigma, sigma=np.sqrt(diag))


def lqr_gain(A, B, Qx, Ru) -> Array:
    """State-feedback gain K with u = K x such that A + B K is stable.

    With B n x m, A must be n x n, and Qx and Ru n x n and m x m covariances.
    Solves the control Riccati equation through the same fixed-point kernel
    (it is the filter equation applied to the transposed system), so equal
    inputs are iterated once per process; each call returns a fresh K.
    """
    n, m = (B := matrix_arg("B", B, ("states", "inputs"))).shape
    A = matrix_arg("A", A, ("states", "states"), (n, n))
    return _lqr(A, B, matrix_arg("Qx", Qx, ("states", "states"), (n, n), covariance=True),
                matrix_arg("Ru", Ru, ("inputs", "inputs"), (m, m), covariance=True))


def _lqr(A, B, Qx, Ru) -> Array:
    P = _riccati_fixed_point(A.T, B.T, Qx, Ru)
    return -np.linalg.solve(Ru + B.T @ P @ B, B.T @ P @ A)


def make_controller(
    plant: LtiPlant,
    K=None,
    state_weights=None,
    input_weights=None,
) -> Array:
    """The gain K of the state feedback u = K xhat, checking rho(A + B K) < 1.

    Either pass K explicitly or let it be designed from LQR weights
    (identity weights by default), as :func:`gain_problems` checks them.
    """
    gain = {key: value for key, value in (("K", K), ("state_weights", state_weights),
                                          ("input_weights", input_weights)) if value is not None}
    problems, K, Qx, Ru = gain_problems(gain, plant.n, plant.m)
    raise_first(problems)
    if K is None:  # the weights are checked: Qx and Ru are covariances of the plant's sizes
        K = _lqr(plant.A, plant.B, Qx, Ru)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing loop is unstable
        closed = plant.A + plant.B @ K
    rho = spectral_radius(closed) if np.isfinite(closed).all() else math.inf
    if rho >= 1.0:
        raise InvalidParameter(f"K: closed loop unstable: rho(A + BK) = {rho:#.7g} >= 1")
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
    for a given seed (an integer >= 0 or a ``SeedSequence``, :func:`philox`).
    """

    def __init__(self, Q, R, seed: int):
        Q = matrix_arg("Q", Q, ("states", "states"), covariance=True)
        R = matrix_arg("R", R, ("sensors", "sensors"), covariance=True)
        self._lq = _sqrt_psd(Q)
        self._lr = _sqrt_psd(R)
        self._n = Q.shape[0]
        self._s = R.shape[0]
        self._rng = philox(seed)

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


def _resolve_attack(attack: AttackSignal, k: int, e: Array, eta: Array,
                    r_prev: Optional[Array], out: Optional[Array] = None) -> Array:
    """The attack as floats of ``eta``'s shape, one run's (s,) or a stack's (runs, s), summed
    onto zeros (so a -0.0 becomes +0.0) into ``out`` (default: a new array)."""
    if attack is None:
        return np.zeros(eta.shape)
    xi = np.asarray(attack(k, e, eta, r_prev), dtype=float)
    if xi.shape != eta.shape:
        raise InvalidParameter(f"attack signal must have shape {eta.shape}, got {xi.shape}")
    return np.add(xi, 0.0, out=out)


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
    ``(k, e, eta, r_prev) -> s-vector`` evaluated with the new step index, the
    new estimation error, the new measurement noise draw and the previous
    step's residual (None at step 0): the omniscient-attacker interface. Its
    value, checked for shape (s,) and summed onto zeros by :func:`_resolve_attack`,
    is added to the new measurement. ``K``, ``kss`` and ``noise`` must pass
    :func:`plant_gain`, checked once, at step 0.
    """
    if state is None:
        plant_gain(plant, K, kss, [noise])
        k = 0
        x = np.zeros(plant.n)
        xhat = x.copy()
        eta = noise.draw_eta() if noise is not None else np.zeros(plant.s)
        r_prev = None
    else:
        if state.x.shape != (plant.n,) or state.r.shape != (plant.s,):
            raise InvalidParameter("state dimensions do not match the plant")
        u = K @ state.xhat
        if noise is not None:
            nu, eta = noise.draw()
        else:
            nu, eta = np.zeros(plant.n), np.zeros(plant.s)
        drive = plant.B @ u
        k = state.k + 1
        x = plant.A @ state.x + drive + nu
        xhat = plant.A @ state.xhat + drive + kss.L @ state.r
        r_prev = state.r
    e = x - xhat
    xi = _resolve_attack(attack, k, e, eta, r_prev)
    r = plant.C @ x + eta + xi - plant.C @ xhat
    return SimState(k=k, x=x, xhat=xhat, e=e, r=r, xi=xi)


def simulate(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: Array,
    noise: Optional[NoiseSource],
    horizon: int,
    attack: AttackSignal = None,
):
    """Run ``horizon`` steps from the zero start and return stacked trajectories.

    ``attack`` is called as in :func:`step`, with one run's vectors, and its
    value is checked for shape (s,) and summed onto zeros. Returns a dict with
    arrays ``x`` and ``xhat`` (horizon, n), ``r`` and the applied attack ``xi``
    (horizon, s). Row k holds the state at step k. ``K``, ``kss`` and ``noise`` must pass
    :func:`plant_gain`.
    """
    out = _lockstep(plant, kss, plant_gain(plant, K, kss, [noise]), [noise], horizon, attack,
                    ("x", "xhat", "r", "xi"), one_run=True)
    return {name: rows[0] for name, rows in out.items()}


def _lockstep(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: Array,
    noises,
    horizon: int,
    attack,
    record,
    one_run: bool = False,
):
    """Advance independent runs together for ``horizon`` steps from the zero start.

    Run j draws from ``noises[j]`` (None: noise-free). ``attack`` (None: no
    attack) is called once per step for all runs, as
    ``attack(k, e, eta, r_prev)`` with the runs' stacked e (runs, n), eta
    (runs, s) and previous residuals (runs, s) (None at step 0), and returns
    their attacks as one float array (runs, s); row j acts for run j alone.
    With ``one_run`` (a single run) it is handed that run's vectors instead,
    as :func:`step` hands them. Either value goes through
    :func:`_resolve_attack`. None of the arrays it is handed is written again.
    Returns ``{name: (runs, horizon, dim)}`` for each name in ``record`` (among
    x, xhat, r, xi); each step writes its rows straight into them, and a
    residual history is kept only when ``r`` is recorded. When both x and xhat
    are recorded they are views of one record of every step's z, which each
    step is computed into; otherwise z alternates between two rows. Every
    product, sum and draw is the one :func:`step` makes, in the same order, so
    each run is bit-equal to stepping it alone.
    """
    require("horizon", count_problem(horizon, 1))
    runs, n, s = len(noises), plant.n, plant.s
    A, B, C, L = plant.A, plant.B, plant.C, kss.L
    dims = {"x": n, "xhat": n, "r": s, "xi": s}
    held = horizon if "x" in record and "xhat" in record else 2  # steps of z kept
    zs = np.zeros((held, runs, 2, n, 1))  # x, then xhat, of every run at each kept step
    zx, zxhat = zs[:, :, 0, :, 0], zs[:, :, 1, :, 0]
    views = {"x": zx.swapaxes(0, 1), "xhat": zxhat.swapaxes(0, 1)} if held == horizon else {}
    out = {name: views[name] if name in views else np.zeros((runs, horizon, dims[name]))
           for name in record}  # xi stays 0 unattacked
    copied = [(out[name], h) for h, name in enumerate(("x", "xhat")) if name in out and not views]
    rec_r, rec_xi = out.get("r"), out.get("xi")
    cz = np.empty((runs, 2, s, 1))     # C @ z
    cx, cxhat = cz[:, 0, :, 0], cz[:, 1, :, 0]
    u = np.empty((runs, K.shape[0], 1))
    drive = np.empty((runs, 1, n, 1))  # B @ u, added to both halves of A @ z
    bu = drive[:, 0]
    forcing = np.zeros((CHUNK, runs, 2, n, 1))  # each step's nu beside L @ r_prev
    pick = 0 if one_run else slice(None)  # what the attack is handed: run 0's rows, or all
    # Each step's rows, as views made by iterating the arrays (far cheaper than indexing):
    # z with its xhat column, and x and xhat as handed; every step's, or a ring of two.
    zrows = zip(zs, zs[:, :, 1], zx[:, pick], zxhat[:, pick])
    zrows = zrows if held == horizon else itertools.cycle(list(zrows))
    r_prev = None
    for first in range(0, horizon, CHUNK):
        rows = min(CHUNK, horizon - first)
        steps = slice(first, first + rows)
        eta = np.zeros((rows, runs, s))  # new each chunk: an attack may keep its rows
        for run, noise in enumerate(noises):
            if noise is not None:
                forcing[:rows, run, 0], eta[:, run, :, None] = noise.block(rows, initial=first == 0)
        # residual rows: the records, or new each chunk (an attack may keep them)
        rs = np.empty((rows, runs, s)) if rec_r is None else rec_r[:, steps].swapaxes(0, 1)
        xis = [None] * rows if rec_xi is None else rec_xi[:, steps].swapaxes(0, 1)[:, pick]
        for k, (z, zhat, x_h, xhat_h), force, lr, eta_k, eta_h, r_k, r_col, r_h, xi_row in zip(
                range(first, first + rows), zrows, forcing, forcing[:, :, 1], eta, eta[:, pick],
                rs, rs[..., None], rs[:, pick], xis):
            if k > 0:
                np.matmul(L, r_col_last, out=lr)
                np.matmul(K, zhat_last, out=u)
                np.matmul(B, u, out=bu)
                np.matmul(A, z_last, out=z)
                z += drive
                z += force
            np.matmul(C, z, out=cz)
            np.add(cx, eta_k, out=r_k)
            if attack is not None:
                r_k += _resolve_attack(attack, k, x_h - xhat_h, eta_h, r_prev, xi_row)
            else:
                r_k += 0.0  # as step adds its zero xi: it turns a -0.0 sum into +0.0
            r_k -= cxhat
            for rec, h in copied:
                rec[:, k] = (x_h, xhat_h)[h]
            z_last, zhat_last, r_col_last, r_prev = z, zhat, r_col, r_h
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
    """Exact zero-order-hold discretization of a continuous pair (Ac, Bc): Ac square, Bc
    one row per state (:func:`matrix_problem`) and ``ts`` > 0; else raise."""
    Ac = matrix_arg("Ac", Ac, ("states", "states"))
    Bc = matrix_arg("Bc", Bc, ("states", "inputs"), (len(Ac), None))
    require("ts", positive_problem(ts))
    n, m = Bc.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = Ac
    aug[:n, n:] = Bc
    E = _expm(aug * ts)
    return E[:n, :n].copy(), E[:n, n:].copy()  # contiguous: the Riccati memo keys by layout


@dataclass(frozen=True)
class UgvParams:
    """Physical constants of the skid-steer ground vehicle model.

    State is [forward velocity, heading, yaw rate]; inputs are the left and
    right wheel forces. ``width`` is the track width; the two resistances damp
    rolling and turning. Construction raises the first of :func:`ugv_problems`.
    """

    mass: float = 10.0
    inertia: float = 0.5
    width: float = 0.4
    roll_resistance: float = 5.0
    turn_resistance: float = 0.8

    def __post_init__(self):
        raise_first(ugv_problems(vars(self)))


def ugv_problems(params) -> list:
    """UGV parameters given as a mapping: unknown keys, then values not finite and positive."""
    return unknown_keys(params, {f.name for f in fields(UgvParams)}, "params") + [
        (f"params.{key}", problem) for key, value in params.items()
        if (problem := positive_problem(value))]


def ugv_continuous(params: UgvParams):
    """Continuous-time (Ac, Bc) of the skid-steer vehicle linear model."""
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
    Ac, Bc = ugv_continuous(params)
    Ad, Bd = zoh_discretize(Ac, Bc, ts)
    return LtiPlant(A=Ad, B=Bd, C=np.eye(3), Q=Q, R=R, ts=ts)
