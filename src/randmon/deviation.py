"""Closed-form state-deviation limits under stealthy attacks and their validation.

Under a sustained attack the expected closed loop evolves as

    E[x+] = (A + BK) E[x] - BK E[e]
    E[e+] = A E[e] - L E[r]

With rho(A) < 1 and rho(A + BK) < 1 both maps settle; the equilibrium state
offset is (I - A - BK)^-1 BK (I - A)^-1 L E[r]. An unstable open loop with a
nonzero expected residual diverges instead, and no finite limit is returned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IllConditionedWarning, InsufficientEnsemble, InvalidParameter
from .lti import KalmanSteadyState, LtiPlant, NoiseSource, _lockstep, spectral_radius

_COND_WARN = 1e10


@dataclass
class DeviationPrediction:
    """Predicted asymptotic mean state offset under a sustained attack.

    ``delta`` is finite iff ``stable`` is true. ``est_error_limit`` is the
    equilibrium of the expected estimation error (it satisfies
    e = A e - L E[r], hence carries a sign opposite to (I-A)^-1 L E[r]).
    """

    delta: Optional[np.ndarray]
    est_error_limit: Optional[np.ndarray]
    stable: bool
    rho_open: float


def deviation_limit(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: np.ndarray,
    expected_r,
) -> DeviationPrediction:
    """Solve the equilibrium offset for a given expected residual vector.

    ``expected_r`` is the mean residual the attack forces on each sensor; a
    worst-case policy carries it as ``AttackPolicy.forcing``.

    Uses two linear solves (never explicit inverses). When the condition
    number of either solve matrix passes 1e10 an IllConditionedWarning is
    emitted, but the result is still returned.
    """
    er = np.asarray(expected_r, dtype=float).ravel()
    if er.shape != (plant.s,):
        raise InvalidParameter(f"expected residual must have length {plant.s}")
    A, B, L = plant.A, plant.B, kss.L
    rho_open = spectral_radius(A)
    stable = rho_open < 1.0 and spectral_radius(A + B @ K) < 1.0
    if not stable:
        return DeviationPrediction(delta=None, est_error_limit=None, stable=False,
                                   rho_open=rho_open)
    I = np.eye(plant.n)
    M1 = I - A
    M2 = I - A - B @ K
    cond = {"I-A": float(np.linalg.cond(M1)), "I-A-BK": float(np.linalg.cond(M2))}
    if max(cond.values()) > _COND_WARN:
        warnings.warn(
            f"deviation solve badly conditioned: {cond}", IllConditionedWarning, stacklevel=2
        )
    e_inf = np.linalg.solve(M1, -(L @ er))
    delta = np.linalg.solve(M2, -(B @ K @ e_inf))
    return DeviationPrediction(
        delta=delta,
        est_error_limit=e_inf,
        stable=True,
        rho_open=rho_open,
    )


@dataclass
class DeviationValidation:
    ensemble_mean: np.ndarray
    ensemble_stderr: np.ndarray
    relative_error: Optional[np.ndarray]


def validate_against_simulation(
    prediction: DeviationPrediction,
    trajectories: np.ndarray,
    burn_in: int,
) -> DeviationValidation:
    """Compare an ensemble of simulated runs to the predicted offset.

    ``trajectories`` has shape (runs, steps, n). Each run is time-averaged
    over [burn_in, end); the ensemble mean and its standard error across runs
    are reported with the componentwise relative error against the
    prediction.
    """
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 3:
        raise InvalidParameter("trajectories must have shape (runs, steps, n)")
    n_runs, steps, _ = traj.shape
    if n_runs < 10:
        raise InsufficientEnsemble(f"need at least 10 runs, got {n_runs}")
    if not 0 <= burn_in < steps:
        raise InvalidParameter(f"burn_in {burn_in} outside the trajectory length {steps}")
    per_run = traj[:, burn_in:, :].mean(axis=1)
    mean = per_run.mean(axis=0)
    stderr = per_run.std(axis=0, ddof=1) / np.sqrt(n_runs)
    if prediction.delta is None:
        rel = None
    else:
        denom = np.where(np.abs(prediction.delta) > 0.0, np.abs(prediction.delta), 1.0)
        rel = np.abs(mean - prediction.delta) / denom
    return DeviationValidation(ensemble_mean=mean, ensemble_stderr=stderr, relative_error=rel)


def run_attack_ensemble(
    plant: LtiPlant,
    kss: KalmanSteadyState,
    K: np.ndarray,
    policy_factory,
    n_runs: int,
    horizon: int,
    base_seed: int = 0,
) -> np.ndarray:
    """Simulate independent seeded runs under an attack policy.

    ``policy_factory(run_index)`` builds a fresh policy per run (policies may
    be stateful). The runs advance in lockstep, one step of every run at a
    time, so policies from the factory must not share mutable state across
    runs. Only the states are recorded. Returns state trajectories with shape
    (runs, horizon, n), each run bit-equal to simulating it alone.
    """
    if n_runs < 1:
        raise InvalidParameter("need at least one run")
    seeds = np.random.SeedSequence(base_seed).spawn(n_runs)
    noises = [NoiseSource(plant.Q, plant.R, seed) for seed in seeds]
    policies = [policy_factory(j) for j in range(n_runs)]
    return _lockstep(plant, kss, K, noises, horizon, policies, ("x",))["x"]
