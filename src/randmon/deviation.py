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

from .attacks import stack
from .errors import IllConditionedWarning, InvalidParameter
from .lti import (KalmanSteadyState, LtiPlant, NoiseSource, _lockstep, array_arg, count_problem,
                  plant_gain, require, spectral_radius)

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
    emitted, but the result is still returned. ``K`` and ``kss`` must pass
    ``lti.plant_gain``, and ``expected_r`` is finite, one entry per sensor.
    """
    K = plant_gain(plant, K, kss)
    er = array_arg("expected_r", expected_r).ravel()
    require("expected_r", "" if er.size == plant.s else
            f"must have one entry per sensor ({plant.s}), got {er.size}")
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
    traj = array_arg("trajectories", trajectories, (3,))  # runs x steps x n
    n_runs, steps, n = traj.shape
    if prediction.delta is not None and n != (k := prediction.delta.size):
        require("trajectories", f"must have one entry per state ({k}) on its last axis, got {n}")
    if n_runs < 10:
        raise InvalidParameter(f"need at least 10 runs, got {n_runs}")
    require("burn_in", count_problem(burn_in, 0))
    if burn_in >= steps:
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

    ``policy_factory(run_index)`` builds a fresh one-run policy per run: an
    ``AttackPolicy`` or ``CompositeAttack`` for every run, or None for every
    run (no attack). The runs advance in lockstep under the one attack
    ``attacks.stack`` joins from theirs (also for one run), called once per step
    with the runs' stacked vectors, so the policies must differ only in their
    seed, as ``build_attack_policy`` builds them, also from one shared CUSUM
    detector; each run keeps its own generator, schedule and statistic. A
    factory that returns one object for two runs, or policies that cannot be
    joined, raises ``InvalidParameter``. Only the states are recorded. Returns
    state trajectories with shape (runs, horizon, n), each run bit-equal to
    simulating it alone. ``K`` and ``kss`` must pass ``lti.plant_gain``.
    """
    K = plant_gain(plant, K, kss)
    require("n_runs", count_problem(n_runs, 1))
    require("base_seed", count_problem(base_seed, 0))
    seeds = np.random.SeedSequence(base_seed).spawn(n_runs)
    noises = [NoiseSource(plant.Q, plant.R, seed) for seed in seeds]
    attack = stack([policy_factory(j) for j in range(n_runs)])
    return _lockstep(plant, kss, K, noises, horizon, attack, ("x",))["x"]
