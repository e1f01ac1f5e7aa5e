"""Residual-magnitude boundary detectors: bad-data threshold and CUSUM.

Both watch |r| per sensor. Under clean data the residual is N(0, sigma^2), so
|r| is half-normal with mean sqrt(2/pi)*sigma, which drives both tuning
procedures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidBias, InvalidParameter, NonConvergence
from .gaussian import std_normal_quantile

HALF_NORMAL_MEAN_FACTOR = math.sqrt(2.0 / math.pi)

#: minimum Monte Carlo sample count accepted by tune_cusum
CUSUM_MIN_SAMPLES = 1_000_000


def tune_bdd(sigma, alpha_des: float):
    """Threshold with two-sided exceedance probability alpha_des under N(0, sigma^2).

    Equals sqrt(2)*sigma*erfinv(1 - alpha_des); alpha_des = 1 gives a zero
    threshold (always alarms). Accepts scalars or arrays of sigma.
    """
    if not 0.0 < alpha_des <= 1.0:
        raise DomainError(f"alpha_des must lie in (0, 1], got {alpha_des!r}")
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig <= 0.0):
        raise InvalidParameter("sigma must be positive")
    if alpha_des == 1.0:
        z = 0.0
    else:
        z = std_normal_quantile(1.0 - alpha_des / 2.0)
    tau = sig * z
    return float(tau) if np.isscalar(sigma) or tau.ndim == 0 else tau


@dataclass
class BadDataDetector:
    """Stateless per-sensor threshold detector: alarm iff |r_i| > tau[i]."""

    tau: np.ndarray
    alpha_des: float

    @classmethod
    def tuned(cls, sigma, alpha_des: float) -> "BadDataDetector":
        tau = np.atleast_1d(np.asarray(tune_bdd(sigma, alpha_des), dtype=float))
        return cls(tau=tau, alpha_des=alpha_des)

    def step(self, r) -> np.ndarray:
        """Alarm flags for one residual vector. Strict inequality: |r| == tau is quiet."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return np.abs(r) > self.tau


def cusum_alarm_fraction(deltas, tau: float) -> float:
    """Alarm fraction of the CUSUM recursion over a fixed increment stream.

    ``deltas`` holds |r| - b per step. The statistic from the previous step is
    tested first: above tau it resets to zero and alarms (the current
    increment is not consumed); otherwise it accumulates, clamped at zero.
    """
    if tau < 0.0:
        raise InvalidParameter("tau must be nonnegative")
    s = 0.0
    alarms = 0
    n = 0
    for d in deltas:
        n += 1
        if s > tau:
            alarms += 1
            s = 0.0
        else:
            s += d
            if s < 0.0:
                s = 0.0
    if n == 0:
        raise InvalidParameter("empty increment stream")
    return alarms / n


@dataclass
class CusumTuning:
    tau: float
    achieved_rate: float
    samples: int
    iterations: int


def tune_cusum(
    sigma: float,
    bias: float,
    alpha_des: float,
    n_samples: int = CUSUM_MIN_SAMPLES,
    seed: int = 0,
    rel_tol: float = 0.05,
    max_iter: int = 60,
) -> CusumTuning:
    """Monte Carlo threshold search for a target CUSUM false-alarm rate.

    Simulates the recursion on i.i.d. |N(0, sigma^2)| inputs and bisects tau
    until the empirical alarm rate is within ``rel_tol`` relative of
    alpha_des. Bracketing and early bisection run on a 1/8 subsample of the
    stream; candidate thresholds are confirmed on the full stream.

    Raises ``InvalidBias`` when bias <= sqrt(2/pi)*sigma (no downward drift
    under clean data) and ``NonConvergence`` if the search exhausts
    ``max_iter`` bisections.
    """
    if sigma <= 0.0:
        raise InvalidParameter("sigma must be positive")
    if not 0.0 < alpha_des < 1.0:
        raise DomainError(f"alpha_des must lie in (0, 1), got {alpha_des!r}")
    if bias <= HALF_NORMAL_MEAN_FACTOR * sigma:
        raise InvalidBias(
            f"bias {bias} must exceed E|r| = sqrt(2/pi)*sigma = "
            f"{HALF_NORMAL_MEAN_FACTOR * sigma:.6g}"
        )
    if n_samples < CUSUM_MIN_SAMPLES:
        raise InvalidParameter(f"n_samples must be >= {CUSUM_MIN_SAMPLES}")

    rng = np.random.Generator(np.random.Philox(seed))
    deltas_full = (sigma * np.abs(rng.standard_normal(n_samples)) - bias).tolist()
    deltas_coarse = deltas_full[: max(1, n_samples // 8)]
    tol = rel_tol * alpha_des

    def rate(tau: float, full: bool) -> float:
        return cusum_alarm_fraction(deltas_full if full else deltas_coarse, tau)

    # Rate is monotone nonincreasing in tau, so the rate at tau = 0 is the
    # ceiling; a bias large enough to keep the statistic at zero makes any
    # higher target unreachable and tau = 0 is the best available threshold.
    rate_at_zero = rate(0.0, full=True)
    if rate_at_zero <= alpha_des:
        return CusumTuning(tau=0.0, achieved_rate=rate_at_zero, samples=n_samples, iterations=1)

    # Bracket above.
    lo = 0.0
    hi = sigma
    iterations = 1
    while rate(hi, full=False) > alpha_des:
        hi *= 2.0
        iterations += 1
        if iterations > max_iter:
            raise NonConvergence("could not bracket the CUSUM threshold")

    best = None
    for _ in range(max_iter):
        iterations += 1
        mid = 0.5 * (lo + hi)
        r_coarse = rate(mid, full=False)
        if abs(r_coarse - alpha_des) <= 2.0 * tol:
            r_full = rate(mid, full=True)
            if abs(r_full - alpha_des) <= tol:
                best = (mid, r_full)
                break
            r_coarse = r_full
        if r_coarse > alpha_des:
            lo = mid
        else:
            hi = mid
    if best is None:
        # Fall back to the midpoint if the final full-sample check was close.
        mid = 0.5 * (lo + hi)
        r_full = rate(mid, full=True)
        if abs(r_full - alpha_des) <= tol:
            best = (mid, r_full)
        else:
            raise NonConvergence(
                f"CUSUM threshold search failed after {iterations} evaluations "
                f"(last rate {r_full:.6g} vs target {alpha_des:.6g})"
            )
    tau, achieved = best
    return CusumTuning(tau=tau, achieved_rate=achieved, samples=n_samples, iterations=iterations)


@dataclass
class CusumDetector:
    """Per-sensor CUSUM on |r| with bias b and threshold tau.

    The statistic from the previous step is tested before accumulating: above
    tau it resets to zero and the alarm fires for that step. Equality with tau
    does not alarm.
    """

    tau: np.ndarray
    bias: np.ndarray
    alpha_des: float
    S: np.ndarray = field(default=None)

    def __post_init__(self):
        self.tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        self.bias = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if self.tau.shape != self.bias.shape:
            raise InvalidParameter("tau and bias must have matching shapes")
        if np.any(self.tau < 0.0):
            raise InvalidParameter("tau must be nonnegative")
        if self.S is None:
            self.S = np.zeros_like(self.tau)
        else:
            self.S = np.atleast_1d(np.asarray(self.S, dtype=float)).copy()

    @classmethod
    def tuned(
        cls,
        sigma,
        alpha_des: float,
        bias_scale: float = 1.5,
        n_samples: int = CUSUM_MIN_SAMPLES,
        seed: int = 0,
    ) -> "CusumDetector":
        """Tune one threshold per sensor with bias = bias_scale * sigma."""
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        bias = bias_scale * sigma
        tau = np.array([
            tune_cusum(float(s), float(b), alpha_des, n_samples=n_samples, seed=seed).tau
            for s, b in zip(sigma, bias)
        ])
        return cls(tau=tau, bias=bias, alpha_des=alpha_des)

    def step(self, r) -> np.ndarray:
        """Consume one residual vector; returns alarm flags and updates S."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        alarm = self.S > self.tau
        accumulated = np.maximum(0.0, self.S + np.abs(r) - self.bias)
        self.S = np.where(alarm, 0.0, accumulated)
        return alarm
