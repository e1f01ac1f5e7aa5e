"""Residual-magnitude boundary detectors: bad-data threshold and CUSUM.

Both watch |r| per sensor. Under clean data the residual is N(0, sigma^2), so
|r| is half-normal with mean sqrt(2/pi)*sigma, which drives both tuning
procedures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NonConvergence
from .gaussian import std_normal_quantile

HALF_NORMAL_MEAN_FACTOR = math.sqrt(2.0 / math.pi)

#: minimum Monte Carlo sample count accepted by tune_cusum
CUSUM_MIN_SAMPLES = 1_000_000

#: steps per block of the block-parallel kernel in cusum_alarm_fraction
CUSUM_BLOCK = 256

#: tune_cusum's tolerance on the achieved rate relative to alpha_des, and its cap on
#: bracketing doublings and on bisections
CUSUM_REL_TOL = 0.05
CUSUM_MAX_ITER = 60


def tune_bdd(sigma, alpha_des: float):
    """Threshold with two-sided exceedance probability alpha_des under N(0, sigma^2).

    Equals sqrt(2)*sigma*erfinv(1 - alpha_des); alpha_des = 1 gives a zero
    threshold (always alarms). Accepts scalars or arrays of sigma.
    """
    if not 0.0 < alpha_des <= 1.0:
        raise InvalidParameter(f"alpha_des must lie in (0, 1], got {alpha_des!r}")
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig <= 0.0):
        raise InvalidParameter("sigma must be positive")
    tau = sig * std_normal_quantile(1.0 - alpha_des / 2.0)
    return float(tau) if np.isscalar(sigma) or tau.ndim == 0 else tau


@dataclass
class BadDataDetector:
    """Stateless per-sensor threshold detector: alarm iff |r_i| > tau[i]."""

    tau: np.ndarray

    @classmethod
    def tuned(cls, sigma, alpha_des: float) -> "BadDataDetector":
        tau = np.atleast_1d(np.asarray(tune_bdd(sigma, alpha_des), dtype=float))
        return cls(tau=tau)

    def step(self, r) -> np.ndarray:
        """Alarm flags for one residual vector. Strict inequality: |r| == tau is quiet."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return np.abs(r) > self.tau


def _cusum_step(s: float, x: float, bias: float, tau: float) -> tuple:
    """One step of the scalar recursion: the next statistic and 1 if it alarmed."""
    if s > tau:
        return 0.0, 1
    s = (s + x) - bias
    return (0.0 if s < 0.0 else s), 0


def _cusum_advance(s: np.ndarray, x, bias, tau) -> np.ndarray:
    """``_cusum_step`` on every entry of ``s`` at once, in place; returns the alarms.

    Each entry takes the scalar recursion's own float64 operations (the sum
    is computed and then discarded where the statistic alarmed). ``bias`` None
    skips the subtraction, which is exact for a zero bias.
    """
    alarm = s > tau
    s += x
    if bias is not None:
        s -= bias
    np.maximum(s, 0.0, out=s)
    s[alarm] = 0.0
    return alarm


def cusum_alarm_fraction(x, tau: float, bias: float = 0.0, out=None) -> float:
    """Alarm fraction of the CUSUM recursion ``S = max(0, (S + x) - bias)`` over a stream.

    ``x`` (a list or a 1-D array) holds one input per step: |r| for a detector,
    or |r| - b with ``bias`` 0 for tuning (``x - 0.0`` is ``x``, so it is
    skipped). The previous statistic is tested first: above tau it resets to
    zero and alarms, without consuming x; otherwise it accumulates, clamped at
    zero. ``out``, if given, receives S after every step; the alarm at step k is
    ``S[k - 1] > tau``, with S zero before step 0.

    numpy runs the recursion on all ``CUSUM_BLOCK``-step blocks side by side,
    each from zero, with the scalar recursion's own float64 operations. A block
    entered with a nonzero statistic steps its true and zero-started statistic
    together in Python until they are equal (from there on they agree), or
    hands the true one to the next block; the tail is walked alone. Alarms and
    S are therefore the scalar recursion's own, also for non-finite inputs
    (NaN never compares equal, so it is walked to the end).
    """
    if not tau >= 0.0:
        raise InvalidParameter("tau must be nonnegative")
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        raise InvalidParameter("empty increment stream")
    n_blocks = n // CUSUM_BLOCK
    full = n_blocks * CUSUM_BLOCK
    blocks = x[:full].reshape(n_blocks, CUSUM_BLOCK)
    record = None if out is None else out[:full].reshape(n_blocks, CUSUM_BLOCK)  # 1-D: a view
    s = np.zeros(n_blocks)
    alarms = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j, column in enumerate(blocks.T):
            alarm = _cusum_advance(s, column, None if bias == 0.0 else bias, tau)
            alarms += int(np.count_nonzero(alarm))
            if record is not None:
                record[:, j] = s

    carry = 0.0
    for k, end in enumerate(s.tolist()):
        if carry == 0.0:
            carry = end
            continue
        true_s, zero_s = carry, 0.0
        for j, v in enumerate(map(float, blocks[k])):  # converted lazily: most walks are short
            if true_s == zero_s:
                true_s = end
                break
            true_s, true_alarm = _cusum_step(true_s, v, bias, tau)
            zero_s, zero_alarm = _cusum_step(zero_s, v, bias, tau)
            alarms += true_alarm - zero_alarm
            if record is not None:
                record[k, j] = true_s
        carry = true_s
    for k, v in enumerate(x[full:].tolist(), full):
        carry, alarm = _cusum_step(carry, v, bias, tau)
        alarms += alarm
        if out is not None:
            out[k] = carry
    return alarms / n


@dataclass
class CusumTuning:
    tau: float
    achieved_rate: float
    iterations: int


def tune_cusum(
    sigma: float,
    bias: float,
    alpha_des: float,
    n_samples: int = CUSUM_MIN_SAMPLES,
    seed: int = 0,
) -> CusumTuning:
    """Monte Carlo threshold search for a target CUSUM false-alarm rate.

    Simulates the recursion on i.i.d. |N(0, sigma^2)| inputs and bisects tau
    until the empirical alarm rate is within ``CUSUM_REL_TOL`` relative of
    alpha_des. The increments |r| - b are drawn once into one float64 array;
    bracketing and early bisection run on a view of its first 1/8, and
    candidate thresholds are confirmed on the full stream. Each rate is
    ``cusum_alarm_fraction``'s exact count, so the search takes the same steps
    and returns the same tau as a scalar loop over the same stream.

    Raises ``InvalidParameter`` when bias <= sqrt(2/pi)*sigma (no downward drift
    under clean data) and ``NonConvergence`` if the search exhausts
    ``CUSUM_MAX_ITER`` bisections.
    """
    if sigma <= 0.0:
        raise InvalidParameter("sigma must be positive")
    if not 0.0 < alpha_des < 1.0:
        raise InvalidParameter(f"alpha_des must lie in (0, 1), got {alpha_des!r}")
    if bias <= HALF_NORMAL_MEAN_FACTOR * sigma:
        raise InvalidParameter(
            f"bias {bias} must exceed E|r| = sqrt(2/pi)*sigma = "
            f"{HALF_NORMAL_MEAN_FACTOR * sigma:.6g}"
        )
    if n_samples < CUSUM_MIN_SAMPLES:
        raise InvalidParameter(f"n_samples must be >= {CUSUM_MIN_SAMPLES}")

    rng = np.random.Generator(np.random.Philox(seed))
    deltas_full = rng.standard_normal(n_samples)  # |z| * sigma - b in place: no temporaries
    np.abs(deltas_full, out=deltas_full)
    deltas_full *= sigma
    deltas_full -= bias
    deltas_coarse = deltas_full[: max(1, n_samples // 8)]
    tol = CUSUM_REL_TOL * alpha_des

    def rate(tau: float, full: bool) -> float:
        return cusum_alarm_fraction(deltas_full if full else deltas_coarse, tau)

    # Rate is monotone nonincreasing in tau, so the rate at tau = 0 is the
    # ceiling; a bias large enough to keep the statistic at zero makes any
    # higher target unreachable and tau = 0 is the best available threshold.
    rate_at_zero = rate(0.0, full=True)
    if rate_at_zero <= alpha_des:
        return CusumTuning(tau=0.0, achieved_rate=rate_at_zero, iterations=1)

    # Bracket above.
    lo = 0.0
    hi = sigma
    iterations = 1
    while rate(hi, full=False) > alpha_des:
        hi *= 2.0
        iterations += 1
        if iterations > CUSUM_MAX_ITER:
            raise NonConvergence("could not bracket the CUSUM threshold")

    best = None
    for _ in range(CUSUM_MAX_ITER):
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
    return CusumTuning(tau=tau, achieved_rate=achieved, iterations=iterations)


@dataclass
class CusumDetector:
    """Per-sensor CUSUM on |r| with bias b and threshold tau.

    The statistic from the previous step is tested before accumulating: above
    tau it resets to zero and the alarm fires for that step. Equality with tau
    does not alarm. A run scores the detector after the loop with
    ``cusum_alarm_fraction``; ``step`` takes one residual at a time, as a
    CUSUM worst-case attack steps its own copy of the tuned detector.
    """

    tau: np.ndarray
    bias: np.ndarray
    S: np.ndarray = field(default=None)

    def __post_init__(self):
        self.tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        self.bias = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if self.tau.shape != self.bias.shape:
            raise InvalidParameter("tau and bias must have matching shapes")
        if not np.all(self.tau >= 0.0):
            raise InvalidParameter("tau must be nonnegative")
        if self.S is None:
            self.S = np.zeros_like(self.tau)
        else:
            self.S = np.atleast_1d(np.asarray(self.S, dtype=float)).copy()

    def step(self, r) -> np.ndarray:
        """One ``_cusum_step`` per entry of S on |r|; updates S in place, returns the alarms.

        S is (s,) for one run or (R, s) for a stack of runs, as a stacked CUSUM
        attack keeps it; r broadcasts to it.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, not a warning
            return _cusum_advance(self.S, np.abs(np.asarray(r, dtype=float)), self.bias, self.tau)
