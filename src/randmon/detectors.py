"""Residual-magnitude boundary detectors: bad-data threshold and CUSUM.

Both watch |r| per sensor. Under clean data the residual is N(0, sigma^2), so
|r| is half-normal with mean sqrt(2/pi)*sigma, which drives both tuning
procedures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NonConvergence
from .gaussian import std_normal_quantile
from .lti import (HALF_NORMAL_MEAN_FACTOR, array_arg, count_problem, drift_problem, philox,
                  rate_problem, require, sigma_array)

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
    threshold (always alarms). Accepts scalars or arrays of sigma (the sigma rule).
    """
    require("alpha_des", rate_problem(alpha_des, allow_one=True))
    tau = sigma_array(sigma) * std_normal_quantile(1.0 - alpha_des / 2.0)
    return float(tau) if np.isscalar(sigma) or tau.ndim == 0 else tau


def _settings(tau, bias=0.0) -> tuple:
    """``tau`` (numbers >= 0; inf never alarms) and ``bias`` (finite) as 0/1-D float arrays."""
    tau = array_arg("tau", tau, (0, 1), finite=False)
    require("tau", "" if (tau >= 0.0).all() else "every tau must be nonnegative (inf included)")
    return tau, array_arg("bias", bias, (0, 1))


@dataclass
class BadDataDetector:
    """Stateless per-sensor threshold detector: alarm iff |r_i| > tau[i]."""

    tau: np.ndarray

    def __post_init__(self):
        self.tau = _settings(self.tau)[0]

    @classmethod
    def tuned(cls, sigma, alpha_des: float) -> "BadDataDetector":
        return cls(tau=np.atleast_1d(tune_bdd(sigma, alpha_des)))

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


def _cusum_alarms(blocks, tail, tau, bias=None, scale=None, shift=None, record=None) -> list:
    """Alarm counts of m CUSUM recursions run side by side.

    ``blocks`` holds full ``CUSUM_BLOCK``-step blocks time-major and ``tail``
    the steps after them. Without ``scale`` recursion i runs on stream i:
    ``blocks`` is ``(CUSUM_BLOCK, m, n_blocks)`` (``blocks[j, i, k]`` is step j
    of stream i's block k), ``tail`` is ``(t, m)`` and the increment d is the
    stream value x. With ``scale`` all recursions share one stream, ``blocks``
    ``(CUSUM_BLOCK, n_blocks)`` and ``tail`` ``(t,)``, and recursion i's d is
    ``(x * scale[i]) - shift[i]``. Recursion i steps ``S = max(0, (S + d) -
    bias[i])`` against ``tau[i]``; ``bias`` None skips the subtraction, which
    is exact for a zero bias. ``record``, a pair of views shaped as the
    unscaled ``blocks`` and ``tail``, receives every statistic after every step.

    numpy runs the recursions on all blocks side by side, each from zero, with
    the scalar recursion's own float64 operations. A block entered with a
    nonzero statistic steps its true and zero-started statistic together in
    Python until they are equal (from there on they agree), or hands the true
    one to the next block; the tail is walked alone. Alarms and S are therefore
    the scalar recursion's own, also for non-finite inputs (NaN never compares
    equal, so it is walked to the end).
    """
    m, n_blocks = len(tau), blocks.shape[-1]
    s = np.zeros((m, n_blocks))  # row i is recursion i

    def rows(v):  # each recursion's value over its row of s
        return np.repeat(np.asarray(v, dtype=float), n_blocks).reshape(m, n_blocks)

    tau_rows, bias_rows = rows(tau), None if bias is None else rows(bias)
    if scale is not None:
        d, shift_rows = np.empty((m, n_blocks)), rows(shift)
    alarms = [0] * m
    with np.errstate(over="ignore", invalid="ignore"):
        for j, x in enumerate(blocks):
            if scale is not None:
                x = np.subtract(np.multiply(x, scale[:, None], out=d), shift_rows, out=d)
            alarm = _cusum_advance(s, x, bias_rows, tau_rows)
            for i in range(m):
                alarms[i] += int(np.count_nonzero(alarm[i]))
            if record is not None:
                record[0][j] = s

    for i in range(m):
        tau_i, bias_i = float(tau[i]), 0.0 if bias is None else float(bias[i])
        scale_i, shift_i = (None, None) if scale is None else (float(scale[i]), float(shift[i]))
        stream, rest = (blocks[:, i], tail[:, i]) if scale is None else (blocks, tail)

        def values(xs):  # converted lazily: most walks are short
            xs = map(float, xs)
            return xs if scale_i is None else ((x * scale_i) - shift_i for x in xs)

        carry = 0.0
        for k, end in enumerate(s[i].tolist()):
            if carry == 0.0:
                carry = end
                continue
            true_s, zero_s = carry, 0.0
            for j, v in enumerate(values(stream[:, k])):
                if true_s == zero_s:
                    true_s = end
                    break
                true_s, true_alarm = _cusum_step(true_s, v, bias_i, tau_i)
                zero_s, zero_alarm = _cusum_step(zero_s, v, bias_i, tau_i)
                alarms[i] += true_alarm - zero_alarm
                if record is not None:
                    record[0][j, i, k] = true_s
            carry = true_s
        for k, v in enumerate(values(rest)):
            carry, alarm = _cusum_step(carry, v, bias_i, tau_i)
            alarms[i] += alarm
            if record is not None:
                record[1][k, i] = carry
    return alarms


def cusum_alarm_fraction(x, tau, bias=0.0, out=None) -> float | np.ndarray:
    """Alarm fraction of the CUSUM recursion ``S = max(0, (S + x) - bias)`` over a stream.

    ``x`` (a list or a 1-D array) holds one input per step: |r| for a detector.
    A ``(steps, m)`` array holds m streams, with one ``tau`` and ``bias`` entry
    per column; all m are scored in one ``_cusum_alarms`` pass and the result
    is an array of m fractions. The previous statistic is tested first: above
    tau it resets to zero and alarms, without consuming x; otherwise it
    accumulates, clamped at zero. ``out``, a float64 array of x's shape, receives S
    after every step; the alarm at step k is ``S[k - 1] > tau``, with S zero
    before step 0. The counts are the scalar recursion's own.
    """
    tau, bias = _settings(tau, bias)
    x = array_arg("x", x, (1, 2), finite=False)  # steps, or steps x m
    for name, value in (("tau", tau), ("bias", bias)):
        require(name, "" if value.shape == x.shape[1:] else "must be a number for a 1-D x, else "
                f"one entry per column of x, got shape {value.shape}")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == x.shape):
        raise InvalidParameter(f"out must be a float64 array of x's shape {x.shape}")
    n = x.shape[0]
    require("x", "" if x.size else "empty increment stream")
    full = n - n % CUSUM_BLOCK

    def split(a):  # (CUSUM_BLOCK, m, n_blocks) blocks and (t, m) tail; splitting an axis is a view
        a = a.reshape(n, -1)
        return a[:full].reshape(-1, CUSUM_BLOCK, a.shape[1]).transpose(1, 2, 0), a[full:]

    alarms = _cusum_alarms(*split(x), np.atleast_1d(tau),
                           np.atleast_1d(bias) if np.any(bias) else None,
                           record=None if out is None else split(out))
    return alarms[0] / n if x.ndim == 1 else np.array(alarms) / n


@dataclass
class CusumTuning:
    """A threshold search's result, with per-sensor arrays when the call tuned an array.

    ``iterations`` counts the search's bracketing and bisection steps; an array
    call reports the largest count among its sensors.
    """

    tau: float | np.ndarray
    achieved_rate: float | np.ndarray
    iterations: int


def _cusum_search(sigma: float, alpha_des: float):
    """One sensor's threshold search, as a generator of ``(tau, full)`` rate requests.

    It is sent each requested alarm rate (on the full stream, or its first
    1/8) and returns the ``CusumTuning``.
    """
    tol = CUSUM_REL_TOL * alpha_des
    # Rate is monotone nonincreasing in tau, so the rate at tau = 0 is the
    # ceiling; a bias large enough to keep the statistic at zero makes any
    # higher target unreachable and tau = 0 is the best available threshold.
    rate_at_zero = yield 0.0, True
    if rate_at_zero <= alpha_des:
        return CusumTuning(tau=0.0, achieved_rate=rate_at_zero, iterations=1)

    # Bracket above.
    lo = 0.0
    hi = sigma
    iterations = 1
    while (yield hi, False) > alpha_des:
        hi *= 2.0
        iterations += 1
        if iterations > CUSUM_MAX_ITER:
            raise NonConvergence("could not bracket the CUSUM threshold")

    best = None
    for _ in range(CUSUM_MAX_ITER):
        iterations += 1
        mid = 0.5 * (lo + hi)
        r_coarse = yield mid, False
        if abs(r_coarse - alpha_des) <= 2.0 * tol:
            r_full = yield mid, True
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
        r_full = yield mid, True
        if abs(r_full - alpha_des) <= tol:
            best = (mid, r_full)
        else:
            raise NonConvergence(
                f"CUSUM threshold search failed after {iterations} evaluations "
                f"(last rate {r_full:.6g} vs target {alpha_des:.6g})"
            )
    tau, achieved = best
    return CusumTuning(tau=tau, achieved_rate=achieved, iterations=iterations)


def tune_cusum(
    sigma,
    bias,
    alpha_des: float,
    n_samples: int = CUSUM_MIN_SAMPLES,
    seed: int = 0,
) -> CusumTuning:
    """Monte Carlo threshold search for a target CUSUM false-alarm rate, per sensor.

    ``sigma`` and ``bias`` are scalars or 1-D per-sensor arrays of one length;
    an array call returns per-sensor ``tau`` and ``achieved_rate``. Each sensor
    simulates the recursion on i.i.d. |N(0, sigma^2)| inputs and bisects tau
    until the empirical alarm rate is within ``CUSUM_REL_TOL`` relative of
    alpha_des: bracketing and early bisection run on the stream's first 1/8,
    and candidate thresholds are confirmed on the full stream.

    All sensors share one draw of |z|, stored time-major by block; sensor i's
    increments are ``(|z| * sigma[i]) - bias[i]``. The sensors' searches run
    side by side, and the rate requests of one round are answered by one
    ``_cusum_alarms`` pass per stream length. Each rate is that exact count, so
    every sensor takes the same steps and gets the same tau as a scalar loop
    over its own increment stream.

    Raises ``InvalidParameter`` when a bias <= sqrt(2/pi)*sigma (no downward
    drift under clean data) and ``NonConvergence`` if a search exhausts
    ``CUSUM_MAX_ITER`` bisections.
    """
    sig, b = np.atleast_1d(sigma_array(sigma)), np.atleast_1d(array_arg("bias", bias, (0, 1)))
    require("bias", "" if b.size == sig.size else "must match sigma: 1-D arrays of one length")
    require("alpha_des", rate_problem(alpha_des))
    for sig_i, b_i in zip(sig.tolist(), b.tolist()):
        require("bias / sigma", drift_problem(b_i / sig_i))
    require("n_samples", count_problem(n_samples, CUSUM_MIN_SAMPLES))

    # |z| time-major: column k is block k, the last column holds the tail. It is
    # drawn chunk by chunk, which gives the bits of one draw and no second copy.
    rng = philox(seed)
    az = np.empty((CUSUM_BLOCK, n_samples // CUSUM_BLOCK + 1))
    chunk = 64 * CUSUM_BLOCK
    for start in range(0, n_samples, chunk):
        z = rng.standard_normal(min(chunk, n_samples - start))
        np.abs(z, out=z)
        k, whole = start // CUSUM_BLOCK, z.size // CUSUM_BLOCK
        az[:, k:k + whole] = z[: whole * CUSUM_BLOCK].reshape(whole, CUSUM_BLOCK).T
        az[: z.size % CUSUM_BLOCK, k + whole] = z[whole * CUSUM_BLOCK:]

    searches = [_cusum_search(sig_i, alpha_des) for sig_i in sig.tolist()]
    asks = {i: next(search) for i, search in enumerate(searches)}
    results = [None] * len(searches)
    while asks:  # one pass over each stream length answers every open request for it
        for full in (False, True):
            who = [i for i, (_, on_full) in asks.items() if on_full is full]
            if not who:
                continue
            n = n_samples if full else n_samples // 8
            blocks, tail = az[:, : n // CUSUM_BLOCK], az[: n % CUSUM_BLOCK, n // CUSUM_BLOCK]
            alarms = _cusum_alarms(blocks, tail, [asks[i][0] for i in who],
                                   scale=sig[who], shift=b[who])
            for i, count in zip(who, alarms):
                try:
                    asks[i] = searches[i].send(count / n)
                except StopIteration as done:
                    results[i] = done.value
                    del asks[i]
    if np.ndim(sigma) == 0 and np.ndim(bias) == 0:
        return results[0]
    return CusumTuning(tau=np.array([t.tau for t in results]),
                       achieved_rate=np.array([t.achieved_rate for t in results]),
                       iterations=max(t.iterations for t in results))


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
        self.tau, self.bias = map(np.atleast_1d, _settings(self.tau, self.bias))
        require("bias", "" if self.tau.shape == self.bias.shape else "must have tau's shape")
        S = np.zeros_like(self.tau) if self.S is None else array_arg("S", self.S, finite=False)
        self.S = np.atleast_1d(S).copy()  # the statistic of a non-finite stream: inf or NaN too

    def step(self, r) -> np.ndarray:
        """One ``_cusum_step`` per entry of S on |r|; updates S in place, returns the alarms.

        S is (s,) for one run or (R, s) for a stack of runs, as a stacked CUSUM
        attack keeps it; r broadcasts to it.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, not a warning
            return _cusum_advance(self.S, np.abs(np.asarray(r, dtype=float)), self.bias, self.tau)
