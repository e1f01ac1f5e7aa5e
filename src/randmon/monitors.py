"""Sliding-window randomness monitors on per-sensor residual streams.

Two nonparametric tests run on each full window: a signed-rank test for
symmetry of the residual about zero, and a runs test on the signs of
consecutive residual differences for serial independence. Both reduce to a
z-score against closed-form null moments and a two-sided p-value; an alarm
fires when the p-value drops below the desired false-alarm rate.

``wsr_scan``, ``sir_scan`` and ``alarm_rate_scan`` score a whole recorded
residual array at once, with the same bytes as running ``wsr_test``,
``sir_test`` and ``AlarmRateTracker`` window by window.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateWindow,
    DomainError,
    EmptyAfterZeroRemoval,
    InvalidParameter,
    SmallSampleWarning,
)
from .gaussian import std_normal_quantile, two_sided_p

#: below these effective sizes the normal approximations degrade; tests still
#: run but flag the outcome and emit a SmallSampleWarning.
WSR_MIN_EFFECTIVE = 20
SIR_MIN_DIFFERENCES = 25

#: residual values per argsort call in ``wsr_scan`` (a chunk holds
#: SCAN_CHUNK_VALUES // window windows), which bounds its scratch memory
SCAN_CHUNK_VALUES = 1 << 15


class WindowBuffer:
    """Fixed-capacity sliding window of residual scalars, oldest first.

    Once the buffer is full, pushes evict the oldest entry; ``values()`` is
    then a window for ``wsr_test`` and ``sir_test``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidParameter(f"window capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._buf = deque(maxlen=self.capacity)

    def push(self, value: float) -> None:
        self._buf.append(float(value))

    @property
    def full(self) -> bool:
        return len(self._buf) == self.capacity

    def values(self) -> np.ndarray:
        """Window contents in arrival order."""
        return np.array(self._buf, dtype=float)


@dataclass
class SignedRanks:
    ranks: np.ndarray   # aligned with ``values``
    values: np.ndarray  # nonzero inputs in original order
    ell_eff: int


def signed_ranks(values) -> SignedRanks:
    """Rank absolute values ascending from 1, zeros removed, ties averaged.

    Exact zeros are dropped (reducing the effective length); exactly tied
    absolute values all receive the arithmetic mean of the ranks they span.
    Tie means are computed as (first + last)/2 so total rank mass stays exact
    in floating point.
    """
    v = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise InvalidParameter("window contains non-finite values")
    kept = v[v != 0.0]
    n = kept.size
    if n == 0:
        raise EmptyAfterZeroRemoval("all values in the window are exactly zero")
    a = np.abs(kept)
    order = np.argsort(a, kind="stable")
    a_sorted = a[order]
    cuts = np.flatnonzero(a_sorted[1:] != a_sorted[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [n]))
    group_rank = (starts + 1 + ends) / 2.0
    ranks_sorted = np.repeat(group_rank, ends - starts)
    ranks = np.empty(n)
    ranks[order] = ranks_sorted
    return SignedRanks(ranks=ranks, values=kept, ell_eff=n)


def wsr_moments(ell: int):
    """Null mean and variance of either signed rank sum for ``ell`` values."""
    mean = (ell * ell + ell) / 4.0
    var = (ell * ell + ell) * (2 * ell + 1) / 24.0
    return mean, var


@dataclass
class WsrOutcome:
    w_plus: float
    w_minus: float
    ell_eff: int
    z: float
    p: float
    alarm: bool
    small_sample: bool = False


def wsr_test(window, alpha_des: float) -> WsrOutcome:
    """Signed-rank symmetry test over one full window.

    Computes the rank sums of positive and negative residuals, the z-score of
    the smaller sum against the null moments, and a two-sided p-value. Alarm
    when p < alpha_des.
    """
    _check_alpha(alpha_des)
    sr = signed_ranks(window)
    w_plus = float(sr.ranks[sr.values > 0.0].sum())
    w_minus = float(sr.ranks[sr.values < 0.0].sum())
    ell = sr.ell_eff
    small = ell < WSR_MIN_EFFECTIVE
    if small:
        warnings.warn(
            f"signed-rank window has only {ell} nonzero values; normal "
            "approximation is unreliable below "
            f"{WSR_MIN_EFFECTIVE}",
            SmallSampleWarning,
            stacklevel=2,
        )
    mean, var = wsr_moments(ell)
    w_min = w_plus if w_plus <= w_minus else w_minus
    z = (w_min - mean) / math.sqrt(var)
    p = two_sided_p(z)
    return WsrOutcome(
        w_plus=w_plus,
        w_minus=w_minus,
        ell_eff=ell,
        z=z,
        p=p,
        alarm=p < alpha_des,
        small_sample=small,
    )


def wsr_bounds(ell: int, alpha_des: float):
    """Alarm-free interval for either rank sum at the given false-alarm rate.

    The test alarms exactly when min/max of the rank sums leave
    [omega_minus, omega_plus]; equivalent to the p-value rule.
    """
    if ell < 1:
        raise InvalidParameter(f"window length must be >= 1, got {ell}")
    _check_alpha(alpha_des)
    mean, var = wsr_moments(ell)
    half = abs(std_normal_quantile(alpha_des / 2.0)) * math.sqrt(var)
    return mean - half, mean + half


def runs_moments(n_obs: int):
    """Null mean and variance of the runs count for ``n_obs`` observations.

    The classical runs-up-and-down moments are parameterized by the number of
    observations; a sign sequence of M differences spans M + 1 observations.
    """
    mean = (2 * n_obs - 1) / 3.0
    var = (16 * n_obs - 29) / 90.0
    return mean, var


@dataclass
class SirOutcome:
    n_runs: int
    ell_prime_eff: int
    z: float
    p: float
    alarm: bool
    tie_alarm: bool
    small_sample: bool = False


def count_runs(signs) -> int:
    """Number of maximal same-sign blocks: 1 + adjacent sign changes."""
    signs = np.asarray(signs)
    if signs.size == 0:
        return 0
    return 1 + int(np.count_nonzero(signs[1:] != signs[:-1]))


def sir_test(window, alpha_des: float) -> SirOutcome:
    """Serial-independence runs test on the signs of residual differences.

    Differences that are exactly zero are dropped and flag ``tie_alarm``
    (two equal consecutive residuals have probability zero under clean
    continuous noise, so an exact tie is itself an alarm). The remaining sign
    sequence is tested for too few or too many runs. Alarm when p < alpha_des
    or a tie was seen.
    """
    _check_alpha(alpha_des)
    d = np.diff(np.asarray(window, dtype=float).ravel())
    nonzero = d != 0.0
    tie_alarm = bool(np.any(~nonzero))
    d = d[nonzero]
    m = d.size
    if m < 2:
        raise DegenerateWindow(
            f"only {m} nonzero residual differences remain; need at least 2"
        )
    small = m < SIR_MIN_DIFFERENCES
    if small:
        warnings.warn(
            f"runs window has only {m} nonzero differences; normal "
            f"approximation is unreliable below {SIR_MIN_DIFFERENCES}",
            SmallSampleWarning,
            stacklevel=2,
        )
    n_runs = count_runs(np.sign(d))
    mean, var = runs_moments(m + 1)
    z = (n_runs - mean) / math.sqrt(var)
    p = two_sided_p(z)
    return SirOutcome(
        n_runs=n_runs,
        ell_prime_eff=m,
        z=z,
        p=p,
        alarm=(p < alpha_des) or tie_alarm,
        tie_alarm=tie_alarm,
        small_sample=small,
    )


def sir_bounds(ell_prime: int, alpha_des: float):
    """Alarm-free interval for the runs count given ``ell_prime`` differences."""
    if ell_prime < 2:
        raise InvalidParameter(f"need at least 2 differences, got {ell_prime}")
    _check_alpha(alpha_des)
    mean, var = runs_moments(ell_prime + 1)
    half = abs(std_normal_quantile(alpha_des / 2.0)) * math.sqrt(var)
    return mean - half, mean + half


def _check_alpha(alpha_des: float) -> None:
    if not 0.0 < alpha_des <= 1.0:
        raise DomainError(f"alpha_des must lie in (0, 1], got {alpha_des!r}")


def _check_rate_args(window: int, alpha_tau: float) -> None:
    if window < 1:
        raise InvalidParameter(f"rate window must be >= 1, got {window}")
    if not 0.0 < alpha_tau <= 1.0:
        raise InvalidParameter(f"alpha_tau must lie in (0, 1], got {alpha_tau}")


class AlarmRateTracker:
    """Sliding alarm-rate ring with a compromised-sensor threshold.

    The observed rate is the fraction of alarms over the last ``window``
    verdicts; once the ring is full, a rate above ``alpha_tau`` marks the
    sensor compromised.
    """

    def __init__(self, window: int, alpha_tau: float):
        _check_rate_args(window, alpha_tau)
        self.window = int(window)
        self.alpha_tau = float(alpha_tau)
        self._ring = deque(maxlen=self.window)
        self._true_count = 0

    def update(self, alarm: bool) -> float:
        """Push one verdict and return the current rate."""
        alarm = bool(alarm)
        if len(self._ring) == self.window:
            self._true_count -= self._ring[0]
        self._ring.append(alarm)
        self._true_count += alarm
        return self.rate

    @property
    def rate(self) -> float:
        if not self._ring:
            return 0.0
        return self._true_count / len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) == self.window

    @property
    def compromised(self) -> bool:
        return self.full and self.rate > self.alpha_tau


# --- whole-array scoring ------------------------------------------------------------


def wsr_scan(r, ell: int, alpha_des: float):
    """``wsr_test`` on every full window of each column of ``r`` (steps x sensors).

    Returns ``(p, alarm)`` shaped like ``r``: row k scores the window ending
    at step k, rows before ``ell - 1`` are NaN, alarms are 0/1 floats, and a
    window of zeros alarms with a NaN p-value. Windows of distinct, nonzero,
    finite magnitudes are ranked by a stable argsort in chunks: their ranks
    are exactly 1..ell, so W+ is an integer sum and z and p carry the bytes
    ``wsr_test`` gives. Every other window, and every window below
    ``WSR_MIN_EFFECTIVE``, goes through ``wsr_test`` itself, with its
    warnings and its error on non-finite values.
    """
    return _scan(r, ell, alpha_des, _wsr_batch, wsr_test, EmptyAfterZeroRemoval)


def sir_scan(r, ell: int, alpha_des: float):
    """``sir_test`` on every full window of each column of ``r`` (steps x sensors).

    Returns ``(p, alarm)`` as ``wsr_scan`` does; a window with fewer than two
    nonzero differences alarms with a NaN p-value. Where every difference in
    a window is nonzero and finite, the runs count is 1 plus a difference of
    prefix sums of sign changes. Windows with a zero (tied) or non-finite
    difference, and every window below ``SIR_MIN_DIFFERENCES``, go through
    ``sir_test`` itself.
    """
    return _scan(r, ell, alpha_des, _sir_batch, sir_test, DegenerateWindow)


def _scan(r, ell: int, alpha_des: float, batch, test, degenerate):
    """Score every full window of each column of ``r``.

    ``batch(column, ell)`` returns the windows it cannot take and the
    z-scores of the others; ``test`` runs on each window it cannot take, and
    a ``degenerate`` window alarms with p = NaN.
    """
    _check_alpha(alpha_des)
    if ell < 1:
        raise InvalidParameter(f"window length must be >= 1, got {ell}")
    r = np.asarray(r, dtype=float)
    if r.ndim != 2:
        raise InvalidParameter(f"residuals must be a (steps, sensors) array, got shape {r.shape}")
    p = np.full(r.shape, np.nan)
    alarm = np.full(r.shape, np.nan)
    if r.shape[0] < ell:
        return p, alarm
    for i in range(r.shape[1]):
        col_p, col_alarm = p[ell - 1:, i], alarm[ell - 1:, i]
        fallback, z = batch(r[:, i], ell)
        # one two_sided_p per distinct z: rank sums and runs counts take few values
        distinct, inverse = np.unique(z, return_inverse=True)
        col_p[~fallback] = np.array([two_sided_p(float(v)) for v in distinct])[inverse.ravel()]
        col_alarm[~fallback] = col_p[~fallback] < alpha_des
        windows = sliding_window_view(r[:, i], ell)
        for a in np.flatnonzero(fallback):
            try:
                outcome = test(windows[a], alpha_des)
                col_p[a], col_alarm[a] = outcome.p, outcome.alarm
            except degenerate:
                col_p[a], col_alarm[a] = math.nan, True
    return p, alarm


def _wsr_batch(column, ell: int):
    windows = sliding_window_view(column, ell)
    fallback = np.ones(windows.shape[0], dtype=bool)
    if ell < WSR_MIN_EFFECTIVE:
        return fallback, np.empty(0)
    w_plus = np.empty(windows.shape[0], dtype=np.int64)
    ranks = np.arange(1, ell + 1)
    chunk = max(1, SCAN_CHUNK_VALUES // ell)
    for a in range(0, windows.shape[0], chunk):
        win = windows[a:a + chunk]
        mag = np.abs(win)
        order = np.argsort(mag, axis=1, kind="stable")
        mag = np.take_along_axis(mag, order, axis=1)
        # zeros sort first; inf and NaN sort last
        fallback[a:a + chunk] = ((mag[:, 0] == 0.0) | ~np.isfinite(mag[:, -1])
                                 | (mag[:, 1:] == mag[:, :-1]).any(axis=1))
        w_plus[a:a + chunk] = np.take_along_axis(win > 0.0, order, axis=1) @ ranks
    w_plus = w_plus[~fallback]
    w_min = np.minimum(w_plus, ell * (ell + 1) // 2 - w_plus).astype(float)
    mean, var = wsr_moments(ell)
    return fallback, (w_min - mean) / math.sqrt(var)


def _sir_batch(column, ell: int):
    m = ell - 1
    if m < SIR_MIN_DIFFERENCES:
        return np.ones(column.shape[0] - m, dtype=bool), np.empty(0)
    # window a holds the differences d[a:a+m] and the sign changes c[a:a+m-1]
    d = np.diff(column)
    bad = _prefix_sum((d == 0.0) | ~np.isfinite(d))
    fallback = bad[m:] != bad[:-m]
    sign = np.sign(d)
    changes = _prefix_sum(sign[1:] != sign[:-1])
    n_runs = 1 + changes[m - 1:] - changes[:1 - m]
    mean, var = runs_moments(m + 1)
    return fallback, (n_runs[~fallback] - mean) / math.sqrt(var)


def alarm_rate_scan(flags, window: int, alpha_tau: float):
    """An ``AlarmRateTracker`` fed each column of ``flags`` (verdicts x sensors) in order.

    Returns ``(rate, final, compromised)``: the sliding rate after each
    verdict (NaN until ``window`` verdicts exist), and per sensor the
    tracker's last ``rate`` and its ``compromised`` flag.
    """
    _check_rate_args(window, alpha_tau)
    flags = np.asarray(flags, dtype=bool)
    n, s = flags.shape
    rate = np.full((n, s), np.nan)
    if n < window:
        final = flags.sum(axis=0) / n if n else np.zeros(s)
        return rate, final, np.zeros(s, dtype=bool)
    for i in range(s):
        counts = _prefix_sum(flags[:, i])
        rate[window - 1:, i] = (counts[window:] - counts[:-window]) / window
    return rate, rate[-1].copy(), rate[-1] > alpha_tau


def _prefix_sum(x) -> np.ndarray:
    """Integer prefix sums of a 1-D array, with a leading zero."""
    return np.concatenate(([0], np.cumsum(x, dtype=np.int64)))
