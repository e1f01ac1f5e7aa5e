"""Sliding-window randomness monitors on per-sensor residual streams.

Two nonparametric tests run on each full window: a signed-rank test for
symmetry of the residual about zero, and a runs test on the signs of
consecutive residual differences for serial independence. Both reduce to a
z-score against closed-form null moments and a two-sided p-value; an alarm
fires when the p-value drops below the desired false-alarm rate.

``wsr_scan``, ``sir_scan`` and ``alarm_rate_scan`` score a whole recorded
residual array at once, with the same bytes as running ``wsr_test``,
``sir_test`` and ``AlarmRateTracker`` window by window. They call none of
them: every window, of any length and with any ties or zeros, is batched.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateWindow, EmptyAfterZeroRemoval, SmallSampleWarning
from .gaussian import std_normal_quantile, two_sided_p
from .lti import array_arg, count_problem, rate_problem, require

#: below these effective sizes the normal approximations degrade; tests still
#: run but flag the outcome and emit a SmallSampleWarning.
WSR_MIN_EFFECTIVE = 20
SIR_MIN_DIFFERENCES = 25

#: residual values per comparison block of ``wsr_scan``'s slide (a block holds
#: SCAN_CHUNK_VALUES // window windows), which bounds its scratch memory
SCAN_CHUNK_VALUES = 1 << 15


class WindowBuffer:
    """Fixed-capacity sliding window of residual scalars, oldest first.

    Once the buffer is full, pushes evict the oldest entry; ``values()`` is
    then a window for ``wsr_test`` and ``sir_test``.
    """

    def __init__(self, capacity: int):
        require("window capacity", count_problem(capacity, 1))
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
    in floating point. ``values`` are finite numbers, a number or a flat list.
    """
    v = array_arg("values", values, (0, 1)).ravel()
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
    require("alpha_des", rate_problem(alpha_des, allow_one=True))
    sr = signed_ranks(array_arg("window", window, (0, 1)))
    w_plus = float(sr.ranks[sr.values > 0.0].sum())
    w_minus = float(sr.ranks[sr.values < 0.0].sum())
    ell = sr.ell_eff
    small = _small_sample("signed-rank", [ell], "values", WSR_MIN_EFFECTIVE)
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
    require("window length", count_problem(ell, 1))
    require("alpha_des", rate_problem(alpha_des, allow_one=True))
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
    require("alpha_des", rate_problem(alpha_des, allow_one=True))
    d = np.diff(array_arg("window", window, (0, 1)).ravel())
    nonzero = d != 0.0
    tie_alarm = bool(np.any(~nonzero))
    d = d[nonzero]
    m = d.size
    if m < 2:
        raise DegenerateWindow(
            f"only {m} nonzero residual differences remain; need at least 2"
        )
    small = _small_sample("runs", [m], "differences", SIR_MIN_DIFFERENCES)
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
    require("ell_prime", count_problem(ell_prime, 2))
    require("alpha_des", rate_problem(alpha_des, allow_one=True))
    mean, var = runs_moments(ell_prime + 1)
    half = abs(std_normal_quantile(alpha_des / 2.0)) * math.sqrt(var)
    return mean - half, mean + half


def _small_sample(test: str, sizes, counted: str, minimum: int) -> bool:
    """Whether a size in ``sizes`` is below ``minimum``; warn once for each such nonzero size."""
    small = sorted({n for n in sizes if 0 < n < minimum})
    for n in small:
        warnings.warn(f"{test} window has only {n} nonzero {counted}; normal approximation "
                      f"is unreliable below {minimum}", SmallSampleWarning, stacklevel=3)
    return bool(small)


class AlarmRateTracker:
    """Sliding alarm-rate ring with a compromised-sensor threshold.

    The observed rate is the fraction of alarms over the last ``window``
    verdicts; once the ring is full, a rate above ``alpha_tau`` marks the
    sensor compromised.
    """

    def __init__(self, window: int, alpha_tau: float):
        require("rate window", count_problem(window, 1))
        require("alpha_tau", rate_problem(alpha_tau, allow_one=True))
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
    window of zeros alarms with a NaN p-value. Twice W+ is the integer
    2 #{i <= j: r_i + r_j > 0} + #{i < j: r_i + r_j = 0} over the window's
    nonzero values (positive Walsh averages, a half count per zero sum): twice
    ``wsr_test``'s midrank sum, with ties and dropped zeros. The first window
    is counted from one sort, and each later one adds the pairs of its
    incoming value and drops those of the outgoing one, in blocks of
    ``SCAN_CHUNK_VALUES`` values.
    """
    return _scan(r, ell, alpha_des, _wsr_batch)


def sir_scan(r, ell: int, alpha_des: float):
    """``sir_test`` on every full window of each column of ``r`` (steps x sensors).

    Returns ``(p, alarm)`` as ``wsr_scan`` does. A window's runs count is 1
    plus a difference of prefix sums of sign changes over the column's nonzero
    differences. A zero difference alarms (the tie alarm) and keeps the p-value;
    under two nonzero differences, a window alarms with a NaN p-value.
    """
    return _scan(r, ell, alpha_des, _sir_batch)


def _scan(r, ell: int, alpha_des: float, batch):
    """Score every full window of each column of ``r``, one ``batch`` call per column.

    ``batch(column, ell)`` returns the distinct z-scores (NaN: no statistic),
    whether each alarms whatever its p-value and each window's index into
    them, and warns once per distinct effective size below the small-sample
    size. A non-finite value raises, also in a stream shorter than one window.
    """
    require("alpha_des", rate_problem(alpha_des, allow_one=True))
    require("window length", count_problem(ell, 1))
    r = array_arg("r", r, (2,))  # steps x sensors
    p, alarm = np.full(r.shape, np.nan), np.full(r.shape, np.nan)
    if r.shape[0] < ell:
        return p, alarm
    for i in range(r.shape[1]):
        z, forced, inverse = batch(r[:, i], ell)
        # one two_sided_p per distinct z: rank sums and runs counts take few values
        p_z = np.array([two_sided_p(float(v)) for v in z])
        p[ell - 1:, i], alarm[ell - 1:, i] = p_z[inverse], ((p_z < alpha_des) | forced)[inverse]
    return p, alarm


def _wsr_batch(column, ell: int):
    nonzero = _prefix_sum(column != 0.0)
    n = nonzero[ell:] - nonzero[:-ell]
    # a NaN in place of each zero fails every comparison, so it pairs with nothing
    v = np.where(column == 0.0, np.nan, column)
    head = np.sort(v[:ell])[:n[0]]
    below, upto = np.searchsorted(head, -head, "left"), np.searchsorted(head, -head, "right")
    twice_w = np.empty(n.size, dtype=np.int64)
    # the ordered pairs count each i < j twice, and the diagonal needs a second count
    twice_w[0] = (np.sum(2 * n[0] - below - upto) + 2 * np.count_nonzero(head > 0.0)) // 2
    windows = sliding_window_view(v, ell)
    chunk = max(1, SCAN_CHUNK_VALUES // ell)
    for a in range(0, n.size - 1, chunk):
        b = min(a + chunk, n.size - 1)
        twice_w[a + 1:b + 1] = _pairs(windows[a + 1:b + 1], -1) - _pairs(windows[a:b], 0)
    twice_w = np.cumsum(twice_w)
    _small_sample("signed-rank", n[n < WSR_MIN_EFFECTIVE].tolist(), "values", WSR_MIN_EFFECTIVE)
    mean, var = wsr_moments(np.where(n > 0, n, np.nan))  # a window of zeros has no statistic
    w_min = np.minimum(twice_w, n * (n + 1) - twice_w) / 2.0
    z, inverse = np.unique((w_min - mean) / np.sqrt(var), return_inverse=True)
    return z, np.isnan(z), inverse


def _pairs(windows, at: int):
    """2 #{j: w_j > -w_at} + #{j: w_j = -w_at} for each window w: the pairs of w_at in twice W+."""
    x = -windows[:, at, None]
    return np.count_nonzero(windows > x, axis=1) + np.count_nonzero(windows >= x, axis=1)


def _sir_batch(column, ell: int):
    d = np.diff(column)
    nonzero = d != 0.0
    # window a holds the nonzero differences lo..hi-1 of the column, in order
    count = _prefix_sum(nonzero)
    lo, hi = count[:count.size - ell + 1], count[ell - 1:]
    up = (d > 0.0)[nonzero]
    changes = _prefix_sum(np.diff(up, append=up[-1:]))  # up.size + 1 entries: lo reaches up.size
    # the sign changes and m = hi - lo < ell of a window in one integer, scored once each
    codes, inverse = np.unique((changes[hi - 1] - changes[lo]) * ell + hi - lo, return_inverse=True)
    n_changes, m = np.divmod(codes, ell)
    _small_sample("runs", m[m >= 2].tolist(), "differences", SIR_MIN_DIFFERENCES)
    mean, var = runs_moments(np.where(m >= 2, m + 1.0, np.nan))  # under two, no statistic
    return (n_changes + 1 - mean) / np.sqrt(var), m < max(2, ell - 1), inverse


def alarm_rate_scan(flags, window: int, alpha_tau: float):
    """An ``AlarmRateTracker`` fed each column of ``flags`` (verdicts x sensors) in order.

    Returns ``(rate, final, compromised)``: the sliding rate after each verdict (NaN until
    ``window`` verdicts exist), and per sensor the tracker's last ``rate`` and its
    ``compromised`` flag. ``flags`` is a bool array, or finite numbers that alarm when nonzero.
    """
    require("rate window", count_problem(window, 1))
    require("alpha_tau", rate_problem(alpha_tau, allow_one=True))
    bools = isinstance(flags, np.ndarray) and flags.dtype == bool and flags.ndim == 2
    flags = flags if bools else array_arg("flags", flags, (2,)) != 0.0
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
