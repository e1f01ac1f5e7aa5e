import math
import re
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import scipy.stats as st

from randmon.errors import (
    DegenerateWindow,
    EmptyAfterZeroRemoval,
    InvalidParameter,
    SmallSampleWarning,
)
from randmon.monitors import (
    AlarmRateTracker,
    WindowBuffer,
    count_runs,
    runs_moments,
    signed_ranks,
    sir_bounds,
    sir_test,
    wsr_bounds,
    wsr_moments,
    wsr_test,
)

Z_975 = 1.959964  # published normal table value


# --- signed ranks ---------------------------------------------------------------------


def test_signed_ranks_distinct():
    out = signed_ranks([-1.2, 0.5, 3.0])
    np.testing.assert_array_equal(out.ranks, [2.0, 1.0, 3.0])
    assert out.ell_eff == 3


def test_signed_ranks_tie_averaging():
    out = signed_ranks([2.0, -2.0, 1.0])
    np.testing.assert_array_equal(out.ranks, [2.5, 2.5, 1.0])
    assert out.ell_eff == 3


def test_signed_ranks_zero_removal_with_ties():
    out = signed_ranks([0.0, -0.7, 0.7, 0.7])
    np.testing.assert_array_equal(out.ranks, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(out.values, [-0.7, 0.7, 0.7])
    assert out.ell_eff == 3


def test_signed_ranks_all_zero():
    with pytest.raises(EmptyAfterZeroRemoval):
        signed_ranks([0.0, 0.0])


def test_signed_ranks_against_scipy_rankdata():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = rng.integers(2, 40)
        vals = rng.normal(0, 1, n)
        # force some exact ties and zeros
        if n > 6:
            vals[1] = -vals[0]
            vals[3] = vals[2]
            vals[5] = 0.0
        kept = vals[vals != 0.0]
        if kept.size == 0:
            continue
        expected = st.rankdata(np.abs(kept), method="average")
        out = signed_ranks(vals)
        np.testing.assert_allclose(out.ranks, expected, rtol=0, atol=0)


def test_rank_mass_conserved_exactly():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        vals = np.round(rng.normal(0, 1, n), 1)  # coarse grid forces ties
        try:
            out = signed_ranks(vals)
        except EmptyAfterZeroRemoval:
            continue
        total = out.ell_eff * (out.ell_eff + 1) / 2.0
        assert out.ranks.sum() == total  # exact, including tie-averaged ranks


def test_wsr_statistic_matches_naive_oracle():
    # naive sort-and-sum rank computation for small distinct-value windows
    rng = np.random.default_rng(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallSampleWarning)
        for _ in range(500):
            n = int(rng.integers(2, 11))
            vals = rng.normal(0, 1, n)
            order = sorted(range(n), key=lambda i: abs(vals[i]))
            naive_w_plus = sum(rank for rank, i in enumerate(order, start=1) if vals[i] > 0)
            out = wsr_test(vals, 0.05)
            assert out.w_plus == naive_w_plus


# --- signed-rank test -----------------------------------------------------------------


def test_wsr_moments_window_20():
    mean, var = wsr_moments(20)
    assert mean == 105.0
    assert var == 717.5


def test_wsr_antisymmetric_window_is_quiet():
    base = np.arange(1.0, 16.0)
    window = np.concatenate([base, -base])  # every +v paired with -v
    out = wsr_test(window, 0.05)
    assert out.w_plus == out.w_minus
    assert out.z == 0.0
    assert out.p == 1.0
    assert not out.alarm


def test_wsr_all_positive_window_alarms():
    vals = np.linspace(0.5, 3.0, 25)
    out = wsr_test(vals, 0.05)
    assert out.w_minus == 0.0
    mean, var = 25 * 26 / 4.0, 25 * 26 * 51 / 24.0
    assert abs(out.z - (0.0 - mean) / math.sqrt(var)) < 1e-12
    assert abs(out.z + 4.3724) < 1e-3
    assert out.p < 1e-4
    assert out.alarm


def test_wsr_sign_flip_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        vals = rng.normal(0.3, 1, 30)
        a = wsr_test(vals, 0.05)
        b = wsr_test(-vals, 0.05)
        assert a.p == b.p
        assert a.w_plus == b.w_minus and a.w_minus == b.w_plus


def test_wsr_bounds_degenerate_alpha():
    lo, hi = wsr_bounds(50, 1.0)
    assert lo == hi == 50 * 51 / 4.0


def test_wsr_bounds_window_100():
    lo, hi = wsr_bounds(100, 0.05)
    half = Z_975 * math.sqrt(10100 * 201 / 24.0)
    assert abs(lo - (2525.0 - half)) < 1e-3
    assert abs(hi - (2525.0 + half)) < 1e-3


def test_wsr_pvalue_and_bounds_agree():
    rng = np.random.default_rng(4)
    lo, hi = wsr_bounds(60, 0.1)
    for _ in range(2000):
        vals = rng.normal(0, 1, 60)
        out = wsr_test(vals, 0.1)
        bound_alarm = min(out.w_plus, out.w_minus) < lo
        assert out.alarm == bound_alarm
        assert bound_alarm == (max(out.w_plus, out.w_minus) > hi)


def test_wsr_small_sample_flag():
    with pytest.warns(SmallSampleWarning):
        out = wsr_test(np.random.default_rng(5).normal(0, 1, 10), 0.05)
    assert out.small_sample


# --- runs moments: the observation-count convention ------------------------------------


def test_runs_moments_match_exact_enumeration():
    # Exhaustive check over all orderings: with n observations (n - 1
    # differences) the classical formulas hold with parameter n.
    for n in range(4, 8):
        total = 0
        count = math.factorial(n)
        sq = 0
        for perm in permutations(range(n)):
            runs = count_runs(np.sign(np.diff(perm)))
            total += runs
            sq += runs * runs
        mean = Fraction(total, count)
        var = Fraction(sq, count) - mean * mean
        expect_mean, expect_var = runs_moments(n)
        assert mean == Fraction(2 * n - 1, 3)
        assert abs(float(mean) - expect_mean) < 1e-12
        assert abs(float(var) - expect_var) < 1e-12


def test_runs_moments_values():
    mean, var = runs_moments(25)
    assert abs(mean - 49.0 / 3.0) < 1e-12
    assert abs(var - 371.0 / 90.0) < 1e-12


# --- runs test ------------------------------------------------------------------------


def test_sir_monotone_window_alarms():
    out = sir_test(np.linspace(0.0, 1.0, 40) + 0.01, 0.05)
    assert out.n_runs == 1
    assert out.alarm
    assert out.p < 1e-10


def test_sir_alternating_window():
    # 31 values alternating up/down: 30 differences, all sign changes
    vals = np.array([(-1.0) ** k * (1.0 + 0.01 * k) for k in range(31)])
    out = sir_test(vals, 0.05)
    assert out.ell_prime_eff == 30
    assert out.n_runs == 30
    mean, var = runs_moments(31)
    assert abs(out.z - (30 - mean) / math.sqrt(var)) < 1e-12
    assert out.p < 1e-4
    assert out.alarm


def test_sir_tie_alarm():
    vals = np.random.default_rng(6).normal(0, 1, 40)
    vals[20] = vals[19]  # exact repeat: zero difference
    out = sir_test(vals, 0.05)
    assert out.tie_alarm
    assert out.alarm


def test_sir_degenerate_window():
    with pytest.raises(DegenerateWindow):
        sir_test(np.ones(30), 0.05)


def test_sir_bounds_degenerate_alpha():
    lo, hi = sir_bounds(30, 1.0)
    assert lo == hi == (2 * 31 - 1) / 3.0


def test_sir_bounds_99_differences():
    lo, hi = sir_bounds(99, 0.05)
    center = (2 * 100 - 1) / 3.0
    half = Z_975 * math.sqrt((16 * 100 - 29) / 90.0)
    assert abs(lo - (center - half)) < 1e-3
    assert abs(hi - (center + half)) < 1e-3


def test_sir_pvalue_and_bounds_agree():
    rng = np.random.default_rng(7)
    lo, hi = sir_bounds(49, 0.1)
    for _ in range(2000):
        vals = rng.normal(0, 1, 50)
        out = sir_test(vals, 0.1)
        assert not out.tie_alarm
        assert out.alarm == (out.n_runs < lo or out.n_runs > hi)


def test_sir_reversal_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        vals = rng.normal(0, 1, 40)
        assert sir_test(vals, 0.05).n_runs == sir_test(vals[::-1], 0.05).n_runs


def test_sir_small_sample_flag():
    with pytest.warns(SmallSampleWarning):
        out = sir_test(np.random.default_rng(9).normal(0, 1, 15), 0.05)
    assert out.small_sample


def test_alpha_domain_checks():
    vals = np.random.default_rng(10).normal(0, 1, 30)
    for bad in (0.0, -0.1, 1.5):
        message = rf"^alpha_des: must be a number in \(0, 1\], got {re.escape(repr(bad))}$"
        with pytest.raises(InvalidParameter, match=message):
            wsr_test(vals, bad)
        with pytest.raises(InvalidParameter, match=message):
            sir_test(vals, bad)


# --- calibration against i.i.d. feeds ---------------------------------------------------


def test_monitor_calibration_iid_100k():
    # One pass computes the p-value streams; alarm rates for each desired
    # false-alarm level follow by thresholding.
    rng = np.random.default_rng(20_240_101)
    data = rng.standard_normal(100_000)
    ell = 100
    win = WindowBuffer(ell)
    wsr_p, sir_p = [], []
    for v in data:
        win.push(v)
        if win.full:
            vals = win.values()
            wsr_p.append(wsr_test(vals, 0.05).p)
            sir_p.append(sir_test(vals, 0.05).p)
    wsr_p = np.asarray(wsr_p)
    sir_p = np.asarray(sir_p)
    for alpha in (0.05, 0.20):
        assert abs((wsr_p < alpha).mean() - alpha) < 0.03
        assert abs((sir_p < alpha).mean() - alpha) < 0.03


def test_wsr_moment_monte_carlo():
    rng = np.random.default_rng(11)
    ell = 50
    vals = rng.standard_normal((30_000, ell))
    # vectorized rank computation (continuous draws: no ties)
    order = np.argsort(np.abs(vals), axis=1)
    ranks = np.empty_like(order)
    rows = np.arange(vals.shape[0])[:, None]
    ranks[rows, order] = np.arange(1, ell + 1)
    w_plus = np.where(vals > 0, ranks, 0).sum(axis=1)
    mean, var = wsr_moments(ell)
    assert abs(w_plus.mean() - mean) / mean < 0.02
    assert abs(w_plus.var() - var) / var < 0.02


def test_runs_moment_monte_carlo():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((30_000, 50))
    signs = np.sign(np.diff(vals, axis=1))
    runs = 1 + (signs[:, 1:] != signs[:, :-1]).sum(axis=1)
    mean, var = runs_moments(50)
    assert abs(runs.mean() - mean) / mean < 0.02
    assert abs(runs.var() - var) / var < 0.02


# --- window and tracker plumbing --------------------------------------------------------


def test_window_buffer_eviction_order():
    win = WindowBuffer(3)
    for v in (1.0, 2.0, 3.0):
        win.push(v)
    assert win.full
    np.testing.assert_array_equal(win.values(), [1.0, 2.0, 3.0])
    win.push(4.0)
    np.testing.assert_array_equal(win.values(), [2.0, 3.0, 4.0])


def test_window_buffer_not_full():
    win = WindowBuffer(5)
    win.push(1.0)
    assert not win.full
    np.testing.assert_array_equal(win.values(), [1.0])


def test_tracker_single_alarm_rate():
    tr = AlarmRateTracker(100, alpha_tau=0.15)
    for _ in range(100):
        tr.update(False)
    assert tr.update(True) == 0.01


def test_tracker_alternating():
    tr = AlarmRateTracker(50, alpha_tau=0.9)
    for k in range(200):
        tr.update(k % 2 == 0)
    assert tr.rate == 0.5
    assert not tr.compromised


def test_tracker_bernoulli_long_run():
    rng = np.random.default_rng(13)
    tr = AlarmRateTracker(100, alpha_tau=0.5)
    rates = []
    for _ in range(10_000):
        tr.update(bool(rng.random() < 0.05))
        if tr.full:
            rates.append(tr.rate)
    assert abs(np.mean(rates) - 0.05) < 0.01


def test_tracker_compromised_flag():
    tr = AlarmRateTracker(10, alpha_tau=0.3)
    for _ in range(10):
        tr.update(True)
    assert tr.compromised
