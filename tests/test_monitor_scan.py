"""The whole-array scans against the per-window tests they replace in the harness.

``wsr_scan``/``sir_scan`` must give the bytes of a loop of ``wsr_test``/
``sir_test`` over the same windows (a degenerate window alarming with a NaN
p-value), and ``alarm_rate_scan`` the rates of an ``AlarmRateTracker`` fed the
same verdicts. The residual columns carry exact zeros, mirrored (tied)
magnitudes, equal neighbours and flat stretches, so both the batch path and
the per-window fallback are exercised, often inside one column. Window lengths
run from 1 up, across both tests' small-sample sizes, which the batch path
scores too.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randmon import monitors
from randmon.errors import (
    DegenerateWindow,
    EmptyAfterZeroRemoval,
    InvalidParameter,
    SmallSampleWarning,
)
from randmon.monitors import (
    AlarmRateTracker,
    alarm_rate_scan,
    sir_scan,
    sir_test,
    wsr_scan,
    wsr_test,
)


@st.composite
def residual_columns(draw):
    ell = draw(st.integers(1, 40))
    steps = ell + draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed).standard_normal((steps, 2))
    edits = draw(st.lists(
        st.tuples(st.sampled_from(("zero", "mirror", "repeat", "flat", "zeros")),
                  st.integers(0, steps - 1), st.integers(0, steps - 1), st.integers(0, 1)),
        max_size=8,
    ))
    for kind, k, j, i in edits:
        if kind == "zero":
            r[k, i] = 0.0
        elif kind == "mirror":
            r[k, i] = -r[j, i]
        elif kind == "repeat":
            r[k, i] = r[k - 1, i]
        elif kind == "flat":
            r[k:k + ell, i] = r[k, i]
        else:
            r[k:k + ell, i] = 0.0
    return ell, r


def per_window(test, degenerate, r, ell, alpha_des):
    p = np.full(r.shape, np.nan)
    alarm = np.full(r.shape, np.nan)
    for i in range(r.shape[1]):
        for k in range(ell - 1, r.shape[0]):
            try:
                outcome = test(r[k - ell + 1:k + 1, i], alpha_des)
                p[k, i], alarm[k, i] = outcome.p, outcome.alarm
            except degenerate:
                p[k, i], alarm[k, i] = math.nan, True
    return p, alarm


def tracker_rates(flags, window, alpha_tau):
    rate = np.full(flags.shape, np.nan)
    final, compromised = [], []
    for i in range(flags.shape[1]):
        tracker = AlarmRateTracker(window, alpha_tau)
        for k, flag in enumerate(flags[:, i]):
            tracker.update(flag)
            if tracker.full:
                rate[k, i] = tracker.rate
        final.append(tracker.rate)
        compromised.append(tracker.compromised)
    return rate, final, compromised


@settings(max_examples=300, deadline=None)
@given(case=residual_columns(), alpha_des=st.sampled_from((0.01, 0.05, 0.2, 1.0)),
       small_chunks=st.booleans())
def test_scans_match_per_window_tests(case, alpha_des, small_chunks):
    ell, r = case
    chunk = 64 if small_chunks else monitors.SCAN_CHUNK_VALUES
    with warnings.catch_warnings(), mock.patch.object(monitors, "SCAN_CHUNK_VALUES", chunk):
        warnings.simplefilter("ignore")
        for scan, test, degenerate in ((wsr_scan, wsr_test, EmptyAfterZeroRemoval),
                                       (sir_scan, sir_test, DegenerateWindow)):
            p, alarm = scan(r, ell, alpha_des)
            p_ref, alarm_ref = per_window(test, degenerate, r, ell, alpha_des)
            assert p.tobytes() == p_ref.tobytes()
            assert alarm.tobytes() == alarm_ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(flags=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=80),
       window=st.integers(1, 30), alpha_tau=st.sampled_from((0.05, 0.15, 0.5, 1.0)))
def test_rate_scan_matches_tracker(flags, window, alpha_tau):
    flags = np.array(flags, dtype=float).reshape(-1, 2)
    rate, final, compromised = alarm_rate_scan(flags, window, alpha_tau)
    rate_ref, final_ref, compromised_ref = tracker_rates(flags, window, alpha_tau)
    assert rate.tobytes() == rate_ref.tobytes()
    assert final.tolist() == final_ref
    assert compromised.tolist() == compromised_ref


def test_scan_long_column_with_ties_matches_per_window_tests():
    rng = np.random.default_rng(4)
    r = rng.standard_normal((3000, 2))
    r[rng.integers(0, 3000, 20), 0] = 0.0
    r[500:540, 1] = r[499, 1]
    for scan, test, degenerate in ((wsr_scan, wsr_test, EmptyAfterZeroRemoval),
                                   (sir_scan, sir_test, DegenerateWindow)):
        p, alarm = scan(r, 100, 0.05)
        p_ref, alarm_ref = per_window(test, degenerate, r, 100, 0.05)
        assert p.tobytes() == p_ref.tobytes()
        assert alarm.tobytes() == alarm_ref.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("scan", [wsr_scan, sir_scan], ids=["wsr_scan", "sir_scan"])
def test_scans_reject_non_finite_window(scan, bad):
    r = np.random.default_rng(0).standard_normal((300, 1))
    r[250, 0] = bad
    with pytest.raises(InvalidParameter, match="non-finite"):
        scan(r, 100, 0.05)


def test_sir_test_rejects_non_finite_window():
    window = np.random.default_rng(0).standard_normal(40)
    window[17] = np.nan
    with pytest.raises(InvalidParameter, match="non-finite"):
        sir_test(window, 0.05)


@pytest.mark.parametrize("ell", [3, 12, 19, 25])
def test_short_tie_free_windows_take_the_batch_path(ell):
    """Below the small-sample sizes a clean column reaches neither per-window test."""
    r = np.random.default_rng(ell).standard_normal((200, 2))
    assert (r != 0.0).all() and len(np.unique(np.abs(r))) == r.size
    assert (np.diff(r, axis=0) != 0.0).all()
    never = mock.Mock(side_effect=AssertionError("per-window test called"))
    with mock.patch.object(monitors, "wsr_test", never), \
            mock.patch.object(monitors, "sir_test", never):
        for scan, minimum in ((wsr_scan, monitors.WSR_MIN_EFFECTIVE),
                              (sir_scan, monitors.SIR_MIN_DIFFERENCES + 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                p, _ = scan(r, ell, 0.05)
            assert not np.isnan(p[ell - 1:]).any()
            small = [w for w in caught if issubclass(w.category, SmallSampleWarning)]
            assert len(small) == (r.shape[1] if ell < minimum else 0)


def test_scans_before_first_full_window():
    r = np.ones((5, 2))
    for scan in (wsr_scan, sir_scan):
        p, alarm = scan(r, 10, 0.05)
        assert np.isnan(p).all() and np.isnan(alarm).all()
    rate, final, compromised = alarm_rate_scan(np.zeros((0, 2)), 5, 0.15)
    assert rate.shape == (0, 2)
    assert final.tolist() == [0.0, 0.0] and compromised.tolist() == [False, False]
