"""The whole-array scans against the per-window tests they replace in the harness.

``wsr_scan``/``sir_scan`` must give the bytes of a loop of ``wsr_test``/
``sir_test`` over the same windows (a degenerate window alarming with a NaN
p-value), and ``alarm_rate_scan`` the rates of an ``AlarmRateTracker`` fed the
same verdicts. The residual columns carry exact zeros, mirrored (tied)
magnitudes, equal neighbours and flat stretches, which the scans score in the
same batch as every other window, without calling the per-window tests. Window
lengths run from 1 up, across both tests' small-sample sizes.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randmon import monitors
from randmon.config import load_config_dict
from randmon.errors import (
    DegenerateWindow,
    EmptyAfterZeroRemoval,
    InvalidParameter,
    SmallSampleWarning,
)
from randmon.monitors import (
    AlarmRateTracker,
    WindowBuffer,
    alarm_rate_scan,
    sir_scan,
    sir_test,
    wsr_bounds,
    wsr_scan,
    wsr_test,
)
from randmon.harness import run_scenario

SCANS = ((wsr_scan, wsr_test, EmptyAfterZeroRemoval), (sir_scan, sir_test, DegenerateWindow))


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


def no_per_window_tests():
    never = mock.Mock(side_effect=AssertionError("per-window test called"))
    return mock.patch.multiple(monitors, wsr_test=never, sir_test=never)


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


@pytest.mark.parametrize("scan", [wsr_scan, sir_scan], ids=["wsr_scan", "sir_scan"])
def test_scans_reject_non_finite_stream_shorter_than_a_window(scan):
    with pytest.raises(InvalidParameter, match="non-finite"):  # not a NaN result
        scan([[math.nan]] * 5, 10, 0.05)


def test_alarm_rate_scan_takes_a_2d_array_of_bools_or_numbers():
    for flags in (np.zeros(10, dtype=bool), [True, False], [["a"]]):
        with pytest.raises(InvalidParameter, match="^flags: "):
            alarm_rate_scan(flags, 1, 0.5)
    for flags in (np.array([[True], [False]]), [[1.0], [0.0]]):
        rate, final, compromised = alarm_rate_scan(flags, 1, 0.5)
        assert (rate.tolist(), final.tolist(), compromised.tolist()) == ([[1.0], [0.0]], [0.0],
                                                                         [False])


#: window lengths that are not integers, which the library used to truncate, score or
#: fail on with a bare TypeError
BAD_WINDOWS = {
    "wsr_scan-1.5": lambda: wsr_scan(np.ones((50, 1)), 1.5, 0.05),
    "sir_scan-bool": lambda: sir_scan(np.ones((50, 1)), True, 0.05),
    "wsr_bounds-1.5": lambda: wsr_bounds(1.5, 0.05),
    "alarm_rate_scan-2.5": lambda: alarm_rate_scan(np.zeros((10, 1), dtype=bool), 2.5, 0.1),
    "AlarmRateTracker-2.5": lambda: AlarmRateTracker(2.5, 0.1),
    "WindowBuffer-2.5": lambda: WindowBuffer(2.5),
}


@pytest.mark.parametrize("call", BAD_WINDOWS.values(), ids=BAD_WINDOWS.keys())
def test_window_lengths_must_be_integers(call):
    with pytest.raises(InvalidParameter, match="window.* must be an integer >= 1"):
        call()


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
    with no_per_window_tests():
        for scan, minimum in ((wsr_scan, monitors.WSR_MIN_EFFECTIVE),
                              (sir_scan, monitors.SIR_MIN_DIFFERENCES + 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                p, _ = scan(r, ell, 0.05)
            assert not np.isnan(p[ell - 1:]).any()
            small = [w for w in caught if issubclass(w.category, SmallSampleWarning)]
            assert len(small) == (r.shape[1] if ell < minimum else 0)


def assert_scans_match_per_window(scanned, r, ell, alpha_des):
    for (p, alarm), (_, test, degenerate) in zip(scanned, SCANS):
        p_ref, alarm_ref = per_window(test, degenerate, r, ell, alpha_des)
        assert p.tobytes() == p_ref.tobytes()
        assert alarm.tobytes() == alarm_ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=residual_columns(), alpha_des=st.sampled_from((0.05, 0.2)))
def test_tied_and_zero_windows_never_reach_the_per_window_tests(case, alpha_des):
    ell, r = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with no_per_window_tests():
            scanned = [scan(r, ell, alpha_des) for scan, _, _ in SCANS]
        assert_scans_match_per_window(scanned, r, ell, alpha_des)


@pytest.mark.parametrize("kind", ["worst_case_bdd", "worst_case_cusum"])
def test_worst_case_run_scores_its_tied_windows_in_the_batch(kind):
    """A detector-only worst-case attack pins sensor 0's residual, so its windows tie."""
    cfg = load_config_dict({"plant": {"preset": "ugv"}, "detectors": {"kind": "both"},
                            "attacks": [{"kind": kind, "sensors": [0], "start": 150}],
                            "horizon": 400, "seed": 3})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with no_per_window_tests():
            artifacts = run_scenario(cfg)
        for t, (_, test, degenerate) in zip(("wsr", "sir"), SCANS):
            p_ref, alarm_ref = per_window(test, degenerate, artifacts.r, cfg.window,
                                          cfg.alpha_des[t])
            assert artifacts.p[t].tobytes() == p_ref.tobytes()
            assert artifacts.alarm[t].tobytes() == alarm_ref.tobytes()
    assert (np.diff(artifacts.r[150:, 0]) == 0.0).any()


@pytest.mark.parametrize("short", [0, 1], ids=["ell=steps", "ell=steps-1"])
def test_window_as_long_as_the_column_matches_per_window_tests(short):
    r = np.random.default_rng(11).standard_normal((500, 2))
    r[[5, 77, 300], 0] = 0.0
    r[10:20, 0] = -r[30:40, 0]
    r[50:60, 1] = r[49, 1]
    r[100:110, 1] = -r[200:210, 1]
    r[0, 0], r[-1, 1] = -r[250, 0], -r[3, 1]  # the slide drops or adds a zero sum
    ell = r.shape[0] - short
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_scans_match_per_window([scan(r, ell, 0.05) for scan, _, _ in SCANS], r, ell, 0.05)


def test_wsr_scan_of_two_million_values_carries_wsr_test_bytes():
    """(n^2 + n)(2n + 1) overflows int64 at this size; z and p must not."""
    r = np.random.default_rng(5).standard_normal((2_000_000, 1))
    r[::1000, 0] = 0.0
    r[1::1000, 0] = -r[2::1000, 0]
    p, alarm = wsr_scan(r, r.shape[0], 0.05)
    outcome = wsr_test(r[:, 0], 0.05)
    assert outcome.ell_eff > 1_700_000
    assert p[-1].tobytes() == np.float64(outcome.p).tobytes()
    assert alarm[-1, 0] == outcome.alarm


@pytest.mark.parametrize("scan, test, degenerate", SCANS, ids=["wsr", "sir"])
def test_small_windows_warn_once_per_distinct_size(scan, test, degenerate):
    r = np.random.default_rng(8).standard_normal((400, 1))
    r[150:240, 0] = 0.0  # windows over this stretch keep from 10 to 100 nonzero values
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in range(99, r.shape[0]):
            try:
                test(r[k - 99:k + 1, 0], 0.05)
            except degenerate:
                pass
        expected = {str(w.message) for w in caught if issubclass(w.category, SmallSampleWarning)}
        caught.clear()
        scan(r, 100, 0.05)
    got = [str(w.message) for w in caught if issubclass(w.category, SmallSampleWarning)]
    assert len(expected) > 1
    assert sorted(got) == sorted(expected)


def test_scans_before_first_full_window():
    r = np.ones((5, 2))
    for scan in (wsr_scan, sir_scan):
        p, alarm = scan(r, 10, 0.05)
        assert np.isnan(p).all() and np.isnan(alarm).all()
    rate, final, compromised = alarm_rate_scan(np.zeros((0, 2)), 5, 0.15)
    assert rate.shape == (0, 2)
    assert final.tolist() == [0.0, 0.0] and compromised.tolist() == [False, False]
