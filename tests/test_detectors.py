import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randmon.config import build_plant, load_config
from randmon.detectors import (
    CUSUM_BLOCK,
    CUSUM_MIN_SAMPLES,
    CUSUM_SUB_BLOCK,
    BadDataDetector,
    CusumDetector,
    HALF_NORMAL_MEAN_FACTOR,
    _cusum_alarms,
    _cusum_step,
    cusum_alarm_fraction,
    tune_bdd,
    tune_cusum,
)
from randmon.errors import InvalidParameter
from randmon.lti import solve_dare

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- bad-data threshold -----------------------------------------------------------------


def test_tune_bdd_always_alarm_limit():
    assert tune_bdd(1.0, 1.0) == 0.0


def test_tune_bdd_table_value():
    assert abs(tune_bdd(1.0, 0.05) - 1.959964) < 1e-5


def test_tune_bdd_scaling():
    assert abs(tune_bdd(2.5, 0.05) - 2.5 * tune_bdd(1.0, 0.05)) < 1e-12


def test_tune_bdd_domain():
    with pytest.raises(InvalidParameter, match=r"^alpha_des: must be a number in \(0, 1\], got 0\.0$"):
        tune_bdd(1.0, 0.0)
    with pytest.raises(InvalidParameter, match=r"^alpha_des: must be a number in \(0, 1\], got 1\.5$"):
        tune_bdd(1.0, 1.5)
    with pytest.raises(InvalidParameter):
        tune_bdd(-1.0, 0.05)


def test_tune_bdd_monte_carlo_rate():
    sigma, alpha = 0.7, 0.05
    tau = tune_bdd(sigma, alpha)
    rng = np.random.Generator(np.random.Philox(123))
    draws = sigma * rng.standard_normal(1_000_000)
    rate = (np.abs(draws) > tau).mean()
    assert abs(rate - alpha) < 0.002


def test_bdd_step_strict_inequality():
    det = BadDataDetector.tuned([1.0], 0.05)
    tau = det.tau[0]
    assert not det.step([0.0])[0]
    assert not det.step([tau])[0]          # equality stays quiet
    assert det.step([-(tau + 1e-12)])[0]   # absolute value, strict exceedance


# --- half-normal facts used by both detectors --------------------------------------------


def test_half_normal_moments_iid():
    sigma = 1.3
    rng = np.random.Generator(np.random.Philox(7))
    a = np.abs(sigma * rng.standard_normal(1_000_000))
    assert abs(a.mean() - HALF_NORMAL_MEAN_FACTOR * sigma) / (HALF_NORMAL_MEAN_FACTOR * sigma) < 0.01
    expected_var = sigma * sigma * (1.0 - 2.0 / math.pi)
    assert abs(a.var() - expected_var) / expected_var < 0.02


# --- cusum recursion ----------------------------------------------------------------------


def test_cusum_step_clamps_at_zero():
    det = CusumDetector(tau=[1.0], bias=[0.9])
    alarm = det.step([0.5])  # |r| < b keeps S at zero
    assert not alarm[0]
    assert det.S[0] == 0.0


def test_cusum_step_reset_on_alarm():
    det = CusumDetector(tau=[1.0], bias=[0.9], S=[1.1])
    alarm = det.step([100.0])  # previous S decides; the new residual is ignored
    assert alarm[0]
    assert det.S[0] == 0.0


def test_cusum_step_no_alarm_at_threshold():
    det = CusumDetector(tau=[1.0], bias=[0.9], S=[1.0])
    assert not det.step([0.0])[0]


def test_cusum_linear_ramp():
    b, c, tau = 0.8, 0.25, 10.0
    det = CusumDetector(tau=[tau], bias=[b])
    for k in range(1, 30):
        det.step([b + c])
        if k * c > tau:
            break
        assert abs(det.S[0] - k * c) < 1e-12


def test_cusum_nonnegative_and_alarm_causality():
    rng = np.random.default_rng(3)
    det = CusumDetector(tau=[0.8], bias=[0.5])
    prev_S = det.S[0]
    for r in rng.normal(0, 1, 5000):
        alarm = det.step([r])[0]
        assert det.S[0] >= 0.0
        if alarm:
            assert prev_S > 0.8
        prev_S = det.S[0]


def test_cusum_determinism():
    rng = np.random.default_rng(4)
    stream = rng.normal(0, 1, 2000)
    outs = []
    for _ in range(2):
        det = CusumDetector(tau=[0.5], bias=[0.6])
        outs.append([det.step([r])[0] for r in stream])
    assert outs[0] == outs[1]


# --- cusum alarm-fraction kernel against the scalar recursion ----------------------------


def scalar_cusum_fraction(deltas, tau):
    """Reference: the CUSUM recursion one step at a time in Python floats."""
    s = 0.0
    alarms = 0
    for d in deltas:
        if s > tau:
            alarms += 1
            s = 0.0
        else:
            s += d
            if s < 0.0:
                s = 0.0
    return alarms / len(deltas)


@st.composite
def increment_streams(draw):
    # lengths just below, at and just above a multiple of the block size, or anywhere
    n = draw(st.one_of(
        st.builds(lambda k, off: max(1, k * CUSUM_BLOCK + off),
                  st.integers(0, 5), st.sampled_from((-1, 0, 1))),
        st.integers(1, 6 * CUSUM_BLOCK),
    ))
    tau = draw(st.sampled_from((0.0, 0.25, 2.0, 40.0, 1e300)))
    drift = draw(st.sampled_from((-1.0, -0.3, -0.05, 0.0, 0.2)))
    seed = draw(st.integers(0, 2**32 - 1))
    deltas = np.random.default_rng(seed).standard_normal(n) + drift
    specials = st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, tau, -tau))
    for k, value in draw(st.lists(st.tuples(st.integers(0, n - 1), specials), max_size=6)):
        deltas[k] = value
    return deltas, tau


@settings(max_examples=300, deadline=None)
@given(increment_streams(), st.booleans())
def test_cusum_alarm_fraction_matches_scalar_recursion(stream, as_list):
    deltas, tau = stream
    values = deltas.tolist()
    got = cusum_alarm_fraction(values if as_list else deltas, tau)
    assert type(got) is float and got == scalar_cusum_fraction(values, tau)


@settings(max_examples=200, deadline=None)
@given(increment_streams(), st.lists(st.tuples(st.sampled_from((0.3, 1.0, 2.5)),
                                               st.sampled_from((-0.5, 0.0, 0.79, 0.8, 1.2)),
                                               st.sampled_from((0.0, 0.25, 2.0, math.inf))),
                                     min_size=1, max_size=3))
def test_cusum_kernel_steps_scaled_recursions_side_by_side(stream, recursions):
    # as tune_cusum calls it: recursion i sees (x * scale[i]) - shift[i], no bias
    x, _ = stream
    scale, shift, tau = (np.array(column) for column in zip(*recursions))
    full = x.size - x.size % CUSUM_BLOCK
    with np.errstate(all="ignore"):
        got = _cusum_alarms(x[:full].reshape(-1, CUSUM_BLOCK).T, x[full:], tau,
                            scale=scale, shift=shift)
        want = [scalar_cusum_fraction(((x * sc) - sh).tolist(), t) for sc, sh, t in recursions]
    assert [count / x.size for count in got] == want


def test_cusum_alarm_fraction_errors():
    with pytest.raises(InvalidParameter, match="empty increment stream"):
        cusum_alarm_fraction([], 1.0)
    with pytest.raises(InvalidParameter, match="empty increment stream"):
        cusum_alarm_fraction(np.array([]), 0.0)
    with pytest.raises(InvalidParameter, match="tau must be nonnegative"):
        cusum_alarm_fraction([0.5] * 3, -0.1)
    with pytest.raises(InvalidParameter, match="tau must be nonnegative"):
        cusum_alarm_fraction([], -1.0)  # tau is checked before the stream
    for out in (np.empty(200), np.empty(300, dtype=int), [0.0] * 300):  # S would be lost
        with pytest.raises(InvalidParameter, match=r"out must be a float64 array of x's shape "
                                                   r"\(300,\)"):
            cusum_alarm_fraction(np.ones(300), 1.0, out=out)
    with pytest.raises(InvalidParameter, match=r"of x's shape \(300, 2\)"):
        cusum_alarm_fraction(np.ones((300, 2)), [1.0, 1.0], [0.0, 0.0], out=np.empty(300))
    for tau, bias in (([1.0], [0.0, 0.0]), ([1.0, 1.0], 0.0), (1.0, [0.0, 0.0])):
        with pytest.raises(InvalidParameter, match="one entry per column of x"):
            cusum_alarm_fraction(np.ones((300, 2)), tau, bias)
    with pytest.raises(InvalidParameter, match="^tau: must be a number for a 1-D x"):
        cusum_alarm_fraction(np.ones(300), [1.0], 0.0)


def test_cusum_alarm_fraction_non_finite_stream_is_silent():
    deltas = np.full(3 * CUSUM_BLOCK + 7, 1e308)  # overflows to inf
    deltas[CUSUM_BLOCK + 3] = -math.inf             # inf + -inf gives NaN
    deltas[2 * CUSUM_BLOCK + 1] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (0.0, 1e308, math.inf):
            got = cusum_alarm_fraction(deltas, tau)
            assert got == scalar_cusum_fraction(deltas.tolist(), tau)


def test_cusum_threshold_rejects_nan_and_keeps_inf():
    with pytest.raises(InvalidParameter, match="tau must be nonnegative"):
        CusumDetector(tau=[0.5, math.nan], bias=[1.0, 1.0])
    with pytest.raises(InvalidParameter, match="tau must be nonnegative"):
        cusum_alarm_fraction([0.5] * 3, math.nan)
    assert not CusumDetector(tau=[math.inf], bias=[0.0]).step([1e308])[0]
    assert cusum_alarm_fraction([1e308] * 3, math.inf) == 0.0


# --- the kernel's statistic against the live detector ------------------------------------


@st.composite
def residual_streams(draw):
    """Residual rows with per-sensor bias and tau, some specials, at and around block edges."""
    n = draw(st.one_of(
        st.builds(lambda k, off: max(1, k * CUSUM_BLOCK + off),
                  st.integers(0, 4), st.sampled_from((-1, 0, 1))),
        st.integers(1, 5 * CUSUM_BLOCK),
    ))
    s = draw(st.integers(1, 3))
    tau = draw(st.lists(st.sampled_from((0.0, 0.3, 2.0, 40.0, math.inf)), min_size=s, max_size=s))
    # E|r| is 0.798 for unit residuals: biases 0.79 and 0.8 give excursions that
    # outlast a block, so the fix-up walks carry S across block edges
    bias = draw(st.lists(st.sampled_from((0.0, 0.5, 0.79, 0.8, 1.5)), min_size=s, max_size=s))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, s))
    specials = st.sampled_from((-0.0, math.nan, math.inf, -math.inf, 1e308, -1e308))
    for k, i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, s - 1),
                                               specials), max_size=6)):
        r[k, i] = value
    return r, tau, bias


@settings(max_examples=200, deadline=None)
@given(residual_streams())
def test_cusum_kernel_statistic_matches_detector_steps(stream):
    r, tau, bias = stream
    det = CusumDetector(tau=tau, bias=bias)
    want_s, want_alarm = np.empty_like(r), np.empty(r.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for k, row in enumerate(r):
            want_alarm[k] = det.step(row)
            want_s[k] = det.S
    got_s = np.full_like(r, -1.0, order="F")  # column-major: every sensor's blocks are strided
    fractions = cusum_alarm_fraction(np.abs(r), tau, bias, out=got_s)
    assert fractions.tolist() == (np.count_nonzero(want_alarm, axis=0) / r.shape[0]).tolist()
    got_alarm = np.zeros(r.shape, dtype=bool)
    got_alarm[1:] = got_s[:-1] > det.tau
    assert got_s.tobytes() == want_s.tobytes()
    assert got_alarm.tobytes() == want_alarm.tobytes()


# --- the kernel's carry walks on the paths tune_cusum and score_residuals take -----------


def scalar_cusum_path(d, tau, bias=0.0):
    """Reference: every S and the alarm count of the ``_cusum_step`` loop over ``d``."""
    s, path, alarms = 0.0, [], 0
    for x in d:
        s, alarm = _cusum_step(s, x, bias, tau)
        path.append(s)
        alarms += alarm
    return path, alarms


def block_walks(d, tau, length, bias=0.0):
    """Per block of ``length`` steps of the ``_cusum_step`` loop: the true S leaving it, the S
    leaving it from zero, and whether the two differ before every step (a walk that runs to
    the block's end)."""
    d, blocks, s = np.asarray(d).tolist(), [], 0.0
    for k in range(len(d) // length):
        z, apart = 0.0, True
        for x in d[k * length:(k + 1) * length]:
            apart = apart and s != z
            s, z = _cusum_step(s, x, bias, tau)[0], _cusum_step(z, x, bias, tau)[0]
        blocks.append((s, z, apart))
    return blocks


def rising_stream(n, seed):
    """Increments of 0.05 to about 0.1: S climbs for blocks on end and alarms above 40."""
    return 0.05 + 0.02 * np.abs(np.random.default_rng(seed).standard_normal(n))


def rewalked_stream(n, length, seed):
    """Increments whose block 2 is walked twice, the second walk shorter than the first.

    Block 1 ends at 7 from its carry 1 and at 6 from zero, both above tau = 5, so the
    first round walks block 2 from 6 and the second from 7. From 6 S alarms at once and
    differs from the zero-started S until both clamp at step 41; from 7 it alarms at once
    too and meets the walk from 6 after one step.
    """
    d = np.random.default_rng(seed).uniform(-1.0, 1.2, n)
    d[:3 * length] = 0.0
    d[length - 1], d[2 * length - 1] = 1.0, 6.0
    d[2 * length], d[2 * length + 1:2 * length + 41], d[2 * length + 41] = 1.0, 0.5, -100.0
    return d


def with_specials(d, length):
    """``d`` with NaN, inf and -inf at steps inside blocks 2 to 4."""
    d = d.copy()
    d[2 * length + 10], d[3 * length + 30], d[4 * length - 5] = math.nan, math.inf, -math.inf
    return d


def scaled_kernel(x, tau, scale, shift, length):
    """``_cusum_alarms`` as ``tune_cusum`` calls it on a time-major store of |z|: blocks of
    ``CUSUM_BLOCK`` steps, read as blocks of ``length`` steps in turn."""
    full = x.size - x.size % CUSUM_BLOCK
    blocks = np.empty((CUSUM_BLOCK, full // CUSUM_BLOCK + 1))[:, :-1]  # a store's full blocks
    blocks[:] = x[:full].reshape(-1, CUSUM_BLOCK).T
    if length < CUSUM_BLOCK:
        blocks = blocks.reshape(CUSUM_BLOCK // length, length, blocks.shape[1]).transpose(1, 0, 2)
    with np.errstate(all="ignore"):
        return _cusum_alarms(blocks, x[full:], np.array(tau), scale=np.array(scale),
                             shift=np.array(shift))


KERNEL_LENGTHS = [k * CUSUM_BLOCK + off for k in (4, 5) for off in (-1, 0, 1)]
KERNEL_STREAMS = {
    "rising": lambda n, length: (rising_stream(n, n), 40.0),
    "rewalked": lambda n, length: (rewalked_stream(n, length, n), 5.0),
    "rising-specials": lambda n, length: (with_specials(rising_stream(n, n), length), 40.0),
    "rewalked-specials": lambda n, length: (with_specials(rewalked_stream(n, length, n), length),
                                            5.0),
}


def check_stream_shape(name, d, tau, length):
    """The walk each stream is built for happens in the scalar loop itself."""
    blocks = block_walks(d, tau, length)
    if name.startswith("rising"):  # a carry that crosses three blocks or more without meeting
        assert all(apart for _, _, apart in blocks[1:4])
    else:  # block 2 walked from its zero-started carry 6, then from its true carry 7
        assert blocks[1][:2] == (7.0, 6.0) and blocks[1][2]


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
@pytest.mark.parametrize("name", sorted(KERNEL_STREAMS))
@pytest.mark.parametrize("length", [CUSUM_BLOCK, CUSUM_SUB_BLOCK])
def test_cusum_kernel_scaled_walks_match_scalar_loop(name, n, length):
    # tune_cusum's path: recursion i steps (x * scale[i]) - shift[i]; the full stream in
    # CUSUM_BLOCK blocks, its first 1/8 as blocks of CUSUM_SUB_BLOCK steps in turn
    d, tau = KERNEL_STREAMS[name](n, length)
    check_stream_shape(name, d, tau, length)
    x = d + 100.0
    scale, shift, taus = [1.0, 1.0, 2.0], [100.0, 99.5, 200.0], [tau, tau, 2.0 * tau]
    with np.errstate(all="ignore"):
        want = [scalar_cusum_path(((x * sc) - sh).tolist(), t)[1]
                for sc, sh, t in zip(scale, shift, taus)]
    assert scaled_kernel(x, taus, scale, shift, length) == want


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
@pytest.mark.parametrize("name", sorted(KERNEL_STREAMS))
def test_cusum_kernel_recorded_walks_match_scalar_loop(name, n):
    # score_residuals' path: |r| per sensor with a bias, S recorded after every step
    d, tau = KERNEL_STREAMS[name](n, CUSUM_SUB_BLOCK)
    check_stream_shape(name, d, tau, CUSUM_SUB_BLOCK)
    r = np.column_stack((d + 100.0, d[::-1] + 100.0))
    got = np.full_like(r, -1.0)
    with np.errstate(all="ignore"):
        fractions = cusum_alarm_fraction(np.abs(r), [tau, tau], [100.0, 100.0], out=got)
        want = [scalar_cusum_path(np.abs(column).tolist(), tau, 100.0) for column in r.T]
    assert fractions.tolist() == [alarms / n for _, alarms in want]
    assert got.T.tobytes() == np.array([path for path, _ in want]).tobytes()


def test_cusum_kernel_matches_scalar_loop_on_nans_of_two_payloads():
    # Where two NaN payloads meet on one statistic, numpy's and Python's float adds may keep
    # different ones: the counts must be the _cusum_step loop's, the recorded S NaN where the
    # loop's is and every finite S the loop's bytes.
    nan_a, nan_b = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)
    n, length, tau, bias = 5 * CUSUM_SUB_BLOCK + 7, CUSUM_SUB_BLOCK, 3.0, 0.01
    x = np.column_stack([rising_stream(n, seed) for seed in (1, 2, 3)])
    path = scalar_cusum_path(x[:, 2].tolist(), tau, bias)[0]
    first_alarm = next(k for k, s in enumerate(path, 1) if s > tau)  # S[k - 1] first above tau
    x[2 * length + 10, 0], x[3 * length + 5, 0] = nan_a, nan_b  # meet inside the blocks
    x[n - 5, 1], x[n - 2, 1] = nan_b, nan_a  # meet in the tail
    x[first_alarm, 2], x[3 * length - 1, 2], x[4 * length, 2] = nan_a, nan_b, nan_a
    got = np.full_like(x, -1.0)
    with np.errstate(all="ignore"):
        fractions = cusum_alarm_fraction(x, [tau] * 3, [bias] * 3, out=got)
        paths, alarms = zip(*(scalar_cusum_path(column.tolist(), tau, bias) for column in x.T))
    want = np.array(paths).T
    assert want[first_alarm, 2] == 0.0  # an alarm step resets S without reading its NaN
    assert fractions.tolist() == [count / n for count in alarms] and all(alarms)
    assert np.isnan(want).any(axis=0).all()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()


# --- cusum tuning -------------------------------------------------------------------------


def test_tune_cusum_invalid_bias():
    message = (r"^bias / sigma: must exceed sqrt\(2/pi\) = 0\.797885 for a CUSUM detector, "
               r"got 0\.5$")
    with pytest.raises(InvalidParameter, match=message):
        tune_cusum(1.0, 0.5, 0.05)  # below sqrt(2/pi)


def test_tune_cusum_rejects_small_sample():
    with pytest.raises(InvalidParameter):
        tune_cusum(1.0, 1.5, 0.05, n_samples=10_000)


def test_tune_cusum_huge_bias_reports_floor():
    # drift so negative the statistic never rises: best threshold is zero and
    # the achieved rate is reported as-is
    out = tune_cusum(1.0, 10.0, 0.05, seed=5)
    assert out.tau == 0.0
    assert out.achieved_rate < 0.05


def test_tune_cusum_held_out_validation():
    sigma, bias, alpha = 1.0, 1.5, 0.05
    tuning = tune_cusum(sigma, bias, alpha, seed=11)
    assert abs(tuning.achieved_rate - alpha) <= 0.05 * alpha
    rng = np.random.Generator(np.random.Philox(999_331))  # fresh seed
    deltas = (sigma * np.abs(rng.standard_normal(1_000_000)) - bias).tolist()
    held_out = cusum_alarm_fraction(deltas, tuning.tau)
    assert abs(held_out - alpha) < 0.005


def test_cusum_rate_monotone_in_threshold():
    rng = np.random.Generator(np.random.Philox(17))
    deltas = (np.abs(rng.standard_normal(400_000)) - 1.2).tolist()
    rates = [cusum_alarm_fraction(deltas, tau) for tau in (0.0, 0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


# Exact tuning results (tau.hex(), achieved_rate, iterations) per sensor of the
# shipped configs at their CUSUM alpha, bias and tuning seed; any change to the
# recursion's rounding or to the search moves them.
PINNED_CONFIG_TUNINGS = {
    "ugv_noattack": [
        ("0x1.330730484d879p-7", 0.052199, 5),
        ("0x1.30102b62e8f3ap-8", 0.052199, 5),
        ("0x1.e67d9d19c4a9cp-8", 0.052199, 5),
    ],
    "ugv_stealthy_randaware": [
        ("0x1.5ee3a4e4eae41p-9", 0.019754, 4),
        ("0x1.5b8031959c843p-10", 0.019754, 4),
        ("0x1.15fea2ea273c7p-9", 0.019754, 4),
    ],
    "ugv_three_phase": [
        ("0x1.072abbabb02b1p-9", 0.100127, 6),
        ("0x1.04a0253035632p-10", 0.100127, 6),
        ("0x1.a0fdf45f3adaap-10", 0.100127, 6),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIG_TUNINGS))
def test_tune_cusum_pinned_for_shipped_configs(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    sigma = solve_dare(build_plant(cfg.plant_spec)).sigma
    got = []
    for sig in sigma:
        out = tune_cusum(float(sig), float(cfg.bias_scale * sig), cfg.alpha_des["cusum"],
                         n_samples=cfg.tuning_samples, seed=cfg.tuning_seed)
        got.append((out.tau.hex(), out.achieved_rate, out.iterations))
    assert got == PINNED_CONFIG_TUNINGS[name]


@pytest.mark.parametrize("args, seed, expected", [
    ((1.0, 10.0, 0.05), 5, ("0x0.0p+0", 0.0, 1)),                     # tau = 0 floor
    ((0.3, 0.25, 0.05), 3, ("0x1.0ccccccccccccp-1", 0.049301, 5)),   # weak drift, long excursions
    # drift -0.0009 per step: excursions outlast a block, so fix-up walks carry
    # the statistic across block boundaries (53 times on the final full stream)
    ((1.0, 0.799, 0.005), 3, ("0x1.e000000000000p+2", 0.005235, 8)),
])
def test_tune_cusum_pinned_edge_cases(args, seed, expected):
    out = tune_cusum(*args, seed=seed)
    assert (out.tau.hex(), out.achieved_rate, out.iterations) == expected


@pytest.mark.parametrize("name", sorted(PINNED_CONFIG_TUNINGS))
def test_tune_cusum_array_call_matches_the_per_sensor_pins(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    sigma = solve_dare(build_plant(cfg.plant_spec)).sigma
    out = tune_cusum(sigma, cfg.bias_scale * sigma, cfg.alpha_des["cusum"],
                     n_samples=cfg.tuning_samples, seed=cfg.tuning_seed)
    pinned = PINNED_CONFIG_TUNINGS[name]
    assert [(tau.hex(), rate) for tau, rate in zip(out.tau.tolist(), out.achieved_rate.tolist())] \
        == [(tau, rate) for tau, rate, _ in pinned]
    assert type(out.iterations) is int and out.iterations == max(n for _, _, n in pinned)


def test_tune_cusum_array_call_keeps_each_sensors_own_search():
    # The tau = 0 floor stops after one evaluation, the weak drift runs long
    # excursions and the 0.799 bias walks across block boundaries for 8
    # iterations: the searches diverge, and each row is its scalar call's own.
    sigma, bias = np.array([1.0, 0.3, 1.0]), np.array([10.0, 0.25, 0.799])
    out = tune_cusum(sigma, bias, 0.005, seed=3)
    alone = [tune_cusum(sig, b, 0.005, seed=3) for sig, b in zip(sigma.tolist(), bias.tolist())]
    assert out.tau.tolist() == [t.tau for t in alone]
    assert out.achieved_rate.tolist() == [t.achieved_rate for t in alone]
    assert out.iterations == max(t.iterations for t in alone) == 8
    assert (alone[0].tau, alone[0].iterations) == (0.0, 1)
    assert (out.tau[2].hex(), out.achieved_rate[2]) == ("0x1.e000000000000p+2", 0.005235)


def test_tune_cusum_per_entry_alphas_equal_separate_calls(monkeypatch):
    # A sweep's tuning: every sensor at every alpha, one entry each, over one draw. Every
    # entry asks for tau = 0 first, the 10.0 bias stops there at both alphas, and the
    # 0.799 bias walks across block boundaries for 8 iterations at 0.005.
    sigma, bias, alphas = [1.0, 0.3, 1.0], [10.0, 0.25, 0.799], [0.005, 0.2]
    alone = {a: tune_cusum(sigma, bias, a, seed=3) for a in alphas}
    recursions = []

    def counted(blocks, tail, tau, **kwargs):
        recursions.append(len(tau))
        return _cusum_alarms(blocks, tail, tau, **kwargs)

    monkeypatch.setattr("randmon.detectors._cusum_alarms", counted)
    out = tune_cusum(sigma * 2, bias * 2, np.repeat(alphas, 3), seed=3)
    assert out.tau.tolist() == alone[0.005].tau.tolist() + alone[0.2].tau.tolist()
    assert out.achieved_rate.tolist() == (alone[0.005].achieved_rate.tolist()
                                          + alone[0.2].achieved_rate.tolist())
    assert out.iterations == max(t.iterations for t in alone.values())
    # the first round's six tau = 0 requests are three recursions, one per (sigma, bias)
    assert recursions[0] == 3
    assert tune_cusum(1.0, 1.5, [0.05], seed=3).tau.tolist() == [tune_cusum(1.0, 1.5, 0.05,
                                                                            seed=3).tau]


@pytest.mark.parametrize("alpha, message", [
    ([0.05, 0.1], "alpha_des: must match sigma: 1-D arrays of one length, or be one number"),
    ([0.05, 0.1, 1.0], "alpha_des: must be a number in (0, 1), got 1.0"),
    ([0.05, True, 0.1], "alpha_des: must be a number in (0, 1), got [0.05, True, 0.1]"),
], ids=["length", "rate", "bool"])
def test_tune_cusum_rejects_a_bad_per_entry_alpha(alpha, message):
    with pytest.raises(InvalidParameter) as err:
        tune_cusum([1.0, 2.0, 3.0], [1.5, 3.0, 4.5], alpha)
    assert str(err.value) == message


#: tuning inputs the library used to take silently (a NaN threshold, a zero CUSUM
#: threshold and rate) or to fail on with a bare TypeError
BAD_TUNING = {
    "tune_bdd-sigma-nan": lambda: tune_bdd(math.nan, 0.05),
    "tuned-sigma-nan": lambda: BadDataDetector.tuned([math.nan], 0.05),
    "tune_cusum-sigma-nan": lambda: tune_cusum(math.nan, 1.0, 0.05),
    "tune_cusum-bias-inf": lambda: tune_cusum(1.0, math.inf, 0.05),
    "tune_cusum-n_samples-float": lambda: tune_cusum(1.0, 1.5, 0.05, n_samples=1.5e6),
}


@pytest.mark.parametrize("call", BAD_TUNING.values(), ids=BAD_TUNING.keys())
def test_tuning_rejects_non_finite_or_non_integer_inputs(call):
    with pytest.raises(InvalidParameter, match="finite|integer"):
        call()


def test_tune_cusum_rejects_unequal_arrays_and_each_low_bias():
    with pytest.raises(InvalidParameter, match="1-D arrays of one length"):
        tune_cusum([1.0, 2.0], [1.5], 0.05)
    with pytest.raises(InvalidParameter, match=r"^bias / sigma: must exceed .*, got 0\.75$"):
        tune_cusum([1.0, 2.0], [1.5, 1.5], 0.05)


def test_tune_cusum_peak_memory_is_one_shared_draw():
    # One float64 per sample: a per-sensor increment array or a transposed copy
    # of the draw would double the peak.
    sigma = np.array([1.0, 0.5, 2.0])
    tracemalloc.start()
    try:
        tune_cusum(sigma, 1.2 * sigma, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * CUSUM_MIN_SAMPLES
