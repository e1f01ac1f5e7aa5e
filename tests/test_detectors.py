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
    BadDataDetector,
    CusumDetector,
    HALF_NORMAL_MEAN_FACTOR,
    _cusum_alarms,
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
