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
                  rate_problem, real_array, require, sigma_array)

#: minimum Monte Carlo sample count accepted by tune_cusum
CUSUM_MIN_SAMPLES = 1_000_000

#: steps per block of tune_cusum's stored draw and of its passes over the whole stream;
#: at most 510, since the kernel counts each block's alarms (one in two steps at most) in uint8
CUSUM_BLOCK = 256

#: steps per block of the shorter passes, whose per-step overhead outweighs their arrays:
#: cusum_alarm_fraction, and tune_cusum over the first 1/8 of its stream (each stored block
#: read as CUSUM_BLOCK // CUSUM_SUB_BLOCK blocks in turn)
CUSUM_SUB_BLOCK = 64

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


def _cusum_advance(s: np.ndarray, x, bias, tau, alarm=None) -> np.ndarray:
    """``_cusum_step`` on every entry of ``s`` at once, in place; returns the alarms.

    Each entry takes the scalar recursion's own float64 operations (the sum
    is computed and then discarded where the statistic alarmed). ``bias`` None
    skips the subtraction, which is exact for a zero bias. ``alarm``, a bool
    array of s's shape, receives the alarms instead of a new array.
    """
    alarm = np.greater(s, tau, out=alarm)
    s += x
    if bias is not None:
        s -= bias
    np.maximum(s, 0.0, out=s)
    s[alarm] = 0.0
    return alarm


def _cusum_alarms(blocks, tail, tau, bias=None, scale=None, shift=None, record=None) -> list:
    """Alarm counts of m CUSUM recursions run side by side.

    ``blocks`` holds the stream's full blocks of L steps time-major and
    ``tail`` the steps after them. Without ``scale`` recursion i runs on
    stream i: ``blocks`` is ``(L, m, n_blocks)`` (``blocks[j, i, k]`` is step j
    of stream i's block k), ``tail`` is ``(t, m)`` and the increment d is the
    stream value x. With ``scale`` all recursions share one stream, ``blocks``
    is ``(L, n_blocks)``, or ``(L, q, c)`` for blocks that follow each other
    down each column (block ``k * q + p`` at ``[:, p, k]``), ``tail`` is
    ``(t,)`` and recursion i's d is ``(x * scale[i]) - shift[i]``. Recursion i
    steps ``S = max(0, (S + d) - bias[i])`` against ``tau[i]``; ``bias`` None
    skips the subtraction, which is exact for a zero bias. ``record``, a pair
    of views shaped as the unscaled ``blocks`` and ``tail``, receives every
    statistic after every step.

    ``_zero_started`` steps every block from zero, ``_carry_walks`` fixes up
    each block entered with a nonzero statistic, and the tail, shorter than a
    block, steps each recursion in Python floats from the statistic that
    really leaves its last block. Alarms are therefore the scalar recursion's
    own for any input, and so is S, except for a NaN's payload bits where two
    NaN payloads meet: numpy's and Python's adds may keep different ones.
    """
    tau = np.asarray(tau, dtype=float)
    bias = None if bias is None else np.asarray(bias, dtype=float)
    if scale is not None:
        blocks = blocks[:, None] if blocks.ndim == 2 else blocks  # (L, q, c)
        scale, shift = np.asarray(scale, dtype=float), np.asarray(shift, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ends, alarms = _zero_started(blocks, tau, bias, scale, shift, record)
        delta, leaving = _carry_walks(ends, blocks, tau, bias, scale, shift,
                                      None if record is None else record[0])
    alarms = (alarms + delta).astype(np.int64).tolist()
    for i, s in enumerate(leaving.tolist()):
        tau_i, bias_i = float(tau[i]), 0.0 if bias is None else float(bias[i])
        xs = tail[:, i] if scale is None else (tail * scale[i]) - shift[i]
        for k, x in enumerate(xs.tolist()):
            s, alarm = _cusum_step(s, x, bias_i, tau_i)
            alarms[i] += alarm
            if record is not None:
                record[1][k, i] = s
    return alarms


def _zero_started(blocks, tau, bias, scale, shift, record) -> tuple:
    """Every block's pass from a zero statistic, all side by side in numpy.

    The arguments are ``_cusum_alarms``'s own, ``blocks`` with ``scale`` as
    ``(L, q, c)``. Each step writes the alarms into one buffer, which one
    per-block counter adds up. Returns each block's statistic at its end
    (block k of recursion i at ``i * n_blocks + k``, in stream order) and
    each recursion's alarm count.
    """
    m = tau.size
    shape = (m, *blocks.shape[1 if scale is not None else 2:])
    size = int(np.prod(shape[1:]))

    def rows(v):  # each recursion's value over its blocks
        return np.repeat(v, size).reshape(shape)

    tau_rows, bias_rows = rows(tau), None if bias is None else rows(bias)
    if scale is not None:
        d, shift_rows, scale = np.empty(shape), rows(shift), scale.reshape(m, 1, 1)
    s = np.zeros(shape)
    alarm, count = np.empty(shape, dtype=bool), np.zeros(shape, dtype=np.uint8)
    for j, x in enumerate(blocks):
        if scale is not None:
            x = np.subtract(np.multiply(x, scale, out=d), shift_rows, out=d)
        np.add(count, _cusum_advance(s, x, bias_rows, tau_rows, alarm).view(np.uint8), out=count)
        if record is not None:
            record[0][j] = s
    ends = (s if scale is None else s.transpose(0, 2, 1)).reshape(-1)
    return ends, count.reshape(m, -1).sum(axis=1, dtype=float)


def _carry_walks(ends, blocks, tau, bias, scale, shift, record) -> tuple:
    """Fix up every block that is really entered with a nonzero statistic.

    ``ends`` is ``_zero_started``'s; the other arguments are
    ``_cusum_alarms``'s own, ``blocks`` with ``scale`` as ``(L, q, c)`` and
    ``record`` the blocks of the recorded statistic. A walk moves a block
    from the carry its counts and recorded S were stepped from to another:
    it steps the statistic from each together, adds the alarms from the new
    carry minus those from the old, records the new statistic, and stops
    once the two are equal (from there on they agree; NaN never compares
    equal).

    numpy first walks every block after a nonzero end from zero to that end,
    all side by side. A walk that leaves its block with another statistic
    than that end leaves the next block counted from a wrong carry. From
    each such block, in stream order, Python floats carry the true statistic
    on, walking each next block from the carry it is counted from, until a
    block leaves with the statistic the next one is counted from. Such chains
    are few and short, a numpy step costs about as much for one walk as for
    thousands, and each chain is walked once.

    Returns each recursion's alarm delta and the statistic leaving its last
    block.
    """
    m = tau.size
    size = ends.size // m
    leaving = ends[size - 1::size].copy() if size else np.zeros(m)
    rec, k = np.divmod(np.flatnonzero(ends) + 1, max(size, 1))
    rec, k = rec[k != 0], k[k != 0]  # past a recursion's last block is the tail
    q = 1 if scale is None else blocks.shape[1]
    # the open walks: their number and where blocks[j] holds their step; their S from
    # the new and from the old carry, and their parameters; and the alarms of each S
    # (at most one in two steps)
    at = np.vstack((np.arange(rec.size), *((rec, k) if scale is None else (k % q, k // q))))
    val = np.vstack([ends[rec * size + k - 1], np.zeros(rec.size), tau[rec]]
                    + ([] if bias is None else [bias[rec]])
                    + ([] if scale is None else [scale[rec], shift[rec]]))
    hits = np.zeros((2, rec.size), dtype=np.uint8)
    out = np.zeros((4, rec.size))  # each walk's two S leaving its block (equal once met), alarms
    for j, x in enumerate(blocks):
        keep = val[0] != val[1]
        if np.count_nonzero(keep) < keep.size:
            out[2:, at[0, ~keep]] = hits[:, ~keep]
            at, val, hits = at[:, keep], val[:, keep], hits[:, keep]
        if not at.shape[1]:
            break
        x = x[at[1], at[2]]
        if scale is not None:
            x = (x * val[-2]) - val[-1]
        alarm = _cusum_advance(val[:2], x, None if bias is None else val[3], val[2])
        np.add(hits, alarm.view(np.uint8), out=hits)
        if record is not None:
            record[j][at[1], at[2]] = val[0]
    else:
        out[:, at[0]] = np.vstack((val[:2], hits))
    delta = np.bincount(rec, out[2], m) - np.bincount(rec, out[3], m)

    # the blocks whose true end (their walk's new S) is not the next block's carry
    going = out[0].view(np.int64) != out[1].view(np.int64)
    moved = dict(zip((rec[going] * size + k[going]).tolist(), out[0, going].tolist()))
    last = -1  # the last block a chain reached
    for block in sorted(moved):
        if block <= last:
            continue
        i, b = divmod(block, size)
        true, counted = moved[block], float(ends[block])
        tau_i, bias_i = float(tau[i]), 0.0 if bias is None else float(bias[i])
        while np.float64(true).tobytes() != np.float64(counted).tobytes():
            b += 1
            if b == size:
                leaving[i] = true
                break
            last = i * size + b
            xs = (blocks[:, i, b] if scale is None
                  else (blocks[:, b % q, b // q] * scale[i]) - shift[i])
            new, current, walked, alarms = true, counted, [], 0
            for x in xs.tolist():
                if new == current:
                    break
                new, alarm = _cusum_step(new, x, bias_i, tau_i)
                current, counted_alarm = _cusum_step(current, x, bias_i, tau_i)
                alarms += alarm - counted_alarm
                walked.append(new)
            delta[i] += alarms
            if record is not None:
                record[:len(walked), i, b] = walked
            # block b's true end; block b + 1 is counted from b's zero-started end
            true = new if new != current else moved.get(last, float(ends[last]))
            counted = float(ends[last])
    return delta, leaving


def cusum_alarm_fraction(x, tau, bias=0.0, out=None) -> float | np.ndarray:
    """Alarm fraction of the CUSUM recursion ``S = max(0, (S + x) - bias)`` over a stream.

    ``x`` (a list or a 1-D array) holds one input per step: |r| for a detector.
    A ``(steps, m)`` array holds m streams, with one ``tau`` and ``bias`` entry
    per column; all m are scored in one ``_cusum_alarms`` pass and the result
    is an array of m fractions. The previous statistic is tested first: above
    tau it resets to zero and alarms, without consuming x; otherwise it
    accumulates, clamped at zero. ``out``, a float64 array of x's shape, receives S
    after every step; the alarm at step k is ``S[k - 1] > tau``, with S zero
    before step 0. The counts are the scalar recursion's own for any input, and
    so is S, except for a NaN's payload bits where two NaN payloads meet.
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
    full = n - n % CUSUM_SUB_BLOCK

    def split(a):  # (CUSUM_SUB_BLOCK, m, n_blocks) blocks and (t, m) tail, as views
        a = a.reshape(n, -1)
        return a[:full].reshape(-1, CUSUM_SUB_BLOCK, a.shape[1]).transpose(1, 2, 0), a[full:]

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


def _half_normal_blocks(n_samples: int, seed: int) -> np.ndarray:
    """``tune_cusum``'s draw of |z|, time-major: column k is block k, the last the tail.

    It is drawn 64 blocks at a time into one reused chunk, which gives the bits
    of one ``standard_normal(n_samples)`` draw and no second copy.
    """
    rng = philox(seed)
    az = np.empty((CUSUM_BLOCK, n_samples // CUSUM_BLOCK + 1))
    chunk = np.empty(64 * CUSUM_BLOCK)
    for start in range(0, n_samples, chunk.size):
        z = chunk[: n_samples - start]
        rng.standard_normal(out=z)
        np.abs(z, out=z)
        k, whole = start // CUSUM_BLOCK, z.size // CUSUM_BLOCK
        az[:, k:k + whole] = z[: whole * CUSUM_BLOCK].reshape(whole, CUSUM_BLOCK).T
        az[: z.size % CUSUM_BLOCK, k + whole] = z[whole * CUSUM_BLOCK:]
    return az


def tune_cusum(
    sigma,
    bias,
    alpha_des,
    n_samples: int = CUSUM_MIN_SAMPLES,
    seed: int = 0,
) -> CusumTuning:
    """Monte Carlo threshold search for a target CUSUM false-alarm rate, per entry.

    ``sigma`` and ``bias`` are scalars or 1-D arrays of one length, one entry
    per sensor (or per sensor and rate); ``alpha_des`` is one rate for every
    entry or a 1-D array of sigma's length. An array call returns per-entry
    ``tau`` and ``achieved_rate``. Each entry simulates the recursion on
    i.i.d. |N(0, sigma^2)| inputs and bisects tau until the empirical alarm
    rate is within ``CUSUM_REL_TOL`` relative of its alpha_des: bracketing and
    early bisection run on the stream's first 1/8, and candidate thresholds
    are confirmed on the full stream.

    All entries share one draw of |z|, stored time-major by block; entry i's
    increments are ``(|z| * sigma[i]) - bias[i]``. The entries' searches run
    side by side, and the rate requests of one round are answered by one
    ``_cusum_alarms`` pass per stream length, in which identical requests
    (tau, sigma and bias) share one recursion. Each rate is that exact count,
    so every entry takes the same steps and gets the same tau as a scalar loop
    over its own increment stream.

    Raises ``InvalidParameter`` when a bias <= sqrt(2/pi)*sigma (no downward
    drift under clean data) and ``NonConvergence`` if a search exhausts
    ``CUSUM_MAX_ITER`` bisections.
    """
    sig, b = np.atleast_1d(sigma_array(sigma)), np.atleast_1d(array_arg("bias", bias, (0, 1)))
    require("bias", "" if b.size == sig.size else "must match sigma: 1-D arrays of one length")
    rates = real_array(alpha_des, 1)  # one rate for every entry, or one per entry
    one_rate = rates is None or rates.ndim == 0
    alphas = [alpha_des] * sig.size if one_rate else rates.tolist()
    require("alpha_des", "" if len(alphas) == sig.size else "must match sigma: 1-D arrays of one "
            "length, or be one number")
    for alpha in alphas:
        require("alpha_des", rate_problem(alpha))
    for sig_i, b_i in zip(sig.tolist(), b.tolist()):
        require("bias / sigma", drift_problem(b_i / sig_i))
    require("n_samples", count_problem(n_samples, CUSUM_MIN_SAMPLES))

    az = _half_normal_blocks(n_samples, seed)
    entries = list(zip(sig.tolist(), b.tolist()))
    searches = [_cusum_search(sig_i, alpha) for (sig_i, _), alpha in zip(entries, alphas)]
    asks = {i: next(search) for i, search in enumerate(searches)}
    results = [None] * len(searches)
    while asks:  # one pass over each stream length answers every open request for it
        for full in (False, True):
            who = {i: (tau, *entries[i]) for i, (tau, on_full) in asks.items() if on_full is full}
            if not who:
                continue
            n = n_samples if full else n_samples // 8
            blocks, tail = az[:, : n // CUSUM_BLOCK], az[: n % CUSUM_BLOCK, n // CUSUM_BLOCK]
            if not full:  # (CUSUM_SUB_BLOCK, q, c): each stored block as q blocks, a view
                blocks = blocks.reshape(CUSUM_BLOCK // CUSUM_SUB_BLOCK, CUSUM_SUB_BLOCK,
                                        blocks.shape[1]).transpose(1, 0, 2)
            recursions = list(dict.fromkeys(who.values()))  # (tau, sigma, bias), each once
            tau, scale, shift = map(np.array, zip(*recursions))
            counts = dict(zip(recursions, _cusum_alarms(blocks, tail, tau, scale=scale,
                                                        shift=shift)))
            for i, request in who.items():
                try:
                    asks[i] = searches[i].send(counts[request] / n)
                except StopIteration as done:
                    results[i] = done.value
                    del asks[i]
    if np.ndim(sigma) == 0 and np.ndim(bias) == 0 and one_rate:
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
