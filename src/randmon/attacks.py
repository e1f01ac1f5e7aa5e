"""Sensor attack synthesis: scripted corruptions and worst-case stealthy policies.

All policies implement the omniscient-attacker stepping protocol used by
``lti.step``: called as ``policy(k, e, eta, r_prev)`` with the new step index,
the new estimation error, the new measurement noise draw and the previous
step's residual (None at step 0), returning the attack vector added to that
step's measurement. Since r = C e + eta + xi, an attacker that knows e and eta
can cancel ``C e + eta`` and place the residual anywhere; one that holds the
CUSUM statistic steps its own copy of the detector on every residual it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .detectors import BadDataDetector, CusumDetector, tune_bdd
from .errors import InvalidParameter
from .monitors import wsr_bounds

#: relative shortfall applied to thresholds the attacks pin the statistic at,
#: so float rounding cannot push it over a strict inequality.
THRESHOLD_MARGIN = 1e-12

#: cap on what no stealth bound caps, ``symmetric_flood``'s |amplitude| + |jitter|
#: and epsilon: summed over ``config.MAX_HORIZON`` steps, 1e150 stays finite.
MAX_ATTACK_MAGNITUDE = 1e150

#: attack kind -> the ``AttackPlan.params`` keys its policy reads
ATTACK_PARAMS = {
    "none": (),
    "bias_concentrate": ("mu_a", "sigma_a"),
    "pattern_runs": ("amplitude",),
    "symmetric_flood": ("amplitude", "jitter"),
    "worst_case_bdd": (),
    "worst_case_cusum": (),
    "worst_case_bdd_randaware": ("epsilon",),
    "worst_case_cusum_randaware": ("epsilon",),
}
ATTACK_KINDS = tuple(ATTACK_PARAMS)

#: smallest monitoring window a saturation budget is computed for
MIN_BUDGET_WINDOW = 20


@dataclass
class SaturationBudget:
    """Split of a monitoring window into saturating and non-saturating steps.

    ``gamma`` is the minimum number of non-saturating steps (they claim the
    smallest ranks), ``beta = ell - gamma`` the maximum number of saturating
    steps that keeps the signed-rank statistic inside its alarm-free band.
    """

    ell: int
    gamma: int
    beta: int

    @property
    def ratio(self) -> float:
        return self.beta / self.ell


def saturation_budget(ell: int, alpha_des: float) -> SaturationBudget:
    """Largest saturating-step count per window that evades the symmetry test.

    The non-saturating residuals are made tiny, so they take ranks 1..gamma
    and their rank sum is the smaller of the two. The budget finds the
    smallest gamma whose rank sum clears the lower signed-rank bound; as the
    window grows, beta/ell converges to 1 - sqrt(2)/2.
    """
    if ell < MIN_BUDGET_WINDOW:
        raise InvalidParameter(f"budget needs a window of at least {MIN_BUDGET_WINDOW}, got {ell}")
    omega_minus, _ = wsr_bounds(ell, alpha_des)
    # omega_minus <= ell(ell+1)/4 < ell(ell+1)/2, so gamma = ell always clears it
    gamma = next(g for g in range(1, ell + 1) if g * (g + 1) // 2 > omega_minus)
    return SaturationBudget(ell=ell, gamma=gamma, beta=ell - gamma)


def schedule_saturation(budget: SaturationBudget, rng: np.random.Generator) -> np.ndarray:
    """Boolean schedule of length ell with exactly beta saturating steps.

    Placement is uniform over position subsets: repeated periodically, every
    sliding window then holds exactly beta saturating values in an
    exchangeable arrangement, so the runs count keeps its clean-data law.
    (Evenly spreading the saturating steps instead forces alternating
    difference signs and inflates the runs count far above its null mean.)
    Deterministic for a given generator state.
    """
    ell, beta = budget.ell, budget.beta
    out = np.zeros(ell, dtype=bool)
    if beta == 0:
        return out
    if beta > ell:
        raise InvalidParameter("beta exceeds the window length")
    positions = rng.choice(ell, size=beta, replace=False)
    out[positions] = True
    return out


@dataclass
class AttackPlan:
    """Declarative description of one attack phase.

    ``kind`` is one of :data:`ATTACK_KINDS`; the attack acts on
    ``sensors`` for steps in [start, stop). ``params`` holds kind-specific
    settings (bias magnitude, variance scale, pattern amplitude, epsilon for
    the dither draws, ...).
    """

    kind: str
    sensors: tuple[int, ...] = (0,)
    start: int = 0
    stop: int = 2**62
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InvalidParameter(f"unknown attack kind {self.kind!r}")
        self.sensors = tuple(int(i) for i in self.sensors)
        if self.start >= self.stop:
            raise InvalidParameter(f"attack window [{self.start}, {self.stop}) is empty")


class AttackPolicy:
    """One attack phase: ``signal(k, ce, eta_i, sensor)`` on the plan's sensors in [start, stop).

    At an active step the policy reads ``ce``, entry i of ``C e``, and ``eta[i]`` of
    each targeted sensor once; ``signal`` returns the attack value that cancels
    them, and every other entry is zero. ``forcing`` is the mean residual a
    worst-case kind forces on each sensor (zero on clean sensors), the input of
    ``deviation.deviation_limit``; None for the scripted kinds and for a
    bad-data kind without a configured detector. ``schedule`` is the
    randomness-aware kinds' saturation schedule. ``cusum`` is the CUSUM kinds'
    own detector, stepped on every residual handed in, at active steps or not,
    before ``signal`` reads its statistic. The other kinds leave both None.
    """

    def __init__(self, plan: AttackPlan, c_rows: np.ndarray, signal: Callable,
                 forcing: Optional[np.ndarray] = None, schedule: Optional[np.ndarray] = None,
                 cusum: Optional[CusumDetector] = None):
        self.plan = plan
        self.c_rows = c_rows
        self.signal = signal
        self.forcing = forcing
        self.schedule = schedule
        self.cusum = cusum

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray,
                 r_prev: Optional[np.ndarray]) -> np.ndarray:
        if self.cusum is not None and r_prev is not None:
            self.cusum.step(r_prev)
        xi = np.zeros(len(self.c_rows))
        if not self.plan.start <= k < self.plan.stop:
            return xi
        for i in self.plan.sensors:
            xi[i] = self.signal(k, float(self.c_rows[i] @ e), float(eta[i]), i)
        return xi


def build_attack_policy(
    plan: AttackPlan,
    n_sensors: int,
    c_rows: np.ndarray,
    sigma: np.ndarray,
    *,
    ell: int = 100,
    alpha_des: float = 0.05,
    bdd: Optional[BadDataDetector] = None,
    cusum: Optional[CusumDetector] = None,
    seed: int = 0,
) -> AttackPolicy:
    """Instantiate the policy for a plan against the configured detectors.

    ``c_rows`` is the plant output matrix (one row per sensor); ``sigma`` the
    per-sensor residual standard deviations. A missing or None parameter takes
    its default; flood and dither sizes above :data:`MAX_ATTACK_MAGNITUDE` are
    rejected. The CUSUM kinds step a copy of the tuned ``cusum`` (tau, bias
    and S); the bad-data kinds and the scripted stealth bounds use the bad-data
    threshold, derived from alpha_des when no detector is given. A scripted
    kind leaves ``target - ce - eta_i``; a worst-case kind takes
    ``v = -ce - eta_i``, adds the CUSUM bias, on a saturating step sets
    ``v = (v - S) + pinned`` (S = 0.0 for BDD: exact) and subtracts the
    randomness-aware dither. Every draw comes from one generator seeded by ``seed``.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    sigma = np.asarray(sigma, dtype=float)
    tau_b = tune_bdd(sigma, alpha_des) if bdd is None else bdd.tau
    tau_b = np.atleast_1d(np.asarray(tau_b, dtype=float))
    kind = plan.kind
    if kind.startswith("worst_case_cusum") and cusum is None:
        raise InvalidParameter(f"{kind} requires a tuned CUSUM detector")
    for i in plan.sensors:
        if not 0 <= i < n_sensors:
            raise InvalidParameter(f"sensor index {i} outside 0..{n_sensors - 1}")

    def param(key, default):  # one value per sensor; None means the default
        value = plan.params.get(key)
        return np.asarray(default if value is None else value, dtype=float) * np.ones(n_sensors)

    def bounded(name, size):  # size(i) sums Python floats: overflow is inf, not a warning
        if any(size(i) > MAX_ATTACK_MAGNITUDE for i in plan.sensors):
            raise InvalidParameter(f"{name} exceeds {MAX_ATTACK_MAGNITUDE:g}")

    def scripted(target):  # target(k, i): the residual left on sensor i at step k
        return AttackPolicy(plan, c_rows, lambda k, ce, eta_i, i: target(k, i) - ce - eta_i)

    if kind == "none":
        return AttackPolicy(plan, c_rows, lambda k, ce, eta_i, i: 0.0)

    if kind == "bias_concentrate":
        # The residual becomes N(mu_a, sigma_a^2) draws: a shifted, tighter normal
        # that skews the sign/magnitude balance the symmetry monitor watches while
        # staying inside the bad-data threshold.
        mu, sd = param("mu_a", 0.4 * tau_b), param("sigma_a", 0.2 * sigma)
        for i in plan.sensors:
            if sd[i] >= sigma[i]:
                raise InvalidParameter("sigma_a must be below the natural residual deviation")
            if abs(mu[i]) + 3.0 * sd[i] > tau_b[i]:
                raise InvalidParameter(
                    "bias_concentrate draws would cross the bad-data threshold: "
                    f"|mu_a| + 3 sigma_a = {abs(mu[i]) + 3 * sd[i]:.6g} > {tau_b[i]:.6g}")
        return scripted(lambda k, i: rng.normal(mu[i], sd[i]))

    if kind == "pattern_runs":
        # A zero-centered sawtooth (-1.5a, -0.5a, +0.5a, +1.5a, ...) whose
        # differences are +a, +a, +a, -3a: a fixed {+, +, +, -} sign pattern. The
        # window is symmetric (quiet for the symmetry monitor) and small (quiet for
        # the boundary detectors) but has far too few runs.
        amp = param("amplitude", 0.3 * sigma)
        for i in plan.sensors:
            if 1.5 * amp[i] > tau_b[i]:
                raise InvalidParameter(f"pattern amplitude {amp[i]:.6g} exceeds the bad-data bound")
        levels = np.array([-1.5, -0.5, 0.5, 1.5])
        return scripted(lambda k, i: levels[(k - plan.start) % 4] * amp[i])

    if kind == "symmetric_flood":
        # Large residuals with random signs and jittered magnitudes: sign-symmetric
        # and serially random, so both randomness monitors stay quiet, while |r| far
        # above the detector bias drives the CUSUM over its threshold.
        amp, jitter = param("amplitude", 4.0 * sigma), param("jitter", 0.2 * sigma)
        bounded("|amplitude| + |jitter|", lambda i: abs(float(amp[i])) + abs(float(jitter[i])))

        def flood(k, i):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            return sign * (amp[i] + jitter[i] * rng.random())
        return scripted(flood)

    # The worst-case kinds. Detector-only mode pins every residual just below the
    # bad-data threshold, or holds the CUSUM statistic S (of the policy's own copy,
    # stepped on each previous residual as the defender's is) just below its
    # threshold. The randomness-aware mode saturates only on the scheduled steps
    # (beta per window) and elsewhere leaves the residual at -delta (BDD) or
    # bias - delta (CUSUM), inside the signed-rank band; delta ~ U(0, epsilon). The
    # forcing is the mean residual this leaves: the BDD threshold, times beta/ell if
    # only the saturating steps sit there, or the CUSUM bias.
    schedule = bias = own = None  # own: the CUSUM kinds' own detector
    if kind.endswith("_randaware"):
        budget = saturation_budget(ell, alpha_des)
        schedule = schedule_saturation(budget, rng)
        eps = param("epsilon", 1e-6 * sigma)
        bounded("epsilon", lambda i: abs(float(eps[i])))
    if kind.startswith("worst_case_bdd"):
        pinned = (tau_b * (1.0 - THRESHOLD_MARGIN)).tolist()
        level = tau_b if schedule is None else tau_b * budget.ratio
        if bdd is None:  # a derived threshold, not one a detector in the loop uses
            level = None
    else:
        own = replace(cusum)  # a copy: __post_init__ copies S
        bias, pinned = cusum.bias.tolist(), (cusum.tau * (1.0 - THRESHOLD_MARGIN)).tolist()
        level = cusum.bias

    def signal(k, ce, eta_i, i):
        v = -ce - eta_i
        if bias is not None:
            v = v + bias[i]
        if schedule is None or schedule[(k - plan.start) % ell]:
            v = (v - (0.0 if own is None else float(own.S[i]))) + pinned[i]
        return v if schedule is None else v - float(rng.uniform(0.0, eps[i]))

    attacked = np.isin(np.arange(n_sensors), plan.sensors)
    forcing = None if level is None else np.where(attacked, level, 0.0)
    return AttackPolicy(plan, c_rows, signal, forcing, schedule, own)


class CompositeAttack:
    """Sum of several policies."""

    def __init__(self, policies: Sequence[AttackPolicy], n_sensors: int):
        self.policies = list(policies)
        self.n_sensors = n_sensors

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray,
                 r_prev: Optional[np.ndarray]) -> np.ndarray:
        xi = np.zeros(self.n_sensors)
        for policy in self.policies:
            xi += policy(k, e, eta, r_prev)
        return xi
