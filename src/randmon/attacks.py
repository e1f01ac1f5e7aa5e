"""Sensor attack synthesis: scripted corruptions and worst-case stealthy policies.

All policies implement the omniscient-attacker stepping protocol used by
``lti.step``: called as ``policy(k, e, eta)`` with the new step index, the new
estimation error and the new measurement noise draw, returning the attack
vector added to that step's measurement. Since r = C e + eta + xi, an attacker
that knows e and eta can place the residual anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .detectors import BadDataDetector, CusumDetector, tune_bdd
from .errors import InfeasibleBudget, InvalidParameter
from .monitors import wsr_bounds

#: relative shortfall applied to thresholds the attacks pin the statistic at,
#: so float rounding cannot push it over a strict inequality.
THRESHOLD_MARGIN = 1e-12

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


@dataclass
class SaturationBudget:
    """Split of a monitoring window into saturating and non-saturating steps.

    ``gamma`` is the minimum number of non-saturating steps (they claim the
    smallest ranks), ``beta = ell - gamma`` the maximum number of saturating
    steps that keeps the signed-rank statistic inside its alarm-free band.
    """

    ell: int
    alpha_des: float
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
    if ell < 20:
        raise InvalidParameter(f"budget needs a window of at least 20, got {ell}")
    omega_minus, _ = wsr_bounds(ell, alpha_des)
    total = 0
    for gamma in range(1, ell + 1):
        total += gamma
        if total > omega_minus:
            return SaturationBudget(ell=ell, alpha_des=alpha_des, gamma=gamma, beta=ell - gamma)
    raise InfeasibleBudget(
        f"no feasible non-saturating count for ell={ell}, alpha_des={alpha_des}"
    )


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


def attack_worst_case_bdd(
    e: np.ndarray,
    eta: np.ndarray,
    c_row: np.ndarray,
    tau_b: float,
    sensor: int,
    saturating: Optional[bool] = None,
    delta: float = 0.0,
) -> float:
    """Attack value for one sensor against the bad-data detector.

    ``e`` and ``eta`` are this step's estimation error and measurement noise.
    With ``saturating=None`` (detector-only mode) the residual is pinned just
    below tau_b every step. In randomness-aware mode, saturating steps pin the
    residual at tau_b - delta and non-saturating steps at -delta.
    """
    base = -float(c_row @ e) - float(eta[sensor])
    pinned = tau_b * (1.0 - THRESHOLD_MARGIN)
    if saturating is None or saturating:
        return base + pinned - delta
    return base - delta


def attack_worst_case_cusum(
    e: np.ndarray,
    eta: np.ndarray,
    c_row: np.ndarray,
    sensor: int,
    bias: float,
    tau_c: float,
    s_prev: float,
    saturating: Optional[bool] = None,
    delta: float = 0.0,
) -> float:
    """Attack value for one sensor against the CUSUM detector.

    ``e`` and ``eta`` are as for :func:`attack_worst_case_bdd`. Detector-only
    mode drives the statistic to the threshold on the first step and holds it
    there (the same expression covers both phases given the live statistic).
    Randomness-aware non-saturating steps leave a residual of bias - delta,
    which keeps the statistic from accumulating.
    """
    base = -float(c_row @ e) - float(eta[sensor])
    held = tau_c * (1.0 - THRESHOLD_MARGIN)
    if saturating is None or saturating:
        return base + bias - s_prev + held - delta
    return base + bias - delta


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
    """Base class: zero signal outside [start, stop) or for untargeted sensors.

    Subclasses implement ``_signal(k, e, eta, sensor)``, the attack value of one
    targeted sensor at an active step.
    """

    def __init__(self, plan: AttackPlan, n_sensors: int):
        for i in plan.sensors:
            if not 0 <= i < n_sensors:
                raise InvalidParameter(f"sensor index {i} outside 0..{n_sensors - 1}")
        self.plan = plan
        self.n_sensors = n_sensors

    def active(self, k: int) -> bool:
        return self.plan.start <= k < self.plan.stop

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray) -> np.ndarray:
        xi = np.zeros(self.n_sensors)
        if not self.active(k):
            return xi
        for i in self.plan.sensors:
            xi[i] = self._signal(k, e, eta, i)
        return xi

    def _signal(self, k: int, e: np.ndarray, eta: np.ndarray, sensor: int) -> float:
        raise NotImplementedError


class NoAttack(AttackPolicy):
    def _signal(self, k, e, eta, sensor):
        return 0.0


class BiasConcentrateAttack(AttackPolicy):
    """Replace the residual with draws from a shifted, tighter normal.

    The natural residual is cancelled and replaced by N(mu_a, sigma_a^2),
    which skews the sign/magnitude balance the symmetry monitor watches while
    staying inside the bad-data threshold. Defaults: mu_a = 0.4*tau_b,
    sigma_a = 0.2*sigma.
    """

    def __init__(self, plan, n_sensors, c_rows, sigma, tau_b, rng):
        super().__init__(plan, n_sensors)
        self.c_rows = c_rows
        p = plan.params
        self.mu = np.asarray(p.get("mu_a", 0.4 * tau_b), dtype=float) * np.ones(n_sensors)
        self.sd = np.asarray(p.get("sigma_a", 0.2 * sigma), dtype=float) * np.ones(n_sensors)
        for i in plan.sensors:
            if self.sd[i] >= sigma[i]:
                raise InvalidParameter("sigma_a must be below the natural residual deviation")
            if abs(self.mu[i]) + 3.0 * self.sd[i] > tau_b[i]:
                raise InvalidParameter(
                    "bias_concentrate draws would cross the bad-data threshold: "
                    f"|mu_a| + 3 sigma_a = {abs(self.mu[i]) + 3 * self.sd[i]:.6g} > "
                    f"{tau_b[i]:.6g}"
                )
        self.rng = rng

    def _signal(self, k, e, eta, sensor):
        target = self.rng.normal(self.mu[sensor], self.sd[sensor])
        return target - float(self.c_rows[sensor] @ e) - float(eta[sensor])


class PatternRunsAttack(AttackPolicy):
    """Force a fixed {+, +, +, -} sign pattern on residual differences.

    The residual is replaced by a zero-centered sawtooth
    (-1.5a, -0.5a, +0.5a, +1.5a, ...) whose differences are +a, +a, +a, -3a.
    The resulting window is symmetric (quiet for the symmetry monitor) and
    small (quiet for boundary detectors) but has far too few runs.
    """

    def __init__(self, plan, n_sensors, c_rows, sigma, tau_b, rng=None):
        super().__init__(plan, n_sensors)
        self.c_rows = c_rows
        amp = plan.params.get("amplitude")
        if amp is None:
            amp = 0.3 * sigma
        self.amp = np.asarray(amp, dtype=float) * np.ones(n_sensors)
        for i in plan.sensors:
            if 1.5 * self.amp[i] > tau_b[i]:
                raise InvalidParameter(
                    f"pattern amplitude {self.amp[i]:.6g} exceeds the bad-data bound"
                )
        self._levels = np.array([-1.5, -0.5, 0.5, 1.5])

    def _signal(self, k, e, eta, sensor):
        phase = (k - self.plan.start) % 4
        target = self._levels[phase] * self.amp[sensor]
        return target - float(self.c_rows[sensor] @ e) - float(eta[sensor])


class SymmetricFloodAttack(AttackPolicy):
    """Large-magnitude residuals with random signs and jittered magnitudes.

    Sign-symmetric and serially random, so both randomness monitors stay
    quiet, while |r| far above the detector bias drives the CUSUM statistic
    over its threshold. Defaults: amplitude 4*sigma, jitter 0.2*sigma.
    """

    def __init__(self, plan, n_sensors, c_rows, sigma, rng):
        super().__init__(plan, n_sensors)
        self.c_rows = c_rows
        p = plan.params
        self.amp = np.asarray(p.get("amplitude", 4.0 * sigma), dtype=float) * np.ones(n_sensors)
        self.jitter = np.asarray(p.get("jitter", 0.2 * sigma), dtype=float) * np.ones(n_sensors)
        self.rng = rng

    def _signal(self, k, e, eta, sensor):
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        mag = self.amp[sensor] + self.jitter[sensor] * self.rng.random()
        return sign * mag - float(self.c_rows[sensor] @ e) - float(eta[sensor])


class _ScheduledMixin:
    """Shared saturation schedule and dither stream for randomness-aware modes."""

    def _init_schedule(self, aware: bool, ell: int, alpha_des: float, sigma, eps, rng):
        self.aware = aware
        self.rng = rng
        if aware:
            self.budget = saturation_budget(ell, alpha_des)
            self.schedule = schedule_saturation(self.budget, rng)
            self.eps = np.asarray(eps, dtype=float) * np.ones(self.n_sensors)
        else:
            self.budget = None
            self.schedule = None
            self.eps = np.zeros(self.n_sensors)

    def _slot(self, k: int) -> Optional[bool]:
        if not self.aware:
            return None
        return bool(self.schedule[(k - self.plan.start) % self.budget.ell])

    def _delta(self, sensor: int) -> float:
        if not self.aware:
            return 0.0
        return float(self.rng.uniform(0.0, self.eps[sensor]))


class BddWorstCaseAttack(AttackPolicy, _ScheduledMixin):
    """Worst-case stealthy attack against the bad-data detector.

    Detector-only mode pins every residual at the threshold. The
    randomness-aware mode saturates only on scheduled steps (beta per window)
    and pushes the residual just below zero elsewhere, staying inside the
    signed-rank band by construction.
    """

    def __init__(self, plan, n_sensors, c_rows, sigma, tau_b, aware, ell, alpha_des, rng):
        super().__init__(plan, n_sensors)
        self.c_rows = c_rows
        self.tau_b = tau_b
        eps = plan.params.get("epsilon", 1e-6 * sigma)
        self._init_schedule(aware, ell, alpha_des, sigma, eps, rng)

    def _signal(self, k, e, eta, sensor):
        return attack_worst_case_bdd(
            e, eta,
            self.c_rows[sensor],
            float(self.tau_b[sensor]),
            sensor,
            saturating=self._slot(k),
            delta=self._delta(sensor),
        )


class CusumWorstCaseAttack(AttackPolicy, _ScheduledMixin):
    """Worst-case stealthy attack against the CUSUM detector.

    The omniscient attacker reads the live statistic ``detector.S`` of the
    detector it targets. Whoever runs the loop steps that detector on each
    residual before the next attack value is drawn (``lti.simulate``'s
    ``on_step``), so the attack for step k + 1 sees S after r[k].
    Detector-only mode holds the statistic at the threshold with zero alarms.
    """

    def __init__(self, plan, n_sensors, c_rows, sigma, detector, aware, ell, alpha_des, rng):
        super().__init__(plan, n_sensors)
        self.c_rows = c_rows
        self.detector = detector
        eps = plan.params.get("epsilon", 1e-6 * sigma)
        self._init_schedule(aware, ell, alpha_des, sigma, eps, rng)

    def _signal(self, k, e, eta, sensor):
        det = self.detector
        return attack_worst_case_cusum(
            e, eta,
            self.c_rows[sensor],
            sensor,
            float(det.bias[sensor]),
            float(det.tau[sensor]),
            float(det.S[sensor]),
            saturating=self._slot(k),
            delta=self._delta(sensor),
        )


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
    per-sensor residual standard deviations. Worst-case kinds require the
    matching detector; scripted kinds need a bad-data threshold for their
    stealth bound (one is derived from alpha_des when no detector is given).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    sigma = np.asarray(sigma, dtype=float)
    tau_b = bdd.tau if bdd is not None else np.atleast_1d(tune_bdd(sigma, alpha_des))
    kind = plan.kind
    if kind == "none":
        return NoAttack(plan, n_sensors)
    if kind == "bias_concentrate":
        return BiasConcentrateAttack(plan, n_sensors, c_rows, sigma, tau_b, rng)
    if kind == "pattern_runs":
        return PatternRunsAttack(plan, n_sensors, c_rows, sigma, tau_b)
    if kind == "symmetric_flood":
        return SymmetricFloodAttack(plan, n_sensors, c_rows, sigma, rng)
    if kind in ("worst_case_bdd", "worst_case_bdd_randaware"):
        aware = kind.endswith("randaware")
        return BddWorstCaseAttack(
            plan, n_sensors, c_rows, sigma, tau_b, aware, ell, alpha_des, rng
        )
    if kind in ("worst_case_cusum", "worst_case_cusum_randaware"):
        if cusum is None:
            raise InvalidParameter(f"{kind} requires a tuned CUSUM detector")
        aware = kind.endswith("randaware")
        return CusumWorstCaseAttack(
            plan, n_sensors, c_rows, sigma, cusum, aware, ell, alpha_des, rng
        )
    raise InvalidParameter(f"unknown attack kind {kind!r}")


class CompositeAttack:
    """Sum of several policies."""

    def __init__(self, policies: Sequence[AttackPolicy], n_sensors: int):
        self.policies = list(policies)
        self.n_sensors = n_sensors

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray) -> np.ndarray:
        xi = np.zeros(self.n_sensors)
        for policy in self.policies:
            xi += policy(k, e, eta)
        return xi
