"""Sensor attack synthesis: scripted corruptions and worst-case stealthy policies.

All policies implement the omniscient-attacker stepping protocol: called as
``policy(k, e, eta, r_prev)`` with the new step index, the new estimation
error, the new measurement noise draw and the previous step's residual (None
at step 0), returning the attack added to that step's measurement. A built
policy is one run's: ``lti.step`` and ``lti.simulate`` hand it that run's
vectors and get (s,) back. Only an attack joined from R of them by
:func:`stack`, as ``deviation.run_attack_ensemble`` makes, takes the stacks
(R, n) and (R, s) and gives (R, s), keeping each run's generator, schedule
and CUSUM statistic. Since r = C e + eta + xi, an attacker that knows e and
eta can cancel ``C e + eta`` and place the residual anywhere; one that holds
the CUSUM statistic steps its own copy of the detector on every residual it
is handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .detectors import BadDataDetector, CusumDetector, tune_bdd
from .errors import InvalidParameter
from .lti import (CHUNK, _resolve_attack, count_problem, finite_array, is_integer, matrix_arg,
                  philox, raise_first, require, sigma_array, unknown_keys)
from .monitors import wsr_bounds

#: relative shortfall applied to thresholds the attacks pin the statistic at,
#: so float rounding cannot push it over a strict inequality.
THRESHOLD_MARGIN = 1e-12

#: cap on what no stealth bound caps, ``symmetric_flood``'s |amplitude| + |jitter|
#: and epsilon: summed over ``config.MAX_HORIZON`` steps, 1e150 stays finite.
MAX_ATTACK_MAGNITUDE = 1e150

#: attack kind -> {each ``params`` key its policy reads: its default, (multiple, "sigma"|"tau_b")}
ATTACK_PARAMS = {
    "none": {},
    "bias_concentrate": {"mu_a": (0.4, "tau_b"), "sigma_a": (0.2, "sigma")},
    "pattern_runs": {"amplitude": (0.3, "sigma")},
    "symmetric_flood": {"amplitude": (4.0, "sigma"), "jitter": (0.2, "sigma")},
    "worst_case_bdd": {},
    "worst_case_cusum": {},
    "worst_case_bdd_randaware": {"epsilon": (1e-6, "sigma")},
    "worst_case_cusum_randaware": {"epsilon": (1e-6, "sigma")},
}
ATTACK_KINDS = tuple(ATTACK_PARAMS)

#: smallest monitoring window a saturation budget is computed for
MIN_BUDGET_WINDOW = 20


def _short_window(ell: int) -> str:  # what a window lacks for a saturation budget, or ""
    short = is_integer(ell) and ell < MIN_BUDGET_WINDOW  # wsr_bounds rejects a non-integer
    return f"needs a window of at least {MIN_BUDGET_WINDOW}, got {ell}" if short else ""


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
    if _short_window(ell):
        raise InvalidParameter(f"budget {_short_window(ell)}")
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


def entry_problems(entry) -> list:
    """Every problem of ``entry``, a mapping of each :class:`AttackPlan` field, that needs no
    context (:func:`check_plan` holds those that do), as ``(field, text)``: unknown keys, an
    unknown kind, sensors not a non-empty list or tuple of integers each named once, a window
    not integers ``0 <= start < stop``, params not a dict.
    """
    known = [f.name for f in fields(AttackPlan)]
    problems = unknown_keys(entry, known)
    kind, sensors, start, stop, params = (entry[key] for key in known)
    if kind not in ATTACK_KINDS:
        problems.append(("kind", f"unknown kind {kind!r}"))
    if not isinstance(sensors, (list, tuple)) or not all(map(is_integer, sensors)):
        problems.append(("sensors", "must be a list of integer indices"))
    elif not sensors or len(set(sensors)) < len(sensors):
        problems.append(("sensors", f"must name each attacked sensor once, got {sensors}"))
    if not (is_integer(start) and is_integer(stop) and 0 <= start < stop):
        problems.append(("", "requires integer 0 <= start < stop"))
    if not isinstance(params, dict):
        problems.append(("params", "must be an object"))
    return problems


@dataclass
class AttackPlan:
    """Declarative description of one attack phase.

    ``kind`` is one of :data:`ATTACK_KINDS`; the attack acts on
    ``sensors`` for steps in [start, stop). ``params`` holds kind-specific
    settings (bias magnitude, variance scale, pattern amplitude, epsilon for
    the dither draws, ...). Construction raises the first of :func:`entry_problems`.
    """

    kind: str
    sensors: tuple[int, ...] = (0,)
    start: int = 0
    stop: int = 2**62
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        raise_first(entry_problems(vars(self)))
        self.sensors = tuple(map(int, self.sensors))
        self.start, self.stop = int(self.start), int(self.stop)


@dataclass(eq=False)  # identity equality: a generated __eq__ would compare arrays
class AttackPolicy:
    """One attack phase: ``signal`` on the plan's sensors in [start, stop).

    Called as ``policy(k, e, eta, r_prev)``, a one-run policy takes e (n,),
    eta (s,) and r_prev (s,) (None at step 0) and returns (s,); a stack of R
    runs (:func:`stack`, R = 1 included) takes and returns (R, ...) stacks.
    At an active step it computes ``ce``, column i of ``C e``, once per
    targeted sensor: for one run the Python float ``float(c_rows[i].dot(e))``
    (the dot product ``c_rows[i] @ e`` computes, at half its call cost; numpy's
    cost per call on 1-element arrays is several times the arithmetic), for a
    stack ``(c_rows[i][None, None] @ e[:, :, None])[:, 0, 0]``, one row against
    each run's column, which keeps each run's bits (a stacked
    ``C @ e`` does not). ``signal(policy, k, ce, eta_i, i, drawn)`` returns the
    attack values that cancel them, float operation for float operation as one
    run alone would, and every other entry is zero; ``consts`` holds the
    per-sensor constants it reads.

    Each run keeps its own state: ``rngs`` holds one generator per run.
    A drawing kind's ``draw(policy, rng, rows)`` returns ``rows`` active
    steps' values, one column per targeted sensor, in the order that one draw
    per step and sensor would take them from ``rng``; the policy calls it a
    chunk of ``lti.CHUNK`` active steps at a time (fewer when its window ends
    sooner), from each run's generator, and hands ``signal`` the next step's
    value of each sensor as ``drawn`` (a float for one run, (R,) for a stack;
    None for the kinds that draw nothing). So the j-th active call gets the
    values the j-th step of a per-step draw would, and the generator runs up
    to a chunk ahead of them. ``schedule`` is the randomness-aware kinds'
    saturation schedule, (ell,) for one run and (ell, R) for a stack.
    ``cusum`` is the CUSUM kinds' own detector, with S of shape (s,) or (R, s),
    stepped on every residual handed in, at active steps or not, before
    ``signal`` reads its statistic. The other kinds leave both None.
    ``forcing`` is the mean residual a worst-case kind forces on each sensor
    (zero on clean sensors), the input of ``deviation.deviation_limit``; None
    for the scripted kinds and for a bad-data kind without a configured
    detector.
    """

    plan: AttackPlan
    c_rows: np.ndarray
    signal: Callable
    consts: tuple
    rngs: list[np.random.Generator]
    forcing: Optional[np.ndarray] = None
    schedule: Optional[np.ndarray] = None
    cusum: Optional[CusumDetector] = None
    draw: Optional[Callable] = None
    _drawn: list = field(default_factory=list, init=False, repr=False)  # the chunk's rows left

    def __post_init__(self):
        # what each active step reads again: each C row, as one run's and as a stack's
        # (1, 1, n) operand, and the draws of a kind that draws nothing
        self._rows = list(self.c_rows)
        self._row_stacks = [row[None, None] for row in self._rows]
        self._no_draws = (None,) * len(self.plan.sensors)

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray,
                 r_prev: Optional[np.ndarray]) -> np.ndarray:
        if self.cusum is not None and r_prev is not None:
            self.cusum.step(r_prev)
        xi = np.zeros(eta.shape)
        plan = self.plan
        if plan.start <= k < plan.stop:
            one_run = e.ndim == 1
            drawn = self._no_draws if self.draw is None else self._next_draws(k, one_run)
            if one_run:  # Python floats cost far less than 1-element arrays
                for i, d in zip(plan.sensors, drawn):
                    xi[i] = self.signal(self, k, float(self._rows[i].dot(e)), eta.item(i), i, d)
            else:
                e = e[:, :, None]
                for i, d in zip(plan.sensors, drawn):
                    xi[:, i] = self.signal(self, k, (self._row_stacks[i] @ e)[:, 0, 0],
                                           eta[:, i], i, d)
        return xi

    def _next_draws(self, k: int, one_run: bool):
        """This active step's draws, one per targeted sensor; a new chunk when the last is used."""
        if not self._drawn:
            rows = min(CHUNK, self.plan.stop - k)
            block = [self.draw(self, rng, rows) for rng in self.rngs]  # (rows, sensors) each
            # reversed, so that each step pops its row off the end
            self._drawn = (block[0].tolist() if one_run else list(np.stack(block, axis=-1)))[::-1]
        return self._drawn.pop()


def _no_signal(p, k, ce, eta, i, drawn):
    return 0.0


def _drawn_target(p, k, ce, eta, i, drawn):
    return drawn - ce - eta


def _normal_targets(p, rng, rows):
    # The residual becomes N(mu_a, sigma_a^2) draws: a shifted, tighter normal that
    # skews the sign/magnitude balance the symmetry monitor watches while staying
    # inside the bad-data threshold.
    mu, sd = p.consts
    sensors = list(p.plan.sensors)
    return rng.normal(mu[sensors], sd[sensors], (rows, len(sensors)))


def _pattern_runs(p, k, ce, eta, i, drawn):
    # A zero-centered sawtooth (-1.5a, -0.5a, +0.5a, +1.5a, ...) whose differences are
    # +a, +a, +a, -3a: a fixed {+, +, +, -} sign pattern. The window is symmetric
    # (quiet for the symmetry monitor) and small (quiet for the boundary detectors)
    # but has far too few runs.
    (amp,) = p.consts
    return (-1.5, -0.5, 0.5, 1.5)[(k - p.plan.start) % 4] * amp[i] - ce - eta


def _flood_targets(p, rng, rows):
    # Large residuals with random signs and jittered magnitudes: sign-symmetric and
    # serially random, so both randomness monitors stay quiet, while |r| far above
    # the detector bias drives the CUSUM over its threshold. Each step and sensor
    # takes two uniforms: the sign's, then the jitter's.
    amp, jitter = p.consts
    sensors = list(p.plan.sensors)
    u = rng.random((rows, len(sensors), 2))
    return np.where(u[..., 0] < 0.5, 1.0, -1.0) * (amp[sensors] + jitter[sensors] * u[..., 1])


#: scripted kind -> (its signal, which leaves ``target - ce - eta``, and the draw of its
#: random targets or None); both read the kind's params in :data:`ATTACK_PARAMS` order
_SCRIPTED = {"none": (_no_signal, None), "bias_concentrate": (_drawn_target, _normal_targets),
             "pattern_runs": (_pattern_runs, None),
             "symmetric_flood": (_drawn_target, _flood_targets)}


def _worst_case(p, k, ce, eta, i, drawn):
    """``((((-ce - eta) + bias) - S) + pinned) - delta``; bias, S and delta where the kind has them.

    ``S`` is subtracted and ``pinned`` added on saturating steps only (every
    step without a schedule); the dither delta ~ U(0, epsilon), ``drawn``, is
    subtracted on every active step of a randomness-aware kind.
    """
    bias, pinned, _ = p.consts
    v = -ce - eta
    if bias is not None:
        v = v + bias[i]
    held = (v if p.cusum is None else v - p.cusum.S[..., i]) + pinned[i]
    if p.schedule is None:
        return held
    saturating = p.schedule[(k - p.plan.start) % len(p.schedule)]  # a bool, or (R,) for a stack
    v = np.where(saturating, held, v) if saturating.ndim else (held if saturating else v)
    return v - drawn


def _dither(p, rng, rows):
    eps = p.consts[2]
    sensors = list(p.plan.sensors)
    return rng.uniform(0.0, eps[sensors], (rows, len(sensors)))


def check_plan(plan: AttackPlan, n_sensors: Optional[int], *, ell: Optional[int],
               has_cusum: bool, sigma=None, tau_b=None) -> tuple:
    """``(problems, params)``: every problem of ``plan`` and, if it has none, its params.

    A problem is ``(field, text)``, the field ``kind``, ``sensors``, ``params``,
    ``params.<key>`` or ``""`` for a stealth bound. ``n_sensors`` or ``ell`` None skips
    its check. Only given ``sigma`` and ``tau_b`` (the residual deviations and bad-data
    thresholds) is a plan with no other problem held to its kind's bound, at the first
    attacked sensor that breaks it, and ``params`` given: each key's (n_sensors,)
    values, defaults filled in.
    """
    kind, problems, given = plan.kind, [], {}
    if kind.startswith("worst_case_cusum") and not has_cusum:
        problems.append(("kind", f"{kind} needs a tuned CUSUM detector"))
    if kind.endswith("_randaware") and ell is not None and _short_window(ell):
        problems.append(("kind", f"{kind} {_short_window(ell)}"))
    problems += [("sensors", f"sensor index {i} outside 0..{n_sensors - 1}")
                 for i in plan.sensors if n_sensors is not None and not 0 <= i < n_sensors]
    problems += unknown_keys(plan.params, ATTACK_PARAMS[kind], "params")
    for key, value in plan.params.items():
        if key in ATTACK_PARAMS[kind] and value is not None:  # None takes the default
            given[key] = finite_array(value, 1)
            if given[key] is None or given[key].shape not in ((), (n_sensors or given[key].size,)):
                problems.append((f"params.{key}",
                                 f"must be a finite number or one per sensor; got {value!r}"))
            elif key in ("sigma_a", "epsilon") and (given[key] < 0).any():  # a spread, a margin
                problems.append((f"params.{key}", f"must be >= 0; got {value!r}"))
    if problems or sigma is None:
        return problems, None

    params = {key: (given[key] if key in given else scale * {"sigma": sigma, "tau_b": tau_b}[base])
              * np.ones(n_sensors) for key, (scale, base) in ATTACK_PARAMS[kind].items()}
    for i in plan.sensors:
        p = {k: float(v[i]) for k, v in params.items()}  # floats overflow to inf, not a warning
        if kind == "bias_concentrate" and p["sigma_a"] >= sigma[i]:
            text = "sigma_a must be below the natural residual deviation"
        elif kind == "bias_concentrate" and (top := abs(p["mu_a"]) + 3.0 * p["sigma_a"]) > tau_b[i]:
            text = ("bias_concentrate draws would cross the bad-data threshold: "
                    f"|mu_a| + 3 sigma_a = {top:.6g} > {tau_b[i]:.6g}")
        elif kind == "pattern_runs" and 1.5 * abs(p["amplitude"]) > tau_b[i]:
            text = f"pattern amplitude {p['amplitude']:.6g} exceeds the bad-data bound"
        elif kind == "symmetric_flood" and (abs(p["amplitude"]) + abs(p["jitter"])
                                            > MAX_ATTACK_MAGNITUDE):
            text = f"|amplitude| + |jitter| exceeds {MAX_ATTACK_MAGNITUDE:g}"
        elif kind.endswith("_randaware") and abs(p["epsilon"]) > MAX_ATTACK_MAGNITUDE:
            text = f"epsilon exceeds {MAX_ATTACK_MAGNITUDE:g}"
        else:
            continue
        return [("", text)], None
    return [], params


def stealth_threshold(sigma, alpha_des: float, bdd: Optional[BadDataDetector]) -> np.ndarray:
    """The bad-data threshold tau_b a plan's stealth bounds hold it to, one per sensor: the
    run's ``bdd``'s, or without one the threshold :func:`tune_bdd` derives at ``alpha_des``."""
    return np.atleast_1d(tune_bdd(sigma, alpha_des) if bdd is None else bdd.tau)


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

    ``c_rows`` is the plant output matrix, one row per sensor of ``n_sensors`` (an integer
    >= 1); ``sigma`` the residual standard deviations, one number or one per sensor. The
    first problem of these, or of :func:`check_plan`, is raised as ``InvalidParameter``,
    led by the argument or field it names. The CUSUM kinds
    step a copy of the tuned ``cusum`` (tau, bias and S); the bad-data kinds
    and the scripted stealth bounds use :func:`stealth_threshold`. A scripted kind leaves
    ``target - ce - eta_i``; a worst-case kind takes ``v = -ce - eta_i``, adds
    the CUSUM bias, on a saturating step sets ``v = (v - S) + pinned``
    (S = 0.0 for BDD: exact) and subtracts the randomness-aware dither. Every
    draw comes from one generator seeded by ``seed`` (an integer >= 0 or a
    ``SeedSequence``).
    """
    rng = philox(seed)
    require("n_sensors", count_problem(n_sensors, 1))
    c_rows = matrix_arg("c_rows", c_rows, ("sensors", "states"), (n_sensors, None))
    sigma = sigma_array(sigma)
    require("sigma", "" if sigma.ndim == 0 or sigma.size == n_sensors else
            f"must be one number or one per sensor ({n_sensors}), got {sigma.size}")
    tau_b = stealth_threshold(sigma, alpha_des, bdd)
    kind = plan.kind
    problems, params = check_plan(plan, n_sensors, ell=ell, has_cusum=cusum is not None,
                                  sigma=sigma, tau_b=tau_b)
    raise_first(problems)

    if kind in _SCRIPTED:
        signal, draw = _SCRIPTED[kind]
        return AttackPolicy(plan, c_rows, signal, tuple(params.values()), [rng], draw=draw)

    # The worst-case kinds. Detector-only mode pins every residual just below the
    # bad-data threshold, or holds the CUSUM statistic S (of the policy's own copy,
    # stepped on each previous residual as the defender's is) just below its
    # threshold. The randomness-aware mode saturates only on the scheduled steps
    # (beta per window) and elsewhere leaves the residual at -delta (BDD) or
    # bias - delta (CUSUM), inside the signed-rank band; delta ~ U(0, epsilon). The
    # forcing is the mean residual this leaves: the BDD threshold, times beta/ell if
    # only the saturating steps sit there, or the CUSUM bias.
    schedule = bias = own = eps = None  # own: the CUSUM kinds' own detector
    if kind.endswith("_randaware"):
        budget = saturation_budget(ell, alpha_des)
        schedule = schedule_saturation(budget, rng)
        eps = params["epsilon"] + 0.0  # -0.0 to 0.0: uniform's bound check rejects a negative zero
    if kind.startswith("worst_case_bdd"):
        pinned = (tau_b * (1.0 - THRESHOLD_MARGIN)).tolist()
        level = tau_b if schedule is None else tau_b * budget.ratio
        if bdd is None:  # a derived threshold, not one a detector in the loop uses
            level = None
    else:
        own = replace(cusum)  # a copy: __post_init__ copies S
        bias, pinned = cusum.bias.tolist(), (cusum.tau * (1.0 - THRESHOLD_MARGIN)).tolist()
        level = cusum.bias

    attacked = np.isin(np.arange(n_sensors), plan.sensors)
    forcing = None if level is None else np.where(attacked, level, 0.0)
    return AttackPolicy(plan, c_rows, _worst_case, (bias, pinned, eps), [rng], forcing,
                        schedule, own, None if eps is None else _dither)


class CompositeAttack:
    """Sum of several policies, all one run's or all stacks of the same runs (:func:`stack`).

    Called as an :class:`AttackPolicy` is; the phases are summed in order onto
    zeros shaped as ``eta``.
    """

    def __init__(self, policies: Sequence[AttackPolicy]):
        self.policies = list(policies)

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray,
                 r_prev: Optional[np.ndarray]) -> np.ndarray:
        xi = np.zeros(eta.shape)
        for policy in self.policies:
            xi += policy(k, e, eta, r_prev)
        return xi


class PerRunAttacks:
    """Each run's own one-run attack (None: none) on that run's rows of a stack.

    Called as a stack is, with (R, n) and (R, s) stacks, it hands run j's attack
    e[j], eta[j] and r_prev[j] (None at step 0), as ``lti.simulate`` hands one
    run's vectors, and puts its value, through ``lti._resolve_attack``, in row j
    of zeros shaped as ``eta``. It joins runs whose attacks differ in kind or
    settings, which :func:`stack` cannot, at one call per run and step.
    """

    def __init__(self, attacks: Sequence):
        self.attacks = list(attacks)

    def __call__(self, k: int, e: np.ndarray, eta: np.ndarray,
                 r_prev: Optional[np.ndarray]) -> np.ndarray:
        xi = np.zeros(eta.shape)
        for j, attack in enumerate(self.attacks):
            if attack is not None:
                _resolve_attack(attack, k, e[j], eta[j], None if r_prev is None else r_prev[j],
                                xi[j])
        return xi


def stack(runs: Sequence) -> Optional[AttackPolicy | CompositeAttack]:
    """One attack for ``runs``, one factory output per run, each run keeping its state.

    None for every run gives None; :class:`CompositeAttack` runs of as many
    phases give a composite whose phases this function joins; :class:`AttackPolicy`
    runs give the joined policy, R = 1 included. The policies must be distinct
    objects of one kind, sensors and window, with equal ``c_rows``, constants (the
    resolved params) and CUSUM settings, as :func:`build_attack_policy` builds
    them with only the seed changing. ``forcing`` is run 0's. The joined policy draws
    from each run's generator where it stands, so the runs' policies must not have
    drawn a chunk they have not used (a policy that has attacked draws ahead).
    """
    first = runs[0]
    if all(run is None for run in runs):
        return None
    if isinstance(first, CompositeAttack):
        for j, c in enumerate(runs):
            if not (isinstance(c, CompositeAttack) and len(c.policies) == len(first.policies)):
                raise InvalidParameter(f"run {j}'s attack cannot share a stack with run 0's "
                                       "CompositeAttack: the runs need the same phases")
        return CompositeAttack([stack(phase) for phase in zip(*(c.policies for c in runs))])
    if not isinstance(first, AttackPolicy):
        raise InvalidParameter("policy_factory must return an AttackPolicy or CompositeAttack "
                               f"(or None for every run), got {type(first).__name__}")

    def shared(p):
        return [p.c_rows, *p.consts] + ([] if p.cusum is None else [p.cusum.tau, p.cusum.bias])

    for j, p in enumerate(runs):
        if not isinstance(p, AttackPolicy):
            raise InvalidParameter(
                f"run {j}'s attack is a {type(p).__name__}, run 0's an AttackPolicy")
        same = (p.signal is first.signal and np.shape(p.schedule) == np.shape(first.schedule)
                and replace(p.plan, params={}) == replace(first.plan, params={})
                and all(np.array_equal(a, b) for a, b in zip(shared(p), shared(first))))
        if not same:
            raise InvalidParameter(
                f"run {j}'s attack policy cannot share a stack with run 0's: "
                "the runs need one plan, C and detector, with only the seed differing")
        for i, other in enumerate(runs[:j]):
            if other is p:
                raise InvalidParameter(f"runs {i} and {j} share one attack policy object; "
                                       "each run needs its own")
    schedule = None if first.schedule is None else np.array([p.schedule for p in runs]).T
    cusum = None if first.cusum is None else replace(
        first.cusum, S=np.array([p.cusum.S for p in runs]))
    return AttackPolicy(first.plan, first.c_rows, first.signal, first.consts,
                        [rng for p in runs for rng in p.rngs], first.forcing, schedule, cusum,
                        first.draw)
