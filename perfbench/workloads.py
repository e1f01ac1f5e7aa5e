"""Workload definitions shared by run.py and the repetition process (child.py).

Each workload is generated from a seed and a size. The sizes are:

- ``tiny``: seconds per repetition, used by the self-test;
- ``bench``: the size the timed benchmark runs;
- ``full``: the shipped horizon (W1, W2), the C06 ensemble (W3) and 3000-step
  sweep cells (W4), for the full-horizon golden digests.

Why each workload exists is documented in README.md next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

SIZES = ("tiny", "bench", "full")

#: Sweep grid of W4, as in the README's `randmon sweep` example.
SWEEP_ALPHAS = (0.05, 0.2)
SWEEP_ATTACKS = ("none", "bias_concentrate", "pattern_runs")
SWEEP_WORKERS = 2

#: The stable two-state plant and attack of acceptance test C06.
STABLE_PLANT = {
    "A": [[0.90, 0.05], [0.00, 0.80]],
    "B": [[0.5], [1.0]],
    "C": [[1.0, 0.0]],
    "Q": [[2e-4, 0.0], [0.0, 2e-4]],
    "R": [[4e-4]],
    "ts": 1.0,
}
ENSEMBLE_ALPHA = 0.05
ENSEMBLE_BURN_IN = 500

#: Iterations of child.reference_seconds(), and the seconds the reported
#: timings are scaled to: they read as on a machine that does the reference
#: work in REFERENCE_S.
REFERENCE_ITERATIONS = 4000
REFERENCE_S = 0.1

#: C01's tolerance on |alarm rate - alpha|.
RATE_TOLERANCE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "scenario" | "ensemble" | "sweep"
    default_seed: int
    sizes: dict                # size -> horizon, or (runs, horizon) for the ensemble
    config: str = ""           # shipped config the inputs are generated from
    fmt: str = ""              # output format of a scenario workload
    # size -> tests whose alarm rate must lie within RATE_TOLERANCE of alpha.
    # WSR/SIR verdicts over a 100-step window are strongly correlated, so
    # C01's tolerance only holds for them at C01's 100k-step horizon; BDD and
    # CUSUM verdicts are nearly independent per step.
    rate_checks: dict = field(default_factory=dict)

    def steps(self, size: str) -> int:
        """Closed-loop steps simulated and scored by one repetition."""
        if self.kind == "ensemble":
            runs, horizon = self.sizes[size]
            return runs * horizon
        if self.kind == "sweep":
            return len(SWEEP_ALPHAS) * len(SWEEP_ATTACKS) * self.sizes[size]
        return self.sizes[size]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="W1-noattack-csv",
            kind="scenario",
            default_seed=2024,
            sizes={"tiny": 300, "bench": 5000, "full": 100_000},
            config="configs/ugv_noattack.json",
            fmt="csv",
            rate_checks={"bench": ("bdd", "cusum"), "full": ("wsr", "sir", "bdd", "cusum")},
        ),
        Workload(
            name="W2-stealth-jsonl",
            kind="scenario",
            default_seed=11,
            sizes={"tiny": 300, "bench": 5000, "full": 20_000},
            config="configs/ugv_stealthy_randaware.json",
            fmt="jsonl",
        ),
        Workload(
            name="W3-deviation-ensemble",
            kind="ensemble",
            default_seed=77,
            sizes={"tiny": (10, 300), "bench": (20, 4000), "full": (100, 4000)},
        ),
        Workload(
            name="W4-sweep-fanout",
            kind="sweep",
            default_seed=2024,
            sizes={"tiny": 300, "bench": 1000, "full": 3000},
            config="configs/ugv_noattack.json",
        ),
    )
}


def scenario_config(root: str, workload: Workload, size: str, seed: int) -> dict:
    """Raw config for one repetition: the shipped config at the size's horizon and the seed.

    Attack windows that end at the shipped horizon are cut to the new horizon.
    The output section stays, so the config hash in the output (and with it
    the digest at the full size) is the one `randmon run` gives.
    """
    with open(os.path.join(root, workload.config), "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    shipped_horizon = raw["horizon"]
    horizon = workload.sizes[size]
    raw["horizon"] = horizon
    raw["seed"] = seed
    for attack in raw.get("attacks", []):
        if attack.get("stop", shipped_horizon) >= shipped_horizon:
            attack["stop"] = horizon
    return raw
