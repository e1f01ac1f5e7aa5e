"""One benchmark repetition in a fresh Python process.

Run by run.py as ``python3 perfbench/child.py '<json spec>'`` from the
checkout root with ``PYTHONPATH=src``; not meant to be run by hand. A fresh
process starts with randmon's per-process CUSUM tuning cache empty, as it is
for a user of ``randmon run``.

The spec names the workload, size, seed, output directory, whether to trace,
and the sweep's worker count. The process drives randmon only through its
public functions, writes the workload's one output file, and prints one JSON
line with its phase timings, peak memory and, when traced, the per-layer
summary. A fixed piece of reference work is timed just before and just
after the workload (``reference_s``). The first of these, and everything
after the workload returns (``tail_s``: the second, writing spans, the report
itself), are subtracted from the repetition's wall time.
"""

import time

ENTRY = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import deque  # noqa: E402

import numpy as np  # noqa: E402

import randmon  # noqa: E402
from randmon import attacks, config, detectors, deviation, harness, lti  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import (  # noqa: E402
    ENSEMBLE_ALPHA,
    REFERENCE_ITERATIONS,
    ENSEMBLE_BURN_IN,
    STABLE_PLANT,
    SWEEP_ALPHAS,
    SWEEP_ATTACKS,
    WORKLOADS,
    scenario_config,
)


_REF_X = np.random.default_rng(0).standard_normal((64, 100))
_REF_A = np.array([[0.5, 0.1, 0.0], [0.0, 0.5, 0.1], [0.1, 0.0, 0.5]])


def reference_seconds() -> float:
    """Seconds this process takes for a fixed piece of work that does not use randmon.

    The work mixes what a scored closed-loop step does: a stable argsort and a
    rank sum over 100 values, a sign-change count, a 3x3 product, erfc and a
    ring buffer. run.py divides the repetition's times by it to take out the
    machine's speed at the time (see README.md, "Speed scaling").
    """
    ring = deque(maxlen=100)
    v = np.ones(3)
    acc = 0.0
    start = 0.0
    for i in range(-50, REFERENCE_ITERATIONS):  # the first 50 warm up and are not timed
        if i == 0:
            start = time.perf_counter()
        x = _REF_X[i % 64]
        order = np.argsort(np.abs(x), kind="stable")
        ranks = np.empty(100)
        ranks[order] = np.arange(1.0, 101.0)
        w_plus = float(ranks[x > 0.0].sum())
        d = np.diff(x)
        runs = 1 + int(np.count_nonzero(np.sign(d[1:]) != np.sign(d[:-1])))
        v = _REF_A @ v + x[:3]
        acc += math.erfc(abs(w_plus - 2525.0) / 410.0) + runs
        ring.append(acc > 0.0)
    return time.perf_counter() - start


def setup_scenario(raw: dict):
    """Config validation, plant build and ZOH, DARE, LQR and cold CUSUM tuning.

    ``tuned_thresholds`` fills randmon's tuning cache, so the run that follows
    reuses these thresholds exactly as it would have computed them.
    """
    cfg = config.load_config_dict(raw)
    plant = config.build_plant(cfg.plant_spec)
    lti.make_controller(plant)
    harness.tuned_thresholds(cfg)
    return cfg


def scenario(spec, workload, clock):
    raw = scenario_config(spec["root"], workload, spec["size"], spec["seed"])
    cfg = setup_scenario(raw)
    clock("setup_s")
    artifacts = harness.run_scenario(cfg)
    clock("sim_s")
    name = f"run_{config.config_hash(cfg)}_{cfg.seed}.{workload.fmt}"
    path = harness.emit_outputs(artifacts, workload.fmt, os.path.join(spec["out_dir"], name))
    clock("emit_s")
    return path, {"rows": artifacts.horizon, "alarm_rate": artifacts.summary.alarm_rate,
                  "alpha_des": cfg.alpha_des}


def ensemble(spec, workload, clock):
    runs, horizon = workload.sizes[spec["size"]]
    plant = lti.LtiPlant(**STABLE_PLANT)
    kss = lti.solve_dare(plant)
    gains = lti.make_controller(plant)
    tau = detectors.tune_bdd(kss.sigma[0], ENSEMBLE_ALPHA)
    prediction = deviation.deviation_limit(plant, kss, gains, [tau])
    clock("setup_s")

    def factory(j):
        plan = attacks.AttackPlan(kind="worst_case_bdd", sensors=(0,), start=0, stop=10**9)
        return attacks.build_attack_policy(plan, 1, plant.C, kss.sigma,
                                           alpha_des=ENSEMBLE_ALPHA, seed=j)

    traj = deviation.run_attack_ensemble(plant, kss, gains, factory, n_runs=runs,
                                         horizon=horizon, base_seed=spec["seed"])
    clock("sim_s")
    burn_in = min(ENSEMBLE_BURN_IN, horizon // 2)
    check = deviation.validate_against_simulation(prediction, traj, burn_in=burn_in)
    # C06's tolerance: 10% relative, widened to four standard errors.
    tol = np.maximum(0.10, 4.0 * check.ensemble_stderr / np.abs(prediction.delta))
    clock("validate_s")
    path = os.path.join(spec["out_dir"], f"trajectory_{spec['seed']}.f64")
    with open(path, "wb") as handle:
        handle.write(np.ascontiguousarray(traj, dtype="<f8").tobytes())
    return path, {"deviation_ok": bool(np.all(check.relative_error < tol)),
                  "relative_error": check.relative_error.tolist()}


def sweep(spec, workload, clock):
    raw = scenario_config(spec["root"], workload, spec["size"], spec["seed"])
    clock("setup_s")  # the sweep's set-up happens inside its workers; measured below
    results = harness.run_sweep(raw, SWEEP_ALPHAS, SWEEP_ATTACKS, workers=spec["workers"])
    clock("sim_s")
    path = harness.write_sweep(results, os.path.join(spec["out_dir"], f"sweep_{spec['seed']}.csv"))
    clock("emit_s")
    # Cold set-up of the base config, measured after the sweep: with worker
    # processes the cells ran elsewhere and this process's tuning cache is
    # still empty; priming it before the fork would let workers inherit it.
    setup_scenario(raw)
    clock("setup_s")
    return path, {"rows": len(results)}


KINDS = {"scenario": scenario, "ensemble": ensemble, "sweep": sweep}


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    src = os.path.join(spec["root"], "src")
    if not os.path.abspath(randmon.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"randmon was imported from {randmon.__file__}, not from {src}")
    tracer = None
    if spec["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    phases = {"import_s": time.perf_counter() - ENTRY}
    reference = [reference_seconds()]
    mark = [time.perf_counter()]

    def clock(phase):
        now = time.perf_counter()
        phases[phase] = phases.get(phase, 0.0) + now - mark[0]
        mark[0] = now

    path, extra = KINDS[workload.kind](spec, workload, clock)
    done = time.perf_counter()
    reference.append(reference_seconds())

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "phases": phases,
        "reference_s": reference,
        "path": path,
        "peak_rss_mb": usage / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **extra,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write_spans(os.path.join(spec["out_dir"], "spans.npz"))
    report["tail_s"] = time.perf_counter() - done
    print(json.dumps(report))


if __name__ == "__main__":
    main()
