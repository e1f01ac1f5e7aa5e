"""randmon benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload W1-noattack-csv --seed 1 --seconds 32 --trace 0

Runs repetitions of one workload, each in a fresh Python process (one at a
time; W4's sweep starts two workers of its own), until ``--seconds`` have been
measured. The first repetition runs at the workload's default seed and must
reproduce the pinned golden SHA-256 digest; the others run at ``--seed`` and
must reproduce each other byte for byte (and the golden digest when ``--seed``
is the default). A repetition fails if it raises, exits non-zero, times out,
breaks a digest or fails the workload's own check (alarm rates within C01's
0.03 of alpha on W1, the C06 deviation tolerance on W3).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics plus the
tracing overhead. Times are scaled to a reference speed measured in each
repetition's process (README.md, "Speed scaling"). A readable table goes to
standard output, the last line is one JSON object, and the full result (per
repetition, per layer, environment) is written to ``perfbench/out/``. See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    REFERENCE_S, RATE_TOLERANCE, SIZES, SWEEP_WORKERS, WORKLOADS,
)

#: Every run must exit within this many seconds: a repetition still running
#: then is killed and counted as failed.
RUN_LIMIT_S = 170.0
MIN_REPS = {0: 3, 1: 4}


def load_json(name: str):
    with open(os.path.join(HERE, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def program_missing() -> list:
    needed = [os.path.join("src", "randmon", "__init__.py")]
    needed += sorted({w.config for w in WORKLOADS.values() if w.config})
    return [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]


def run_rep(workload: str, size: str, seed: int, traced: bool, workers: int, timeout: float,
            out_dir: str) -> dict:
    """Run one repetition in a fresh process; returns its report (``error`` set on failure)."""
    os.makedirs(out_dir, exist_ok=True)
    spec = {"root": ROOT, "workload": workload, "size": size, "seed": seed,
            "traced": traced, "workers": workers, "out_dir": out_dir}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONSTARTUP", None)
    t0 = time.perf_counter()
    # A session of its own, so that a timeout also kills W4's sweep workers.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"seed": seed, "traced": traced, "error": f"timed out after {timeout:.0f} s"}
    wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"seed": seed, "traced": traced,
                "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    report = json.loads(lines[-1])
    report.update(seed=seed, traced=traced, wall_s=wall,
                  run_s=wall - report["reference_s"][0] - report["tail_s"])
    return report


def judge(rep: dict, workload, size: str, golden: dict, reference: dict) -> None:
    """Check one repetition's output; sets ``rep["error"]`` when it is wrong.

    ``reference`` maps seed -> digest of the first output seen at that seed,
    so later repetitions at that seed must reproduce it byte for byte.
    """
    if "error" in rep:
        return
    digest = sha256_file(rep["path"])
    rep["sha256"] = digest
    if rep["seed"] == workload.default_seed and size in golden.get(workload.name, {}):
        expected, what = golden[workload.name][size], "golden digest"
    else:
        expected, what = reference.setdefault(rep["seed"], digest), "first repetition at this seed"
    if digest != expected:
        rep["error"] = f"output sha256 {digest[:16]} differs from the {what} {expected[:16]}"
        return
    for test in workload.rate_checks.get(size, ()):
        alpha = rep["alpha_des"][test]
        worst = max(abs(rate - alpha) for rate in rep["alarm_rate"][test])
        if worst >= RATE_TOLERANCE:
            rep["error"] = f"{test} alarm rate off alpha {alpha} by {worst:.4f}"
            return
    if rep.get("deviation_ok") is False:
        rep["error"] = f"ensemble deviation error {rep['relative_error']} outside C06 tolerance"


def spread(values: list) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def scale(rep: dict) -> float:
    """Factor that turns this repetition's seconds into seconds at the reference speed."""
    return REFERENCE_S / statistics.mean(rep["reference_s"])


def scaled(value: float, unit: str, factor: float) -> float:
    """A time is multiplied by the factor, a rate divided; counts stay as they are."""
    if unit in ("s", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def end_to_end(reps: list, workload, size: str) -> dict:
    """Every end-to-end metric over the untraced repetitions that completed.

    ``<name>`` is scaled to the reference speed, ``<name>_raw`` is as timed.
    """
    done = [r for r in reps if not r["traced"] and "phases" in r]
    steps = workload.steps(size)
    metrics = {
        "setup_s": ("s", lambda r: r["phases"]["setup_s"]),
        "run_s": ("s", lambda r: r["run_s"]),
        "steps_per_s": ("1/s", lambda r: steps / r["phases"]["sim_s"]),
    }
    if workload.kind == "scenario":
        metrics["emit_rows_per_s"] = ("1/s", lambda r: r["rows"] / r["phases"]["emit_s"])
    out = {}
    for name, (unit, get) in metrics.items():
        out[name] = {"unit": unit, **spread([scaled(get(r), unit, scale(r)) for r in done])}
        out[f"{name}_raw"] = {"unit": unit, **spread([get(r) for r in done])}
    out["peak_rss_mb"] = {"unit": "MB", **spread([r["peak_rss_mb"] for r in done])}
    return out


def per_layer(reps: list, units: dict) -> dict:
    """Median over traced repetitions of each per-layer metric, scaled like the end-to-end ones."""
    traced = [r for r in reps if r["traced"] and "layers" in r]
    plain = [r for r in reps if not r["traced"] and "phases" in r]
    for r in traced:
        emit_s = r["layers"]["harness.emit_outputs.s"]
        rows_per_s = r.get("rows", 0) / emit_s if emit_s else 0.0
        r["layers"]["harness.emit_outputs.rows_per_s"] = rows_per_s
    layers = {key: statistics.median(scaled(r["layers"][key], units[key], scale(r)) for r in traced)
              for key in traced[0]["layers"]}
    layers["trace.overhead"] = (statistics.median(r["run_s"] * scale(r) for r in traced)
                                / statistics.median(r["run_s"] * scale(r) for r in plain))
    return layers


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(reps: list, workload, seed: int) -> dict:
    child = next((r for r in reps if "python" in r), {})
    return {
        "python": child.get("python", platform.python_version()),
        "numpy": child.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seeds": {"run": seed, "default": workload.default_seed},
    }


def print_table(name: str, e2e: dict, attempted: int, failed: int) -> None:
    print(f"{name}: {attempted} repetitions, {failed} failed "
          f"(failed_frac {failed / attempted:.3f})")
    print(f"  {'metric':<20}{'unit':<6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for metric, m in e2e.items():
        print(f"  {metric:<20}{m['unit']:<6}{m['median']:>14.6g}{m['q1']:>14.6g}"
              f"{m['q3']:>14.6g}{m['n']:>4}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench")
    args = parser.parse_args(argv)

    missing = program_missing()
    if missing:
        print(f"perfbench: program files missing from {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    golden = load_json("golden.json")
    workload = WORKLOADS[args.workload]
    traced_mode = bool(args.trace)
    workers = 1 if traced_mode else SWEEP_WORKERS
    rep_dir = os.path.join(OUT, "reps", workload.name)
    shutil.rmtree(rep_dir, ignore_errors=True)

    # One unit is one repetition, or an untraced/traced pair in trace mode.
    # The first unit runs at the default seed; no unit starts that would
    # probably end past the measuring time.
    modes = (False, True) if traced_mode else (False,)
    budget = min(args.seconds, RUN_LIMIT_S)
    start = time.perf_counter()
    reps, reference, unit_s = [], {}, []
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS[args.trace] and elapsed + statistics.median(unit_s) > budget:
            break
        seed = args.seed if reps else workload.default_seed
        for traced in modes:
            timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - start))
            rep = run_rep(workload.name, args.size, seed, traced, workers, timeout, rep_dir)
            judge(rep, workload, args.size, golden, reference)
            if os.path.isfile(rep.get("path", "")):
                os.remove(rep["path"])
            if "error" in rep:
                print(f"repetition {len(reps)} (seed {seed}, traced {traced}) failed: "
                      f"{rep['error']}", file=sys.stderr)
            reps.append(rep)
        unit_s.append(time.perf_counter() - start - elapsed)

    attempted = len(reps)
    failed = sum("error" in r for r in reps)
    e2e = end_to_end(reps, workload, args.size)
    if not e2e["run_s"]["n"]:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    result = {
        "workload": workload.name,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": e2e,
        "environment": environment(reps, workload, args.seed),
        "repetitions": [{k: v for k, v in r.items() if k not in ("layers", "path")}
                        for r in reps],
    }
    if traced_mode:
        if not any(r["traced"] and "layers" in r for r in reps):
            print("perfbench: no traced repetition completed", file=sys.stderr)
            return 1
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        result["per_layer"] = per_layer(reps, units)
        result["spans_file"] = os.path.relpath(os.path.join(rep_dir, "spans.npz"), ROOT)
        metrics = {n: {"value": result["per_layer"][n], "unit": u} for n, u in units.items()}
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        metrics = {n: {"value": e2e[n]["median"], "unit": e2e[n]["unit"]} for n in names}
    os.makedirs(OUT, exist_ok=True)
    name = f"{workload.name}.{args.size}.seed{args.seed}.trace{args.trace}.json"
    out_path = os.path.join(OUT, name)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    print_table(workload.name, e2e, attempted, failed)
    print(f"  result: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
