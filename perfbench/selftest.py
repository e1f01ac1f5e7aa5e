"""Self-test of the benchmark, at the tiny size (about two minutes).

    python3 perfbench/selftest.py

Checks that:

- every workload runs untraced and traced, is correct, and prints every
  end-to-end or per-layer metric of BENCHMARK.json with its unit and a
  finite number;
- a deliberately corrupted copy of each workload's output is counted as a
  failed repetition;
- run.py exits non-zero, without a result line, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds and prints one line per failed check otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, RUN_LIMIT_S, WORKLOADS, judge, load_json, run_rep

SEED = 1  # any seed other than the workloads' defaults


def run_bench(root: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10,
    )


def check_metrics(workload: str, trace: int, expected: list, problems: list) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: not correct: {proc.stderr.strip()[-300:]}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r} is not a finite number")


def check_corruption(name: str, problems: list) -> None:
    workload = WORKLOADS[name]
    rep = run_rep(name, "tiny", workload.default_seed, False, 1, RUN_LIMIT_S,
                  os.path.join(OUT, "selftest"))
    golden = load_json("golden.json")
    judge(rep, workload, "tiny", golden, {})
    if "error" in rep:
        problems.append(f"{name}: clean output judged wrong: {rep['error']}")
        return
    copy = rep["path"] + ".corrupt"
    with open(rep["path"], "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x01
    with open(copy, "wb") as handle:
        handle.write(data)
    bad = {k: v for k, v in rep.items() if k != "sha256"}
    bad["path"] = copy
    judge(bad, workload, "tiny", golden, {workload.default_seed: rep["sha256"]})
    if "error" not in bad:
        problems.append(f"{name}: corrupted output was not counted as failed")
    os.remove(copy)
    os.remove(rep["path"])


def check_bare_directory(problems: list) -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "--workload", "W1-noattack-csv", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    problems = []
    for name in WORKLOADS:
        check_metrics(name, 0, bench["end_to_end"], problems)
        check_metrics(name, 1, bench["per_layer"], problems)
        check_corruption(name, problems)
    check_bare_directory(problems)
    for line in problems:
        print(f"FAIL {line}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
