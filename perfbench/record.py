"""Add one entry to the checked-in trajectory from the results in perfbench/out/.

    python3 perfbench/record.py 00-seed

Reads every ``<workload>.bench.seed<n>.trace<t>.json`` result and writes
``perfbench/trajectory/<label>.json``. For each workload and end-to-end
metric it gives the median, quartiles and spread of the per-run medians over
the untraced runs; for each per-layer metric the median over the traced runs.
Record only runs made with one benchmark version on one machine.
"""

import glob
import json
import os
import statistics
import sys

from run import HERE, OUT, load_json


def main(label: str) -> int:
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    results = []
    for path in sorted(glob.glob(os.path.join(OUT, "*.bench.seed*.trace*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            results.append(json.load(handle))
    if not results:
        print(f"no results in {OUT}", file=sys.stderr)
        return 1
    environment = {k: v for k, v in results[0]["environment"].items() if k != "seeds"}
    entry = {"label": label, "run_seconds": bench["run_seconds"],
             "environment": environment, "workloads": {}}
    for spec in bench["workloads"]:
        runs = [r for r in results if r["workload"] == spec["name"]]
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        item = {
            "seeds": sorted(r["environment"]["seeds"]["run"] for r in plain),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in plain[0]["end_to_end"] if plain else ():
            values = [r["end_to_end"][name]["median"] for r in plain]
            q1, median, q3 = statistics.quantiles(values, n=4)
            item["end_to_end"][name] = {
                "unit": plain[0]["end_to_end"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median, "runs": len(values),
            }
        if traced:
            item["per_layer_runs"] = len(traced)
            item["per_layer"] = {key: statistics.median(r["per_layer"][key] for r in traced)
                                 for key in traced[0]["per_layer"]}
        entry["workloads"][spec["name"]] = item
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    path = os.path.join(HERE, "trajectory", f"{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
