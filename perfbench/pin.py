"""Pin the golden SHA-256 digests of every workload at its default seed.

    python3 perfbench/pin.py            # all sizes (the full sizes take about two minutes)
    python3 perfbench/pin.py tiny bench

Each digest is taken twice, in two fresh processes, and pinned only if both
agree. Run this only when a change is meant to alter randmon's output bytes,
and say why in that change.
"""

import json
import os
import sys

from run import HERE, OUT, RUN_LIMIT_S, SIZES, SWEEP_WORKERS, WORKLOADS, run_rep, sha256_file


def main(sizes) -> int:
    path = os.path.join(HERE, "golden.json")
    with open(path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    for workload in WORKLOADS.values():
        for size in sizes:
            digests = []
            for _ in range(2):
                rep = run_rep(workload.name, size, workload.default_seed, False, SWEEP_WORKERS,
                              RUN_LIMIT_S, os.path.join(OUT, "pin"))
                if "error" in rep:
                    print(f"{workload.name} {size}: {rep['error']}", file=sys.stderr)
                    return 1
                digests.append(sha256_file(rep["path"]))
                os.remove(rep["path"])
            if digests[0] != digests[1]:
                print(f"{workload.name} {size}: two runs differ", file=sys.stderr)
                return 1
            golden.setdefault(workload.name, {})[size] = digests[0]
            print(f"{workload.name} {size} seed {workload.default_seed}: {digests[0]}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or SIZES))
