"""Golden SHA-256 digests of short UGV runs, one per attack kind.

Each run is written as CSV and as JSONL and both files are hashed. Any change
to the simulated trajectory, the monitor p-values, the alarm flags, the
sliding rates or the summary changes a digest. The last run uses a window
below the signed-rank test's small-sample size, so every window takes the
per-window path with its warnings.

Run ``PYTHONPATH=src python tests/test_golden.py`` to print the digests of
the current code (only re-pin for an intended output change).
"""

import hashlib
import os
import tempfile

import pytest

from randmon.attacks import ATTACK_KINDS
from randmon.config import load_config_dict
from randmon.errors import SmallSampleWarning
from randmon.harness import emit_outputs, run_scenario

HORIZON = 360


def _raw(kind: str, window: int = 60, rate_window: int = 60) -> dict:
    raw = {
        "plant": {"preset": "ugv"},
        "monitors": {"window": window, "rate_window": rate_window, "alpha_des": 0.05},
        "detectors": {"kind": "both", "bias_scale": 1.5},
        "horizon": HORIZON,
        "seed": 31,
    }
    if kind != "none":
        raw["attacks"] = [{"kind": kind, "sensors": [0, 2], "start": 120, "stop": HORIZON}]
    return raw


CASES = {kind: _raw(kind) for kind in ATTACK_KINDS}
CASES["small_window_worst_case_bdd"] = _raw("worst_case_bdd", window=12, rate_window=20)

GOLDEN = {
    "bias_concentrate": (
        "95c1dea57a8210fc267e6c030ade492a6479bf81b294b2884971cb4b51f8c71a",
        "12d212fc392f3ae100e5624b0d04b983f16fbe555388b87b2cdca2c409a17d44",
    ),
    "none": (
        "f8ff3567a535b11c8c430bc61e33e7e40c45855ef2a3dbb620f95c1ff5903135",
        "3d522313664dc6ebe254829bca6c4eb433df65b00f523a1029f5b54cdf357fa3",
    ),
    "pattern_runs": (
        "049f492b52a78e407f22e72cd3e795056b0fe0c3bfc0ac27af5eef40f01b5b50",
        "4bd0f9f3b6d0948a46132c2aa150d851d255afabc27d189886e1b2917c534cb4",
    ),
    "small_window_worst_case_bdd": (
        "7cac594e3ab200b044b7ded53aea6b07a9f12ef1095c76554df9f3baa012ed9f",
        "981e71289f8740f3eb1ed6c5d70231450516f1498a07b728fd36816eb7a06a13",
    ),
    "symmetric_flood": (
        "5fd04f786e0d305f5fb0763c067592a08e9b48ffe329e748cae4212c0f46cb0e",
        "e20760b3f5d190ccfa554e0810b8902c28de5a77a073ab94b18ccbf1e152249e",
    ),
    "worst_case_bdd": (
        "41e6b9342c11276d1bbc07971e10fdf5abb6368e46be7fe77be16a2515a78963",
        "3bf73afd7eeb2dcf7435c2484b8eb2a3430a6f491b04c84da3f39a0430f64920",
    ),
    "worst_case_bdd_randaware": (
        "fcee8ab1729f01ff4900e1754038fb212dfc187458eac9d010f60849946acd11",
        "9ded2a515fd6f4ed9b15bb864370699582b8f2c99210e8f90f37ca8ffe9ff77d",
    ),
    "worst_case_cusum": (
        "d2be3fda2c224fe6c8b3d7d470981d4612e0c0deaee1caa92a4ca973fb770756",
        "78a77ec957bb299baa00c7eef4527ba015478fed9521b2b8aa260a07dd7ff424",
    ),
    "worst_case_cusum_randaware": (
        "9c8934338cfb27a93327c8246de9227963512b9d81c695a271019768d8e450b5",
        "b9231f5328064586b9a43ceed2d2623dd4a9dc8df333113089da5da222d09f74",
    ),
}


def digests(raw: dict) -> tuple:
    """SHA-256 of the CSV and of the JSONL that one run writes."""
    artifacts = run_scenario(load_config_dict(raw))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "jsonl"):
            path = emit_outputs(artifacts, fmt, os.path.join(tmp, f"run.{fmt}"))
            with open(path, "rb") as handle:
                out.append(hashlib.sha256(handle.read()).hexdigest())
    return tuple(out)


@pytest.mark.filterwarnings("ignore::randmon.errors.SmallSampleWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digests(CASES[case]) == GOLDEN[case]


def test_small_window_case_takes_small_sample_path():
    with pytest.warns(SmallSampleWarning):
        run_scenario(load_config_dict(CASES["small_window_worst_case_bdd"]))


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(CASES):
        csv_digest, jsonl_digest = digests(CASES[name])
        print(f'    "{name}": (\n        "{csv_digest}",\n        "{jsonl_digest}",\n    ),')
    print("}")
