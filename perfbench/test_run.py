"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root.

Runs every workload at smoke size, traced and untraced, and checks that each
metric of BENCHMARK.json and each named workload metric is printed with its
unit, and that every oracle check ran.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

NAMED = {
    "sampled": {"estimate_sampled_s": "s", "coverage": "share", "coverage_heavy_ring": "share"},
    "exact": {
        "estimate_exact_s": "s",
        "z_exact_s": "s",
        "algebra_ops_per_s": "ops/s",
        "cli_call_s": "s",
    },
    "scale": {"reduce_hub_s": "s", "reduce_spread_s": "s", "z_product_type_s": "s"},
}
COMMON = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_raw_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "share",
}
CHECKS = {
    "sampled": {"sampled.estimate_vs_exact"},
    "exact": {
        "exact.estimate_vs_elimination",
        "exact.fpras_tag_accepted",
        "exact.z_exact_vs_elimination",
        "exact.classify_vs_definition",
        "exact.fourier_vs_definition",
        "exact.inverse_fourier_round_trip",
        "exact.property_report_vs_definition",
        "exact.pinning_soundness",
        "exact.cli_output",
    },
    "scale": {"scale.reduction_closed_form", "scale.z_product_type_closed_form"},
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_smoke(workload: str, trace: int) -> None:
    details, result = run(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    named = {k: v["unit"] for k, v in details["named"].items()}
    assert named == {**COMMON, **NAMED[workload]}
    assert set(details["checks"]) == CHECKS[workload]
    assert all(c["ran"] > 0 for c in details["checks"].values())


def test_refuses_to_run_without_the_sources(tmp_path) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "exact",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
