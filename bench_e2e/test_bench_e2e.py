"""Smoke test of the benchmark itself: ``python -m pytest bench_e2e -q``.

Outside tier-1 (``pyproject.toml`` collects ``tests/`` only).  Runs the
``--quick`` sizes, so it checks the plumbing — names, units, digests, span
accounting, repeatability of counts — not the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
#: one caller, so isomorphism-test counts repeat exactly
SINGLE_CALLER = ["cold_filter", "hot_verify", "churn_durable"]


def run_suite(*flags):
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--quick", *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    digests = dict(re.findall(r'^(\w+)# digest: "(\w+)"$', done.stdout, flags=re.M))
    return summary, digests, lines


@pytest.fixture(scope="module")
def untraced():
    return run_suite(), run_suite()


@pytest.fixture(scope="module")
def traced():
    return run_suite("--trace")


def test_every_workload_emits_every_end_to_end_metric(untraced):
    (summary, digests, lines), _ = untraced
    assert summary["correct"]
    assert sorted(digests) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        result = summary["workloads"][workload]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for metric in SPEC["end_to_end"]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0
            assert any(
                line.startswith(f"{workload}/{metric['name']} ") and line.endswith(metric["unit"])
                for line in lines
            )


def test_counts_and_digests_repeat(untraced):
    (first, first_digests, _), (second, second_digests, _) = untraced
    assert first_digests == second_digests
    for workload in SINGLE_CALLER:
        tests = [
            run["workloads"][workload]["metrics"]["iso_tests_per_query"]["value"]
            for run in (first, second)
        ]
        assert tests[0] == tests[1]


def test_traced_run_emits_every_layer_metric(traced):
    summary, _, lines = traced
    for workload in WORKLOADS:
        metrics = summary["workloads"][workload]["metrics"]
        assert sorted(metrics) == sorted(metric["name"] for metric in SPEC["per_layer"])
        assert f"{workload}# missing_hooks: []" in lines
        assert all(emitted["value"] >= 0 for emitted in metrics.values())
        assert abs(metrics["trace.accounted_ratio"]["value"] - 1) <= 0.05


def test_driver_self_times_tile_the_lap(traced):
    for workload in WORKLOADS:
        path = ROOT / "bench_e2e" / "out" / f"trace-{workload}.jsonl"
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        ids = {span["id"] for span in spans}
        assert all(span["parent"] is None or span["parent"] in ids for span in spans)
        requests = [span for span in spans if span["name"] == "request"]
        wall = max(span["end"] for span in requests) - min(span["start"] for span in requests)
        driver = Counter(
            span["thread"] for span in spans if span["name"] == "service.dispatch"
        ).most_common(1)[0][0]
        accounted = sum(span["self"] for span in spans if span["thread"] == driver)
        assert abs(accounted / wall - 1) <= 0.05, (workload, accounted, wall)
