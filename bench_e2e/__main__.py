"""Command line of the benchmark (see README.md in this directory).

``python3 -m bench_e2e --workload W --seed N --seconds S --trace 0|1``
    one workload in this process — the form BENCHMARK.json's driver uses.
    Prints ``workload/metric value unit`` lines, then one JSON object.
``python3 -m bench_e2e [--seed N] [--trace] [--quick]``
    every workload, each in a fresh subprocess; ends with a JSON summary.
``python3 -m bench_e2e --selfcheck``
    the untraced suite twice; fails if a metric moves by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pinned_environment() -> dict | None:
    """The environment every measuring process runs under, or ``None`` if set.

    Hash randomisation is pinned so set and dict orders (and with them
    allocation patterns) repeat; the C kernel's build cache moves inside the
    checkout, where build outputs are allowed and ignored by git.
    """
    cache = str(ROOT / ".bench_build" / "cache")
    if os.environ.get("PYTHONHASHSEED") == "0" and os.environ.get("XDG_CACHE_HOME") == cache:
        return None
    return {**os.environ, "PYTHONHASHSEED": "0", "XDG_CACHE_HOME": cache}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, spec) -> int:
    """Driver form: measure one workload here and print its result line."""
    sys.path.insert(0, str(ROOT / "src"))
    from .harness import BenchmarkFailure, run_traced, run_untraced
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    try:
        if args.trace:
            metrics, info = run_traced(workload, args.seed, args.quick)
        else:
            metrics, info = run_untraced(workload, args.seed, args.seconds, args.quick)
    except BenchmarkFailure as failure:
        print(f"{workload.name}: FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if set(metrics) != set(units):
        raise SystemExit(
            f"BENCHMARK.json and the harness disagree on metrics: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    for name in units:
        print(f"{workload.name}/{name} {_format(metrics[name])} {units[name]}")
    attempted, failed = info.pop("attempted"), info.pop("failed")
    for key, value in info.items():
        print(f"{workload.name}# {key}: {json.dumps(value)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def run_suite(args, spec, environment) -> tuple[int, dict]:
    """Every workload in its own subprocess; ``(exit code, results by workload)``."""
    results, status = {}, 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        command = [
            sys.executable, "-m", "bench_e2e", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1]) if lines else {"correct": False}
        if done.returncode != 0 or not results[workload]["correct"]:
            status = 1
    return status, results


def selfcheck(args, spec, environment) -> int:
    """Two untraced suites back to back, compared against the bounds."""
    status, first = run_suite(args, spec, environment)
    second_status, second = run_suite(args, spec, environment)
    status |= second_status
    print(f"\n# selfcheck: nproc={os.cpu_count()} python={platform.python_version()} "
          f"seed={args.seed} seconds={args.seconds}")
    print("| workload | metric | run 1 | run 2 | worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for workload in first:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                one = first[workload]["metrics"][name]["value"]
                two = second[workload]["metrics"][name]["value"]
            except KeyError:
                status = 1
                continue
            worse = (two - one) / one if metric["better"] == "lower" else (one - two) / one
            verdict = "ok" if abs(worse) <= metric["bound"] else "FAIL"
            status |= verdict != "ok"
            print(f"| {workload} | {name} | {_format(one)} | {_format(two)} | "
                  f"{worse:+.2%} | {metric['bound']:.0%} | {verdict} |")
    return status


def main() -> int:
    spec = _spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: 1/20 of the streams, one set-up cycle")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench_e2e: no src/repro next to it; nothing to measure", file=sys.stderr)
        return 2
    environment = _pinned_environment()
    if args.workload:
        if environment is not None:
            os.chdir(ROOT)
            os.execve(sys.executable, [sys.executable, "-m", "bench_e2e", *sys.argv[1:]],
                      environment)
        return run_workload(args, spec)
    environment = environment or dict(os.environ)
    if args.selfcheck:
        return selfcheck(args, spec, environment)
    status, results = run_suite(args, spec, environment)
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
