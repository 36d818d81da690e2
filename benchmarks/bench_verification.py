"""Benchmark: compiled (bitset VF2) verification vs the dict-based baseline.

Two measurements over the same synthetic Zipf workload:

1. **Verification stage** — each query is filtered once; its candidate set
   is then verified against fresh verifiers on up to four paths: the PR-1
   baseline (``Verifier(compiled=False, precheck=False)`` — a dict-based
   ``VF2Matcher`` per pair, no early-fail check), the compiled bigint
   kernel (``kernel="bigint"``: query plan compiled once, database-cached
   bitset targets, signature pre-check), the native C kernel
   (``kernel="native"``: one call per query, when the shared library
   compiles/loads) and the production path (``kernel="auto"``: the
   native kernel when loadable, else the bigint loop behind the batched
   ``DatasetSignatures`` pre-reject).  All answers must be byte-identical;
   the run **fails** on divergence, if the bigint speedup falls below the
   gate (default 1.5x), or if the production path's speedup over the
   uncompiled baseline falls below its own gate (default 2.0x, skipped
   when the path degenerates to bigint).  Pure-CPU comparisons, so the
   gates hold on any machine.

   When the native kernel is loadable a third gate compares it against
   the bigint kernel it replaces *at kernel granularity*: the corpus'
   unique ``(plan, target)`` pairs are swept through ``match_pairs``, one
   batch per plan, under both backends (answers must agree pair by pair)
   and the native kernel must win by at least 2.0x.

2. **Pipelined planner** — the full query stream is run through
   ``IGQ.run_batch`` with the worker pool, once with ``pipeline=False`` and
   once with ``pipeline=True``.  Answers and the engine's cache state must
   be identical (hard failure otherwise); the latency ratio is reported,
   and is only meaningful on multi-core machines (on one CPU the pool —
   and therefore the pipeline — never engages).

Run directly::

    python benchmarks/bench_verification.py --num-queries 120
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (  # noqa: E402
    IGQ,
    BatchConfig,
    CacheConfig,
    EngineConfig,
    default_num_workers,
    effective_cpu_count,
)
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.isomorphism import (  # noqa: E402
    Verifier,
    match_pairs,
    native_kernel_available,
    numpy_available,
)
from repro.methods import create_method  # noqa: E402
from repro.workloads.generator import QueryGenerator, WorkloadSpec  # noqa: E402
from repro.workloads.zipf import create_sampler  # noqa: E402


def build_stream(database, num_queries: int, distinct: int, alpha: float, seed: int):
    spec = WorkloadSpec(
        name="zipf-zipf",
        graph_distribution="zipf",
        node_distribution="zipf",
        alpha=alpha,
        seed=seed,
    )
    pool = QueryGenerator(database, spec).generate(distinct)
    rng = random.Random(seed + 1)
    sampler = create_sampler("zipf", len(pool), alpha=alpha)
    return [pool[sampler.sample(rng)] for _ in range(num_queries)]


def build_method(database, method_name: str, verifier: Verifier):
    if method_name in ("ggsx", "grapes"):
        method = create_method(method_name, max_path_length=3, verifier=verifier)
    else:
        method = create_method(method_name, verifier=verifier)
    method.build_index(database)
    return method


def bench_verification_stage(database, stream, method_name: str, repeats: int = 3) -> dict:
    """Verify every query's candidate set through every verifier path."""
    methods = {
        "baseline": build_method(
            database, method_name, Verifier(compiled=False, precheck=False)
        ),
        "bigint": build_method(database, method_name, Verifier(kernel="bigint")),
    }
    if native_kernel_available():
        methods["native"] = build_method(
            database, method_name, Verifier(kernel="native")
        )
    if native_kernel_available() or numpy_available():
        # "auto" is the production path: the native kernel, or the bigint
        # loop behind the batched prereject.
        methods["auto"] = build_method(database, method_name, Verifier(kernel="auto"))
    database.precompile()

    # One untimed sweep over the distinct queries per path: plan memos,
    # native structs and the batched-prereject arrays are amortised state in
    # any long-running deployment, so the gates compare steady-state
    # verification instead of charging first-touch costs to whichever leg
    # happens to run first.
    for method in methods.values():
        for query in dict.fromkeys(stream):
            method.verify(query, list(method.filter_candidates(query)))

    # Filter once (all paths verify the same candidate lists), then time
    # each path as full sweeps over the stream: interleaving the paths
    # per query would hand whichever leg runs *after* the native kernel a
    # hot-cache advantage on the very pairs it is compared against.  Each
    # sweep is repeated and the *minimum* is kept — the paths differ by
    # microseconds per pair, so one scheduler preemption inside a single
    # sweep would otherwise dominate the ratio the gates check.
    candidate_lists = [list(methods["baseline"].filter_candidates(q)) for q in stream]
    tests = sum(len(candidates) for candidates in candidate_lists)

    seconds = {}
    answers = {}
    for name, method in methods.items():
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            answers[name] = [
                sorted(map(repr, method.verify(query, candidates)))
                for query, candidates in zip(stream, candidate_lists)
            ]
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        seconds[name] = best
    identical = all(answers[name] == answers["baseline"] for name in methods)

    baseline_seconds = seconds["baseline"]
    result = {
        "verification_tests": tests,
        "numpy_available": numpy_available(),
        "native_kernel_available": native_kernel_available(),
        "baseline_verify_seconds": round(baseline_seconds, 4),
        "compiled_verify_seconds": round(seconds["bigint"], 4),
        "verification_speedup": round(baseline_seconds / max(seconds["bigint"], 1e-9), 3),
        "verification_answers_identical": identical,
    }
    if "native" in seconds:
        result["native_verify_seconds"] = round(seconds["native"], 4)
        result["native_speedup_vs_baseline"] = round(
            baseline_seconds / max(seconds["native"], 1e-9), 3
        )
        result.update(
            bench_native_kernel(
                methods["bigint"], database, stream, candidate_lists, repeats
            )
        )
    if "auto" in seconds:
        result["auto_resolved_kernel"] = (
            "native" if native_kernel_available() else "bigint"
        )
        result["auto_verify_seconds"] = round(seconds["auto"], 4)
        result["auto_verification_speedup"] = round(
            baseline_seconds / max(seconds["auto"], 1e-9), 3
        )
    return result


def bench_native_kernel(method, database, stream, candidate_lists, repeats: int) -> dict:
    """Kernel-granularity comparison: native vs bigint over the corpus pairs.

    Sweeps every unique ``(plan, target)`` pair through ``match_pairs`` —
    one batch per plan, as production verifies — with each backend forced,
    keeping the minimum over ``repeats`` timed multi-pass sweeps.  Both
    backends must agree on every pair.
    """
    batches = {}
    for query, candidates in zip(stream, candidate_lists):
        plan = method.verifier.compile_pattern(query)
        batches.setdefault(id(plan), (plan, {}))[1].update(
            (graph_id, database.compiled_target(graph_id)) for graph_id in candidates
        )
    batches = [(plan, list(targets.values())) for plan, targets in batches.values()]

    passes = 5
    seconds = {}
    verdicts = {}
    for kernel in ("bigint", "native"):
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for _ in range(passes):
                answers = [
                    match_pairs(plan, targets, kernel=kernel)[0] for plan, targets in batches
                ]
            best = min(best or float("inf"), time.perf_counter() - start)
        seconds[kernel] = best
        verdicts[kernel] = answers
    return {
        "kernel_sweep_pairs": sum(len(targets) for _, targets in batches),
        "kernel_bigint_seconds": round(seconds["bigint"], 4),
        "kernel_native_seconds": round(seconds["native"], 4),
        "native_kernel_speedup": round(
            seconds["bigint"] / max(seconds["native"], 1e-9), 3
        ),
        "native_kernel_answers_identical": verdicts["bigint"] == verdicts["native"],
    }


def cache_state(engine: IGQ):
    return sorted(
        (
            entry.entry_id,
            entry.graph.name,
            tuple(sorted(map(repr, entry.answer))),
            entry.hits,
            entry.removed,
            round(entry.alleviated_cost, 9),
            entry.added_at,
        )
        for entry in engine.cache.entries()
    )


def bench_pipelined_planner(database, stream, method_name: str, args) -> dict:
    """End-to-end batch latency with and without the pipelined planner."""
    workers = args.workers if args.workers else default_num_workers()
    runs = {}
    for pipeline in (False, True):
        method = build_method(database, method_name, Verifier())
        config = EngineConfig(
            cache=CacheConfig(size=args.cache_size, window=args.window_size),
            batch=BatchConfig(
                num_workers=workers, backend=args.backend, pipeline=pipeline
            ),
        )
        engine = IGQ.from_config(method, config)
        engine.attach_prebuilt()
        start = time.perf_counter()
        results = engine.run_batch(stream)
        runs[pipeline] = (
            time.perf_counter() - start,
            [tuple(sorted(map(repr, result.answers))) for result in results],
            cache_state(engine),
        )
    off_seconds, off_answers, off_state = runs[False]
    on_seconds, on_answers, on_state = runs[True]
    return {
        "workers": workers,
        "backend": args.backend,
        "batch_seconds_pipeline_off": round(off_seconds, 4),
        "batch_seconds_pipeline_on": round(on_seconds, 4),
        "pipeline_speedup": round(off_seconds / max(on_seconds, 1e-9), 3),
        "pipeline_answers_identical": on_answers == off_answers,
        "pipeline_cache_state_identical": on_state == off_state,
    }


def run_benchmark(args) -> dict:
    database = load_dataset(args.dataset, scale=args.scale)
    stream = build_stream(database, args.num_queries, args.distinct, args.alpha, args.seed)
    result = {
        "dataset": args.dataset,
        "method": args.method,
        "num_queries": len(stream),
        "distinct_queries": args.distinct,
        "alpha": args.alpha,
        "effective_cpus": effective_cpu_count(),
        "min_speedup_gate": args.min_speedup,
    }
    result.update(
        bench_verification_stage(database, stream, args.method, repeats=args.repeats)
    )
    result.update(bench_pipelined_planner(database, stream, args.method, args))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dataset", default="synthetic")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--method", default="ggsx")
    parser.add_argument("--num-queries", type=int, default=120)
    parser.add_argument("--distinct", type=int, default=40)
    parser.add_argument("--alpha", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="verification sweeps per path; the minimum is reported",
    )
    parser.add_argument("--cache-size", type=int, default=40)
    parser.add_argument("--window-size", type=int, default=10)
    parser.add_argument("--workers", type=int, default=0, help="0 = auto-pick")
    parser.add_argument("--backend", default="auto", help="auto|sequential|thread|process")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument(
        "--min-auto-speedup",
        type=float,
        default=2.0,
        help="gate on the kernel='auto' production path vs the uncompiled "
        "baseline (skipped when neither the native library nor numpy is "
        "available)",
    )
    parser.add_argument(
        "--min-native-speedup",
        type=float,
        default=2.0,
        help="gate on the native C kernel vs the pure-Python bigint kernel "
        "it replaces (skipped when the shared library cannot be loaded)",
    )
    parser.add_argument("--output", default=None, help="write the JSON result here too")
    args = parser.parse_args(argv)

    result = run_benchmark(args)
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    failed = False
    if not result["verification_answers_identical"]:
        print("FAIL: compiled verification answers diverge from baseline", file=sys.stderr)
        failed = True
    if result["verification_speedup"] < args.min_speedup:
        print(
            f"FAIL: compiled verification speedup {result['verification_speedup']}x "
            f"is below the {args.min_speedup}x gate",
            file=sys.stderr,
        )
        failed = True
    if "auto_verification_speedup" in result:
        if result["auto_verification_speedup"] < args.min_auto_speedup:
            print(
                f"FAIL: kernel='auto' path speedup {result['auto_verification_speedup']}x "
                f"over the uncompiled baseline is below the {args.min_auto_speedup}x gate",
                file=sys.stderr,
            )
            failed = True
    else:
        print(
            "note: neither native library nor numpy available; "
            "kernel='auto' leg skipped",
            file=sys.stderr,
        )
    if "native_kernel_speedup" in result:
        if not result["native_kernel_answers_identical"]:
            print("FAIL: native kernel answers diverge from the bigint kernel", file=sys.stderr)
            failed = True
        if result["native_kernel_speedup"] < args.min_native_speedup:
            print(
                f"FAIL: native kernel speedup {result['native_kernel_speedup']}x "
                f"over the bigint kernel is below the {args.min_native_speedup}x gate",
                file=sys.stderr,
            )
            failed = True
    else:
        print("note: native library unavailable; native-kernel leg skipped", file=sys.stderr)
    if not result["pipeline_answers_identical"] or not result["pipeline_cache_state_identical"]:
        print("FAIL: pipelined planner diverges from the non-pipelined run", file=sys.stderr)
        failed = True
    if result["pipeline_speedup"] < 1.0 and result["effective_cpus"] > 1:
        print(
            f"note: pipelining did not reduce batch latency on this run "
            f"({result['pipeline_speedup']}x on {result['effective_cpus']} CPUs)",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
