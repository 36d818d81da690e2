"""Benchmark: hot-key replication + probe pruning vs static sharding, identity-gated.

End-to-end throughput of :class:`ShardedIGQ` on a *drifting* Zipf stream —
the hot set rotates while the stream runs, so no static placement stays
optimal — in three configurations over the same queries:

* ``shards=1`` — the byte-identity reference;
* ``shards=N`` static — the plain delta-fed sharding (PR 4 behaviour);
* ``shards=N`` hot — ``hot_threshold`` replication plus adaptive
  rebalancing, which also switches on probe-side pruning: per-shard
  feature-bitmask summaries let the fan-out skip shards whose partition
  cannot contain a hit, and replicated hot entries are answered by a single
  covering shard.

The run **fails** if any configuration diverges from the single-shard
fingerprint anywhere — answers, per-query accounting, containment-test
statistics, final cache contents or replacement metadata.  Throughput and
the hot/static ratio (``hotkey_speedup``) are reported but not gated: what
pruning skips is the per-shard candidate filter, and since the
threshold-bitmap index made that filter a handful of big-int ANDs the whole
four-shard fan-out filters in about 15 % of a static run — less than the
replica bookkeeping costs — so on one core the ratio sits near 0.9x (it was
1.3-1.6x while every shard walked trie postings; ``docs/performance.md``).
Performance claims are judged by ``python3 -m bench_e2e`` (see
``bench_e2e/README.md``).

Run directly::

    python benchmarks/bench_hotkey.py --shards 4
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import CacheConfig, EngineConfig, ShardConfig, ShardedIGQ  # noqa: E402
from repro.core.batch import effective_cpu_count  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.methods import create_method  # noqa: E402
from repro.workloads.generator import QueryGenerator, WorkloadSpec, drifting_stream  # noqa: E402


def build_stream(database, args) -> list:
    spec = WorkloadSpec(
        name="zipf-zipf",
        graph_distribution="zipf",
        node_distribution="zipf",
        alpha=args.alpha,
        seed=args.seed,
    )
    pool = QueryGenerator(database, spec).generate(args.distinct)
    return drifting_stream(
        pool,
        args.num_queries,
        alpha=args.alpha,
        alpha_end=args.alpha_end,
        rotate_every=args.rotate_every,
        rotate_stride=args.rotate_stride,
        seed=args.seed + 1,
    )


def fingerprint(engine, results) -> tuple:
    """Everything the byte-identical gate compares."""
    answers = [tuple(sorted(map(repr, result.answers))) for result in results]
    accounting = [
        (
            result.num_isomorphism_tests,
            result.num_sub_hits,
            result.num_super_hits,
            result.exact_hit,
            result.verification_skipped,
        )
        for result in results
    ]
    cache_state = sorted(
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
    igq_stats = engine.igq_verifier.stats
    return (
        answers,
        accounting,
        cache_state,
        (igq_stats.tests, igq_stats.positives, igq_stats.negatives),
    )


def run_config(
    database, stream, args, shards: int, backend: str, hot: bool
) -> dict:
    method = create_method("ggsx", max_path_length=args.max_path_length)
    engine = ShardedIGQ.from_config(
        method,
        EngineConfig(
            cache=CacheConfig(size=args.cache_size, window=args.window_size),
            shard=ShardConfig(
                shards=shards,
                backend=backend,
                hot_threshold=args.hot_threshold if hot else None,
                rebalance_interval=args.rebalance_interval if hot else None,
            ),
        ),
    )
    engine.build_index(database)
    if backend == "process":
        # Spin the shard workers up (and replay the empty log) before the
        # clock starts, mirroring an already-running deployed pool.
        engine.shard_runtime.probe(
            stream[0], method.extract_query_features(stream[0]), False, False
        )
    # Collector pauses are the dominant noise source on a ratio of two
    # sub-second runs; keep them out of the timed region.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        results = [engine.query(query) for query in stream]
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    shard_stats = engine.shard_stats()
    outcome = {
        "shards": shards,
        "backend": engine.shard_backend,
        "hot": hot,
        "seconds": round(elapsed, 4),
        "queries_per_second": round(len(stream) / elapsed, 2),
        "fingerprint": fingerprint(engine, results),
        "cache_entries": len(engine.cache),
        "replicas_live": shard_stats["replicas_live"],
        "moves_applied": shard_stats["moves_applied"],
        "delta_log": shard_stats["delta_log"],
    }
    engine.close()
    return outcome


def run_benchmark(args) -> dict:
    database = load_dataset(args.dataset, scale=args.scale)
    stream = build_stream(database, args)
    cpus = effective_cpu_count()

    specs = [
        ("single", 1, "inline", False),
        ("static", args.shards, "inline", False),
        ("hot", args.shards, "inline", True),
    ]
    if cpus > 1:
        specs.append(("hot_process", args.shards, "process", True))

    # The reported ratio compares two sub-second measurements, so each config
    # is measured ``--repeats`` times and the fastest run wins — with the
    # rounds *interleaved* across configs and the order rotated per round,
    # so neither a slow stretch of the machine nor the growing heap of a
    # long-lived process can systematically penalise one config.  The
    # engines are deterministic; mismatching fingerprints across
    # repetitions would be a real bug.
    best: dict[str, dict] = {}
    for round_index in range(max(args.repeats, 1)):
        offset = round_index % len(specs)
        for name, shards, backend, hot_flag in specs[offset:] + specs[:offset]:
            outcome = run_config(database, stream, args, shards, backend, hot_flag)
            previous = best.get(name)
            if previous is not None and previous["fingerprint"] != outcome["fingerprint"]:
                raise AssertionError(f"non-deterministic run for config {name!r}")
            if previous is None or outcome["seconds"] < previous["seconds"]:
                best[name] = outcome

    single = best["single"]
    static = best["static"]
    configs = [best[name] for name, *_ in specs if name != "single"]
    hot = max((c for c in configs if c["hot"]), key=lambda c: c["queries_per_second"])

    identical = all(c["fingerprint"] == single["fingerprint"] for c in configs)
    speedup = hot["queries_per_second"] / static["queries_per_second"]

    def public(config: dict) -> dict:
        return {k: v for k, v in config.items() if k != "fingerprint"}

    return {
        "dataset": args.dataset,
        "num_queries": len(stream),
        "distinct_queries": args.distinct,
        "cache_size": args.cache_size,
        "window_size": args.window_size,
        "alpha": args.alpha,
        "alpha_end": args.alpha_end,
        "rotate_every": args.rotate_every,
        "rotate_stride": args.rotate_stride,
        "hot_threshold": args.hot_threshold,
        "rebalance_interval": args.rebalance_interval,
        "effective_cpus": cpus,
        "single_shard": public(single),
        "static": public(static),
        "hot_configs": [public(c) for c in configs if c["hot"]],
        "best_hot_backend": hot["backend"],
        "hotkey_speedup": round(speedup, 3),
        "answers_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dataset", default="synthetic")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--max-path-length", type=int, default=3)
    parser.add_argument("--num-queries", type=int, default=800)
    parser.add_argument("--distinct", type=int, default=200)
    parser.add_argument("--cache-size", type=int, default=300)
    parser.add_argument("--window-size", type=int, default=40)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--alpha", type=float, default=1.4)
    parser.add_argument("--alpha-end", type=float, default=2.0)
    parser.add_argument("--rotate-every", type=int, default=50)
    parser.add_argument("--rotate-stride", type=int, default=25)
    parser.add_argument("--hot-threshold", type=int, default=2)
    parser.add_argument("--rebalance-interval", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--output", default=None, help="write the JSON result here too")
    args = parser.parse_args(argv)

    result = run_benchmark(args)
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    if not result["answers_identical"]:
        print(
            "FAIL: a configuration diverges from the single-shard engine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
