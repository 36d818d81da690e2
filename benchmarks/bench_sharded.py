"""Benchmark: sharded query cache vs the single-shard engine, identity-gated.

:class:`ShardedIGQ` on a churny cache-heavy Zipf stream, in three
configurations over the *same* query stream:

* ``shards=1`` — the reference engine (its window flush evicts and inserts
  on the one live index pair);
* ``shards=N`` with the ``inline`` backend — in-process replicas fed by the
  delta log, applying the same per-entry increments per partition;
* ``shards=N`` with the ``process`` backend (only when the machine has more
  than one usable CPU) — one long-lived worker process per shard replaying
  the log and probing its partition concurrently.

The run **fails** if any sharded configuration diverges from the reference
anywhere — answers, per-query accounting, containment-test statistics,
final cache contents or replacement metadata.  Throughput is reported per
configuration but not gated: every configuration maintains its indexes
incrementally, so on one core sharding buys nothing by itself (what it
buys is concurrent probing on multi-core runners).  Performance claims are
judged by ``python3 -m bench_e2e`` (see ``bench_e2e/README.md``).

Run directly::

    python benchmarks/bench_sharded.py --shards 4
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import CacheConfig, EngineConfig, ShardConfig, ShardedIGQ  # noqa: E402
from repro.core.batch import effective_cpu_count  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.methods import create_method  # noqa: E402
from repro.workloads.generator import QueryGenerator, WorkloadSpec  # noqa: E402
from repro.workloads.zipf import create_sampler  # noqa: E402


def build_stream(database, args) -> list:
    spec = WorkloadSpec(
        name="zipf-zipf",
        graph_distribution="zipf",
        node_distribution="zipf",
        alpha=args.alpha,
        seed=args.seed,
    )
    pool = QueryGenerator(database, spec).generate(args.distinct)
    rng = random.Random(args.seed + 1)
    sampler = create_sampler("zipf", len(pool), alpha=args.alpha)
    return [pool[sampler.sample(rng)] for _ in range(args.num_queries)]


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


def run_config(database, stream, args, shards: int, backend: str) -> dict:
    method = create_method("ggsx", max_path_length=args.max_path_length)
    engine = ShardedIGQ.from_config(
        method,
        EngineConfig(
            cache=CacheConfig(size=args.cache_size, window=args.window_size),
            shard=ShardConfig(shards=shards, backend=backend),
        ),
    )
    engine.build_index(database)
    if backend == "process":
        # Spin the shard workers up (and replay the empty log) before the
        # clock starts, mirroring a deployed pool that is already running.
        engine.shard_runtime.probe(stream[0], method.extract_query_features(stream[0]),
                                   False, False)
    start = time.perf_counter()
    results = [engine.query(query) for query in stream]
    elapsed = time.perf_counter() - start
    outcome = {
        "shards": shards,
        "backend": engine.shard_backend,
        "seconds": round(elapsed, 4),
        "queries_per_second": round(len(stream) / elapsed, 2),
        "fingerprint": fingerprint(engine, results),
        "cache_entries": len(engine.cache),
        "log_records": len(engine.delta_log) if engine.delta_log is not None else 0,
    }
    engine.close()
    return outcome


def run_benchmark(args) -> dict:
    database = load_dataset(args.dataset, scale=args.scale)
    stream = build_stream(database, args)
    cpus = effective_cpu_count()

    baseline = run_config(database, stream, args, shards=1, backend="inline")
    configs = [run_config(database, stream, args, args.shards, "inline")]
    if cpus > 1:
        configs.append(run_config(database, stream, args, args.shards, "process"))

    identical = all(c["fingerprint"] == baseline["fingerprint"] for c in configs)

    def public(config: dict) -> dict:
        return {k: v for k, v in config.items() if k != "fingerprint"}

    return {
        "dataset": args.dataset,
        "num_queries": len(stream),
        "distinct_queries": args.distinct,
        "cache_size": args.cache_size,
        "window_size": args.window_size,
        "alpha": args.alpha,
        "effective_cpus": cpus,
        "baseline": public(baseline),
        "sharded": [public(config) for config in configs],
        "answers_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dataset", default="synthetic")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--max-path-length", type=int, default=3)
    parser.add_argument("--num-queries", type=int, default=400)
    parser.add_argument("--distinct", type=int, default=400)
    parser.add_argument("--cache-size", type=int, default=300)
    parser.add_argument("--window-size", type=int, default=20)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--alpha", type=float, default=1.1)
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
            "FAIL: a sharded configuration diverges from the single-shard engine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
