"""Quickstart: index a graph collection, stand up the query service, run queries.

Run with::

    python examples/quickstart.py

The script builds a scaled-down PDBS-like biomolecule collection, indexes it
with GraphGrepSX, describes the iGQ engine with a typed
:class:`~repro.core.config.EngineConfig`, and serves a skewed query workload
through :class:`~repro.service.GraphQueryService` — the public front door
that owns engine construction, dataset indexing and worker-pool lifecycle.
The same stream is run through the plain method first, so the paper's
headline metrics (number of subgraph isomorphism tests and query processing
time) print side by side.
"""

from __future__ import annotations

from repro import (
    CacheConfig,
    EngineConfig,
    GraphQueryService,
    QueryGenerator,
    WorkloadSpec,
    create_method,
    load_dataset,
)
from repro.experiments import StreamMetrics, speedup


def main() -> None:
    # 1. The dataset: a synthetic stand-in for the PDBS biomolecule
    #    collection — few, large, sparse graphs (the repro.datasets.synthetic
    #    docstring gives the substitution rationale).  Large dataset graphs
    #    make each avoided isomorphism test worth the query-index overhead,
    #    which is exactly the regime the paper targets.
    database = load_dataset("pdbs")
    print(f"dataset: {len(database)} graphs, {database.num_labels} vertex labels")

    # 2. The base method M: GraphGrepSX with paths of up to 4 edges.
    method = create_method("ggsx", max_path_length=4)
    method.build_index(database)
    print(f"GGSX index built ({method.index_size_bytes() / 1024:.0f} KiB)")

    # 3. A zipf-zipf workload: popular graphs and popular nodes are queried
    #    more often, so new queries overlap with old ones.
    spec = WorkloadSpec(
        name="zipf-zipf", graph_distribution="zipf", node_distribution="zipf", alpha=1.4
    )
    queries = QueryGenerator(database, spec).generate(150)

    # 4. Plain filter-then-verify processing.
    base_metrics = StreamMetrics(label="ggsx")
    for query in queries:
        base_metrics.add(method.query(query), query)

    # 5. The same stream through iGQ.  One typed config describes the whole
    #    engine (cache of 40 queries, window of 10); the service builds the
    #    engine, reuses the already-built method index and shuts everything
    #    down on exit.
    config = EngineConfig(cache=CacheConfig(size=40, window=10))
    igq_metrics = StreamMetrics(label="igq_ggsx")
    with GraphQueryService(method, config) as service:
        for query, result in zip(queries, service.stream(queries)):
            igq_metrics.add(result, query)
        report = service.stats()

    # 6. Report.
    comparison = speedup(base_metrics, igq_metrics)
    print()
    print(f"{'':>28} {'GGSX':>12} {'iGQ GGSX':>12}")
    print(f"{'avg iso tests / query':>28} {base_metrics.avg_isomorphism_tests:>12.2f} "
          f"{igq_metrics.avg_isomorphism_tests:>12.2f}")
    print(f"{'avg time / query (ms)':>28} {base_metrics.avg_seconds * 1000:>12.2f} "
          f"{igq_metrics.avg_seconds * 1000:>12.2f}")
    print(f"{'avg candidates / query':>28} {base_metrics.avg_candidates:>12.2f} "
          f"{igq_metrics.avg_candidates:>12.2f}")
    print()
    print(f"speedup in #isomorphism tests: {comparison.isomorphism_test_speedup:.2f}x")
    print(f"speedup in query time:         {comparison.time_speedup:.2f}x")
    print(f"query-index hit rate:          {report.totals.hit_rate:.0%}")
    print(f"cached queries at the end:     {report.cache_size} / {report.cache_capacity}")


if __name__ == "__main__":
    main()
