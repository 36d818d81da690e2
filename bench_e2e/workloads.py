"""The four workloads: which data, which traffic, which engine, which callers.

Corpus and traffic are fixed, as a recorded query log over AIDS/PDBS would
be: datasets are the repo's generated stand-ins at their registry seeds and
each workload's *trace* is generated with ``TRACE_SEED``.  ``--seed``
re-encodes the trace (``harness.prepare`` swaps every query graph for a
seeded isomorphic copy), so runs with different seeds ask for the same work
in different bytes.  Only names in ``repro.__all__`` are used, so the
workloads survive refactors below the public API.

Sizes are set by the benchmark contract's time cap (~35 s per run including
three set-up cycles): each timed lap is ≥ 5 s on the reference box.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable

from repro import (
    BatchConfig,
    CacheConfig,
    EngineConfig,
    GraphDatabase,
    PersistConfig,
    QueryGenerator,
    ServiceConfig,
    ShardConfig,
    TenantConfig,
    WorkloadSpec,
    load_dataset,
)

#: seed of every fixed trace (and of the pools traces are drawn from)
TRACE_SEED = 7

#: queries answered after the clock stops on ``churn_durable`` — the
#: never-restarted reference the restarted service is compared against
TAIL = 40

#: no process pools anywhere: the box has two cores and pools add jitter
_INLINE = {"batch": BatchConfig(num_workers=1), "shard": ShardConfig(backend="inline")}


@dataclass(frozen=True)
class Workload:
    """One named workload; every field is consumed by ``harness``."""

    name: str
    method: str
    method_kwargs: dict
    mode: str
    #: queries per timed lap at full size
    lap_queries: int
    #: ``scale -> (served database, database the queries are cut from)``
    make_databases: Callable
    #: ``(source database, length) -> the trace``, a list of query graphs
    make_trace: Callable
    #: ``persist_dir -> EngineConfig``
    config: Callable
    #: tenant name per network client; empty means embedded (one caller)
    tenants: tuple = ()
    #: submissions each caller keeps outstanding (closed loop)
    depth: int = 1
    durable: bool = False


def zipf_table(num_items: int, alpha: float) -> list[float]:
    """Unnormalised cumulative Zipf weights over ranks ``0..num_items-1``."""
    return list(itertools.accumulate((rank + 1) ** -alpha for rank in range(num_items)))


def zipf_rank(table: list[float], rng: random.Random) -> int:
    """Draw one rank from a :func:`zipf_table`."""
    return bisect.bisect_left(table, rng.random() * table[-1])


def _pool(source, size, **spec):
    return QueryGenerator(source, WorkloadSpec(name="pool", seed=TRACE_SEED, **spec)).generate(size)




# ----------------------------------------------------------------------
# cold_filter: uniform queries, a working set ten times the cache
# ----------------------------------------------------------------------
def _dataset(name, factor):
    def make_databases(scale):
        database = load_dataset(name, scale=factor * scale)
        return database, database
    return make_databases


def _small_cache_config(persist_dir):
    return EngineConfig(cache=CacheConfig(size=100, window=20), **_INLINE)


# ----------------------------------------------------------------------
# hot_verify: skewed repeats over few large graphs, the paper's headline case
# ----------------------------------------------------------------------
def _skewed_pool(source, size):
    return _pool(source, size, graph_distribution="zipf", node_distribution="zipf", alpha=1.4)


# ----------------------------------------------------------------------
# wire_super: supergraph queries over the socket front door, two tenants
# ----------------------------------------------------------------------
def _fragments(scale):
    source = load_dataset("aids", scale=4 * scale)
    fragments = _pool(source, int(600 * scale), query_sizes=(3, 4, 5, 6))
    return GraphDatabase.from_graphs(fragments, name="fragments"), source


def _molecule_trace(source, length):
    pool = _pool(
        source, 200,
        graph_distribution="zipf", node_distribution="zipf", alpha=1.4,
        query_sizes=(12, 16, 20),
    )
    table = zipf_table(len(pool), 1.1)
    rng = random.Random(TRACE_SEED)
    return [pool[zipf_rank(table, rng)] for _ in range(length)]


_WIRE_TENANTS = ("tenant0", "tenant1")


def _wire_config(persist_dir):
    return EngineConfig(
        mode="supergraph",
        cache=CacheConfig(size=50, window=10),
        service=ServiceConfig(tenants=tuple(TenantConfig(name=name) for name in _WIRE_TENANTS)),
        **_INLINE,
    )


# ----------------------------------------------------------------------
# churn_durable: the hot set drifts, so every flush inserts, evicts, journals
# ----------------------------------------------------------------------
def _drifting_trace(source, length):
    """Zipf draws from a pool: alpha 1.2 -> 1.8, hot set rotates every 100."""
    pool = _pool(source, 2000)
    phases = 16
    tables = [
        zipf_table(len(pool), 1.2 + 0.6 * (phase + 0.5) / phases) for phase in range(phases)
    ]
    rng = random.Random(TRACE_SEED)
    trace = []
    for step in range(length):
        table = tables[min(step * phases // length, phases - 1)]
        trace.append(pool[(zipf_rank(table, rng) + step // 100 * 25) % len(pool)])
    return trace


def _churn_config(persist_dir):
    return EngineConfig(
        cache=CacheConfig(size=400, window=40),
        batch=BatchConfig(num_workers=1),
        shard=ShardConfig(shards=4, backend="inline", hot_threshold=2, rebalance_interval=10),
        persist=PersistConfig(dir=persist_dir, fsync="flush"),
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="cold_filter", method="ggsx", method_kwargs={"max_path_length": 4},
            mode="subgraph", lap_queries=1000, make_databases=_dataset("aids", 1.5),
            make_trace=_pool, config=_small_cache_config,
        ),
        Workload(
            name="hot_verify", method="grapes", method_kwargs={},
            mode="subgraph", lap_queries=800, make_databases=_dataset("pdbs", 1.5),
            make_trace=_skewed_pool, config=_small_cache_config,
        ),
        Workload(
            name="wire_super", method="ggsx", method_kwargs={"max_path_length": 3},
            mode="supergraph", lap_queries=1200, make_databases=_fragments,
            make_trace=_molecule_trace, config=_wire_config, tenants=_WIRE_TENANTS,
        ),
        Workload(
            name="churn_durable", method="ggsx", method_kwargs={"max_path_length": 4},
            mode="subgraph", lap_queries=1400, make_databases=_dataset("aids", 1),
            make_trace=_drifting_trace, config=_churn_config, depth=2, durable=True,
        ),
    )
}
