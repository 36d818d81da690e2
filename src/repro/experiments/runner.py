"""Experiment runners: execute query streams with and without iGQ.

This module is the engine room of the per-figure drivers in
:mod:`repro.experiments.figures`.  It standardises

* how datasets, base methods and query workloads are constructed (with
  per-dataset recommended feature parameters),
* the warm-up protocol of §7.1 (the first window of queries populates the
  iGQ index and is excluded from the measured statistics, for the base
  method and for iGQ alike),
* memoisation: datasets, built indexes and query streams are cached so that
  the many figures sharing the same configuration do not repeat work.

The default experiment sizes are scaled down from the paper (300-ish dataset
graphs instead of 40 000, a few hundred queries instead of 3 000, cache sizes
scaled accordingly) so that the full figure suite runs in minutes on a
laptop; every size is a parameter, so closer-to-paper runs are a matter of
passing larger numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from ..core.config import BatchConfig, CacheConfig, EngineConfig
from ..core.engine import IGQ
from ..datasets.registry import dataset_spec, load_dataset
from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from ..methods import create_method
from ..methods.base import SubgraphQueryMethod
from ..workloads.generator import QueryGenerator, WorkloadSpec
from .metrics import SpeedupReport, StreamMetrics, speedup

__all__ = [
    "ExperimentConfig",
    "get_database",
    "get_method",
    "get_queries",
    "run_base_stream",
    "run_igq_stream",
    "run_speedup_experiment",
    "SpeedupOutcome",
]

#: default numbers of measured queries per dataset (paper: 3 000 for
#: AIDS/PDBS, 500 for PPI/synthetic)
_DEFAULT_NUM_QUERIES = {"aids": 240, "pdbs": 240, "ppi": 150, "synthetic": 150}
#: default cache / window sizes per dataset (paper: C=500, W=100 for
#: AIDS/PDBS; C=100..300, W=20 for PPI/synthetic)
_DEFAULT_CACHE = {"aids": 60, "pdbs": 60, "ppi": 30, "synthetic": 30}
_DEFAULT_WINDOW = {"aids": 20, "pdbs": 20, "ppi": 10, "synthetic": 10}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified experiment configuration (hashable, memoisable)."""

    dataset: str = "aids"
    scale: float = 1.0
    dataset_seed: int | None = None
    method: str = "ggsx"
    max_path_length: int | None = None
    tree_max_size: int = 4
    cycle_max_length: int = 6
    bitmap_bits: int = 4096
    workload: str = "zipf-zipf"
    alpha: float = 1.4
    num_queries: int | None = None
    cache_size: int | None = None
    window_size: int | None = None
    policy: str = "utility"
    query_seed: int = 5
    enable_isub: bool = True
    enable_isuper: bool = True

    # ------------------------------------------------------------------
    def resolved(self) -> "ExperimentConfig":
        """Fill dataset-dependent defaults (query counts, cache sizes, path length)."""
        spec = dataset_spec(self.dataset)
        return replace(
            self,
            max_path_length=(
                self.max_path_length
                if self.max_path_length is not None
                else spec.recommended_path_length
            ),
            num_queries=(
                self.num_queries
                if self.num_queries is not None
                else _DEFAULT_NUM_QUERIES[self.dataset]
            ),
            cache_size=(
                self.cache_size
                if self.cache_size is not None
                else _DEFAULT_CACHE[self.dataset]
            ),
            window_size=(
                self.window_size
                if self.window_size is not None
                else _DEFAULT_WINDOW[self.dataset]
            ),
        )

    def engine_config(self) -> EngineConfig:
        """The :class:`EngineConfig` this experiment's iGQ engine runs under.

        Feature memoisation is off, as on the base stream, so both sides of
        a speedup comparison pay the paper's per-occurrence extraction
        cost; verification runs in-process.
        """
        resolved = self.resolved()
        return EngineConfig(
            cache=CacheConfig(
                size=resolved.cache_size,
                window=resolved.window_size,
                policy=resolved.policy,
            ),
            enable_isub=resolved.enable_isub,
            enable_isuper=resolved.enable_isuper,
            batch=BatchConfig(memoize_features=False),
        )

    def workload_spec(self) -> WorkloadSpec:
        """Translate the workload name (e.g. ``"zipf-uni"``) into a spec."""
        graph_dist, _, node_dist = self.workload.partition("-")
        return WorkloadSpec(
            name=self.workload,
            graph_distribution=graph_dist or "uniform",
            node_distribution=node_dist or "uniform",
            alpha=self.alpha,
            seed=self.query_seed,
        )


@dataclass
class SpeedupOutcome:
    """Everything produced by one base-vs-iGQ comparison."""

    config: ExperimentConfig
    base: StreamMetrics
    igq: StreamMetrics
    report: SpeedupReport
    engine: IGQ

    def as_dict(self) -> dict:
        return {
            "dataset": self.config.dataset,
            "method": self.config.method,
            "workload": self.config.workload,
            "alpha": self.config.alpha,
            "cache_size": self.config.cache_size,
            **self.report.as_dict(),
        }


# ----------------------------------------------------------------------
# Memoised building blocks
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def get_database(dataset: str, scale: float = 1.0, seed: int | None = None) -> GraphDatabase:
    """Load (and cache) a dataset."""
    return load_dataset(dataset, scale=scale, seed=seed)


@lru_cache(maxsize=None)
def _cached_method(
    dataset: str,
    scale: float,
    dataset_seed: int | None,
    method: str,
    max_path_length: int,
    tree_max_size: int,
    cycle_max_length: int,
    bitmap_bits: int,
) -> SubgraphQueryMethod:
    database = get_database(dataset, scale, dataset_seed)
    if method in ("ggsx", "grapes", "grapes6"):
        instance = create_method(method, max_path_length=max_path_length)
    elif method == "ctindex":
        instance = create_method(
            method,
            tree_max_size=tree_max_size,
            cycle_max_length=cycle_max_length,
            bitmap_bits=bitmap_bits,
        )
    else:
        instance = create_method(method)
    instance.build_index(database)
    return instance


def get_method(config: ExperimentConfig) -> SubgraphQueryMethod:
    """Return a built (indexed) base method for ``config`` (cached)."""
    config = config.resolved()
    return _cached_method(
        config.dataset,
        config.scale,
        config.dataset_seed,
        config.method,
        config.max_path_length,
        config.tree_max_size,
        config.cycle_max_length,
        config.bitmap_bits,
    )


@lru_cache(maxsize=None)
def _cached_queries(
    dataset: str,
    scale: float,
    dataset_seed: int | None,
    workload: str,
    alpha: float,
    num_queries: int,
    query_seed: int,
) -> tuple[LabeledGraph, ...]:
    database = get_database(dataset, scale, dataset_seed)
    graph_dist, _, node_dist = workload.partition("-")
    spec = WorkloadSpec(
        name=workload,
        graph_distribution=graph_dist or "uniform",
        node_distribution=node_dist or "uniform",
        alpha=alpha,
        seed=query_seed,
    )
    return tuple(QueryGenerator(database, spec).generate(num_queries))


def get_queries(config: ExperimentConfig) -> tuple[LabeledGraph, ...]:
    """Return the query stream for ``config`` (cached).

    The stream includes the warm-up prefix (``window_size`` queries); the
    runners below exclude it from the measured statistics.
    """
    config = config.resolved()
    total = config.num_queries + config.window_size
    return _cached_queries(
        config.dataset,
        config.scale,
        config.dataset_seed,
        config.workload,
        config.alpha,
        total,
        config.query_seed,
    )


# ----------------------------------------------------------------------
# Stream runners
# ----------------------------------------------------------------------
def run_base_stream(
    method: SubgraphQueryMethod,
    queries: tuple[LabeledGraph, ...],
    warmup: int,
    label: str = "base",
) -> StreamMetrics:
    """Run the plain method over the measured part of the stream, one
    :meth:`~repro.methods.base.SubgraphQueryMethod.query` per query (each
    extracts its features: the paper's per-occurrence cost)."""
    metrics = StreamMetrics(label=label)
    for query in queries[warmup:]:
        metrics.add(method.query(query), query)
    return metrics


def run_igq_stream(
    method: SubgraphQueryMethod,
    queries: tuple[LabeledGraph, ...],
    config: ExperimentConfig,
    label: str = "igq",
) -> tuple[StreamMetrics, IGQ]:
    """Run iGQ+method over the stream (warm-up excluded from the metrics)."""
    config = config.resolved()
    engine = IGQ(method, config.engine_config())
    engine.attach_prebuilt()
    metrics = StreamMetrics(label=label)
    warmup = config.window_size
    for query in queries[:warmup]:
        engine.query(query)
    for query in queries[warmup:]:
        metrics.add(engine.query(query), query)
    return metrics, engine


@lru_cache(maxsize=None)
def run_speedup_experiment(config: ExperimentConfig) -> SpeedupOutcome:
    """Run the full base-vs-iGQ comparison for ``config`` (cached)."""
    config = config.resolved()
    method = get_method(config)
    queries = get_queries(config)
    base = run_base_stream(
        method,
        queries,
        warmup=config.window_size,
        label=f"{config.method}",
    )
    igq_metrics, engine = run_igq_stream(
        method, queries, config, label=f"igq_{config.method}"
    )
    return SpeedupOutcome(
        config=config,
        base=base,
        igq=igq_metrics,
        report=speedup(base, igq_metrics),
        engine=engine,
    )
