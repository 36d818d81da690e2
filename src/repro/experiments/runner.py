"""The experiment every figure repeats: one query stream through base method
M and through iGQ+M, and the per-query averages and speedups of §7.1.

:func:`run_speedup_experiment` standardises how datasets, base methods and
query workloads are built (with per-dataset recommended feature
parameters), the warm-up protocol (the first window of queries populates
the iGQ index and is measured on neither side), and memoisation: datasets,
built indexes, query streams and outcomes are cached, so figures sharing a
configuration do not repeat work.  The default sizes are scaled down from
the paper (300-ish dataset graphs instead of 40 000, a few hundred queries
instead of 3 000, cache sizes to match); every size is a parameter.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import lru_cache

from ..core.config import BatchConfig, CacheConfig, EngineConfig
from ..core.engine import IGQ
from ..datasets.registry import dataset_spec, load_dataset
from ..graphs.graph import LabeledGraph
from ..methods import create_method
from ..methods.base import QueryResult
from ..workloads.generator import QueryGenerator, WorkloadSpec

__all__ = [
    "ExperimentConfig", "SpeedupOutcome", "SpeedupReport", "StreamMetrics",
    "building_block", "run_speedup_experiment", "speedup",
]

#: default numbers of measured queries per dataset (paper: 3 000 for
#: AIDS/PDBS, 500 for PPI/synthetic)
_DEFAULT_NUM_QUERIES = {"aids": 240, "pdbs": 240, "ppi": 150, "synthetic": 150}
#: default cache / window sizes per dataset (paper: C=500, W=100 for
#: AIDS/PDBS; C=100..300, W=20 for PPI/synthetic)
_DEFAULT_CACHE = {"aids": 60, "pdbs": 60, "ppi": 30, "synthetic": 30}
_DEFAULT_WINDOW = {"aids": 20, "pdbs": 20, "ppi": 10, "synthetic": 10}
#: the ExperimentConfig fields each base method takes as constructor options
_METHOD_OPTIONS = {
    "ggsx": ("max_path_length",),
    "grapes": ("max_path_length",),
    "ctindex": ("tree_max_size", "cycle_max_length", "bitmap_bits"),
}
#: the ExperimentConfig fields a dataset and a query stream depend on
_DATASET_KEY = ("dataset", "scale", "dataset_seed")
_QUERIES_KEY = (*_DATASET_KEY, "workload", "alpha", "num_queries", "window_size", "query_seed")


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
        defaults = {
            "max_path_length": dataset_spec(self.dataset).recommended_path_length,
            "num_queries": _DEFAULT_NUM_QUERIES[self.dataset],
            "cache_size": _DEFAULT_CACHE[self.dataset],
            "window_size": _DEFAULT_WINDOW[self.dataset],
        }
        unset = {name: value for name, value in defaults.items() if getattr(self, name) is None}
        return replace(self, **unset)

    def engine_config(self) -> EngineConfig:
        """The :class:`EngineConfig` this experiment's iGQ engine runs under.

        Feature memoisation is off, as on the base stream, so both sides of
        a speedup comparison pay the paper's per-occurrence extraction
        cost; verification runs in-process.
        """
        resolved = self.resolved()
        return EngineConfig(
            cache=CacheConfig(
                size=resolved.cache_size, window=resolved.window_size, policy=resolved.policy
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


# ----------------------------------------------------------------------
# What a stream measures
# ----------------------------------------------------------------------
@dataclass
class StreamMetrics:
    """Per-query averages over a stream of executed queries: isomorphism
    tests (Figs. 7–11), query time (Figs. 12–17) and its filter / verify
    split (Fig. 1), candidates, answers and false positives (Figs. 2–3)."""

    label: str = ""
    num_queries: int = 0
    total_isomorphism_tests: int = 0
    total_candidates: int = 0
    total_answers: int = 0
    total_false_positives: int = 0
    total_filter_seconds: float = 0.0
    total_verify_seconds: float = 0.0
    total_igq_seconds: float = 0.0
    total_seconds: float = 0.0
    #: per query-size-group totals: group -> [queries, iso tests, seconds]
    per_group: dict[int, list] = field(default_factory=lambda: defaultdict(lambda: [0, 0, 0.0]))

    def add(self, result: QueryResult, query: LabeledGraph | None = None) -> None:
        """Record the outcome of one query (grouped by ``query``'s edges)."""
        self.num_queries += 1
        self.total_isomorphism_tests += result.num_isomorphism_tests
        self.total_candidates += result.num_candidates
        self.total_answers += result.num_answers
        self.total_false_positives += result.num_false_positives
        self.total_filter_seconds += result.filter_seconds
        self.total_verify_seconds += result.verify_seconds
        self.total_igq_seconds += result.igq_seconds
        self.total_seconds += result.total_seconds
        if query is not None:
            group = self.per_group[query.num_edges]
            group[0] += 1
            group[1] += result.num_isomorphism_tests
            group[2] += result.total_seconds

    def _avg(self, total: float) -> float:
        return total / self.num_queries if self.num_queries else 0.0

    @property
    def avg_isomorphism_tests(self) -> float:
        return self._avg(self.total_isomorphism_tests)

    @property
    def avg_candidates(self) -> float:
        return self._avg(self.total_candidates)

    @property
    def avg_answers(self) -> float:
        return self._avg(self.total_answers)

    @property
    def avg_false_positives(self) -> float:
        return self._avg(self.total_false_positives)

    @property
    def avg_seconds(self) -> float:
        return self._avg(self.total_seconds)

    @property
    def filter_time_fraction(self) -> float:
        """Share of the total time spent filtering, iGQ's probes included."""
        if self.total_seconds == 0:
            return 0.0
        return (self.total_filter_seconds + self.total_igq_seconds) / self.total_seconds

    @property
    def verify_time_fraction(self) -> float:
        """Share of the total time spent verifying."""
        if self.total_seconds == 0:
            return 0.0
        return self.total_verify_seconds / self.total_seconds

    def group_avg_tests(self) -> dict[int, float]:
        """Average iso tests per query, per query-size group (Figs. 10–11)."""
        return self._group_avg(1)

    def group_avg_seconds(self) -> dict[int, float]:
        """Average query time per query-size group (Figs. 16–17)."""
        return self._group_avg(2)

    def _group_avg(self, column: int) -> dict[int, float]:
        return {
            size: counts[column] / counts[0]
            for size, counts in sorted(self.per_group.items())
            if counts[0]
        }


@dataclass(frozen=True)
class SpeedupReport:
    """Speedups of iGQ+M over plain M (the paper's headline metric)."""

    isomorphism_test_speedup: float
    time_speedup: float


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return float("inf") if numerator > 0 else 1.0
    return numerator / denominator


def speedup(base: StreamMetrics, igq: StreamMetrics) -> SpeedupReport:
    """Speedup of ``igq`` over ``base`` (ratio of base over iGQ averages)."""
    return SpeedupReport(
        isomorphism_test_speedup=_ratio(base.avg_isomorphism_tests, igq.avg_isomorphism_tests),
        time_speedup=_ratio(base.avg_seconds, igq.avg_seconds),
    )


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------
@dataclass
class SpeedupOutcome:
    """Everything produced by one base-vs-iGQ comparison."""

    config: ExperimentConfig
    base: StreamMetrics
    igq: StreamMetrics
    report: SpeedupReport
    engine: IGQ


def building_block(kind: str, config: ExperimentConfig):
    """The dataset (``kind="dataset"``), the built base method
    (``"method"``) or the query stream (``"queries"``, warm-up window
    included) of ``config``, memoised on the fields that block depends on."""
    config = config.resolved()
    key = {
        "dataset": _DATASET_KEY,
        "method": (*_DATASET_KEY, "method", *_METHOD_OPTIONS.get(config.method, ())),
        "queries": _QUERIES_KEY,
    }[kind]
    return _build(kind, ExperimentConfig(**{name: getattr(config, name) for name in key}))


@lru_cache(maxsize=None)
def _build(kind: str, config: ExperimentConfig):
    if kind == "dataset":
        return load_dataset(config.dataset, scale=config.scale, seed=config.dataset_seed)
    database = building_block("dataset", config)
    if kind == "queries":
        total = config.num_queries + config.window_size
        return tuple(QueryGenerator(database, config.workload_spec()).generate(total))
    options = {name: getattr(config, name) for name in _METHOD_OPTIONS.get(config.method, ())}
    method = create_method(config.method, **options)
    method.build_index(database)
    return method


@lru_cache(maxsize=None)
def run_speedup_experiment(config: ExperimentConfig) -> SpeedupOutcome:
    """Run ``config``'s stream through the plain method, one
    :meth:`~repro.methods.base.SubgraphQueryMethod.query` per query (each
    extracts its features: the paper's per-occurrence cost), then through
    iGQ+method (cached)."""
    config = config.resolved()
    method = building_block("method", config)
    queries = building_block("queries", config)
    warmup = config.window_size
    base = StreamMetrics(label=config.method)
    for query in queries[warmup:]:
        base.add(method.query(query), query)
    engine = IGQ(method, config.engine_config())
    engine.attach_prebuilt()
    igq = StreamMetrics(label=f"igq_{config.method}")
    for query in queries[:warmup]:
        engine.query(query)
    for query in queries[warmup:]:
        igq.add(engine.query(query), query)
    return SpeedupOutcome(config, base, igq, speedup(base, igq), engine)
