"""The paper's evaluation as one table: every figure is a row of :data:`FIGURES`.

Each figure of §7 (plus two ablations) runs one experiment — a query stream
through base method M and through iGQ+M (:func:`run_speedup_experiment`) —
swept over methods, workloads, Zipf α, cache sizes, component sets or
replacement policies.  A :class:`Figure` names the fixed configuration, the
swept axes and the row read from each outcome; :func:`run_figure` runs it
and returns ``{"figure", "title", "params", "rows"}``.  Every size is a
parameter, so closer-to-paper runs only need larger overrides;
``benchmarks/bench_figures.py`` runs every entry at a quick size.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from itertools import product
from math import inf
from statistics import fmean, pstdev

from ..datasets.registry import dataset_spec
from ..graphs.graph import LabeledGraph
from .runner import ExperimentConfig, SpeedupOutcome, building_block, run_speedup_experiment

__all__ = ["FIGURES", "Figure", "format_figure", "format_rows", "run_figure"]

#: the paper's base-method line-up; its Grapes(6) is Grapes verifying on six
#: threads, which is the engine's ``batch.num_workers``, not another method
PAPER_METHODS = ("ggsx", "grapes", "ctindex")
#: the paper's four query workloads
PAPER_WORKLOADS = ("uni-uni", "uni-zipf", "zipf-uni", "zipf-zipf")
#: a swept axis (``run_figure``'s parameter) -> the ExperimentConfig field it sets
_AXES = {
    "datasets": "dataset",
    "methods": "method",
    "workloads": "workload",
    "alphas": "alpha",
    "cache_sizes": "cache_size",
    "policies": "policy",
    "components": "components",
}
#: the component sets of §4.2: label -> (enable_isub, enable_isuper)
_COMPONENTS = {
    "isub+isuper": (True, True), "isub only": (True, False), "isuper only": (False, True)
}
_METRIC_LABEL = {"iso": "isomorphism tests", "time": "query processing time"}


@dataclass(frozen=True)
class Figure:
    """One figure of the paper: how to run it and what each row reads.

    A sweep runs every point of ``axes`` (outermost first) over ``fixed``;
    each row is the point's ``columns`` followed by ``read(outcome,
    metric)``.  An entry with ``run`` sweeps no speedup runs:
    ``run(**fixed)`` returns its rows.  ``title`` and ``params`` read the
    fixed fields, the axes and ``metric``.
    """

    title: str
    params: tuple[str, ...]
    fixed: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, tuple] = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    read: Callable[[SpeedupOutcome, str | None], list[dict]] | None = None
    #: "iso" or "time" for a figure of one speedup, None for both
    metric: str | None = None
    #: the window follows the paper's ratio ``W = C / 5`` unless overridden
    window_from_cache: bool = False
    run: Callable[..., list[dict]] | None = None


def run_figure(figure_id: str, **overrides) -> dict:
    """Run :data:`FIGURES` ``[figure_id]``.

    ``overrides`` replace an axis's values (``methods=``, ``workloads=``,
    ``alphas=``, ``cache_sizes=``, ``datasets=``, ``policies=``,
    ``components=``) or set :class:`ExperimentConfig` fields (Table 1 takes
    ``scale`` only).
    """
    figure = FIGURES[figure_id]
    axes = {axis: tuple(overrides.pop(axis, points)) for axis, points in figure.axes.items()}
    settings = {**figure.fixed, **overrides}
    rows = figure.run(**settings) if figure.run else _sweep(figure, settings, axes)
    values = {**settings, **{axis: list(points) for axis, points in axes.items()}}
    values["metric"] = figure.metric
    return {
        "figure": "Table 1" if figure_id == "table1" else figure_id,
        "title": figure.title.format(DATASET=str(values.get("dataset")).upper(), **values),
        "params": {name: values[name] for name in figure.params},
        "rows": rows,
    }


def _sweep(figure: Figure, settings: dict, axes: dict) -> list[dict]:
    rows = []
    for point in product(*axes.values()):
        values = {**settings, **{_AXES[axis]: value for axis, value in zip(axes, point)}}
        prefix = {column: values[column] for column in figure.columns}
        if "components" in values:
            values["enable_isub"], values["enable_isuper"] = _COMPONENTS[values.pop("components")]
        config = ExperimentConfig(**values)
        if figure.window_from_cache and config.window_size is None:
            config = replace(config, window_size=max(config.resolved().cache_size // 5, 1))
        outcome = run_speedup_experiment(config)
        rows.extend({**prefix, **tail} for tail in figure.read(outcome, figure.metric))
    return rows


# ----------------------------------------------------------------------
# The four row shapes
# ----------------------------------------------------------------------
def _overall(outcome: SpeedupOutcome, metric: str) -> float:
    report = outcome.report
    return report.isomorphism_test_speedup if metric == "iso" else report.time_speedup


def _speedups(outcome: SpeedupOutcome, metric: str | None) -> list[dict]:
    """Speedup by metric: the figure's one metric, or both."""
    if metric is not None:
        return [{"speedup": round(_overall(outcome, metric), 3)}]
    return [{"iso_test_speedup": round(_overall(outcome, "iso"), 3),
             "time_speedup": round(_overall(outcome, "time"), 3)}]


def _time_split(outcome: SpeedupOutcome, metric: str | None) -> list[dict]:
    """The base method's filter / verify share of its query time (Fig. 1)."""
    base = outcome.base
    return [{"filter_time_pct": round(100 * base.filter_time_fraction, 1),
             "verify_time_pct": round(100 * base.verify_time_fraction, 1)}]


def _candidates(outcome: SpeedupOutcome, metric: str | None) -> list[dict]:
    """The base method's average candidates, answers and false positives."""
    base = outcome.base
    return [{name: round(getattr(base, name), 2)
             for name in ("avg_candidates", "avg_answers", "avg_false_positives")}]


def _query_groups(outcome: SpeedupOutcome, metric: str) -> list[dict]:
    """The speedup per query-size group (``Q<edges>``), then ``all``."""
    if metric == "iso":
        base, igq = outcome.base.group_avg_tests(), outcome.igq.group_avg_tests()
    else:
        base, igq = outcome.base.group_avg_seconds(), outcome.igq.group_avg_seconds()
    rows = [
        {"query_group": f"Q{size}", "speedup": round(value / igq[size] if igq[size] else inf, 3)}
        for size, value in base.items()
        if size in igq
    ]
    return [*rows, {"query_group": "all", "speedup": round(_overall(outcome, metric), 3)}]


# ----------------------------------------------------------------------
# Table 1 and Figure 18: no speedup sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetStatistics:
    """Summary statistics of a graph collection, mirroring Table 1."""

    num_graphs: int
    num_labels: int
    average_degree: float
    nodes_avg: float
    nodes_std: float
    nodes_max: int
    edges_avg: float
    edges_std: float
    edges_max: int

    def as_row(self) -> dict[str, float | int]:
        """Return the statistics as a flat dictionary (one table row)."""
        return {
            "num_labels": self.num_labels,
            "num_graphs": self.num_graphs,
            "avg_degree": round(self.average_degree, 2),
            "nodes_avg": round(self.nodes_avg, 1),
            "nodes_std": round(self.nodes_std, 1),
            "nodes_max": self.nodes_max,
            "edges_avg": round(self.edges_avg, 1),
            "edges_std": round(self.edges_std, 1),
            "edges_max": self.edges_max,
        }


def summarize_dataset(graphs: Iterable[LabeledGraph]) -> DatasetStatistics:
    """Table 1's characteristics of ``graphs``: distinct labels, graphs,
    average vertex degree, and the mean / population standard deviation /
    maximum of the node and edge counts per graph (all 0 for no graphs)."""
    graphs = list(graphs)
    nodes = [graph.num_vertices for graph in graphs] or [0]
    edges = [graph.num_edges for graph in graphs] or [0]
    labels = set().union(*(graph.labels() for graph in graphs))
    return DatasetStatistics(
        num_graphs=len(graphs),
        num_labels=len(labels),
        average_degree=2 * sum(edges) / (sum(nodes) or 1),
        nodes_avg=fmean(nodes),
        nodes_std=pstdev(nodes),
        nodes_max=max(nodes),
        edges_avg=fmean(edges),
        edges_std=pstdev(edges),
        edges_max=max(edges),
    )


def table1_row(name: str, scale: float = 1.0, seed: int | None = None) -> dict:
    """One row of Table 1: the generated dataset's statistics beside the
    paper's published values, so the shape substitution can be inspected."""
    spec = dataset_spec(name)
    config = ExperimentConfig(dataset=name, scale=scale, dataset_seed=seed)
    paper = ("num_graphs", "num_labels", "avg_nodes", "avg_degree")
    return {
        "dataset": name,
        "paper": {key: getattr(spec, f"paper_{key}") for key in paper},
        "generated": summarize_dataset(building_block("dataset", config).graphs()).as_row(),
    }


def _table1(scale: float) -> list[dict]:
    return [table1_row(name, scale=scale) for name in ("aids", "pdbs", "ppi", "synthetic")]


#: Figure 18's next-larger base-method configurations (longer paths,
#: bigger trees, cycles and bitmaps)
_LARGER_CONFIGS = {
    "ggsx": {"max_path_length": 5},
    "grapes": {"max_path_length": 5},
    "ctindex": {"tree_max_size": 5, "cycle_max_length": 7, "bitmap_bits": 8192},
}


def _index_sizes(**settings) -> list[dict]:
    """Each base method's index at its default and its next-larger
    configuration, then the iGQ query index after a zipf–zipf run (the
    paper's point: the iGQ overhead is negligible next to growing the
    base index)."""

    def row(index: str, method: str, extra: Mapping) -> dict:
        config = ExperimentConfig(**{**settings, "method": method, **extra})
        return {"index": index, "size_bytes": building_block("method", config).index_size_bytes()}

    rows = [row(f"{method} (default)", method, {}) for method in _LARGER_CONFIGS]
    rows += [
        row(f"{method} (larger config)", method, extra) for method, extra in _LARGER_CONFIGS.items()
    ]
    config = ExperimentConfig(**{**settings, "method": "ggsx", "workload": "zipf-zipf"})
    size_bytes = run_speedup_experiment(config).engine.index_size_bytes()
    return [*rows, {"index": "iGQ query index (after zipf-zipf run)", "size_bytes": size_bytes}]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _filtering(dataset: str) -> Figure:
    """Figs. 2, 3: the base methods' filtering power."""
    return Figure(
        "Average candidates, answers and false positives ({DATASET})", ("dataset", "workload"),
        fixed={"dataset": dataset, "workload": "uni-uni"},
        axes={"methods": PAPER_METHODS}, columns=("method",), read=_candidates,
    )


def _matrix(dataset: str, metric: str, quantity: str) -> Figure:
    """Figs. 7, 8, 12, 13: one speedup across workloads × methods."""
    return Figure(
        f"Speedup in {quantity} ({{DATASET}})", ("dataset", "metric"), fixed={"dataset": dataset},
        axes={"workloads": PAPER_WORKLOADS, "methods": PAPER_METHODS},
        columns=("workload", "method"), read=_speedups, metric=metric,
    )


def _zipf_alpha(metric: str) -> Figure:
    """Figs. 9, 15: one speedup against the Zipf skew α."""
    return Figure(
        f"Speedup in {_METRIC_LABEL[metric]} vs Zipf skew α ({{DATASET}}/{{method}})",
        ("dataset", "method", "metric"),
        fixed={"dataset": "pdbs", "method": "grapes", "workload": "zipf-zipf"},
        axes={"alphas": (1.1, 1.4, 2.0)}, columns=("alpha", "method"), read=_speedups,
        metric=metric,
    )


def _groups(dataset: str, alpha: float, metric: str) -> Figure:
    """Figs. 10, 11, 16, 17: one speedup per query group against the cache size."""
    return Figure(
        f"Speedup in {_METRIC_LABEL[metric]} per query group"
        " ({DATASET}/{method}, α={alpha})",
        ("dataset", "method", "alpha", "cache_sizes", "metric"),
        fixed={"dataset": dataset, "method": "grapes", "workload": "zipf-zipf", "alpha": alpha},
        axes={"cache_sizes": (20, 30, 40)}, columns=("cache_size",), read=_query_groups,
        metric=metric,
    )


#: every table and figure of the paper's evaluation, by the paper's id
FIGURES: dict[str, Figure] = {
    "table1": Figure(
        "Characteristics of datasets (paper values vs generated stand-ins)", ("scale",),
        fixed={"scale": 1.0}, run=_table1,
    ),
    "1": Figure(
        "Dominance of verification time in overall query processing", ("workload",),
        fixed={"workload": "uni-uni"},
        axes={"datasets": ("aids", "pdbs"), "methods": PAPER_METHODS},
        columns=("dataset", "method"), read=_time_split,
    ),
    "2": _filtering("aids"),
    "3": _filtering("pdbs"),
    "7": _matrix("aids", "iso", "number of subgraph isomorphism tests"),
    "8": _matrix("pdbs", "iso", "number of subgraph isomorphism tests"),
    "9": _zipf_alpha("iso"),
    "10": _groups("ppi", 1.4, "iso"),
    "11": _groups("synthetic", 2.4, "iso"),
    "12": _matrix("aids", "time", "query processing time"),
    "13": _matrix("pdbs", "time", "query processing time"),
    "14": Figure(
        "Speedup in query processing time vs cache size ({DATASET}/{method})",
        ("dataset", "method", "workload"),
        fixed={"dataset": "pdbs", "method": "grapes", "workload": "zipf-zipf"},
        axes={"cache_sizes": (30, 60, 90)}, columns=("cache_size",), read=_speedups,
        window_from_cache=True,
    ),
    "15": _zipf_alpha("time"),
    "16": _groups("ppi", 1.4, "time"),
    "17": _groups("synthetic", 2.4, "time"),
    "18": Figure(
        "Absolute index sizes ({DATASET})", ("dataset",), fixed={"dataset": "aids"},
        run=_index_sizes,
    ),
    # §4.2's two pruning paths; §5.1's replacement policies, with W = C / 5 so
    # each flush evicts a policy-chosen minority (at W = C all churn alike).
    "ablation/components": Figure(
        "iGQ component ablation ({DATASET}/{method}/{workload})",
        ("dataset", "method", "workload"),
        fixed={"dataset": "aids", "method": "ggsx", "workload": "zipf-zipf"},
        axes={"components": tuple(_COMPONENTS)}, columns=("components",), read=_speedups,
    ),
    "ablation/replacement": Figure(
        "Replacement policy ablation ({DATASET}/{method}/{workload})",
        ("dataset", "method", "cache_size"),
        fixed={"dataset": "pdbs", "method": "grapes", "workload": "zipf-zipf", "cache_size": 30},
        axes={"policies": ("utility", "hit_rate", "fifo")}, columns=("policy",), read=_speedups,
        window_from_cache=True,
    ),
}


# ----------------------------------------------------------------------
# Plain-text rendering
# ----------------------------------------------------------------------
def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, Mapping):
        return " ".join(f"{key}={_cell(item)}" for key, item in value.items())
    return str(value)


def format_rows(rows: Sequence[Mapping]) -> str:
    """Render a list of homogeneous dictionaries as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    table = [[_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in table))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in table
    )
    return "\n".join([header, separator, body])


def format_figure(result: Mapping) -> str:
    """Render one :func:`run_figure` result (title, parameters, rows) as
    the series of per-configuration values underlying the paper's plot."""
    lines = [f"Figure {result.get('figure', '?')}: {result.get('title', '')}"]
    params = result.get("params")
    if params:
        lines.append("params: " + ", ".join(f"{key}={value}" for key, value in params.items()))
    lines.append(format_rows(result.get("rows", [])))
    return "\n".join(lines)
