"""Per-figure experiment drivers.

Every figure of the paper's evaluation section (plus Table 1) has a function
here that runs the corresponding experiment on the scaled-down datasets and
returns a structured result::

    {"figure": "7", "title": ..., "params": {...}, "rows": [ {...}, ... ]}

The benchmark suite (``benchmarks/bench_fig*.py``) calls these functions and
prints their rows.  All sizes are parameters, so closer-to-paper
configurations only require larger arguments (and more patience).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..datasets.registry import table1_row
from .metrics import StreamMetrics
from .runner import ExperimentConfig, get_method, run_speedup_experiment

__all__ = [
    "PAPER_METHODS",
    "PAPER_WORKLOADS",
    "table1",
    "figure1_time_breakdown",
    "figure2_filtering_aids",
    "figure3_filtering_pdbs",
    "figure7_iso_speedup_aids",
    "figure8_iso_speedup_pdbs",
    "figure9_zipf_alpha_iso",
    "figure10_query_groups_ppi_iso",
    "figure11_query_groups_synthetic_iso",
    "figure12_time_speedup_aids",
    "figure13_time_speedup_pdbs",
    "figure14_cache_size_time",
    "figure15_zipf_alpha_time",
    "figure16_query_groups_ppi_time",
    "figure17_query_groups_synthetic_time",
    "figure18_index_sizes",
    "ablation_components",
    "ablation_replacement_policies",
]

#: the paper's base-method line-up
PAPER_METHODS = ("ggsx", "grapes", "grapes6", "ctindex")
#: the paper's four query workloads
PAPER_WORKLOADS = ("uni-uni", "uni-zipf", "zipf-uni", "zipf-zipf")


# ----------------------------------------------------------------------
# Table 1 — dataset characteristics
# ----------------------------------------------------------------------
def table1(scale: float = 1.0) -> dict:
    """Reproduce Table 1: characteristics of the four (generated) datasets."""
    rows = [table1_row(name, scale=scale) for name in ("aids", "pdbs", "ppi", "synthetic")]
    return {
        "figure": "Table 1",
        "title": "Characteristics of datasets (paper values vs generated stand-ins)",
        "params": {"scale": scale},
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Figures 1–3 — where the time goes / filtering power of the base methods
# ----------------------------------------------------------------------
def figure1_time_breakdown(
    datasets: Sequence[str] = ("aids", "pdbs"),
    methods: Sequence[str] = ("ggsx", "grapes", "ctindex"),
    workload: str = "uni-uni",
    **config_overrides,
) -> dict:
    """Figure 1: fraction of query time spent in filtering vs verification."""
    rows = []
    for dataset in datasets:
        for method in methods:
            config = ExperimentConfig(
                dataset=dataset, method=method, workload=workload, **config_overrides
            )
            outcome = run_speedup_experiment(config)
            rows.append(
                {
                    "dataset": dataset,
                    "method": method,
                    "filter_time_pct": round(100 * outcome.base.filter_time_fraction, 1),
                    "verify_time_pct": round(100 * outcome.base.verify_time_fraction, 1),
                }
            )
    return {
        "figure": "1",
        "title": "Dominance of verification time in overall query processing",
        "params": {"workload": workload},
        "rows": rows,
    }


def _filtering_figure(dataset: str, figure: str, methods: Sequence[str], workload: str, **overrides) -> dict:
    rows = []
    for method in methods:
        config = ExperimentConfig(dataset=dataset, method=method, workload=workload, **overrides)
        outcome = run_speedup_experiment(config)
        base = outcome.base
        rows.append(
            {
                "method": method,
                "avg_candidates": round(base.avg_candidates, 2),
                "avg_answers": round(base.avg_answers, 2),
                "avg_false_positives": round(base.avg_false_positives, 2),
            }
        )
    return {
        "figure": figure,
        "title": f"Average candidates, answers and false positives ({dataset.upper()})",
        "params": {"dataset": dataset, "workload": workload},
        "rows": rows,
    }


def figure2_filtering_aids(
    methods: Sequence[str] = ("ggsx", "grapes", "ctindex"),
    workload: str = "uni-uni",
    **overrides,
) -> dict:
    """Figure 2: candidate/answer/false-positive sizes on the AIDS-like dataset."""
    return _filtering_figure("aids", "2", methods, workload, **overrides)


def figure3_filtering_pdbs(
    methods: Sequence[str] = ("ggsx", "grapes", "ctindex"),
    workload: str = "uni-uni",
    **overrides,
) -> dict:
    """Figure 3: candidate/answer/false-positive sizes on the PDBS-like dataset."""
    return _filtering_figure("pdbs", "3", methods, workload, **overrides)


# ----------------------------------------------------------------------
# Figures 7/8 and 12/13 — speedups across workloads and methods
# ----------------------------------------------------------------------
def _speedup_matrix(
    dataset: str,
    figure: str,
    title: str,
    metric: str,
    methods: Sequence[str],
    workloads: Sequence[str],
    **overrides,
) -> dict:
    rows = []
    for workload in workloads:
        for method in methods:
            config = ExperimentConfig(dataset=dataset, method=method, workload=workload, **overrides)
            outcome = run_speedup_experiment(config)
            value = (
                outcome.report.isomorphism_test_speedup
                if metric == "iso"
                else outcome.report.time_speedup
            )
            rows.append(
                {
                    "workload": workload,
                    "method": method,
                    "speedup": round(value, 3),
                }
            )
    return {
        "figure": figure,
        "title": title,
        "params": {"dataset": dataset, "metric": metric},
        "rows": rows,
    }


def figure7_iso_speedup_aids(
    methods: Sequence[str] = PAPER_METHODS,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    **overrides,
) -> dict:
    """Figure 7: speedup in number of isomorphism tests (AIDS-like)."""
    return _speedup_matrix(
        "aids", "7", "Speedup in number of subgraph isomorphism tests (AIDS)",
        "iso", methods, workloads, **overrides,
    )


def figure8_iso_speedup_pdbs(
    methods: Sequence[str] = PAPER_METHODS,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    **overrides,
) -> dict:
    """Figure 8: speedup in number of isomorphism tests (PDBS-like)."""
    return _speedup_matrix(
        "pdbs", "8", "Speedup in number of subgraph isomorphism tests (PDBS)",
        "iso", methods, workloads, **overrides,
    )


def figure12_time_speedup_aids(
    methods: Sequence[str] = PAPER_METHODS,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    **overrides,
) -> dict:
    """Figure 12: speedup in query processing time (AIDS-like)."""
    return _speedup_matrix(
        "aids", "12", "Speedup in query processing time (AIDS)",
        "time", methods, workloads, **overrides,
    )


def figure13_time_speedup_pdbs(
    methods: Sequence[str] = PAPER_METHODS,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    **overrides,
) -> dict:
    """Figure 13: speedup in query processing time (PDBS-like)."""
    return _speedup_matrix(
        "pdbs", "13", "Speedup in query processing time (PDBS)",
        "time", methods, workloads, **overrides,
    )


# ----------------------------------------------------------------------
# Figures 9 and 15 — effect of the Zipf skew α
# ----------------------------------------------------------------------
def _zipf_alpha_figure(
    figure: str, metric: str, dataset: str, method: str, alphas: Sequence[float], **overrides
) -> dict:
    rows = []
    for alpha in alphas:
        config = ExperimentConfig(
            dataset=dataset, method=method, workload="zipf-zipf", alpha=alpha, **overrides
        )
        outcome = run_speedup_experiment(config)
        value = (
            outcome.report.isomorphism_test_speedup
            if metric == "iso"
            else outcome.report.time_speedup
        )
        rows.append({"alpha": alpha, "method": method, "speedup": round(value, 3)})
    label = "isomorphism tests" if metric == "iso" else "query processing time"
    return {
        "figure": figure,
        "title": f"Speedup in {label} vs Zipf skew α ({dataset.upper()}/{method})",
        "params": {"dataset": dataset, "method": method, "metric": metric},
        "rows": rows,
    }


def figure9_zipf_alpha_iso(
    dataset: str = "pdbs",
    method: str = "grapes6",
    alphas: Sequence[float] = (1.1, 1.4, 2.0),
    **overrides,
) -> dict:
    """Figure 9: iso-test speedup vs Zipf α (PDBS-like, Grapes(6))."""
    return _zipf_alpha_figure("9", "iso", dataset, method, alphas, **overrides)


def figure15_zipf_alpha_time(
    dataset: str = "pdbs",
    method: str = "grapes6",
    alphas: Sequence[float] = (1.1, 1.4, 2.0),
    **overrides,
) -> dict:
    """Figure 15: query-time speedup vs Zipf α (PDBS-like, Grapes(6))."""
    return _zipf_alpha_figure("15", "time", dataset, method, alphas, **overrides)


# ----------------------------------------------------------------------
# Figures 10/11 and 16/17 — speedups per query-size group vs cache size
# ----------------------------------------------------------------------
def _group_speedups(base: StreamMetrics, igq: StreamMetrics, metric: str) -> dict[int, float]:
    base_groups = base.group_avg_tests() if metric == "iso" else base.group_avg_seconds()
    igq_groups = igq.group_avg_tests() if metric == "iso" else igq.group_avg_seconds()
    speedups = {}
    for size, base_value in base_groups.items():
        igq_value = igq_groups.get(size)
        if igq_value is None:
            continue
        speedups[size] = base_value / igq_value if igq_value > 0 else float("inf")
    return speedups


def _query_group_figure(
    figure: str,
    metric: str,
    dataset: str,
    method: str,
    cache_sizes: Sequence[int],
    alpha: float,
    **overrides,
) -> dict:
    rows = []
    for cache_size in cache_sizes:
        config = ExperimentConfig(
            dataset=dataset,
            method=method,
            workload="zipf-zipf",
            alpha=alpha,
            cache_size=cache_size,
            **overrides,
        )
        outcome = run_speedup_experiment(config)
        for size, value in sorted(
            _group_speedups(outcome.base, outcome.igq, metric).items()
        ):
            rows.append(
                {
                    "cache_size": cache_size,
                    "query_group": f"Q{size}",
                    "speedup": round(value, 3),
                }
            )
        overall = (
            outcome.report.isomorphism_test_speedup
            if metric == "iso"
            else outcome.report.time_speedup
        )
        rows.append(
            {"cache_size": cache_size, "query_group": "all", "speedup": round(overall, 3)}
        )
    label = "isomorphism tests" if metric == "iso" else "query processing time"
    return {
        "figure": figure,
        "title": f"Speedup in {label} per query group ({dataset.upper()}/{method}, α={alpha})",
        "params": {
            "dataset": dataset,
            "method": method,
            "alpha": alpha,
            "cache_sizes": list(cache_sizes),
            "metric": metric,
        },
        "rows": rows,
    }


def figure10_query_groups_ppi_iso(
    cache_sizes: Sequence[int] = (20, 30, 40),
    alpha: float = 1.4,
    method: str = "grapes6",
    **overrides,
) -> dict:
    """Figure 10: iso-test speedup per query group (PPI-like, Grapes(6))."""
    return _query_group_figure("10", "iso", "ppi", method, cache_sizes, alpha, **overrides)


def figure11_query_groups_synthetic_iso(
    cache_sizes: Sequence[int] = (20, 30, 40),
    alpha: float = 2.4,
    method: str = "grapes6",
    **overrides,
) -> dict:
    """Figure 11: iso-test speedup per query group (dense synthetic, Grapes(6))."""
    return _query_group_figure(
        "11", "iso", "synthetic", method, cache_sizes, alpha, **overrides
    )


def figure16_query_groups_ppi_time(
    cache_sizes: Sequence[int] = (20, 30, 40),
    alpha: float = 1.4,
    method: str = "grapes6",
    **overrides,
) -> dict:
    """Figure 16: query-time speedup per query group (PPI-like, Grapes(6))."""
    return _query_group_figure("16", "time", "ppi", method, cache_sizes, alpha, **overrides)


def figure17_query_groups_synthetic_time(
    cache_sizes: Sequence[int] = (20, 30, 40),
    alpha: float = 2.4,
    method: str = "grapes6",
    **overrides,
) -> dict:
    """Figure 17: query-time speedup per query group (dense synthetic, Grapes(6))."""
    return _query_group_figure(
        "17", "time", "synthetic", method, cache_sizes, alpha, **overrides
    )


# ----------------------------------------------------------------------
# Figure 14 — query-time speedup vs cache size
# ----------------------------------------------------------------------
def figure14_cache_size_time(
    dataset: str = "pdbs",
    method: str = "grapes6",
    cache_sizes: Sequence[int] = (30, 60, 90),
    workload: str = "zipf-zipf",
    **overrides,
) -> dict:
    """Figure 14: query-time speedup vs iGQ cache size (PDBS-like, Grapes(6)).

    The window size follows the paper's ratio (``W = C / 5``) unless an
    explicit ``window_size`` override is supplied.
    """
    explicit_window = overrides.pop("window_size", None)
    rows = []
    for cache_size in cache_sizes:
        window_size = explicit_window if explicit_window is not None else max(cache_size // 5, 1)
        config = ExperimentConfig(
            dataset=dataset,
            method=method,
            workload=workload,
            cache_size=cache_size,
            window_size=window_size,
            **overrides,
        )
        outcome = run_speedup_experiment(config)
        rows.append(
            {
                "cache_size": cache_size,
                "time_speedup": round(outcome.report.time_speedup, 3),
                "iso_test_speedup": round(outcome.report.isomorphism_test_speedup, 3),
            }
        )
    return {
        "figure": "14",
        "title": f"Speedup in query processing time vs cache size ({dataset.upper()}/{method})",
        "params": {"dataset": dataset, "method": method, "workload": workload},
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Figure 18 — index sizes
# ----------------------------------------------------------------------
def figure18_index_sizes(dataset: str = "aids", **overrides) -> dict:
    """Figure 18: absolute index sizes, base methods vs the iGQ overhead.

    For each base method the default configuration and the next-larger
    configuration (longer paths / bigger trees, cycles and bitmaps) are
    reported, alongside the size of the iGQ query index after a full
    zipf–zipf run (the paper's point: the iGQ overhead is negligible
    compared to growing the base index).
    """
    rows = []
    default_configs = {
        "ggsx": {},
        "grapes": {},
        "ctindex": {},
    }
    larger_configs = {
        "ggsx": {"max_path_length": 5},
        "grapes": {"max_path_length": 5},
        "ctindex": {"tree_max_size": 5, "cycle_max_length": 7, "bitmap_bits": 8192},
    }
    for method, extra in default_configs.items():
        config = ExperimentConfig(dataset=dataset, method=method, **extra, **overrides)
        built = get_method(config)
        rows.append(
            {
                "index": f"{method} (default)",
                "size_bytes": built.index_size_bytes(),
            }
        )
    for method, extra in larger_configs.items():
        config = ExperimentConfig(dataset=dataset, method=method, **extra, **overrides)
        built = get_method(config)
        rows.append(
            {
                "index": f"{method} (larger config)",
                "size_bytes": built.index_size_bytes(),
            }
        )
    igq_outcome = run_speedup_experiment(
        ExperimentConfig(dataset=dataset, method="ggsx", workload="zipf-zipf", **overrides)
    )
    rows.append(
        {
            "index": "iGQ query index (after zipf-zipf run)",
            "size_bytes": igq_outcome.engine.index_size_bytes(),
        }
    )
    return {
        "figure": "18",
        "title": f"Absolute index sizes ({dataset.upper()})",
        "params": {"dataset": dataset},
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Ablations (the design choices of §4.2 and §5.1)
# ----------------------------------------------------------------------
def ablation_components(
    dataset: str = "aids", method: str = "ggsx", workload: str = "zipf-zipf", **overrides
) -> dict:
    """Isub-only vs Isuper-only vs both (the two pruning paths of §4.2)."""
    variants = [
        ("isub+isuper", True, True),
        ("isub only", True, False),
        ("isuper only", False, True),
    ]
    rows = []
    for label, enable_isub, enable_isuper in variants:
        config = ExperimentConfig(
            dataset=dataset,
            method=method,
            workload=workload,
            enable_isub=enable_isub,
            enable_isuper=enable_isuper,
            **overrides,
        )
        outcome = run_speedup_experiment(config)
        rows.append(
            {
                "components": label,
                "iso_test_speedup": round(outcome.report.isomorphism_test_speedup, 3),
                "time_speedup": round(outcome.report.time_speedup, 3),
            }
        )
    return {
        "figure": "ablation/components",
        "title": f"iGQ component ablation ({dataset.upper()}/{method}/{workload})",
        "params": {"dataset": dataset, "method": method, "workload": workload},
        "rows": rows,
    }


def ablation_replacement_policies(
    dataset: str = "pdbs",
    method: str = "grapes",
    workload: str = "zipf-zipf",
    policies: Sequence[str] = ("utility", "hit_rate", "fifo"),
    cache_size: int | None = 30,
    **overrides,
) -> dict:
    """Utility-based replacement vs popularity-only vs FIFO (§5.1).

    The window defaults to the paper's ``W = C / 5`` ratio so that each
    maintenance step evicts a policy-chosen minority of the cache (with
    ``W = C`` every policy would churn the whole cache and behave alike).
    """
    explicit_window = overrides.pop("window_size", None)
    rows = []
    for policy in policies:
        window_size = (
            explicit_window
            if explicit_window is not None
            else max((cache_size or 30) // 5, 1)
        )
        config = ExperimentConfig(
            dataset=dataset,
            method=method,
            workload=workload,
            policy=policy,
            cache_size=cache_size,
            window_size=window_size,
            **overrides,
        )
        outcome = run_speedup_experiment(config)
        rows.append(
            {
                "policy": policy,
                "iso_test_speedup": round(outcome.report.isomorphism_test_speedup, 3),
                "time_speedup": round(outcome.report.time_speedup, 3),
            }
        )
    return {
        "figure": "ablation/replacement",
        "title": f"Replacement policy ablation ({dataset.upper()}/{method}/{workload})",
        "params": {"dataset": dataset, "method": method, "cache_size": cache_size},
        "rows": rows,
    }
