"""The paper's figures at a quick size: one benchmark per ``FIGURES`` entry.

Each case runs its figure once, prints its data series in the shape the
paper reports and checks the shape its figure claims.  The checks of Figs.
1, 12 and 13 read wall-clock columns: ``-m "not wallclock"`` skips them.
Pass larger values to ``run_figure`` for closer-to-paper runs.
"""

import inspect

import pytest

from repro.experiments import FIGURES, format_figure, run_figure

QUICK_SPARSE = {"num_queries": 120}
QUICK_DENSE = {"num_queries": 100}
#: cache sizes for the query-group figures (paper: 100/200/300 on PPI-scale)
GROUP_CACHE_SIZES = (15, 25, 35)
GROUPS = {"cache_sizes": GROUP_CACHE_SIZES, **QUICK_DENSE}
ALPHAS = {"alphas": (1.1, 1.4, 2.0), **QUICK_SPARSE}
#: overrides other than QUICK_SPARSE
OVERRIDES = {
    "table1": {"scale": 1.0},
    "1": {"datasets": ("aids", "pdbs"), "methods": ("ggsx", "grapes", "ctindex"), **QUICK_SPARSE},
    "9": ALPHAS, "15": ALPHAS, "10": GROUPS, "11": GROUPS, "16": GROUPS, "17": GROUPS,
    "14": {"cache_sizes": (30, 60, 90), **QUICK_SPARSE},
    "18": {"dataset": "aids", **QUICK_SPARSE},
    "ablation/components": {"dataset": "aids", "method": "ggsx", **QUICK_SPARSE},
    "ablation/replacement": {"dataset": "pdbs", "method": "grapes", "cache_size": 20,
                             **QUICK_SPARSE},
}
WALLCLOCK = {"1", "12", "13"}
IGQ_INDEX = "iGQ query index (after zipf-zipf run)"


def by(rows, key, value="speedup"):
    return {row[key]: row[value] for row in rows}


def overall(rows):
    return [row for row in rows if row["query_group"] == "all"]


def sizes(rows):
    return by(rows, "index", "size_bytes")


#: figure id -> the checks its rows must pass
CHECKS = {
    "table1": [lambda rows: len(rows) == 4],
    "1": [
        lambda rows: len(rows) == 6,
        # The paper's point: verification dominates the total query time.
        lambda rows: all(row["verify_time_pct"] >= row["filter_time_pct"] * 0.5 for row in rows),
    ],
    "2": [
        lambda rows: all(row["avg_candidates"] >= row["avg_answers"] for row in rows),
        lambda rows: all(row["avg_false_positives"] >= 0 for row in rows),
    ],
    "3": [lambda rows: all(row["avg_candidates"] >= row["avg_answers"] for row in rows)],
    # iGQ never increases the number of isomorphism tests and should reduce
    # it on every workload/method combination (4 workloads x 3 methods).
    "7": [lambda rows: len(rows) == 12, lambda rows: all(row["speedup"] >= 1.0 for row in rows),
          lambda rows: any(row["speedup"] > 1.2 for row in rows)],
    "8": [lambda rows: len(rows) == 12, lambda rows: all(row["speedup"] >= 1.0 for row in rows),
          lambda rows: any(row["speedup"] > 1.5 for row in rows)],
    # The paper's trend: more skew brings more benefit.
    "9": [lambda rows: set(by(rows, "alpha")) == {1.1, 1.4, 2.0},
          lambda rows: by(rows, "alpha")[2.0] >= by(rows, "alpha")[1.1]],
    "10": [lambda rows: len(overall(rows)) == len(GROUP_CACHE_SIZES),
           lambda rows: all(row["speedup"] >= 1.0 for row in overall(rows))],
    "11": [lambda rows: all(row["speedup"] >= 1.0 for row in overall(rows))],
    # Query-time speedups are smaller than iso-test speedups (the paper makes
    # the same observation for AIDS); they should still be positive overall.
    "12": [lambda rows: len(rows) == 12,
           lambda rows: sum(row["speedup"] for row in rows) / len(rows) > 0.8],
    "13": [lambda rows: len(rows) == 12, lambda rows: any(row["speedup"] > 1.2 for row in rows)],
    "14": [
        lambda rows: [row["cache_size"] for row in rows] == [30, 60, 90],
        lambda rows: all(row["iso_test_speedup"] >= 1.0 for row in rows),
    ],
    "15": [lambda rows: set(by(rows, "alpha")) == {1.1, 1.4, 2.0}],
    "16": [lambda rows: any(row["query_group"] == "all" for row in rows)],
    "17": [lambda rows: any(row["query_group"] == "all" for row in rows)],
    # The paper's point: enlarging the base index (one extra unit of feature
    # size) costs substantially more space, while the iGQ query index is a
    # small add-on compared to the path-based dataset indexes.
    "18": [
        lambda rows: sizes(rows)[IGQ_INDEX] > 0,
        lambda rows: all(sizes(rows)[f"{name} (larger config)"] > sizes(rows)[f"{name} (default)"]
                         for name in ("ggsx", "grapes", "ctindex")),
        lambda rows: sizes(rows)[IGQ_INDEX] < sizes(rows)["grapes (larger config)"],
    ],
    # Each single component is at most as effective (in pruning) as both.
    "ablation/components": [
        lambda rows: {row["components"] for row in rows}
        == {"isub+isuper", "isub only", "isuper only"},
        lambda rows: all(by(rows, "components", "iso_test_speedup")["isub+isuper"]
                         >= by(rows, "components", "iso_test_speedup")[single] - 1e-9
                         for single in ("isub only", "isuper only")),
    ],
    "ablation/replacement": [
        lambda rows: {row["policy"] for row in rows} == {"utility", "hit_rate", "fifo"},
        lambda rows: all(row["iso_test_speedup"] >= 1.0 for row in rows),
    ],
}


@pytest.mark.parametrize("figure_id", [
    pytest.param(key, marks=pytest.mark.wallclock) if key in WALLCLOCK else key for key in FIGURES
])
def test_figure(benchmark, figure_id):
    overrides = OVERRIDES.get(figure_id, QUICK_SPARSE)
    result = benchmark.pedantic(lambda: run_figure(figure_id, **overrides), rounds=1, iterations=1)
    print()
    print(format_figure(result))
    for check in CHECKS[figure_id]:
        assert check(result["rows"]), inspect.getsource(check).strip()
