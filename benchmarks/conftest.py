"""Shared configuration for the figure-regeneration benchmarks.

Each benchmark runs one figure driver exactly once (``benchmark.pedantic``
with a single round): the interesting output is the figure's data series —
printed to stdout in the same shape the paper reports — with the wall-clock
time of the whole experiment as the benchmarked quantity.

The ``QUICK`` overrides keep the full suite to a few minutes on a laptop;
pass larger values through the figure functions
(``src/repro/experiments/figures.py``) for closer-to-paper runs.
"""

from __future__ import annotations

from repro.experiments import format_figure

#: reduced query-stream sizes for the benchmark suite (the experiment layer's
#: own defaults are larger; the paper uses 3 000 / 500 queries)
QUICK_SPARSE = {"num_queries": 120}
QUICK_DENSE = {"num_queries": 100}
#: cache sizes for the query-group figures (paper: 100/200/300 on PPI-scale)
GROUP_CACHE_SIZES = (15, 25, 35)


def run_figure(benchmark, figure_function, **kwargs):
    """Run ``figure_function`` once under pytest-benchmark and print it."""
    result = benchmark.pedantic(
        lambda: figure_function(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(format_figure(result))
    return result
