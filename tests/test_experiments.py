"""Tests for the experiment layer: metrics, runner, the figure table, reporting."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import (
    FIGURES,
    ExperimentConfig,
    StreamMetrics,
    format_figure,
    format_rows,
    run_figure,
    run_speedup_experiment,
    speedup,
)
from repro.experiments import figures
from repro.experiments.runner import building_block
from repro.methods.base import QueryResult

from .conftest import make_path_graph

#: a deliberately tiny configuration so experiment-layer tests stay fast
TINY = {
    "dataset": "aids",
    "scale": 0.08,
    "num_queries": 20,
    "cache_size": 8,
    "window_size": 4,
    "max_path_length": 3,
}


def fake_result(tests, candidates, answers, filter_s, verify_s, igq_s=0.0):
    return QueryResult(
        query_name="q",
        answers=set(range(answers)),
        candidates=set(range(candidates)),
        num_isomorphism_tests=tests,
        filter_seconds=filter_s,
        verify_seconds=verify_s,
        igq_seconds=igq_s,
    )


class TestStreamMetrics:
    def test_averages(self):
        metrics = StreamMetrics(label="test")
        metrics.add(fake_result(10, 12, 6, 0.1, 0.4), make_path_graph("ABCD"))
        metrics.add(fake_result(20, 18, 10, 0.1, 0.4), make_path_graph("ABC"))
        assert metrics.num_queries == 2
        assert metrics.avg_isomorphism_tests == pytest.approx(15.0)
        assert metrics.avg_candidates == pytest.approx(15.0)
        assert metrics.avg_answers == pytest.approx(8.0)
        assert metrics.avg_false_positives == pytest.approx(7.0)
        assert metrics.avg_seconds == pytest.approx(0.5)
        assert metrics.filter_time_fraction == pytest.approx(0.2)
        assert metrics.verify_time_fraction == pytest.approx(0.8)

    def test_group_breakdowns(self):
        metrics = StreamMetrics()
        metrics.add(fake_result(10, 10, 5, 0.0, 1.0), make_path_graph("ABCD"))  # 3 edges
        metrics.add(fake_result(30, 30, 5, 0.0, 3.0), make_path_graph("ABCD"))  # 3 edges
        metrics.add(fake_result(2, 2, 1, 0.0, 0.5), make_path_graph("AB"))  # 1 edge
        assert metrics.group_avg_tests() == {1: 2.0, 3: 20.0}
        assert metrics.group_avg_seconds()[3] == pytest.approx(2.0)

    def test_empty_metrics(self):
        metrics = StreamMetrics()
        assert metrics.avg_isomorphism_tests == 0.0
        assert metrics.filter_time_fraction == 0.0
        assert metrics.num_queries == 0

    def test_speedup_ratios(self):
        base = StreamMetrics()
        base.add(fake_result(40, 40, 4, 0.1, 0.9))
        igq = StreamMetrics()
        igq.add(fake_result(10, 40, 4, 0.1, 0.15, igq_s=0.05))
        report = speedup(base, igq)
        assert report.isomorphism_test_speedup == pytest.approx(4.0)
        assert report.time_speedup == pytest.approx(1.0 / 0.3)

    def test_speedup_with_zero_denominator(self):
        base = StreamMetrics()
        base.add(fake_result(10, 10, 1, 0.0, 1.0))
        igq = StreamMetrics()
        igq.add(fake_result(0, 10, 1, 0.0, 0.0))
        report = speedup(base, igq)
        assert report.isomorphism_test_speedup == float("inf")


class TestExperimentConfig:
    def test_resolution_fills_defaults(self):
        config = ExperimentConfig(dataset="ppi").resolved()
        assert config.max_path_length == 3
        assert config.num_queries == 150
        assert config.cache_size == 30
        assert config.window_size == 10

    def test_explicit_values_win(self):
        config = ExperimentConfig(dataset="aids", cache_size=999).resolved()
        assert config.cache_size == 999

    def test_workload_spec_parsing(self):
        spec = ExperimentConfig(workload="zipf-uni", alpha=2.0).workload_spec()
        assert spec.graph_distribution == "zipf"
        assert spec.node_distribution == "uni"
        assert spec.alpha == 2.0


class TestRunner:
    def test_building_blocks_are_cached(self):
        config = ExperimentConfig(**TINY)
        assert building_block("dataset", config) is building_block(
            "dataset", ExperimentConfig(dataset="aids", scale=0.08)
        )
        # A block is keyed by the fields it depends on only.
        method = building_block("method", config)
        assert method is building_block("method", replace(config, cache_size=99))
        queries = building_block("queries", config)
        assert queries is building_block("queries", replace(config, method="grapes"))
        assert len(queries) == TINY["num_queries"] + TINY["window_size"]

    def test_speedup_experiment_outcome(self):
        config = ExperimentConfig(**TINY, method="ggsx", workload="zipf-zipf")
        outcome = run_speedup_experiment(config)
        assert outcome.base.num_queries == TINY["num_queries"]
        assert outcome.igq.num_queries == TINY["num_queries"]
        # iGQ never performs more isomorphism tests than the base method.
        assert (
            outcome.igq.total_isomorphism_tests <= outcome.base.total_isomorphism_tests
        )
        assert outcome.report.isomorphism_test_speedup >= 1.0
        assert outcome.config.dataset == "aids"

    def test_component_flags_reach_engine(self):
        config = ExperimentConfig(**TINY, method="ggsx", enable_isuper=False)
        outcome = run_speedup_experiment(config)
        assert outcome.engine.isuper is None
        assert outcome.engine.isub is not None


class TestFigureDrivers:
    @pytest.mark.parametrize("figure_id", list(FIGURES))
    def test_every_figure_runs_at_tiny_size(self, figure_id):
        overrides = {"scale": 0.05} if figure_id == "table1" else TINY_OVERRIDES()
        result = run_figure(figure_id, **overrides)
        assert set(result) == {"figure", "title", "params", "rows"}
        assert result["rows"]
        assert set(result["params"]) == set(FIGURES[figure_id].params)
        assert "{" not in result["title"]

    def test_table1_structure(self):
        result = run_figure("table1", scale=0.05)
        assert result["figure"] == "Table 1"
        assert len(result["rows"]) == 4
        assert {row["dataset"] for row in result["rows"]} == {
            "aids",
            "pdbs",
            "ppi",
            "synthetic",
        }

    def test_figure1_rows(self):
        result = run_figure("1", datasets=("aids",), methods=("ggsx",), **TINY_OVERRIDES())
        assert len(result["rows"]) == 1
        row = result["rows"][0]
        assert 0 <= row["filter_time_pct"] <= 100
        assert 0 <= row["verify_time_pct"] <= 100

    def test_figure14_rows(self, monkeypatch):
        """The cache sweep's window follows W = C / 5 unless overridden."""
        windows = []
        run = figures.run_speedup_experiment

        def spy(config):
            windows.append(config.window_size)
            return run(config)

        monkeypatch.setattr(figures, "run_speedup_experiment", spy)
        overrides = TINY_OVERRIDES(cache=False)
        del overrides["window_size"]
        result = run_figure("14", dataset="aids", method="ggsx", cache_sizes=(6, 10), **overrides)
        assert [row["cache_size"] for row in result["rows"]] == [6, 10]
        assert all(row["iso_test_speedup"] >= 1.0 for row in result["rows"])
        assert windows == [1, 2]
        run_figure("14", dataset="aids", method="ggsx", cache_sizes=(10,), **TINY_OVERRIDES())
        assert windows[-1] == TINY["window_size"]

    def test_ablation_components_rows(self):
        result = run_figure("ablation/components", dataset="aids", method="ggsx", **TINY_OVERRIDES())
        assert [row["components"] for row in result["rows"]] == [
            "isub+isuper",
            "isub only",
            "isuper only",
        ]
        assert result["params"] == {"dataset": "aids", "method": "ggsx", "workload": "zipf-zipf"}


def TINY_OVERRIDES(cache: bool = True) -> dict:
    overrides = {
        "scale": TINY["scale"],
        "num_queries": TINY["num_queries"],
        "window_size": TINY["window_size"],
        "max_path_length": TINY["max_path_length"],
    }
    if cache:
        overrides["cache_size"] = TINY["cache_size"]
    return overrides


class TestReporting:
    def test_format_rows_alignment(self):
        text = format_rows([{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.25}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_format_figure_includes_title_and_params(self):
        text = format_figure(
            {"figure": "X", "title": "demo", "params": {"k": 1}, "rows": [{"v": 2}]}
        )
        assert "Figure X" in text
        assert "k=1" in text
        assert "v" in text
