"""The paper's evaluation: one table of figures (:data:`FIGURES`), one
sweep that runs any of them (:func:`run_figure`), and the stream metrics
and speedups each row reads."""

from .figures import FIGURES, Figure, format_figure, format_rows, run_figure
from .runner import ExperimentConfig, SpeedupReport, StreamMetrics, run_speedup_experiment, speedup

__all__ = [
    "FIGURES",
    "ExperimentConfig",
    "Figure",
    "SpeedupReport",
    "StreamMetrics",
    "format_figure",
    "format_rows",
    "run_figure",
    "run_speedup_experiment",
    "speedup",
]
