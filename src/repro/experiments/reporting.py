"""Plain-text rendering of experiment results.

The figure drivers return structured dictionaries; this module turns them
into aligned text tables so the benchmark drivers can present them the way
the paper presents its figures — as the series of per-configuration values
underlying each plot.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["format_rows", "format_figure", "print_figure"]


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
    """Render one figure-driver result (title, parameters, rows)."""
    lines = [
        f"Figure {result.get('figure', '?')}: {result.get('title', '')}",
    ]
    params = result.get("params")
    if params:
        lines.append("params: " + ", ".join(f"{key}={value}" for key, value in params.items()))
    lines.append(format_rows(result.get("rows", [])))
    return "\n".join(lines)


def print_figure(result: Mapping) -> None:
    """Print a figure-driver result to stdout."""
    print()
    print(format_figure(result))
