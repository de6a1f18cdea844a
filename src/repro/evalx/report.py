"""Plain-text rendering for experiment reports: tables and series grids."""

from __future__ import annotations

from collections.abc import Sequence


def format_percent(value: float, decimals: int = 2) -> str:
    """Render a fraction as a fixed-width percentage string."""
    return f"{value * 100:.{decimals}f}%"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    left_columns: int = 1,
) -> str:
    """Render an aligned monospace table.

    Cells are stringified; the first ``left_columns`` columns are
    left-aligned, the rest right-aligned.
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(
                cell.ljust(widths[i])
                if i < left_columns
                else cell.rjust(widths[i])
            )
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def render_failures(failures: Sequence) -> str:
    """Render the failed-cell appendix of a ``--keep-going`` report.

    ``failures`` holds :class:`~repro.evalx.parallel.CellFailure`
    records; the corresponding values appear as gaps (``-``) in the
    tables above this appendix.
    """
    rows = [
        [f.label, f.kind, f.attempts, f"{f.wall_seconds:.1f}s", f.error]
        for f in failures
    ]
    return render_table(
        ["Failed cell", "Kind", "Attempts", "Wall", "Error"],
        rows,
        title=f"FAILED CELLS ({len(rows)}) — shown as gaps above",
    )


def render_frontier(points: Sequence[dict], title: str = "") -> str:
    """Render one benchmark's Pareto frontier, cheapest point first.

    ``points`` holds the autotuner's frontier dicts (``config``,
    ``storage_bits``, ``miss_rate``); see :mod:`repro.evalx.tune`.
    """
    rows = [
        [
            point["config"],
            f"{point['storage_bits'] / 8192:.1f}KB",
            format_percent(point["miss_rate"]),
        ]
        for point in points
    ]
    return render_table(
        ["Config", "Storage", "Miss rate"], rows, title=title
    )


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    title: str = "",
    as_percent: bool = True,
) -> str:
    """Render multiple named series over a shared x axis as a table.

    This is the textual equivalent of the paper's line charts: one row per
    x value, one column per series.
    """
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        row: list[object] = [x]
        for values in series.values():
            value = values[i]
            if value is None:
                row.append("-")
            elif as_percent:
                row.append(format_percent(value))
            else:
                row.append(f"{value:.3f}")
        rows.append(row)
    return render_table(headers, rows, title=title)
