"""Parameter sweeps and plain-text tables.

The benchmark harnesses print paper-style tables; these helpers keep
that code declarative: :func:`sweep` runs a function over parameter
values collecting dict rows, :func:`format_table` renders rows with
aligned columns, :func:`geometric_space` generates the log-spaced
axes used for window-size sweeps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError

Row = Dict[str, Any]


def sweep(values: Iterable[Any], fn: Callable[[Any], Row]) -> List[Row]:
    """Run ``fn`` for each value and collect its rows, in sweep order.

    For simulation grids prefer building
    :class:`~repro.runner.spec.RunSpec` lists and going through
    :class:`~repro.runner.parallel.ParallelRunner`, which adds dedup
    and result caching on top.
    """
    return [fn(value) for value in values]


def geometric_space(start: int, stop: int, factor: int = 2) -> List[int]:
    """Integers ``start, start*factor, ... <= stop`` (inclusive ends).

    ``stop`` is appended if the progression does not land on it.
    """
    if start < 1 or stop < start:
        raise ConfigError(f"invalid range [{start}, {stop}]")
    if factor < 2:
        raise ConfigError(f"factor must be >= 2, got {factor}")
    out: List[int] = []
    value = start
    while value <= stop:
        out.append(value)
        value *= factor
    if out[-1] != stop:
        out.append(stop)
    return out


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value and (abs(value) >= 10_000 or abs(value) < 0.001):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    rows: Sequence[Row],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned plain-text table.

    Args:
        rows: The data; all rows should share keys.
        columns: Column order (defaults to the first row's keys).
        title: Optional heading line.

    Returns:
        The formatted multi-line string (no trailing newline).
    """
    if not rows:
        return title or "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_format_value(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(cols)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in cells:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)
