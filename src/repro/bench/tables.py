"""Plain-text table rendering for bench output (paper-style rows)."""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned text table; floats get sensible precision."""

    def cell(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 100:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    grid = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in grid)) if grid else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in grid:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
