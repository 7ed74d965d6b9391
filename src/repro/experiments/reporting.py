"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from typing import List, Sequence, Union

Number = Union[int, float]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Union[str, Number]]],
                 title: str = "") -> str:
    """Render a simple fixed-width text table (the harness' stdout format)."""
    def render(cell: Union[str, Number]) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000 or abs(cell) < 0.01:
                return f"{cell:.3e}"
            return f"{cell:.3f}"
        return str(cell)

    text_rows = [[render(cell) for cell in row] for row in rows]
    widths = [max(len(headers[col]), *(len(row[col]) for row in text_rows)) if text_rows
              else len(headers[col]) for col in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)
