"""Plain-text table formatting for experiment output."""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    title: str,
    rows: Sequence[Sequence],
    headers: Sequence[str],
    floatfmt: str = "{:.1f}",
) -> str:
    """Render rows as an aligned text table with a title line."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(floatfmt.format(cell))
            elif cell is None:
                cells.append("-")
            else:
                cells.append(str(cell))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), pure
    Python so serving reports stay bit-deterministic across platforms."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
