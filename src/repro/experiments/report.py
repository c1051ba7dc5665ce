"""Plain-text reporting: the rows/series the paper's figures plot.

The harness prints ASCII tables (and writes CSV) carrying exactly the
series of each figure: techniques down the side, the sweep (PE counts)
across, values in seconds or speedups.  ``ascii_histogram`` renders
Figure 9's per-run distribution for the terminal.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 float_fmt: str = "{:.2f}") -> str:
    """Fixed-width ASCII table."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in str_rows:
        out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def series_table(
    series: Mapping[str, Sequence[float]],
    keys: Sequence,
    key_header: str = "PEs",
    float_fmt: str = "{:.2f}",
) -> str:
    """Techniques as rows, sweep keys as columns (a figure's data)."""
    headers = [key_header] + [str(k) for k in keys]
    rows = []
    for name, values in series.items():
        if len(values) != len(keys):
            raise ValueError(
                f"{name}: need {len(keys)} values, got {len(values)}"
            )
        rows.append([name] + list(values))
    return format_table(headers, rows, float_fmt=float_fmt)


def write_csv(
    path: str | Path,
    series: Mapping[str, Sequence[float]],
    keys: Sequence,
    key_header: str = "technique",
) -> None:
    """Write a figure's series to CSV (one row per technique).

    ``key_header`` names the first column (the row-label column); the
    remaining header cells are the sweep keys.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([key_header] + [str(k) for k in keys])
        for name, values in series.items():
            writer.writerow([name] + [repr(float(v)) for v in values])


def read_csv_series(
    path: str | Path,
) -> tuple[dict[str, list[float]], list[str], str]:
    """Read a :func:`write_csv` file back: (series, keys, key_header).

    Keys come back as the strings of the header row (``write_csv``
    stringifies them); values round-trip exactly because ``write_csv``
    writes ``repr(float)``.
    """
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < 2:
        raise ValueError(f"{path}: not a series CSV (no header row)")
    header = rows[0]
    series = {row[0]: [float(v) for v in row[1:]] for row in rows[1:]}
    return series, header[1:], header[0]


def ascii_histogram(
    values: Sequence[float],
    bins: int = 12,
    width: int = 50,
    log_counts: bool = False,
) -> str:
    """A terminal histogram — Figure 9's per-run distribution view."""
    import math as _math

    data = [float(v) for v in values]
    if not data:
        return "(empty sample)"
    lo, hi = min(data), max(data)
    if hi == lo:
        return f"all {len(data)} values = {lo:.3g}"
    span = (hi - lo) / bins
    counts = [0] * bins
    for v in data:
        idx = min(int((v - lo) / span), bins - 1)
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        left = lo + i * span
        right = left + span
        if log_counts and count > 0:
            bar_len = max(
                1, int(_math.log1p(count) / _math.log1p(peak) * width)
            )
        else:
            bar_len = int(count / peak * width) if peak else 0
        lines.append(
            f"[{left:>9.2f}, {right:>9.2f}) "
            f"{'#' * bar_len:<{width}} {count}"
        )
    return "\n".join(lines)
