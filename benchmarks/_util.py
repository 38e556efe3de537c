"""Shared helpers for the benchmark harness."""

from __future__ import annotations

import math
from typing import Sequence


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print a fixed-width table (the series the paper's claims predict)."""
    widths = [
        max(len(str(h)), max((len(_fmt(r[c])) for r in rows), default=0))
        for c, h in enumerate(header)
    ]
    print("\n" + "=" * (sum(widths) + 3 * len(widths)))
    print(title)
    print("=" * (sum(widths) + 3 * len(widths)))
    print(" | ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0.0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.4f}"
    return str(v)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares exponent ``p`` of ``y ~ c * x^p`` (log-log fit).

    The benchmarks use this to check the *shape* of a complexity claim:
    a Theta(n^3) series should fit an exponent near 3.
    """
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return float("nan")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return float("nan")
    return (n * sxy - sx * sy) / denom
