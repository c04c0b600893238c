"""Parameter grids and scaling-shape diagnostics.

The reproduction criteria in DESIGN.md are *shapes*: per-node samples
``∝ k^{−1/2}`` (Theorem 1.2), rounds ``∝ D + τ`` (Theorem 5.1),
communication ``∝ √(δn)`` (Lemma 7.3).  :func:`loglog_slope` turns a
measured sweep into the exponent those claims predict.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError


def geometric_grid(start: float, stop: float, points: int) -> List[float]:
    """``points`` geometrically spaced values from *start* to *stop*."""
    if points < 2:
        raise ParameterError(f"points must be >= 2, got {points}")
    if start <= 0 or stop <= 0:
        raise ParameterError("geometric grids need positive endpoints")
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points)]


def geometric_int_grid(start: int, stop: int, points: int) -> List[int]:
    """Geometric grid of distinct integers (deduplicated, sorted).

    Guarantees at least two distinct values — a degenerate span
    (``start == stop``, or endpoints that round to the same integer)
    raises :class:`ParameterError` rather than collapsing to a single
    point, which would crash :func:`loglog_slope` downstream.
    """
    values = sorted({int(round(v)) for v in geometric_grid(start, stop, points)})
    if len(values) < 2:
        raise ParameterError(
            f"geometric int grid [{start}, {stop}] collapses to "
            f"{values}: need a span wide enough for >= 2 distinct "
            f"integers"
        )
    return values


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and intercept of ``log y`` against ``log x``.

    Returns ``(slope, intercept)``; a Theorem 1.2 sweep of samples against
    ``k`` should give slope ≈ −0.5.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ParameterError("need at least two matched (x, y) points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ParameterError("log-log fit needs positive data")
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def relative_spread(values: Sequence[float]) -> float:
    """``(max − min) / mean`` — a flatness diagnostic for "constant" claims."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ParameterError("need at least one value")
    mean = float(arr.mean())
    if mean == 0:
        raise ParameterError("relative spread undefined at zero mean")
    return float((arr.max() - arr.min()) / mean)
