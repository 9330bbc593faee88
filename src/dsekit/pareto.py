"""Two-objective Pareto primitives: dominance, the staircase, filtering, ADRS.

Every Pareto front is built by one `Staircase`, the only mutable type here:
`pareto_filter` fills one for a set of points, and each explorer's evaluator
grows one as it admits points. A finished `ParetoFront` is immutable and safe
to share across worker processes. Nothing here checks its input: the
surrogate clamps the objectives it computes to finite values >= 0, and
`dataset.load` checks the ones it reads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg
from typing import Iterable, Optional

import numpy as np

#: Denominator guard used for relative distances when a reference objective is 0.
ZERO_REFERENCE_EPS = 1e-9


@dataclass(frozen=True)
class ObjectiveVector:
    """An (area, latency) measurement; lower is better in both coordinates."""

    area: float
    latency: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.area, self.latency)


@dataclass(frozen=True)
class DesignPoint:
    """A vector of knob level indices, a tuple of Python ints, and its objectives."""

    knobs: tuple[int, ...]
    objectives: ObjectiveVector


def dominates(p: ObjectiveVector, q: ObjectiveVector) -> bool:
    """Weak Pareto dominance: p is no worse in both objectives, better in one."""
    return (
        p.area <= q.area
        and p.latency <= q.latency
        and (p.area < q.area or p.latency < q.latency)
    )


@dataclass(frozen=True)
class ParetoFront:
    """Mutually non-dominated points with distinct objectives, sorted by (area, latency).

    That is strictly increasing area alongside strictly decreasing latency, the
    order of the `Staircase` that built it, and not checked again here.
    """

    points: tuple[DesignPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def objective_array(self) -> np.ndarray:
        """Objectives as an (n, 2) array with columns (area, latency)."""
        return np.array([(p.objectives.area, p.objectives.latency) for p in self.points], dtype=float).reshape(
            len(self.points), 2
        )


class Staircase:
    """A Pareto front grown one point at a time by the 2-D maxima method of
    Kung, Luccio & Preparata (1975): `points`, a tuple that each admission
    replaces, with strictly rising `areas` and strictly falling `latencies`."""

    def __init__(self) -> None:
        self.points: tuple[DesignPoint, ...] = ()
        self.areas: list[float] = []
        self.latencies: list[float] = []

    def add(self, point: DesignPoint) -> Optional[tuple[DesignPoint, ...]]:
        """Admit the point unless the front dominates or equals it; returns
        the points it displaced, or None when it was not admitted.

        The only front point that can dominate or equal the new one is the
        last with area <= its area. The points the new one dominates are that
        point, when its area is equal, and the run after it with latency >= its
        latency; one slice replaces them. Equal objectives keep the smaller
        knob vector.
        """
        area, latency = point.objectives.area, point.objectives.latency
        areas, lats, points = self.areas, self.latencies, self.points
        i = bisect_right(areas, area)
        if i and lats[i - 1] <= latency:
            if areas[i - 1] != area or lats[i - 1] != latency or points[i - 1].knobs <= point.knobs:
                return None
        start = i - 1 if i and areas[i - 1] == area else i
        end = i
        while end < len(lats) and lats[end] >= latency:
            end += 1
        self.points = (*points[:start], point, *points[end:])
        areas[start:end] = [area]
        lats[start:end] = [latency]
        return points[start:end]

    def dominators(self, objectives: ObjectiveVector) -> int:
        """How many front points dominate the objectives.

        The points with area <= its area are a prefix, those with latency <=
        its latency a suffix, and every point in both dominates it except one
        with equal objectives.
        """
        area, latency = objectives.area, objectives.latency
        end = bisect_right(self.areas, area)
        start = bisect_left(self.latencies, -latency, key=neg)
        if end and self.areas[end - 1] == area and self.latencies[end - 1] == latency:
            end -= 1
        return max(0, end - start)


def pareto_filter(points: Iterable[DesignPoint]) -> ParetoFront:
    """Non-dominated subset of the points, in any order.

    Each distinct objective vector keeps a single representative (the
    lexicographically smallest knob vector); the result is sorted ascending
    by (area, latency).
    """
    front = Staircase()
    for p in points:
        front.add(p)
    return ParetoFront(front.points)


def adrs(reference: ParetoFront, approx: ParetoFront) -> float:
    """Average distance of reference-front points to an approximate front.

    The distance from a reference point r to an approximate point c is the
    worst-coordinate relative shortfall max(0, (c_a - r_a) / r_a, (c_l - r_l)
    / r_l), with ZERO_REFERENCE_EPS in place of a zero coordinate of r as the
    denominator. Each reference point takes its closest approximate point,
    and the mean over the reference front is returned. The result is 0
    exactly when every reference point is weakly dominated by some
    approximate point.
    """
    if len(reference) == 0 or len(approx) == 0:
        raise ValueError("degenerate ADRS input: reference and approx fronts must be non-empty")
    ref = reference.objective_array()
    app = approx.objective_array()
    denom = np.where(ref > 0.0, ref, ZERO_REFERENCE_EPS)
    # (R, A) shortfalls in area and latency, updated in place; worst ends as their maximum
    worst, latency = (np.subtract(app[:, k], ref[:, k, None]) for k in (0, 1))
    with np.errstate(over="ignore"):
        for k, rel in enumerate((worst, latency)):
            rel /= denom[:, k, None]
            np.maximum(rel, 0.0, out=rel)
    np.maximum(worst, latency, out=worst)
    return float(worst.min(axis=1).mean())
