"""Two-objective Pareto primitives: dominance, filtering, ADRS.

All functions are pure and value-based. Fronts are immutable once constructed
and safe to share across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Denominator guard used for relative distances when a reference objective is 0.
ZERO_REFERENCE_EPS = 1e-9


@dataclass(frozen=True)
class ObjectiveVector:
    """An (area, latency) measurement; lower is better in both coordinates."""

    area: float
    latency: float

    def __post_init__(self) -> None:
        for name in ("area", "latency"):
            raw = getattr(self, name)
            try:
                value = float(raw)
            except (TypeError, ValueError) as exc:
                raise TypeError(f"{name} must be a real number, got {raw!r}") from exc
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {raw!r}")
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {raw!r}")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float]:
        return (self.area, self.latency)


@dataclass(frozen=True)
class DesignPoint:
    """A vector of knob level indices, optionally carrying evaluated objectives."""

    knobs: tuple[int, ...]
    objectives: ObjectiveVector | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "knobs", tuple(int(k) for k in self.knobs))

    @property
    def evaluated(self) -> bool:
        return self.objectives is not None


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

    Construct through :func:`pareto_filter`; the constructor re-validates the
    ordering invariant, which for two objectives reduces to strictly
    increasing area alongside strictly decreasing latency.
    """

    points: tuple[DesignPoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        prev: ObjectiveVector | None = None
        for point in pts:
            if not point.evaluated:
                raise ValueError("Pareto front points must carry objectives")
            obj = point.objectives
            if prev is not None and not (obj.area > prev.area and obj.latency < prev.latency):
                raise ValueError(
                    "Pareto front must be strictly increasing in area and "
                    "strictly decreasing in latency"
                )
            prev = obj

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


def pareto_filter(points: Iterable[DesignPoint]) -> ParetoFront:
    """Non-dominated subset of evaluated points.

    Each distinct objective vector keeps a single representative (the
    lexicographically smallest knob vector); the result is sorted ascending
    by (area, latency).
    """
    pts = list(points)
    for p in pts:
        if not p.evaluated:
            raise ValueError(f"pareto_filter requires evaluated points; {p.knobs} has no objectives")
    pts.sort(key=lambda p: (p.objectives.area, p.objectives.latency, p.knobs))
    kept: list[DesignPoint] = []
    best_latency = math.inf
    last_objs: tuple[float, float] | None = None
    for p in pts:
        objs = (p.objectives.area, p.objectives.latency)
        if objs == last_objs:
            continue  # duplicate objectives; the first occurrence had the lowest knobs
        last_objs = objs
        if p.objectives.latency < best_latency:
            kept.append(p)
            best_latency = p.objectives.latency
    return ParetoFront(tuple(kept))


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
    with np.errstate(over="ignore"):
        rel = (app[None, :, :] - ref[:, None, :]) / denom[:, None, :]
    worst_coord = np.maximum(rel, 0.0).max(axis=2)
    return float(worst_coord.min(axis=1).mean())

