"""Deterministic analytic cost surfaces standing in for slow synthesis tools.

Latency and area are products of per-knob response factors scaled into a
bounded range, with a family-specific transform layered on top: multiplicative
noise (RUGGED), basin traps (DECEPTIVE), objective quantization (PLATEAU), or
favored area bands (CLUSTERED). Evaluation is pure: (family, seed, schema)
fully determines the surface, and any per-point randomness comes from a
counter-based hash of (seed, knob vector) rather than stateful RNG draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import add

import numpy as np

from .benchmarks import BenchmarkInstance, Family, random_knobs
from .hashing import hash_unit, mix64
from .pareto import DesignPoint, ObjectiveVector, ParetoFront, pareto_filter

OBJECTIVE_MIN = 0.01
OBJECTIVE_MAX = 100.0

_LOG_SPAN = math.log(20.0)
_MODEL_TAG = 0x60DE
_NOISE_TAG = 0x7A11
_KIND_LATENCY_WEIGHT = {"unroll": 1.3, "pipeline": 1.0, "partition": 0.6}
_KIND_AREA_WEIGHT = {"unroll": 1.1, "pipeline": 0.7, "partition": 1.3}


@dataclass(frozen=True, eq=False)
class SurrogateModel:
    """Closed-form quality-of-results model for one benchmark instance."""

    family: Family
    seed: int
    cardinalities: tuple[int, ...]
    latency_tables: tuple[tuple[float, ...], ...]
    area_tables: tuple[tuple[float, ...], ...]
    noise_seed: int
    trap_centers: tuple[tuple[int, ...], ...] = ()
    trap_radius: float = 0.0
    trap_lat_dip: float = 0.0
    trap_area_dip: float = 0.0
    quant_step: float = 0.0
    pocket_bands: tuple[tuple[float, float], ...] = ()
    pocket_latency: tuple[float, ...] = ()
    outside_penalty: float = 1.0

    def __getstate__(self) -> dict:
        """The fields alone: a model sent to a pool worker leaves its
        enumerated front behind, and the worker enumerates its own."""
        state = dict(self.__dict__)
        state.pop("true_front", None)
        return state

    @cached_property
    def true_front(self) -> ParetoFront:
        """The true Pareto front, by enumeration of the whole design space in
        lexicographic order; enumerated on first use and kept."""
        space = product(*(range(card) for card in self.cardinalities))
        return pareto_filter(DesignPoint(k, self.evaluate_knobs(k)) for k in space)

    @classmethod
    def from_instance(cls, instance: BenchmarkInstance) -> "SurrogateModel":
        """Derive the full cost surface from (family, seed, schema)."""
        family, seed = instance.family, instance.seed
        schema = instance.schema
        rng = np.random.default_rng(np.random.SeedSequence([_MODEL_TAG, family.value, seed]))
        positions = [_level_positions(k.levels) for k in schema.knobs]
        # SMOOTH keeps the backbone close to coordinate-convex: near-uniform
        # knob weights and linear area response leave single-knob sweeps
        # monotone, so hill climbing from anywhere reaches the front.
        w_lo, w_hi = (0.8, 1.2) if family is Family.SMOOTH else (0.5, 1.5)
        lat_w, area_w, lat_tabs, area_tabs = [], [], [], []
        for knob, pos in zip(schema.knobs, positions):
            lat_w.append(rng.uniform(w_lo, w_hi) * _KIND_LATENCY_WEIGHT[knob.kind])
            area_w.append(rng.uniform(w_lo, w_hi) * _KIND_AREA_WEIGHT[knob.kind])
            gamma = 1.0 if family is Family.SMOOTH else rng.uniform(1.0, 1.5)
            lat_tabs.append([1.0 - u for u in pos])
            area_tabs.append([u**gamma for u in pos])
        # left folds from int 0: builtin sum compensates its rounding from Python 3.12 on
        lat_total, area_total = reduce(add, lat_w, 0), reduce(add, area_w, 0)
        latency_tables = tuple(
            tuple(_LOG_SPAN * (w / lat_total) * v for v in tab) for w, tab in zip(lat_w, lat_tabs)
        )
        area_tables = tuple(
            tuple(_LOG_SPAN * (w / area_total) * v for v in tab) for w, tab in zip(area_w, area_tabs)
        )
        cards = schema.cardinalities
        extras: dict = {}
        if family is Family.DECEPTIVE:
            steps = [1.0 / (len(cards) * (c - 1)) for c in cards]
            radius = float(np.median(steps)) * float(rng.uniform(1.1, 1.6))
            radius = min(max(radius, 0.05), 0.30)
            centers, strength = _basin_layout(
                rng, cards, latency_tables, area_tables, radius
            )
            extras["trap_centers"] = centers
            extras["trap_radius"] = radius
            extras["trap_lat_dip"] = 0.55 * strength
            extras["trap_area_dip"] = 0.45 * strength
        elif family is Family.PLATEAU:
            # Match the grid to this instance's own single-step objective
            # deltas, otherwise coarse knob grids never land two neighbors in
            # the same cell and no plateaus form.
            deltas = [
                abs(tab[i + 1] - tab[i])
                for tab in latency_tables + area_tables
                for i in range(len(tab) - 1)
            ]
            step = 3.0 * float(np.median(deltas)) * float(rng.uniform(0.9, 1.25))
            extras["quant_step"] = min(max(step, _LOG_SPAN / 12), _LOG_SPAN / 3.5)
        elif family is Family.CLUSTERED:
            n_pockets = 3 if rng.uniform() < 0.35 else 2
            width = float(rng.uniform(0.040, 0.050) if n_pockets == 3 else rng.uniform(0.055, 0.075))
            centers = _separated_centers(rng, n_pockets, width)
            extras["pocket_bands"] = tuple((c - width, c + width) for c in centers)
            extras["pocket_latency"] = tuple(float(rng.uniform(0.45, 0.60)) for _ in range(n_pockets))
            extras["outside_penalty"] = 2.0
        return cls(
            family=family,
            seed=seed,
            cardinalities=cards,
            latency_tables=latency_tables,
            area_tables=area_tables,
            noise_seed=mix64(_NOISE_TAG, family.value, seed),
            **extras,
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate_knobs(self, knobs: tuple[int, ...]) -> ObjectiveVector:
        """Objectives for one knob-index tuple; pure and bit-reproducible.

        The tuple is not checked: callers pass points of the model's own
        design space, and `dataset.load` checks every point it reads.
        """
        lat_log = 0.0
        area_log = 0.0
        for tab_l, tab_a, idx in zip(self.latency_tables, self.area_tables, knobs):
            lat_log += tab_l[idx]
            area_log += tab_a[idx]
        family = self.family
        if family is Family.PLATEAU:
            step = self.quant_step
            lat_log = round(lat_log / step) * step
            area_log = round(area_log / step) * step
            latency = math.exp(lat_log)
            area = math.exp(area_log)
        else:
            latency = math.exp(lat_log)
            area = math.exp(area_log)
            if family is Family.RUGGED:
                latency *= 0.7 + 0.6 * hash_unit(self.noise_seed, 0, *knobs)
                area *= 0.7 + 0.6 * hash_unit(self.noise_seed, 1, *knobs)
            elif family is Family.DECEPTIVE:
                pull = self._trap_pull(knobs)
                if pull > 0.0:
                    latency *= math.exp(-self.trap_lat_dip * pull)
                    area *= math.exp(-self.trap_area_dip * pull)
            elif family is Family.CLUSTERED:
                band = self._band_of(area_log / _LOG_SPAN)
                if band >= 0:
                    latency *= self.pocket_latency[band]
                else:
                    latency *= self.outside_penalty
                    area *= self.outside_penalty
        latency = min(max(latency, OBJECTIVE_MIN), OBJECTIVE_MAX)
        area = min(max(area, OBJECTIVE_MIN), OBJECTIVE_MAX)
        return ObjectiveVector(area=area, latency=latency)

    def _trap_pull(self, knobs: tuple[int, ...]) -> float:
        pull = 0.0
        for center in self.trap_centers:
            d = _mean_index_distance(knobs, center, self.cardinalities)
            if d < self.trap_radius:
                proximity = 1.0 - d / self.trap_radius
                pull = max(pull, proximity * proximity)
        return pull

    def _band_of(self, area_unit: float) -> int:
        for j, (lo, hi) in enumerate(self.pocket_bands):
            if lo <= area_unit <= hi:
                return j
        return -1


def _level_positions(levels: tuple[int, ...]) -> list[float]:
    """Normalized positions of knob levels in [0, 1], log-spaced when possible."""
    if levels[0] > 0:
        lo, hi = math.log(levels[0]), math.log(levels[-1])
        return [(math.log(v) - lo) / (hi - lo) for v in levels]
    span = levels[-1] - levels[0]
    return [(v - levels[0]) / span for v in levels]


def _mean_index_distance(
    knobs: tuple[int, ...], center: tuple[int, ...], cards: tuple[int, ...]
) -> float:
    """Mean per-knob normalized index distance in [0, 1]."""
    total = 0.0
    for x, c, card in zip(knobs, center, cards):
        total += abs(x - c) / (card - 1)
    return total / len(knobs)


_TRAP_COUNT = 6
_TRAP_MIN_STRENGTH = 0.15
_TRAP_MAX_STRENGTH = 1.2
_TRAP_LAT_SHARE = 0.55


def _basin_layout(
    rng: np.random.Generator,
    cards: tuple[int, ...],
    latency_tables: tuple[tuple[float, ...], ...],
    area_tables: tuple[tuple[float, ...], ...],
    radius: float,
) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Choose trap centers and a shared basin strength for them.

    A useful trap must attract 1-knob-step local search (every neighbor's
    scalarized log cost sits above the dipped center) yet never reach the
    true front (some sampled point still dominates the center after its dip,
    and dips elsewhere only strengthen that dominator). Because the dip is an
    exponential offset, the scalarized cost is linear in the strength, so
    each candidate center yields an exact interval [needed, capacity] of
    workable strengths; the shared strength is the value covering the most
    candidates, favouring deeper basins on ties.
    """
    k = len(cards)

    def logs(kn: tuple[int, ...]) -> tuple[float, float]:
        # left folds from int 0, not builtin sum (compensated from Python 3.12 on)
        return (
            reduce(add, (tab[i] for tab, i in zip(latency_tables, kn)), 0),
            reduce(add, (tab[i] for tab, i in zip(area_tables, kn)), 0),
        )

    pool = sorted({random_knobs(rng, cards) for _ in range(150)})
    pool_logs = [logs(p) for p in pool]

    def needed_strength(center: tuple[int, ...], base: tuple[float, float]) -> float:
        """Smallest strength making every 1-step neighbor ≥ 0.04 above."""
        f_center = base[0] + base[1]
        worst = _TRAP_MIN_STRENGTH
        for d in range(k):
            dist = 1.0 / (cards[d] - 1) / k
            pull = (1.0 - dist / radius) ** 2 if dist < radius else 0.0
            for step in (-1, 1):
                v = center[d] + step
                if not 0 <= v < cards[d]:
                    continue
                neighbor = center[:d] + (v,) + center[d + 1 :]
                slack = reduce(add, logs(neighbor), 0) - f_center - 0.04
                if slack < 0.0:
                    worst = max(worst, -slack / (1.0 - pull))
        return worst

    def capacity(mine: tuple[float, float]) -> float:
        """Largest strength keeping some sampled point dominant over the dip."""
        best = -math.inf
        for other in pool_logs:
            d_lat = mine[0] - other[0]
            d_area = mine[1] - other[1]
            if d_lat > 0.0 and d_area > 0.0:
                best = max(
                    best,
                    min(d_lat / _TRAP_LAT_SHARE, d_area / (1.0 - _TRAP_LAT_SHARE)),
                )
        return best - 0.08

    needed = [needed_strength(pool[i], pool_logs[i]) for i in range(len(pool))]
    caps = [min(capacity(pool_logs[i]), _TRAP_MAX_STRENGTH) for i in range(len(pool))]
    feasible = [i for i in range(len(pool)) if needed[i] <= caps[i]]
    if not feasible:
        return (), _TRAP_MIN_STRENGTH
    best_strength, best_count = _TRAP_MIN_STRENGTH, 0
    for t in sorted({needed[i] for i in feasible} | {caps[i] for i in feasible}, reverse=True):
        n = sum(1 for i in feasible if needed[i] <= t <= caps[i])
        if n > best_count:
            best_strength, best_count = t, n
    strength = best_strength
    order = sorted(
        (i for i in feasible if needed[i] <= strength <= caps[i]),
        key=lambda i: (-caps[i], pool[i]),
    )
    step_max = max(1.0 / (c - 1) / k for c in cards)
    chosen: list[tuple[int, ...]] = []
    for separation in (1.4 * radius + step_max, 1.02 * (radius + step_max)):
        for i in order:
            if len(chosen) == _TRAP_COUNT:
                return tuple(chosen), strength
            c = pool[i]
            if c in chosen:
                continue
            if all(_mean_index_distance(c, prev, cards) >= separation for prev in chosen):
                chosen.append(c)
    return tuple(chosen), strength


def _separated_centers(rng: np.random.Generator, count: int, width: float) -> tuple[float, ...]:
    """Band centers on the unit area axis with guaranteed pairwise clearance.

    Keeping bands apart (and away from the sparse high-area tail) is what
    makes the resulting front clusters distinct, so reject draws until the
    spacing holds and fall back to an even layout if the draw budget runs out.
    """
    min_gap = 2.0 * width + (0.18 if count == 3 else 0.24)
    for _ in range(200):
        centers = np.sort(rng.uniform(0.14, 0.72, size=count))
        if count == 1 or np.diff(centers).min() >= min_gap:
            return tuple(float(c) for c in centers)
    return tuple(float(c) for c in np.linspace(0.16, 0.66, count))


def exhaustive_front(model: SurrogateModel) -> ParetoFront:
    """True Pareto front by full enumeration of the model's design space.

    The model keeps it, so the space is enumerated once per model object: the
    exhaustive fallback of all ten explorers, the scoring of their runs and
    `infer`'s reference share one enumeration.
    """
    return model.true_front
