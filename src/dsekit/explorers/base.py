"""Shared explorer machinery: budgets, the counting evaluator, dispatch and scoring.

Every explorer spends its budget through one BudgetedEvaluator, which owns the
memo table (repeat proposals are free), the archive of evaluated points, and an
incrementally maintained archive front. The front is a staircase: parallel
lists of points, areas and latencies, updated by one binary search and one
slice assignment per admitted point, and two binary searches count the front
points that dominate given objectives. Its points tuple and its objective and
ADRS-denominator arrays are cached until it next changes. Once an explorer
first asks, the evaluator also keeps the sorted list of unevaluated points one
level from a front point on one knob, with a reference count per neighbour,
so that lattice reads it instead of rebuilding it.

A space no larger than the budget is not searched: every explorer's result
there is the model's true front, enumerated once per model, so an evaluator
assumes a space larger than its budget. The runners take `(evaluator, draws)`
and are listed in `algorithms.RUNNERS`, which `explore` loads on first use.

An explorer that keeps re-proposing evaluated points is stopped as stalled,
and `explore` spends the rest of its budget on unseen uniform points, so every
run ends for a stated reason after bounded work. `explore` is the one way to
run an explorer, in process or in a pool worker. Wall-clock time is modeled,
not measured: `explore` multiplies the evaluations by the explorer's nominal
per-evaluation cost, so reported times are deterministic and identical across
worker counts and machines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import IntEnum
from operator import neg
from typing import Optional

import numpy as np

from ..benchmarks import BenchmarkInstance, KnobSchema
from ..hashing import mix64
from ..pareto import ZERO_REFERENCE_EPS, DesignPoint, ObjectiveVector, ParetoFront, adrs, pareto_filter
from ..surrogate import SurrogateModel, exhaustive_front
from .draws import Draws


class ExplorerId(IntEnum):
    """Stable integer codes; these are the dataset's label space."""

    NSGA2 = 0
    SA = 1
    ACO = 2
    PSO = 3
    LATTICE = 4
    SBO = 5
    EDA = 6
    AC = 7
    PG = 8
    QLMOEA = 9


# Nominal per-evaluation cost in seconds. `explore` reports wall_seconds as
# evaluations_used times this rate: a deterministic model of runtime, chosen
# so that heavier machinery (surrogate refits, population bookkeeping) reads
# as slower without making results depend on the host machine.
NOMINAL_EVAL_SECONDS = {
    ExplorerId.NSGA2: 0.0021,
    ExplorerId.SA: 0.0008,
    ExplorerId.ACO: 0.0017,
    ExplorerId.PSO: 0.0013,
    ExplorerId.LATTICE: 0.0009,
    ExplorerId.SBO: 0.0046,
    ExplorerId.EDA: 0.0015,
    ExplorerId.AC: 0.0012,
    ExplorerId.PG: 0.0011,
    ExplorerId.QLMOEA: 0.0024,
}

# Spaces at most this large are scored against their exhaustively enumerated
# true front; larger ones against the union of the portfolio's fronts.
EXHAUSTIVE_REFERENCE_LIMIT = 4096

# A run stalls after this many consecutive repeat proposals. The longest
# streak in a run that still spent its budget was 3117 (ACO on
# plateau-small-0000, budget 500).
STALL_STREAK = 4096

_EXPLORE_TAG = 0xE59A
_FILL_TAG = 0xF111
_FILL_DRAWS = 64
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Budget:
    """Evaluation allowance for one explorer run."""

    max_evaluations: int

    def __post_init__(self) -> None:
        if not isinstance(self.max_evaluations, int) or self.max_evaluations < 1:
            raise ValueError(f"max_evaluations must be a positive integer, got {self.max_evaluations!r}")


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one explorer run on one benchmark: its archive front and what it spent.

    `stop_reason` is "budget" (the search spent it), "exhaustive_fallback"
    (the space was no larger than the budget and was enumerated) or
    "stalled" (the search stalled and at least one point was filled in).
    `proposals` counts the explorer's own proposals, repeats included.
    """

    explorer: ExplorerId
    front: ParetoFront
    evaluations_used: int
    wall_seconds: float
    stop_reason: str
    proposals: int


@dataclass(frozen=True)
class PortfolioResult:
    """All ten explorers on one benchmark: `adrs_values[i]` scores `results[i]`'s
    front against the benchmark's reference front, and `argmin` has the lowest
    (the lowest code on ties)."""

    results: tuple[ExplorationResult, ...]
    adrs_values: tuple[float, ...]
    argmin: ExplorerId


class BudgetSaturated(Exception):
    """Internal control flow: the evaluator will accept no more new points."""


class Stalled(BudgetSaturated):
    """The explorer's search is over before its budget: it only repeats itself."""


class BudgetedEvaluator:
    """Counting, memoizing gate between an explorer and the cost model.

    Raises BudgetSaturated instead of evaluating once the budget is spent;
    explorers treat that as their stop signal. The first evaluation is always
    admitted so a run can never end empty-handed.

    It raises Stalled, a BudgetSaturated, at the STALL_STREAK-th consecutive
    proposal of an already evaluated point, and at the max(2000, 250 x budget)-th
    proposal in all, the hard bound on a run's work. `fill_unseen` then spends
    what is left of the budget on unseen points without counting them as
    proposals, so `proposals` stays the explorer's own.
    """

    def __init__(self, model: SurrogateModel, schema: KnobSchema, budget: Budget) -> None:
        self._model = model
        self._schema = schema
        self._budget = budget
        self._memo: dict[tuple[int, ...], DesignPoint] = {}
        self._proposals = 0
        self._streak = 0
        self._proposal_cap = max(2000, 250 * budget.max_evaluations)
        self.evaluated: list[DesignPoint] = []
        # the front as a staircase: points with their areas and latencies
        self._front: list[DesignPoint] = []
        self._areas: list[float] = []
        self._lats: list[float] = []
        # caches of the front, dropped whenever it changes
        self._points: Optional[tuple[DesignPoint, ...]] = None
        self._arrays: Optional[tuple[np.ndarray, np.ndarray]] = None
        # neighbour reference counts and the sorted unseen ones, once asked for
        self._refs: Optional[dict[tuple[int, ...], int]] = None
        self._unseen: list[tuple[int, ...]] = []

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluated)

    @property
    def max_evaluations(self) -> int:
        return self._budget.max_evaluations

    @property
    def proposals(self) -> int:
        return self._proposals

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self._schema.cardinalities

    def seen(self, knobs: tuple[int, ...]) -> bool:
        return knobs in self._memo

    def saturated(self) -> bool:
        """Whether the budget is spent."""
        return self.evaluations_used >= self._budget.max_evaluations

    def evaluate(self, knobs: tuple[int, ...]) -> DesignPoint:
        self._proposals += 1
        hit = self._memo.get(knobs)
        if hit is not None:
            self._streak += 1
            if self._streak >= STALL_STREAK or self._proposals >= self._proposal_cap:
                raise Stalled
            return hit
        self._streak = 0
        if self.saturated():
            raise BudgetSaturated
        if self._proposals >= self._proposal_cap:
            raise Stalled
        return self._admit(knobs)

    def fill_unseen(self, draws: Draws) -> int:
        """Spend the rest of the budget on unseen points; returns how many.

        Each point is the first of up to 64 uniform draws that is unseen, or,
        when all 64 were seen, the first unseen point in `iter_points` order.
        """
        cards = self.cardinalities
        ordered = None
        filled = 0
        while not self.saturated():
            for _ in range(_FILL_DRAWS):
                knobs = draws.knobs(cards)
                if knobs not in self._memo:
                    break
            else:
                if ordered is None:
                    ordered = self._schema.iter_points()
                # every point passed over earlier is still seen
                knobs = next(k for k in ordered if k not in self._memo)
            self._admit(knobs)
            filled += 1
        return filled

    def _admit(self, knobs: tuple[int, ...]) -> DesignPoint:
        point = DesignPoint(knobs, self._model.evaluate_knobs(knobs))
        self._memo[knobs] = point
        self.evaluated.append(point)
        if self._refs is not None and knobs in self._refs:
            del self._unseen[bisect_left(self._unseen, knobs)]
        self._admit_to_front(point)
        return point

    def _admit_to_front(self, point: DesignPoint) -> None:
        """Staircase update of the front, whose areas strictly rise while its
        latencies strictly fall.

        The only front point that can dominate or equal the new one is the
        last with area <= its area. The points the new one dominates are that
        point, when its area is equal, and the run after it with latency >= its
        latency; one slice assignment replaces them. Equal objectives keep the
        smaller knob vector.
        """
        area, latency = point.objectives.area, point.objectives.latency
        areas, lats = self._areas, self._lats
        i = bisect_right(areas, area)
        if i and lats[i - 1] <= latency:
            equal = areas[i - 1] == area and lats[i - 1] == latency
            if not equal or self._front[i - 1].knobs <= point.knobs:
                return
        start = i - 1 if i and areas[i - 1] == area else i
        end = i
        while end < len(lats) and lats[end] >= latency:
            end += 1
        if self._refs is not None:
            for old in self._front[start:end]:
                self._track(old.knobs, -1)
            self._track(point.knobs, 1)
        self._front[start:end] = [point]
        areas[start:end] = [area]
        lats[start:end] = [latency]
        self._points = self._arrays = None

    def front_points(self) -> tuple[DesignPoint, ...]:
        """Current archive front, sorted by ascending area."""
        if self._points is None:
            self._points = tuple(self._front)
        return self._points

    def dominators(self, objectives: ObjectiveVector) -> int:
        """How many front points dominate the objectives.

        Two binary searches on the staircase: the points with area <= its
        area are a prefix, those with latency <= its latency a suffix, and
        every point in both dominates it except one with equal objectives.
        """
        area, latency = objectives.area, objectives.latency
        end = bisect_right(self._areas, area)
        start = bisect_left(self._lats, -latency, key=neg)
        if end and self._areas[end - 1] == area and self._lats[end - 1] == latency:
            end -= 1
        return max(0, end - start)

    def front_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The front's (n, 2) objectives, columns (area, latency), and their
        ADRS denominators: each objective, or ZERO_REFERENCE_EPS where it is 0."""
        if self._arrays is None:
            objs = np.array((self._areas, self._lats)).T
            self._arrays = (objs, np.where(objs > 0.0, objs, ZERO_REFERENCE_EPS))
        return self._arrays

    def unseen_neighbours(self) -> list[tuple[int, ...]]:
        """Sorted unevaluated points one level away from a front point on one knob.

        Tracked from the first call on; the list is the evaluator's own and
        changes as points are evaluated, so callers must not modify it.
        """
        if self._refs is None:
            self._refs = {}
            for point in self._front:
                self._track(point.knobs, 1)
        return self._unseen

    def _track(self, knobs: tuple[int, ...], delta: int) -> None:
        """Add (1) or drop (-1) one front point's neighbours from the counts."""
        refs, unseen = self._refs, self._unseen
        for axis, card in enumerate(self.cardinalities):
            level = knobs[axis]
            for moved in (level - 1, level + 1):
                if not 0 <= moved < card:
                    continue
                nbr = knobs[:axis] + (moved,) + knobs[axis + 1 :]
                before = refs.get(nbr, 0)
                if before + delta:
                    refs[nbr] = before + delta
                else:
                    del refs[nbr]
                if nbr in self._memo:
                    continue
                if not before:
                    insort(unseen, nbr)
                elif not before + delta:
                    del unseen[bisect_left(unseen, nbr)]


def explore(
    explorer: ExplorerId,
    instance: BenchmarkInstance,
    model: SurrogateModel,
    budget: Budget,
    seed: int,
) -> ExplorationResult:
    """Run one explorer on one benchmark under a budget, deterministically.

    When the whole design space fits inside the evaluation budget, any search
    would end by evaluating every point, so the result is the model's true
    front (`exhaustive_front`, enumerated once per model and shared) with
    every point of the space as both evaluations and proposals. Otherwise
    the explorer draws from a `Draws` stream over its seeded generator, which
    is closed when the search ends, leaving the generator where the same
    scalar calls on it would have. When the explorer stalls, the rest of its
    budget goes to unseen uniform points from a stream and generator of their
    own, so the explorer's generator is left as the search left it. A failure of the
    search is raised as a RuntimeError that names the explorer and the
    benchmark.
    """
    from .algorithms import RUNNERS  # algorithms imports this module

    explorer = ExplorerId(explorer)
    if model.cardinalities != instance.schema.cardinalities:
        raise ValueError("model does not match the instance's design space")
    space = instance.schema.space_size()
    if space <= budget.max_evaluations:
        return ExplorationResult(
            explorer=explorer,
            front=exhaustive_front(model),
            evaluations_used=space,
            wall_seconds=space * NOMINAL_EVAL_SECONDS[explorer],
            stop_reason="exhaustive_fallback",
            proposals=space,
        )
    evaluator = BudgetedEvaluator(model, instance.schema, budget)
    stop_reason = "budget"
    try:
        draws = Draws(
            np.random.default_rng(
                np.random.SeedSequence([_EXPLORE_TAG, explorer.value, seed & _SEED_MASK])
            )
        )
        try:
            RUNNERS[explorer](evaluator, draws)
        finally:
            draws.close()
    except Stalled:
        fill = Draws(
            np.random.default_rng(np.random.SeedSequence([_FILL_TAG, explorer.value, seed & _SEED_MASK]))
        )
        if evaluator.fill_unseen(fill):
            stop_reason = "stalled"
    except BudgetSaturated:
        pass
    except Exception as err:
        raise RuntimeError(f"explorer {explorer.name} failed on {instance.id}") from err
    return ExplorationResult(
        explorer=explorer,
        front=ParetoFront(evaluator.front_points()),
        evaluations_used=evaluator.evaluations_used,
        wall_seconds=evaluator.evaluations_used * NOMINAL_EVAL_SECONDS[explorer],
        stop_reason=stop_reason,
        proposals=evaluator.proposals,
    )


def portfolio_seed(master_seed: int, explorer: ExplorerId) -> int:
    """The per-explorer seed every portfolio run derives from its master seed."""
    return mix64(master_seed, explorer.value)


def score_results(
    instance: BenchmarkInstance,
    model: SurrogateModel,
    results: tuple[ExplorationResult, ...],
) -> PortfolioResult:
    """Score ten collected runs against one shared reference front.

    The reference is the exhaustively enumerated true front when the space is
    small enough, otherwise the non-dominated union of the ten runs' fronts,
    which equals that of everything they evaluated.
    """
    if instance.schema.space_size() <= EXHAUSTIVE_REFERENCE_LIMIT:
        reference = exhaustive_front(model)
    else:
        reference = pareto_filter(p for r in results for p in r.front.points)
    adrs_values = tuple(adrs(reference, r.front) for r in results)
    _, argmin = min(zip(adrs_values, (r.explorer for r in results)))
    return PortfolioResult(results, adrs_values, argmin)
