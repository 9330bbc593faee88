"""Shared explorer machinery: budgets, the counting evaluator, and dispatch.

Every explorer spends its budget through one BudgetedEvaluator, which owns the
memo table (repeat proposals are free), the archive of evaluated points, and an
incrementally maintained archive front. An explorer that keeps re-proposing
evaluated points is stopped as stalled, and `explore` spends the rest of its
budget on unseen uniform points, so every run ends for a stated reason after
bounded work. Wall-clock time is modeled, not measured: each explorer has a
nominal per-evaluation cost, so reported times are deterministic and
identical across worker counts and machines.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from ..benchmarks import BenchmarkInstance, KnobSchema, random_knobs
from ..hashing import mix64
from ..pareto import DesignPoint, ParetoFront, adrs, dominates, pareto_filter
from ..surrogate import SurrogateModel, exhaustive_front


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


# Nominal per-evaluation cost in seconds. Reported wall_seconds is
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
    """Outcome of one explorer run on one benchmark.

    `stop_reason` is "budget" (the search spent it), "exhaustive_fallback"
    (the space was no larger than the budget and was enumerated) or
    "stalled" (the search stalled and at least one point was filled in).
    `proposals` counts the explorer's own proposals, repeats included.
    """

    explorer: ExplorerId
    benchmark_id: str
    evaluated: tuple[DesignPoint, ...]
    front: ParetoFront
    evaluations_used: int
    wall_seconds: float
    stop_reason: str
    proposals: int
    adrs: Optional[float] = None


@dataclass(frozen=True)
class PortfolioResult:
    """All ten explorers on one benchmark, scored against one reference."""

    results: tuple[ExplorationResult, ...]
    reference: ParetoFront
    argmin: ExplorerId

    @property
    def adrs_values(self) -> tuple[float, ...]:
        return tuple(r.adrs for r in self.results)


class BudgetSaturated(Exception):
    """Internal control flow: the evaluator will accept no more new points."""


class Stalled(BudgetSaturated):
    """The explorer's search is over before its budget: it only repeats itself."""


class BudgetedEvaluator:
    """Counting, memoizing gate between an explorer and the cost model.

    Raises BudgetSaturated instead of evaluating once the budget (or the whole
    design space) is spent; explorers treat that as their stop signal. The
    first evaluation is always admitted so a run can never end empty-handed.

    It raises Stalled, a BudgetSaturated, at the STALL_STREAK-th consecutive
    proposal of an already evaluated point, and at the max(2000, 250 x budget)-th
    proposal in all, the hard bound on a run's work. `fill_unseen` then spends
    what is left of the budget on unseen points without counting them as
    proposals, so `proposals` stays the explorer's own.
    """

    def __init__(
        self,
        model: SurrogateModel,
        schema: KnobSchema,
        budget: Budget,
        seconds_per_eval: float,
    ) -> None:
        self._model = model
        self._schema = schema
        self._budget = budget
        self._rate = seconds_per_eval
        self._space = schema.space_size()
        self._memo: dict[tuple[int, ...], DesignPoint] = {}
        self._proposals = 0
        self._streak = 0
        self._proposal_cap = max(2000, 250 * budget.max_evaluations)
        self.evaluated: list[DesignPoint] = []
        self._front: list[DesignPoint] = []

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
    def wall_seconds(self) -> float:
        return self.evaluations_used * self._rate

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self._schema.cardinalities

    def seen(self, knobs: tuple[int, ...]) -> bool:
        return knobs in self._memo

    def saturated(self) -> bool:
        """Whether the budget or the whole design space is spent."""
        return (
            self.evaluations_used >= self._budget.max_evaluations
            or len(self._memo) >= self._space
        )

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

    def fill_unseen(self, rng: np.random.Generator) -> int:
        """Spend the rest of the budget on unseen points; returns how many.

        Each point is the first of up to 64 uniform draws that is unseen, or,
        when all 64 were seen, the first unseen point in `iter_points` order.
        """
        cards = self._schema.cardinalities
        ordered = None
        filled = 0
        while not self.saturated():
            for _ in range(_FILL_DRAWS):
                knobs = random_knobs(rng, cards)
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
        self._admit_to_front(point)
        return point

    def front_points(self) -> tuple[DesignPoint, ...]:
        """Current archive front, sorted by ascending area."""
        return tuple(self._front)

    def _admit_to_front(self, point: DesignPoint) -> None:
        obj = point.objectives
        for old in self._front:
            o = old.objectives
            if dominates(o, obj):
                return
            if o.area == obj.area and o.latency == obj.latency:
                if old.knobs <= point.knobs:
                    return
                self._front.remove(old)
                break
        self._front = [old for old in self._front if not dominates(obj, old.objectives)]
        self._front.append(point)
        self._front.sort(key=lambda p: (p.objectives.area, p.objectives.latency))


Runner = Callable[[BudgetedEvaluator, KnobSchema, np.random.Generator], None]
_RUNNERS: dict[ExplorerId, Runner] = {}


def register(explorer: ExplorerId) -> Callable[[Runner], Runner]:
    def wrap(fn: Runner) -> Runner:
        _RUNNERS[explorer] = fn
        return fn

    return wrap


def _ensure_runners() -> None:
    if not _RUNNERS:
        importlib.import_module(".algorithms", __package__)


def explore(
    explorer: ExplorerId,
    instance: BenchmarkInstance,
    model: SurrogateModel,
    budget: Budget,
    seed: int,
) -> ExplorationResult:
    """Run one explorer on one benchmark under a budget, deterministically.

    When the whole design space fits inside the evaluation budget, the space
    is simply enumerated; any search would be wasted motion there. When the
    explorer stalls, the rest of its budget goes to unseen uniform points from
    a generator of their own, so the explorer's generator is left as the
    search left it.
    """
    _ensure_runners()
    explorer = ExplorerId(explorer)
    if model.cardinalities != instance.schema.cardinalities:
        raise ValueError("model does not match the instance's design space")
    evaluator = BudgetedEvaluator(
        model, instance.schema, budget, NOMINAL_EVAL_SECONDS[explorer]
    )
    stop_reason = "budget"
    try:
        if instance.schema.space_size() <= budget.max_evaluations:
            stop_reason = "exhaustive_fallback"
            for knobs in instance.schema.iter_points():
                evaluator.evaluate(knobs)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([_EXPLORE_TAG, explorer.value, seed & _SEED_MASK])
            )
            _RUNNERS[explorer](evaluator, instance.schema, rng)
    except Stalled:
        fill_rng = np.random.default_rng(
            np.random.SeedSequence([_FILL_TAG, explorer.value, seed & _SEED_MASK])
        )
        if evaluator.fill_unseen(fill_rng):
            stop_reason = "stalled"
    except BudgetSaturated:
        pass
    return ExplorationResult(
        explorer=explorer,
        benchmark_id=instance.id,
        evaluated=tuple(evaluator.evaluated),
        front=ParetoFront(evaluator.front_points()),
        evaluations_used=evaluator.evaluations_used,
        wall_seconds=evaluator.wall_seconds,
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
        reference = exhaustive_front(model, instance.schema, EXHAUSTIVE_REFERENCE_LIMIT)
    else:
        reference = pareto_filter(p for r in results for p in r.front.points)
    scored = tuple(replace(r, adrs=adrs(reference, r.front)) for r in results)
    best = min(scored, key=lambda r: (r.adrs, r.explorer.value))
    return PortfolioResult(results=scored, reference=reference, argmin=best.explorer)


def run_portfolio(
    instance: BenchmarkInstance,
    model: SurrogateModel,
    budget: Budget,
    master_seed: int,
) -> PortfolioResult:
    """All ten explorers with derived seeds, scored against one reference."""
    results = []
    for explorer in ExplorerId:
        try:
            results.append(
                explore(explorer, instance, model, budget, portfolio_seed(master_seed, explorer))
            )
        except Exception as err:
            raise RuntimeError(f"explorer {explorer.name} failed on {instance.id}") from err
    return score_results(instance, model, tuple(results))
