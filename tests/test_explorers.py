"""Tests for the explorer portfolio: budgets, determinism, and scoring."""

from __future__ import annotations

import itertools
import pickle
from functools import cached_property
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dsekit.benchmarks import Family, random_knobs, synth_instance
from dsekit.explorers import (
    EXHAUSTIVE_REFERENCE_LIMIT,
    Budget,
    BudgetedEvaluator,
    ExplorerId,
    explore,
    score_results,
)
from dsekit.dataset import run_suite
from dsekit.explorers import algorithms, base, draws as draws_module
from dsekit.explorers.algorithms import (
    _crowding,
    _dominated,
    _nondominated_ranks,
    _sample_cumulative,
    _row_sum,
    _softmax_rows,
    _step_tables,
    run_sbo,
)
from dsekit.explorers.base import (
    NOMINAL_EVAL_SECONDS,
    STALL_STREAK,
    BudgetSaturated,
    Stalled,
    portfolio_seed,
)
from dsekit.explorers.draws import Draws
from dsekit.pareto import (
    ZERO_REFERENCE_EPS,
    DesignPoint,
    ObjectiveVector,
    ParetoFront,
    adrs,
    pareto_filter,
)
from dsekit.surrogate import SurrogateModel, exhaustive_front

from oracles import (
    _loop_sample_categorical,
    assert_staircase,
    dominance_matrix,
    reference_admit_to_front,
    reference_crowding,
    reference_dominated,
    reference_nondominated_ranks,
    reference_run_aco,
    reference_run_eda,
    reference_run_lattice,
    reference_run_nsga2,
    reference_run_policy,
    reference_run_pso,
    reference_run_qlmoea,
    reference_run_sa,
    reference_run_sbo,
    softmax,
)

ALL_EXPLORERS = list(ExplorerId)

# (log-latency, log-area) pairs on a coarse grid, so ties and repeats are common
GRID_POINTS = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda t: (t[0] / 2, t[1] / 2))


class CountingModel:
    """Duck-typed wrapper that counts raw cost-model invocations."""

    # the model's enumeration, through this wrapper's evaluate_knobs
    true_front = cached_property(SurrogateModel.true_front.func)

    def __init__(self, inner: SurrogateModel) -> None:
        self.inner = inner
        self.calls = 0

    @property
    def cardinalities(self):
        return self.inner.cardinalities

    def evaluate_knobs(self, knobs):
        self.calls += 1
        return self.inner.evaluate_knobs(knobs)


class RecordingModel(CountingModel):
    """Counting wrapper that also records every evaluated point, in order.

    The evaluator calls the model once per new point, so `evaluated` is the
    run's archive in evaluation order.
    """

    def __init__(self, inner: SurrogateModel) -> None:
        super().__init__(inner)
        self.evaluated: list[DesignPoint] = []

    def evaluate_knobs(self, knobs):
        objectives = super().evaluate_knobs(knobs)
        self.evaluated.append(DesignPoint(knobs, objectives))
        return objectives


def streamed(runner):
    """A stream runner called as the generator routines in `oracles` are, with
    a schema and a generator, and as `explore` calls it: with a `Draws` over
    the generator, closed when the run ends."""

    def run(ev, schema, rng):
        draws = Draws(rng)
        try:
            runner(ev, draws)
        finally:
            draws.close()

    return run


def recorded_explore(explorer, instance, model, budget, seed):
    """`explore` through a RecordingModel: the result and its evaluated points."""
    recording = RecordingModel(model)
    return explore(explorer, instance, recording, budget, seed), recording.evaluated


@pytest.fixture(scope="module")
def small_case():
    instance = synth_instance(Family.SMOOTH, 3, "small")
    return instance, SurrogateModel.from_instance(instance)


@pytest.fixture(scope="module")
def medium_case():
    instance = synth_instance(Family.RUGGED, 1, "medium")
    return instance, SurrogateModel.from_instance(instance)


class TestBudget:
    def test_rejects_zero_evaluations(self):
        with pytest.raises(ValueError, match="positive integer"):
            Budget(0)

    def test_rejects_float_evaluations(self):
        with pytest.raises(ValueError, match="positive integer"):
            Budget(10.0)


class TestBudgetedEvaluator:
    def make(self, case, budget):
        instance, model = case
        return BudgetedEvaluator(model, instance.schema, budget)

    def test_repeat_proposals_are_free(self, small_case):
        ev = self.make(small_case, Budget(5))
        first = ev.evaluate((0, 0, 0, 0)[: len(small_case[0].schema.cardinalities)])
        again = ev.evaluate(first.knobs)
        assert again is first
        assert ev.evaluations_used == 1

    def test_budget_one_admits_exactly_one_point(self, small_case):
        ev = self.make(small_case, Budget(1))
        knobs = tuple(0 for _ in small_case[0].schema.cardinalities)
        ev.evaluate(knobs)
        with pytest.raises(BudgetSaturated):
            ev.evaluate(tuple(c - 1 for c in small_case[0].schema.cardinalities))
        assert ev.evaluations_used == 1

    def test_proposal_cap_breaks_repeat_loops(self, small_case):
        ev = self.make(small_case, Budget(1))
        knobs = tuple(0 for _ in small_case[0].schema.cardinalities)
        ev.evaluate(knobs)
        with pytest.raises(BudgetSaturated):
            for _ in range(2001):
                ev.evaluate(knobs)
        assert ev.evaluations_used == 1

    def test_incremental_front_matches_batch_filter(self, medium_case):
        result, evaluated = recorded_explore(ExplorerId.SA, *medium_case, Budget(200), seed=7)
        assert result.front == pareto_filter(evaluated)


class TestExplore:
    @pytest.mark.parametrize("explorer", ALL_EXPLORERS, ids=lambda e: e.name)
    def test_deterministic_given_seed(self, medium_case, explorer):
        a = explore(explorer, *medium_case, Budget(120), seed=11)
        b = explore(explorer, *medium_case, Budget(120), seed=11)
        assert a == b
        assert 1 <= a.evaluations_used <= 120

    @pytest.mark.parametrize("explorer", ALL_EXPLORERS, ids=lambda e: e.name)
    def test_front_is_filter_of_evaluated(self, medium_case, explorer):
        result, evaluated = recorded_explore(explorer, *medium_case, Budget(80), seed=3)
        assert result.front == pareto_filter(evaluated)
        assert result.wall_seconds == pytest.approx(
            result.evaluations_used * NOMINAL_EVAL_SECONDS[explorer]
        )

    def test_wall_clock_is_modeled_from_the_rate(self, medium_case, monkeypatch):
        def three_points_and_a_repeat(ev, draws):
            points = medium_case[0].schema.iter_points()
            first = next(points)
            for knobs in (first, next(points), next(points)):
                ev.evaluate(knobs)
            ev.evaluate(first)  # a memo hit costs nothing

        monkeypatch.setitem(algorithms.RUNNERS, ExplorerId.SA, three_points_and_a_repeat)
        result = explore(ExplorerId.SA, *medium_case, Budget(50), seed=0)
        assert (result.evaluations_used, result.proposals) == (3, 4)
        assert result.wall_seconds == 3 * NOMINAL_EVAL_SECONDS[ExplorerId.SA]

    def test_seed_changes_the_trajectory(self, medium_case):
        _, a = recorded_explore(ExplorerId.PSO, *medium_case, Budget(120), seed=1)
        _, b = recorded_explore(ExplorerId.PSO, *medium_case, Budget(120), seed=2)
        assert a != b

    def test_runners_has_one_entry_per_explorer(self):
        assert list(algorithms.RUNNERS) == list(ExplorerId)

    def test_unknown_explorer_rejected(self, small_case):
        with pytest.raises(ValueError):
            explore(42, *small_case, Budget(10), seed=0)

    def test_model_instance_mismatch_rejected(self, small_case, medium_case):
        instance, _ = small_case
        _, other_model = medium_case
        with pytest.raises(ValueError, match="does not match"):
            explore(ExplorerId.SA, instance, other_model, Budget(10), seed=0)

    def test_exhaustive_fallback_enumerates_small_spaces(self, small_case):
        instance, model = small_case
        size = instance.schema.space_size()
        result = explore(ExplorerId.ACO, instance, model, Budget(size), seed=0)
        assert result.evaluations_used == size
        assert result.front == exhaustive_front(model)

    def test_spent_budget_never_exceeds_the_cap(self, medium_case):
        instance, model = medium_case
        for explorer, cap in [
            (ExplorerId.NSGA2, 1),
            (ExplorerId.SBO, 7),
            (ExplorerId.LATTICE, 73),
            (ExplorerId.QLMOEA, 240),
        ]:
            counting = CountingModel(model)
            result = explore(explorer, instance, counting, Budget(cap), seed=5)
            assert 1 <= result.evaluations_used <= cap
            assert counting.calls == result.evaluations_used


def is_int_tuple(knobs) -> bool:
    return type(knobs) is tuple and all(type(k) is int for k in knobs)


class TestKnobTypes:
    """Points keep their knobs as given, so every producer must give a tuple of int."""

    @pytest.mark.parametrize("explorer", ALL_EXPLORERS, ids=lambda e: e.name)
    def test_each_search_evaluates_tuples_of_int(self, medium_case, explorer):
        result, evaluated = recorded_explore(explorer, *medium_case, Budget(60), seed=2)
        assert result.stop_reason == "budget"
        assert all(is_int_tuple(p.knobs) for p in evaluated)

    def test_the_stall_fill_evaluates_tuples_of_int(self):
        instance = synth_instance(Family.PLATEAU, 0, "small")
        model = SurrogateModel.from_instance(instance)
        seed = portfolio_seed(0, ExplorerId.EDA)
        result, evaluated = recorded_explore(ExplorerId.EDA, instance, model, Budget(500), seed)
        assert result.stop_reason == "stalled"
        assert all(is_int_tuple(p.knobs) for p in evaluated)

    def test_the_exhaustive_fallback_evaluates_tuples_of_int(self, small_case):
        instance, model = small_case
        budget = Budget(instance.schema.space_size())
        result, evaluated = recorded_explore(ExplorerId.PG, instance, model, budget, seed=0)
        assert result.stop_reason == "exhaustive_fallback"
        assert all(is_int_tuple(p.knobs) for p in evaluated)


class AlwaysZero:
    """Stream stand-in whose every uniform point is the all-zero point."""

    def knobs(self, cards):
        return tuple(0 for _ in cards)


class TestStall:
    def test_streak_of_repeats_raises_stalled_and_a_new_point_resets_it(self, small_case):
        instance, model = small_case
        # 250 x 40 proposals in all stay clear of the two streaks below
        ev = BudgetedEvaluator(model, instance.schema, Budget(40))
        first, second = itertools.islice(instance.schema.iter_points(), 2)
        point = ev.evaluate(first)
        for _ in range(STALL_STREAK - 1):
            assert ev.evaluate(first) is point
        ev.evaluate(second)
        for _ in range(STALL_STREAK - 1):
            ev.evaluate(first)
        with pytest.raises(Stalled):
            ev.evaluate(first)
        assert ev.proposals == 2 * STALL_STREAK + 1
        assert ev.evaluations_used == 2

    def test_one_point_forever_stalls_at_the_streak_and_fills_the_budget(
        self, medium_case, monkeypatch
    ):
        proposed = []

        def one_point_forever(ev, draws):
            knobs = draws.knobs(ev.cardinalities)
            while True:
                proposed.append(knobs)
                ev.evaluate(knobs)

        monkeypatch.setitem(algorithms.RUNNERS, ExplorerId.SA, one_point_forever)
        result, evaluated = recorded_explore(ExplorerId.SA, *medium_case, Budget(50), seed=0)
        assert len(proposed) == 1 + STALL_STREAK
        assert result.proposals == 1 + STALL_STREAK  # the fill proposes nothing
        assert result.stop_reason == "stalled"
        assert result.evaluations_used == 50
        assert evaluated[0].knobs == proposed[0]
        assert len({p.knobs for p in evaluated}) == 50
        assert result.front == pareto_filter(evaluated)

    def test_fill_leaves_the_explorer_generator_as_the_search_left_it(self, monkeypatch):
        instance = synth_instance(Family.PLATEAU, 0, "small")
        model = SurrogateModel.from_instance(instance)
        seed = portfolio_seed(0, ExplorerId.EDA)
        run_eda = algorithms.RUNNERS[ExplorerId.EDA]
        streams = []

        def recording(ev, draws):
            streams.append(draws)
            run_eda(ev, draws)

        monkeypatch.setitem(algorithms.RUNNERS, ExplorerId.EDA, recording)
        result, evaluated = recorded_explore(ExplorerId.EDA, instance, model, Budget(500), seed)
        assert result.stop_reason == "stalled"

        alone = BudgetedEvaluator(model, instance.schema, Budget(500))
        rng = np.random.default_rng(
            np.random.SeedSequence([base._EXPLORE_TAG, ExplorerId.EDA.value, seed])
        )
        with pytest.raises(Stalled):
            streamed(run_eda)(alone, instance.schema, rng)
        assert streams[0].generator().bit_generator.state == rng.bit_generator.state
        assert result.proposals == alone.proposals
        searched = len(alone.evaluated)
        assert searched < 500
        assert evaluated[:searched] == alone.evaluated

    def test_fill_enumerates_when_draws_keep_hitting_seen_points(self, small_case):
        instance, model = small_case
        ev = BudgetedEvaluator(model, instance.schema, Budget(4))
        first_four = list(itertools.islice(instance.schema.iter_points(), 4))
        ev.evaluate(first_four[0])
        assert ev.fill_unseen(AlwaysZero()) == 3
        assert [p.knobs for p in ev.evaluated] == first_four
        assert all(is_int_tuple(p.knobs) for p in ev.evaluated)
        assert ev.proposals == 1

    def test_a_spent_budget_is_not_filled(self, small_case):
        instance, model = small_case
        ev = BudgetedEvaluator(model, instance.schema, Budget(1))
        ev.evaluate(next(instance.schema.iter_points()))
        assert ev.fill_unseen(Draws(np.random.default_rng(0))) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(Family),
        instance_seed=st.integers(0, 7),
        size=st.sampled_from(["small", "medium", "large"]),
        explorer=st.sampled_from(ALL_EXPLORERS),
        budget=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    # two runs that stall, and a space of exactly the budget
    @example(Family.SMOOTH, 0, "small", ExplorerId.EDA, 300, 0)
    @example(Family.PLATEAU, 2, "small", ExplorerId.SA, 300, 0)
    @example(Family.DECEPTIVE, 4, "small", ExplorerId.PG, 300, 0)
    def test_every_run_spends_its_budget_within_bounded_proposals(
        self, family, instance_seed, size, explorer, budget, seed
    ):
        instance = synth_instance(family, instance_seed, size)
        model = SurrogateModel.from_instance(instance)
        space = instance.schema.space_size()
        result = explore(explorer, instance, model, Budget(budget), seed)
        assert result.evaluations_used == min(budget, space)
        assert result.proposals <= max(2000, 250 * budget)
        assert (result.stop_reason == "exhaustive_fallback") == (space <= budget)
        assert result.stop_reason in ("budget", "exhaustive_fallback", "stalled")


def scored_portfolio(instance, model, budget, master_seed):
    """All ten explorers with their portfolio seeds, scored against one reference."""
    results = tuple(
        explore(e, instance, model, budget, portfolio_seed(master_seed, e)) for e in ExplorerId
    )
    return score_results(instance, model, results)


class TestPortfolio:
    def test_saturating_budget_makes_every_explorer_exact(self, small_case):
        instance, model = small_case
        budget = Budget(instance.schema.space_size())
        portfolio = scored_portfolio(instance, model, budget, master_seed=0)
        assert all(v == 0.0 for v in portfolio.adrs_values)
        # ties on score resolve to the lowest explorer code
        assert portfolio.argmin is ExplorerId.NSGA2

    def test_small_space_reference_is_the_exhaustive_front(self, small_case):
        instance, model = small_case
        size = instance.schema.space_size()
        assert size <= EXHAUSTIVE_REFERENCE_LIMIT
        portfolio = scored_portfolio(instance, model, Budget(20), master_seed=0)
        reference = exhaustive_front(model)
        assert portfolio.adrs_values == tuple(adrs(reference, r.front) for r in portfolio.results)

    def test_large_space_reference_is_the_front_of_everything_evaluated(self, medium_case):
        instance, model = medium_case
        assert instance.schema.space_size() > EXHAUSTIVE_REFERENCE_LIMIT
        recording = RecordingModel(model)
        portfolio = scored_portfolio(instance, recording, Budget(60), master_seed=4)
        assert recording.calls == sum(r.evaluations_used for r in portfolio.results)
        reference = pareto_filter(recording.evaluated)
        assert portfolio.adrs_values == tuple(adrs(reference, r.front) for r in portfolio.results)

    def test_scores_are_nonnegative_and_argmin_wins(self, medium_case):
        instance, model = medium_case
        portfolio = scored_portfolio(instance, model, Budget(150), master_seed=9)
        values = portfolio.adrs_values
        assert len(values) == 10
        assert all(v >= 0.0 for v in values)
        assert values[portfolio.argmin.value] == min(values)

    def test_explorer_failures_carry_attribution(self, small_case, monkeypatch):
        def boom(ev, draws):
            raise RuntimeError("internal fault")

        monkeypatch.setitem(algorithms.RUNNERS, ExplorerId.SA, boom)
        instance, model = small_case
        message = f"explorer SA failed on {instance.id}"
        with pytest.raises(RuntimeError, match=message) as raised:
            explore(ExplorerId.SA, instance, model, Budget(3), seed=0)
        assert str(raised.value.__cause__) == "internal fault"
        # pool workers are forked, so they see the patched runner
        with pytest.raises(RuntimeError, match=message):
            run_suite([instance], 3, master_seed=0, workers=2)


class TestExhaustiveFallback:
    """A space that fits the budget is enumerated once per model and shared."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name)
    def test_every_explorer_gets_the_per_point_enumeration(self, family):
        instance = synth_instance(family, 0, "small")
        model = SurrogateModel.from_instance(instance)
        budget = Budget(instance.schema.space_size())
        ev = BudgetedEvaluator(model, instance.schema, budget)
        for knobs in instance.schema.iter_points():
            ev.evaluate(knobs)
        results = [explore(e, instance, model, budget, seed=3) for e in ExplorerId]
        for result in results:
            assert result.front == ParetoFront(ev.front.points)
            assert result.front is results[0].front
            assert (result.evaluations_used, result.proposals, result.stop_reason) == (
                ev.evaluations_used,
                ev.proposals,
                "exhaustive_fallback",
            )
            assert result.wall_seconds == ev.evaluations_used * NOMINAL_EVAL_SECONDS[result.explorer]

    def test_a_portfolio_and_its_scoring_enumerate_once(self, small_case):
        instance, model = small_case
        counting = CountingModel(model)
        space = instance.schema.space_size()
        portfolio = scored_portfolio(instance, counting, Budget(space), master_seed=0)
        assert counting.calls == space
        assert exhaustive_front(counting) is portfolio.results[0].front

    def test_a_pickled_model_leaves_its_front_behind(self):
        model = SurrogateModel.from_instance(synth_instance(Family.RUGGED, 2, "small"))
        size = len(pickle.dumps(model))
        front = exhaustive_front(model)
        assert len(pickle.dumps(model)) == size
        restored = pickle.loads(pickle.dumps(model))
        assert "true_front" not in vars(restored)
        assert exhaustive_front(restored) == front


class TestSurrogateExplorer:
    """The array-form SBO against its first, loop-form implementation."""

    @staticmethod
    def trajectory(runner, instance, budget):
        ev = BudgetedEvaluator(SurrogateModel.from_instance(instance), instance.schema, Budget(budget))
        rng = np.random.default_rng(11)
        with pytest.raises(BudgetSaturated):
            runner(ev, instance.schema, rng)
        return [p.knobs for p in ev.evaluated], rng.bit_generator.state

    @pytest.mark.parametrize(
        "family,size,budget",
        [
            pytest.param(Family.SMOOTH, "medium", 60, id="Family.SMOOTH-60"),
            pytest.param(Family.DECEPTIVE, "medium", 60, id="Family.DECEPTIVE-60"),
            pytest.param(Family.CLUSTERED, "medium", 60, id="Family.CLUSTERED-60"),
            pytest.param(Family.DECEPTIVE, "medium", 500, id="Family.DECEPTIVE-500"),
            pytest.param(Family.CLUSTERED, "medium", 500, id="Family.CLUSTERED-500"),
            pytest.param(Family.RUGGED, "medium", 500, id="Family.RUGGED-500"),
            # quantized objectives, so the front's logs tie
            pytest.param(Family.PLATEAU, "medium", 500, id="Family.PLATEAU-500"),
            # 9 447 840 points, codes near the 10 000 000 cap
            pytest.param(Family.RUGGED, "large", 60, id="Family.RUGGED-large-60"),
        ],
    )
    def test_evaluates_the_reference_sequence(self, family, size, budget):
        instance = synth_instance(family, 0, size)
        expected, expected_state = self.trajectory(reference_run_sbo, instance, budget)
        evaluated, state = self.trajectory(streamed(run_sbo), instance, budget)
        assert len(evaluated) == budget
        assert evaluated == expected
        assert state == expected_state

    def test_runs_out_of_candidates_like_the_reference(self):
        """On a 100-point space at budget 100 every pick and neighbour gets
        evaluated, and the empty-candidate branch draws the next point."""
        instance = synth_instance(Family.PLATEAU, 3, "small")
        assert instance.schema.space_size() == 100
        expected, expected_state = self.trajectory(reference_run_sbo, instance, 100)
        with mock.patch.object(algorithms, "_unseen_random", wraps=algorithms._unseen_random) as fallback:
            evaluated, state = self.trajectory(streamed(run_sbo), instance, 100)
        assert fallback.call_count > 10  # the first ten are the initial points
        assert len(evaluated) == 100
        assert evaluated == expected
        assert state == expected_state

    @staticmethod
    def brute_force_dominated(front: np.ndarray, draws: np.ndarray) -> np.ndarray:
        flat = draws.reshape(-1, 2)
        dom = dominance_matrix(np.concatenate([front, flat]))
        return dom[: len(front), len(front) :].any(axis=0).reshape(draws.shape[:-1])

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.lists(GRID_POINTS, min_size=1, max_size=8).flatmap(
            lambda points: st.tuples(
                # the logs of a front: area non-decreasing, latency non-increasing,
                # with ties in either column and repeated points
                st.just(list(zip(sorted((l for l, _ in points), reverse=True), sorted(a for _, a in points)))),
                st.integers(1, 4).flatmap(
                    lambda width: st.lists(
                        st.lists(
                            # coordinates on the front's own, so that latencies tie
                            st.tuples(
                                st.sampled_from([l for l, _ in points] + [0.25, 2.5]),
                                st.sampled_from([a for _, a in points] + [0.25, 2.5]),
                            ),
                            min_size=width,
                            max_size=width,
                        ),
                        min_size=1,
                        max_size=5,
                    )
                ),
            )
        )
    )
    @example(case=([(1.0, 1.0)], [[(1.0, 1.0), (1.0, 1.5), (0.5, 1.0), (1.5, 1.5)]]))
    @example(case=([(1.0, 0.5), (1.0, 0.5), (0.5, 1.0)], [[(1.0, 0.5), (1.0, 1.0)]]))
    @example(case=([(2.0, 1.0), (1.0, 1.0), (0.5, 2.0)], [[(1.5, 1.0), (1.0, 1.0), (0.5, 1.0)]]))
    # an infinite latency ties the +inf pad in front of the latency column
    @example(case=([(1.0, 1.0)], [[(np.inf, 0.5), (np.inf, 1.0)]]))
    def test_staircase_matches_pairwise_dominance(self, case):
        front, draws = case
        assert all(l0 >= l1 and a0 <= a1 for (l0, a0), (l1, a1) in zip(front, front[1:]))
        front_logs, draw_logs = np.array(front), np.array(draws)
        expected = self.brute_force_dominated(front_logs, draw_logs)
        assert np.array_equal(_dominated(front_logs, draw_logs), expected)
        assert np.array_equal(reference_dominated(front_logs, draw_logs), expected)

    @pytest.mark.parametrize(
        "cards",
        [(2, 3, 5), (1, 4), (7,), (1, 1, 1), (3, 2**33, 2), (2**40, 2**32 + 1, 9, 1)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_batched_draws_consume_the_generator_like_scalar_draws(self, cards, seed):
        def scalar(rng):
            return tuple(int(rng.integers(0, c)) for c in cards)

        loop, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_knobs(batched, cards) == scalar(loop)
        assert batched.bit_generator.state == loop.bit_generator.state
        rows = batched.integers(0, cards, size=(256, len(cards))).tolist()
        assert [tuple(row) for row in rows] == [scalar(loop) for _ in range(256)]
        assert batched.bit_generator.state == loop.bit_generator.state


class TableModel:
    """Cost-model stand-in returning objectives from a table the test fills."""

    def __init__(self, cardinalities) -> None:
        self.cardinalities = cardinalities
        self.table: dict[tuple[int, ...], ObjectiveVector] = {}

    def evaluate_knobs(self, knobs):
        return self.table[knobs]


def neighbours(knobs, cards):
    return {
        knobs[:axis] + (level,) + knobs[axis + 1 :]
        for axis in range(len(cards))
        for level in (knobs[axis] - 1, knobs[axis] + 1)
        if 0 <= level < cards[axis]
    }


# (space index, area, latency) admissions on a 0..4 grid, so equal
# objectives, ties in one objective and zero coordinates are common
ADMISSIONS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60
)


class TestArchiveFront:
    """The staircase front and its neighbourhood against brute force."""

    @staticmethod
    def admitting(small_case, admissions):
        """An evaluator over the small case's space; yields it after each new point."""
        instance, _ = small_case
        space = list(instance.schema.iter_points())
        model = TableModel(instance.schema.cardinalities)
        ev = BudgetedEvaluator(model, instance.schema, Budget(len(space)))
        for index, area, latency in admissions:
            knobs = space[index % len(space)]
            if ev.seen(knobs):
                continue
            model.table[knobs] = ObjectiveVector(area, latency)
            ev.evaluate(knobs)
            yield ev, ev.evaluated[-1]

    @settings(max_examples=200, deadline=None)
    @given(admissions=ADMISSIONS)
    @example(admissions=[(0, 1, 1), (1, 1, 1), (2, 1, 1)])
    @example(admissions=[(5, 1, 1), (3, 1, 1), (1, 2, 0), (0, 0, 2), (4, 1, 0)])
    @example(admissions=[(0, 2, 2), (1, 2, 1), (2, 1, 2), (3, 0, 3), (4, 3, 0), (5, 1, 1)])
    def test_admission_matches_the_full_scan(self, small_case, admissions):
        front: list = []
        for ev, point in self.admitting(small_case, admissions):
            front = reference_admit_to_front(front, point)
            assert ev.front.points == tuple(front)
            assert_staircase(front)
            objs, denom = ev.front_arrays()
            assert objs.tolist() == [[p.objectives.area, p.objectives.latency] for p in front]
            assert np.array_equal(denom, np.where(objs > 0.0, objs, ZERO_REFERENCE_EPS))
        assert ParetoFront(tuple(front)) == pareto_filter(ev.evaluated)

    @settings(max_examples=200, deadline=None)
    @given(admissions=ADMISSIONS, asked_after=st.integers(0, 60))
    @example(admissions=[(0, 1, 1), (1, 1, 1), (2, 1, 1)], asked_after=0)
    def test_unseen_neighbours_match_the_brute_force_set(self, small_case, admissions, asked_after):
        cards = small_case[0].schema.cardinalities
        for n, (ev, _) in enumerate(self.admitting(small_case, admissions)):
            if n < asked_after:
                continue
            near = {nbr for p in ev.front.points for nbr in neighbours(p.knobs, cards)}
            assert ev.unseen_neighbours() == sorted(near - {p.knobs for p in ev.evaluated})

    @settings(max_examples=300, deadline=None)
    @given(objs=st.lists(GRID_POINTS, max_size=40))
    @example(objs=[])
    @example(objs=[(1.0, 1.0), (1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.5)])
    def test_ranks_match_the_pairwise_count(self, objs):
        assert _nondominated_ranks(objs) == reference_nondominated_ranks(objs)

    @settings(max_examples=300, deadline=None)
    @given(
        objs=st.lists(
            st.one_of(GRID_POINTS, st.tuples(st.floats(0.1, 9.0), st.floats(0.1, 9.0))),
            max_size=40,
        ),
        small_ranks=st.lists(st.integers(0, 3), min_size=40, max_size=40),
    )
    @example(objs=[], small_ranks=[0] * 40)
    @example(objs=[(1.0, 1.0)] * 4 + [(0.5, 2.0), (2.0, 0.5)], small_ranks=[0, 1, 1, 2] * 10)
    def test_crowding_floats_equal_the_array_oracle(self, objs, small_ranks):
        """The real ranks, one shared rank, and a few small ranks whose
        members are often one or two points; grid points make ties common."""
        for ranks in (_nondominated_ranks(objs), [0] * len(objs), small_ranks[: len(objs)]):
            got = _crowding(objs, ranks)
            assert all(type(v) is float for v in got)
            assert np.array(got, dtype=float).tobytes() == reference_crowding(objs, ranks).tobytes()


# table entries on a coarse grid, so that ±0, ties and exact sums are common
ENTRY = st.one_of(
    st.just(0.0), st.just(-0.0), st.integers(-8, 8).map(lambda v: v / 4), st.floats(-50.0, 50.0)
)
TABLE_ROWS = st.lists(
    st.integers(2, 16).flatmap(lambda width: st.lists(ENTRY, min_size=width, max_size=width)),
    min_size=1,
    max_size=10,
)
# summands: signed zeros, subnormals and magnitudes far apart, small enough
# that no sum of a thousand of them overflows
SUMMAND = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-1e250, 1e250),
)


class FixedDraw:
    """Generator stand-in whose every uniform draw is u."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def numpy_step(row, probs, action, step):
    """One table row's REINFORCE step as the array form made it."""
    grad = -np.array(probs)
    grad[action] += 1.0
    grad *= step
    return np.array(row) + grad


class TestPolicyTables:
    """The Python-float table arithmetic against numpy's on the same values."""

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.one_of(
            st.lists(SUMMAND, min_size=2, max_size=16),
            st.lists(SUMMAND, min_size=17, max_size=1000),
        )
    )
    @example(xs=[-0.0, -0.0])
    @example(xs=[-0.0] * 9)
    @example(xs=[1e250, 1.0, -1e250, 1.0, 5e-324, -0.0, 3.0, 1e-300, -7.5])
    @example(xs=[0.1] * 136)
    def test_row_sum_is_numpys_add_reduce(self, xs):
        assert np.float64(_row_sum(xs)).tobytes() == np.add.reduce(np.array(xs)).tobytes()

    @pytest.mark.parametrize("width", range(2, 17))
    def test_row_sum_is_a_rows_sum_in_a_block(self, width):
        """The sum of one row of a 2-D block, as the array form took it."""
        rng = np.random.default_rng(width)
        block = rng.standard_normal((50, width)) * 10.0 ** rng.integers(-12, 12, size=(50, width))
        assert [_row_sum(row) for row in block.tolist()] == block.sum(axis=1).tolist()

    @settings(max_examples=300, deadline=None)
    @given(rows=TABLE_ROWS)
    @example(rows=[[0.0] * 5, [0.0] * 16, [1e-3 * i for i in range(9)], [0.0] * 5])
    @example(rows=[[0.0, -0.0, 0.0], [-0.0, -0.0]])
    def test_softmax_is_bit_equal_to_numpys_on_each_row(self, rows):
        probs, cums = _softmax_rows(rows)
        for row, p, cum in zip(rows, probs, cums):
            assert np.array(p).tobytes() == softmax(np.array(row)).tobytes()
            assert cum == list(accumulate(p))

    @settings(max_examples=300, deadline=None)
    @given(
        rows=TABLE_ROWS,
        steps=st.lists(
            st.tuples(st.sampled_from([0.0, -0.0, 0.5, -1.0, -0.25, 1e-17]), st.integers(0, 15)),
            min_size=1,
            max_size=8,
        ),
    )
    @example(rows=[[0.0, -0.0, 0.0], [-0.0, 1.0]], steps=[(-0.0, 0), (0.0, 1), (-1.0, 2), (-0.0, 0)])
    def test_table_steps_are_numpys_and_a_signed_zero_step_can_be_skipped(self, rows, steps):
        stepped = skipped = rows
        probs, _ = _softmax_rows(skipped)
        for advantage, action in steps:
            actions = tuple(action % len(row) for row in rows)
            step = 0.05 * advantage
            before = stepped
            stepped = _step_tables(stepped, _softmax_rows(stepped)[0], actions, step)
            for old, new, p, a in zip(before, stepped, _softmax_rows(before)[0], actions):
                assert np.array(new).tobytes() == numpy_step(old, p, a, step).tobytes()
            if advantage != 0.0:
                skipped = _step_tables(skipped, probs, actions, step)
                probs, _ = _softmax_rows(skipped)
            assert _softmax_rows(stepped)[0] == probs


class TestSampler:
    @settings(max_examples=500, deadline=None)
    @given(
        probs=st.lists(
            st.one_of(st.just(0.0), st.sampled_from([0.1, 0.25, 0.5]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        ),
        pick=st.integers(0, 11),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(probs=[0.1, 0.2, 0.3, 0.4], pick=0, u=0.0)
    @example(probs=[0.0, 0.0, 0.5, 0.0, 0.25], pick=2, u=0.5)
    @example(probs=[0.1] * 10, pick=0, u=0.9999999999999999)
    def test_running_sums_pick_what_the_loop_picks(self, probs, pick, u):
        cum = list(accumulate(probs))
        # a draw equal to a running sum, and a free one that may reach past
        # every sum: ten 0.1s sum to 0.9999999999999999, not 1
        for draw in (cum[pick % len(cum)], u):
            assert _sample_cumulative(FixedDraw(draw).random, cum) == _loop_sample_categorical(
                FixedDraw(draw), probs
            )

    @settings(max_examples=100, deadline=None)
    @given(probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), seed=st.integers(0, 2**32))
    def test_takes_one_uniform_draw(self, probs, seed):
        rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        cum = list(accumulate(probs))
        assert [_sample_cumulative(rng.random, cum) for _ in range(20)] == [
            _loop_sample_categorical(loop, probs) for _ in range(20)
        ]
        assert rng.bit_generator.state == loop.bit_generator.state


# bounds for integers(n): no draw at 1, powers of two, the explorers' population
# and knob sizes, and bounds near 2**32 where Lemire's rejection is frequent
BOUNDS = [1, 2, 3, 7, 40, 80, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]
DRAW_CALLS = st.lists(
    st.one_of(
        st.just(("random", None)),
        st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
        st.tuples(st.just("permutation"), st.integers(0, 13)),
        st.tuples(st.just("knobs"), st.lists(st.integers(1, 16), min_size=1, max_size=8).map(tuple)),
    ),
    max_size=60,
)


def generator_call(rng, name, arg):
    """What the stream's call is exact for, made on the generator."""
    if name == "random":
        return rng.random()
    if name == "integers":
        return int(rng.integers(arg))
    if name == "permutation":
        return rng.permutation(arg).tolist()
    return random_knobs(rng, arg)


class TestDraws:
    """The stream against the same scalar calls on a seeded generator."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        calls=DRAW_CALLS,
        block=st.sampled_from([1, 2, 3, 37, 512]),
        buffered=st.booleans(),
    )
    @example(seed=0, calls=[("integers", 3 * 2**30)] * 40, block=3, buffered=True)
    @example(seed=1, calls=[("integers", 2**31 + 1), ("random", None)] * 20, block=2, buffered=False)
    @example(seed=2, calls=[("integers", 1), ("integers", 2**32), ("permutation", 1)], block=1, buffered=True)
    def test_values_and_final_state_equal_the_generator_calls(self, seed, calls, block, buffered):
        expected, streamed_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # start with half of a word in PCG64's 32-bit buffer
            expected.integers(5)
            streamed_rng.integers(5)
        with mock.patch.object(draws_module, "_BLOCK", block):
            draws = Draws(streamed_rng)
            for name, arg in calls:
                assert getattr(draws, name)(*(() if arg is None else (arg,))) == generator_call(
                    expected, name, arg
                )
            draws.close()
        assert streamed_rng.bit_generator.state == expected.bit_generator.state

    def test_lemire_rejection_is_reached(self):
        """At n = 3 * 2**30 a quarter of the 32-bit draws are rejected, so 200
        draws take more than 200 of them."""
        with mock.patch.object(Draws, "_uint32", autospec=True, side_effect=Draws._uint32) as uint32:
            draws = Draws(np.random.default_rng(5))
            for _ in range(200):
                draws.integers(3 * 2**30)
        assert uint32.call_count > 220

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
    def test_integers_refuses_a_bound_outside_one_to_two_to_the_32(self, n):
        with pytest.raises(ValueError, match="1 <= n <= 2"):
            Draws(np.random.default_rng(0)).integers(n)

    def test_generator_is_synced_and_the_stream_then_refuses_to_draw(self):
        expected, rng = np.random.default_rng(9), np.random.default_rng(9)
        draws = Draws(rng)
        assert [draws.integers(40), draws.random()] == [int(expected.integers(40)), expected.random()]
        handed = draws.generator()
        assert handed is rng and rng.bit_generator.state == expected.bit_generator.state
        assert handed.integers(0, 9, size=4).tolist() == expected.integers(0, 9, size=4).tolist()
        with pytest.raises(RuntimeError, match="handed over"):
            draws.integers(40)
        with pytest.raises(RuntimeError, match="handed over"):
            draws.random()
        draws.close()  # no effect once handed over
        assert rng.bit_generator.state == expected.bit_generator.state


# explorer -> (library runner on the stream, the generator routine it replaced)
REPLACED = {
    "lattice": (algorithms.run_lattice, reference_run_lattice),
    "ac": (algorithms.RUNNERS[ExplorerId.AC], lambda ev, schema, rng: reference_run_policy(ev, schema, rng, True)),
    "pg": (algorithms.RUNNERS[ExplorerId.PG], lambda ev, schema, rng: reference_run_policy(ev, schema, rng, False)),
    "aco": (algorithms.run_aco, reference_run_aco),
    "eda": (algorithms.run_eda, reference_run_eda),
    "pso": (algorithms.run_pso, reference_run_pso),
    "nsga2": (algorithms.run_nsga2, reference_run_nsga2),
    "qlmoea": (algorithms.run_qlmoea, reference_run_qlmoea),
    "sa": (algorithms.run_sa, reference_run_sa),
}


class TestSharedFrontRunners:
    """Runners on the shared front state and the draw stream against the
    routines they replaced: the same evaluated sequence, and the generator
    left in the same state.

    Plateau small at budget 500 saturates the memo: AC and PG stall there,
    and ACO and QLMOEA make tens of thousands of repeat proposals. Deceptive
    small is the small suite's other searched benchmark.
    """

    @pytest.mark.parametrize("budget", [60, 500])
    @pytest.mark.parametrize(
        "family,size",
        [
            (Family.SMOOTH, "medium"),
            (Family.DECEPTIVE, "medium"),
            (Family.CLUSTERED, "medium"),
            (Family.PLATEAU, "small"),
            (Family.DECEPTIVE, "small"),
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    @pytest.mark.parametrize("explorer", sorted(REPLACED))
    def test_evaluates_the_reference_sequence(self, explorer, family, size, budget):
        instance = synth_instance(family, 0, size)
        runner, reference = REPLACED[explorer]
        expected = TestSurrogateExplorer.trajectory(reference, instance, budget)
        assert TestSurrogateExplorer.trajectory(streamed(runner), instance, budget) == expected
