"""Tests for the analytic cost surfaces and their family landscape contracts."""

import dataclasses
import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from dsekit.benchmarks import Family, synth_instance
from dsekit.pareto import pareto_filter
from dsekit.surrogate import (
    OBJECTIVE_MAX,
    OBJECTIVE_MIN,
    SurrogateModel,
    exhaustive_front,
)

from oracles import brute_force_pareto_indices, enumerate_points

# Backbone objectives span [1, 20] before family transforms; landscape
# thresholds below are stated relative to that log range.
BACKBONE_LOG_SPAN = math.log(20.0)
ENUMERABLE = 4096


def small(family, seed):
    return synth_instance(family, seed, "small")


def model_and_points(family, seed):
    inst = small(family, seed)
    model = SurrogateModel.from_instance(inst)
    pts = list(enumerate_points(model, inst.schema))
    return inst, model, pts


def scalarized(points):
    return np.array(
        [math.log(p.objectives.latency) + math.log(p.objectives.area) for p in points]
    )


def local_minima_indices(points, cards):
    """Indices of strict 1-knob-step local minima of log latency + log area."""
    index_of = {p.knobs: i for i, p in enumerate(points)}
    f = scalarized(points)
    minima = []
    for i, p in enumerate(points):
        k = p.knobs
        strict = True
        for d in range(len(cards)):
            for step in (-1, 1):
                v = k[d] + step
                if 0 <= v < cards[d] and f[index_of[k[:d] + (v,) + k[d + 1 :]]] <= f[i]:
                    strict = False
                    break
            if not strict:
                break
        if strict:
            minima.append(i)
    return minima


class TestEvaluation:
    def test_same_point_twice_identical(self):
        inst, model, _ = model_and_points(Family.RUGGED, 3)
        knobs = tuple(0 for _ in inst.schema.knobs)
        a = model.evaluate_knobs(knobs)
        b = model.evaluate_knobs(knobs)
        assert (a.area, a.latency) == (b.area, b.latency)

    def test_rebuilt_model_identical(self):
        inst = small(Family.CLUSTERED, 5)
        m1 = SurrogateModel.from_instance(inst)
        m2 = SurrogateModel.from_instance(inst)
        assert m1.latency_tables == m2.latency_tables
        assert m1.area_tables == m2.area_tables
        assert m1.trap_centers == m2.trap_centers
        assert m1.pocket_bands == m2.pocket_bands
        for knobs in inst.schema.iter_points():
            a, b = m1.evaluate_knobs(knobs), m2.evaluate_knobs(knobs)
            assert (a.area, a.latency) == (b.area, b.latency)
            break

    def test_objectives_within_bounds_all_families(self):
        for family in Family:
            inst, model, pts = model_and_points(family, 0)
            for p in pts[:: max(1, len(pts) // 200)]:
                assert OBJECTIVE_MIN <= p.objectives.latency <= OBJECTIVE_MAX
                assert OBJECTIVE_MIN <= p.objectives.area <= OBJECTIVE_MAX

    def test_rugged_noise_band(self):
        inst, model, pts = model_and_points(Family.RUGGED, 2)
        for p in pts[:: max(1, len(pts) // 100)]:
            backbone = math.exp(
                sum(tab[i] for tab, i in zip(model.latency_tables, p.knobs))
            )
            if OBJECTIVE_MIN < p.objectives.latency < OBJECTIVE_MAX:
                ratio = p.objectives.latency / backbone
                assert 0.7 <= ratio <= 1.3


class TestSmoothMonotonicity:
    def test_higher_unroll_never_slower_or_smaller(self):
        for seed in range(6):
            inst, model, _ = model_and_points(Family.SMOOTH, seed)
            cards = inst.schema.cardinalities
            unroll_axes = [
                i for i, k in enumerate(inst.schema.knobs) if k.kind == "unroll"
            ]
            rng = np.random.default_rng(seed)
            for _ in range(50):
                base = tuple(int(rng.integers(0, c)) for c in cards)
                for axis in unroll_axes:
                    if base[axis] + 1 >= cards[axis]:
                        continue
                    hi = base[:axis] + (base[axis] + 1,) + base[axis + 1 :]
                    lo_obj = model.evaluate_knobs(base)
                    hi_obj = model.evaluate_knobs(hi)
                    assert hi_obj.latency <= lo_obj.latency
                    assert hi_obj.area >= lo_obj.area


class TestExhaustiveFront:
    def test_matches_brute_force_oracle(self):
        inst, model, pts = model_and_points(Family.RUGGED, 1)
        front = exhaustive_front(model)
        knobs = [p.knobs for p in pts]
        objs = np.array([[p.objectives.area, p.objectives.latency] for p in pts])
        expected = brute_force_pareto_indices(objs, knobs)
        assert [p.knobs for p in front] == [knobs[i] for i in expected]

    def test_min_latency_point_matches_enumeration_argmin(self):
        found = None
        for family in Family:
            for seed in range(30):
                inst = small(family, seed)
                if inst.schema.space_size() == 256:
                    found = inst
                    break
            if found:
                break
        assert found is not None, "no 256-point instance among scanned seeds"
        model = SurrogateModel.from_instance(found)
        pts = list(enumerate_points(model, found.schema))
        best = min(pts, key=lambda p: (p.objectives.latency, p.objectives.area))
        front = exhaustive_front(model)
        tail = front[len(front) - 1]
        assert tail.objectives.latency == best.objectives.latency


@pytest.fixture(scope="module", params=[f for f in Family])
def family_sweep(request):
    """Twenty enumerable small instances per family with their point clouds."""
    family = request.param
    rows = []
    for seed in range(20):
        inst = small(family, seed)
        if inst.schema.space_size() > ENUMERABLE:
            continue
        model = SurrogateModel.from_instance(inst)
        pts = list(enumerate_points(model, inst.schema))
        rows.append((inst, model, pts))
    return family, rows


class TestFamilyLandscapeContracts:
    def test_sweep_has_enough_instances(self, family_sweep):
        _, rows = family_sweep
        assert len(rows) >= 15

    def test_contract(self, family_sweep):
        family, rows = family_sweep
        if family is Family.SMOOTH:
            on, total = 0, 0
            for inst, _, pts in rows:
                minima = local_minima_indices(pts, inst.schema.cardinalities)
                front = {p.knobs for p in pareto_filter(pts)}
                on += sum(pts[i].knobs in front for i in minima)
                total += len(minima)
            assert total > 0
            assert on / total >= 0.9
        elif family is Family.RUGGED:
            for inst, _, pts in rows:
                minima = local_minima_indices(pts, inst.schema.cardinalities)
                assert len(minima) >= 5
        elif family is Family.DECEPTIVE:
            for inst, _, pts in rows:
                minima = local_minima_indices(pts, inst.schema.cardinalities)
                front = {p.knobs for p in pareto_filter(pts)}
                off = sum(pts[i].knobs not in front for i in minima)
                assert off >= 3, inst.id
        elif family is Family.PLATEAU:
            for inst, _, pts in rows:
                cards = inst.schema.cardinalities
                index_of = {p.knobs: i for i, p in enumerate(pts)}
                shared = 0
                for i, p in enumerate(pts):
                    k = p.knobs
                    hit = False
                    for d in range(len(cards)):
                        for step in (-1, 1):
                            v = k[d] + step
                            if 0 <= v < cards[d]:
                                q = pts[index_of[k[:d] + (v,) + k[d + 1 :]]]
                                if (
                                    q.objectives.area == p.objectives.area
                                    and q.objectives.latency == p.objectives.latency
                                ):
                                    hit = True
                                    break
                        if hit:
                            break
                    shared += hit
                assert shared / len(pts) >= 0.3, inst.id
        elif family is Family.CLUSTERED:
            for inst, _, pts in rows:
                front = pareto_filter(pts)
                gap = 0.15 * BACKBONE_LOG_SPAN
                ordered = sorted(math.log(p.objectives.area) for p in front)
                splits = [
                    (a, b) for a, b in zip(ordered, ordered[1:]) if b - a > gap
                ]
                assert len(splits) >= 1, inst.id
                # each gap is dominated territory, not empty space: some
                # evaluated point lands inside it yet off the front
                front_knobs = {p.knobs for p in front}
                for lo, hi in splits:
                    inside = [
                        p
                        for p in pts
                        if lo < math.log(p.objectives.area) < hi
                        and p.knobs not in front_knobs
                    ]
                    assert inside, inst.id


class TestPlateauQuantization:
    def test_step_within_declared_range(self):
        for seed in range(10):
            inst = small(Family.PLATEAU, seed)
            model = SurrogateModel.from_instance(inst)
            assert BACKBONE_LOG_SPAN / 12 <= model.quant_step <= BACKBONE_LOG_SPAN / 3.5

    def test_other_families_skip_quantization(self):
        for family in (Family.SMOOTH, Family.RUGGED):
            model = SurrogateModel.from_instance(small(family, 0))
            assert model.quant_step == 0.0


def neumaier_sum(iterable, start=0):
    """Builtin sum as Python 3.12 computes it: exact on ints, and on floats a
    Neumaier-compensated sum, which need not equal the left fold of 3.11."""
    total, compensation, floats = start, 0.0, False
    for x in iterable:
        if not floats and type(x) is int and type(total) is int:
            total += x
            continue
        if not floats:
            total, floats = float(total), True
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if floats and compensation and math.isfinite(compensation):
        total += compensation
    return total


def synthesized(cases):
    """Each case's instance and the fields of its model, floats as their hex."""
    out = []
    for family, seed, size in cases:
        instance = synth_instance(family, seed, size)
        model = SurrogateModel.from_instance(instance)
        fields = repr(
            [getattr(model, f.name) for f in dataclasses.fields(model)]
        )
        out.append((instance, fields))
    return out


def test_outputs_do_not_depend_on_the_python_versions_builtin_sum(monkeypatch):
    """Python 3.12 made builtin sum compensated on floats. With it emulated in
    the two modules that synthesize instances and models, every instance and
    every model table stays as it is."""
    import dsekit.benchmarks
    import dsekit.surrogate

    cases = [(f, seed, size) for f in Family for seed in (0, 1, 2) for size in ("small", "medium")]
    expected = synthesized(cases)
    for module in (dsekit.benchmarks, dsekit.surrogate):
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    assert synthesized(cases) == expected


def test_the_emulated_sum_is_compensated_on_floats_and_exact_on_ints():
    assert neumaier_sum([0.1] * 10) == 1.0 != reduce(add, [0.1] * 10, 0)
    assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    assert neumaier_sum(range(10)) == 45 and type(neumaier_sum([1, 2])) is int
