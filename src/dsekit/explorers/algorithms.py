"""The ten explorer algorithms, listed in `RUNNERS`.

Each runner(ev, draws) drives a BudgetedEvaluator, whose `cardinalities` are
its space, until it raises BudgetSaturated; that exception is the uniform stop
signal, so none of the loops below carry their own termination logic beyond
it. A runner that re-proposes evaluated points 4096 times in a row (or makes
max(2000, 250 x budget) proposals in all) is stopped by its subclass Stalled,
and `explore` fills the rest of the budget with unseen uniform points from a
stream of its own. All randomness of the search flows through the `Draws`
stream, which is what makes a run reproducible from its seed. Its scalar
draws equal the seeded generator's `random()`, `integers(n)` and
`permutation(k)` calls; SBO, whose draws are mostly vectors, takes the
generator itself from it.

The runners read the evaluator's shared front state rather than rebuilding
it: AC and PG take the cached front objective arrays for their rewards, ACO
the count of each point's dominators from two binary searches on the
evaluator's `pareto.Staircase`, SBO and PSO its points tuple, and lattice the
sorted list of the front's unseen neighbours.

AC, PG, ACO, NSGA2 and QLMOEA keep their state in Python floats, updated
with the IEEE operations numpy made on the arrays they replaced, in the same
order, so every run is bit-equal to the array form. `_row_sum` is numpy's
pairwise row sum; the policy softmax keeps numpy's `exp`, one call per step,
and AC and PG score a new point against the front arrays. Builtin `sum` is
not used on floats: Python 3.12 made it compensated.

Every categorical draw is one uniform `random()` draw placed by binary search
in the distribution's left-to-right running sums, which gives the index a
linear scan for the first sum above the draw would. A distribution that
serves several draws (ACO's ants, EDA's samples, PSO's leaders, a policy row
between updates) has its sums built once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial, reduce
from itertools import accumulate, chain
from operator import add
from typing import Callable

import numpy as np

from ..benchmarks import random_knobs
from ..pareto import DesignPoint, dominates
from .base import BudgetedEvaluator, ExplorerId
from .draws import Draws

_POP = 40


# -- shared helpers -----------------------------------------------------------


def _unseen_random(ev: BudgetedEvaluator, draw: Callable[[], tuple[int, ...]]) -> tuple[int, ...]:
    """The first unseen of up to 65 uniform points from draw(), or the last."""
    knobs = draw()
    for _ in range(64):
        if not ev.seen(knobs):
            break
        knobs = draw()
    return knobs


def _pairwise_sum(xs: list[float]) -> float:
    """numpy's pairwise summation of at least 8 floats, operation for operation.

    Up to 128 values: eight running sums, one per position mod 8, over the
    longest prefix whose length is a multiple of 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then a left fold of
    the rest. Longer lists are split near the middle, at a multiple of 8.
    """
    n = len(xs)
    if n <= 128:
        m = n - n % 8
        r = xs[:8]
        for i in range(8, m, 8):
            r = [a + b for a, b in zip(r, xs[i : i + 8])]
        r0, r1, r2, r3, r4, r5, r6, r7 = r
        return reduce(add, xs[m:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _row_sum(xs: list[float]) -> float:
    """`np.add.reduce` of the floats, bit for bit: 0.0 plus their pairwise sum,
    which below 8 values is a left fold. Builtin `sum` is not this: from
    Python 3.12 on it compensates its rounding."""
    if len(xs) < 8:
        return reduce(add, xs, 0.0)
    return 0.0 + _pairwise_sum(xs)


def _sample_cumulative(uniform: Callable[[], float], cum: list[float]) -> int:
    """Draw from the distribution whose running sums are cum, list(accumulate(probs)).

    The first index whose sum exceeds the draw uniform() in [0, 1), or the
    last index when rounding leaves every sum at or below it.
    """
    return min(bisect_right(cum, uniform()), len(cum) - 1)


def _log_objectives(point: DesignPoint) -> tuple[float, float]:
    return math.log(point.objectives.latency), math.log(point.objectives.area)


def _nondominated_ranks(objs: list[tuple[float, float]]) -> list[int]:
    """Non-dominated sorting ranks (0 = best front) in O(n log n).

    Points are placed in (area, latency) order, so none is dominated by a
    later one (Jensen 2003). Within a rank the last placed point has the
    least latency, and the (latency, area) keys of those last points rise
    with the rank. A point is dominated by some member of a rank exactly when
    that rank's key is below its own, so its rank is a binary search.
    """
    ranks = [0] * len(objs)
    keys: list[tuple[float, float]] = []
    for i in sorted(range(len(objs)), key=objs.__getitem__):
        area, latency = objs[i]
        rank = bisect_left(keys, (latency, area))
        if rank == len(keys):
            keys.append((latency, area))
        else:
            keys[rank] = (latency, area)
        ranks[i] = rank
    return ranks


def _crowding(objs: list[tuple[float, float]], ranks: list[int]) -> list[float]:
    """Each point's crowding distance within its rank, as Python floats.

    The ends of a rank, and every member of a rank of one or two points, are
    infinitely far from their neighbours. A rank's members are sorted by each
    objective's column, ties by position.
    """
    dist = [0.0] * len(objs)
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(i)
    columns = ([o[0] for o in objs], [o[1] for o in objs])
    for members in by_rank.values():
        if len(members) <= 2:
            for i in members:
                dist[i] = math.inf
            continue
        for column in columns:
            order = sorted(members, key=column.__getitem__)
            first, last = order[0], order[-1]
            dist[first] = dist[last] = math.inf
            span = column[last] - column[first]
            if span <= 0:
                continue
            for a, b, c in zip(order, order[1:], order[2:]):
                dist[b] += (column[c] - column[a]) / span
    return dist


def _objectives(pop: list[DesignPoint]) -> list[tuple[float, float]]:
    return [(p.objectives.area, p.objectives.latency) for p in pop]


def _tournament_keys(objs: list[tuple[float, float]], ranks: list[int]) -> list[tuple[int, float]]:
    """Each point's (rank, -crowding) key: a lower key wins a tournament."""
    return [(r, -c) for r, c in zip(ranks, _crowding(objs, ranks))]


def _tournament(draws: Draws, keys: list[tuple[int, float]]) -> int:
    i, j = draws.integers(len(keys)), draws.integers(len(keys))
    if keys[i] <= keys[j]:
        return i
    return j


def _seed_population(
    ev: BudgetedEvaluator, draws: Draws, cards: tuple[int, ...], size: int
) -> list[DesignPoint]:
    draw = partial(draws.knobs, cards)
    return [ev.evaluate(_unseen_random(ev, draw)) for _ in range(size)]


def _survivors(
    pop: list[DesignPoint], objs: list[tuple[float, float]], size: int
) -> tuple[list[DesignPoint], list[tuple[float, float]], list[int]]:
    """The best `size` points by tournament key, with their objectives and ranks.

    The survivors are whole ranks and part of the next, and every point that
    dominates a survivor has a lower rank, so it survives too: the ranks among
    the survivors are the ranks among all the points.
    """
    ranks = _nondominated_ranks(objs)
    keys = _tournament_keys(objs, ranks)
    order = sorted(range(len(pop)), key=keys.__getitem__)[:size]
    return [pop[i] for i in order], [objs[i] for i in order], [ranks[i] for i in order]


# -- evolutionary explorers ---------------------------------------------------


def run_nsga2(ev: BudgetedEvaluator, draws: Draws) -> None:
    cards = ev.cardinalities
    k = len(cards)
    rate = 1.0 / k
    random, integers = draws.random, draws.integers
    pop = _seed_population(ev, draws, cards, _POP)
    objs = _objectives(pop)
    ranks = _nondominated_ranks(objs)
    while True:
        keys = _tournament_keys(objs, ranks)
        kids: list[DesignPoint] = []
        while len(kids) < _POP:
            pa = pop[_tournament(draws, keys)].knobs
            pb = pop[_tournament(draws, keys)].knobs
            if random() < 0.9:
                mask = [random() < 0.5 for _ in range(k)]
                ca = tuple([a if m else b for m, a, b in zip(mask, pa, pb)])
                cb = tuple([b if m else a for m, a, b in zip(mask, pa, pb)])
            else:
                ca, cb = pa, pb
            for child in (ca, cb):
                mutated = tuple([integers(c) if random() < rate else x for c, x in zip(cards, child)])
                kids.append(ev.evaluate(mutated))
                if len(kids) == _POP:
                    break
        pop, objs, ranks = _survivors(pop + kids, objs + _objectives(kids), _POP)


def run_qlmoea(ev: BudgetedEvaluator, draws: Draws) -> None:
    """NSGA2 skeleton with a Q-learned choice of variation operator.

    The Q rows are Python floats: `row.index(max(row))` is numpy's argmax,
    the first index of the largest value.
    """
    cards = ev.cardinalities
    k = len(cards)
    q: dict[tuple[int, int], list[float]] = {}
    pop = _seed_population(ev, draws, cards, _POP)
    objs = _objectives(pop)
    ranks = _nondominated_ranks(objs)
    prev_front = len(ev.front.points)
    growth_sign = 1

    def state() -> tuple[int, int]:
        return (min(9, 10 * ev.evaluations_used // ev.max_evaluations), growth_sign)

    def q_row(s: tuple[int, int]) -> list[float]:
        return q.setdefault(s, [0.0] * 4)

    while True:
        row = q_row(state())
        if draws.random() < 0.1:
            op = draws.integers(4)
        else:
            op = row.index(max(row))
        keys = _tournament_keys(objs, ranks)
        kids: list[DesignPoint] = []
        try:
            while len(kids) < _POP:
                if op == 0:
                    pa = pop[_tournament(draws, keys)].knobs
                    pb = pop[_tournament(draws, keys)].knobs
                    child = tuple([a if draws.random() < 0.5 else b for a, b in zip(pa, pb)])
                elif op in (1, 2):
                    child = list(pop[_tournament(draws, keys)].knobs)
                    for axis in draws.permutation(k)[: min(op, k)]:
                        child[axis] = draws.integers(cards[axis])
                    child = tuple(child)
                else:
                    child = draws.knobs(cards)
                kids.append(ev.evaluate(child))
        finally:
            # learn from the partial generation too, then let saturation rise
            now_front = len(ev.front.points)
            reward = max(-1.0, min(1.0, (now_front - prev_front) / max(1, prev_front)))
            growth_sign = 1 + (now_front > prev_front) - (now_front < prev_front)
            prev_front = now_front
            row[op] += 0.1 * (reward + 0.9 * max(q_row(state())) - row[op])
        pop, objs, ranks = _survivors(pop + kids, objs + _objectives(kids), _POP)


# -- trajectory explorers -----------------------------------------------------


def run_sa(ev: BudgetedEvaluator, draws: Draws) -> None:
    cards = ev.cardinalities
    k = len(cards)
    current = ev.evaluate(draws.knobs(cards))
    temperature = 1.0
    weight = draws.random()
    step = 0
    while True:
        if step and step % 50 == 0:
            weight = draws.random()
        axis = draws.integers(k)
        move = 1 if draws.random() < 0.5 else -1
        level = current.knobs[axis] + move
        if not 0 <= level < cards[axis]:
            level = current.knobs[axis] - move
        proposal = current.knobs[:axis] + (level,) + current.knobs[axis + 1 :]
        candidate = ev.evaluate(proposal)
        lat_c, area_c = _log_objectives(current)
        lat_n, area_n = _log_objectives(candidate)
        delta = weight * (lat_n - lat_c) + (1.0 - weight) * (area_n - area_c)
        if delta <= 0 or draws.random() < math.exp(-delta / temperature):
            current = candidate
        temperature *= 0.995
        step += 1


def run_lattice(ev: BudgetedEvaluator, draws: Draws) -> None:
    cards = ev.cardinalities
    draw = partial(draws.knobs, cards)
    ev.evaluate(draw())
    while True:
        if draws.random() < 0.15:
            ev.evaluate(_unseen_random(ev, draw))
            continue
        fresh = ev.unseen_neighbours()
        if fresh:
            ev.evaluate(fresh[draws.integers(len(fresh))])
        else:
            ev.evaluate(_unseen_random(ev, draw))


# -- swarm explorers ----------------------------------------------------------


def run_aco(ev: BudgetedEvaluator, draws: Draws) -> None:
    """Ant colony search over one pheromone list per knob, Python floats
    updated as numpy updated the arrays: normalised by their `_row_sum`,
    decayed, deposited on in batch order and clipped as
    `min(hi, max(lo, x))`."""
    cards = ev.cardinalities
    pheromone = [[1.0] * c for c in cards]
    random = draws.random
    while True:
        cums = []
        for tau in pheromone:
            total = _row_sum(tau)
            cums.append(list(accumulate([t / total for t in tau])))
        batch = [ev.evaluate(tuple([_sample_cumulative(random, cum) for cum in cums])) for _ in range(20)]
        pheromone = [[t * 0.9 for t in tau] for tau in pheromone]
        for point in batch:
            deposit = 1.0 / (1.0 + ev.front.dominators(point.objectives))
            for axis, level in enumerate(point.knobs):
                pheromone[axis][level] += deposit
        pheromone = [[min(20.0, max(0.05, t)) for t in tau] for tau in pheromone]


def run_pso(ev: BudgetedEvaluator, draws: Draws) -> None:
    """Discrete particle swarm (Kennedy & Eberhart 1995) over rounded positions.

    A particle's k coordinates are Python floats updated with the operations,
    in the order, that numpy made on the k-element rows, so every value is
    bit-equal to the array form. The clips take the bound first,
    `min(hi, max(lo, x))`, which is numpy's clip down to the sign of a zero,
    and `round` is half-to-even in both.
    """
    cards = ev.cardinalities
    n = 30
    random = draws.random
    hi = [c - 1.0 for c in cards]
    # uniform(0, 1) is 0.0 + 1.0 * random(), that is random() itself
    pos = [[random() * h for h in hi] for _ in range(n)]
    vel = [[0.0] * len(cards) for _ in range(n)]
    best = [ev.evaluate(tuple([round(x) for x in row])) for row in pos]
    while True:
        front = ev.front.points
        objs = [(p.objectives.area, p.objectives.latency) for p in front]
        crowd = np.array(_crowding(objs, [0] * len(front)))
        finite = crowd[np.isfinite(crowd)]
        cap = (finite.max() if finite.size else 0.0) * 2.0 + 1.0
        weights = np.where(np.isfinite(crowd), crowd, cap) + 1e-9
        cum = list(accumulate((weights / weights.sum()).tolist()))
        for i in range(n):
            target = front[_sample_cumulative(random, cum)].knobs
            r1 = [random() for _ in hi]
            r2 = [random() for _ in hi]
            vel[i] = [
                min(h, max(-h, 0.7 * v + 1.5 * a * (own - x) + 1.5 * b * (t - x)))
                for v, a, b, own, t, x, h in zip(vel[i], r1, r2, best[i].knobs, target, pos[i], hi)
            ]
            pos[i] = [min(h, max(0.0, x + v)) for x, v, h in zip(pos[i], vel[i], hi)]
            point = ev.evaluate(tuple([round(x) for x in pos[i]]))
            if dominates(point.objectives, best[i].objectives):
                best[i] = point
            elif not dominates(best[i].objectives, point.objectives) and random() < 0.5:
                best[i] = point


# -- model-guided explorers ---------------------------------------------------


def _design(cards: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The quadratic-surrogate row builder for one space, its constants built once.

    A row of an (n, k) level array is a one-hot block per knob, the pairwise
    products of the levels scaled to [0, 1], and a trailing 1 for the
    intercept.
    """
    offsets = np.cumsum((0,) + cards[:-1])
    a, b = np.triu_indices(len(cards), 1)
    onehot = sum(cards)
    width = onehot + len(a) + 1
    denom = np.array(cards) - 1

    def rows(levels: np.ndarray) -> np.ndarray:
        n = len(levels)
        x = np.zeros((n, width))
        x.reshape(-1)[np.arange(0, n * width, width)[:, None] + offsets + levels] = 1.0
        t = levels / denom
        x[:, onehot:-1] = t[:, a] * t[:, b]
        x[:, -1] = 1.0
        return x

    return rows


def _level_array(rows: list[tuple[int, ...]], k: int) -> np.ndarray:
    """The (n, k) int64 array of n knob tuples of length k."""
    return np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * k).reshape(len(rows), k)


def _dominated(front_logs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Mask of the draws (..., 2) that some point of a staircase front dominates.

    Columns are (log-latency, log-area) throughout, and the front's rows run
    by non-decreasing log-area and non-increasing log-latency, as the logs of
    `Staircase.points` do. Exact 2-D staircase test (Kung, Luccio & Preparata
    1975): the last front point with area <= a draw's area has the least
    latency among them, its bound. A draw (l, a) is dominated iff the bound is
    below l, or the bound equals l and some point with area < a has latency
    <= l, which on a staircase is latency == l; only those ties take a second
    search.
    """
    area = front_logs[:, 1]
    lat = np.concatenate(([np.inf], front_logs[:, 0]))  # lat[i]: latency of point i - 1
    a, l = draws[..., 1], draws[..., 0]
    bound = lat[np.searchsorted(area, a, side="right")]
    dominated = bound < l
    tie = bound == l
    if tie.any():
        below = np.searchsorted(area, a[tie], side="left")
        dominated[tie] = (below > 0) & (lat[below] <= l[tie])
    return dominated


def run_sbo(ev: BudgetedEvaluator, draws: Draws) -> None:
    """Quadratic regression surrogate with dominance-improvement acquisition.

    Points are held as mixed-radix integer codes, `levels @ strides`, whose
    order is the knob tuples' order; int64 is exact since a space has at most
    10 000 000 points. Each step's candidates are the sorted codes of 256
    uniform picks and the front's neighbours, less the evaluated points.
    """
    cards = ev.cardinalities
    k = len(cards)
    rng = draws.generator()
    draw = partial(random_knobs, rng, cards)
    for _ in range(10):
        ev.evaluate(_unseen_random(ev, draw))
    design = _design(cards)
    radix = np.array(cards, dtype=np.int64)
    strides = np.cumprod((1,) + cards[:0:-1], dtype=np.int64)[::-1]
    coef = None
    sigma = np.ones(2)
    fitted_at = -1
    # ev.evaluated only ever grows, so the design matrix is extended with the
    # points evaluated since the last refit instead of rebuilt, and the sorted
    # codes of the evaluated points with those since the last step
    x = design(np.zeros((0, k), dtype=np.int64))
    y = np.zeros((0, 2))
    seen = np.zeros(0, dtype=np.int64)
    # the front's log objectives and neighbour codes, rebuilt when the front tuple changes
    logs_of = None
    while True:
        if coef is None or ev.evaluations_used - fitted_at >= 25:
            fresh = ev.evaluated[len(x) :]
            x = np.concatenate((x, design(_level_array([p.knobs for p in fresh], k))))
            y = np.concatenate((y, [_log_objectives(p) for p in fresh]))
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            sigma = np.maximum(resid.std(axis=0), 1e-3)
            fitted_at = ev.evaluations_used
        fresh = ev.evaluated[len(seen) :]
        seen = np.sort(np.concatenate((seen, _level_array([p.knobs for p in fresh], k) @ strides)))
        front = ev.front.points
        if front is not logs_of:
            logs_of = front
            # column-major, so that each column is contiguous
            front_logs = np.array(list(zip(*map(_log_objectives, front)))).T
            levels = _level_array([p.knobs for p in front], k)
            codes = levels @ strides
            # one level down or up on one knob, within the knob's range
            neighbours = np.concatenate(
                ((codes[:, None] - strides)[levels > 0], (codes[:, None] + strides)[levels < radix - 1])
            )
        codes = np.sort(np.concatenate((rng.integers(0, cards, size=(256, k)) @ strides, neighbours)))
        # the first of each run of equal codes, if it is not evaluated
        keep = seen[np.searchsorted(seen, codes).clip(max=len(seen) - 1)] != codes
        keep[1:] &= codes[1:] != codes[:-1]
        codes = codes[keep]
        if not len(codes):
            ev.evaluate(_unseen_random(ev, draw))
            continue
        levels = codes[:, None] // strides % radix
        mu = design(levels) @ coef
        # the noise plus mu, bit-equal to mu plus the noise
        samples = rng.standard_normal((len(codes), 8, 2))
        samples *= sigma
        samples += mu[:, None, :]
        # a draw is an improvement when no front point weakly dominates it
        scores = 1.0 - _dominated(front_logs, samples).mean(axis=1)
        # by falling score, ties in candidate order since the codes are sorted
        order = np.argsort(-scores, kind="stable")
        # coverage-greedy batch: among candidates likely to improve the front,
        # pick predictions farthest from what is already evaluated so the batch
        # spreads across the predicted front instead of dog-piling one region
        top = scores[order[0]]
        if top > 0:
            eligible = order[scores[order] >= 0.25 * top]
        else:
            eligible = order[:32]
        px, py = mu[eligible, 0], mu[eligible, 1]
        # dx*dx + dy*dy is bit-equal to the sum of the two squares; sqrt is
        # monotone and correctly rounded, so it commutes with min
        dx = px[:, None] - front_logs[:, 0]
        dy = py[:, None] - front_logs[:, 1]
        gap = np.sqrt((dx * dx + dy * dy).min(axis=1))
        batch: list[int] = []
        while len(batch) < 5 and len(batch) < len(eligible):
            j = int(np.argmax(gap))
            batch.append(int(eligible[j]))
            dx, dy = px - px[j], py - py[j]
            gap = np.minimum(gap, np.sqrt(dx * dx + dy * dy))
            gap[j] = -1.0
        for i in order.tolist():
            if len(batch) == 5:
                break
            if i not in batch:
                batch.append(i)
        for i in batch:
            ev.evaluate(tuple(levels[i].tolist()))


def run_eda(ev: BudgetedEvaluator, draws: Draws) -> None:
    """Tchebycheff decomposition into 8 subproblems with univariate marginals."""
    cards = ev.cardinalities
    weights = [(i / 7.0, 1.0 - i / 7.0) for i in range(8)]
    marginals = [[np.full(c, 1.0 / c) for c in cards] for _ in range(8)]
    ideal = [math.inf, math.inf]
    random = draws.random
    while True:
        for m, (w_lat, w_area) in enumerate(weights):
            samples = []
            cums = [list(accumulate(dist.tolist())) for dist in marginals[m]]
            for _ in range(8):
                point = ev.evaluate(tuple([_sample_cumulative(random, cum) for cum in cums]))
                lat, area = _log_objectives(point)
                ideal[0] = min(ideal[0], lat)
                ideal[1] = min(ideal[1], area)
                samples.append(point)

            def tcheby(point: DesignPoint) -> float:
                lat, area = _log_objectives(point)
                return max(w_lat * (lat - ideal[0]), w_area * (area - ideal[1]))

            best = min(samples, key=lambda p: (tcheby(p), p.knobs))
            for axis, dist in enumerate(marginals[m]):
                dist *= 0.8
                dist[best.knobs[axis]] += 0.2


# -- table-policy explorers ---------------------------------------------------


def _softmax_rows(tables: list[list[float]]) -> tuple[list[list[float]], list[list[float]]]:
    """Each row's softmax and its running sums.

    Bit-equal to numpy's softmax of the row as an array: one `np.exp` over
    all the rows' shifted entries (numpy's exp is not `math.exp` on every
    host), and each row's exponentials over their `_row_sum`.
    """
    # the sign of a zero maximum changes no exponential: exp(±0) is 1.0
    exps = np.exp([t - top for row in tables for top in (max(row),) for t in row]).tolist()
    probs, cums = [], []
    stop = 0
    for row in tables:
        start, stop = stop, stop + len(row)
        e = exps[start:stop]
        total = _row_sum(e)
        p = [x / total for x in e]
        probs.append(p)
        cums.append(list(accumulate(p)))
    return probs, cums


def _step_tables(
    tables: list[list[float]], probs: list[list[float]], actions: tuple[int, ...], step: float
) -> list[list[float]]:
    """The tables after one REINFORCE step of size `step` toward the actions.

    Bit-equal to numpy's t + (-p + onehot) * step on each row as an array:
    t + (-p) * step is t - p * step, and -p + 1.0 is 1.0 - p, since IEEE
    negation is exact and rounding symmetric.
    """
    stepped = []
    for row, p, action in zip(tables, probs, actions):
        new = [t - q * step for t, q in zip(row, p)]
        new[action] = row[action] + (1.0 - p[action]) * step
        stepped.append(new)
    return stepped


def _run_policy(ev: BudgetedEvaluator, draws: Draws, with_baseline: bool) -> None:
    """A softmax table per knob, trained by REINFORCE on the negated coverage
    shortfall of each proposal against the front; AC subtracts a running
    baseline from the reward, PG does not.

    Each knob's table is a list of Python floats; `_softmax_rows` and
    `_step_tables` make numpy's IEEE operations on them.

    Memo-saturated runs mostly re-propose known points, so a repeat is kept
    cheap: the reward is cached per knob tuple until the front changes, and a
    PG step whose reward is ±0 is skipped. Adding (±0)·grad could only flip
    the sign of a zero entry, and exp(±0 - m) is one value, so every
    probability, and with them the row sums the next draws use, stays
    bit-equal. AC's baseline keeps its advantage nonzero, so AC always steps.
    """
    cards = ev.cardinalities
    tables = [[0.0] * card for card in cards]
    # one baseline serves every knob: each knob's would take the same updates
    baseline = 0.0
    arrays = None
    rewards: dict[tuple[int, ...], float] = {}
    probs = None
    random, integers = draws.random, draws.integers
    while True:
        if probs is None:
            probs, cums = _softmax_rows(tables)
        actions = tuple(
            [
                integers(card) if random() < 0.1 else _sample_cumulative(random, cum)
                for card, cum in zip(cards, cums)
            ]
        )
        point = ev.evaluate(actions)
        if ev.front_arrays() is not arrays:
            arrays = ev.front_arrays()
            rewards.clear()
        reward = rewards.get(actions)
        if reward is None:
            front, denom = arrays
            # the least worst-coordinate relative shortfall against a front
            # point; 0.0 first, so that -0.0 maps to 0.0 as Python's max(0.0, x) does
            rel = (np.array(point.objectives.as_tuple()) - front) / denom
            reward = rewards[actions] = -float(np.maximum(0.0, rel).max(axis=1).min())
        if with_baseline:
            advantage = reward - baseline
            baseline += 0.1 * (reward - baseline)
        elif reward == 0.0:
            continue
        else:
            advantage = reward
        tables = _step_tables(tables, probs, actions, 0.05 * advantage)
        probs = None


# Every explorer's runner: explore calls RUNNERS[explorer](evaluator, draws).
RUNNERS: dict[ExplorerId, Callable[[BudgetedEvaluator, Draws], None]] = {
    ExplorerId.NSGA2: run_nsga2,
    ExplorerId.SA: run_sa,
    ExplorerId.ACO: run_aco,
    ExplorerId.PSO: run_pso,
    ExplorerId.LATTICE: run_lattice,
    ExplorerId.SBO: run_sbo,
    ExplorerId.EDA: run_eda,
    ExplorerId.AC: partial(_run_policy, with_baseline=True),
    ExplorerId.PG: partial(_run_policy, with_baseline=False),
    ExplorerId.QLMOEA: run_qlmoea,
}
