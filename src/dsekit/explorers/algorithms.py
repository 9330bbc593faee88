"""The ten explorer algorithms.

Each runner drives a BudgetedEvaluator until it raises BudgetSaturated; that
exception is the uniform stop signal, so none of the loops below carry their
own termination logic beyond it. A runner that re-proposes evaluated points
4096 times in a row (or makes max(2000, 250 x budget) proposals in all) is
stopped by its subclass Stalled, and `explore` fills the rest of the budget
with unseen uniform points from a generator of its own. All randomness of the
search flows through the passed-in generator, which is what makes a run
reproducible from its seed.

The runners read the evaluator's shared front state rather than rebuilding
it: AC, PG and ACO take the cached front objective arrays, SBO the cached
front tuple, and lattice and SBO the sorted list of the front's unseen
neighbours.

Every categorical draw is one `rng.random()` placed by binary search in the
distribution's left-to-right running sums, which gives the index a linear scan
for the first sum above the draw would. A distribution that serves several
draws (ACO's ants, EDA's samples, PSO's leaders, a policy row between updates)
has its sums built once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

import numpy as np

from ..benchmarks import random_knobs
from ..pareto import DesignPoint, dominates
from .base import BudgetedEvaluator, ExplorerId, register

_POP = 40


# -- shared helpers -----------------------------------------------------------


def _unseen_random(
    ev: BudgetedEvaluator, rng: np.random.Generator, cards: tuple[int, ...], tries: int = 64
) -> tuple[int, ...]:
    knobs = random_knobs(rng, cards)
    for _ in range(tries):
        if not ev.seen(knobs):
            break
        knobs = random_knobs(rng, cards)
    return knobs


def _sample_cumulative(rng: np.random.Generator, cum: list[float]) -> int:
    """Draw from the distribution whose running sums are cum, list(accumulate(probs)).

    The first index whose sum exceeds the uniform draw, or the last index
    when rounding leaves every sum at or below it.
    """
    return min(bisect_right(cum, rng.random()), len(cum) - 1)


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
    infinitely far from their neighbours.
    """
    dist = [0.0] * len(objs)
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(i)
    for members in by_rank.values():
        if len(members) <= 2:
            for i in members:
                dist[i] = math.inf
            continue
        for dim in (0, 1):
            order = sorted(members, key=lambda i: objs[i][dim])
            lo, hi = objs[order[0]][dim], objs[order[-1]][dim]
            dist[order[0]] = dist[order[-1]] = math.inf
            span = hi - lo
            if span <= 0:
                continue
            for a, b, c in zip(order, order[1:], order[2:]):
                dist[b] += (objs[c][dim] - objs[a][dim]) / span
    return dist


def _tournament(rng: np.random.Generator, ranks: list[int], crowd: list[float]) -> int:
    i, j = int(rng.integers(len(ranks))), int(rng.integers(len(ranks)))
    if (ranks[i], -crowd[i]) <= (ranks[j], -crowd[j]):
        return i
    return j


def _seed_population(
    ev: BudgetedEvaluator, rng: np.random.Generator, cards: tuple[int, ...], size: int
) -> list[DesignPoint]:
    return [ev.evaluate(_unseen_random(ev, rng, cards)) for _ in range(size)]


def _survivors(pop: list[DesignPoint], size: int) -> list[DesignPoint]:
    objs = [(p.objectives.area, p.objectives.latency) for p in pop]
    ranks = _nondominated_ranks(objs)
    crowd = _crowding(objs, ranks)
    order = sorted(range(len(pop)), key=lambda i: (ranks[i], -crowd[i]))
    return [pop[i] for i in order[:size]]


# -- evolutionary explorers ---------------------------------------------------


@register(ExplorerId.NSGA2)
def run_nsga2(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    cards = schema.cardinalities
    k = len(cards)
    pop = _seed_population(ev, rng, cards, _POP)
    while True:
        objs = [(p.objectives.area, p.objectives.latency) for p in pop]
        ranks = _nondominated_ranks(objs)
        crowd = _crowding(objs, ranks)
        kids: list[DesignPoint] = []
        while len(kids) < _POP:
            pa = pop[_tournament(rng, ranks, crowd)].knobs
            pb = pop[_tournament(rng, ranks, crowd)].knobs
            if rng.random() < 0.9:
                mask = rng.random(k) < 0.5
                ca = tuple(pa[i] if mask[i] else pb[i] for i in range(k))
                cb = tuple(pb[i] if mask[i] else pa[i] for i in range(k))
            else:
                ca, cb = pa, pb
            for child in (ca, cb):
                mutated = tuple(
                    int(rng.integers(0, cards[i])) if rng.random() < 1.0 / k else child[i]
                    for i in range(k)
                )
                kids.append(ev.evaluate(mutated))
                if len(kids) == _POP:
                    break
        pop = _survivors(pop + kids, _POP)


@register(ExplorerId.QLMOEA)
def run_qlmoea(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    """NSGA2 skeleton with a Q-learned choice of variation operator."""
    cards = schema.cardinalities
    k = len(cards)
    q: dict[tuple[int, int], np.ndarray] = {}
    pop = _seed_population(ev, rng, cards, _POP)
    prev_front = len(ev.front_points())
    growth_sign = 1

    def state() -> tuple[int, int]:
        decile = min(9, 10 * ev.evaluations_used // ev.max_evaluations)
        return (int(decile), growth_sign)

    def q_row(s: tuple[int, int]) -> np.ndarray:
        if s not in q:
            q[s] = np.zeros(4)
        return q[s]

    while True:
        s = state()
        row = q_row(s)
        if rng.random() < 0.1:
            op = int(rng.integers(4))
        else:
            op = int(np.argmax(row))
        objs = [(p.objectives.area, p.objectives.latency) for p in pop]
        ranks = _nondominated_ranks(objs)
        crowd = _crowding(objs, ranks)
        kids: list[DesignPoint] = []
        try:
            while len(kids) < _POP:
                if op == 0:
                    pa = pop[_tournament(rng, ranks, crowd)].knobs
                    pb = pop[_tournament(rng, ranks, crowd)].knobs
                    mask = rng.random(k) < 0.5
                    child = tuple(pa[i] if mask[i] else pb[i] for i in range(k))
                elif op in (1, 2):
                    child = list(pop[_tournament(rng, ranks, crowd)].knobs)
                    axes = rng.permutation(k)[: min(op, k)]
                    for axis in axes:
                        child[axis] = int(rng.integers(0, cards[axis]))
                    child = tuple(child)
                else:
                    child = random_knobs(rng, cards)
                kids.append(ev.evaluate(child))
        finally:
            # learn from the partial generation too, then let saturation rise
            now_front = len(ev.front_points())
            reward = max(-1.0, min(1.0, (now_front - prev_front) / max(1, prev_front)))
            growth_sign = 1 + (now_front > prev_front) - (now_front < prev_front)
            prev_front = now_front
            row[op] += 0.1 * (reward + 0.9 * float(q_row(state()).max()) - row[op])
        pop = _survivors(pop + kids, _POP)


# -- trajectory explorers -----------------------------------------------------


@register(ExplorerId.SA)
def run_sa(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    cards = schema.cardinalities
    k = len(cards)
    current = ev.evaluate(random_knobs(rng, cards))
    temperature = 1.0
    weight = float(rng.random())
    step = 0
    while True:
        if step and step % 50 == 0:
            weight = float(rng.random())
        axis = int(rng.integers(k))
        move = 1 if rng.random() < 0.5 else -1
        level = current.knobs[axis] + move
        if not 0 <= level < cards[axis]:
            level = current.knobs[axis] - move
        proposal = current.knobs[:axis] + (level,) + current.knobs[axis + 1 :]
        candidate = ev.evaluate(proposal)
        lat_c, area_c = _log_objectives(current)
        lat_n, area_n = _log_objectives(candidate)
        delta = weight * (lat_n - lat_c) + (1.0 - weight) * (area_n - area_c)
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = candidate
        temperature *= 0.995
        step += 1


@register(ExplorerId.LATTICE)
def run_lattice(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    cards = schema.cardinalities
    ev.evaluate(random_knobs(rng, cards))
    while True:
        if rng.random() < 0.15:
            ev.evaluate(_unseen_random(ev, rng, cards))
            continue
        fresh = ev.unseen_neighbours()
        if fresh:
            ev.evaluate(fresh[int(rng.integers(len(fresh)))])
        else:
            ev.evaluate(_unseen_random(ev, rng, cards))


# -- swarm explorers ----------------------------------------------------------


@register(ExplorerId.ACO)
def run_aco(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    cards = schema.cardinalities
    pheromone = [np.ones(c) for c in cards]
    while True:
        cums = [list(accumulate((tau / tau.sum()).tolist())) for tau in pheromone]
        batch = [
            ev.evaluate(tuple(_sample_cumulative(rng, cum) for cum in cums)) for _ in range(20)
        ]
        front, _ = ev.front_arrays()
        objs = np.array([p.objectives.as_tuple() for p in batch])
        # behind[j]: how many front points dominate batch point j
        no_worse = (front[:, None, :] <= objs[None, :, :]).all(axis=2)
        better = (front[:, None, :] < objs[None, :, :]).any(axis=2)
        behind = (no_worse & better).sum(axis=0).tolist()
        for tau in pheromone:
            tau *= 0.9
        for point, count in zip(batch, behind):
            deposit = 1.0 / (1.0 + count)
            for axis, level in enumerate(point.knobs):
                pheromone[axis][level] += deposit
        for tau in pheromone:
            np.clip(tau, 0.05, 20.0, out=tau)


@register(ExplorerId.PSO)
def run_pso(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    cards = schema.cardinalities
    k = len(cards)
    n = 30
    hi = np.array(cards, dtype=float) - 1.0
    pos = rng.uniform(0.0, 1.0, size=(n, k)) * hi
    vel = np.zeros((n, k))
    best = [ev.evaluate(tuple(int(round(v)) for v in row)) for row in pos]
    while True:
        front = ev.front_points()
        objs = [(p.objectives.area, p.objectives.latency) for p in front]
        crowd = np.array(_crowding(objs, [0] * len(front)))
        finite = crowd[np.isfinite(crowd)]
        cap = (finite.max() if finite.size else 0.0) * 2.0 + 1.0
        weights = np.where(np.isfinite(crowd), crowd, cap) + 1e-9
        cum = list(accumulate((weights / weights.sum()).tolist()))
        for i in range(n):
            leader = front[_sample_cumulative(rng, cum)]
            target = np.array(leader.knobs, dtype=float)
            own = np.array(best[i].knobs, dtype=float)
            r1, r2 = rng.random(k), rng.random(k)
            vel[i] = 0.7 * vel[i] + 1.5 * r1 * (own - pos[i]) + 1.5 * r2 * (target - pos[i])
            np.clip(vel[i], -hi, hi, out=vel[i])
            pos[i] = np.clip(pos[i] + vel[i], 0.0, hi)
            point = ev.evaluate(tuple(int(round(v)) for v in pos[i]))
            if dominates(point.objectives, best[i].objectives):
                best[i] = point
            elif not dominates(best[i].objectives, point.objectives) and rng.random() < 0.5:
                best[i] = point


# -- model-guided explorers ---------------------------------------------------


def _design_matrix(levels: np.ndarray, cards: tuple[int, ...]) -> np.ndarray:
    """Quadratic-surrogate rows for an (n, k) level array.

    Each row is a one-hot block per knob, the pairwise products of the
    levels scaled to [0, 1], and a trailing 1 for the intercept.
    """
    n, k = levels.shape
    offsets = np.cumsum((0,) + cards[:-1])
    a, b = np.triu_indices(k, 1)
    onehot_dim = sum(cards)
    x = np.zeros((n, onehot_dim + len(a) + 1))
    x[np.arange(n)[:, None], offsets + levels] = 1.0
    t = levels / (np.array(cards) - 1)
    x[:, onehot_dim:-1] = t[:, a] * t[:, b]
    x[:, -1] = 1.0
    return x


def _level_array(rows: list[tuple[int, ...]], k: int) -> np.ndarray:
    """The (n, k) int64 array of n knob tuples of length k."""
    return np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * k).reshape(len(rows), k)


def _dominated(front_logs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Mask of the draws (..., 2) that some front point dominates.

    Exact 2-D staircase test (Kung, Luccio & Preparata 1975): with the front
    sorted by area and prefix minima of latency, a draw (l, a) is dominated
    iff a point with area < a has latency <= l, or a point with area <= a
    has latency < l. Columns are (log-latency, log-area) throughout.
    """
    order = np.argsort(front_logs[:, 1], kind="stable")
    area = front_logs[order, 1]
    best_lat = np.minimum.accumulate(front_logs[order, 0])
    lat, a = draws[..., 0], draws[..., 1]
    below = np.searchsorted(area, a, side="left")
    upto = np.searchsorted(area, a, side="right")
    return ((below > 0) & (best_lat[below - 1] <= lat)) | ((upto > 0) & (best_lat[upto - 1] < lat))


@register(ExplorerId.SBO)
def run_sbo(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    """Quadratic regression surrogate with dominance-improvement acquisition."""
    cards = schema.cardinalities
    k = len(cards)
    for _ in range(10):
        ev.evaluate(_unseen_random(ev, rng, cards))
    coef = None
    sigma = np.ones(2)
    fitted_at = -1
    # ev.evaluated only ever grows, so the design matrix is extended with the
    # points evaluated since the last refit instead of rebuilt
    x = _design_matrix(np.zeros((0, k), dtype=np.int64), cards)
    y = np.zeros((0, 2))
    # the front's log objectives, rebuilt only when the front tuple changes
    logs_of = front_logs = None
    while True:
        if coef is None or ev.evaluations_used - fitted_at >= 25:
            fresh = ev.evaluated[len(x) :]
            x = np.concatenate((x, _design_matrix(_level_array([p.knobs for p in fresh], k), cards)))
            y = np.concatenate((y, [_log_objectives(p) for p in fresh]))
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            sigma = np.maximum(resid.std(axis=0), 1e-3)
            fitted_at = ev.evaluations_used
        draws = set(map(tuple, rng.integers(0, cards, size=(256, k)).tolist()))
        # the unseen draws and the front's unseen neighbours, sorted
        cands = ev.unseen_neighbours() + [
            d for d in draws if not ev.seen(d) and not ev.near_front(d)
        ]
        cands.sort()
        if not cands:
            ev.evaluate(_unseen_random(ev, rng, cards))
            continue
        mu = _design_matrix(_level_array(cands, k), cards) @ coef
        draws = mu[:, None, :] + rng.standard_normal((len(cands), 8, 2)) * sigma
        front = ev.front_points()
        if front is not logs_of:
            logs_of = front
            front_logs = np.array([_log_objectives(p) for p in front])
        # a draw is an improvement when no front point weakly dominates it
        scores = 1.0 - _dominated(front_logs, draws).mean(axis=1)
        # by falling score, ties in candidate order since cands is sorted
        order = np.argsort(-scores, kind="stable")
        # coverage-greedy batch: among candidates likely to improve the front,
        # pick predictions farthest from what is already evaluated so the batch
        # spreads across the predicted front instead of dog-piling one region
        top = scores[order[0]]
        if top > 0:
            eligible = order[scores[order] >= 0.25 * top]
        else:
            eligible = order[:32]
        pts = mu[eligible]
        # sqrt is monotone and correctly rounded, so it commutes with min
        gap = np.sqrt(((pts[:, None, :] - front_logs[None, :, :]) ** 2).sum(axis=2).min(axis=1))
        batch: list[int] = []
        while len(batch) < 5 and len(batch) < len(eligible):
            j = int(np.argmax(gap))
            batch.append(int(eligible[j]))
            gap = np.minimum(gap, np.sqrt(((pts - pts[j]) ** 2).sum(axis=1)))
            gap[j] = -1.0
        for i in order.tolist():
            if len(batch) == 5:
                break
            if i not in batch:
                batch.append(i)
        for i in batch:
            ev.evaluate(cands[i])


@register(ExplorerId.EDA)
def run_eda(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    """Tchebycheff decomposition into 8 subproblems with univariate marginals."""
    cards = schema.cardinalities
    weights = [(i / 7.0, 1.0 - i / 7.0) for i in range(8)]
    marginals = [[np.full(c, 1.0 / c) for c in cards] for _ in range(8)]
    ideal = [math.inf, math.inf]
    while True:
        for m, (w_lat, w_area) in enumerate(weights):
            samples = []
            cums = [list(accumulate(dist.tolist())) for dist in marginals[m]]
            for _ in range(8):
                point = ev.evaluate(tuple(_sample_cumulative(rng, cum) for cum in cums))
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


def _width_runs(cards: tuple[int, ...]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The table layout with rows grouped by width: each knob's row, and
    (start, stop, width) of each width's run of rows."""
    rows = [0] * len(cards)
    for row, axis in enumerate(sorted(range(len(cards)), key=cards.__getitem__)):
        rows[axis] = row
    runs: list[tuple[int, int, int]] = []
    for width in sorted(set(cards)):
        start = runs[-1][1] if runs else 0
        runs.append((start, start + cards.count(width), width))
    return rows, runs


def _softmax_runs(tables: np.ndarray, runs: list[tuple[int, int, int]]) -> np.ndarray:
    """Softmax of each -inf-padded row, bit-equal to the softmax of the row
    cut to its width. numpy's summation order depends on a row's length, so
    each row is summed at its own width: a width's rows are one basic slice."""
    probs = np.exp(tables - tables.max(axis=1, keepdims=True))
    for start, stop, width in runs:
        block = probs[start:stop, :width]
        block /= block.sum(axis=1, keepdims=True)
    return probs


def _run_policy(ev: BudgetedEvaluator, schema, rng: np.random.Generator, with_baseline: bool) -> None:
    """A softmax table per knob, trained by REINFORCE on the negated coverage
    shortfall of each proposal against the front; AC subtracts a running
    baseline from the reward, PG does not.

    Memo-saturated runs mostly re-propose known points, so a repeat is kept
    cheap: the reward is cached per knob tuple until the front changes, and a
    PG step whose reward is ±0 is skipped. Adding (±0)·grad could only flip
    the sign of a zero entry, and exp(±0 - m) is one value, so every
    probability, and with them the row sums the next draws use, stays
    bit-equal. AC's baseline keeps its advantage nonzero, so AC always steps.
    """
    cards = schema.cardinalities
    rows, runs = _width_runs(cards)
    # one table row per knob, padded with -inf to the widest knob
    tables = np.full((len(cards), max(cards)), -np.inf)
    for row, card in zip(rows, cards):
        tables[row, :card] = 0.0
    # one baseline serves every knob: each knob's would take the same updates
    baseline = 0.0
    arrays = None
    rewards: dict[tuple[int, ...], float] = {}
    probs = None
    while True:
        if probs is None:
            probs = _softmax_runs(tables, runs)
            listed = probs.tolist()
            cums = [list(accumulate(listed[row][:card])) for row, card in zip(rows, cards)]
        actions = tuple(
            int(rng.integers(card)) if rng.random() < 0.1 else _sample_cumulative(rng, cum)
            for card, cum in zip(cards, cums)
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
        grad = -probs
        for row, action in zip(rows, actions):
            grad[row, action] += 1.0
        grad *= 0.05 * advantage
        tables += grad
        probs = None


@register(ExplorerId.PG)
def run_pg(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    _run_policy(ev, schema, rng, with_baseline=False)


@register(ExplorerId.AC)
def run_ac(ev: BudgetedEvaluator, schema, rng: np.random.Generator) -> None:
    _run_policy(ev, schema, rng, with_baseline=True)
