"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms from the package code (full
pairwise dominance matrices, naive loops, direct summation) so that agreement
is meaningful evidence of correctness rather than shared bugs.
"""

from __future__ import annotations

import math

import numpy as np


def dominance_matrix(objs: np.ndarray) -> np.ndarray:
    """Boolean matrix D where D[i, j] means point i weakly dominates point j."""
    a = objs[:, None, :]  # (n, 1, 2)
    b = objs[None, :, :]  # (1, n, 2)
    no_worse = (a <= b).all(axis=2)
    better_somewhere = (a < b).any(axis=2)
    return no_worse & better_somewhere


def brute_force_pareto_indices(objs: np.ndarray, knobs: list[tuple[int, ...]]) -> list[int]:
    """Indices of the deduplicated non-dominated subset, in (area, latency) order.

    Full O(n^2) pairwise dominance, then one representative per distinct
    objective vector (lexicographically smallest knob vector).
    """
    n = len(objs)
    if n == 0:
        return []
    dom = dominance_matrix(objs)
    non_dominated = [i for i in range(n) if not dom[:, i].any()]
    best_by_objs: dict[tuple[float, float], int] = {}
    for i in non_dominated:
        key = (float(objs[i, 0]), float(objs[i, 1]))
        cur = best_by_objs.get(key)
        if cur is None or knobs[i] < knobs[cur]:
            best_by_objs[key] = i
    return sorted(best_by_objs.values(), key=lambda i: (objs[i, 0], objs[i, 1]))


def naive_adrs(reference: list[tuple[float, float]], approx: list[tuple[float, float]]) -> float:
    """Plain-loop ADRS: mean over reference points of min worst-coordinate shortfall."""
    assert reference and approx
    total = 0.0
    for (ra, rl) in reference:
        da = ra if ra > 0.0 else 1e-9
        dl = rl if rl > 0.0 else 1e-9
        best = math.inf
        for (ca, cl) in approx:
            d = max(max(0.0, (ca - ra) / da), max(0.0, (cl - rl) / dl))
            best = min(best, d)
        total += best
    return total / len(reference)


def reference_adrs(reference, approx) -> float:
    """`pareto.adrs` as first written: the distances broadcast as (R, A, 2)
    arrays, with the same IEEE operations in the same argument order."""
    ref = reference.objective_array()
    app = approx.objective_array()
    denom = np.where(ref > 0.0, ref, 1e-9)
    with np.errstate(over="ignore"):
        rel = (app[None, :, :] - ref[:, None, :]) / denom[:, None, :]
    worst_coord = np.maximum(rel, 0.0).max(axis=2)
    return float(worst_coord.min(axis=1).mean())


def naive_discounted_advantages(
    rewards: list[float],
    values: list[float],
    bootstrap: float,
    gamma: float,
    lam: float,
) -> list[float]:
    """Direct double-sum advantage estimate: A_t = sum_l (gamma*lam)^l * delta_{t+l}."""
    horizon = len(rewards)
    next_values = values[1:] + [bootstrap]
    deltas = [rewards[t] + gamma * next_values[t] - values[t] for t in range(horizon)]
    out = []
    for t in range(horizon):
        acc = 0.0
        for l in range(horizon - t):
            acc += (gamma * lam) ** l * deltas[t + l]
        out.append(acc)
    return out


def naive_mlp_forward(w1, b1, w2, b2, x) -> list[float]:
    """Pure-Python two-layer ReLU network forward pass."""
    hidden = []
    for row, bias in zip(w1, b1):
        acc = bias
        for weight, xi in zip(row, x):
            acc += weight * xi
        hidden.append(acc if acc > 0.0 else 0.0)
    out = []
    for row, bias in zip(w2, b2):
        acc = bias
        for weight, hi in zip(row, hidden):
            acc += weight * hi
        out.append(acc)
    return out


def _scalar_random_knobs(rng: np.random.Generator, cards: tuple[int, ...]) -> tuple[int, ...]:
    """One scalar draw per knob, in axis order."""
    return tuple(int(rng.integers(0, c)) for c in cards)


def _scalar_unseen_random(ev, rng: np.random.Generator, cards: tuple[int, ...], tries: int = 64):
    knobs = _scalar_random_knobs(rng, cards)
    for _ in range(tries):
        if not ev.seen(knobs):
            break
        knobs = _scalar_random_knobs(rng, cards)
    return knobs


def _log_objectives(point) -> tuple[float, float]:
    return math.log(point.objectives.latency), math.log(point.objectives.area)


def reference_run_sbo(ev, schema, rng: np.random.Generator) -> None:
    """The surrogate explorer as first written: per-row encoding of the whole
    archive at every refit, per-scalar candidate draws, and a full
    front x candidates x draws x 2 dominance tensor."""
    cards = schema.cardinalities
    k = len(cards)
    offsets = np.cumsum([0] + [c for c in cards])
    onehot_dim = int(offsets[-1])
    pair_axes = [(a, b) for a in range(k) for b in range(a + 1, k)]

    def encode(knobs: tuple[int, ...]) -> np.ndarray:
        row = np.zeros(onehot_dim + len(pair_axes) + 1)
        t = []
        for axis, level in enumerate(knobs):
            row[offsets[axis] + level] = 1.0
            t.append(level / (cards[axis] - 1))
        for j, (a, b) in enumerate(pair_axes):
            row[onehot_dim + j] = t[a] * t[b]
        row[-1] = 1.0
        return row

    for _ in range(10):
        ev.evaluate(_scalar_unseen_random(ev, rng, cards))
    coef = None
    sigma = np.ones(2)
    fitted_at = -1
    while True:
        if coef is None or ev.evaluations_used - fitted_at >= 25:
            x = np.array([encode(p.knobs) for p in ev.evaluated])
            y = np.array([_log_objectives(p) for p in ev.evaluated])
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            sigma = np.maximum(resid.std(axis=0), 1e-3)
            fitted_at = ev.evaluations_used
        front = ev.front_points()
        pool = {_scalar_random_knobs(rng, cards) for _ in range(256)}
        for p in front:
            for axis in range(k):
                for move in (-1, 1):
                    level = p.knobs[axis] + move
                    if 0 <= level < cards[axis]:
                        pool.add(p.knobs[:axis] + (level,) + p.knobs[axis + 1 :])
        cands = sorted(c for c in pool if not ev.seen(c))
        if not cands:
            ev.evaluate(_scalar_unseen_random(ev, rng, cards))
            continue
        mu = np.array([encode(c) for c in cands]) @ coef
        draws = mu[:, None, :] + rng.standard_normal((len(cands), 8, 2)) * sigma
        front_logs = np.array([_log_objectives(p) for p in front])
        # a draw is an improvement when no front point weakly dominates it
        le = (front_logs[:, None, None, :] <= draws[None, :, :, :]).all(axis=3)
        lt = (front_logs[:, None, None, :] < draws[None, :, :, :]).any(axis=3)
        dominated = (le & lt).any(axis=0)
        scores = 1.0 - dominated.mean(axis=1)
        order = sorted(range(len(cands)), key=lambda i: (-scores[i], cands[i]))
        top = scores[order[0]]
        if top > 0:
            eligible = [i for i in order if scores[i] >= 0.25 * top]
        else:
            eligible = order[:32]
        pts = mu[eligible]
        gap = np.sqrt(
            ((pts[:, None, :] - front_logs[None, :, :]) ** 2).sum(axis=2)
        ).min(axis=1)
        batch: list[int] = []
        while len(batch) < 5 and len(batch) < len(eligible):
            j = int(np.argmax(gap))
            batch.append(eligible[j])
            gap = np.minimum(gap, np.sqrt(((pts - pts[j]) ** 2).sum(axis=1)))
            gap[j] = -1.0
        for i in order:
            if len(batch) == 5:
                break
            if i not in batch:
                batch.append(i)
        for i in batch:
            ev.evaluate(cands[i])


def reference_train_rl(agent, features: np.ndarray, score_matrix: np.ndarray, *, epochs, seed):
    """PPO training with the buffer built one benchmark at a time, as first
    written: a scalar uniform draw and `searchsorted` per pick, the regret in
    Python floats, and one single-step `gae` call per slot.

    Returns (agent, per-epoch mean rewards, every stored reward in order).
    """
    from dsekit.nn import forward, log_softmax
    from dsekit.selector import (
        _MIN_BEST_SCORE,
        _RL_TAG,
        FEATURE_DIM,
        N_EXPLORERS,
        REWARD_FLOOR,
        gae,
        normalized,
        ppo_update,
    )

    rng = np.random.default_rng(np.random.SeedSequence([_RL_TAG, seed & (2**64 - 1)]))
    states = agent.states(features)
    z = states[:, :FEATURE_DIM]
    curve: list[float] = []
    every_reward: list[float] = []
    for _ in range(epochs):
        logp = log_softmax(forward(agent.actor, states)[0])
        probs = np.exp(logp)
        values = forward(agent.critic, z)[0][:, 0]
        rows, actions, rewards, advantages, returns = [], [], [], [], []
        for i in rng.permutation(len(features)):
            action = int(np.searchsorted(np.cumsum(probs[i]), rng.random()))
            action = min(action, N_EXPLORERS - 1)
            chosen, best = float(score_matrix[i, action]), float(score_matrix[i].min())
            reward = max(-abs(chosen - best) / max(best, _MIN_BEST_SCORE), REWARD_FLOOR)
            adv, ret = gae([reward], [values[i]])
            rows.append(i)
            actions.append(action)
            rewards.append(reward)
            advantages.append(adv[0])
            returns.append(ret[0])
        curve.append(float(np.mean(rewards)))
        every_reward.extend(rewards)
        agent, _ = ppo_update(
            agent,
            states[rows],
            np.array(actions),
            logp[rows, actions],
            normalized(np.array(advantages)),
            np.array(returns),
        )
    return agent, curve, every_reward


# -- explorer routines as first written, before the shared front bookkeeping --


def coverage_distance(target, candidate) -> float:
    """Worst-coordinate relative shortfall of candidate against target.

    Zero exactly when the candidate weakly dominates the target; positive
    otherwise. Zero-valued target coordinates fall back to a tiny epsilon
    denominator.
    """
    da = target.area if target.area > 0.0 else 1e-9
    dl = target.latency if target.latency > 0.0 else 1e-9
    return max(
        max(0.0, (candidate.area - target.area) / da),
        max(0.0, (candidate.latency - target.latency) / dl),
    )


def _dominates(p, q) -> bool:
    no_worse = p.area <= q.area and p.latency <= q.latency
    return no_worse and (p.area < q.area or p.latency < q.latency)


def reference_admit_to_front(front: list, point) -> list:
    """The archive front after admitting point: a scan of the whole front,
    then a re-sort by (area, latency). Equal objectives keep the smaller knobs."""
    front = list(front)
    obj = point.objectives
    for old in front:
        o = old.objectives
        if _dominates(o, obj):
            return front
        if o.area == obj.area and o.latency == obj.latency:
            if old.knobs <= point.knobs:
                return front
            front.remove(old)
            break
    front = [old for old in front if not _dominates(obj, old.objectives)]
    front.append(point)
    front.sort(key=lambda p: (p.objectives.area, p.objectives.latency))
    return front


def reference_nondominated_ranks(objs: list[tuple[float, float]]) -> list[int]:
    """O(n^2) fast non-dominated sorting ranks (0 = best front)."""
    n = len(objs)
    worse_than: list[list[int]] = [[] for _ in range(n)]
    blockers = [0] * n
    for i in range(n):
        ai, li = objs[i]
        for j in range(i + 1, n):
            aj, lj = objs[j]
            if ai <= aj and li <= lj and (ai < aj or li < lj):
                worse_than[i].append(j)
                blockers[j] += 1
            elif aj <= ai and lj <= li and (aj < ai or lj < li):
                worse_than[j].append(i)
                blockers[i] += 1
    ranks = [0] * n
    current = [i for i in range(n) if blockers[i] == 0]
    rank = 0
    while current:
        nxt = []
        for i in current:
            ranks[i] = rank
            for j in worse_than[i]:
                blockers[j] -= 1
                if blockers[j] == 0:
                    nxt.append(j)
        current = nxt
        rank += 1
    return ranks


def _loop_sample_categorical(rng: np.random.Generator, probs) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of one 1-D array."""
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def reference_run_lattice(ev, schema, rng: np.random.Generator) -> None:
    """Lattice search rebuilding and sorting the front's neighbour set every step."""
    cards = schema.cardinalities
    k = len(cards)
    ev.evaluate(_scalar_random_knobs(rng, cards))
    while True:
        if rng.random() < 0.15:
            ev.evaluate(_scalar_unseen_random(ev, rng, cards))
            continue
        neighbors = sorted(
            {
                p.knobs[:axis] + (p.knobs[axis] + move,) + p.knobs[axis + 1 :]
                for p in ev.front_points()
                for axis in range(k)
                for move in (-1, 1)
                if 0 <= p.knobs[axis] + move < cards[axis]
            }
        )
        fresh = [n for n in neighbors if not ev.seen(n)]
        if fresh:
            ev.evaluate(fresh[int(rng.integers(len(fresh)))])
        else:
            ev.evaluate(_scalar_unseen_random(ev, rng, cards))


def reference_run_aco(ev, schema, rng: np.random.Generator) -> None:
    """Ant colony search normalising every knob's pheromone for every sample
    and testing each batch point against each front point."""
    cards = schema.cardinalities
    pheromone = [np.ones(c) for c in cards]
    while True:
        batch = []
        for _ in range(20):
            knobs = tuple(_loop_sample_categorical(rng, tau / tau.sum()) for tau in pheromone)
            batch.append(ev.evaluate(knobs))
        front = ev.front_points()
        for tau in pheromone:
            tau *= 0.9
        for point in batch:
            behind = sum(1 for q in front if _dominates(q.objectives, point.objectives))
            deposit = 1.0 / (1.0 + behind)
            for axis, level in enumerate(point.knobs):
                pheromone[axis][level] += deposit
        for tau in pheromone:
            np.clip(tau, 0.05, 20.0, out=tau)


def reference_run_policy(ev, schema, rng: np.random.Generator, with_baseline: bool) -> None:
    """The table-policy explorers (AC with a baseline, PG without) on one
    array per knob, two softmaxes per knob per step and a scalar reward loop."""
    cards = schema.cardinalities
    tables = [np.zeros(c) for c in cards]
    baseline = np.zeros(len(cards))
    while True:
        actions = []
        for table in tables:
            if rng.random() < 0.1:
                actions.append(int(rng.integers(len(table))))
            else:
                actions.append(_loop_sample_categorical(rng, softmax(table)))
        point = ev.evaluate(tuple(actions))
        front = ev.front_points()
        reward = -min(coverage_distance(p.objectives, point.objectives) for p in front)
        for axis, table in enumerate(tables):
            advantage = reward - baseline[axis] if with_baseline else reward
            if with_baseline:
                baseline[axis] += 0.1 * (reward - baseline[axis])
            probs = softmax(table)
            grad = -probs
            grad[actions[axis]] += 1.0
            table += 0.05 * advantage * grad
