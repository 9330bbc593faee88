"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms from the package code (full
pairwise dominance matrices, naive loops, direct summation) so that agreement
is meaningful evidence of correctness rather than shared bugs.
"""

from __future__ import annotations

import math
from typing import Callable

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


def assert_staircase(points) -> None:
    """A front's order, which `ParetoFront` leaves to its constructors: area
    strictly rising and latency strictly falling from each point to the next."""
    objs = [(p.objectives.area, p.objectives.latency) for p in points]
    for (a0, l0), (a1, l1) in zip(objs, objs[1:]):
        assert a1 > a0 and l1 < l0, f"({a0}, {l0}) then ({a1}, {l1})"


def enumerate_points(model, schema) -> list:
    """Evaluated design points for the whole space, in lexicographic order."""
    from dsekit.pareto import DesignPoint

    return [DesignPoint(knobs, model.evaluate_knobs(knobs)) for knobs in schema.iter_points()]


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


# -- finite differences against the analytic gradients ----------------------


def grad_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    at: np.ndarray,
    step: float = 1e-5,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    loss_and_grad maps a flat parameter vector to (scalar, gradient vector).
    When sample is given, only that many randomly chosen coordinates are
    probed; otherwise every coordinate is.
    """
    _, analytic = loss_and_grad(at)
    coords: np.ndarray
    if sample is not None and sample < at.size:
        if rng is None:
            raise ValueError("sampled grad_check needs an rng")
        coords = rng.choice(at.size, size=sample, replace=False)
    else:
        coords = np.arange(at.size)
    worst = 0.0
    for i in coords:
        bumped = at.copy()
        bumped[i] += step
        hi, _ = loss_and_grad(bumped)
        bumped[i] -= 2 * step
        lo, _ = loss_and_grad(bumped)
        numeric = (hi - lo) / (2 * step)
        denom = max(abs(analytic[i]), abs(numeric), 1e-2)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# -- package heads called as the selector calls them --------------------------


def fresh_backward(net, x: np.ndarray, hidden: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
    """`nn.backward` into a new gradient buffer."""
    from dsekit.nn import Mlp, backward

    return backward(net, x, hidden, dlogits, out=Mlp(net.dims, np.empty_like(net.params)))


def entropy_of(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """`nn.mean_entropy` given the logits' own softmax parts."""
    from dsekit.nn import mean_entropy, softmax_parts

    return mean_entropy(logits, parts=softmax_parts(logits))


def policy_loss_of(logits, actions, old_logp, advantages, **kwargs) -> tuple[float, np.ndarray]:
    """`selector.ppo_policy_loss` given the logits' softmax parts and the actions' one-hot rows."""
    from dsekit.nn import softmax_parts
    from dsekit.selector import ppo_policy_loss

    onehot = np.zeros_like(logits)
    onehot[np.arange(len(actions)), actions] = 1.0
    return ppo_policy_loss(
        logits, actions, old_logp, advantages, parts=softmax_parts(logits), onehot=onehot, **kwargs
    )


# -- selector training as first written: a new Mlp per step ------------------


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def reference_forward(net, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(x)
    hidden = np.maximum(x @ net.w1.T + net.b1, 0.0)
    return hidden @ net.w2.T + net.b2, hidden


def reference_backward(net, x: np.ndarray, hidden: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
    """The gradient's four blocks computed apart and concatenated."""
    x = np.atleast_2d(x)
    dw2 = dlogits.T @ hidden
    db2 = dlogits.sum(axis=0)
    dhidden = (dlogits @ net.w2) * (hidden > 0.0)
    dw1 = dhidden.T @ x
    db1 = dhidden.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def reference_sgd_step(net, grad: np.ndarray, lr: float):
    """A new network from `params - lr * grad`; refuses non-finite updates."""
    from dsekit.nn import Mlp

    params = net.params - lr * grad
    if not np.isfinite(params).all():
        raise FloatingPointError("training diverged: non-finite parameter update")
    return Mlp(net.dims, params)


def reference_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    logits = np.atleast_2d(logits)
    n = logits.shape[0]
    logp = reference_log_softmax(logits)
    loss = -logp[np.arange(n), labels].mean()
    dlogits = reference_softmax(logits)
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


def reference_mean_entropy(logits: np.ndarray) -> tuple[float, np.ndarray]:
    logits = np.atleast_2d(logits)
    n = logits.shape[0]
    logp = reference_log_softmax(logits)
    p = np.exp(logp)
    row_entropy = -(p * logp).sum(axis=1)
    dlogits = -p * (logp + row_entropy[:, None])
    return float(row_entropy.mean()), dlogits / n


def reference_mean_squared_error(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    pred = np.atleast_2d(pred)
    diff = pred - np.asarray(target).reshape(pred.shape)
    return float((diff**2).mean()), 2.0 * diff / diff.size


def reference_ppo_policy_loss(logits, actions, old_logp, advantages, clip):
    logits = np.atleast_2d(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    logp = reference_log_softmax(logits)
    ratio = np.exp(logp[rows, actions] - old_logp)
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    surr_plain = ratio * advantages
    surr_clip = clipped * advantages
    loss = -np.minimum(surr_plain, surr_clip).mean()
    inside = (ratio >= 1.0 - clip) & (ratio <= 1.0 + clip)
    active = (surr_plain <= surr_clip) | inside
    dratio = np.where(active, advantages, 0.0)
    p = reference_softmax(logits)
    onehot = np.zeros_like(p)
    onehot[rows, actions] = 1.0
    dlogits = -(dratio * ratio)[:, None] * (onehot - p) / n
    return float(loss), dlogits


def reference_pretrain_supervised(features: np.ndarray, labels, *, epochs, lr, seed):
    """Full-batch descent with a new network built by every step.

    Returns (head, loss curve) like `pretrain_supervised`.
    """
    from dsekit.hashing import mix64
    from dsekit.nn import Mlp
    from dsekit.selector import (
        _HEAD_FEATURE_GAIN,
        _SUPERVISED_TAG,
        HIDDEN,
        N_EXPLORERS,
        FeatureScaler,
        SupervisedHead,
    )

    features = np.atleast_2d(features)
    labels = np.asarray(labels, dtype=int)
    scaler = FeatureScaler.fit(features)
    x = scaler.apply(features)
    net = Mlp.init(features.shape[1], HIDDEN, N_EXPLORERS, seed=mix64(_SUPERVISED_TAG, seed))
    net = Mlp.from_arrays(net.w1 * _HEAD_FEATURE_GAIN, net.b1, np.zeros_like(net.w2), net.b2)
    curve: list[float] = []
    for _ in range(epochs):
        logits, hidden = reference_forward(net, x)
        loss, dlogits = reference_cross_entropy(logits, labels)
        curve.append(loss)
        net = reference_sgd_step(net, reference_backward(net, x, hidden, dlogits), lr)
    return SupervisedHead(scaler=scaler, net=net), curve


def reference_ppo_update(
    agent, states, actions, old_logp, advantages, returns, *, passes, lr, clip, value_coef,
    entropy_coef,
):
    """PPO passes with each loss computing its own softmax, a concatenated
    gradient and a new network from every step. Returns (agent, losses)."""
    from dataclasses import replace

    from dsekit.selector import FEATURE_DIM

    z = states[:, :FEATURE_DIM]
    actor, critic = agent.actor, agent.critic
    losses: list[float] = []
    for _ in range(passes):
        logits, hidden = reference_forward(actor, states)
        policy_loss, d_policy = reference_ppo_policy_loss(
            logits, actions, old_logp, advantages, clip
        )
        entropy, d_entropy = reference_mean_entropy(logits)
        dlogits = d_policy - entropy_coef * d_entropy
        pred, hidden_c = reference_forward(critic, z)
        value_loss, d_value = reference_mean_squared_error(pred, returns[:, None])
        total = policy_loss + value_coef * value_loss - entropy_coef * entropy
        if not np.isfinite(total):
            raise FloatingPointError("ppo update diverged: non-finite loss")
        losses.append(float(total))
        actor = reference_sgd_step(actor, reference_backward(actor, states, hidden, dlogits), lr)
        critic = reference_sgd_step(
            critic, reference_backward(critic, z, hidden_c, value_coef * d_value), lr
        )
    return replace(agent, actor=actor, critic=critic), losses


def reference_train_rl(agent, features: np.ndarray, score_matrix: np.ndarray, *, epochs, seed):
    """PPO training with the buffer built one benchmark at a time, as first
    written: a scalar uniform draw and `searchsorted` per pick, the regret in
    Python floats, one single-step `gae` call per slot, and
    `reference_ppo_update` for every epoch's update.

    Returns (agent, per-epoch mean rewards, every stored reward in order).
    """
    from dsekit.selector import (
        _MIN_BEST_SCORE,
        _RL_TAG,
        CLIP_RATIO,
        ENTROPY_COEF,
        FEATURE_DIM,
        N_EXPLORERS,
        REWARD_FLOOR,
        RL_LR,
        UPDATE_PASSES,
        VALUE_COEF,
        gae,
        normalized,
    )

    rng = np.random.default_rng(np.random.SeedSequence([_RL_TAG, seed & (2**64 - 1)]))
    states = agent.states(features)
    z = states[:, :FEATURE_DIM]
    curve: list[float] = []
    every_reward: list[float] = []
    for _ in range(epochs):
        logp = reference_log_softmax(reference_forward(agent.actor, states)[0])
        probs = np.exp(logp)
        values = reference_forward(agent.critic, z)[0][:, 0]
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
        agent, _ = reference_ppo_update(
            agent,
            states[rows],
            np.array(actions),
            logp[rows, actions],
            normalized(np.array(advantages)),
            np.array(returns),
            passes=UPDATE_PASSES,
            lr=RL_LR,
            clip=CLIP_RATIO,
            value_coef=VALUE_COEF,
            entropy_coef=ENTROPY_COEF,
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


def reference_run_eda(ev, schema, rng: np.random.Generator) -> None:
    """The decomposition EDA scanning each marginal from its start for every sample."""
    cards = schema.cardinalities
    weights = [(i / 7.0, 1.0 - i / 7.0) for i in range(8)]
    marginals = [[np.full(c, 1.0 / c) for c in cards] for _ in range(8)]
    ideal = [math.inf, math.inf]
    while True:
        for m, (w_lat, w_area) in enumerate(weights):
            samples = []
            for _ in range(8):
                knobs = tuple(_loop_sample_categorical(rng, dist) for dist in marginals[m])
                point = ev.evaluate(knobs)
                lat, area = _log_objectives(point)
                ideal[0] = min(ideal[0], lat)
                ideal[1] = min(ideal[1], area)
                samples.append(point)

            def tcheby(point) -> float:
                lat, area = _log_objectives(point)
                return max(w_lat * (lat - ideal[0]), w_area * (area - ideal[1]))

            best = min(samples, key=lambda p: (tcheby(p), p.knobs))
            for axis, dist in enumerate(marginals[m]):
                dist *= 0.8
                dist[best.knobs[axis]] += 0.2


def reference_crowding(objs: list[tuple[float, float]], ranks: list[int]) -> np.ndarray:
    """Crowding distance within each rank, accumulated in a numpy array."""
    n = len(objs)
    dist = np.zeros(n)
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


def _front_crowding(objs: list[tuple[float, float]]) -> np.ndarray:
    """Crowding distance of one front's (area, latency) pairs, ends infinite."""
    n = len(objs)
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = math.inf
        return dist
    for dim in (0, 1):
        order = sorted(range(n), key=lambda i: objs[i][dim])
        dist[order[0]] = dist[order[-1]] = math.inf
        span = objs[order[-1]][dim] - objs[order[0]][dim]
        if span <= 0:
            continue
        for a, b, c in zip(order, order[1:], order[2:]):
            dist[b] += (objs[c][dim] - objs[a][dim]) / span
    return dist


def reference_run_pso(ev, schema, rng: np.random.Generator) -> None:
    """The discrete swarm scanning the leader weights from their start for every draw."""
    cards = schema.cardinalities
    k = len(cards)
    n = 30
    hi = np.array(cards, dtype=float) - 1.0
    pos = rng.uniform(0.0, 1.0, size=(n, k)) * hi
    vel = np.zeros((n, k))
    best = [ev.evaluate(tuple(int(round(v)) for v in row)) for row in pos]
    while True:
        front = ev.front_points()
        crowd = _front_crowding([(p.objectives.area, p.objectives.latency) for p in front])
        finite = crowd[np.isfinite(crowd)]
        cap = (finite.max() if finite.size else 0.0) * 2.0 + 1.0
        weights = np.where(np.isfinite(crowd), crowd, cap) + 1e-9
        weights = weights / weights.sum()
        for i in range(n):
            leader = front[_loop_sample_categorical(rng, weights)]
            target = np.array(leader.knobs, dtype=float)
            own = np.array(best[i].knobs, dtype=float)
            r1, r2 = rng.random(k), rng.random(k)
            vel[i] = 0.7 * vel[i] + 1.5 * r1 * (own - pos[i]) + 1.5 * r2 * (target - pos[i])
            np.clip(vel[i], -hi, hi, out=vel[i])
            pos[i] = np.clip(pos[i] + vel[i], 0.0, hi)
            point = ev.evaluate(tuple(int(round(v)) for v in pos[i]))
            if _dominates(point.objectives, best[i].objectives):
                best[i] = point
            elif not _dominates(best[i].objectives, point.objectives) and rng.random() < 0.5:
                best[i] = point


# -- the explorers' scalar draws made on the generator itself -------------------


def _reference_tournament(rng: np.random.Generator, ranks: list[int], crowd) -> int:
    i, j = int(rng.integers(len(ranks))), int(rng.integers(len(ranks)))
    if (ranks[i], -crowd[i]) <= (ranks[j], -crowd[j]):
        return i
    return j


def _reference_survivors(pop: list, size: int) -> list:
    objs = [(p.objectives.area, p.objectives.latency) for p in pop]
    ranks = reference_nondominated_ranks(objs)
    crowd = reference_crowding(objs, ranks)
    order = sorted(range(len(pop)), key=lambda i: (ranks[i], -crowd[i]))
    return [pop[i] for i in order[:size]]


def _reference_parents(pop: list) -> tuple[list[int], np.ndarray]:
    objs = [(p.objectives.area, p.objectives.latency) for p in pop]
    ranks = reference_nondominated_ranks(objs)
    return ranks, reference_crowding(objs, ranks)


def reference_run_nsga2(ev, schema, rng: np.random.Generator) -> None:
    """NSGA2 with every draw made on the generator: scalar tournaments and
    mutations, a vector crossover mask, and the O(n^2) reference ranks."""
    cards = schema.cardinalities
    k = len(cards)
    pop = [ev.evaluate(_scalar_unseen_random(ev, rng, cards)) for _ in range(40)]
    while True:
        ranks, crowd = _reference_parents(pop)
        kids: list = []
        while len(kids) < 40:
            pa = pop[_reference_tournament(rng, ranks, crowd)].knobs
            pb = pop[_reference_tournament(rng, ranks, crowd)].knobs
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
                if len(kids) == 40:
                    break
        pop = _reference_survivors(pop + kids, 40)


def reference_run_qlmoea(ev, schema, rng: np.random.Generator) -> None:
    """QLMOEA with every draw made on the generator, `rng.permutation` for
    the mutated axes and the O(n^2) reference ranks."""
    cards = schema.cardinalities
    k = len(cards)
    q: dict[tuple[int, int], np.ndarray] = {}
    pop = [ev.evaluate(_scalar_unseen_random(ev, rng, cards)) for _ in range(40)]
    prev_front = len(ev.front_points())
    growth_sign = 1

    def state() -> tuple[int, int]:
        return (min(9, 10 * ev.evaluations_used // ev.max_evaluations), growth_sign)

    def q_row(s: tuple[int, int]) -> np.ndarray:
        return q.setdefault(s, np.zeros(4))

    while True:
        row = q_row(state())
        op = int(rng.integers(4)) if rng.random() < 0.1 else int(np.argmax(row))
        ranks, crowd = _reference_parents(pop)
        kids: list = []
        try:
            while len(kids) < 40:
                if op == 0:
                    pa = pop[_reference_tournament(rng, ranks, crowd)].knobs
                    pb = pop[_reference_tournament(rng, ranks, crowd)].knobs
                    mask = rng.random(k) < 0.5
                    child = tuple(pa[i] if mask[i] else pb[i] for i in range(k))
                elif op in (1, 2):
                    child = list(pop[_reference_tournament(rng, ranks, crowd)].knobs)
                    for axis in rng.permutation(k)[: min(op, k)]:
                        child[axis] = int(rng.integers(0, cards[axis]))
                    child = tuple(child)
                else:
                    child = _scalar_random_knobs(rng, cards)
                kids.append(ev.evaluate(child))
        finally:
            now_front = len(ev.front_points())
            reward = max(-1.0, min(1.0, (now_front - prev_front) / max(1, prev_front)))
            growth_sign = 1 + (now_front > prev_front) - (now_front < prev_front)
            prev_front = now_front
            row[op] += 0.1 * (reward + 0.9 * float(q_row(state()).max()) - row[op])
        pop = _reference_survivors(pop + kids, 40)


def reference_run_sa(ev, schema, rng: np.random.Generator) -> None:
    """Simulated annealing with every draw made on the generator."""
    cards = schema.cardinalities
    k = len(cards)
    current = ev.evaluate(_scalar_random_knobs(rng, cards))
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
        candidate = ev.evaluate(current.knobs[:axis] + (level,) + current.knobs[axis + 1 :])
        lat_c, area_c = _log_objectives(current)
        lat_n, area_n = _log_objectives(candidate)
        delta = weight * (lat_n - lat_c) + (1.0 - weight) * (area_n - area_c)
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = candidate
        temperature *= 0.995
        step += 1
