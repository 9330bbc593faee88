"""Learning which explorer to run on an unseen benchmark.

Two stages share one feature view of a benchmark. A supervised head maps the
24 structural features to a distribution over the ten explorers, trained
against observed per-benchmark winners. A PPO agent then refines that prior:
its state is the standardized features concatenated with the supervised
probabilities, its single action picks an explorer, and its reward is the
negative regret of that pick relative to the best explorer on the benchmark.
Episodes are one decision long (a recommendation fully resolves a benchmark,
so there is no state transition), but the advantage estimator is written for
any horizon and for a batch of episodes that share one. An epoch's buffer is
a set of aligned arrays, one row per benchmark: states, actions, behaviour
log-probabilities, advantages and critic targets.

Both stages train with one recipe. Its settings are the module constants
below, which every checkpoint header records, and the training code reads
them where it uses them; a caller chooses only the seed and the epoch counts.

This module alone writes and reads `checkpoint.txt`, line-oriented text with
floats at 17 significant digits, which round-trips float64 exactly and diffs
cleanly. A header line of settings comes first, then the scaler's
`scaler_mean` and `scaler_std` sections, then for each of the head, the actor
and the critic an `mlp INPUTS HIDDEN OUTPUTS` line and its `w1`, `b1`, `w2`
and `b2` sections. Every section holds only finite values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .benchmarks import FEATURE_DIM, FEATURE_NAMES
from .explorers import ExplorerId
from .hashing import mix64
from .nn import (
    Mlp,
    backward,
    cross_entropy,
    forward,
    log_softmax,
    mean_entropy,
    mean_squared_error,
    sgd_step,
    softmax,
    softmax_parts,
)

N_EXPLORERS = len(ExplorerId)
STATE_DIM = FEATURE_DIM + N_EXPLORERS

SUPERVISED_EPOCHS = 250
SUPERVISED_LR = 3e-4
RL_EPOCHS = 1000
RL_LR = 5e-4
CLIP_RATIO = 0.2
DISCOUNT = 0.99
GAE_LAMBDA = 0.95
VALUE_COEF = 0.5
ENTROPY_COEF = 0.01
UPDATE_PASSES = 4
HIDDEN = 256

_SUPERVISED_TAG = 0x51AD
_RL_TAG = 0x77E0

# Init gains. The head's first layer is widened so pinned-rate gradient
# descent converges within its epoch budget; the actor starts out following
# the supervised prior with this logit gain.
_HEAD_FEATURE_GAIN = 10.0
_PRIOR_GAIN = 3.0
_MIN_BEST_SCORE = 1e-6


# -- feature standardization ----------------------------------------------------


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature affine map fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(features: np.ndarray) -> "FeatureScaler":
        """Raises OverflowError, naming the feature, where a mean or spread is not finite."""
        features = np.atleast_2d(features)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = features.mean(axis=0), features.std(axis=0)
        for name, m, s in zip(FEATURE_NAMES, mean, std):
            if not (math.isfinite(m) and math.isfinite(s)):
                raise OverflowError(f"feature {name} overflows the scaler: mean {m}, std {s}")
        return FeatureScaler(mean=mean, std=np.where(std < 1e-9, 1.0, std))

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(features) - self.mean) / self.std


# -- stage one: supervised prior ------------------------------------------------


@dataclass(frozen=True)
class SupervisedHead:
    """Features -> explorer distribution, with its own input scaling."""

    scaler: FeatureScaler
    net: Mlp

    def logits(self, features: np.ndarray) -> np.ndarray:
        return forward(self.net, self.scaler.apply(features))[0]


def pretrain_supervised(
    features: np.ndarray,
    labels: Sequence[int],
    *,
    epochs: int = SUPERVISED_EPOCHS,
    seed: int = 0,
) -> tuple[SupervisedHead, list[float]]:
    """Full-batch gradient descent on cross-entropy; returns the loss curve.

    The curve holds the loss measured before each update, one entry per epoch.
    A single-class dataset trains a constant predictor and warns rather than
    failing: it is degenerate but well-defined.
    """
    features = np.atleast_2d(features)
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    if len(set(labels.tolist())) < 2:
        warnings.warn("single-class training set: head degenerates to a constant predictor")
    scaler = FeatureScaler.fit(features)
    x = scaler.apply(features)
    # With the small fixed learning rate and only 250 full-batch steps, a
    # conventional init barely moves. Widening the random hidden features and
    # zeroing the output layer makes this a softmax regression on strong
    # random features: the loss starts at exactly ln(n classes) and descends
    # fast enough to converge within the fixed epoch budget.
    net = Mlp.init(features.shape[1], HIDDEN, N_EXPLORERS, seed=mix64(_SUPERVISED_TAG, seed))
    net = Mlp.from_arrays(net.w1 * _HEAD_FEATURE_GAIN, net.b1, np.zeros_like(net.w2), net.b2)
    grad = Mlp(net.dims, np.empty_like(net.params))
    curve: list[float] = []
    for _ in range(epochs):
        logits, hidden = forward(net, x)
        loss, dlogits = cross_entropy(logits, labels)
        if not math.isfinite(loss):
            raise FloatingPointError("supervised pretraining diverged: non-finite loss")
        curve.append(loss)
        sgd_step(net.params, backward(net, x, hidden, dlogits, out=grad), SUPERVISED_LR)
    return SupervisedHead(scaler=scaler, net=net), curve


# -- generalized advantage estimation --------------------------------------------


def gae(
    rewards: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    *,
    gamma: float = DISCOUNT,
    lam: float = GAE_LAMBDA,
    bootstrap: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(advantages, returns) via the backward recursion, with time on the last axis.

    Takes one episode of shape (horizon,) or a batch of episodes of shape
    (episodes, horizon) that share one horizon and one bootstrap value; each
    row of a batch gets exactly the numbers it would get alone. With lam=0
    this reduces to one-step temporal differences; with lam=1 the advantage is
    the discounted return minus the value baseline. Returns are advantage plus
    value, the critic's regression target.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape or rewards.ndim not in (1, 2):
        raise ValueError(
            "rewards and values must be equal-length sequences, one episode or a batch of them"
        )
    horizon = rewards.shape[-1]
    next_values = np.concatenate(
        [values[..., 1:], np.full(values.shape[:-1] + (1,), bootstrap)], axis=-1
    )
    deltas = rewards + gamma * next_values - values
    advantages = np.empty_like(deltas)
    acc = 0.0
    for t in range(horizon - 1, -1, -1):
        acc = deltas[..., t] + gamma * lam * acc
        advantages[..., t] = acc
    return advantages, advantages + values


# -- ppo pieces -------------------------------------------------------------------


def regret_reward(adrs_chosen: np.ndarray | float, adrs_best: np.ndarray | float) -> np.ndarray:
    """Negative relative regret, elementwise; zero exactly when the pick ties the best."""
    return -np.abs(adrs_chosen - adrs_best) / np.maximum(adrs_best, _MIN_BEST_SCORE)


# Training floor for stored rewards. When the best explorer's score is at or
# near zero, relative regret blows up to -1e5 and beyond, and value targets at
# that scale drive the critic's quadratic loss to overflow under the fixed
# update recipe. Floored rewards keep every target in a range the critic can
# track while preserving the ordering of all ordinarily-scaled picks; zero
# still means an optimal pick.
REWARD_FLOOR = -100.0


def ppo_policy_loss(
    logits: np.ndarray,
    actions: np.ndarray,
    old_logp: np.ndarray,
    advantages: np.ndarray,
    *,
    parts: tuple[np.ndarray, np.ndarray],
    onehot: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Clipped-ratio surrogate loss and its exact gradient on the logits.

    The caller passes `softmax_parts(logits)` as `parts` and the actions'
    one-hot rows as `onehot`; neither is modified.
    """
    n = logits.shape[0]
    logp, p = parts
    ratio = np.exp(logp[np.arange(n), actions] - old_logp)
    clipped = np.minimum(np.maximum(ratio, 1.0 - CLIP_RATIO), 1.0 + CLIP_RATIO)
    surr_plain = ratio * advantages
    surr_clip = clipped * advantages
    loss = -(np.add.reduce(np.minimum(surr_plain, surr_clip)) / n)
    # gradient flows through the ratio only where the plain branch is active
    # or the clip is not binding; elsewhere the objective is locally flat
    inside = clipped == ratio  # 1 - CLIP_RATIO <= ratio <= 1 + CLIP_RATIO; false for NaN
    active = (surr_plain <= surr_clip) | inside
    scale = np.where(active, advantages, 0.0)
    scale *= ratio
    dlogits = onehot - p
    dlogits *= -scale[:, None]
    dlogits /= n
    return float(loss), dlogits


def normalized(advantages: np.ndarray) -> np.ndarray:
    """Batch-standardized advantages; short or degenerate batches pass through."""
    n = advantages.size
    if n < 2:
        return advantages
    # numpy's mean and std, spelled out: the sum over the count, and the root
    # of the mean squared deviation from that
    centred = advantages - np.add.reduce(advantages) / n
    std = math.sqrt(np.add.reduce(centred * centred) / n)
    if std < 1e-8:
        return advantages
    centred /= std
    return centred


# -- stage two: ppo refinement ----------------------------------------------------


@dataclass(frozen=True)
class PpoAgent:
    """Actor over hybrid states, critic over standardized features, frozen prior."""

    head: SupervisedHead
    actor: Mlp
    critic: Mlp

    @staticmethod
    def init(head: SupervisedHead, seed: int = 0) -> "PpoAgent":
        """Prior-anchored start: actor logits begin at gain * supervised probs.

        The first ten hidden units pass the probability block of the state
        straight through (probabilities are non-negative, so the ReLU is
        transparent), and the output layer reads only those units at first.
        The remaining hidden units see the whole state with a small random
        init, giving the updates room to learn feature-conditioned
        corrections. The critic's output layer starts at zero, so initial
        values are 0 and first-epoch advantages are the raw rewards.
        """
        actor = Mlp.init(STATE_DIM, HIDDEN, N_EXPLORERS, seed=mix64(_RL_TAG, seed, 1))
        w1 = actor.w1.copy()
        w1[:N_EXPLORERS, :] = 0.0
        w1[np.arange(N_EXPLORERS), FEATURE_DIM + np.arange(N_EXPLORERS)] = 1.0
        w2 = np.zeros_like(actor.w2)
        w2[np.arange(N_EXPLORERS), np.arange(N_EXPLORERS)] = _PRIOR_GAIN
        critic = Mlp.init(FEATURE_DIM, HIDDEN, 1, seed=mix64(_RL_TAG, seed, 2))
        return PpoAgent(
            head=head,
            actor=Mlp.from_arrays(w1, actor.b1, w2, actor.b2),
            critic=Mlp.from_arrays(critic.w1, critic.b1, np.zeros_like(critic.w2), critic.b2),
        )

    def states(self, features: np.ndarray) -> np.ndarray:
        z = self.head.scaler.apply(features)
        probs = softmax(forward(self.head.net, z)[0])
        return np.concatenate([z, probs], axis=1)


class _Learner:
    """Copies of an agent's actor and critic that PPO passes update in place.

    Both networks' parameters are copied once, back to back into one vector,
    when the learner is made, and both gradients share one buffer of the same
    layout. Every pass writes the two gradients into that buffer and takes one
    descent step on the joint vector, which is the two networks' steps
    elementwise; the agent the caller holds never changes.
    """

    def __init__(self, agent: PpoAgent) -> None:
        self.agent = agent
        actor, critic = agent.actor, agent.critic
        self.params = np.concatenate([actor.params, critic.params])
        self.grad = np.empty_like(self.params)
        cut = actor.params.size
        self.actor = Mlp(actor.dims, self.params[:cut])
        self.critic = Mlp(critic.dims, self.params[cut:])
        self.actor_grad = Mlp(actor.dims, self.grad[:cut])
        self.critic_grad = Mlp(critic.dims, self.grad[cut:])

    def trained(self) -> PpoAgent:
        return replace(self.agent, actor=self.actor, critic=self.critic)

    def update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        old_logp: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
    ) -> list[float]:
        """UPDATE_PASSES gradient steps on one buffer; returns the combined losses."""
        n = len(actions)
        if n == 0:
            raise ValueError("a PPO update needs a non-empty buffer")
        actor, critic = self.actor, self.critic
        z = states[:, :FEATURE_DIM]
        target = returns[:, None]
        onehot = np.zeros((n, actor.dims[2]))
        onehot[np.arange(n), actions] = 1.0
        losses: list[float] = []
        for _ in range(UPDATE_PASSES):
            logits, hidden = forward(actor, states)
            parts = softmax_parts(logits)
            policy_loss, dlogits = ppo_policy_loss(
                logits, actions, old_logp, advantages, parts=parts, onehot=onehot
            )
            entropy, d_entropy = mean_entropy(logits, parts=parts)
            d_entropy *= ENTROPY_COEF
            dlogits -= d_entropy
            pred, hidden_c = forward(critic, z)
            value_loss, d_value = mean_squared_error(pred, target)
            total = policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * entropy
            if not math.isfinite(total):
                raise FloatingPointError("ppo update diverged: non-finite loss")
            losses.append(total)
            backward(actor, states, hidden, dlogits, out=self.actor_grad)
            d_value *= VALUE_COEF
            backward(critic, z, hidden_c, d_value, out=self.critic_grad)
            sgd_step(self.params, self.grad, RL_LR)
        return losses


def train_rl(
    agent: PpoAgent,
    features: np.ndarray,
    score_matrix: np.ndarray,
    *,
    epochs: int = RL_EPOCHS,
    seed: int = 0,
) -> tuple[PpoAgent, list[float]]:
    """PPO over one-decision episodes; returns the per-epoch mean reward curve.

    Each epoch orders the training benchmarks by a fresh seeded permutation,
    samples one explorer per benchmark from the current policy by inverse CDF
    on one uniform draw each, scores the picks against the benchmark's known
    per-explorer results, and applies one clipped-surrogate update over the
    buffer. The buffer is built as arrays in permutation order, and the
    advantages of all n one-step episodes come from one batch `gae` call.
    Every epoch updates one copy of the agent's networks in place; the given
    agent is left as it was.
    """
    features = np.atleast_2d(features)
    score_matrix = np.atleast_2d(score_matrix)
    n = features.shape[0]
    if score_matrix.shape != (n, N_EXPLORERS):
        raise ValueError(f"score matrix must be (n, {N_EXPLORERS}), got {score_matrix.shape}")
    rng = np.random.default_rng(np.random.SeedSequence([_RL_TAG, seed & (2**64 - 1)]))
    states = agent.states(features)
    z = states[:, :FEATURE_DIM]
    best = score_matrix.min(axis=1)
    learner = _Learner(agent)
    curve: list[float] = []
    for _ in range(epochs):
        logp = log_softmax(forward(learner.actor, states)[0])
        values = forward(learner.critic, z)[0][:, 0]
        order = rng.permutation(n)
        u = rng.random(n)
        # the first index whose cumulative probability reaches u, as
        # searchsorted(side="left") finds it; rounding can leave u above the
        # last cumulative sum, hence the cap
        cdf = np.cumsum(np.exp(logp[order]), axis=1)
        actions = np.minimum((cdf < u[:, None]).sum(axis=1), N_EXPLORERS - 1)
        rewards = np.maximum(
            regret_reward(score_matrix[order, actions], best[order]), REWARD_FLOOR
        )
        advantages, returns = gae(rewards[:, None], values[order][:, None])
        curve.append(float(rewards.sum() / n))
        learner.update(
            states[order], actions, logp[order, actions], normalized(advantages[:, 0]), returns[:, 0]
        )
    return learner.trained(), curve


def recommend(agent: PpoAgent, features: np.ndarray) -> tuple[ExplorerId, np.ndarray]:
    """Greedy hybrid pick and the policy's full distribution for one benchmark."""
    logits, _ = forward(agent.actor, agent.states(features))
    policy = softmax(logits)[0]
    return ExplorerId(int(np.argmax(logits[0]))), policy


# -- checkpoints --------------------------------------------------------------------


_CHECKPOINT_HEADER = "selector-checkpoint"


def _header_settings(fingerprint: str, seed: int) -> dict[str, object]:
    """Every setting a checkpoint header carries, in header order; `load_selector`
    wants each one, parseable as the type of its value here."""
    return dict(
        fingerprint=fingerprint, seed=seed, supervised_epochs=SUPERVISED_EPOCHS,
        supervised_lr=SUPERVISED_LR, rl_epochs=RL_EPOCHS, rl_lr=RL_LR, clip=CLIP_RATIO,
        gamma=DISCOUNT, lam=GAE_LAMBDA, value_coef=VALUE_COEF, entropy_coef=ENTROPY_COEF,
        passes=UPDATE_PASSES, hidden=HIDDEN,
    )


def save_selector(out: TextIO, agent: PpoAgent, *, fingerprint: str, seed: int) -> None:
    """One text record: header with hyperparameters, scaler, then three nets."""
    settings = _header_settings(fingerprint, seed).items()
    tokens = (f"{k}={v:.17g}" if type(v) is float else f"{k}={v}" for k, v in settings)
    out.write(f"{_CHECKPOINT_HEADER} {' '.join(tokens)}\n")
    head = agent.head
    _write_matrix(out, "scaler_mean", head.scaler.mean)
    _write_matrix(out, "scaler_std", head.scaler.std)
    for net in (head.net, agent.actor, agent.critic):
        out.write("mlp {} {} {}\n".format(*net.dims))
        for name in ("w1", "b1", "w2", "b2"):
            _write_matrix(out, name, getattr(net, name))


def load_selector(lines: Iterable[str]) -> tuple[PpoAgent, dict[str, str]]:
    """Rebuild (agent, header settings) from the lines of one checkpoint record.

    The header must carry every setting `save_selector` writes, each parseable
    as its type. Each network's `mlp` line must name its role's inputs and
    outputs and the header's `hidden`, and its four sections are then read at
    the shapes that line gives.
    """
    lines = iter(lines)
    header = next(lines, None)
    if header is None or not header.startswith(_CHECKPOINT_HEADER + " "):
        raise ValueError(f"not a selector checkpoint: {header!r}")
    settings = dict(
        token.split("=", 1) for token in header.split()[1:] if "=" in token
    )
    for key, value in _header_settings("", 0).items():
        kind = type(value)
        try:
            kind(settings[key])
        except KeyError:
            raise ValueError(f"header has no setting {key!r}") from None
        except ValueError:
            raise ValueError(f"header {key}={settings[key]!r} is not {kind.__name__}") from None
    hidden = int(settings["hidden"])
    mean = _read_matrix(lines, "scaler_mean", (1, FEATURE_DIM))[0]
    std = _read_matrix(lines, "scaler_std", (1, FEATURE_DIM))[0]
    if (std <= 0.0).any():
        column = int(np.argmax(std <= 0.0))
        raise ValueError(f"section 'scaler_std' column {column} is not positive")
    scaler = FeatureScaler(mean=mean, std=std)
    nets = []
    for role, inputs, outputs in (
        ("head", FEATURE_DIM, N_EXPLORERS),
        ("actor", STATE_DIM, N_EXPLORERS),
        ("critic", FEATURE_DIM, 1),
    ):
        line = next(lines, None)
        if line is None or not line.startswith("mlp "):
            raise ValueError(f"{role} network: not an mlp checkpoint: {line!r}")
        dims = line.split()[1:]
        if len(dims) != 3:
            raise ValueError(f"{role} network: malformed mlp header: {line!r}")
        # dimensions compare as text, as a section's do
        if (dims[0], dims[2]) != (str(inputs), str(outputs)):
            raise ValueError(f"{role} network is {'-'.join(dims)}, wants {inputs}-*-{outputs}")
        if dims[1] != str(hidden):
            raise ValueError(
                f"header says hidden={hidden}, the {role} network has {dims[1]} hidden units"
            )
        shapes = (
            ("w1", (hidden, inputs)), ("b1", (1, hidden)),
            ("w2", (outputs, hidden)), ("b2", (1, outputs)),
        )
        try:
            params = [_read_matrix(lines, name, shape).ravel() for name, shape in shapes]
        except ValueError as exc:
            raise ValueError(f"{role} network: {exc}") from None
        nets.append(Mlp((inputs, hidden, outputs), np.concatenate(params)))
    head = SupervisedHead(scaler=scaler, net=nets[0])
    return PpoAgent(head=head, actor=nets[1], critic=nets[2]), settings


def _write_matrix(out: TextIO, name: str, arr: np.ndarray) -> None:
    """Write one named section, which must hold only finite values."""
    arr = np.atleast_2d(arr)
    _require_finite(name, arr)
    out.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        out.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _read_matrix(lines: Iterator[str], name: str, shape: tuple[int, int]) -> np.ndarray:
    """Read one named section, which must have the given shape and only finite values."""
    header = next(lines, None)
    if header is None:
        raise ValueError(f"checkpoint truncated before section {name!r}")
    fields = header.split()
    if len(fields) != 3 or fields[0] != name:
        raise ValueError(f"expected section {name!r}, found {header!r}")
    rows, cols = shape
    if fields[1:] != [str(rows), str(cols)]:
        raise ValueError(f"section {name!r} is {fields[1]}x{fields[2]}, wants {rows}x{cols}")
    data = np.empty((rows, cols))
    for r in range(rows):
        line = next(lines, None)
        if line is None:
            raise ValueError(f"checkpoint truncated inside section {name!r}")
        values = line.split()
        if len(values) != cols:
            raise ValueError(f"section {name!r} row {r} has {len(values)} values, wants {cols}")
        try:
            data[r] = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"section {name!r} row {r} holds a non-number") from None
    _require_finite(name, data)
    return data


def _require_finite(name: str, data: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"section {name!r} row {r} column {c} is {data[r, c]}, not finite")


__all__ = [
    "CLIP_RATIO",
    "DISCOUNT",
    "ENTROPY_COEF",
    "GAE_LAMBDA",
    "HIDDEN",
    "N_EXPLORERS",
    "REWARD_FLOOR",
    "RL_EPOCHS",
    "RL_LR",
    "SUPERVISED_EPOCHS",
    "SUPERVISED_LR",
    "UPDATE_PASSES",
    "VALUE_COEF",
    "FeatureScaler",
    "PpoAgent",
    "SupervisedHead",
    "gae",
    "load_selector",
    "normalized",
    "ppo_policy_loss",
    "pretrain_supervised",
    "recommend",
    "regret_reward",
    "save_selector",
    "train_rl",
]
