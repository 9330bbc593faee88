"""Tests for the explorer-selection models: prior head, GAE, and PPO."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsekit.explorers import ExplorerId
from dsekit.nn import (
    Mlp,
    backward,
    cross_entropy,
    forward,
    log_softmax,
    mean_entropy,
    mean_squared_error,
    softmax,
    softmax_parts,
)
from dsekit.selector import (
    CLIP_RATIO,
    ENTROPY_COEF,
    FEATURE_DIM,
    N_EXPLORERS,
    REWARD_FLOOR,
    RL_LR,
    STATE_DIM,
    SUPERVISED_LR,
    UPDATE_PASSES,
    VALUE_COEF,
    FeatureScaler,
    PpoAgent,
    gae,
    load_selector,
    normalized,
    _Learner,
    ppo_policy_loss,
    pretrain_supervised,
    recommend,
    regret_reward,
    save_selector,
    train_rl,
)
from oracles import (
    grad_check,
    naive_discounted_advantages,
    reference_cross_entropy,
    reference_mean_entropy,
    reference_mean_squared_error,
    reference_ppo_policy_loss,
    reference_ppo_update,
    reference_pretrain_supervised,
    reference_train_rl,
)


def blob_problem(rng, n=40, blobs=2, separation=3.0, owners=(1, 4, 7)):
    """Features in well-separated blobs, each blob owning one best explorer."""
    features = np.zeros((n, 24))
    scores = np.zeros((n, N_EXPLORERS))
    for i in range(n):
        blob = i % blobs
        features[i] = rng.normal(size=24) + separation * blob
        scores[i] = rng.uniform(0.4, 0.9, size=N_EXPLORERS)
        scores[i, owners[blob]] = rng.uniform(0.01, 0.05)
    return features, scores, scores.argmin(axis=1)


class TestGae:
    def test_single_terminal_step_equals_delta(self):
        adv, ret = gae([1.0], [0.5], gamma=0.99, lam=0.95, bootstrap=0.0)
        assert adv[0] == pytest.approx(0.5, abs=1e-15)
        assert ret[0] == pytest.approx(1.0, abs=1e-15)

    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            h = int(rng.integers(1, 11))
            rewards = rng.normal(size=h)
            values = rng.normal(size=h)
            boot = float(rng.normal())
            adv, _ = gae(rewards, values, gamma=0.99, lam=0.0, bootstrap=boot)
            nxt = np.append(values[1:], boot)
            np.testing.assert_allclose(adv, rewards + 0.99 * nxt - values, atol=1e-12)

    def test_lambda_one_is_discounted_return_minus_value(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            h = int(rng.integers(1, 11))
            rewards = rng.normal(size=h)
            values = rng.normal(size=h)
            boot = float(rng.normal())
            adv, ret = gae(rewards, values, gamma=0.97, lam=1.0, bootstrap=boot)
            for t in range(h):
                total = sum(0.97**l * rewards[t + l] for l in range(h - t))
                total += 0.97 ** (h - t) * boot
                assert adv[t] == pytest.approx(total - values[t], abs=1e-12)
                assert ret[t] == pytest.approx(total, abs=1e-12)

    def test_matches_double_sum_oracle_at_generic_lambda(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            h = int(rng.integers(1, 11))
            rewards = list(rng.normal(size=h))
            values = list(rng.normal(size=h))
            boot = float(rng.normal())
            adv, ret = gae(rewards, values, gamma=0.99, lam=0.95, bootstrap=boot)
            expect = naive_discounted_advantages(rewards, values, boot, 0.99, 0.95)
            np.testing.assert_allclose(adv, expect, atol=1e-12)
            np.testing.assert_allclose(ret, np.asarray(expect) + values, atol=1e-12)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            gae([1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match="equal-length"):
            gae(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="equal-length"):
            gae(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))

    def test_batch_rows_equal_single_episodes_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for horizon in (1, 2, 7):
            rewards = rng.normal(size=(9, horizon))
            values = rng.normal(size=(9, horizon))
            rewards[0] = -0.0
            values[1] = 0.0
            rewards[2, 0], values[2, 0] = -0.0, 0.0
            rewards[3], values[3] = -0.0, -0.0
            for bootstrap in (0.0, -0.0, 0.7):
                adv, ret = gae(rewards, values, gamma=0.99, lam=0.95, bootstrap=bootstrap)
                for row in range(rewards.shape[0]):
                    one_adv, one_ret = gae(
                        rewards[row], values[row], gamma=0.99, lam=0.95, bootstrap=bootstrap
                    )
                    assert adv[row].tobytes() == one_adv.tobytes()
                    assert ret[row].tobytes() == one_ret.tobytes()


class TestPolicyLoss:
    def safe_config(self, rng, n=6):
        """Logits, actions, old log-probs, advantages away from clip kinks.

        Rows alternate between ratios pinned near 1 (inside the clip band)
        and ratios pushed far outside it, so both branches of the objective
        are exercised while finite differences stay on one side of each kink.
        """
        logits = rng.normal(scale=1.5, size=(n, N_EXPLORERS))
        actions = rng.integers(N_EXPLORERS, size=n)
        logp = log_softmax(logits)[np.arange(n), actions]
        shift = np.where(np.arange(n) % 2 == 0, 0.0, np.log(1.6))
        old_logp = logp - shift * rng.choice([-1.0, 1.0], size=n)
        advantages = rng.normal(size=n)
        advantages[np.abs(advantages) < 0.1] = 0.5
        return logits, actions, old_logp, advantages

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            logits, actions, old_logp, adv = self.safe_config(rng)

            def fn(vec):
                z = vec.reshape(logits.shape)
                loss, dlogits = ppo_policy_loss(z, actions, old_logp, adv)
                return loss, dlogits.ravel()

            assert grad_check(fn, logits.ravel().copy()) <= 1e-4

    def test_unit_ratio_loss_is_negative_mean_advantage(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(8, N_EXPLORERS))
        actions = rng.integers(N_EXPLORERS, size=8)
        old_logp = log_softmax(logits)[np.arange(8), actions]
        adv = rng.normal(size=8)
        loss, _ = ppo_policy_loss(logits, actions, old_logp, adv)
        assert loss == pytest.approx(-adv.mean(), abs=1e-12)

    def test_clip_flattens_faraway_ratios(self):
        # positive advantage and a ratio far above the band: term = -(1+eps)*A
        logits = np.zeros((1, N_EXPLORERS))
        logits[0, 0] = 4.0
        old_logp = np.array([np.log(1e-3)])
        loss, dlogits = ppo_policy_loss(logits, np.array([0]), old_logp, np.array([1.0]))
        assert loss == pytest.approx(-1.2)
        assert np.abs(dlogits).max() == 0.0

    def test_per_sample_term_never_below_clip_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            logits, actions, old_logp, adv = self.safe_config(rng, n=1)
            loss, _ = ppo_policy_loss(logits, actions, old_logp, adv)
            assert -loss >= -(1.2) * abs(adv[0]) - 1e-12


class TestRewardAndScaling:
    def test_best_choice_earns_zero(self):
        assert regret_reward(0.1, 0.1) == 0.0

    def test_regret_is_relative(self):
        assert regret_reward(0.2, 0.1) == pytest.approx(-1.0)

    def test_zero_best_with_zero_choice_is_zero(self):
        assert regret_reward(0.0, 0.0) == 0.0

    def test_zero_best_uses_floor(self):
        assert regret_reward(2e-6, 0.0) == pytest.approx(-2.0)

    def test_normalization_and_passthroughs(self):
        rng = np.random.default_rng(5)
        adv = rng.normal(size=64)
        scaled = normalized(adv)
        assert scaled.mean() == pytest.approx(0.0, abs=1e-12)
        assert scaled.std() == pytest.approx(1.0, abs=1e-12)
        one = np.array([3.7])
        assert normalized(one) is one
        flat = np.full(5, 2.5)
        assert normalized(flat) is flat

    def test_scaler_uses_train_statistics_only(self):
        rng = np.random.default_rng(6)
        train = rng.normal(loc=5.0, scale=2.0, size=(40, 24))
        scaler = FeatureScaler.fit(train)
        z = scaler.apply(train)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)
        other = scaler.apply(rng.normal(size=(4, 24)))
        assert np.abs(other.mean()) > 0.5  # not re-centered on the new data

    def test_scaler_passes_constant_columns_through(self):
        scaler = FeatureScaler.fit(np.ones((10, 3)))
        assert np.all(scaler.std == 1.0)
        assert np.all(scaler.apply(np.ones((10, 3))) == 0.0)


def head_pick(head, features) -> ExplorerId:
    """The supervised head's greedy pick for one benchmark."""
    return ExplorerId(int(np.argmax(head.logits(features)[0])))


class TestSupervisedHead:
    def test_two_family_separable_data_reaches_high_accuracy(self):
        rng = np.random.default_rng(7)
        features, _, labels = blob_problem(rng, n=40, blobs=2)
        head, curve = pretrain_supervised(features, labels, seed=0)
        assert len(curve) == 250
        assert curve[-1] <= curve[0]
        picks = [head_pick(head, features[i : i + 1]) for i in range(len(labels))]
        accuracy = np.mean([p.value == l for p, l in zip(picks, labels)])
        assert accuracy >= 0.95

    def test_one_sample_is_memorized(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(1, 24))
        head, _ = pretrain_supervised(features, [7], seed=0)
        assert head_pick(head, features) is ExplorerId.AC

    def test_single_class_warns_and_degenerates(self):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(6, 24))
        with pytest.warns(UserWarning, match="single-class"):
            head, _ = pretrain_supervised(features, [3] * 6, epochs=50)
        assert head_pick(head, rng.normal(size=(1, 24))) is ExplorerId.PSO

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pretrain_supervised(np.zeros((0, 24)), [])

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(10)
        features, _, labels = blob_problem(rng, n=12)
        head_a, curve_a = pretrain_supervised(features, labels, epochs=40)
        head_b, curve_b = pretrain_supervised(features, labels, epochs=40)
        assert curve_a == curve_b
        assert (head_a.net.w2 == head_b.net.w2).all()


PPO_SETTINGS = dict(lr=RL_LR, clip=CLIP_RATIO, value_coef=VALUE_COEF, entropy_coef=ENTROPY_COEF)


def learner_update(agent, *buffer, passes=UPDATE_PASSES):
    """One PPO update of a fresh learner at the training settings: (agent, losses)."""
    learner = _Learner(agent)
    losses = learner.update(*buffer, passes=passes, **PPO_SETTINGS)
    return learner.trained(), losses


class TestPpoUpdate:
    def make_buffer(self, rng, agent, features, scores):
        """(states, actions, old log-probs, advantages, returns) for random picks."""
        states = agent.states(features)
        logp = log_softmax(forward(agent.actor, states)[0])
        values = forward(agent.critic, states[:, :24])[0][:, 0]
        rows = np.arange(len(features))
        actions = np.array([int(rng.integers(N_EXPLORERS)) for _ in rows])
        rewards = regret_reward(scores[rows, actions], scores.min(axis=1))
        advs, rets = gae(rewards[:, None], values[:, None])
        return states, actions, logp[rows, actions], normalized(advs[:, 0]), rets[:, 0]

    def setup_agent(self, rng, n=8):
        features, scores, labels = blob_problem(rng, n=n)
        head, _ = pretrain_supervised(features, labels, epochs=20)
        return PpoAgent.init(head, seed=0), features, scores

    def test_empty_buffer_rejected(self):
        rng = np.random.default_rng(11)
        agent, _, _ = self.setup_agent(rng)
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="non-empty"):
            learner_update(agent, np.zeros((0, STATE_DIM)), empty.astype(int), empty, empty, empty)

    def test_losses_recorded_per_pass_and_nets_move(self):
        rng = np.random.default_rng(12)
        agent, features, scores = self.setup_agent(rng)
        updated, losses = learner_update(agent, *self.make_buffer(rng, agent, features, scores))
        assert len(losses) == 4
        assert (updated.actor.w2 != agent.actor.w2).any()
        assert (updated.critic.w2 != agent.critic.w2).any()
        assert updated.head is agent.head

    def test_full_objective_gradient_on_tiny_buffer(self):
        """Total loss gradient (policy + value - entropy) vs finite differences."""
        rng = np.random.default_rng(13)
        agent, features, scores = self.setup_agent(rng, n=3)
        states, actions, old_logp, advs, _ = self.make_buffer(rng, agent, features, scores)
        actor = Mlp.init(STATE_DIM, 6, N_EXPLORERS, seed=4)

        def fn(vec):
            net = Mlp(actor.dims, vec)
            logits, hidden = forward(net, states)
            p_loss, d_policy = ppo_policy_loss(logits, actions, old_logp, advs)
            from dsekit.nn import mean_entropy

            entropy, d_entropy = mean_entropy(logits)
            dlogits = d_policy - 0.01 * d_entropy
            return p_loss - 0.01 * entropy, backward(net, states, hidden, dlogits)

        assert grad_check(fn, actor.params, sample=200, rng=rng) <= 1e-4


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# How a buffer row's probability ratio starts: the log of the factor that
# separates the old log-probability from the current one.
RATIO_SHIFTS = {
    "one": 0.0,
    "inside": np.log(1.1),
    "above": np.log(1.9),
    "below": np.log(0.4),
    "far": np.log(60.0),
}


def advantages_of(kind: str, rng, n: int) -> np.ndarray:
    if kind == "zero":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    if kind == "negative":
        return -np.abs(rng.normal(size=n)) - 1e-3
    if kind == "equal":
        return np.full(n, rng.normal())
    return rng.normal(size=n)


@st.composite
def ppo_buffers(draw):
    """(agent, states, actions, old log-probs, advantages, returns) of 1 to 8 rows."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hidden = draw(st.sampled_from([3, 16, 40]))
    actor = Mlp.init(STATE_DIM, hidden, N_EXPLORERS, seed=int(rng.integers(2**31)))
    actor = Mlp.from_arrays(
        actor.w1, rng.normal(scale=0.2, size=hidden), actor.w2 * 4.0, rng.normal(size=N_EXPLORERS)
    )
    critic = Mlp.init(FEATURE_DIM, hidden, 1, seed=int(rng.integers(2**31)))
    critic = Mlp.from_arrays(critic.w1, critic.b1, critic.w2, rng.normal(size=1))
    head, _ = pretrain_supervised(rng.normal(size=(2, FEATURE_DIM)), [0, 1], epochs=1)
    agent = PpoAgent(head=head, actor=actor, critic=critic)
    states = rng.normal(size=(n, STATE_DIM))
    actions = rng.integers(N_EXPLORERS, size=n)
    logp = log_softmax(forward(actor, states)[0])[np.arange(n), actions]
    kinds = draw(st.lists(st.sampled_from(sorted(RATIO_SHIFTS)), min_size=n, max_size=n))
    old_logp = logp - np.array([RATIO_SHIFTS[k] for k in kinds])
    advantage_kind = draw(st.sampled_from(["random", "zero", "negative", "equal"]))
    advantages = advantages_of(advantage_kind, rng, n)
    returns = rng.normal(scale=3.0, size=n)
    return agent, states, actions, old_logp, advantages, returns


class TestInPlaceTraining:
    """The in-place training loops against the step-by-new-network routines they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(buffer=ppo_buffers(), passes=st.integers(1, 4))
    def test_ppo_update_has_the_bits_of_the_reference(self, buffer, passes):
        agent = buffer[0]
        before = [agent.actor.params.copy(), agent.critic.params.copy()]
        got, losses = learner_update(*buffer, passes=passes)
        want, want_losses = reference_ppo_update(*buffer, passes=passes, **PPO_SETTINGS)
        assert same_bits(losses, want_losses)
        assert same_bits(got.actor.params, want.actor.params)
        assert same_bits(got.critic.params, want.critic.params)
        assert got.head is agent.head
        # the caller's agent is left as it was
        assert same_bits(agent.actor.params, before[0])
        assert same_bits(agent.critic.params, before[1])

    @settings(max_examples=150, deadline=None)
    @given(buffer=ppo_buffers())
    def test_each_loss_has_the_bits_of_the_reference(self, buffer):
        agent, states, actions, old_logp, advantages, returns = buffer
        logits, _ = forward(agent.actor, states)
        parts = softmax_parts(logits)
        onehot = np.zeros_like(logits)
        onehot[np.arange(len(actions)), actions] = 1.0
        want = reference_ppo_policy_loss(logits, actions, old_logp, advantages, CLIP_RATIO)
        for got in (
            ppo_policy_loss(logits, actions, old_logp, advantages),
            ppo_policy_loss(logits, actions, old_logp, advantages, parts=parts, onehot=onehot),
        ):
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        want = reference_mean_entropy(logits)
        for got in (mean_entropy(logits), mean_entropy(logits, parts=parts)):
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        got, want = cross_entropy(logits, actions), reference_cross_entropy(logits, actions)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        pred, _ = forward(agent.critic, states[:, :FEATURE_DIM])
        got = mean_squared_error(pred, returns[:, None])
        want = reference_mean_squared_error(pred, returns[:, None])
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        # the shared parts are read, never written
        again = softmax_parts(logits)
        assert same_bits(parts[0], again[0]) and same_bits(parts[1], again[1])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(1, 30),
        classes=st.integers(1, 4),
    )
    def test_pretrain_supervised_has_the_bits_of_the_reference(self, n, seed, epochs, classes):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, FEATURE_DIM))
        labels = rng.integers(classes, size=n) * 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            head, curve = pretrain_supervised(features, labels, epochs=epochs, seed=seed)
        want, want_curve = reference_pretrain_supervised(
            features, labels, epochs=epochs, lr=SUPERVISED_LR, seed=seed
        )
        assert same_bits(curve, want_curve)
        assert same_bits(head.net.params, want.net.params)

    def test_train_rl_leaves_the_given_agent_as_it_was(self):
        rng = np.random.default_rng(60)
        features, scores, labels = blob_problem(rng, n=5)
        head, _ = pretrain_supervised(features, labels, epochs=10)
        agent = PpoAgent.init(head, seed=0)
        before = [agent.actor.params.copy(), agent.critic.params.copy()]
        trained, _ = train_rl(agent, features, scores, epochs=20, seed=0)
        assert same_bits(agent.actor.params, before[0])
        assert same_bits(agent.critic.params, before[1])
        assert not same_bits(trained.actor.params, before[0])
        assert not same_bits(trained.critic.params, before[1])

    def test_a_non_finite_update_is_refused(self):
        rng = np.random.default_rng(61)
        features, scores, labels = blob_problem(rng, n=4)
        head, _ = pretrain_supervised(features, labels, epochs=5)
        agent = PpoAgent.init(head, seed=0)
        with pytest.raises(FloatingPointError, match="diverged"):
            with np.errstate(over="ignore", invalid="ignore"):
                train_rl(agent, features, scores, epochs=2, seed=0, lr=1e308)


class TestTrainRl:
    def test_rl_converges_on_a_dominant_explorer(self):
        rng = np.random.default_rng(14)
        features = rng.normal(size=(24, 24))
        scores = np.full((24, N_EXPLORERS), 0.8)
        scores[:, 6] = 0.02
        head, _ = pretrain_supervised(features, [0] * 24, epochs=20)
        agent = PpoAgent.init(head, seed=1)
        trained, curve = train_rl(agent, features, scores, epochs=200, seed=3)
        assert len(curve) == 200
        assert np.mean(curve[-20:]) > np.mean(curve[:20])
        picks = [recommend(trained, features[i : i + 1])[0] for i in range(24)]
        assert np.mean([p is ExplorerId.EDA for p in picks]) >= 0.95

    def test_zero_best_rows_train_without_diverging(self):
        rng = np.random.default_rng(40)
        features = rng.normal(size=(20, 24))
        scores = rng.uniform(0.2, 0.6, size=(20, N_EXPLORERS))
        scores[:, 3] = 0.0
        labels = [3] * 10 + [4] * 10
        head, _ = pretrain_supervised(features, labels, epochs=20)
        trained, curve = train_rl(PpoAgent.init(head, 0), features, scores, epochs=120, seed=0)
        assert all(REWARD_FLOOR <= v <= 0.0 for v in curve)
        assert np.all(np.isfinite(trained.critic.w1))

    def test_reward_curve_trend_on_blob_data(self):
        rng = np.random.default_rng(15)
        features, scores, labels = blob_problem(rng, n=30, blobs=2)
        head, _ = pretrain_supervised(features, labels, epochs=100)
        trained, curve = train_rl(PpoAgent.init(head, 0), features, scores, epochs=300, seed=0)
        assert np.mean(curve[-100:]) >= np.mean(curve[:100])

    def test_entropy_bonus_keeps_the_policy_softer(self):
        rng = np.random.default_rng(16)
        features, scores, labels = blob_problem(rng, n=16, blobs=2)
        head, _ = pretrain_supervised(features, labels, epochs=20)

        def final_entropy(coef):
            agent, _ = train_rl(
                PpoAgent.init(head, 0), features, scores, epochs=150, seed=1, entropy_coef=coef
            )
            states = agent.states(features)
            logp = log_softmax(forward(agent.actor, states)[0])
            return float(-(np.exp(logp) * logp).sum(axis=1).mean())

        assert final_entropy(0.01) >= final_entropy(0.0)

    def test_rl_leaves_the_prior_head_untouched(self):
        rng = np.random.default_rng(17)
        features, scores, labels = blob_problem(rng, n=12)
        head, _ = pretrain_supervised(features, labels, epochs=30)
        before = head.net.w1.copy()
        trained, _ = train_rl(PpoAgent.init(head, 0), features, scores, epochs=30, seed=0)
        assert trained.head is head
        assert (head.net.w1 == before).all()

    def test_rl_is_deterministic(self):
        rng = np.random.default_rng(18)
        features, scores, labels = blob_problem(rng, n=12)
        head, _ = pretrain_supervised(features, labels, epochs=30)
        a, curve_a = train_rl(PpoAgent.init(head, 0), features, scores, epochs=40, seed=5)
        b, curve_b = train_rl(PpoAgent.init(head, 0), features, scores, epochs=40, seed=5)
        assert curve_a == curve_b
        assert (a.actor.w1 == b.actor.w1).all()
        assert (a.critic.w2 == b.critic.w2).all()

    @pytest.mark.parametrize("n, seed, epochs", [(2, 0, 60), (7, 3, 40), (23, 11, 25)])
    def test_array_buffer_matches_the_per_benchmark_loop_bit_for_bit(self, n, seed, epochs):
        rng = np.random.default_rng(50 + n)
        features = rng.normal(size=(n, 24))
        scores = rng.uniform(0.2, 0.9, size=(n, N_EXPLORERS))
        scores[0, [2, 6]] = 0.05  # tied minima
        scores[1, 3] = 0.0  # a best score of zero: other picks hit the floor
        labels = np.arange(n) % 3
        head, _ = pretrain_supervised(features, labels, epochs=10, seed=seed)
        agent = PpoAgent.init(head, seed=seed)
        got, curve = train_rl(agent, features, scores, epochs=epochs, seed=seed)
        want, want_curve, rewards = reference_train_rl(
            agent, features, scores, epochs=epochs, seed=seed
        )
        assert np.array(curve).tobytes() == np.array(want_curve).tobytes()
        assert got.actor.params.tobytes() == want.actor.params.tobytes()
        assert got.critic.params.tobytes() == want.critic.params.tobytes()
        # the cases reach both edges of the reward: a signed-zero regret and the floor
        assert any(r == 0.0 and np.signbit(r) for r in rewards)
        assert REWARD_FLOOR in rewards

    def test_score_matrix_shape_checked(self):
        rng = np.random.default_rng(19)
        features, _, labels = blob_problem(rng, n=6)
        head, _ = pretrain_supervised(features, labels, epochs=5)
        with pytest.raises(ValueError, match="score matrix"):
            train_rl(PpoAgent.init(head, 0), features, np.zeros((6, 3)), epochs=1)


class TestRecommend:
    def test_zero_actor_ties_break_to_lowest_code(self):
        rng = np.random.default_rng(20)
        features, scores, labels = blob_problem(rng, n=8)
        head, _ = pretrain_supervised(features, labels, epochs=10)
        agent = PpoAgent.init(head, seed=0)
        zero_actor = Mlp(agent.actor.dims, np.zeros_like(agent.actor.params))
        from dataclasses import replace

        pick, policy = recommend(replace(agent, actor=zero_actor), features[:1])
        assert pick is ExplorerId.NSGA2
        np.testing.assert_allclose(policy, np.full(N_EXPLORERS, 0.1), atol=1e-12)

    def test_inference_is_deterministic_and_distribution_valid(self):
        rng = np.random.default_rng(21)
        features, scores, labels = blob_problem(rng, n=8)
        head, _ = pretrain_supervised(features, labels, epochs=10)
        agent = PpoAgent.init(head, seed=0)
        a_pick, a_policy = recommend(agent, features[:1])
        b_pick, b_policy = recommend(agent, features[:1])
        assert a_pick is b_pick
        assert (a_policy == b_policy).all()
        assert a_policy.sum() == pytest.approx(1.0, abs=1e-12)

    def test_state_layout(self):
        rng = np.random.default_rng(22)
        features, _, labels = blob_problem(rng, n=9)
        head, _ = pretrain_supervised(features, labels, epochs=30)
        agent = PpoAgent.init(head, seed=0)
        states = agent.states(features)
        assert states.shape == (9, STATE_DIM)
        np.testing.assert_allclose(states[:, 24:].sum(axis=1), 1.0, atol=1e-9)

    def test_fresh_agent_follows_the_supervised_prior(self):
        from dsekit.nn import forward as nn_forward
        from dsekit.selector import _PRIOR_GAIN

        rng = np.random.default_rng(44)
        features, scores, labels = blob_problem(rng, n=16)
        head, _ = pretrain_supervised(features, labels, epochs=50)
        agent = PpoAgent.init(head, seed=0)
        for i in range(4):
            _, policy = recommend(agent, features[i : i + 1])
            prior = softmax(head.logits(features[i : i + 1]))[0]
            expected = np.exp(_PRIOR_GAIN * prior)
            np.testing.assert_allclose(policy, expected / expected.sum(), rtol=1e-12)

    def test_fresh_critic_predicts_zero(self):
        rng = np.random.default_rng(45)
        features, scores, labels = blob_problem(rng, n=10)
        head, _ = pretrain_supervised(features, labels, epochs=10)
        agent = PpoAgent.init(head, seed=7)
        from dsekit.nn import forward as nn_forward

        values = nn_forward(agent.critic, head.scaler.apply(features))[0]
        np.testing.assert_array_equal(values, np.zeros_like(values))

    def test_value_gradient_through_critic_checks_out(self):
        rng = np.random.default_rng(23)
        features, scores, labels = blob_problem(rng, n=8)
        head, _ = pretrain_supervised(features, labels, epochs=10)
        agent = PpoAgent.init(head, seed=2)
        z = head.scaler.apply(features)
        target = rng.normal(size=(8, 1))

        def fn(vec):
            net = Mlp(agent.critic.dims, vec)
            pred, hidden = forward(net, z)
            loss, dpred = mean_squared_error(pred, target)
            return loss, backward(net, z, hidden, dpred)

        assert grad_check(fn, agent.critic.params, sample=300, rng=rng) <= 1e-4


class TestCheckpoint:
    def _trained_pair(self, seed=0):
        rng = np.random.default_rng(31)
        features, scores, labels = blob_problem(rng, n=12)
        head, _ = pretrain_supervised(features, labels, epochs=15)
        agent = PpoAgent.init(head, seed=seed)
        agent, _ = train_rl(agent, features, scores, epochs=5, seed=seed)
        return features, head, agent

    def test_round_trip_is_bit_exact(self, tmp_path):
        import io

        features, head, agent = self._trained_pair()
        buf = io.StringIO()
        save_selector(buf, agent, fingerprint="abc123", seed=7)
        loaded_agent, settings = load_selector(io.StringIO(buf.getvalue()))
        loaded_head = loaded_agent.head

        assert settings["fingerprint"] == "abc123"
        assert settings["seed"] == "7"
        np.testing.assert_array_equal(loaded_head.scaler.mean, head.scaler.mean)
        np.testing.assert_array_equal(loaded_head.scaler.std, head.scaler.std)
        for original, restored in (
            (head.net, loaded_head.net),
            (agent.actor, loaded_agent.actor),
            (agent.critic, loaded_agent.critic),
        ):
            np.testing.assert_array_equal(restored.w1, original.w1)
            np.testing.assert_array_equal(restored.b1, original.b1)
            np.testing.assert_array_equal(restored.w2, original.w2)
            np.testing.assert_array_equal(restored.b2, original.b2)

        choice, policy = recommend(agent, features[0])
        loaded_choice, loaded_policy = recommend(loaded_agent, features[0])
        assert loaded_choice == choice
        np.testing.assert_array_equal(loaded_policy, policy)

    def test_file_round_trip(self, tmp_path):
        _, head, agent = self._trained_pair(seed=3)
        path = tmp_path / "checkpoint.txt"
        with path.open("w", encoding="utf-8") as fh:
            save_selector(fh, agent, fingerprint="feed", seed=3)
        with path.open("r", encoding="utf-8") as fh:
            loaded_agent, _ = load_selector(fh)
        np.testing.assert_array_equal(loaded_agent.actor.w1, agent.actor.w1)

    def test_rejects_a_non_positive_scaler_std(self):
        import io

        _, head, agent = self._trained_pair()
        buf = io.StringIO()
        save_selector(buf, agent, fingerprint="abc123", seed=0)
        lines = buf.getvalue().splitlines()
        row = lines.index(f"scaler_std 1 {head.scaler.std.size}") + 1
        for value in ("0", "-1.5"):
            bad = lines.copy()
            bad[row] = " ".join(lines[row].split()[:3] + [value] + lines[row].split()[4:])
            with pytest.raises(ValueError, match="section 'scaler_std' column 3 is not positive"):
                load_selector(bad)

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (" rl_epochs=1000", "", "header has no setting 'rl_epochs'"),
            (" passes=4", " passes=four", "header passes='four' is not int"),
            (" gamma=", " gamma=x", "header gamma='x0.98999999999999999' is not float"),
            (" hidden=256", " hidden=128", "header says hidden=128, the head network has 256 hidden units"),
        ],
    )
    def test_rejects_a_header_unlike_what_save_writes(self, old, new, message):
        import io

        _, head, agent = self._trained_pair()
        buf = io.StringIO()
        save_selector(buf, agent, fingerprint="abc123", seed=0)
        lines = buf.getvalue().splitlines()
        assert old in lines[0]
        lines[0] = lines[0].replace(old, new)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_selector(lines)

    def test_rejects_foreign_header(self):
        import io

        with pytest.raises(ValueError, match="not a selector checkpoint"):
            load_selector(io.StringIO("mlp-checkpoint 2 3 4\n"))
