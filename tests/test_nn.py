"""Tests for the neural core: forward oracle, exact gradients, descent steps."""

from __future__ import annotations

import numpy as np
import pytest

from dsekit.nn import (
    Mlp,
    backward,
    cross_entropy,
    forward,
    log_softmax,
    mean_squared_error,
    sgd_step,
    softmax,
    softmax_parts,
)
from oracles import (
    entropy_of,
    fresh_backward,
    grad_check,
    naive_mlp_forward,
    reference_backward,
    reference_log_softmax,
    reference_softmax,
)


def kink_free_case(rng, dims, batch=4, margin=1e-3):
    """A random net and batch whose hidden pre-activations avoid the ReLU kink.

    Central differences with step 1e-5 stay on one side of the kink as long
    as no pre-activation sits within the margin.
    """
    while True:
        net = Mlp.init(*dims, seed=int(rng.integers(2**31)))
        net = Mlp.from_arrays(
            net.w1,
            rng.normal(scale=0.3, size=dims[1]),
            net.w2,
            rng.normal(scale=0.3, size=dims[2]),
        )
        x = rng.normal(size=(batch, dims[0]))
        pre = x @ net.w1.T + net.b1
        if np.abs(pre).min() > margin:
            return net, x


class TestInit:
    def test_deterministic_and_bounded(self):
        a = Mlp.init(24, 256, 10, seed=7)
        b = Mlp.init(24, 256, 10, seed=7)
        assert (a.w1 == b.w1).all() and (a.w2 == b.w2).all()
        assert np.abs(a.w1).max() <= 1.0 / np.sqrt(24)
        assert np.abs(a.w2).max() <= 1.0 / np.sqrt(256)
        assert (a.b1 == 0.0).all() and (a.b2 == 0.0).all()
        assert a.dims == (24, 256, 10)

    def test_seed_changes_weights(self):
        assert (Mlp.init(6, 4, 3, 0).w1 != Mlp.init(6, 4, 3, 1).w1).any()


class TestForward:
    def test_matches_pure_python_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            net, x = kink_free_case(rng, (5, 7, 3), batch=3)
            logits, _ = forward(net, x)
            for row, expect in zip(
                x, [naive_mlp_forward(net.w1, net.b1, net.w2, net.b2, xi) for xi in x]
            ):
                got, _ = forward(net, row[None, :])
                np.testing.assert_allclose(got[0], expect, rtol=1e-12)
            np.testing.assert_allclose(
                logits,
                [naive_mlp_forward(net.w1, net.b1, net.w2, net.b2, xi) for xi in x],
                rtol=1e-12,
            )

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=30.0, size=(8, 10))
        p = softmax(logits)
        assert (p > 0.0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.log(p), log_softmax(logits), atol=1e-9)

    def test_shared_softmax_parts_have_the_bits_of_each_alone(self):
        rng = np.random.default_rng(8)
        for scale in (1e-3, 1.0, 30.0, 800.0):
            logits = rng.normal(scale=scale, size=(6, 10))
            logits[0, :3] = logits[0, 3]  # a tied row maximum
            logp, p = softmax_parts(logits)
            assert logp.tobytes() == reference_log_softmax(logits).tobytes()
            assert p.tobytes() == reference_softmax(logits).tobytes()
            assert softmax(logits).tobytes() == p.tobytes()
            assert log_softmax(logits).tobytes() == logp.tobytes()


class TestExactGradients:
    """Every analytic gradient is certified against central differences."""

    DIMS = (5, 8, 4)

    def closure(self, template, x, head):
        def loss_and_grad(vec):
            net = Mlp(template.dims, vec)
            logits, hidden = forward(net, x)
            loss, dlogits = head(logits)
            return loss, fresh_backward(net, x, hidden, dlogits)

        return loss_and_grad

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            net, x = kink_free_case(rng, self.DIMS)
            labels = rng.integers(self.DIMS[2], size=x.shape[0])
            fn = self.closure(net, x, lambda z: cross_entropy(z, labels))
            assert grad_check(fn, net.params) <= 1e-4

    def test_entropy_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            net, x = kink_free_case(rng, self.DIMS)
            fn = self.closure(net, x, entropy_of)
            assert grad_check(fn, net.params) <= 1e-4

    def test_value_head_gradient(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            net, x = kink_free_case(rng, (self.DIMS[0], self.DIMS[1], 1))
            target = rng.normal(size=(x.shape[0], 1))
            fn = self.closure(net, x, lambda z: mean_squared_error(z, target))
            assert grad_check(fn, net.params) <= 1e-4

    def test_checker_flags_a_wrong_gradient(self):
        def broken(vec):
            return float((vec**2).sum()), 2.0 * vec * 1.01

        assert grad_check(broken, np.array([1.0, -2.0, 3.0])) > 1e-3


class TestTraining:
    def test_sgd_descends_the_loss(self):
        rng = np.random.default_rng(5)
        net, x = kink_free_case(rng, (5, 8, 4))
        labels = rng.integers(4, size=x.shape[0])
        logits, hidden = forward(net, x)
        loss0, dlogits = cross_entropy(logits, labels)
        sgd_step(net.params, fresh_backward(net, x, hidden, dlogits), lr=0.05)
        loss1, _ = cross_entropy(forward(net, x)[0], labels)
        assert loss1 < loss0

    def test_in_place_step_has_the_bits_of_a_new_vector(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            params = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=40)
            grad = rng.normal(scale=10.0 ** rng.integers(-8, 4), size=40)
            params[:3], grad[3:6] = 0.0, -0.0
            lr = float(rng.uniform(1e-6, 1.0))
            want = params - lr * grad
            sgd_step(params, grad, lr)
            assert params.tobytes() == want.tobytes()

    def test_non_finite_update_is_refused(self):
        """NaN, +inf and -inf in each of the four blocks."""
        for block in ("w1", "b1", "w2", "b2"):
            for bad in (np.nan, np.inf, -np.inf):
                net = Mlp.init(3, 4, 2, seed=0)
                grad = Mlp(net.dims, np.zeros_like(net.params))
                getattr(grad, block).flat[-1] = bad
                with pytest.raises(FloatingPointError, match="diverged"):
                    sgd_step(net.params, grad.params, lr=0.1)

    def test_an_overflowing_update_is_refused(self):
        params = np.array([1e308, 0.0])
        with pytest.raises(FloatingPointError, match="diverged"), np.errstate(over="ignore"):
            sgd_step(params, np.array([-1e308, 0.0]), lr=1.0)

    def test_backward_fills_a_buffer_with_the_concatenated_blocks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net, x = kink_free_case(rng, (5, 8, 4), batch=int(rng.integers(1, 9)))
            logits, hidden = forward(net, x)
            dlogits = rng.normal(size=logits.shape)
            buffer = Mlp(net.dims, np.full_like(net.params, np.nan))
            got = backward(net, x, hidden, dlogits, out=buffer)
            assert got is buffer.params
            want = reference_backward(net, x, hidden, dlogits)
            assert got.tobytes() == want.tobytes()

    def test_layers_are_views_of_one_flat_vector(self):
        net = Mlp.init(6, 5, 3, seed=9)
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        for layer in (net.w1, net.b1, net.w2, net.b2):
            assert np.shares_memory(layer, net.params)
        expect = np.concatenate([net.w1.ravel(), net.b1, net.w2.ravel(), net.b2])
        np.testing.assert_array_equal(net.params, expect)
        again = Mlp.from_arrays(net.w1, net.b1, net.w2, net.b2)
        assert again.dims == net.dims and (again.params == net.params).all()
        with pytest.raises(ValueError, match="float64 parameters"):
            Mlp(net.dims, net.params[:-1])
