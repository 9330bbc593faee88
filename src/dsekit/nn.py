"""Minimal neural machinery: a two-layer ReLU net with exact gradients.

Everything here is deliberately small and explicit. The package needs only
one architecture (input -> ReLU hidden -> linear output), three scalar heads
(cross-entropy, mean entropy, mean squared error) and stochastic gradient
descent. `dsekit.selector` writes and reads the networks of its checkpoint.

A network's parameters live in one contiguous float64 vector laid out as
w1 (hidden, inputs), b1 (hidden), w2 (outputs, hidden), b2 (outputs), each
row-major. The four named arrays are views into that vector. A gradient has
the same layout: `backward` writes its four blocks straight into the views of
a preallocated buffer (an `Mlp` over the gradient vector), and a descent step
scales that buffer and subtracts it from the parameters in place. Training
loops copy a network's parameters once and then update the copy, so no step
allocates a parameter vector or builds a network. Heads that read the same
logits can share one `softmax_parts` call: one shift, exp and row sum give
both the log-probabilities and the probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

_INIT_TAG = 0x3A91


@dataclass(frozen=True, eq=False)
class Mlp:
    """Two-layer perceptron: ReLU hidden layer, linear output layer."""

    dims: tuple[int, int, int]  # (inputs, hidden, outputs)
    params: np.ndarray  # the flat layout above; w1, b1, w2 and b2 view it
    w1: np.ndarray = field(init=False, repr=False)
    b1: np.ndarray = field(init=False, repr=False)
    w2: np.ndarray = field(init=False, repr=False)
    b2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        inputs, hidden, outputs = self.dims
        p = self.params
        b1_at = hidden * inputs
        w2_at = b1_at + hidden
        b2_at = w2_at + outputs * hidden
        size = b2_at + outputs
        if p.shape != (size,) or p.dtype != np.float64:
            raise ValueError(f"a {inputs}-{hidden}-{outputs} net needs {size} float64 parameters")
        object.__setattr__(self, "w1", p[:b1_at].reshape(hidden, inputs))
        object.__setattr__(self, "b1", p[b1_at:w2_at])
        object.__setattr__(self, "w2", p[w2_at:b2_at].reshape(outputs, hidden))
        object.__setattr__(self, "b2", p[b2_at:])

    @staticmethod
    def from_arrays(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> "Mlp":
        """Copy four per-layer arrays into one flat parameter vector."""
        hidden, inputs = w1.shape
        outputs = w2.shape[0]
        if b1.shape != (hidden,) or w2.shape != (outputs, hidden) or b2.shape != (outputs,):
            raise ValueError("layer shapes disagree with w1 (hidden, inputs)")
        return Mlp((inputs, hidden, outputs), np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))

    @staticmethod
    def init(inputs: int, hidden: int, outputs: int, seed: int) -> "Mlp":
        """Uniform +-1/sqrt(fan_in) weights, zero biases, fully seeded."""
        rng = np.random.default_rng(
            np.random.SeedSequence([_INIT_TAG, inputs, hidden, outputs, seed & (2**64 - 1)])
        )
        s1 = 1.0 / np.sqrt(inputs)
        s2 = 1.0 / np.sqrt(hidden)
        w1 = rng.uniform(-s1, s1, size=(hidden, inputs))
        w2 = rng.uniform(-s2, s2, size=(outputs, hidden))
        return Mlp.from_arrays(w1, np.zeros(hidden), w2, np.zeros(outputs))


def forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (logits, hidden activations) for a batch x of shape (n, inputs)."""
    hidden = x @ net.w1.T
    hidden += net.b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ net.w2.T
    logits += net.b2
    return logits, hidden


def backward(
    net: Mlp, x: np.ndarray, hidden: np.ndarray, dlogits: np.ndarray, out: Mlp
) -> np.ndarray:
    """Exact parameter gradient, in net.params' layout, given the logit gradient.

    The four blocks are written into `out`'s views, and `out.params` is returned.
    """
    np.matmul(dlogits.T, hidden, out=out.w2)
    np.add.reduce(dlogits, axis=0, out=out.b2)
    dhidden = dlogits @ net.w2
    dhidden *= hidden > 0.0
    np.matmul(dhidden.T, x, out=out.w1)
    np.add.reduce(dhidden, axis=0, out=out.b1)
    return out.params


def softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_softmax, softmax) of the rows, sharing one shift, exp and row sum."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    z -= np.log(s)
    e /= s
    return z, e


def softmax(logits: np.ndarray) -> np.ndarray:
    return softmax_parts(logits)[1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return softmax_parts(logits)[0]


# The heads below take a batch of shape (n, k). Each mean is the sum divided
# by the count, which is how numpy's `mean` computes it. A head that takes
# `parts` reads the caller's `softmax_parts(logits)` instead of recomputing it.


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its exact gradient on the logits."""
    n = logits.shape[0]
    rows = np.arange(n)
    logp, dlogits = softmax_parts(logits)
    loss = -(np.add.reduce(logp[rows, labels]) / n)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits


def mean_entropy(
    logits: np.ndarray, *, parts: tuple[np.ndarray, np.ndarray]
) -> tuple[float, np.ndarray]:
    """Mean per-row entropy of the softmax and its exact logit gradient."""
    n = logits.shape[0]
    logp = parts[0]
    p = np.exp(logp)
    row_entropy = -np.add.reduce(p * logp, axis=1)
    dlogits = logp + row_entropy[:, None]
    dlogits *= -p
    dlogits /= n
    return float(np.add.reduce(row_entropy) / n), dlogits


def mean_squared_error(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its exact gradient on pred."""
    diff = pred - target.reshape(pred.shape)
    loss = float(np.add.reduce(diff * diff, axis=None) / diff.size)
    diff *= 2.0
    diff /= diff.size
    return loss, diff


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """One descent step on a flat parameter vector in place; refuses non-finite updates.

    `grad *= lr; params -= grad` gives the bits of `params - lr * grad`. The
    gradient is scaled in place, and a refused update leaves params changed.
    """
    grad *= lr
    params -= grad
    if not np.isfinite(params).all():
        raise FloatingPointError("training diverged: non-finite parameter update")


__all__ = [
    "Mlp",
    "backward",
    "cross_entropy",
    "forward",
    "log_softmax",
    "mean_entropy",
    "mean_squared_error",
    "sgd_step",
    "softmax",
    "softmax_parts",
]
