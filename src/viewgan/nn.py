"""Dense network substrate: one-hidden-layer MLPs with sigmoid hidden units,
manual backprop, and the Adam optimizer.

All arithmetic is float64; gradient checks depend on it. Forward and backward
take a batch of shape (n, d) with one sample per row. Parameter gradients are
summed over the batch; the caller owns any 1/m scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

LINEAR = "linear"
SOFTMAX = "softmax"

DEFAULT_HIDDEN_DIM = 200

# float64 rounds sigmoid/softmax outputs to exact 0 or 1 once pre-activations
# pass ~36.7; clipping there keeps outputs strictly inside (0, 1).
_SATURATION = 36.0


def sigmoid(x):
    """Elementwise logistic function, saturation-clipped so outputs stay in (0, 1)."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SATURATION, _SATURATION)))


def softmax(logits):
    """Softmax over the last axis, stabilized by max-subtraction.

    Shifted logits are floored at -36 so every output is strictly positive
    and strictly below 1 even for logit magnitudes up to 1e4.
    """
    z = logits - np.max(logits, axis=-1, keepdims=True)
    z = np.maximum(z, -_SATURATION)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def xavier_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform matrix of shape (fan_out, fan_in).

    Entries are drawn from U(-L, L) with L = sqrt(6 / (fan_in + fan_out)).
    """
    if fan_in < 1 or fan_out < 1:
        raise DimensionError(f"fan sizes must be >= 1, got ({fan_in}, {fan_out})")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


@dataclass(eq=False)
class Mlp:
    """A two-layer dense net: input -> sigmoid hidden -> linear or softmax output.

    ``output_kind`` is LINEAR for generators and SOFTMAX for classifiers.
    """

    weights_in: np.ndarray   # (hidden_dim, input_dim)
    bias_in: np.ndarray      # (hidden_dim,)
    weights_out: np.ndarray  # (output_dim, hidden_dim)
    bias_out: np.ndarray     # (output_dim,)
    output_kind: str

    def __post_init__(self):
        if self.output_kind not in (LINEAR, SOFTMAX):
            raise ValueError(f"unknown output_kind {self.output_kind!r}")
        h, d = self.weights_in.shape
        o, h2 = self.weights_out.shape
        if h2 != h or self.bias_in.shape != (h,) or self.bias_out.shape != (o,):
            raise DimensionError("inconsistent parameter block shapes")
        if min(h, d, o) < 1:
            raise DimensionError("all dimensions must be strictly positive")
        for block in self.params():
            if not np.all(np.isfinite(block)):
                raise NumericError("non-finite network parameters")

    @property
    def input_dim(self) -> int:
        return self.weights_in.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.weights_in.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights_out.shape[0]

    def params(self) -> list[np.ndarray]:
        """Parameter blocks in a fixed order; the arrays are live views."""
        return [self.weights_in, self.bias_in, self.weights_out, self.bias_out]

    def copy(self) -> "Mlp":
        return Mlp(self.weights_in.copy(), self.bias_in.copy(),
                   self.weights_out.copy(), self.bias_out.copy(), self.output_kind)


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int, output_kind: str,
             rng: np.random.Generator) -> Mlp:
    """Xavier-initialized weights, zero biases. Draw order: weights_in, weights_out."""
    w_in = xavier_init(input_dim, hidden_dim, rng)
    w_out = xavier_init(hidden_dim, output_dim, rng)
    return Mlp(w_in, np.zeros(hidden_dim), w_out, np.zeros(output_dim), output_kind)


@dataclass(eq=False)
class ForwardTrace:
    """Activations cached by ``forward`` for the backward pass.

    ``hidden_act`` doubles as the feature map used by feature matching.
    """

    input: np.ndarray
    hidden_act: np.ndarray
    output_pre: np.ndarray
    output: np.ndarray


def forward(net: Mlp, x) -> ForwardTrace:
    """Run the net on ``x`` of shape (n, input_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(
            f"input shape {x.shape} incompatible with input_dim {net.input_dim}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite input")
    hidden_act = sigmoid(x @ net.weights_in.T + net.bias_in)
    output_pre = hidden_act @ net.weights_out.T + net.bias_out
    output = softmax(output_pre) if net.output_kind == SOFTMAX else output_pre
    return ForwardTrace(x, hidden_act, output_pre, output)


@dataclass(eq=False)
class MlpGrads:
    """Gradients for the four parameter blocks plus the input gradient.

    ``input_grad`` is the input gradient of the pass ``backward`` ran. Sums
    over several passes (``loss_discriminator``) keep the first pass's;
    zero gradients built without a pass carry None.
    """

    weights_in: np.ndarray
    bias_in: np.ndarray
    weights_out: np.ndarray
    bias_out: np.ndarray
    input_grad: np.ndarray | None = None

    def params(self) -> list[np.ndarray]:
        return [self.weights_in, self.bias_in, self.weights_out, self.bias_out]


def backward(net: Mlp, trace: ForwardTrace, output_grad) -> MlpGrads:
    """Reverse-mode pass through both layers.

    ``output_grad`` is the loss gradient with respect to ``output_pre``; for a
    softmax net the caller passes the fused softmax + cross-entropy logit
    gradient (probabilities minus target). Parameter gradients are summed over
    the batch; ``input_grad`` keeps the input's shape.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != trace.output_pre.shape:
        raise DimensionError(
            f"output_grad shape {g.shape} != output_pre shape {trace.output_pre.shape}")
    if trace.input.shape[-1] != net.input_dim or trace.hidden_act.shape[-1] != net.hidden_dim \
            or trace.output_pre.shape[-1] != net.output_dim:
        raise DimensionError("trace does not match network dimensions")
    x, h = trace.input, trace.hidden_act
    d_weights_out = g.T @ h
    d_bias_out = g.sum(axis=0)
    d_hidden = (g @ net.weights_out) * h * (1.0 - h)
    d_weights_in = d_hidden.T @ x
    d_bias_in = d_hidden.sum(axis=0)
    d_input = d_hidden @ net.weights_in
    return MlpGrads(d_weights_in, d_bias_in, d_weights_out, d_bias_out, d_input)


@dataclass(eq=False)
class AdamState:
    """Per-parameter Adam moments plus the shared hyperparameters."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int
    alpha: float
    beta1: float
    beta2: float
    epsilon: float

    @classmethod
    def for_params(cls, params: list[np.ndarray], alpha: float = 1e-4,
                   beta1: float = 0.5, beta2: float = 0.999,
                   epsilon: float = 1e-8) -> "AdamState":
        if alpha <= 0 or not (0 <= beta1 < 1) or not (0 <= beta2 < 1) or epsilon <= 0:
            raise ValueError("invalid Adam hyperparameters")
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params],
                   0, alpha, beta1, beta2, epsilon)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place.

    Rejects non-finite gradients before touching any state, so a failed call
    leaves parameters and moments untouched.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise DimensionError("params/grads/state block counts differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"param shape {p.shape} != grad shape {g.shape}")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient; update not applied")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)
