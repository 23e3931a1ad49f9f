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
    """Elementwise logistic function, saturation-clipped so outputs stay in (0, 1).

    Same operations as 1 / (1 + exp(-clip(x, -36, 36))), run in place on one
    fresh buffer; ``x`` is not modified.
    """
    z = np.maximum(x, -_SATURATION)
    np.minimum(z, _SATURATION, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def softmax(logits):
    """Softmax over the last axis, stabilized by max-subtraction.

    Shifted logits are floored at -36 so every output is strictly positive
    and strictly below 1 even for logit magnitudes up to 1e4. Works in place
    on the shifted copy; ``logits`` is not modified.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    np.maximum(z, -_SATURATION, out=z)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


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
    if not np.isfinite(x).all():
        raise NumericError("non-finite input")
    hidden_pre = x @ net.weights_in.T
    hidden_pre += net.bias_in
    hidden_act = sigmoid(hidden_pre)
    output_pre = hidden_act @ net.weights_out.T
    output_pre += net.bias_out
    output = softmax(output_pre) if net.output_kind == SOFTMAX else output_pre
    return ForwardTrace(x, hidden_act, output_pre, output)


@dataclass(eq=False)
class MlpGrads:
    """Gradients for the four parameter blocks plus the input gradient.

    Each field holds what ``backward`` was asked for and None otherwise: a
    PARAMS pass leaves ``input_grad`` None, an INPUT pass the four blocks.
    Sums over several passes (``loss_discriminator``, the generator losses)
    are built from PARAMS passes, so they carry ``input_grad=None`` too, as
    do zero gradients built without a pass.
    """

    weights_in: np.ndarray | None
    bias_in: np.ndarray | None
    weights_out: np.ndarray | None
    bias_out: np.ndarray | None
    input_grad: np.ndarray | None = None

    def params(self) -> list[np.ndarray]:
        return [self.weights_in, self.bias_in, self.weights_out, self.bias_out]


# What ``backward`` computes: everything, the parameter gradients only, or
# the input gradient only.
ALL = "all"
PARAMS = "params"
INPUT = "input"


def backward(net: Mlp, trace: ForwardTrace, output_grad, *, need: str = ALL) -> MlpGrads:
    """Reverse-mode pass through both layers.

    ``output_grad`` is the loss gradient with respect to ``output_pre``; for a
    softmax net the caller passes the fused softmax + cross-entropy logit
    gradient (probabilities minus target). Parameter gradients are summed over
    the batch; ``input_grad`` keeps the input's shape. ``need`` picks ALL,
    PARAMS or INPUT; the gradients it leaves out are not computed and are None.
    """
    if need not in (ALL, PARAMS, INPUT):
        raise ValueError(f"unknown need {need!r}")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != trace.output_pre.shape:
        raise DimensionError(
            f"output_grad shape {g.shape} != output_pre shape {trace.output_pre.shape}")
    if trace.input.shape[-1] != net.input_dim or trace.hidden_act.shape[-1] != net.hidden_dim \
            or trace.output_pre.shape[-1] != net.output_dim:
        raise DimensionError("trace does not match network dimensions")
    x, h = trace.input, trace.hidden_act
    d_hidden = g @ net.weights_out
    d_hidden *= h
    d_hidden *= 1.0 - h
    grads = MlpGrads(None, None, None, None)
    if need != INPUT:
        grads.weights_out = g.T @ h
        grads.bias_out = g.sum(axis=0)
        grads.weights_in = d_hidden.T @ x
        grads.bias_in = d_hidden.sum(axis=0)
    if need != PARAMS:
        grads.input_grad = d_hidden @ net.weights_in
    return grads


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
    leaves parameters and moments untouched. Per block it runs the float64
    operations of the textbook update, in its order,

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p -= alpha * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + epsilon)

    writing each intermediate into two scratch arrays.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise DimensionError("params/grads/state block counts differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"param shape {p.shape} != grad shape {g.shape}")
    for g in grads:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient; update not applied")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        scratch = np.multiply(1.0 - b1, g)
        m += scratch
        v *= b2
        np.multiply(1.0 - b2, g, out=scratch)
        scratch *= g
        v += scratch
        step = np.divide(m, correction1)
        step *= state.alpha
        np.divide(v, correction2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        step /= scratch
        p -= step
