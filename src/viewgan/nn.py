"""Dense network substrate: one-hidden-layer MLPs with sigmoid hidden units,
manual backprop, and the Adam optimizer.

All arithmetic is float64; gradient checks depend on it. Forward and backward
take a batch of shape (n, d) with one sample per row. Parameter gradients are
summed over the batch; the caller owns any 1/m scaling. They travel as plain
lists of arrays in ``Mlp.params()`` order. ``check_adam_hyperparameters`` is
the one rule for Adam's hyperparameters; ``AdamState`` and ``TrainConfig``
both apply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

LINEAR = "linear"
SOFTMAX = "softmax"

DEFAULT_HIDDEN_DIM = 200

# float64 rounds sigmoid/softmax outputs to exact 0 or 1 once pre-activations
# pass ~36.7; clipping there keeps outputs strictly inside (0, 1).
_SATURATION = 36.0


def sigmoid(x, out=None):
    """Elementwise logistic function, saturation-clipped so outputs stay in (0, 1).

    Same operations as 1 / (1 + exp(-clip(x, -36, 36))), run in place on one
    buffer: ``out`` when given (it may be ``x`` itself), else a fresh one.
    With ``out=None``, ``x`` is not modified.
    """
    z = np.maximum(x, -_SATURATION, out=out)
    np.minimum(z, _SATURATION, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def softmax(logits, out=None):
    """Softmax over the last axis, stabilized by max-subtraction.

    Shifted logits are floored at -36 so every output is strictly positive
    and strictly below 1 even for logit magnitudes up to 1e4. Works in place
    on the shifted logits, held in ``out`` when given (it may be ``logits``
    itself), else in a fresh buffer. With ``out=None``, ``logits`` is not
    modified.
    """
    z = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.maximum(z, -_SATURATION, out=z)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
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
    if hidden_dim < 1:
        raise ConfigError(f"must be at least 1, got {hidden_dim!r}", key="hidden_dim")
    w_in = xavier_init(input_dim, hidden_dim, rng)
    w_out = xavier_init(hidden_dim, output_dim, rng)
    return Mlp(w_in, np.zeros(hidden_dim), w_out, np.zeros(output_dim), output_kind)


@dataclass(eq=False)
class ForwardTrace:
    """Activations cached by ``forward`` for the backward pass.

    ``hidden_act`` doubles as the feature map used by feature matching.
    ``output`` is the softmax of the logits for a SOFTMAX net and the logits
    themselves for a LINEAR one, and None for a pass that stopped at the
    hidden layer.
    """

    input: np.ndarray
    hidden_act: np.ndarray
    output: np.ndarray | None


# How far ``forward`` runs: through the output layer, or to the hidden layer.
OUTPUT = "output"
HIDDEN = "hidden"


def forward(net: Mlp, x, *, need: str = OUTPUT) -> ForwardTrace:
    """Run the net on ``x`` of shape (n, input_dim).

    ``need=OUTPUT`` (the default) runs both layers. ``need=HIDDEN`` stops
    after the sigmoid hidden layer: it forms no logits and no softmax, and
    its trace's ``output`` is None, so ``backward`` rejects it. The hidden
    activations are the same bits either way.
    """
    if need not in (OUTPUT, HIDDEN):
        raise ValueError(f"unknown need {need!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(
            f"input shape {x.shape} incompatible with input_dim {net.input_dim}")
    # counting is cheaper than ndarray.all()'s Python-level wrapper on small blocks
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NumericError("non-finite input")
    # each activation overwrites the buffer it is computed from: a large
    # block then allocates one (n, hidden) array, not two
    hidden_pre = x @ net.weights_in.T
    hidden_pre += net.bias_in
    hidden_act = sigmoid(hidden_pre, out=hidden_pre)
    if need == HIDDEN:
        return ForwardTrace(x, hidden_act, None)
    logits = hidden_act @ net.weights_out.T
    logits += net.bias_out
    output = softmax(logits, out=logits) if net.output_kind == SOFTMAX else logits
    return ForwardTrace(x, hidden_act, output)


# Most rows one block of ``forward_in_blocks`` runs. Blocks are balanced, so
# once n > 2,048 each holds at least 1,024 rows; with the benchmark's
# OpenBLAS build, blocks of 500 rows or more give the bits of one whole pass
# and blocks of 384 or fewer do not (README, "Held-out passes and
# checkpoints"). A 2,048 x 200 hidden block is 3.3 MB.
EVAL_BLOCK_ROWS = 2048


def forward_in_blocks(net: Mlp, x) -> np.ndarray:
    """The net's outputs on ``x`` of shape (n, input_dim), an (n, output_dim) block.

    The rows are split into ceil(n / EVAL_BLOCK_ROWS) blocks of near-equal
    size (one block when n <= EVAL_BLOCK_ROWS), and ``forward`` runs on each
    in turn, so the pass holds one block's activations, not n rows'. Each
    block's outputs are written into one array allocated up front.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(
            f"input shape {x.shape} incompatible with input_dim {net.input_dim}")
    n = x.shape[0]
    blocks = max(1, -(-n // EVAL_BLOCK_ROWS))
    out = np.empty((n, net.output_dim))
    for i in range(blocks):
        start, stop = i * n // blocks, (i + 1) * n // blocks
        out[start:stop] = forward(net, x[start:stop]).output
    return out


# What ``backward`` computes: the parameter gradients or the input gradient.
PARAMS = "params"
INPUT = "input"


def backward(net: Mlp, trace: ForwardTrace, output_grad, *, need: str = PARAMS):
    """Reverse-mode pass through both layers; computes only what ``need`` asks for.

    ``output_grad`` is the loss gradient with respect to the logits, shaped
    like ``trace.output``; for a softmax net the caller passes the fused
    softmax + cross-entropy logit gradient (probabilities minus target).
    ``need=PARAMS`` returns the four parameter gradients, summed over the
    batch, as a list in ``net.params()`` order; ``need=INPUT`` returns the
    input gradient, shaped like the input. A trace from a
    ``forward(need=HIDDEN)`` pass has no output and is rejected.
    """
    if need not in (PARAMS, INPUT):
        raise ValueError(f"unknown need {need!r}")
    if trace.output is None:
        raise ValueError("the trace stops at the hidden layer: it has no output "
                         "to backpropagate from")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != trace.output.shape:
        raise DimensionError(
            f"output_grad shape {g.shape} != output shape {trace.output.shape}")
    if trace.input.shape[-1] != net.input_dim or trace.hidden_act.shape[-1] != net.hidden_dim \
            or trace.output.shape[-1] != net.output_dim:
        raise DimensionError("trace does not match network dimensions")
    x, h = trace.input, trace.hidden_act
    d_hidden = g @ net.weights_out
    d_hidden *= h
    d_hidden *= 1.0 - h
    if need == INPUT:
        return d_hidden @ net.weights_in
    return [d_hidden.T @ x, np.add.reduce(d_hidden, axis=0), g.T @ h, np.add.reduce(g, axis=0)]


def check_adam_hyperparameters(alpha: float, beta1: float, beta2: float,
                               epsilon: float) -> None:
    """Raise ConfigError unless alpha and epsilon are finite and positive and
    beta1 and beta2 lie in [0, 1); NaN fails every test."""
    for name, value in (("alpha", alpha), ("epsilon", epsilon)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"must be finite and positive, got {value!r}", key=name)
    for name, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"must lie in [0, 1), got {value!r}", key=name)


class AdamState:
    """One player's Adam state: the hyperparameters, the step count and the
    two moments.

    ``m`` and ``v`` are one flat float64 vector each over all of the
    player's parameter blocks, in ``params()`` order, zero before the first
    step. Two private flat buffers of the same length, the gradient/step
    buffer and a scratch buffer, are reused by every step; the step buffer's
    per-block views carry the block shapes ``adam_step`` checks against.
    """

    def __init__(self, params: list[np.ndarray], alpha: float, beta1: float,
                 beta2: float, epsilon: float):
        check_adam_hyperparameters(alpha, beta1, beta2, epsilon)
        self.alpha, self.beta1, self.beta2, self.epsilon = alpha, beta1, beta2, epsilon
        self.step_count = 0
        size = sum(p.size for p in params)
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._step, self._scratch = np.empty(size), np.empty(size)
        self._step_blocks, start = [], 0
        for p in params:
            self._step_blocks.append(self._step[start:start + p.size].reshape(p.shape))
            start += p.size


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place.

    Gathers the gradient blocks into one flat vector and rejects it if any
    entry is non-finite, before touching any state, so a failed call leaves
    parameters and moments untouched. Over the flat vector it runs the
    float64 operations of the textbook update, in its order,

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p -= alpha * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + epsilon)

    writing each intermediate into the state's two buffers, then subtracts
    the step from each block.
    """
    blocks = state._step_blocks
    if len(params) != len(grads) or len(params) != len(blocks):
        raise DimensionError("params/grads/state block counts differ")
    for p, g, s in zip(params, grads, blocks):
        if p.shape != s.shape or g.shape != s.shape:
            raise DimensionError(f"param shape {p.shape} and grad shape {g.shape} "
                                 f"must both be {s.shape}")
    step, scratch, m, v = state._step, state._scratch, state.m, state.v
    g = np.concatenate([block.ravel() for block in grads], out=step)
    if np.count_nonzero(np.isfinite(g)) != g.size:
        raise NumericError("non-finite gradient; update not applied")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m *= b1
    np.multiply(1.0 - b1, g, out=scratch)
    m += scratch
    v *= b2
    np.multiply(1.0 - b2, g, out=scratch)
    scratch *= g
    v += scratch
    # g is not read again: the step takes its buffer
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= state.alpha
    np.divide(v, 1.0 - b2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    step /= scratch
    for p, s in zip(params, blocks):
        p -= s
