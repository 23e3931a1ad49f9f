"""Finite-difference verification of every analytic gradient in the package.

Central differences with h=1e-5 on float64. The checker never calls the
backward pass it is judging: it only needs a scalar loss closure and the
live parameter arrays, so it stays an independent oracle. Used both by the
test suite and the gradcheck CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Views
from .errors import ConfigError
from .model import new_model
from .nn import LINEAR, SOFTMAX, backward, forward, init_mlp
from .train import Minibatch, feature_matching_penalty, loss_discriminator, loss_generator

FD_STEP = 1e-5
REL_TOL = 1e-4
_DENOM_FLOOR = 1e-5

FAMILIES = ("mlp-softmax", "mlp-linear", "loss-d", "loss-g1", "loss-g2",
            "feature-matching")


def finite_difference(loss_fn, arrays):
    """Central-difference gradient of loss_fn() w.r.t. each live array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = loss_fn()
            flat[i] = orig - FD_STEP
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric) -> float:
    """Worst per-entry |a-n| / max(|a|+|n|, floor) across all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), _DENOM_FLOOR)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _random_batch(rng, d1, d2, k, m_b=2) -> Minibatch:
    def onehots():
        y = np.zeros((m_b, k))
        y[np.arange(m_b), rng.integers(0, k, m_b)] = 1.0
        return y

    # arguments evaluate left to right, which fixes the draw order
    return Minibatch(
        Views(rng.standard_normal((m_b, d1)), rng.standard_normal((m_b, d2)), onehots()),
        Views(None, rng.standard_normal((m_b, d2)), onehots()),
        Views(rng.standard_normal((m_b, d1)), None, onehots()),
        rng.uniform(-1, 1, (m_b, d1)),
        rng.uniform(-1, 1, (m_b, d2)),
    )


def _check_mlp(rng, kind: str) -> float:
    d_in = int(rng.integers(3, 7))
    hidden = int(rng.integers(4, 9))
    d_out = int(rng.integers(2, 5))
    net = init_mlp(d_in, hidden, d_out, kind, rng)
    x = rng.standard_normal((2, d_in))
    if kind == SOFTMAX:
        targets = rng.integers(0, d_out, size=2)

        def loss_fn():
            p = forward(net, x).output
            return -float(np.sum(np.log(p[np.arange(2), targets])))

        trace = forward(net, x)
        out_grad = trace.output.copy()
        out_grad[np.arange(2), targets] -= 1.0
    else:
        target = rng.standard_normal((2, d_out))

        def loss_fn():
            out = forward(net, x).output
            return 0.5 * float(np.sum((out - target) ** 2))

        trace = forward(net, x)
        out_grad = trace.output - target

    grads = backward(net, trace, out_grad)
    analytic = list(grads.params()) + [grads.input_grad]
    numeric = finite_difference(loss_fn, net.params() + [x])
    return max_relative_error(analytic, numeric)


def _check_loss(rng, family: str) -> float:
    d1 = int(rng.integers(3, 7))
    d2 = int(rng.integers(3, 7))
    k = int(rng.integers(2, 5))
    hidden = int(rng.integers(4, 9))
    model = new_model(d1, d2, k, rng, hidden_dim=hidden)
    batch = _random_batch(rng, d1, d2, k)

    if family == "loss-d":
        net, loss = model.disc, lambda: loss_discriminator(model, batch)
    elif family == "feature-matching":  # through generator 1
        net = model.generator(1)
        gen_input, observed, _ = batch.side(1)

        def loss():
            trace = forward(net, gen_input)
            pairs = model.completed_pair(1, trace.output, observed)
            return feature_matching_penalty(model, 1, batch.real_pairs, pairs, trace)
    else:
        v = 1 if family == "loss-g1" else 2
        net, loss = model.generator(v), lambda: loss_generator(model, v, batch, fm_weight=1.0)

    analytic = loss()[1].params()
    numeric = finite_difference(lambda: loss()[0], net.params())
    return max_relative_error(analytic, numeric)


@dataclass(frozen=True)
class GradCheckReport:
    family: str
    instances: int
    max_rel_error: float
    passed: bool


def check_family(family: str, instances: int, seed: int = 0) -> GradCheckReport:
    """Run one gradient family over fresh random instances."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if instances < 1:
        raise ConfigError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng(seed)
    kind = {"mlp-softmax": SOFTMAX, "mlp-linear": LINEAR}.get(family)
    worst = max(_check_loss(rng, family) if kind is None else _check_mlp(rng, kind)
                for _ in range(instances))
    return GradCheckReport(family, instances, worst, worst < REL_TOL)


def run_all(instances: int = 100, seed: int = 0):
    """One report per family; the suite passes iff every family does."""
    return [check_family(f, instances, seed + i) for i, f in enumerate(FAMILIES)]
