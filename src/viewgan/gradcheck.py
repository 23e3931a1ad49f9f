"""Finite-difference verification of every analytic gradient in the package.

Central differences with h=1e-5 on float64. The finite differences never
call a backward pass: they need only a scalar loss closure and the live
parameter arrays, so the checker stays an independent oracle. The losses
are evaluated with ``grads=False``, which runs their forward passes and
value arithmetic alone; the one analytic call per instance is the only
one that runs the backward code being judged. Any non-finite entry on
either side fails the check. Used both by the test suite and the
gradcheck CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Views
from .errors import ConfigError
from .model import new_model
from .nn import INPUT, LINEAR, SOFTMAX, backward, forward, init_mlp
from .train import (Minibatch, complete, feature_matching_penalty, loss_discriminator,
                    loss_generator, real_feature_mean)

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
    """Worst per-entry |a-n| / max(|a|+|n|, floor) across all arrays;
    inf if any entry on either side is NaN or infinite."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        if not (np.isfinite(a).all() and np.isfinite(n).all()):
            return math.inf
        denom = np.maximum(np.abs(a) + np.abs(n), _DENOM_FLOOR)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _random_batch(rng, d1, d2, k, m_b=2) -> Minibatch:
    def onehots():
        return np.eye(k)[rng.integers(0, k, m_b)]

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

    analytic = backward(net, trace, out_grad) + [backward(net, trace, out_grad, need=INPUT)]
    numeric = finite_difference(loss_fn, net.params() + [x])
    return max_relative_error(analytic, numeric)


def _family_loss(model, batch: Minibatch, family: str):
    """(the net a loss family differentiates, its loss(grads) closure).

    Inputs the perturbed net cannot reach are built once, here: the two
    completions of ``loss-d``, and the mean real-pair features of
    ``feature-matching``, ``loss-g1`` and ``loss-g2``, which perturb a
    generator. Each evaluation runs only the passes that follow the
    perturbed weights.
    """
    if family == "loss-d":
        completed = [complete(model, v, batch)[1] for v in (1, 2)]

        def loss(grads):
            return loss_discriminator(model, batch, completed, grads=grads)
        return model.disc, loss
    real_mean = real_feature_mean(model, batch)
    if family == "feature-matching":  # through generator 1
        def loss(grads):
            trace, pairs, _ = complete(model, 1, batch)
            return feature_matching_penalty(model, 1, real_mean, pairs, trace, grads=grads)
        return model.generator(1), loss
    v = 1 if family == "loss-g1" else 2

    def loss(grads):
        return loss_generator(model, v, batch, real_mean, fm_weight=1.0, grads=grads)
    return model.generator(v), loss


def _check_loss(rng, family: str) -> float:
    d1 = int(rng.integers(3, 7))
    d2 = int(rng.integers(3, 7))
    k = int(rng.integers(2, 5))
    hidden = int(rng.integers(4, 9))
    model = new_model(d1, d2, k, rng, hidden_dim=hidden)
    net, loss = _family_loss(model, _random_batch(rng, d1, d2, k), family)
    analytic = loss(grads=True)[1]
    numeric = finite_difference(lambda: loss(grads=False)[0], net.params())
    return max_relative_error(analytic, numeric)


@dataclass(frozen=True)
class GradCheckReport:
    family: str
    instances: int
    max_rel_error: float
    passed: bool


def check_family(family: str, instances: int, seed: int) -> GradCheckReport:
    """Run one gradient family over fresh random instances."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if instances < 1:
        raise ConfigError(f"must be at least 1, got {instances}", key="instances")
    rng = np.random.default_rng(seed)
    kind = {"mlp-softmax": SOFTMAX, "mlp-linear": LINEAR}.get(family)
    worst = max(_check_loss(rng, family) if kind is None else _check_mlp(rng, kind)
                for _ in range(instances))
    return GradCheckReport(family, instances, worst, worst < REL_TOL)


def run_all(instances: int, seed: int):
    """One report per family; the suite passes iff every family does."""
    return [check_family(f, instances, seed + i) for i, f in enumerate(FAMILIES)]
