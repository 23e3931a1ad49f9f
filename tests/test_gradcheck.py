"""Tests for the finite-difference gradient oracle itself."""

import math

import numpy as np
import pytest

import viewgan.gradcheck as gc
import viewgan.train as train_mod
from viewgan.model import new_model
from viewgan.nn import PARAMS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["analytic", "numeric"])
def test_a_non_finite_entry_makes_the_error_infinite(bad, side):
    good = [np.array([1.0, 2.0]), np.array([[0.5]])]
    damaged = [good[0].copy(), np.array([[bad]])]
    arrays = (damaged, good) if side == "analytic" else (good, damaged)
    assert gc.max_relative_error(*arrays) == math.inf
    assert gc.max_relative_error(good, [a.copy() for a in good]) == 0.0


def damaged_backward(real_backward, damage):
    """``backward`` with ``damage`` applied to every block it returns."""
    def wrapper(net, trace, output_grad, *, need=PARAMS):
        got = real_backward(net, trace, output_grad, need=need)
        return [damage(block) for block in got] if need == PARAMS else damage(got)
    return wrapper


def patch_backward(monkeypatch, damage):
    for module in (gc, train_mod):
        monkeypatch.setattr(module, "backward", damaged_backward(module.backward, damage))


def test_a_family_with_nan_gradients_fails(monkeypatch):
    patch_backward(monkeypatch, lambda g: np.full_like(g, np.nan))
    for family in gc.FAMILIES:
        report = gc.check_family(family, 3, 0)
        assert report.max_rel_error == math.inf, family
        assert not report.passed, family


def test_a_family_with_slightly_scaled_gradients_fails(monkeypatch):
    # finite but 0.1% off: each family's error lands near 5e-4, above REL_TOL
    patch_backward(monkeypatch, lambda g: g * (1 + 1e-3))
    for family in gc.FAMILIES:
        report = gc.check_family(family, 3, 0)
        assert gc.REL_TOL <= report.max_rel_error < math.inf, family
        assert not report.passed, family


def rebuilding_loss(model, batch, family):
    """The finite-difference loss that rebuilds every input on each evaluation:
    both completions for loss-d, for the others the mean real-pair features."""
    if family == "loss-d":
        def loss():
            completed = [train_mod.complete(model, v, batch)[1] for v in (1, 2)]
            return train_mod.loss_discriminator(model, batch, completed, grads=False)[0]
    elif family == "feature-matching":
        def loss():
            trace, pairs, _ = train_mod.complete(model, 1, batch)
            real = train_mod.real_feature_mean(model, batch)
            return train_mod.feature_matching_penalty(model, 1, real, pairs, trace,
                                                      grads=False)[0]
    else:
        v = 1 if family == "loss-g1" else 2

        def loss():
            real = train_mod.real_feature_mean(model, batch)
            return train_mod.loss_generator(model, v, batch, real, fm_weight=1.0,
                                            grads=False)[0]
    return loss


@pytest.mark.parametrize("family", ["loss-d", "loss-g1", "loss-g2", "feature-matching"])
@pytest.mark.parametrize("seed", [0, 1])
def test_inputs_built_once_give_the_same_finite_differences(family, seed):
    rng = np.random.default_rng(seed)
    model = new_model(4, 5, 3, rng, hidden_dim=6)
    batch = gc._random_batch(rng, 4, 5, 3)
    net, loss = gc._family_loss(model, batch, family)
    hoisted = gc.finite_difference(lambda: loss(grads=False)[0], net.params())
    rebuilt = gc.finite_difference(rebuilding_loss(model, batch, family), net.params())
    for a, b in zip(hoisted, rebuilt):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", gc.FAMILIES)
def test_finite_differences_run_no_backward_pass(monkeypatch, family):
    calls = {"inside": 0, "outside": 0}
    where = ["outside"]
    real_fd = gc.finite_difference

    def watched_fd(loss_fn, arrays):
        where.append("inside")
        try:
            return real_fd(loss_fn, arrays)
        finally:
            where.pop()

    def counted(backward):
        def wrapper(*args, **kwargs):
            calls[where[-1]] += 1
            return backward(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gc, "finite_difference", watched_fd)
    for module in (gc, train_mod):
        monkeypatch.setattr(module, "backward", counted(module.backward))
    assert gc.check_family(family, 2, 0).passed
    assert calls["inside"] == 0
    assert calls["outside"] > 0


def test_check_family_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'loss-x'"):
        gc.check_family("loss-x", 1, 0)
