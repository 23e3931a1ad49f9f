"""Tests for the finite-difference gradient oracle itself."""

import math

import numpy as np
import pytest

import viewgan.gradcheck as gc
import viewgan.train as train_mod
from viewgan.nn import PARAMS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["analytic", "numeric"])
def test_a_non_finite_entry_makes_the_error_infinite(bad, side):
    good = [np.array([1.0, 2.0]), np.array([[0.5]])]
    damaged = [good[0].copy(), np.array([[bad]])]
    arrays = (damaged, good) if side == "analytic" else (good, damaged)
    assert gc.max_relative_error(*arrays) == math.inf
    assert gc.max_relative_error(good, [a.copy() for a in good]) == 0.0


def test_a_family_with_nan_gradients_fails(monkeypatch):
    real_backward = gc.backward

    def nan_backward(net, trace, output_grad, *, need=PARAMS):
        got = real_backward(net, trace, output_grad, need=need)
        if need == PARAMS:
            return [np.full_like(block, np.nan) for block in got]
        return np.full_like(got, np.nan)

    monkeypatch.setattr(gc, "backward", nan_backward)
    report = gc.check_family("mlp-softmax", 3, 0)
    assert report.max_rel_error == math.inf
    assert not report.passed


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
