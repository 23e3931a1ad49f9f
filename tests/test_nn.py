"""Unit tests for the MLP forward/backward pass and the Adam optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewgan.errors import DimensionError, NumericError
from viewgan.nn import (ALL, INPUT, PARAMS, AdamState, Mlp, adam_step, backward, forward,
                        init_mlp, sigmoid, softmax, xavier_init)


def tiny_net(kind, seed=0, din=3, dh=4, dout=2):
    rng = np.random.default_rng(seed)
    return init_mlp(din, dh, dout, kind, rng)


def test_sigmoid_basic_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    x = np.array([-1000.0, -36.0, 0.0, 36.0, 1000.0])
    y = sigmoid(x)
    assert np.all(np.isfinite(y))
    assert np.all((y > 0) & (y < 1))
    assert y[0] == y[1]  # clipped at the saturation bound
    assert y[-1] == y[-2]


# The textbook expressions the in-place kernels must reproduce bit for bit.
def reference_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -36.0, 36.0)))


def reference_softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    z = np.maximum(z, -36.0)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


SATURATION_EDGES = [35.9, 36.0, 36.1, 1e4, -35.9, -36.0, -36.1, -1e4, -0.0, 0.0]


def test_sigmoid_and_softmax_match_the_textbook_bit_for_bit():
    rng = np.random.default_rng(11)
    blocks = [rng.normal(scale=s, size=shape)
              for s, shape in ((1.0, (32, 200)), (20.0, (7, 5)), (60.0, (1, 3)))]
    blocks.append(np.array([SATURATION_EDGES]))
    # every edge value against every other in a two-logit row
    blocks.append(np.array([[a, b] for a in SATURATION_EDGES for b in SATURATION_EDGES]))
    for x in blocks:
        assert np.array_equal(sigmoid(x), reference_sigmoid(x))
        assert np.array_equal(softmax(x), reference_softmax(x))


def test_activations_leave_their_argument_unchanged():
    x = np.random.default_rng(12).normal(scale=40.0, size=(6, 5))
    saved = x.copy()
    sigmoid(x)
    softmax(x)
    assert np.array_equal(x, saved)


def test_softmax_rows_are_distributions():
    logits = np.array([[1.0, 2.0, 3.0], [-500.0, 0.0, 500.0]])
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)
    assert np.all(np.isfinite(p))


def test_softmax_shift_invariance():
    logits = np.array([[0.3, -1.2, 2.0]])
    shifted = softmax(logits + 17.5)
    assert np.allclose(softmax(logits), shifted, atol=1e-12)


def test_xavier_bounds_and_shape():
    rng = np.random.default_rng(1)
    w = xavier_init(30, 50, rng)
    assert w.shape == (50, 30)
    limit = np.sqrt(6.0 / (30 + 50))
    assert np.all(np.abs(w) <= limit)
    # seeded draws repeat exactly
    w2 = xavier_init(30, 50, np.random.default_rng(1))
    assert np.array_equal(w, w2)


def test_init_mlp_zero_biases():
    net = tiny_net("softmax")
    assert np.all(net.bias_in == 0)
    assert np.all(net.bias_out == 0)
    assert net.input_dim == 3 and net.hidden_dim == 4 and net.output_dim == 2


def test_init_mlp_rejects_unknown_kind():
    with pytest.raises(Exception):
        init_mlp(3, 4, 2, "relu", np.random.default_rng(0))


def test_forward_shapes_and_kinds():
    x = np.random.default_rng(2).normal(size=(5, 3))
    soft = forward(tiny_net("softmax"), x)
    assert soft.output.shape == (5, 2)
    assert np.allclose(soft.output.sum(axis=1), 1.0)
    lin = forward(tiny_net("linear"), x)
    assert lin.output.shape == (5, 2)
    # linear head passes the pre-activation through unchanged
    assert np.array_equal(lin.output, lin.output_pre)


def test_forward_rejects_wrong_input_width():
    # a block of the wrong width, and a single vector of the right width:
    # forward takes (n, input_dim) blocks only
    for x in (np.zeros((4, 7)), np.zeros(3)):
        with pytest.raises(DimensionError):
            forward(tiny_net("linear"), x)


def test_forward_leaves_input_and_logits_alone():
    x = np.random.default_rng(13).normal(size=(5, 3))
    saved = x.copy()
    trace = forward(tiny_net("softmax"), x)
    assert np.array_equal(x, saved)
    # the softmax works on a copy: the logits survive next to the output
    assert trace.output is not trace.output_pre
    assert not np.shares_memory(trace.output, trace.output_pre)
    assert np.array_equal(trace.output, reference_softmax(trace.output_pre))


def fd_grad(f, arr, h=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = f()
        arr[idx] = orig - h
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return g


def test_backward_matches_finite_differences_linear():
    rng = np.random.default_rng(3)
    net = tiny_net("linear", seed=4)
    x = rng.normal(size=(3, 3))
    t = rng.normal(size=(3, 2))

    def loss():
        return 0.5 * float(np.sum((forward(net, x).output - t) ** 2))

    trace = forward(net, x)
    grads = backward(net, trace, trace.output - t)
    for arr, name in [(net.weights_in, "w_in"), (net.bias_in, "b_h"),
                      (net.weights_out, "w_out"), (net.bias_out, "b_o")]:
        num = fd_grad(loss, arr)
        ana = {"w_in": grads.weights_in, "b_h": grads.bias_in,
               "w_out": grads.weights_out, "b_o": grads.bias_out}[name]
        assert np.allclose(ana, num, rtol=1e-5, atol=1e-8), name


def test_backward_matches_finite_differences_softmax():
    rng = np.random.default_rng(5)
    net = tiny_net("softmax", seed=6)
    x = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 0, 1])

    def loss():
        p = forward(net, x).output
        return -float(np.sum(np.log(p[np.arange(4), labels])))

    trace = forward(net, x)
    onehot = np.zeros((4, 2))
    onehot[np.arange(4), labels] = 1.0
    # fused softmax + cross-entropy gradient at the logits
    grads = backward(net, trace, trace.output - onehot)
    num = fd_grad(loss, net.weights_in)
    assert np.allclose(grads.weights_in, num, rtol=1e-5, atol=1e-8)
    num_b = fd_grad(loss, net.bias_out)
    assert np.allclose(grads.bias_out, num_b, rtol=1e-5, atol=1e-8)


def test_backward_input_grad():
    rng = np.random.default_rng(7)
    net = tiny_net("linear", seed=8)
    x = rng.normal(size=(2, 3))
    t = rng.normal(size=(2, 2))
    trace = forward(net, x)
    grads = backward(net, trace, trace.output - t)

    def loss():
        return 0.5 * float(np.sum((forward(net, x).output - t) ** 2))

    num = fd_grad(loss, x)
    assert np.allclose(grads.input_grad, num, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("kind", ["linear", "softmax"])
def test_forward_and_backward_match_the_textbook_bit_for_bit(kind):
    rng = np.random.default_rng(18)
    net = tiny_net(kind, seed=19, din=6, dh=9, dout=4)
    x = rng.normal(scale=3.0, size=(8, 6))
    out_grad = rng.normal(size=(8, 4))
    h = reference_sigmoid(x @ net.weights_in.T + net.bias_in)
    out_pre = h @ net.weights_out.T + net.bias_out
    d_hidden = (out_grad @ net.weights_out) * h * (1.0 - h)
    trace = forward(net, x)
    assert np.array_equal(trace.hidden_act, h)
    assert np.array_equal(trace.output_pre, out_pre)
    out = reference_softmax(out_pre) if kind == "softmax" else out_pre
    assert np.array_equal(trace.output, out)
    grads = backward(net, trace, out_grad)
    expect = [d_hidden.T @ x, d_hidden.sum(axis=0), out_grad.T @ h, out_grad.sum(axis=0),
              d_hidden @ net.weights_in]
    for got, want in zip(grads.params() + [grads.input_grad], expect):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["linear", "softmax"])
def test_partial_backward_matches_the_full_result(kind):
    rng = np.random.default_rng(14)
    net = tiny_net(kind, seed=15, din=5, dh=7, dout=3)
    trace = forward(net, rng.normal(size=(4, 5)))
    out_grad = rng.normal(size=(4, 3))
    full = backward(net, trace, out_grad)
    assert np.array_equal(backward(net, trace, out_grad, need=ALL).input_grad, full.input_grad)
    params = backward(net, trace, out_grad, need=PARAMS)
    assert params.input_grad is None
    for got, want in zip(params.params(), full.params()):
        assert np.array_equal(got, want)
    only_input = backward(net, trace, out_grad, need=INPUT)
    assert only_input.params() == [None] * 4
    assert np.array_equal(only_input.input_grad, full.input_grad)
    with pytest.raises(ValueError):
        backward(net, trace, out_grad, need="weights")


def reference_adam(params, grads, m, v, t, alpha=1e-4, b1=0.5, b2=0.999, eps=1e-8):
    """The textbook bias-corrected update, one fresh array per operation."""
    for i, g in enumerate(grads):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * g * g
        m_hat = m[i] / (1.0 - b1 ** t)
        v_hat = v[i] / (1.0 - b2 ** t)
        params[i] = params[i] - alpha * m_hat / (np.sqrt(v_hat) + eps)


def four_blocks(rng):
    return [rng.normal(size=shape) for shape in ((7, 5), (7,), (3, 7), (3,))]


def test_adam_matches_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(16)
    # parameters on the scale of one step, so a last-bit change in the
    # step is not rounded away when it is subtracted
    params = [p * 1e-4 for p in four_blocks(rng)]
    ref = [p.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    state = AdamState.for_params(params)
    for t in (1, 2, 3):
        grads = [g * 10.0 ** (t - 2) for g in four_blocks(rng)]
        adam_step(params, grads, state)
        reference_adam(ref, grads, ref_m, ref_v, t)
        for got, want in zip(params + state.first_moment + state.second_moment,
                             ref + ref_m + ref_v):
            assert np.array_equal(got, want)
    assert state.step_count == 3


def test_adam_first_step_is_signed_alpha():
    p = np.array([1.0, 1.0, 1.0])
    g = np.array([0.5, -2.0, 1e-3])
    state = AdamState.for_params([p], alpha=1e-4)
    adam_step([p], [g], state)
    # bias correction makes the first update alpha * g/|g| up to epsilon
    expect = 1.0 - 1e-4 * np.sign(g)
    assert np.allclose(p, expect, atol=1e-8)
    assert state.step_count == 1


def test_adam_zero_gradient_keeps_params():
    p = np.array([2.0, -3.0])
    state = AdamState.for_params([p])
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p, np.array([2.0, -3.0]))


def test_adam_rejects_nonfinite_gradients_before_mutating():
    p = np.array([1.0, 2.0])
    saved = p.copy()
    state = AdamState.for_params([p])
    with pytest.raises(NumericError):
        adam_step([p], [np.array([np.nan, 0.0])], state)
    assert np.array_equal(p, saved)
    assert state.step_count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_a_bad_last_block_before_touching_any(bad):
    rng = np.random.default_rng(17)
    params = four_blocks(rng)
    state = AdamState.for_params(params)
    adam_step(params, four_blocks(rng), state)  # nonzero moments to guard
    saved = [a.copy() for a in params + state.first_moment + state.second_moment]
    grads = four_blocks(rng)
    grads[-1][-1] = bad
    with pytest.raises(NumericError):
        adam_step(params, grads, state)
    for got, want in zip(params + state.first_moment + state.second_moment, saved):
        assert np.array_equal(got, want)
    assert state.step_count == 1


def test_adam_state_shape_mismatch():
    p = np.array([1.0, 2.0])
    state = AdamState.for_params([p])
    with pytest.raises(DimensionError):
        adam_step([p], [np.zeros(3)], state)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_forward_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    net = init_mlp(4, 3, 5, "softmax", np.random.default_rng(seed))
    x = rng.normal(size=(3, 4))
    a = forward(net, x).output
    b = forward(net, x).output
    assert np.array_equal(a, b)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6))
@settings(max_examples=50)
def test_softmax_is_bounded(logit_row):
    p = softmax(np.array([logit_row]))
    assert abs(float(p.sum()) - 1.0) < 1e-9
    assert np.all(p >= 0) and np.all(p <= 1)
