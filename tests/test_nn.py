"""Unit tests for the MLP forward/backward pass and the Adam optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewgan.errors import ConfigError, DimensionError, NumericError
from viewgan.nn import (HIDDEN, INPUT, OUTPUT, PARAMS, AdamState, Mlp, adam_step, backward,
                        forward, init_mlp, sigmoid, softmax, xavier_init)
from viewgan.train import TrainConfig


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
        for fn, reference in ((sigmoid, reference_sigmoid), (softmax, reference_softmax)):
            want = reference(x)
            assert np.array_equal(fn(x), want)
            # out= a separate buffer, and out= the argument itself
            out = np.empty_like(x)
            assert fn(x, out=out) is out and np.array_equal(out, want)
            own = x.copy()
            assert fn(own, out=own) is own and np.array_equal(own, want)


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


def test_forward_rejects_wrong_input_width():
    # a block of the wrong width, and a single vector of the right width:
    # forward takes (n, input_dim) blocks only
    for x in (np.zeros((4, 7)), np.zeros(3)):
        with pytest.raises(DimensionError):
            forward(tiny_net("linear"), x)


def test_forward_leaves_its_input_alone():
    x = np.random.default_rng(13).normal(size=(5, 3))
    saved = x.copy()
    forward(tiny_net("softmax"), x)
    assert np.array_equal(x, saved)


@pytest.mark.parametrize("kind", ["linear", "softmax"])
def test_a_hidden_layer_pass_stops_before_the_output(kind):
    # a minibatch-sized block, and a 5000-row block at hidden width 200
    rng = np.random.default_rng(20)
    for n, din, dh in ((8, 6, 9), (5000, 40, 200)):
        net = tiny_net(kind, seed=21, din=din, dh=dh, dout=4)
        x = rng.normal(scale=3.0, size=(n, din))
        saved = x.copy()
        full = forward(net, x, need=OUTPUT)
        trace = forward(net, x, need=HIDDEN)
        assert np.array_equal(x, saved)
        assert trace.output is None
        assert trace.hidden_act.tobytes() == full.hidden_act.tobytes()
        for need in (PARAMS, INPUT):
            with pytest.raises(ValueError, match="stops at the hidden layer"):
                backward(net, trace, np.zeros((n, 4)), need=need)
    with pytest.raises(ValueError, match="unknown need 'logits'"):
        forward(net, x, need="logits")


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
    for arr, ana, name in zip(net.params(), grads, ["w_in", "b_h", "w_out", "b_o"]):
        num = fd_grad(loss, arr)
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
    w_in, _, _, b_out = backward(net, trace, trace.output - onehot)
    num = fd_grad(loss, net.weights_in)
    assert np.allclose(w_in, num, rtol=1e-5, atol=1e-8)
    num_b = fd_grad(loss, net.bias_out)
    assert np.allclose(b_out, num_b, rtol=1e-5, atol=1e-8)


def test_backward_input_grad():
    rng = np.random.default_rng(7)
    net = tiny_net("linear", seed=8)
    x = rng.normal(size=(2, 3))
    t = rng.normal(size=(2, 2))
    trace = forward(net, x)
    input_grad = backward(net, trace, trace.output - t, need=INPUT)

    def loss():
        return 0.5 * float(np.sum((forward(net, x).output - t) ** 2))

    num = fd_grad(loss, x)
    assert np.allclose(input_grad, num, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("kind", ["linear", "softmax"])
def test_forward_and_backward_match_the_textbook_bit_for_bit(kind):
    # a minibatch-sized block, and a 5000-row held-out pass at hidden width 200
    for n, din, dh in ((8, 6, 9), (5000, 40, 200)):
        check_forward_and_backward(kind, n, din, dh)


def check_forward_and_backward(kind, n, din, dh):
    rng = np.random.default_rng(18)
    net = tiny_net(kind, seed=19, din=din, dh=dh, dout=4)
    x = rng.normal(scale=3.0, size=(n, din))
    out_grad = rng.normal(size=(n, 4))
    h = reference_sigmoid(x @ net.weights_in.T + net.bias_in)
    out_pre = h @ net.weights_out.T + net.bias_out
    d_hidden = (out_grad @ net.weights_out) * h * (1.0 - h)
    trace = forward(net, x)
    assert np.array_equal(trace.hidden_act, h)
    out = reference_softmax(out_pre) if kind == "softmax" else out_pre
    assert np.array_equal(trace.output, out)
    expect = [d_hidden.T @ x, d_hidden.sum(axis=0), out_grad.T @ h, out_grad.sum(axis=0)]
    grads = backward(net, trace, out_grad, need=PARAMS)
    assert len(grads) == len(expect)
    for got, want in zip(grads, expect):
        assert np.array_equal(got, want)
    assert np.array_equal(backward(net, trace, out_grad, need=INPUT), d_hidden @ net.weights_in)


@pytest.mark.parametrize("kind", ["linear", "softmax"])
def test_backward_returns_what_need_asks_for(kind):
    rng = np.random.default_rng(14)
    net = tiny_net(kind, seed=15, din=5, dh=7, dout=3)
    x = rng.normal(size=(4, 5))
    trace = forward(net, x)
    out_grad = rng.normal(size=(4, 3))
    # PARAMS, the default: a list of the four blocks in net.params() order
    params = backward(net, trace, out_grad, need=PARAMS)
    assert isinstance(params, list)
    assert [g.shape for g in params] == [p.shape for p in net.params()]
    for got, want in zip(backward(net, trace, out_grad), params):
        assert np.array_equal(got, want)
    # INPUT: one array shaped like the input
    input_grad = backward(net, trace, out_grad, need=INPUT)
    assert isinstance(input_grad, np.ndarray) and input_grad.shape == x.shape
    for need in ("all", "weights"):
        with pytest.raises(ValueError):
            backward(net, trace, out_grad, need=need)


def reference_adam(params, grads, m, v, t, alpha=1e-4, b1=0.5, b2=0.999, eps=1e-8):
    """The textbook bias-corrected update, one fresh array per operation."""
    for i, g in enumerate(grads):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * g * g
        m_hat = m[i] / (1.0 - b1 ** t)
        v_hat = v[i] / (1.0 - b2 ** t)
        params[i] = params[i] - alpha * m_hat / (np.sqrt(v_hat) + eps)


# reference_adam's defaults: alpha, beta1, beta2, epsilon
ADAM = (1e-4, 0.5, 0.999, 1e-8)


def four_blocks(rng):
    return [rng.normal(size=shape) for shape in ((7, 5), (7,), (3, 7), (3,))]


def flat(blocks):
    return np.concatenate([b.ravel() for b in blocks])


def test_adam_matches_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(16)
    # parameters on the scale of one step, so a last-bit change in the
    # step is not rounded away when it is subtracted
    params = [p * 1e-4 for p in four_blocks(rng)]
    ref = [p.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    state = AdamState(params, *ADAM)
    for t in (1, 2, 3):
        grads = [g * 10.0 ** (t - 2) for g in four_blocks(rng)]
        adam_step(params, grads, state)
        reference_adam(ref, grads, ref_m, ref_v, t)
        for got, want in zip(params, ref):
            assert np.array_equal(got, want)
        assert np.array_equal(state.m, flat(ref_m))
        assert np.array_equal(state.v, flat(ref_v))
    assert state.step_count == 3


def test_adam_first_step_is_signed_alpha():
    p = np.array([1.0, 1.0, 1.0])
    g = np.array([0.5, -2.0, 1e-3])
    state = AdamState([p], *ADAM)
    adam_step([p], [g], state)
    # bias correction makes the first update alpha * g/|g| up to epsilon
    expect = 1.0 - 1e-4 * np.sign(g)
    assert np.allclose(p, expect, atol=1e-8)
    assert state.step_count == 1


def test_adam_zero_gradient_keeps_params():
    p = np.array([2.0, -3.0])
    state = AdamState([p], *ADAM)
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p, np.array([2.0, -3.0]))


def test_adam_rejects_nonfinite_gradients_before_mutating():
    p = np.array([1.0, 2.0])
    saved = p.copy()
    state = AdamState([p], *ADAM)
    with pytest.raises(NumericError):
        adam_step([p], [np.array([np.nan, 0.0])], state)
    assert np.array_equal(p, saved)
    assert state.step_count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_a_bad_last_block_before_touching_any(bad):
    rng = np.random.default_rng(17)
    params = four_blocks(rng)
    state = AdamState(params, *ADAM)
    adam_step(params, four_blocks(rng), state)  # nonzero moments to guard
    saved = [a.copy() for a in params + [state.m, state.v]]
    grads = four_blocks(rng)
    grads[-1][-1] = bad
    with pytest.raises(NumericError):
        adam_step(params, grads, state)
    for got, want in zip(params + [state.m, state.v], saved):
        assert np.array_equal(got, want)
    assert state.step_count == 1


def test_adam_state_shape_mismatch():
    p = np.array([1.0, 2.0])
    state = AdamState([p], *ADAM)
    with pytest.raises(DimensionError):
        adam_step([p], [np.zeros(3)], state)


def test_adam_moments_are_one_flat_vector_each():
    rng = np.random.default_rng(20)
    params = four_blocks(rng)
    state = AdamState(params, *ADAM)
    size = sum(p.size for p in params)
    for moment in (state.m, state.v):
        assert moment.dtype == np.float64 and moment.shape == (size,)
        assert not moment.any()
        assert not any(np.shares_memory(moment, p) for p in params)
    assert not np.shares_memory(state.m, state.v)
    # after one step the first moment is (1 - beta1) * g, in params() order
    grads = four_blocks(rng)
    adam_step(params, grads, state)
    assert np.array_equal(state.m, (1.0 - ADAM[1]) * flat(grads))


BAD_HYPERPARAMETERS = ([(name, value) for name in ("alpha", "epsilon")
                        for value in (0.0, -1.0, np.nan, np.inf)]
                       + [(name, value) for name in ("beta1", "beta2")
                          for value in (-0.1, 1.0, np.nan)])


@pytest.mark.parametrize("name,value", BAD_HYPERPARAMETERS,
                         ids=[f"{n}={v}" for n, v in BAD_HYPERPARAMETERS])
def test_adam_and_train_config_share_one_hyperparameter_rule(name, value):
    settings = dict(zip(("alpha", "beta1", "beta2", "epsilon"), ADAM), **{name: value})
    with pytest.raises(ConfigError, match=name):
        AdamState([np.zeros(2)], **settings)
    with pytest.raises(ConfigError, match=name):
        TrainConfig(iterations=1, minibatch_size=1, **settings)


@pytest.mark.parametrize("case", ["fewer grads", "fewer params", "grad shape", "param shape"])
def test_adam_rejects_a_layout_mismatch_before_touching_any(case):
    rng = np.random.default_rng(21)
    params = four_blocks(rng)
    state = AdamState(params, *ADAM)
    adam_step(params, four_blocks(rng), state)  # nonzero moments to guard
    saved = [a.copy() for a in params + [state.m, state.v]]
    call_params, grads = list(params), four_blocks(rng)
    if case == "fewer grads":
        grads.pop()
    elif case == "fewer params":
        call_params.pop()
        grads.pop()
    elif case == "grad shape":
        grads[0] = grads[0].T.copy()
    else:
        call_params[2] = np.zeros((7, 3))
        grads[2] = np.zeros((7, 3))
    with pytest.raises(DimensionError):
        adam_step(call_params, grads, state)
    for got, want in zip(params + [state.m, state.v], saved):
        assert np.array_equal(got, want)
    assert state.step_count == 1


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
