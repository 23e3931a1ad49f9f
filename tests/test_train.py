"""Tests for minibatch assembly, the three losses and the training loop."""

import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from test_nn import reference_adam, reference_sigmoid, reference_softmax

import viewgan as vg
import viewgan.evaluate as evaluate_mod
import viewgan.nn as nn_mod
import viewgan.train as train_mod
from viewgan.data import Views, one_hot, other_view
from viewgan.errors import ConfigError, DimensionError, NumericError
from viewgan.evaluate import train_singleview_baseline
from viewgan.model import discriminate, generate, generator_input, new_model, pair_input
from viewgan.nn import HIDDEN, INPUT, PARAMS, AdamState, forward
from viewgan.train import (LOG_CLAMP, Minibatch, TrainConfig, clamped_class_grad, complete,
                           feature_matching_penalty, loss_discriminator,
                           loss_generator, real_feature_mean, sample_minibatch, step, train)


def zero_model(d1=2, d2=2, k=3, hidden=4):
    m = new_model(d1, d2, k, np.random.default_rng(0), hidden_dim=hidden)
    for net in (m.gen1, m.gen2, m.disc):
        for block in net.params():
            block[...] = 0.0
    return m


def make_batch(m_b=1, d1=2, d2=2, k=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.stack([one_hot(int(i % k), k) for i in range(m_b)])
    return Minibatch(
        Views(rng.normal(size=(m_b, d1)), rng.normal(size=(m_b, d2)), labels),
        Views(None, rng.normal(size=(m_b, d2)), labels.copy()),
        Views(rng.normal(size=(m_b, d1)), None, labels.copy()),
        rng.uniform(-1, 1, size=(m_b, d1)),
        rng.uniform(-1, 1, size=(m_b, d2)),
    )


def small_task(seed=0, k=2, d1=3, d2=3):
    spec = vg.SyntheticSpec(
        num_classes=k, d1=d1, d2=d2,
        means_view1=vg.block_class_means(k, d1, 2.0),
        means_view2=vg.block_class_means(k, d2, 2.0),
        noise_sigma=0.5, view_correlation=0.0,
        m_full=6, m_missing1=6, m_missing2=6, m_test=8, seed=seed)
    return vg.generate_synthetic(spec)


# ---------------------------------------------------------------- losses

def test_discriminator_loss_at_uniform_output():
    # with all-zero parameters the discriminator emits the uniform
    # distribution over K+1 outputs, which fixes the loss exactly
    k, m_b = 6, 1
    model = zero_model(k=k)
    batch = make_batch(m_b=m_b, k=k)
    completed = [complete(model, v, batch)[1] for v in (1, 2)]
    loss, grads = loss_discriminator(model, batch, completed)
    expect = (k + 2) / (k + 1) * math.log(k + 1)
    assert abs(loss - expect) < 1e-12
    assert grads[0].shape == model.disc.weights_in.shape


def test_discriminator_loss_reads_no_generator():
    # once the completions exist, the loss never looks at a generator again
    model = new_model(2, 2, 3, np.random.default_rng(12), hidden_dim=4)
    batch = make_batch(m_b=2, seed=13)
    completed = [complete(model, v, batch)[1] for v in (1, 2)]
    want, want_grads = loss_discriminator(model, batch, completed)
    for gen in (model.gen1, model.gen2):
        for block in gen.params():
            block[...] = np.nan
    got, got_grads = loss_discriminator(model, batch, completed)
    assert float(got).hex() == float(want).hex()
    for a, b in zip(got_grads, want_grads):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cut", [lambda c: c[:1], lambda c: [c[0], c[1][:1]]],
                         ids=["one-block", "short-block"])
def test_discriminator_loss_needs_two_full_completed_blocks(cut):
    model = new_model(2, 2, 3, np.random.default_rng(14), hidden_dim=4)
    batch = make_batch(m_b=2, seed=15)
    with pytest.raises(DimensionError, match="two completed blocks of m_b = 2 rows"):
        loss_discriminator(model, batch, cut([complete(model, v, batch)[1] for v in (1, 2)]))


def test_discriminator_loss_rejects_a_batch_of_another_k():
    # both losses share one K check. The discriminator's fake-class targets
    # come from the batch: a K = 2 batch would aim them at class 2 of a K = 3
    # model. The generator's class targets do too: in a K = 5 batch a label
    # of 3 would be scored as the fake class and a label of 4 is out of range
    model = new_model(2, 2, 3, np.random.default_rng(14), hidden_dim=4)
    for k in (2, 5):
        batch = make_batch(m_b=5, k=k, seed=15)
        completed = [complete(model, v, batch)[1] for v in (1, 2)]
        message = f"labels have K = {k} classes, but the model has K = 3"
        with pytest.raises(DimensionError, match=message):
            loss_discriminator(model, batch, completed)
        for v in (1, 2):
            with pytest.raises(DimensionError, match=message):
                loss_generator(model, v, batch, real_feature_mean(model, batch))


def test_summed_gradients_carry_no_input_gradient():
    # each loss returns exactly one gradient per parameter block of its
    # player, shaped like it: no pass's input gradient rides along
    model = new_model(2, 2, 3, np.random.default_rng(1), hidden_dim=4)
    batch = make_batch(m_b=2, seed=2)
    completed = [complete(model, v, batch)[1] for v in (1, 2)]
    results = [(model.disc, loss_discriminator(model, batch, completed)[1])]
    mean = real_feature_mean(model, batch)
    results += [(model.generator(v), loss_generator(model, v, batch, mean)[1])
                for v in (1, 2)]
    for net, grads in results:
        assert isinstance(grads, list)
        assert [g.shape for g in grads] == [p.shape for p in net.params()]


def test_generator_class_term_at_uniform_output():
    k, m_b = 6, 1
    model = zero_model(k=k)
    batch = make_batch(m_b=m_b, k=k)
    loss, _ = loss_generator(model, 1, batch, real_feature_mean(model, batch), fm_weight=0.0)
    expect = math.log(k + 1) / (k + 1)
    assert abs(loss - expect) < 1e-12


def test_discriminator_loss_uniform_any_k():
    for k in (2, 3, 4):
        model = zero_model(k=k)
        batch = make_batch(m_b=2, k=k)
        completed = [complete(model, v, batch)[1] for v in (1, 2)]
        loss, _ = loss_discriminator(model, batch, completed)
        expect = (k + 2) / (k + 1) * math.log(k + 1)
        assert abs(loss - expect) < 1e-10


def test_losses_do_not_mutate_the_model():
    model = new_model(2, 2, 3, np.random.default_rng(3), hidden_dim=4)
    batch = make_batch(m_b=2, seed=4)
    before = [b.copy() for n in (model.gen1, model.gen2, model.disc) for b in n.params()]
    loss_discriminator(model, batch, [complete(model, v, batch)[1] for v in (1, 2)])
    loss_generator(model, 1, batch, real_feature_mean(model, batch))
    loss_generator(model, 2, batch, real_feature_mean(model, batch))
    after = [b for n in (model.gen1, model.gen2, model.disc) for b in n.params()]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_clamped_log_saturates_and_freezes_gradient():
    model = zero_model(k=2)
    # force a confident wrong prediction: huge logit on class 1
    model.disc.weights_out[1, :] = 0.0
    model.disc.bias_out[:] = np.array([-60.0, 60.0, -60.0])
    batch = make_batch(m_b=1, k=2, seed=5)
    batch.full.label[0] = one_hot(0, 2)
    completed = [complete(model, v, batch)[1] for v in (1, 2)]
    loss, grads = loss_discriminator(model, batch, completed)
    # the true-class probability underflows past the clamp; the loss is
    # finite and the class term contributes exactly -log(clamp)/3
    class_term = -math.log(LOG_CLAMP) / 3.0
    assert loss > class_term - 1e-9
    assert np.all(np.isfinite(grads[0]))
    # value mode forms no gradient and keeps the loss bits, clamped rows included
    value, none = loss_discriminator(model, batch, completed, grads=False)
    assert none is None and float(value).hex() == float(loss).hex()
    mean = real_feature_mean(model, batch)
    for v in (1, 2):
        want, _ = loss_generator(model, v, batch, mean)
        got, none = loss_generator(model, v, batch, mean, grads=False)
        assert none is None and float(got).hex() == float(want).hex()
    probs = np.array([[0.2, 0.5, 0.3], [1e-13, 0.6, 0.4], [1e-40, 0.7, 0.3]])
    targets = np.array([1, 0, 0])
    want, _ = clamped_class_grad(probs, targets, 1.0 / 96)
    got, none = clamped_class_grad(probs, targets, 1.0 / 96, grads=False)
    assert none is None and float(got).hex() == float(want).hex()


def test_clamped_class_grad_zeroes_only_the_clamped_rows():
    probs = np.array([[0.2, 0.5, 0.3], [1e-13, 0.6, 0.4], [0.1, 0.1, 0.8]])
    targets = np.array([1, 0, 2])
    coeff = 0.25
    expect = coeff * (probs - np.eye(3)[targets])
    loss, dlogits = clamped_class_grad(probs, targets, coeff)
    assert loss == -coeff * float(np.sum(np.log([0.5, LOG_CLAMP, 0.8])))
    assert np.array_equal(dlogits[1], np.zeros(3))
    assert np.array_equal(dlogits[[0, 2]], expect[[0, 2]])
    # with no row clamped every row keeps its gradient
    _, live = clamped_class_grad(probs[[0, 2]], targets[[0, 2]], coeff)
    assert np.array_equal(live, expect[[0, 2]])


def test_feature_matching_zero_when_distributions_match():
    model = new_model(2, 2, 2, np.random.default_rng(6), hidden_dim=4)
    batch = make_batch(m_b=3, k=2, seed=7)
    trace, pairs, _ = complete(model, 1, batch)
    # a batch whose real pairs are generator 1's own completions: means match
    mirror = Minibatch(Views(trace.output, batch.miss1.view2, batch.full.label), batch.miss1,
                       batch.miss2, batch.noise_v1, batch.noise_v2)
    penalty, grads = feature_matching_penalty(
        model, 1, real_feature_mean(model, mirror), pairs, trace)
    assert penalty == 0.0
    assert [g.shape for g in grads] == [p.shape for p in model.gen1.params()]
    for g in grads:
        assert np.all(g == 0)


def test_feature_matching_positive_otherwise():
    model = new_model(2, 2, 2, np.random.default_rng(8), hidden_dim=4)
    batch = make_batch(m_b=3, k=2, seed=9)
    trace, pairs, _ = complete(model, 1, batch)
    penalty, grads = feature_matching_penalty(
        model, 1, real_feature_mean(model, batch), pairs, trace)
    assert penalty > 0
    assert any(np.any(g != 0) for g in grads)


def test_feature_matching_rejects_an_empty_generated_block():
    m = zero_model()
    b = make_batch(m_b=2)
    trace, pairs, _ = complete(m, 1, b)
    with pytest.raises(ConfigError, match="feature matching needs a non-empty generated batch"):
        feature_matching_penalty(m, 1, real_feature_mean(m, b), pairs[:0], trace)


def test_generator_loss_includes_weighted_penalty():
    model = new_model(2, 2, 2, np.random.default_rng(10), hidden_dim=4)
    batch = make_batch(m_b=2, k=2, seed=11)
    mean = real_feature_mean(model, batch)
    plain, _ = loss_generator(model, 1, batch, mean, fm_weight=0.0)
    heavy, _ = loss_generator(model, 1, batch, mean, fm_weight=5.0)
    light, _ = loss_generator(model, 1, batch, mean, fm_weight=1.0)
    fm = light - plain
    assert fm > 0
    assert abs((heavy - plain) - 5.0 * fm) < 1e-9


def test_generator_loss_runs_no_real_pair_pass(monkeypatch):
    # the real pairs' mean features are handed in; the loss itself runs only
    # the generator, the class-term pass and the penalty's pass over its
    # completions, which stops at the hidden layer
    model = new_model(2, 2, 3, np.random.default_rng(16), hidden_dim=4)
    batch = make_batch(m_b=2, seed=17)
    mean = real_feature_mean(model, batch)
    calls = []

    def watched(net, x, **kwargs):
        calls.append((net, x, kwargs))
        return forward(net, x, **kwargs)

    monkeypatch.setattr(train_mod, "forward", watched)
    for v in (1, 2):
        for grads in (True, False):
            calls.clear()
            loss_generator(model, v, batch, mean, grads=grads)
            assert [(net, kwargs) for net, _, kwargs in calls] == [
                (model.generator(v), {}), (model.disc, {}), (model.disc, {"need": HIDDEN})]
            assert not any(np.array_equal(x, batch.real_pairs) for _, x, _ in calls)


@pytest.mark.parametrize("mean", [(5,), (3,), (1, 4), (2, 4)],
                         ids=["wider", "narrower", "row", "block"])
def test_feature_matching_rejects_a_mean_of_another_shape(mean):
    # hidden width 4: the penalty and the generator loss take only a (4,)
    # mean. A wrong shape names both shapes instead of failing inside numpy
    model = new_model(2, 2, 3, np.random.default_rng(18), hidden_dim=4)
    batch = make_batch(m_b=2, seed=19)
    trace, pairs, _ = complete(model, 1, batch)
    pattern = re.escape(f"(4,) vector of the discriminator's mean hidden features, "
                        f"got shape {mean}")
    for grads in (True, False):
        with pytest.raises(DimensionError, match=pattern):
            feature_matching_penalty(model, 1, np.ones(mean), pairs, trace, grads=grads)
        with pytest.raises(DimensionError, match=pattern):
            loss_generator(model, 1, batch, np.ones(mean), grads=grads)


def loss_calls(model, batch):
    """Each loss on this batch, at both views and both fm_weight settings."""
    completed = [complete(model, v, batch) for v in (1, 2)]
    calls = [partial(loss_discriminator, model, batch, [pairs for _, pairs, _ in completed])]
    mean = real_feature_mean(model, batch)
    for v, (trace, pairs, _) in zip((1, 2), completed):
        calls.append(partial(feature_matching_penalty, model, v, mean, pairs, trace))
        calls += [partial(loss_generator, model, v, batch, mean, fm_weight=w)
                  for w in (0.0, 1.0)]
    return calls


def gradcheck_shaped(seed):
    model = new_model(4, 5, 3, np.random.default_rng(seed), hidden_dim=6)
    return model, make_batch(m_b=2, d1=4, d2=5, k=3, seed=seed + 1)


def acceptance_shaped(seed):
    dataset, _, _ = acceptance_shaped_task(seed)
    model = new_model(20, 20, 3, np.random.default_rng(seed + 1), hidden_dim=200)
    return model, sample_minibatch(dataset, 32, np.random.default_rng(seed + 2))


@pytest.mark.parametrize("shaped", [gradcheck_shaped, acceptance_shaped])
def test_value_mode_gives_the_same_loss_bits_without_a_backward_pass(monkeypatch, shaped):
    model, batch = shaped(40)
    calls = loss_calls(model, batch)
    want = [call()[0] for call in calls]

    def no_backward(*args, **kwargs):
        raise AssertionError("backward called with grads=False")

    monkeypatch.setattr(train_mod, "backward", no_backward)
    got = [call(grads=False) for call in calls]
    assert [g for _, g in got] == [None] * len(calls)
    assert [float(loss).hex() for loss, _ in got] == [float(w).hex() for w in want]


# ---------------------------------------------------------------- batches

def test_minibatch_validation():
    b = make_batch(m_b=2)
    with pytest.raises(DimensionError):
        Minibatch(b.full[:1], b.miss1, b.miss2, b.noise_v1, b.noise_v2)
    with pytest.raises(DimensionError):
        Minibatch(b.full, b.miss1, b.miss2, b.noise_v1, b.noise_v2[:1])
    # every subset's labels must have one K
    wide = Views(b.miss2.view1, None, np.eye(4)[[0, 3]])
    with pytest.raises(DimensionError, match=r"label blocks have widths \[3, 3, 4\]"):
        Minibatch(b.full, b.miss1, wide, b.noise_v1, b.noise_v2)


def test_minibatch_blocks_follow_the_model_layout():
    model = new_model(2, 3, 3, np.random.default_rng(0), hidden_dim=4)
    b = make_batch(m_b=4, d1=2, d2=3)
    assert b.real_pairs.tobytes() == pair_input(model, b.full.view1, b.full.view2).tobytes()
    for v, miss, noise in ((1, b.miss1, b.noise_v1), (2, b.miss2, b.noise_v2)):
        gen_input, observed, targets = b.side(v)
        assert observed is miss.view(other_view(v))
        assert np.array_equal(targets, miss.label.argmax(axis=1))
        expect = generator_input(model, v, observed, noise)
        assert gen_input.shape == expect.shape
        assert gen_input.tobytes() == expect.tobytes()


@pytest.mark.parametrize("m_b, k", [(1, 2), (5, 3), (7, 6)])
def test_minibatch_targets_are_the_label_indices(m_b, k):
    rng = np.random.default_rng(m_b)
    labels = [np.eye(k)[rng.integers(0, k, m_b)] for _ in range(3)]
    b = Minibatch(Views(rng.normal(size=(m_b, 2)), rng.normal(size=(m_b, 3)), labels[0]),
                  Views(None, rng.normal(size=(m_b, 3)), labels[1]),
                  Views(rng.normal(size=(m_b, 2)), None, labels[2]),
                  rng.uniform(-1, 1, size=(m_b, 2)), rng.uniform(-1, 1, size=(m_b, 3)))
    want = [np.argmax(label, axis=1) for label in labels]
    got = [b.real_targets, b.side(1)[2], b.side(2)[2]]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert b.fake_targets.dtype == want[0].dtype
    assert np.array_equal(b.fake_targets, np.full(m_b, k))


def test_sample_minibatch_draws_from_each_subset():
    ds, _, _ = small_task()
    rng = np.random.default_rng(1)
    batch = sample_minibatch(ds, 4, rng)
    assert len(batch.full) == 4
    assert batch.full.view1.shape == (4, 3)
    assert batch.miss1.view1 is None and batch.miss2.view2 is None
    assert np.all(np.abs(batch.noise_v1) <= 1.0)
    # drawn rows come from the right subsets
    full_rows = {tuple(e.view1) for e in ds.s_full}
    for row in batch.full.view1:
        assert tuple(row) in full_rows


def test_sample_minibatch_is_a_seeded_gather():
    # draw order: full, missing-1 and missing-2 indices, then view-1 and
    # view-2 noise; a second generator with the same seed replays it
    ds, _, _ = small_task(k=3)
    batch = sample_minibatch(ds, 5, np.random.default_rng(42))
    rng = np.random.default_rng(42)
    full, miss1, miss2 = ds.s_full, ds.s_missing1, ds.s_missing2
    i_full = rng.integers(0, len(full), size=5)
    i_m1 = rng.integers(0, len(miss1), size=5)
    i_m2 = rng.integers(0, len(miss2), size=5)
    for got, subset, idx in ((batch.full, full, i_full), (batch.miss1, miss1, i_m1),
                             (batch.miss2, miss2, i_m2)):
        for field in ("view1", "view2", "label"):
            expect = getattr(subset, field)
            if expect is None:
                assert getattr(got, field) is None, field
            else:
                assert np.array_equal(getattr(got, field), expect[idx]), field
    assert np.array_equal(batch.noise_v1, rng.uniform(-1.0, 1.0, size=(5, ds.d1)))
    assert np.array_equal(batch.noise_v2, rng.uniform(-1.0, 1.0, size=(5, ds.d2)))


def test_sample_minibatch_is_with_replacement():
    ds, _, _ = small_task()
    rng = np.random.default_rng(2)
    batch = sample_minibatch(ds, 50, rng)  # more than any subset holds
    assert len(batch.full) == len(batch.miss1) == len(batch.miss2) == 50


def test_sample_minibatch_names_empty_subset():
    ds, _, _ = small_task()
    empty = vg.PartitionedDataset(s_full=ds.s_full, s_missing1=ds.s_missing1[:0],
                                  s_missing2=ds.s_missing2)
    with pytest.raises(ConfigError, match="missing1"):
        sample_minibatch(empty, 2, np.random.default_rng(0))


# ---------------------------------------------------------------- training

def test_train_zero_iterations_is_a_no_op():
    ds, _, _ = small_task()
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    before = [b.copy() for n in (model.gen1, model.gen2, model.disc) for b in n.params()]
    out, rows = train(model, ds, TrainConfig(iterations=0, minibatch_size=2))
    assert rows == []
    after = [b for n in (out.gen1, out.gen2, out.disc) for b in n.params()]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [{"d1": 4}, {"k": 3}], ids=["view-width", "classes"])
def test_train_rejects_heldout_pairs_of_another_shape_before_any_step(tmp_path, shape):
    ds, _, _ = small_task()
    _, other, _ = small_task(**shape)
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    metrics = tmp_path / "metrics.csv"
    with pytest.raises(DimensionError, match=r"\(3, 3, 2\)"):
        train(model, ds, TrainConfig(iterations=4, minibatch_size=2, eval_every=2),
              heldout=other, metrics_path=metrics)
    assert not metrics.exists()


@pytest.mark.parametrize("damage,error,message", [
    (lambda test: test[:0], ConfigError, "the held-out block is empty"),
    (lambda test: test.with_view(1, None), ValueError, re.escape(
        "the held-out block lacks view 1: it has (d1, d2, K) = (None, 3, 2), "
        "but the model has (3, 3, 2)")),
    (lambda test: test.with_view(2, None), ValueError, re.escape(
        "the held-out block lacks view 2: it has (d1, d2, K) = (3, None, 2), "
        "but the model has (3, 3, 2)")),
], ids=["empty", "no-view1", "no-view2"])
def test_train_rejects_an_unusable_heldout_block_before_any_step(tmp_path, damage, error,
                                                                message):
    ds, test, _ = small_task()
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    metrics = tmp_path / "metrics.csv"
    with pytest.raises(error, match=message):
        train(model, ds, TrainConfig(iterations=4, minibatch_size=2, eval_every=2),
              heldout=damage(test), metrics_path=metrics)
    assert not metrics.exists()


def test_train_rejects_heldout_pairs_it_would_never_score(tmp_path):
    ds, test, _ = small_task()
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    metrics = tmp_path / "metrics.csv"
    with pytest.raises(ConfigError, match="^eval_every must be between 1 and iterations = 4 "
                                          "when held-out pairs are given, got 0$"):
        train(model, ds, TrainConfig(iterations=4, minibatch_size=2), heldout=test,
              metrics_path=metrics)
    assert not metrics.exists()


def test_a_blow_up_mid_training_names_its_iteration():
    ds, _, _ = small_task()
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    model.gen1.weights_out[...] = 1e308  # generator 1's outputs overflow to inf
    with pytest.raises(NumericError, match="^iteration 0: non-finite input$"), \
            np.errstate(over="ignore"):
        train(model, ds, TrainConfig(iterations=3, minibatch_size=2))


@pytest.mark.parametrize("data,model_dims", [
    ((3, 3, 2), (4, 3, 2)), ((3, 3, 2), (3, 4, 2)), ((3, 3, 2), (3, 3, 3)),
    ((3, 4, 2), (4, 3, 2)),
], ids=["d1", "d2", "classes", "swapped-widths"])
def test_train_rejects_a_model_of_another_shape_before_any_step(tmp_path, data, model_dims):
    d1, d2, k = data
    ds, _, _ = small_task(k=k, d1=d1, d2=d2)
    model = new_model(*model_dims, np.random.default_rng(0), hidden_dim=4)
    metrics = tmp_path / "metrics.csv"
    with pytest.raises(DimensionError) as err:
        train(model, ds, TrainConfig(iterations=4, minibatch_size=2), metrics_path=metrics)
    assert str(data) in str(err.value) and str(model_dims) in str(err.value)
    assert not metrics.exists()


def test_train_is_deterministic():
    ds, test, _ = small_task()
    cfg = TrainConfig(iterations=12, minibatch_size=3, seed=42, eval_every=6)
    m1 = new_model(3, 3, 2, np.random.default_rng(1), hidden_dim=4)
    m2 = new_model(3, 3, 2, np.random.default_rng(1), hidden_dim=4)
    out1, rows1 = train(m1, ds, cfg, heldout=test)
    out2, rows2 = train(m2, ds, cfg, heldout=test)
    assert rows1 == rows2
    for a, b in zip(out1.disc.params(), out2.disc.params()):
        assert np.array_equal(a, b)
    for a, b in zip(out1.gen1.params(), out2.gen1.params()):
        assert np.array_equal(a, b)


def test_train_rows_and_metrics_file(tmp_path):
    ds, test, _ = small_task()
    cfg = TrainConfig(iterations=9, minibatch_size=2, seed=7, eval_every=3)
    model = new_model(3, 3, 2, np.random.default_rng(2), hidden_dim=4)
    path = tmp_path / "metrics.csv"
    _, rows = train(model, ds, cfg, heldout=test, metrics_path=path)
    assert len(rows) == 9
    evaluated = [r for r in rows if r[4] is not None]
    # iteration indices are zero based; evaluation lands at the end of
    # every eval_every block
    assert [r[0] for r in evaluated] == [2, 5, 8]
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,loss_d,loss_g1,loss_g2,heldout_acc,heldout_class_acc"
    assert len(lines) == 10
    # unevaluated iterations leave both accuracy columns empty
    assert lines[1].endswith(",,")
    # every line is its returned row: each number parses back, None is empty
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == len(row)
        for field, value in zip(fields, row):
            assert (field == "") if value is None else (float(field) == value)
    # the last step is evaluated on the final model: its class column is
    # evaluate's class-head accuracy on the same pairs
    report = evaluate_mod.evaluate(model, test, vg.Scenario.COMPLETE)
    assert rows[-1][4:] == (report.accuracy, report.class_accuracy)
    assert lines[-1].split(",")[4:] == [repr(report.accuracy), repr(report.class_accuracy)]


def test_train_checkpoints(tmp_path):
    ds, _, _ = small_task()
    path = tmp_path / "model.ckpt"
    cfg = TrainConfig(iterations=4, minibatch_size=2, seed=3, checkpoint_every=2)
    model = new_model(3, 3, 2, np.random.default_rng(4), hidden_dim=4)
    out, _ = train(model, ds, cfg, checkpoint_path=path)
    loaded, seed, step = load = vg.load_checkpoint(path)
    assert step == 4 and seed == 3
    for a, b in zip(loaded.disc.params(), out.disc.params()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("iterations,every,steps", [
    (0, 0, [0]), (3, 0, [3]), (5, 2, [2, 4, 5]), (4, 2, [2, 4]),
])
def test_train_saves_after_the_last_step(tmp_path, monkeypatch, iterations, every, steps):
    saved = []
    monkeypatch.setattr(train_mod, "save_checkpoint",
                        lambda path, model, seed, step: saved.append(step))
    ds, _, _ = small_task()
    cfg = TrainConfig(iterations=iterations, minibatch_size=2, checkpoint_every=every)
    train(new_model(3, 3, 2, np.random.default_rng(4), hidden_dim=4), ds, cfg,
          checkpoint_path=tmp_path / "model.ckpt")
    assert saved == steps


def test_training_moves_losses():
    ds, _, _ = small_task(seed=5)
    cfg = TrainConfig(iterations=40, minibatch_size=4, alpha=1e-3, seed=1)
    model = new_model(3, 3, 2, np.random.default_rng(5), hidden_dim=8)
    _, rows = train(model, ds, cfg)
    assert all(np.isfinite(r[1]) and np.isfinite(r[2]) and np.isfinite(r[3])
               for r in rows)
    assert rows[-1][1] != rows[0][1]


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(iterations=-1, minibatch_size=2)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=1, minibatch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=1, minibatch_size=2, alpha=-1.0)


@pytest.mark.parametrize("fm_weight", [-1.0, math.nan, math.inf])
def test_train_config_requires_a_finite_nonnegative_fm_weight(fm_weight):
    with pytest.raises(ConfigError, match="fm_weight"):
        TrainConfig(iterations=1, minibatch_size=2, fm_weight=fm_weight)
    TrainConfig(iterations=1, minibatch_size=2, fm_weight=0.0)


# ---------------------------------------------------------------- views

@pytest.mark.parametrize("call", [
    lambda m, b, ds: generate(m, 3, b.miss1.view2, b.noise_v1),
    lambda m, b, ds: generator_input(m, 3, b.miss1.view2, b.noise_v1),
    lambda m, b, ds: loss_generator(m, 3, b, real_feature_mean(m, b)),
    lambda m, b, ds: feature_matching_penalty(
        m, 3, real_feature_mean(m, b), b.real_pairs, forward(m.gen1, b.side(1)[0])),
    lambda m, b, ds: ds.observing(3),
    lambda m, b, ds: train_singleview_baseline(
        3, ds, TrainConfig(iterations=1, minibatch_size=2), ds.s_full),
    lambda m, b, ds: b.side(3),
    lambda m, b, ds: b.side(0),
    lambda m, b, ds: ds.lacking(3),
    lambda m, b, ds: ds.s_full.view(3),
    lambda m, b, ds: ds.s_full.with_view(0, None),
    lambda m, b, ds: other_view(3),
], ids=["generate", "generator_input", "loss_generator", "feature_matching_penalty",
        "observing", "train_singleview_baseline", "side", "side-0", "lacking", "view",
        "with_view", "other_view"])
def test_view_taking_entries_reject_a_third_view(call):
    ds, _, _ = small_task(d1=2, d2=2)
    model = new_model(2, 2, 2, np.random.default_rng(0), hidden_dim=4)
    with pytest.raises(ValueError, match="which_view must be 1 or 2"):
        call(model, make_batch(m_b=2, k=2), ds)


# ---------------------------------------------------------------- same bits
#
# The plain expressions the training step's kernels must reproduce bit for
# bit: numpy's mean and norm, fancy-index arithmetic, whole-array sums and
# one Adam update per block.

def plain_clamped_class_grad(probs, targets, coeff, *, grads=True):
    assert grads
    rows = np.arange(probs.shape[0])
    picked = probs[rows, targets]
    loss = -coeff * float(np.sum(np.log(np.maximum(picked, LOG_CLAMP))))
    dlogits = probs.copy()
    dlogits[rows, targets] -= 1.0
    dlogits *= coeff
    dlogits[picked <= LOG_CLAMP] = 0.0
    return loss, dlogits


def plain_backward(net, trace, output_grad, *, need=PARAMS):
    h = trace.hidden_act
    d_hidden = output_grad @ net.weights_out * h * (1.0 - h)
    if need == INPUT:
        return d_hidden @ net.weights_in
    return [d_hidden.T @ trace.input, d_hidden.sum(axis=0), output_grad.T @ h,
            output_grad.sum(axis=0)]


def plain_feature_mean(model, batch):
    pairs = pair_input(model, batch.full.view1, batch.full.view2)
    return np.mean(forward(model.disc, pairs).hidden_act, axis=0)


def plain_feature_matching(model, which_view, real_mean, gen_pairs, gen_trace, *,
                           grads=True):
    assert grads
    feats_gen = forward(model.disc, gen_pairs).hidden_act
    delta = real_mean - np.mean(feats_gen, axis=0)
    norm = float(np.linalg.norm(delta))
    d_hidden_pre = (-delta / norm) / feats_gen.shape[0] * feats_gen * (1.0 - feats_gen)
    d_pairs = d_hidden_pre @ model.disc.weights_in
    return norm, plain_backward(model.generator(which_view), gen_trace,
                                model.slot(which_view, d_pairs))


def into(out, value):
    """``value`` in the caller's buffer ``out``, if one is given."""
    if out is None:
        return value
    out[...] = value
    return out


def textbook_adam_step(params, grads, state):
    """Per-block textbook Adam, kept in per-block views of the state's flat moments."""
    state.step_count += 1
    cuts = np.cumsum([p.size for p in params])[:-1]
    views = [[b.reshape(p.shape) for b, p in zip(np.split(moment, cuts), params)]
             for moment in (state.m, state.v)]
    new, m, v = ([a.copy() for a in blocks] for blocks in (params, *views))
    reference_adam(new, grads, m, v, state.step_count, state.alpha, state.beta1,
                   state.beta2, state.epsilon)
    for live, value in zip(params + views[0] + views[1], new + m + v):
        live[...] = value


def acceptance_shaped_task(seed, d=20, m_missing=100):
    return vg.generate_synthetic(vg.SyntheticSpec(
        num_classes=3, d1=d, d2=d,
        means_view1=vg.block_class_means(3, d, 1.6),
        means_view2=vg.block_class_means(3, d, 0.8),
        noise_sigma=1.0, view_correlation=0.0,
        m_full=50, m_missing1=m_missing, m_missing2=m_missing, m_test=10, seed=seed))


def test_clamped_class_grad_matches_the_plain_expression_bit_for_bit():
    rng = np.random.default_rng(30)
    logits = rng.normal(scale=3.0, size=(32, 4))
    logits[[3, 17], 0] = -80.0  # two rows whose target probability is clamped
    probs = reference_softmax(logits)
    targets = rng.integers(0, 4, size=32)
    targets[[3, 17]] = 0
    assert np.count_nonzero(probs[np.arange(32), targets] <= LOG_CLAMP) == 2
    # 1/96 is not a power of two, so scaling by it rounds
    for rows in (slice(None), [0, 1, 2, 4]):
        got = clamped_class_grad(probs[rows], targets[rows], 1.0 / 96)
        want = plain_clamped_class_grad(probs[rows], targets[rows], 1.0 / 96)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


# m_b = 32 is the acceptance batch; at 24 the 1/m_b scalings round
@pytest.mark.parametrize("m_b", [32, 24])
def test_feature_matching_matches_the_plain_expression_bit_for_bit(m_b):
    dataset, _, _ = acceptance_shaped_task(31)
    model = new_model(20, 20, 3, np.random.default_rng(32), hidden_dim=200)
    batch = sample_minibatch(dataset, m_b, np.random.default_rng(33))
    # the shipped mean from a hidden-layer pass against np.mean of a full pass's features
    plain_mean = plain_feature_mean(model, batch)
    for v in (1, 2):
        trace, pairs, _ = complete(model, v, batch)
        got, got_grads = feature_matching_penalty(model, v, real_feature_mean(model, batch), pairs,
                                                  trace)
        want, want_grads = plain_feature_matching(model, v, plain_mean, pairs, trace)
        assert got == want > 0
        for a, b in zip(got_grads, want_grads):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("m_b", [32, pytest.param(24, marks=pytest.mark.slow)])
def test_training_matches_the_textbook_step_bit_for_bit(monkeypatch, m_b):
    # 50 steps at the acceptance shapes, and at a batch size whose loss
    # weights are not powers of two
    dataset, _, _ = acceptance_shaped_task(34)
    init = new_model(20, 20, 3, np.random.default_rng(35), hidden_dim=200)
    config = TrainConfig(iterations=50, minibatch_size=m_b, seed=36)
    shipped, shipped_rows = train(init.copy(), dataset, config)

    monkeypatch.setattr(nn_mod, "sigmoid", lambda x, out=None: into(out, reference_sigmoid(x)))
    monkeypatch.setattr(nn_mod, "softmax",
                        lambda logits, out=None: into(out, reference_softmax(logits)))
    monkeypatch.setattr(train_mod, "backward", plain_backward)
    monkeypatch.setattr(train_mod, "clamped_class_grad", plain_clamped_class_grad)
    monkeypatch.setattr(train_mod, "real_feature_mean", plain_feature_mean)
    monkeypatch.setattr(train_mod, "feature_matching_penalty", plain_feature_matching)
    monkeypatch.setattr(train_mod, "adam_step", textbook_adam_step)
    textbook, textbook_rows = train(init.copy(), dataset, config)

    assert shipped_rows == textbook_rows
    for name in ("gen1", "gen2", "disc"):
        for a, b in zip(getattr(shipped, name).params(), getattr(textbook, name).params()):
            assert a.tobytes() == b.tobytes()
    assert not np.array_equal(shipped.disc.weights_in, init.disc.weights_in)


def test_train_is_a_loop_of_sample_minibatch_and_step():
    # at the acceptance shapes, train() adds only the loop around the one step
    dataset, _, _ = acceptance_shaped_task(41)
    init = new_model(20, 20, 3, np.random.default_rng(42), hidden_dim=200)
    config = TrainConfig(iterations=20, minibatch_size=32, seed=43)
    trained, rows = train(init.copy(), dataset, config)

    model, rng = init.copy(), np.random.default_rng(config.seed)
    adam = [AdamState(net.params(), config.alpha, config.beta1, config.beta2, config.epsilon)
            for net in (model.disc, model.gen1, model.gen2)]
    hand = [(i, *step(model, sample_minibatch(dataset, 32, rng), adam, config), None, None)
            for i in range(config.iterations)]
    assert repr(rows) == repr(hand)
    for name in ("gen1", "gen2", "disc"):
        for a, b in zip(getattr(trained, name).params(), getattr(model, name).params()):
            assert a.tobytes() == b.tobytes()


# One short wide-shape training in a fresh process with one BLAS thread,
# writing the model's parameter bytes to argv[1].
_WIDE_RUN = """
import sys
import numpy as np
from test_train import acceptance_shaped_task
from viewgan.model import new_model
from viewgan.train import TrainConfig, train

dataset, _, _ = acceptance_shaped_task(37, d=400, m_missing=64)
model = new_model(400, 400, 3, np.random.default_rng(38), hidden_dim=200)
train(model, dataset, TrainConfig(iterations=5, minibatch_size=32, seed=39))
with open(sys.argv[1], "wb") as f:
    for net in (model.gen1, model.gen2, model.disc):
        for block in net.params():
            f.write(block.tobytes())
"""


@pytest.mark.slow
def test_wide_training_is_bitwise_identical_across_fresh_processes(tmp_path):
    # the determinism contract: one numpy/BLAS build and one BLAS thread
    # count give the same bits; the thread count is fixed before numpy loads
    src = Path(vg.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}.bin"
        subprocess.run([sys.executable, "-c", _WIDE_RUN, str(out)], env=env, check=True,
                       timeout=300)
        outputs.append(out.read_bytes())
    assert len(outputs[0]) == 8 * (2 * (200 * 800 + 200 + 400 * 200 + 400)
                                   + 200 * 800 + 200 + 4 * 200 + 4)
    assert outputs[0] == outputs[1]
