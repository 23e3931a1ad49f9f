"""Tests for minibatch assembly, the three losses and the training loop."""

import math

import numpy as np
import pytest

import viewgan as vg
import viewgan.train as train_mod
from viewgan.data import Views, one_hot, other_view
from viewgan.errors import ConfigError, DimensionError
from viewgan.evaluate import train_singleview_baseline
from viewgan.model import discriminate, generate, generator_input, new_model, pair_input
from viewgan.nn import forward
from viewgan.train import (LOG_CLAMP, Minibatch, TrainConfig, clamped_class_grad,
                           feature_matching_penalty, loss_discriminator,
                           loss_generator, sample_minibatch, train)


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
    loss, grads = loss_discriminator(model, batch)
    expect = (k + 2) / (k + 1) * math.log(k + 1)
    assert abs(loss - expect) < 1e-12
    assert grads.params()[0].shape == model.disc.weights_in.shape


def test_summed_gradients_carry_no_input_gradient():
    # sums over several passes are built from parameter-only passes, so no
    # single pass's input gradient rides along with them
    model = new_model(2, 2, 3, np.random.default_rng(1), hidden_dim=4)
    batch = make_batch(m_b=2, seed=2)
    assert loss_discriminator(model, batch)[1].input_grad is None
    for v in (1, 2):
        assert loss_generator(model, v, batch)[1].input_grad is None


def test_generator_class_term_at_uniform_output():
    k, m_b = 6, 1
    model = zero_model(k=k)
    batch = make_batch(m_b=m_b, k=k)
    loss, _ = loss_generator(model, 1, batch, fm_weight=0.0)
    expect = math.log(k + 1) / (k + 1)
    assert abs(loss - expect) < 1e-12


def test_discriminator_loss_uniform_any_k():
    for k in (2, 3, 4):
        model = zero_model(k=k)
        batch = make_batch(m_b=2, k=k)
        loss, _ = loss_discriminator(model, batch)
        expect = (k + 2) / (k + 1) * math.log(k + 1)
        assert abs(loss - expect) < 1e-10


def test_losses_do_not_mutate_the_model():
    model = new_model(2, 2, 3, np.random.default_rng(3), hidden_dim=4)
    batch = make_batch(m_b=2, seed=4)
    before = [b.copy() for n in (model.gen1, model.gen2, model.disc) for b in n.params()]
    loss_discriminator(model, batch)
    loss_generator(model, 1, batch)
    loss_generator(model, 2, batch)
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
    loss, grads = loss_discriminator(model, batch)
    # the true-class probability underflows past the clamp; the loss is
    # finite and the class term contributes exactly -log(clamp)/3
    class_term = -math.log(LOG_CLAMP) / 3.0
    assert loss > class_term - 1e-9
    assert np.all(np.isfinite(grads.params()[0]))


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
    noise = batch.noise_v1
    observed = batch.miss1.view2
    fake1 = generate(model, 1, observed, noise)
    trace = forward(model.gen1, generator_input(model, 1, observed, noise))
    # feed the generator's own output back as the "real" pairs: means match
    penalty, grads = feature_matching_penalty(
        model, 1, pair_input(model, fake1, observed),
        model.completed_pair(1, trace.output, observed), trace)
    assert penalty == 0.0
    for g in grads.params():
        assert np.all(g == 0)


def test_feature_matching_positive_otherwise():
    model = new_model(2, 2, 2, np.random.default_rng(8), hidden_dim=4)
    batch = make_batch(m_b=3, k=2, seed=9)
    trace = forward(model.gen1, generator_input(model, 1, batch.miss1.view2, batch.noise_v1))
    penalty, grads = feature_matching_penalty(
        model, 1, batch.real_pairs, model.completed_pair(1, trace.output, batch.miss1.view2),
        trace)
    assert penalty > 0
    assert any(np.any(g != 0) for g in grads.params())


def test_generator_loss_includes_weighted_penalty():
    model = new_model(2, 2, 2, np.random.default_rng(10), hidden_dim=4)
    batch = make_batch(m_b=2, k=2, seed=11)
    plain, _ = loss_generator(model, 1, batch, fm_weight=0.0)
    heavy, _ = loss_generator(model, 1, batch, fm_weight=5.0)
    light, _ = loss_generator(model, 1, batch, fm_weight=1.0)
    fm = light - plain
    assert fm > 0
    assert abs((heavy - plain) - 5.0 * fm) < 1e-9


# ---------------------------------------------------------------- batches

def test_minibatch_validation():
    b = make_batch(m_b=2)
    with pytest.raises(DimensionError):
        Minibatch(b.full[:1], b.miss1, b.miss2, b.noise_v1, b.noise_v2)
    with pytest.raises(DimensionError):
        Minibatch(b.full, b.miss1, b.miss2, b.noise_v1, b.noise_v2[:1])


def test_minibatch_blocks_follow_the_model_layout():
    model = new_model(2, 3, 3, np.random.default_rng(0), hidden_dim=4)
    b = make_batch(m_b=4, d1=2, d2=3)
    assert b.real_pairs.tobytes() == pair_input(model, b.full.view1, b.full.view2).tobytes()
    for v, miss, noise in ((1, b.miss1, b.noise_v1), (2, b.miss2, b.noise_v2)):
        gen_input, observed, labels = b.side(v)
        assert observed is miss.view(other_view(v)) and labels is miss.label
        expect = generator_input(model, v, observed, noise)
        assert gen_input.shape == expect.shape
        assert gen_input.tobytes() == expect.tobytes()


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
                                  s_missing2=ds.s_missing2,
                                  d1=ds.d1, d2=ds.d2, num_classes=ds.num_classes)
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
    report = vg.evaluate(model, test, vg.Scenario.COMPLETE)
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


# ---------------------------------------------------------------- views

@pytest.mark.parametrize("call", [
    lambda m, b, ds: generate(m, 3, b.miss1.view2, b.noise_v1),
    lambda m, b, ds: generator_input(m, 3, b.miss1.view2, b.noise_v1),
    lambda m, b, ds: loss_generator(m, 3, b),
    lambda m, b, ds: feature_matching_penalty(
        m, 3, b.real_pairs, b.real_pairs, forward(m.gen1, b.side(1)[0])),
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
