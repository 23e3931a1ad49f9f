"""Tests for the tripartite model wrapper, the decide rule and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viewgan.model as model_mod
from viewgan.errors import DataFormatError, DimensionError
from viewgan.model import (CHECKPOINT_MAGIC, decide_batch, discriminate, generate,
                           generator_input, load_checkpoint, new_model, pair_input,
                           save_checkpoint)


def small_model(seed=0, d1=3, d2=4, k=2, hidden=5):
    return new_model(d1, d2, k, np.random.default_rng(seed), hidden_dim=hidden)


def test_new_model_dimensions():
    m = small_model()
    # generators take [noise || observed other view], discriminator the pair
    assert m.gen1.input_dim == 3 + 4
    assert m.gen1.output_dim == 3
    assert m.gen2.input_dim == 4 + 3
    assert m.gen2.output_dim == 4
    assert m.disc.input_dim == 7
    assert m.disc.output_dim == 3  # K classes plus the fake class


def test_generator_input_layout():
    m = small_model()
    noise = np.arange(3.0).reshape(1, 3)
    observed = np.arange(10.0, 14.0).reshape(1, 4)
    z = generator_input(m, 1, observed, noise)
    assert z.shape == (1, 7)
    assert np.array_equal(z[0, :3], noise[0])
    assert np.array_equal(z[0, 3:], observed[0])


def test_pair_input_concatenates_views():
    m = small_model()
    x1 = np.ones((2, 3))
    x2 = np.zeros((2, 4))
    z = pair_input(m, x1, x2)
    assert z.shape == (2, 7)
    assert np.all(z[:, :3] == 1) and np.all(z[:, 3:] == 0)


def test_generate_and_discriminate_shapes():
    m = small_model()
    rng = np.random.default_rng(1)
    x2 = rng.normal(size=(6, 4))
    noise = rng.uniform(-1, 1, size=(6, 3))
    fake1 = generate(m, 1, x2, noise)
    assert fake1.shape == (6, 3)
    p = discriminate(m, fake1, x2)
    assert p.shape == (6, 3)
    assert np.allclose(p.sum(axis=1), 1.0)


@pytest.mark.parametrize("assemble", [
    lambda m, v: pair_input(m, v, np.zeros((1, 4))),
    lambda m, v: generator_input(m, 1, np.zeros((1, 4)), v),
], ids=["pair_input", "generator_input"])
def test_inputs_reject_a_single_vector(assemble):
    # a view of width 3 given as a 1-D vector, not a (1, 3) block
    with pytest.raises(DimensionError):
        assemble(small_model(), np.zeros(3))


def test_decide_rule_boundary_is_not_fake():
    # exactly half the mass on the fake class: strict inequality keeps it real
    fake, cls = decide_batch(np.array([[0.25, 0.25, 0.5]]))
    assert not fake[0]
    assert cls[0] == 0  # tie between classes goes to the lowest index
    fake2, _ = decide_batch(np.array([[0.24, 0.25, 0.51]]))
    assert fake2[0]


def test_decide_batch_argmax():
    probs = np.array([[0.1, 0.6, 0.3],
                      [0.7, 0.1, 0.2]])
    fake, cls = decide_batch(probs)
    assert not fake.any()
    assert list(cls) == [1, 0]


def test_checkpoint_roundtrip_is_exact(tmp_path):
    m = small_model(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, seed=123, step=45)
    loaded, seed, step = load_checkpoint(path)
    assert seed == 123 and step == 45
    for a, b in zip(m.gen1.params() + m.gen2.params() + m.disc.params(),
                    loaded.gen1.params() + loaded.gen2.params() + loaded.disc.params()):
        assert np.array_equal(a, b)  # bitwise, not approximate
    assert loaded.d1 == m.d1 and loaded.d2 == m.d2
    assert loaded.num_classes == m.num_classes


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CHECKPOINT\n")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_checkpoint_reports_line_of_damage(tmp_path):
    m = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, seed=0, step=0)
    lines = path.read_text().splitlines()
    lines[6] = "definitely not numbers"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(path)
    assert err.value.line == 7


@pytest.mark.parametrize("lineno,bad", [
    (2, "layout generator-input=condition,noise discriminator-input=view2,view1"),
    (3, "dims 3 x 2"),
    (4, "seed"),
    (5, "step 1.5"),
    (6, "net gen1 linear 7 five 3"),
])
def test_checkpoint_header_errors_carry_line_numbers(tmp_path, lineno, bad):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model(), seed=0, step=0)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(path)
    assert err.value.line == lineno


@pytest.mark.parametrize("appended", [["", "stray"], None],
                         ids=["stray-line", "second-checkpoint"])
def test_checkpoint_rejects_content_after_the_last_net(tmp_path, appended):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model(), seed=0, step=0)
    lines = path.read_text().splitlines()
    extra = lines if appended is None else appended
    path.write_text("\n".join(lines + extra) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(path)
    first = next(i for i, line in enumerate(extra) if line.strip())
    assert err.value.line == len(lines) + first + 1


@pytest.mark.parametrize("lineno,damage", [
    (7, lambda line: "abc" + line[line.index(" "):]),
    (7, lambda line: "nan" + line[line.index(" "):]),
    (6, lambda line: line.replace(" linear ", " softmax ")),
    (6, lambda line: line.replace(" 7 5 3", " 7 5 4")),
], ids=["not-a-number", "non-finite", "wrong-output-kind", "sizes-disagree-with-dims"])
def test_checkpoint_net_errors_carry_line_numbers(tmp_path, lineno, damage):
    # line 6 is the 'net gen1 linear 7 5 3' header, line 7 its first weight row
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model(), seed=0, step=0)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = damage(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(path)
    assert err.value.line == lineno


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model(seed=1), seed=0, step=1)
    first = path.read_bytes()

    def boom(*args):
        raise OSError("disk full")

    monkeypatch.setattr(model_mod, "_write_net", boom)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, small_model(seed=2), seed=0, step=2)
    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_magic_is_stable(tmp_path):
    m = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, seed=0, step=0)
    assert path.read_text().splitlines()[0] == CHECKPOINT_MAGIC


@given(value=st.floats(allow_nan=False, allow_infinity=False, width=64),
       step=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_checkpoint_preserves_extreme_parameter_values(value, step):
    import tempfile
    m = small_model(seed=3)
    m.gen1.weights_in[0, 0] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/m.ckpt"
        save_checkpoint(path, m, seed=1, step=step)
        loaded, _, got_step = load_checkpoint(path)
    assert got_step == step
    got = loaded.gen1.weights_in[0, 0]
    assert got == value or (np.isnan(got) and np.isnan(value))


def test_model_copy_is_deep():
    m = small_model()
    c = m.copy()
    c.disc.weights_in[0, 0] += 1.0
    assert m.disc.weights_in[0, 0] != c.disc.weights_in[0, 0]
