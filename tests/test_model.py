"""Tests for the tripartite model wrapper, the decide rule and checkpoints."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viewgan.model as model_mod
import viewgan.nn as nn_mod
from viewgan.errors import DataFormatError, DimensionError
from viewgan.model import (CHECKPOINT_MAGIC, decide_batch, discriminate, generate,
                           generator_input, load_checkpoint, new_model, pair_input,
                           save_checkpoint)
from viewgan.nn import forward


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


def test_a_generator_shared_by_both_views_fills_the_slot_of_the_view_named():
    m = small_model(d1=3, d2=3)
    shared = model_mod.TripartiteModel(m.gen1, m.gen1, m.disc)
    block = np.arange(12.0).reshape(2, 6)
    assert np.array_equal(shared.slot(1, block), block[:, :3])
    assert np.array_equal(shared.slot(2, block), block[:, 3:])
    generated, observed = np.zeros((2, 3)), np.ones((2, 3))
    assert np.array_equal(shared.completed_pair(1, generated, observed),
                          np.hstack([generated, observed]))
    assert np.array_equal(shared.completed_pair(2, generated, observed),
                          np.hstack([observed, generated]))


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


@pytest.mark.parametrize("call,message", [
    (lambda m: generate(m, 1, np.zeros((2, 4)), np.zeros((2, 4))),
     "noise dim 4 != generated view dim 3"),
    (lambda m: generate(m, 1, np.zeros((2, 3)), np.zeros((2, 3))),
     "observed dim 3 != other view dim 4"),
    (lambda m: generate(m, 1, np.zeros((2, 4)), np.zeros((3, 3))),
     "noise and observed batch sizes differ"),
    (lambda m: discriminate(m, np.zeros((2, 4)), np.zeros((2, 4))),
     r"pair dims \(4, 4\) != \(3, 4\)"),
    (lambda m: discriminate(m, np.zeros((2, 3)), np.zeros((3, 4))),
     "view batch sizes differ"),
], ids=["generate-noise-width", "generate-observed-width", "generate-rows",
        "discriminate-view-width", "discriminate-rows"])
def test_generate_and_discriminate_reject_blocks_that_do_not_fit(call, message):
    with pytest.raises(DimensionError, match=message):
        call(small_model())  # d1 = 3, d2 = 4


# ------------------------------------------------------ row-blocked passes

def eval_sized_model(seed=0):
    """The benchmark's evaluation shapes: 20 + 20 wide views, K = 3, hidden 200."""
    return new_model(20, 20, 3, np.random.default_rng(seed), hidden_dim=200)


@pytest.mark.parametrize("n", [2048, 2049, 5000])
def test_blocked_passes_give_the_bits_of_one_whole_forward(n):
    # the block size keeps the bits only where the BLAS build gives every
    # block of >= 1,024 rows the same per-row results as one n-row product;
    # a build where it does not fails here
    m = eval_sized_model(seed=n)
    rng = np.random.default_rng(n + 1)
    x1, x2, noise = (rng.normal(size=(n, 20)) for _ in range(3))
    probs = discriminate(m, x1, x2)
    assert probs.tobytes() == forward(m.disc, pair_input(m, x1, x2)).output.tobytes()
    for v in (1, 2):
        observed = x2 if v == 1 else x1
        got = generate(m, v, observed, noise)
        whole = forward(m.generator(v), generator_input(m, v, observed, noise)).output
        assert got.tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4096, 4097, 5000, 10_000])
def test_blocked_passes_run_one_forward_per_balanced_block(n, monkeypatch):
    seen = []

    def recording_forward(net, x, **kwargs):
        seen.append(x.shape[0])
        return forward(net, x, **kwargs)

    monkeypatch.setattr(nn_mod, "forward", recording_forward)
    m = small_model()
    x1, x2 = np.zeros((n, 3)), np.ones((n, 4))
    for call in (lambda: discriminate(m, x1, x2), lambda: generate(m, 1, x2, x1)):
        seen.clear()
        assert call().shape[0] == n
        assert sum(seen) == n
        if n <= nn_mod.EVAL_BLOCK_ROWS:
            assert seen == [n]
        else:
            assert len(seen) == -(-n // nn_mod.EVAL_BLOCK_ROWS)
            # n = 2,049 splits as 1,024 + 1,025: no block is smaller than 1,024
            assert all(1024 <= rows <= nn_mod.EVAL_BLOCK_ROWS for rows in seen)
            assert max(seen) - min(seen) <= 1


def test_discriminate_holds_one_block_of_hidden_activations():
    # one whole pass over 5,000 pairs holds a 5,000 x 200 hidden block (8 MB)
    # and peaks near 9.9 MB; three blocks of at most 1,667 rows stay far below
    m = eval_sized_model()
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=(5000, 20)), rng.normal(size=(5000, 20))
    discriminate(m, x1[:10], x2[:10])  # any one-time allocations happen outside the count
    tracemalloc.start()
    try:
        discriminate(m, x1, x2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


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


def reference_checkpoint_text(m, seed, step):
    """The checkpoint format written out plainly: repr(float(v)) per value,
    one line per row, a bias as one row."""
    lines = [CHECKPOINT_MAGIC,
             "layout generator-input=noise,condition discriminator-input=view1,view2",
             f"dims {m.d1} {m.d2} {m.num_classes}", f"seed {seed}", f"step {step}"]
    for name in ("gen1", "gen2", "disc"):
        net = getattr(m, name)
        lines.append(f"net {name} {net.output_kind} {net.input_dim} {net.hidden_dim} "
                     f"{net.output_dim}")
        for block in net.params():
            for row in (block if block.ndim == 2 else [block]):
                lines.append(" ".join(repr(float(v)) for v in row))
    return "".join(line + "\n" for line in lines)


def test_checkpoint_roundtrip_is_exact(tmp_path):
    m = small_model(seed=7)
    # signed zero, the smallest subnormal, a huge value, and values whose
    # shortest round-trip form needs 17 significant digits
    m.gen1.weights_in[0, :4] = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
    m.disc.bias_out[:] = [-0.0, 1 / 3, -2 / 3]
    assert len(repr(float(m.gen1.weights_in[0, 3]))) == 19  # '0.30000000000000004'
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, seed=123, step=45)
    assert path.read_bytes() == reference_checkpoint_text(m, 123, 45).encode("ascii")
    loaded, seed, step = load_checkpoint(path)
    assert seed == 123 and step == 45
    for a, b in zip(m.gen1.params() + m.gen2.params() + m.disc.params(),
                    loaded.gen1.params() + loaded.gen2.params() + loaded.disc.params()):
        assert a.tobytes() == b.tobytes()  # bitwise, signed zeros included
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
    (3, "dims 0 3 2"),
    (4, None),
    (5, "step \u00e9"),
    (4, "seed +1"),
])
def test_checkpoint_header_errors_carry_line_numbers(tmp_path, lineno, bad):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model(), seed=0, step=0)
    lines = path.read_text().splitlines()
    if bad is None:  # the file ends before this line
        del lines[lineno - 1:]
    else:
        lines[lineno - 1] = bad
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
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
    (7, lambda line: "1_5" + line[line.index(" "):]),
    (7, lambda line: "+0.5" + line[line.index(" "):]),
    (6, lambda line: line.replace(" 7 5 3", " 7 5 0_3")),
    (6, lambda line: line.replace(" linear ", " softmax ")),
    (6, lambda line: line.replace(" 7 5 3", " 7 5 4")),
], ids=["not-a-number", "non-finite", "digit-separator", "sign", "digit-separator-in-a-size",
        "wrong-output-kind", "sizes-disagree-with-dims"])
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
