"""The three players: two conditional view generators and a discriminator.

Generator 1 completes a missing first view from noise plus the observed
second view; generator 2 does the mirror image. The discriminator scores a
concatenated pair over K class outputs plus one extra "fake" output that
flags pairs containing a generated view.

Canonical layouts (also recorded in checkpoint headers):
  * generator input  = [noise, observed view]
  * discriminator input = [view 1, view 2]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TextLines, by_view, float_row, keyed_ints, replace_file
from .errors import DimensionError
from .nn import DEFAULT_HIDDEN_DIM, LINEAR, SOFTMAX, Mlp, forward_in_blocks, init_mlp

CHECKPOINT_MAGIC = "VIEWGAN-CKPT-1"
_LAYOUT_LINE = "layout generator-input=noise,condition discriminator-input=view1,view2"


@dataclass(eq=False)
class TripartiteModel:
    """Generators ``gen1``/``gen2`` and discriminator ``disc``; (d1, d2, K) are read off
    them: the generators' output widths, and ``disc``'s K+1 outputs less the fake last one."""

    gen1: Mlp  # [z1 | x2] -> view-1 completion, linear output
    gen2: Mlp  # [z2 | x1] -> view-2 completion, linear output
    disc: Mlp  # [x1 | x2] -> K+1 softmax
    d1: int = field(init=False)
    d2: int = field(init=False)
    num_classes: int = field(init=False)

    def __post_init__(self):
        self.d1, self.d2 = self.gen1.output_dim, self.gen2.output_dim
        self.num_classes = self.disc.output_dim - 1
        if self.num_classes < 1:
            raise DimensionError("disc needs a class output besides the fake one")
        for name, kind, n_in, n_out in _nets(self.d1, self.d2, self.num_classes):
            net = getattr(self, name)
            if (net.input_dim, net.output_dim) != (n_in, n_out):
                raise DimensionError(f"{name} must map {n_in} inputs to {n_out} outputs")
            if net.output_kind != kind:
                raise ValueError(f"{name} must have a {kind} output")

    def generator(self, v: int) -> Mlp:
        """The generator that completes view ``v`` (1 or 2)."""
        return by_view(v, self.gen1, self.gen2)

    def slot(self, v: int, block: np.ndarray) -> np.ndarray:
        """View ``v``'s columns of an (n, d1+d2) [view1 | view2] block."""
        return by_view(v, block[:, :self.d1], block[:, self.d1:])

    def completed_pair(self, v: int, generated, observed) -> np.ndarray:
        """The [view1 | view2] pair block with ``generated`` in slot ``v``."""
        return np.concatenate(by_view(v, [generated, observed], [observed, generated]), axis=1)

    def copy(self) -> "TripartiteModel":
        return TripartiteModel(self.gen1.copy(), self.gen2.copy(), self.disc.copy())


def new_model(d1: int, d2: int, num_classes: int,
              rng: np.random.Generator,
              hidden_dim: int = DEFAULT_HIDDEN_DIM) -> TripartiteModel:
    """Fresh Xavier-initialized model. Draw order: gen1, gen2, disc."""
    nets = [init_mlp(n_in, hidden_dim, n_out, kind, rng)
            for _, kind, n_in, n_out in _nets(d1, d2, num_classes)]
    return TripartiteModel(*nets)


def _nets(d1: int, d2: int, num_classes: int):
    """(name, output kind, input dim, output dim) of each player, in the
    order of initialization and of the checkpoint."""
    both = d1 + d2
    return (("gen1", LINEAR, both, d1), ("gen2", LINEAR, both, d2),
            ("disc", SOFTMAX, both, num_classes + 1))


def _rows(a, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{what} must be an (n, d) block, got shape {a.shape}")
    return a


def generator_input(model: TripartiteModel, which_view: int, observed, noise) -> np.ndarray:
    """Assemble [noise | observed] (each of shape (n, d)) for the generator
    completing ``which_view``."""
    observed = _rows(observed, "observed view")
    noise = _rows(noise, "noise")
    gen = model.generator(which_view)
    d_gen, d_obs = gen.output_dim, gen.input_dim - gen.output_dim
    if noise.shape[-1] != d_gen:
        raise DimensionError(f"noise dim {noise.shape[-1]} != generated view dim {d_gen}")
    if observed.shape[-1] != d_obs:
        raise DimensionError(f"observed dim {observed.shape[-1]} != other view dim {d_obs}")
    if noise.shape[0] != observed.shape[0]:
        raise DimensionError("noise and observed batch sizes differ")
    return np.concatenate([noise, observed], axis=1)


def generate(model: TripartiteModel, which_view: int, observed, noise) -> np.ndarray:
    """Complete ``which_view`` conditionally on the observed other view.

    Output is the raw linear layer; no squashing is applied so generated
    values can match any real-valued view. Takes and returns (n, d) blocks.
    The pass runs in row blocks of at most ``nn.EVAL_BLOCK_ROWS`` rows
    (``nn.forward_in_blocks``), so it holds one block's hidden activations,
    not n rows'.
    """
    return forward_in_blocks(model.generator(which_view),
                             generator_input(model, which_view, observed, noise))


def pair_input(model: TripartiteModel, x1, x2) -> np.ndarray:
    """Concatenate (n, d1) and (n, d2) view blocks in canonical [view1 | view2] order."""
    x1 = _rows(x1, "view 1")
    x2 = _rows(x2, "view 2")
    if x1.shape[-1] != model.d1 or x2.shape[-1] != model.d2:
        raise DimensionError(
            f"pair dims ({x1.shape[-1]}, {x2.shape[-1]}) != ({model.d1}, {model.d2})")
    if x1.shape[0] != x2.shape[0]:
        raise DimensionError("view batch sizes differ")
    return np.concatenate([x1, x2], axis=1)


def discriminate(model: TripartiteModel, x1, x2) -> np.ndarray:
    """Class-posterior estimates of shape (n, K+1); index K is the fake class.

    The pass runs in row blocks of at most ``nn.EVAL_BLOCK_ROWS`` rows
    (``nn.forward_in_blocks``), so it holds one block's hidden activations,
    not n rows'.
    """
    return forward_in_blocks(model.disc, pair_input(model, x1, x2))


def decide_batch(probabilities) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decision rule on (n, K+1) probabilities.

    An item is fake iff the fake entry strictly exceeds the summed class
    entries; the boundary case classifies. Returns (fake mask, argmax class
    per item with ties broken toward the lowest index).
    """
    p = _rows(probabilities, "probabilities")
    fake = p[:, -1] > p[:, :-1].sum(axis=1)
    cls = np.argmax(p[:, :-1], axis=1)
    return fake, cls


# ---------------------------------------------------------------------------
# Checkpoints: a plain-text container with a versioned magic header. Floats
# are written with repr() so a save/load round trip is exact.

def _write_net(f, name: str, net: Mlp):
    """The net's header, then one line per row of each block (a bias is one
    row), in one write."""
    lines = [f"net {name} {net.output_kind} {net.input_dim} {net.hidden_dim} {net.output_dim}"]
    for block in net.params():
        lines.extend(" ".join(map(repr, row)) for row in np.atleast_2d(block).tolist())
    lines.append("")
    f.write("\n".join(lines))


def save_checkpoint(path, model: TripartiteModel, seed: int, step: int) -> None:
    """Write the model, RNG seed, and step count to ``path``, through
    ``data.replace_file``."""
    with replace_file(path, "w", "ascii") as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write(_LAYOUT_LINE + "\n")
        f.write(f"dims {model.d1} {model.d2} {model.num_classes}\n")
        f.write(f"seed {seed}\n")
        f.write(f"step {step}\n")
        for name, *_ in _nets(model.d1, model.d2, model.num_classes):
            _write_net(f, name, getattr(model, name))


def _read_rows(lines: TextLines, count: int, size: int) -> np.ndarray:
    """``count`` lines of ``size`` numbers each, as a (count, size) block."""
    return np.array([float_row(lines.next(), size) for _ in range(count)], dtype=np.float64)


def _read_net(lines: TextLines, name: str, kind: str, input_dim: int, output_dim: int) -> Mlp:
    """Read net ``name``, whose header must agree with its entry in ``_nets``."""
    got_in, hidden_dim, got_out = keyed_ints(lines.next(), f"net {name} {kind}", 3, low=1)
    if (got_in, got_out) != (input_dim, output_dim):
        raise ValueError(f"net {name} must map {input_dim} inputs to {output_dim} "
                         f"outputs, as dims says")
    w_in = _read_rows(lines, hidden_dim, input_dim)
    b_in = _read_rows(lines, 1, hidden_dim)[0]
    w_out = _read_rows(lines, output_dim, hidden_dim)
    b_out = _read_rows(lines, 1, output_dim)[0]
    return Mlp(w_in, b_in, w_out, b_out, kind)


def load_checkpoint(path) -> tuple[TripartiteModel, int, int]:
    """Read a checkpoint written by :func:`save_checkpoint` through
    ``data.TextLines``, so an error names the file and line.

    Returns (model, seed, step).
    """
    with TextLines(path, "ascii") as lines:
        if lines.next() != CHECKPOINT_MAGIC:
            raise ValueError(f"missing magic header {CHECKPOINT_MAGIC!r}")
        if lines.next() != _LAYOUT_LINE:
            raise ValueError(f"expected the layout line {_LAYOUT_LINE!r}")
        d1, d2, num_classes = keyed_ints(lines.next(), "dims", 3, low=1)
        (seed,) = keyed_ints(lines.next(), "seed", 1)
        (step,) = keyed_ints(lines.next(), "step", 1, low=0)
        nets = [_read_net(lines, *net) for net in _nets(d1, d2, num_classes)]
        for line in lines:
            if line.strip():
                raise ValueError("unexpected content after the last net")
    return TripartiteModel(*nets), seed, step
