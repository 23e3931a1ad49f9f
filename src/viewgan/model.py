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

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .data import by_view
from .errors import DataFormatError, DimensionError
from .nn import DEFAULT_HIDDEN_DIM, LINEAR, SOFTMAX, Mlp, forward, init_mlp

CHECKPOINT_MAGIC = "VIEWGAN-CKPT-1"
_LAYOUT_LINE = "layout generator-input=noise,condition discriminator-input=view1,view2"


@dataclass(eq=False)
class TripartiteModel:
    """Generators ``gen1``/``gen2`` and discriminator ``disc`` with dimensions.

    ``disc`` has ``num_classes + 1`` outputs; the last index is the fake class.
    """

    d1: int
    d2: int
    num_classes: int
    gen1: Mlp  # [z1 | x2] -> view-1 completion, linear output
    gen2: Mlp  # [z2 | x1] -> view-2 completion, linear output
    disc: Mlp  # [x1 | x2] -> K+1 softmax

    def __post_init__(self):
        if min(self.d1, self.d2) < 1 or self.num_classes < 1:
            raise DimensionError("d1, d2 and num_classes must be positive")
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
        return block[:, :self.d1] if self.generator(v) is self.gen1 else block[:, self.d1:]

    def completed_pair(self, v: int, generated, observed) -> np.ndarray:
        """The [view1 | view2] pair block with ``generated`` in slot ``v``."""
        parts = [generated, observed] if self.generator(v) is self.gen1 else [observed, generated]
        return np.concatenate(parts, axis=1)

    def copy(self) -> "TripartiteModel":
        return TripartiteModel(self.d1, self.d2, self.num_classes,
                               self.gen1.copy(), self.gen2.copy(), self.disc.copy())


def new_model(d1: int, d2: int, num_classes: int,
              rng: np.random.Generator,
              hidden_dim: int = DEFAULT_HIDDEN_DIM) -> TripartiteModel:
    """Fresh Xavier-initialized model. Draw order: gen1, gen2, disc."""
    nets = [init_mlp(n_in, hidden_dim, n_out, kind, rng)
            for _, kind, n_in, n_out in _nets(d1, d2, num_classes)]
    return TripartiteModel(d1, d2, num_classes, *nets)


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
    """
    return forward(model.generator(which_view),
                   generator_input(model, which_view, observed, noise)).output


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
    """Class-posterior estimates of shape (n, K+1); index K is the fake class."""
    return forward(model.disc, pair_input(model, x1, x2)).output


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

def _write_vector(f, vec):
    f.write(" ".join(repr(float(v)) for v in vec) + "\n")


def _write_net(f, name: str, net: Mlp):
    f.write(f"net {name} {net.output_kind} {net.input_dim} {net.hidden_dim} {net.output_dim}\n")
    for row in net.weights_in:
        _write_vector(f, row)
    _write_vector(f, net.bias_in)
    for row in net.weights_out:
        _write_vector(f, row)
    _write_vector(f, net.bias_out)


def save_checkpoint(path, model: TripartiteModel, seed: int, step: int) -> None:
    """Write the model, RNG seed, and step count to ``path``.

    The text goes to a temporary file beside ``path``, which then replaces
    it, so a crash mid-write leaves the previous checkpoint as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as f:
            f.write(CHECKPOINT_MAGIC + "\n")
            f.write(_LAYOUT_LINE + "\n")
            f.write(f"dims {model.d1} {model.d2} {model.num_classes}\n")
            f.write(f"seed {seed}\n")
            f.write(f"step {step}\n")
            for name, *_ in _nets(model.d1, model.d2, model.num_classes):
                _write_net(f, name, getattr(model, name))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DataFormatError("unexpected end of checkpoint", line=self.pos + 1)
        self.pos += 1
        return self.lines[self.pos - 1]


def _read_vector(reader: _LineReader, size: int) -> np.ndarray:
    parts = reader.next().split()
    if len(parts) != size:
        raise DataFormatError(f"expected {size} values, got {len(parts)}", line=reader.pos)
    try:
        vec = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise DataFormatError("values must be numbers", line=reader.pos) from None
    if not np.all(np.isfinite(vec)):
        raise DataFormatError("values must be finite", line=reader.pos)
    return vec


def _int_fields(fields, line: int, what: str, low: int | None = None) -> list[int]:
    try:
        values = [int(f) for f in fields]
    except ValueError:
        raise DataFormatError(f"{what} must be integers", line=line) from None
    if low is not None and min(values) < low:
        raise DataFormatError(f"{what} must be at least {low}", line=line)
    return values


def _read_header(reader: _LineReader, key: str, count: int, low: int | None = None) -> list[int]:
    """Parse a '<key> <int> ...' line holding ``count`` integers."""
    parts = reader.next().split()
    if len(parts) != count + 1 or parts[0] != key:
        raise DataFormatError(f"expected a '{key}' line with {count} integer(s)", line=reader.pos)
    return _int_fields(parts[1:], reader.pos, key, low)


def _read_net(reader: _LineReader, name: str, kind: str,
              input_dim: int, output_dim: int) -> Mlp:
    """Read net ``name``, whose header must agree with its entry in ``_nets``."""
    parts = reader.next().split()
    if len(parts) != 6 or parts[:3] != ["net", name, kind]:
        raise DataFormatError(f"expected a 'net {name} {kind} ...' header", line=reader.pos)
    got_in, hidden_dim, got_out = _int_fields(parts[3:6], reader.pos, "net sizes", low=1)
    if (got_in, got_out) != (input_dim, output_dim):
        raise DataFormatError(f"net {name} must map {input_dim} inputs to {output_dim} "
                              f"outputs, as dims says", line=reader.pos)
    w_in = np.stack([_read_vector(reader, input_dim) for _ in range(hidden_dim)])
    b_in = _read_vector(reader, hidden_dim)
    w_out = np.stack([_read_vector(reader, hidden_dim) for _ in range(output_dim)])
    b_out = _read_vector(reader, output_dim)
    return Mlp(w_in, b_in, w_out, b_out, kind)


def load_checkpoint(path) -> tuple[TripartiteModel, int, int]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns (model, seed, step).
    """
    with open(path, "r", encoding="ascii") as f:
        reader = _LineReader(f.read().splitlines())
    if reader.next() != CHECKPOINT_MAGIC:
        raise DataFormatError(f"missing magic header {CHECKPOINT_MAGIC!r}", line=1)
    if reader.next() != _LAYOUT_LINE:
        raise DataFormatError(f"expected the layout line {_LAYOUT_LINE!r}", line=2)
    d1, d2, num_classes = _read_header(reader, "dims", 3, low=1)
    (seed,) = _read_header(reader, "seed", 1)
    (step,) = _read_header(reader, "step", 1, low=0)
    nets = [_read_net(reader, *net) for net in _nets(d1, d2, num_classes)]
    while reader.pos < len(reader.lines):
        if reader.next().strip():
            raise DataFormatError("unexpected content after the last net", line=reader.pos)
    return TripartiteModel(d1, d2, num_classes, *nets), seed, step
