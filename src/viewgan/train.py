"""Losses and the sequential three-player training loop.

Each iteration samples one minibatch with m_b examples from every subset,
then Adam-updates the discriminator, generator 1, and generator 2 strictly
in that order, every player seeing the same batch. The discriminator loss
treats generated views as constants; each generator loss backpropagates
through the frozen discriminator into the slot its view occupies.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .data import PartitionedDataset, Views, by_view, other_view
from .errors import ConfigError, DimensionError, NumericError
from .model import TripartiteModel, decide_batch, discriminate, save_checkpoint
from .nn import INPUT, PARAMS, AdamState, MlpGrads, adam_step, backward, forward

LOG_CLAMP = 1e-12

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Minibatch:
    """m_b examples from each subset plus fresh uniform noise.

    full carries both views, miss1 comes from the subset whose first view
    is absent (so it carries view 2 only), miss2 is the mirror image. The
    noise blocks complete view 1 and view 2. Each network input is built
    once: ``real_pairs`` is the [view1 | view2] block of full, and
    ``side(v)`` hands generator v its [noise | observed] input block.
    """

    full: Views
    miss1: Views
    miss2: Views
    noise_v1: np.ndarray
    noise_v2: np.ndarray
    real_pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = len(self.full)
        sized = (len(self.miss1), len(self.miss2),
                 self.noise_v1.shape[0], self.noise_v2.shape[0])
        if m < 1 or any(n != m for n in sized):
            raise DimensionError("all minibatch blocks must share one size m_b")
        self.real_pairs = np.concatenate([self.full.view1, self.full.view2], axis=1)
        self._sides = []
        for v, miss, noise in ((1, self.miss1, self.noise_v1), (2, self.miss2, self.noise_v2)):
            observed = miss.view(other_view(v))
            self._sides.append((np.concatenate([noise, observed], axis=1), observed, miss.label))

    def side(self, v: int):
        """(generator input [noise | observed], observed other view, labels)
        for generator ``v``, drawn from the subset that lacks view v."""
        return by_view(v, *self._sides)


@dataclass
class TrainConfig:
    iterations: int
    minibatch_size: int
    alpha: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    fm_weight: float = 1.0
    eval_every: int = 0       # 0 disables held-out evaluation
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        if self.minibatch_size < 1:
            raise ConfigError("minibatch_size must be positive")
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")
        if self.fm_weight < 0:
            raise ConfigError("fm_weight must be nonnegative")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ConfigError("eval_every and checkpoint_every must be nonnegative")


def clamped_class_grad(probs: np.ndarray, targets: np.ndarray, coeff: float):
    """Loss sum(-coeff*log p[target]) with the floor, and its logit gradient.

    Rows where the clamp is active contribute the constant -log(LOG_CLAMP)
    and a zero gradient (the clamped value does not respond to the logits).
    """
    rows = np.arange(probs.shape[0])
    picked = probs[rows, targets]
    loss = -coeff * float(np.sum(np.log(np.maximum(picked, LOG_CLAMP))))
    live = picked > LOG_CLAMP
    n_clamped = probs.shape[0] - int(np.count_nonzero(live))
    dlogits = probs.copy()
    dlogits[rows, targets] -= 1.0
    dlogits *= coeff
    if n_clamped:
        logger.debug("log clamp active on %d of %d samples", n_clamped, probs.shape[0])
        dlogits[~live] = 0.0
    return loss, dlogits


def _complete(model: TripartiteModel, v: int, batch: Minibatch):
    """Run generator ``v`` on its side of the batch.

    Returns (generator trace, completed [view1 | view2] pairs, labels).
    """
    gen_input, observed, labels = batch.side(v)
    trace = forward(model.generator(v), gen_input)
    return trace, model.completed_pair(v, trace.output, observed), labels


def loss_discriminator(model: TripartiteModel, batch: Minibatch):
    """Empirical discriminator loss and its parameter gradients.

    Three terms: the class assignment of real complete pairs (weight
    1/(m_b*(K+1)) per sample) and the fake-class assignment of pairs
    completed by either generator (weight 1/(2*m_b) per sample each).
    Generator outputs are data here; nothing flows back into the generators.
    """
    m_b = len(batch.full)
    k = model.num_classes
    groups = [(batch.real_pairs, np.argmax(batch.full.label, axis=1), 1.0 / (m_b * (k + 1)))]
    groups += [(_complete(model, v, batch)[1], np.full(m_b, k), 1.0 / (2.0 * m_b))
               for v in (1, 2)]

    total = 0.0
    grads: MlpGrads | None = None
    for pairs, targets, coeff in groups:
        trace = forward(model.disc, pairs)
        part, dlogits = clamped_class_grad(trace.output, targets, coeff)
        total += part
        g = backward(model.disc, trace, dlogits, need=PARAMS)
        if grads is None:
            grads = g
        else:
            for acc, extra in zip(grads.params(), g.params()):
                acc += extra
    return total, grads


def feature_matching_penalty(model: TripartiteModel, which_view: int,
                             real_pairs, gen_pairs, gen_trace):
    """l2 distance between mean discriminator features on real and completed pairs.

    real_pairs is a [view1 | view2] block of complete pairs, gen_pairs the
    block completed by generator ``which_view``, and gen_trace the forward
    trace whose output fills that slot of gen_pairs; through it the penalty
    sends exact gradients back into the generator. The discriminator is
    frozen: only its first layer carries the chain.
    """
    if real_pairs.shape[0] < 1 or gen_pairs.shape[0] < 1:
        raise ConfigError("feature matching needs non-empty real and generated batches")
    gen = model.generator(which_view)
    feats_real = forward(model.disc, real_pairs).hidden_act
    feats_gen = forward(model.disc, gen_pairs).hidden_act
    delta = feats_real.mean(axis=0) - feats_gen.mean(axis=0)
    norm = float(np.linalg.norm(delta))
    if norm == 0.0:
        zero = [np.zeros_like(p) for p in gen.params()]
        return 0.0, MlpGrads(*zero)

    n_gen = feats_gen.shape[0]
    # d penalty / d feats_gen[i] = (-delta/norm) / n_gen, then through the
    # sigmoid and the discriminator's first layer into the generated slot.
    d_feats = (-delta / norm) / n_gen
    d_hidden_pre = d_feats * feats_gen
    d_hidden_pre *= 1.0 - feats_gen
    d_pairs = d_hidden_pre @ model.disc.weights_in
    return norm, backward(gen, gen_trace, model.slot(which_view, d_pairs), need=PARAMS)


def loss_generator(model: TripartiteModel, which_view: int, batch: Minibatch,
                   fm_weight: float = 1.0):
    """Generator loss: class assignment of completed pairs plus feature matching.

    Gradients reach the generator by backpropagating through the frozen
    discriminator into the input slot the generated view occupies.
    """
    m_b = len(batch.full)
    coeff = 1.0 / (m_b * (model.num_classes + 1))
    gen_trace, pairs, labels = _complete(model, which_view, batch)

    trace_d = forward(model.disc, pairs)
    class_loss, dlogits = clamped_class_grad(trace_d.output, np.argmax(labels, axis=1), coeff)
    d_input = backward(model.disc, trace_d, dlogits, need=INPUT).input_grad
    grads = backward(model.generator(which_view), gen_trace, model.slot(which_view, d_input),
                     need=PARAMS)

    penalty, fm_grads = feature_matching_penalty(model, which_view, batch.real_pairs,
                                                 pairs, gen_trace)
    for acc, extra in zip(grads.params(), fm_grads.params()):
        acc += fm_weight * extra
    return class_loss + fm_weight * penalty, grads


def sample_minibatch(dataset: PartitionedDataset, m_b: int, rng: np.random.Generator) -> Minibatch:
    """Uniform with-replacement draw of m_b examples per subset, plus fresh noise.

    Draw order is fixed (full, missing1, missing2 indices, then the two
    noise blocks) so a seeded generator reproduces the batch sequence.
    """
    subsets = (dataset.s_full, dataset.s_missing1, dataset.s_missing2)
    for name, subset in zip(("s_full", "s_missing1", "s_missing2"), subsets):
        if len(subset) == 0:
            raise ConfigError(f"{name} is empty")
    rows = [subset[rng.integers(0, len(subset), size=m_b)] for subset in subsets]
    noise = [rng.uniform(-1.0, 1.0, size=(m_b, d)) for d in (dataset.d1, dataset.d2)]
    return Minibatch(*rows, *noise)


def _heldout_accuracy(model: TripartiteModel, heldout: Views) -> tuple[float, float]:
    """Fake-gated and class-head accuracy on held-out pairs, from one discriminate call."""
    fake, cls = decide_batch(discriminate(model, heldout.view1, heldout.view2))
    hit = cls == np.argmax(heldout.label, axis=1)
    return float(np.mean(~fake & hit)), float(np.mean(hit))


def train(model: TripartiteModel, dataset: PartitionedDataset, config: TrainConfig,
          heldout=None, metrics_path=None, checkpoint_path=None):
    """Run the minibatch game for config.iterations steps.

    Per step: sample one batch, then update the discriminator, generator 1,
    and generator 2 sequentially, each by one Adam step on its own loss with
    the other players held fixed. Returns (model, rows) where each row is
    (iteration, loss_d, loss_g1, loss_g2, heldout_acc, heldout_class_acc):
    heldout_acc is the Fake-gated accuracy and heldout_class_acc the class
    head's argmax accuracy on the held-out pairs, both None on steps that
    are not evaluated. When metrics_path is given the rows are streamed to a
    CSV with header ``iter,loss_d,loss_g1,loss_g2,heldout_acc,heldout_class_acc``.
    When checkpoint_path is given, the model is saved there, with
    config.seed, after every checkpoint_every-th step and after the last one
    (before any step if there are none), each step at most once.
    """
    rng = np.random.default_rng(config.seed)
    adam = [AdamState.for_params(net.params(), config.alpha, config.beta1,
                                 config.beta2, config.epsilon)
            for net in (model.disc, model.generator(1), model.generator(2))]

    rows = []
    with open(metrics_path, "w", encoding="ascii") if metrics_path else nullcontext() as out:
        if out:
            out.write("iter,loss_d,loss_g1,loss_g2,heldout_acc,heldout_class_acc\n")
        if checkpoint_path and config.iterations == 0:
            save_checkpoint(checkpoint_path, model, config.seed, 0)
        for i in range(config.iterations):
            try:
                batch = sample_minibatch(dataset, config.minibatch_size, rng)
                loss_d, grads = loss_discriminator(model, batch)
                adam_step(model.disc.params(), grads.params(), adam[0])
                losses = [loss_d]
                for v in (1, 2):
                    loss, grads = loss_generator(model, v, batch, config.fm_weight)
                    adam_step(model.generator(v).params(), grads.params(), adam[v])
                    losses.append(loss)
            except NumericError as e:
                raise NumericError(f"iteration {i}: {e}") from e

            step = i + 1
            accs = (None, None)
            if heldout is not None and config.eval_every and step % config.eval_every == 0:
                accs = _heldout_accuracy(model, heldout)
            rows.append((i, *map(float, losses), *accs))
            if out:
                out.write(",".join("" if x is None else repr(x) for x in rows[-1]) + "\n")
            if checkpoint_path and (step == config.iterations or (
                    config.checkpoint_every and step % config.checkpoint_every == 0)):
                save_checkpoint(checkpoint_path, model, config.seed, step)
    return model, rows
