"""Losses and the sequential three-player training step and loop.

Each ``step`` Adam-updates the discriminator, generator 1, and generator 2
strictly in that order on one minibatch with m_b examples from every
subset, every player seeing the same batch. It runs both generators
(``complete``) for the discriminator phase and hands their completed pairs
to the discriminator loss, which treats them as constants. Before each
generator phase it hands the mean discriminator features of the real pairs
(``real_feature_mean``) to the generator loss. Each generator loss makes
its own completions, passes the mean on to the feature-matching penalty,
and backpropagates through the frozen discriminator into the slot its view
occupies.
"""

from __future__ import annotations

import logging
import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .data import PartitionedDataset, Views, by_view, check_scorable, other_view
from .errors import ConfigError, DimensionError, NumericError
from .model import TripartiteModel, decide_batch, discriminate, save_checkpoint
from .nn import (HIDDEN, INPUT, AdamState, adam_step, backward, check_adam_hyperparameters,
                 forward)

LOG_CLAMP = 1e-12

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Minibatch:
    """m_b examples from each subset plus fresh uniform noise.

    full carries both views, miss1 comes from the subset whose first view
    is absent (so it carries view 2 only), miss2 is the mirror image. The
    noise blocks complete view 1 and view 2. The three subsets' labels
    share one width, ``num_classes`` (K). Each network input and each
    integer class target is built once: ``real_pairs`` is the [view1 |
    view2] block of full and ``real_targets`` its class indices,
    ``fake_targets`` holds the fake class K once per row, and ``side(v)``
    hands generator v its [noise | observed] input block.
    """

    full: Views
    miss1: Views
    miss2: Views
    noise_v1: np.ndarray
    noise_v2: np.ndarray
    real_pairs: np.ndarray = field(init=False, repr=False)
    real_targets: np.ndarray = field(init=False, repr=False)
    fake_targets: np.ndarray = field(init=False, repr=False)
    num_classes: int = field(init=False)

    def __post_init__(self):
        m = len(self.full)
        sized = (len(self.miss1), len(self.miss2),
                 self.noise_v1.shape[0], self.noise_v2.shape[0])
        if m < 1 or any(n != m for n in sized):
            raise DimensionError("all minibatch blocks must share one size m_b")
        widths = [views.label.shape[1] for views in (self.full, self.miss1, self.miss2)]
        if len(set(widths)) != 1:
            raise DimensionError(f"the minibatch's label blocks have widths {widths}: "
                                 f"all must have the same K")
        self.num_classes = widths[0]
        self.real_pairs = np.concatenate([self.full.view1, self.full.view2], axis=1)
        self.real_targets = self.full.classes
        self.fake_targets = np.full(m, self.num_classes)
        self._sides = []
        for v, miss, noise in ((1, self.miss1, self.noise_v1), (2, self.miss2, self.noise_v2)):
            observed = miss.view(other_view(v))
            self._sides.append((np.concatenate([noise, observed], axis=1), observed, miss.classes))

    def side(self, v: int):
        """(generator input [noise | observed], observed other view, class
        indices) for generator ``v``, drawn from the subset that lacks view v."""
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
        for key, low in (("iterations", 0), ("minibatch_size", 1), ("seed", 0),
                         ("eval_every", 0), ("checkpoint_every", 0)):
            value = getattr(self, key)
            if value < low:
                raise ConfigError(f"must be at least {low}, got {value!r}", key=key)
        check_adam_hyperparameters(self.alpha, self.beta1, self.beta2, self.epsilon)
        if not 0.0 <= self.fm_weight < math.inf:
            raise ConfigError(f"must be finite and nonnegative, got {self.fm_weight!r}",
                              key="fm_weight")


def clamped_class_grad(probs: np.ndarray, targets: np.ndarray, coeff: float, *,
                       grads: bool = True):
    """Loss sum(-coeff*log p[target]) with the floor, and its logit gradient.

    Rows where the clamp is active contribute the constant -log(LOG_CLAMP)
    and a zero gradient (the clamped value does not respond to the logits).
    With ``grads=False`` no gradient is formed and the result is (loss, None),
    the loss the same to the bit.
    """
    rows = np.arange(probs.shape[0])
    picked = probs[rows, targets]
    live = picked > LOG_CLAMP
    n_clamped = probs.shape[0] - np.count_nonzero(live)
    if n_clamped:
        logger.debug("log clamp active on %d of %d samples", n_clamped, probs.shape[0])
    dlogits = None
    if grads:
        dlogits = probs.copy()
        dlogits[rows, targets] = picked - 1.0
        dlogits *= coeff
        if n_clamped:
            dlogits[~live] = 0.0
    np.maximum(picked, LOG_CLAMP, out=picked)
    np.log(picked, out=picked)
    return -coeff * float(np.add.reduce(picked)), dlogits


def complete(model: TripartiteModel, v: int, batch: Minibatch):
    """Run generator ``v`` on its side of the batch, the one builder of completed pairs.

    Returns (generator trace, completed [view1 | view2] pairs, class indices).
    """
    gen_input, observed, targets = batch.side(v)
    trace = forward(model.generator(v), gen_input)
    return trace, model.completed_pair(v, trace.output, observed), targets


def _check_batch_classes(model: TripartiteModel, batch: Minibatch) -> None:
    """Reject a batch whose labels have another K than the model: its class
    and fake-class targets would aim at the wrong outputs."""
    if batch.num_classes != model.num_classes:
        raise DimensionError(f"the batch's labels have K = {batch.num_classes} "
                             f"classes, but the model has K = {model.num_classes}")


def loss_discriminator(model: TripartiteModel, batch: Minibatch, completed, *,
                       grads: bool = True):
    """Empirical discriminator loss and its parameter gradients.

    ``completed`` holds the two generators' completed [view1 | view2]
    blocks of m_b rows each, generator 1's first; this loss runs no
    generator. The batch's labels must have the model's K classes: the
    fake-class targets come from the batch. Three terms: the class assignment of real complete pairs
    (weight 1/(m_b*(K+1)) per sample) and the fake-class assignment of the
    pairs each generator completed (weight 1/(2*m_b) per sample each).
    Generator outputs are data here; nothing flows back into the generators.
    The gradients are a list in ``model.disc.params()`` order. With
    ``grads=False`` the same forward passes and float64 value arithmetic
    run, no backward pass does, and the result is (loss, None).
    """
    m_b = len(batch.full)
    if len(completed) != 2 or any(pairs.shape[0] != m_b for pairs in completed):
        raise DimensionError(f"the discriminator loss needs two completed blocks "
                             f"of m_b = {m_b} rows each")
    _check_batch_classes(model, batch)
    k = model.num_classes
    groups = [(batch.real_pairs, batch.real_targets, 1.0 / (m_b * (k + 1)))]
    groups += [(pairs, batch.fake_targets, 1.0 / (2.0 * m_b)) for pairs in completed]

    total, sums = 0.0, None
    for pairs, targets, coeff in groups:
        trace = forward(model.disc, pairs)
        part, dlogits = clamped_class_grad(trace.output, targets, coeff, grads=grads)
        total += part
        if not grads:
            continue
        g = backward(model.disc, trace, dlogits)
        if sums is None:
            sums = g
        else:
            for acc, extra in zip(sums, g):
                acc += extra
    return total, sums


def real_feature_mean(model: TripartiteModel, batch: Minibatch) -> np.ndarray:
    """Mean discriminator features of the batch's real pairs: the real side of
    feature matching.

    Runs the discriminator's hidden layer over ``batch.real_pairs`` and
    returns the (hidden_dim,) column means, the float64 operations of
    ``np.mean(features, axis=0)``: column sums, each divided by the row count.
    """
    features = forward(model.disc, batch.real_pairs, need=HIDDEN).hidden_act
    mean = np.add.reduce(features, axis=0)
    mean /= features.shape[0]
    return mean


def feature_matching_penalty(model: TripartiteModel, which_view: int,
                             real_mean, gen_pairs, gen_trace, *, grads: bool = True):
    """l2 distance between mean discriminator features on real and completed pairs.

    real_mean is the (hidden_dim,) mean of the discriminator's hidden
    features of real complete pairs, as ``real_feature_mean`` forms it (any
    other shape is a ``DimensionError``); it is read, not written. gen_pairs
    is the non-empty [view1 | view2] block completed by generator
    ``which_view``, and gen_trace the forward trace whose output fills that
    slot of gen_pairs; through it the penalty sends exact gradients back
    into the generator. The discriminator is frozen: only its first layer
    carries the chain, so its pass over gen_pairs stops at the hidden layer.
    Returns (penalty, gradients), the gradients a list in the generator's
    ``params()`` order, all zero when the penalty is 0. With ``grads=False``
    the same forward pass, sums and norm run, no backward pass does, and the
    result is (penalty, None).
    """
    hidden = model.disc.hidden_dim
    if real_mean.shape != (hidden,):
        raise DimensionError(f"real_mean must be a ({hidden},) vector of the "
                             f"discriminator's mean hidden features, got shape "
                             f"{real_mean.shape}")
    if gen_pairs.shape[0] < 1:
        raise ConfigError("feature matching needs a non-empty generated batch")
    feats_gen = forward(model.disc, gen_pairs, need=HIDDEN).hidden_act
    # the float64 operations of mean(real) - mean(gen) and np.linalg.norm:
    # column sums, each divided by its row count, then sqrt(delta . delta)
    n_gen = feats_gen.shape[0]
    mean_gen = np.add.reduce(feats_gen, axis=0)
    mean_gen /= n_gen
    delta = np.subtract(real_mean, mean_gen, out=mean_gen)
    norm = math.sqrt(delta.dot(delta))
    if not grads:
        return norm, None
    gen = model.generator(which_view)
    if norm == 0.0:
        return 0.0, [np.zeros_like(p) for p in gen.params()]

    # d penalty / d feats_gen[i] = (-delta/norm) / n_gen, then through the
    # sigmoid and the discriminator's first layer into the generated slot.
    d_feats = np.negative(delta, out=delta)
    d_feats /= norm
    d_feats /= n_gen
    d_hidden_pre = d_feats * feats_gen
    d_hidden_pre *= 1.0 - feats_gen
    d_pairs = d_hidden_pre @ model.disc.weights_in
    return norm, backward(gen, gen_trace, model.slot(which_view, d_pairs))


def loss_generator(model: TripartiteModel, which_view: int, batch: Minibatch,
                   real_mean, fm_weight: float = 1.0, *, grads: bool = True):
    """Generator loss: class assignment of completed pairs plus feature matching.

    real_mean is the mean discriminator feature vector of
    ``batch.real_pairs`` (``real_feature_mean``), which the loss hands to
    the feature-matching penalty; it runs no real-pair pass itself. It
    completes its own pairs. The batch's labels must have the model's K
    classes: the class targets come from the batch. Gradients reach the
    generator by backpropagating through the frozen discriminator into the
    input slot the generated view occupies. Returns (loss, gradients), the gradients a list
    in the generator's ``params()`` order. With ``grads=False`` the same
    forward passes and float64 value arithmetic run, no backward pass does
    and no logit gradient is formed, and the result is (loss, None).
    """
    _check_batch_classes(model, batch)
    m_b = len(batch.full)
    coeff = 1.0 / (m_b * (model.num_classes + 1))
    gen_trace, pairs, targets = complete(model, which_view, batch)

    trace_d = forward(model.disc, pairs)
    class_loss, dlogits = clamped_class_grad(trace_d.output, targets, coeff, grads=grads)
    penalty, fm_grads = feature_matching_penalty(model, which_view, real_mean, pairs,
                                                 gen_trace, grads=grads)
    loss = class_loss + fm_weight * penalty
    if not grads:
        return loss, None
    d_input = backward(model.disc, trace_d, dlogits, need=INPUT)
    gen_grads = backward(model.generator(which_view), gen_trace, model.slot(which_view, d_input))
    for acc, extra in zip(gen_grads, fm_grads):
        acc += fm_weight * extra
    return loss, gen_grads


def _check_subsets(dataset: PartitionedDataset):
    """The three subsets, in draw order; a minibatch needs rows from each."""
    subsets = (dataset.s_full, dataset.s_missing1, dataset.s_missing2)
    for name, subset in zip(("s_full", "s_missing1", "s_missing2"), subsets):
        if len(subset) == 0:
            raise ConfigError(f"{name} is empty")
    return subsets


def sample_minibatch(dataset: PartitionedDataset, m_b: int, rng: np.random.Generator) -> Minibatch:
    """Uniform with-replacement draw of m_b examples per subset, plus fresh noise.

    Draw order is fixed (full, missing1, missing2 indices, then the two
    noise blocks) so a seeded generator reproduces the batch sequence.
    """
    rows = [subset[rng.integers(0, len(subset), size=m_b)] for subset in _check_subsets(dataset)]
    noise = [rng.uniform(-1.0, 1.0, size=(m_b, d)) for d in (dataset.d1, dataset.d2)]
    return Minibatch(*rows, *noise)


def _heldout_accuracy(model: TripartiteModel, heldout: Views) -> tuple[float, float]:
    """Fake-gated and class-head accuracy on held-out pairs, from one discriminate call."""
    fake, cls = decide_batch(discriminate(model, heldout.view1, heldout.view2))
    hit = cls == heldout.classes
    return float(np.mean(~fake & hit)), float(np.mean(hit))


def step(model: TripartiteModel, batch: Minibatch, adam, config: TrainConfig) -> list:
    """One Adam step each for the discriminator, generator 1 and generator 2, in
    that order, on its own loss with the other players held fixed; ``adam``
    holds their three ``AdamState``. Returns [loss_d, loss_g1, loss_g2]."""
    completed = [complete(model, v, batch)[1] for v in (1, 2)]
    loss_d, grads = loss_discriminator(model, batch, completed)
    adam_step(model.disc.params(), grads, adam[0])
    losses = [loss_d]
    for v in (1, 2):
        loss, grads = loss_generator(model, v, batch, real_feature_mean(model, batch),
                                     config.fm_weight)
        adam_step(model.generator(v).params(), grads, adam[v])
        losses.append(loss)
    return losses


def train(model: TripartiteModel, dataset: PartitionedDataset, config: TrainConfig,
          heldout=None, metrics_path=None, checkpoint_path=None):
    """Run the minibatch game for config.iterations steps.

    Per step: sample one batch and run ``step`` on it. Returns (model, rows),
    each row (iteration, loss_d, loss_g1, loss_g2, heldout_acc, heldout_class_acc):
    heldout_acc is the Fake-gated accuracy and heldout_class_acc the class
    head's argmax accuracy on the held-out pairs after every eval_every-th
    step, both None on the other steps. When metrics_path is given the rows
    are streamed to a CSV with header
    ``iter,loss_d,loss_g1,loss_g2,heldout_acc,heldout_class_acc``.
    When checkpoint_path is given, the model is saved there, with
    config.seed, after every checkpoint_every-th step and after the last one
    (before any step if there are none), each step at most once. Before the first
    step and before the metrics file is opened, ``data.check_scorable`` rejects
    training data (its ``s_full``) or held-out pairs that do not fit the model
    or lack a view, and an empty held-out block or subset is rejected too, as
    are held-out pairs with a config.eval_every outside [1, config.iterations],
    which would never score them.
    """
    check_scorable(dataset.s_full, "the training data", model, "the model")
    if heldout is not None:
        check_scorable(heldout, "the held-out block", model, "the model")
        if len(heldout) == 0:
            raise ConfigError("the held-out block is empty: it has no complete pairs")
        if not 1 <= config.eval_every <= config.iterations:
            raise ConfigError(f"must be between 1 and iterations = {config.iterations} when "
                              f"held-out pairs are given, got {config.eval_every!r}",
                              key="eval_every")
    _check_subsets(dataset)
    rng = np.random.default_rng(config.seed)
    adam = [AdamState(net.params(), config.alpha, config.beta1, config.beta2, config.epsilon)
            for net in (model.disc, model.generator(1), model.generator(2))]

    rows = []
    with open(metrics_path, "w", encoding="ascii") if metrics_path else nullcontext() as out:
        if out:
            out.write("iter,loss_d,loss_g1,loss_g2,heldout_acc,heldout_class_acc\n")
        if checkpoint_path and config.iterations == 0:
            save_checkpoint(checkpoint_path, model, config.seed, 0)
        for i in range(config.iterations):
            try:
                losses = step(model, sample_minibatch(dataset, config.minibatch_size, rng),
                              adam, config)
            except NumericError as e:
                raise NumericError(f"iteration {i}: {e}") from e
            done = i + 1
            accs = (None, None)
            if heldout is not None and done % config.eval_every == 0:
                accs = _heldout_accuracy(model, heldout)
            rows.append((i, *losses, *accs))
            if out:
                out.write(",".join("" if x is None else repr(x) for x in rows[-1]) + "\n")
            if checkpoint_path and (done == config.iterations or (
                    config.checkpoint_every and done % config.checkpoint_every == 0)):
                save_checkpoint(checkpoint_path, model, config.seed, done)
    return model, rows
