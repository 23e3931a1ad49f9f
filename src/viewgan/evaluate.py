"""Test-time metrics, the singleview baseline, and the repeated-splits runner.

Three test scenarios: score complete pairs as-is, or delete one view and
let the matching generator recomplete it before scoring, which measures how
much class information the completions carry. Items the decide rule marks
Fake are counted as errors in ``accuracy``; their rate is reported
separately, and ``class_accuracy`` scores the argmax over the K class
outputs with the Fake gate ignored.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .data import (PartitionedDataset, SyntheticSpec, Views, check_scorable,
                   generate_synthetic, other_view, replace_file, split_for_protocol)
from .errors import ConfigError
from .model import TripartiteModel, decide_batch, discriminate, generate, new_model
from .nn import (DEFAULT_HIDDEN_DIM, SOFTMAX, AdamState, adam_step, backward, forward,
                 forward_in_blocks, init_mlp)
from .train import TrainConfig, clamped_class_grad, train


class Scenario(enum.Enum):
    COMPLETE = "complete"
    VIEW1_GENERATED = "view1-generated"
    VIEW2_GENERATED = "view2-generated"

    @property
    def generated_view(self) -> int | None:
        """The view this scenario drops and regenerates; None for complete pairs."""
        return {"view1-generated": 1, "view2-generated": 2}.get(self.value)


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: tuple
    macro_f1: float
    fake_rate: float
    n_test: int
    seed: int
    class_accuracy: float
    confusion: tuple  # K rows of K+1 counts: true class by predicted class, then Fake


def metrics_from_predictions(true_labels, predicted, fake, num_classes: int,
                             seed: int) -> MetricsReport:
    """Score predictions against labels; Fake predictions are always wrong.

    Builds a K x (K+1) confusion matrix whose last column collects Fake
    calls, so accuracy is exactly the diagonal mass over n_test. Per-class
    precision/recall/F1 use the 0/0 -> 0 convention. class_accuracy is the
    share of predicted == label with the fake mask ignored: the score of the
    discriminator's class head alone.
    """
    y = np.asarray(true_labels, dtype=np.int64)
    pred = np.asarray(predicted, dtype=np.int64)
    fake = np.asarray(fake, dtype=bool)
    n = y.shape[0]
    if n < 1:
        raise ConfigError("empty test set")
    if y.shape != pred.shape or y.shape != fake.shape:
        raise ConfigError("labels, predictions, fake mask must share a shape")

    confusion = np.zeros((num_classes, num_classes + 1), dtype=np.int64)
    cols = np.where(fake, num_classes, pred)
    np.add.at(confusion, (y, cols), 1)

    accuracy = float(np.trace(confusion[:, :num_classes])) / n
    per_class = []
    for k in range(num_classes):
        tp = float(confusion[k, k])
        pred_k = float(confusion[:, k].sum())
        true_k = float(confusion[k, :].sum())
        precision = tp / pred_k if pred_k > 0 else 0.0
        recall = tp / true_k if true_k > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(ClassScores(precision, recall, f1))
    macro_f1 = float(np.mean([c.f1 for c in per_class]))
    return MetricsReport(accuracy, tuple(per_class), macro_f1,
                         float(np.mean(fake)), n, seed, float(np.mean(pred == y)),
                         tuple(map(tuple, confusion.tolist())))


def evaluate(model: TripartiteModel, test: Views, scenario: Scenario,
             seed: int = 0) -> MetricsReport:
    """Apply the decide rule to the test set under the given scenario.

    For the generated scenarios the target view is dropped and recompleted
    with one fresh noise draw per item before scoring. Before any pass,
    ``data.check_scorable`` rejects a block that lacks a view the scenario
    reads or does not fit the model, the regenerated slot's width included.
    An empty test block is a ConfigError of ``metrics_from_predictions``.
    """
    if not isinstance(scenario, Scenario):
        raise ValueError(f"unknown scenario {scenario!r}")
    v = scenario.generated_view
    check_scorable(test, "the test block", model, "the model",
                   (1, 2) if v is None else (other_view(v),))
    rng = np.random.default_rng(seed)
    if v is not None:
        noise = rng.uniform(-1.0, 1.0, size=(len(test), model.generator(v).output_dim))
        test = test.with_view(v, generate(model, v, test.view(other_view(v)), noise))

    fake, cls = decide_batch(discriminate(model, test.view1, test.view2))
    return metrics_from_predictions(test.classes, cls, fake, model.num_classes, seed)


# ---------------------------------------------------------------------------
# Singleview baseline: a plain classifier over one view, trained on every
# example where that view is observed.

def train_singleview_baseline(which_view: int, dataset: PartitionedDataset,
                              config: TrainConfig, test: Views,
                              hidden_dim: int = DEFAULT_HIDDEN_DIM):
    """Train a softmax classifier on view v alone; evaluate by plain argmax.

    Returns (classifier, MetricsReport). The training pool is s_full plus
    the subset whose other view is missing. Before training, an empty test
    block is a ConfigError, as in ``evaluate``, and ``data.check_scorable``
    rejects one that lacks view v or does not fit the training data's
    (d1, d2, K).
    """
    if len(test) == 0:
        raise ConfigError("empty test set")
    check_scorable(test, "the test block", dataset, "the training data", (which_view,))
    pool = dataset.observing(which_view)
    if len(pool) == 0:
        raise ConfigError(f"no training examples observe view {which_view}")
    k = dataset.num_classes
    x = pool.view(which_view)
    y_idx = pool.classes

    rng = np.random.default_rng(config.seed)
    net = init_mlp(x.shape[1], hidden_dim, k, SOFTMAX, rng)
    adam = AdamState(net.params(), config.alpha, config.beta1, config.beta2, config.epsilon)
    m_b = min(config.minibatch_size, len(pool))
    for _ in range(config.iterations):
        idx = rng.integers(0, len(pool), size=m_b)
        trace = forward(net, x[idx])
        _, dlogits = clamped_class_grad(trace.output, y_idx[idx], 1.0 / m_b)
        adam_step(net.params(), backward(net, trace, dlogits), adam)

    pred = np.argmax(forward_in_blocks(net, test.view(which_view)), axis=1)
    report = metrics_from_predictions(test.classes, pred,
                                      np.zeros(len(test), dtype=bool), k, config.seed)
    return net, report


# ---------------------------------------------------------------------------
# Repeated random splits.

@dataclass
class ExperimentSpec:
    """One experiment: n_repeats independent split/train/evaluate cycles.

    Exactly one data source: a complete-pairs file (pool re-split every
    repeat) or a synthetic spec (fresh draw every repeat). Each repeat trains
    on three non-empty subsets and tests on rows the source has left over; a
    ConfigError names the config key at fault, ``data`` for the pool.
    Per-repeat seeds are spawned from master_seed so repeats are independent
    but the whole experiment replays bit for bit.
    """

    n_repeats: int
    scenario: Scenario
    train_config: TrainConfig
    m_full: int
    m_missing1: int
    m_missing2: int
    data_pool: Views | None = None
    synthetic: SyntheticSpec | None = None
    hidden_dim: int = DEFAULT_HIDDEN_DIM
    include_baselines: bool = True
    master_seed: int = 0

    def __post_init__(self):
        for key, low in (("n_repeats", 1), ("m_full", 1), ("m_missing1", 1), ("m_missing2", 1),
                         ("hidden_dim", 1), ("master_seed", 0)):
            value = getattr(self, key)
            if value < low:
                raise ConfigError(f"must be at least {low}, got {value!r}", key=key)
        if (self.data_pool is None) == (self.synthetic is None):
            raise ConfigError("exactly one of data_pool and synthetic must be set")
        if self.synthetic is not None and self.synthetic.m_test < 1:
            raise ConfigError(f"must be at least 1, got {self.synthetic.m_test!r}", key="m_test")
        need = self.m_full + self.m_missing1 + self.m_missing2
        if self.data_pool is not None and len(self.data_pool) <= need:
            raise ConfigError(f"must hold more than the m_full + m_missing1 + m_missing2 = "
                              f"{need} complete pairs that each repeat trains on, got "
                              f"{len(self.data_pool)}", key="data")


@dataclass(frozen=True)
class RepeatResult:
    repeat: int
    accuracy: float
    macro_f1: float
    fake_rate: float
    baseline1_accuracy: float | None
    baseline2_accuracy: float | None
    bayes_accuracy: float | None
    class_accuracy: float


METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(RepeatResult))[1:]  # all but ``repeat``


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple
    mean: dict
    std: dict


def _repeat_seeds(master_seed: int, n_repeats: int):
    """Six independent integer seeds per repeat, in a fixed role order."""
    children = np.random.SeedSequence(master_seed).spawn(n_repeats)
    return [[int(s) for s in child.generate_state(6)] for child in children]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the repeats and aggregate mean and std per metric column."""
    rows = []
    for r, seeds in enumerate(_repeat_seeds(spec.master_seed, spec.n_repeats)):
        s_data, s_init, s_train, s_eval, s_b1, s_b2 = seeds
        try:
            bayes = None
            if spec.synthetic is not None:
                synth = dataclasses.replace(spec.synthetic, seed=s_data,
                                            m_full=spec.m_full,
                                            m_missing1=spec.m_missing1,
                                            m_missing2=spec.m_missing2)
                dataset, test, bayes = generate_synthetic(synth)
            else:
                dataset, test = split_for_protocol(
                    spec.data_pool, spec.m_full, spec.m_missing1, spec.m_missing2, s_data)

            model = new_model(dataset.d1, dataset.d2, dataset.num_classes,
                              np.random.default_rng(s_init), spec.hidden_dim)
            cfg = dataclasses.replace(spec.train_config, seed=s_train)
            train(model, dataset, cfg)
            report = evaluate(model, test, spec.scenario, seed=s_eval)

            baselines = [None, None]
            if spec.include_baselines:
                baselines = [train_singleview_baseline(
                    v, dataset, dataclasses.replace(spec.train_config, seed=s_b),
                    test, spec.hidden_dim)[1].accuracy for v, s_b in ((1, s_b1), (2, s_b2))]
            rows.append(RepeatResult(r, report.accuracy, report.macro_f1,
                                     report.fake_rate, *baselines, bayes,
                                     report.class_accuracy))
        except ValueError as e:
            # keep the type, which tells the CLI the inputs were unusable
            e.args = (f"repeat {r}: {e}",)
            raise

    mean, std = {}, {}
    for name in METRIC_FIELDS:
        vals = [getattr(row, name) for row in rows]
        if all(v is not None for v in vals):
            arr = np.array(vals, dtype=np.float64)
            mean[name] = float(arr.mean())
            std[name] = float(arr.std())
    return ExperimentResult(tuple(rows), mean, std)


def write_experiment_csv(path, result: ExperimentResult) -> None:
    """Per-repeat rows then mean and std rows, through ``data.replace_file``;
    blank cells for absent metrics."""
    def fmt(v):
        return "" if v is None else repr(float(v))

    with replace_file(path, "w", "ascii") as f:
        f.write("repeat," + ",".join(METRIC_FIELDS) + "\n")
        for row in result.rows:
            f.write(str(row.repeat) + ","
                    + ",".join(fmt(getattr(row, name)) for name in METRIC_FIELDS) + "\n")
        for label, agg in (("mean", result.mean), ("std", result.std)):
            f.write(label + ","
                    + ",".join(fmt(agg.get(name)) for name in METRIC_FIELDS) + "\n")
