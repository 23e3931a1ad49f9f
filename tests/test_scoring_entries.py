"""Every entry that scores a block rejects one it cannot score before any work.

The entries are ``evaluate`` in each scenario, the singleview baseline on
each view, ``train(heldout=...)``, ``viewgan eval`` and ``viewgan train
--heldout``. Each is handed a block that lacks a view it reads, one whose
present view has another width, and one whose labels have another K, on a
task whose (d1, d2, K) is (3, 3, 2). ``data.check_scorable`` is the rule they
share; the CLI's own message for a file with no rows to score stands in for
it where a file lacks a view, since a file's blocks always carry both widths.
"""

import re

import numpy as np
import pytest

import viewgan as vg
import viewgan.evaluate as evaluate_mod
import viewgan.nn as nn_mod
import viewgan.train as train_mod
from viewgan.cli import main
from viewgan.data import partition_rows
from viewgan.errors import ConfigError, DimensionError
from viewgan.evaluate import Scenario, evaluate, train_singleview_baseline

WANT = (3, 3, 2)


def task():
    spec = vg.SyntheticSpec(
        num_classes=2, d1=3, d2=3,
        means_view1=vg.block_class_means(2, 3, 2.5),
        means_view2=vg.block_class_means(2, 3, 2.5),
        noise_sigma=0.4, view_correlation=0.0,
        m_full=6, m_missing1=6, m_missing2=6, m_test=8, seed=1)
    dataset, test, _ = vg.generate_synthetic(spec)
    return dataset, test


def library(run):
    """An entry that takes the bad block as a ``Views``."""
    def call(tmp_path, dataset, block):
        model = vg.new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
        run(model, dataset, block)
    return call


def cli(argv):
    """An entry that reads the bad block from a data file, whose path it names.
    A block without a view is written as rows that lack it."""
    def call(tmp_path, dataset, block):
        path = tmp_path / "block.tsv"
        n = len(block)
        missing = [v for v in (1, 2) if block.view(v) is None]
        counts = {(): (n, 0, 0), (1,): (0, n, 0), (2,): (0, 0, n)}[tuple(missing)]
        if missing:  # put the view back, for partition_rows to drop it again
            block = block.with_view(missing[0], np.zeros((n, 3)))
        vg.save_multiview_file(path, partition_rows(block, *counts)[0])
        assert main(argv(tmp_path, dataset, str(path))) == 2
    return call


def eval_argv(tmp_path, dataset, path):
    ckpt = tmp_path / "model.ckpt"
    vg.save_checkpoint(ckpt, vg.new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4),
                       0, 0)
    return ["eval", "--checkpoint", str(ckpt), "--data", path, "--scenario", "view2-generated"]


def train_argv(tmp_path, dataset, path):
    train_f = tmp_path / "train.tsv"
    vg.save_multiview_file(train_f, dataset)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("iterations = 4\nminibatch_size = 2\nhidden_dim = 4\neval_every = 2\n",
                   encoding="utf-8")
    return ["train", "--config", str(cfg), "--data", str(train_f),
            "--out-checkpoint", str(tmp_path / "out.ckpt"), "--heldout", path]


TINY = vg.TrainConfig(iterations=4, minibatch_size=2, eval_every=2)

# name: (the view it reads that the missing-view block drops, the view the
# wrong-width block widens, the entry, the name it gives the block)
ENTRIES = {
    "evaluate-complete": (1, 1, library(
        lambda model, ds, block: evaluate(model, block, Scenario.COMPLETE)), "the test block"),
    "evaluate-view1-generated": (2, 1, library(
        lambda model, ds, block: evaluate(model, block, Scenario.VIEW1_GENERATED)),
        "the test block"),
    "evaluate-view2-generated": (1, 2, library(
        lambda model, ds, block: evaluate(model, block, Scenario.VIEW2_GENERATED)),
        "the test block"),
    "baseline-view1": (1, 1, library(
        lambda model, ds, block: train_singleview_baseline(1, ds, TINY, block, hidden_dim=4)),
        "the test block"),
    "baseline-view2": (2, 2, library(
        lambda model, ds, block: train_singleview_baseline(2, ds, TINY, block, hidden_dim=4)),
        "the test block"),
    "train-heldout": (2, 1, library(
        lambda model, ds, block: train_mod.train(model, ds, TINY, heldout=block)),
        "the held-out block"),
    "cli-eval": (1, 2, cli(eval_argv), None),
    "cli-train-heldout": (2, 1, cli(train_argv), None),
}


def widened(test, v):
    """``test`` with view v one column wider."""
    return test.with_view(v, np.concatenate([test.view(v), test.view(v)[:, :1]], axis=1))


def bad_block(kind, test, read, wide):
    """(block, its (d1, d2, K)) of the given kind, made from complete pairs."""
    if kind == "missing-view":
        return test.with_view(read, None), tuple(None if v == read else 3 for v in (1, 2)) + (2,)
    if kind == "view-width":
        return widened(test, wide), tuple(4 if v == wide else 3 for v in (1, 2)) + (2,)
    return vg.Views(test.view1, test.view2, np.eye(3)[test.label.argmax(axis=1)]), (3, 3, 3)


@pytest.fixture
def no_passes(monkeypatch):
    """Make every forward pass and Adam step an error."""
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass or step ran before the block was checked")

    for module in (nn_mod, train_mod, evaluate_mod):
        for name in ("forward", "adam_step"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_pass)


@pytest.mark.parametrize("kind", ["missing-view", "view-width", "classes"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_scoring_entry_rejects_a_block_it_cannot_score_before_any_pass(
        tmp_path, capsys, no_passes, entry, kind):
    dataset, test = task()
    read, wide, run, name = ENTRIES[entry]
    block, got = bad_block(kind, test, read, wide)
    if name is None:  # a CLI entry: the block goes to a file
        run(tmp_path, dataset, block)
        message = capsys.readouterr().err
        assert message.startswith("error: ") and str(tmp_path / "block.tsv") in message
        if kind == "missing-view":
            wanted = ("no complete pairs" if entry == "cli-train-heldout"
                      else "no rows that observe view 1")
            assert wanted in message
        else:
            assert str(got) in message and str(WANT) in message
        return
    error = ValueError if kind == "missing-view" else DimensionError
    with pytest.raises(error) as err:
        run(tmp_path, dataset, block)
    assert not isinstance(err.value, ConfigError)
    message = str(err.value)
    assert message.startswith(name) and str(got) in message and str(WANT) in message
    if kind == "missing-view":
        assert re.search(f"lacks view {read}\\b", message)


def test_the_baseline_rejects_a_test_block_without_its_view_up_front(no_passes):
    dataset, test = task()
    with pytest.raises(ValueError, match=re.escape(
            "the test block lacks view 1: it has (d1, d2, K) = (None, 3, 2), "
            "but the training data has (3, 3, 2)")):
        train_singleview_baseline(1, dataset, TINY, test.with_view(1, None))
