"""Tests for scoring, scenarios, the baseline and the repeat driver."""

import dataclasses
import importlib
import pkgutil
import re
import types

import numpy as np
import pytest

import viewgan as vg
import viewgan.evaluate as evaluate_mod
from viewgan.errors import ConfigError, DimensionError
from viewgan.evaluate import (ExperimentSpec, Scenario, evaluate,
                              metrics_from_predictions, run_experiment,
                              train_singleview_baseline, write_experiment_csv)
from viewgan.model import new_model
from viewgan.nn import SOFTMAX
from viewgan.train import TrainConfig


SUBMODULES = ("cli", "config", "data", "errors", "evaluate", "gradcheck", "model", "nn",
              "theory", "train")


def test_each_submodule_imports_as_a_module():
    # ``import viewgan.<name> as m`` binds the package attribute <name>, so
    # the package must not re-export a function under a submodule's name
    found = {m.name for m in pkgutil.iter_modules(vg.__path__)} - {"__main__"}
    assert found == set(SUBMODULES)
    for name in SUBMODULES:
        importlib.import_module(f"viewgan.{name}")
        assert isinstance(getattr(vg, name), types.ModuleType), name


def synth_spec(seed=0, k=2, m_test=12):
    return vg.SyntheticSpec(
        num_classes=k, d1=3, d2=3,
        means_view1=vg.block_class_means(k, 3, 2.5),
        means_view2=vg.block_class_means(k, 3, 2.5),
        noise_sigma=0.4, view_correlation=0.0,
        m_full=8, m_missing1=8, m_missing2=8, m_test=m_test, seed=seed)


def tiny_cfg(iters=5, seed=0):
    return TrainConfig(iterations=iters, minibatch_size=3, seed=seed)


# ---------------------------------------------------------------- scoring

def test_metrics_hand_confusion():
    # 6 items, 2 classes: one correct per class, one cross error,
    # one fake call per class
    y =    [0, 0, 0, 1, 1, 1]
    pred = [0, 1, 0, 1, 0, 0]
    fake = [False, False, True, False, False, True]
    rep = metrics_from_predictions(y, pred, fake, num_classes=2, seed=9)
    assert rep.accuracy == pytest.approx(2 / 6)
    assert rep.fake_rate == pytest.approx(2 / 6)
    # ignoring the gate, the first fake call (label 0, argmax 0) is right
    assert rep.class_accuracy == pytest.approx(3 / 6)
    assert rep.n_test == 6 and rep.seed == 9
    # rows: true class; columns: predicted class 0, 1, then Fake
    assert rep.confusion == ((1, 1, 1), (1, 1, 1))
    # class 0: tp=1, predicted 0 twice (one true one from class 1), 3 true
    c0 = rep.per_class[0]
    assert c0.precision == pytest.approx(1 / 2)
    assert c0.recall == pytest.approx(1 / 3)
    c1 = rep.per_class[1]
    assert c1.precision == pytest.approx(1 / 2)
    assert c1.recall == pytest.approx(1 / 3)
    f1 = 2 * (1 / 2) * (1 / 3) / (1 / 2 + 1 / 3)
    assert rep.macro_f1 == pytest.approx(f1)


def test_metrics_zero_division_convention():
    # class 1 never predicted and never correct: precision=recall=f1=0
    rep = metrics_from_predictions([0, 1], [0, 0], [False, False], 2, 0)
    assert rep.per_class[1].precision == 0.0
    assert rep.per_class[1].recall == 0.0
    assert rep.per_class[1].f1 == 0.0


def test_metrics_all_fake_means_zero_accuracy():
    rep = metrics_from_predictions([0, 1], [0, 1], [True, True], 2, 0)
    assert rep.accuracy == 0.0
    assert rep.fake_rate == 1.0
    assert rep.class_accuracy == 1.0


def test_metrics_shape_mismatch_rejected():
    with pytest.raises(ConfigError):
        metrics_from_predictions([0, 1], [0], [False, False], 2, 0)
    with pytest.raises(ConfigError):
        metrics_from_predictions([], [], [], 2, 0)


# -------------------------------------------------------------- scenarios

def test_evaluate_complete_scenario():
    _, test, _ = vg.generate_synthetic(synth_spec())
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    rep = evaluate(model, test, Scenario.COMPLETE, seed=1)
    assert rep.n_test == len(test)
    assert 0.0 <= rep.accuracy <= 1.0


def test_evaluate_generated_scenarios_are_deterministic():
    _, test, _ = vg.generate_synthetic(synth_spec(seed=3))
    model = new_model(3, 3, 2, np.random.default_rng(1), hidden_dim=4)
    for scen in (Scenario.VIEW1_GENERATED, Scenario.VIEW2_GENERATED):
        a = evaluate(model, test, scen, seed=5)
        b = evaluate(model, test, scen, seed=5)
        assert a == b
        c = evaluate(model, test, scen, seed=6)
        assert c.n_test == a.n_test  # different noise, same bookkeeping


def test_evaluate_missing_view_rejected():
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    test = vg.Views(view1=None, view2=np.zeros((1, 3)), label=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        evaluate(model, test, Scenario.COMPLETE)
    # view1-generated only needs view2, so the same test set is fine
    rep = evaluate(model, test, Scenario.VIEW1_GENERATED)
    assert rep.n_test == 1
    with pytest.raises(ValueError):
        evaluate(model, test, Scenario.VIEW2_GENERATED)


def test_evaluate_rejects_what_is_not_a_scenario():
    _, test, _ = vg.generate_synthetic(synth_spec(seed=3))
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    for scenario in ("complete", "view1-generated", 1, None):
        with pytest.raises(ValueError, match="unknown scenario"):
            evaluate(model, test, scenario)


def test_evaluate_rejects_labels_of_another_class_count():
    _, test, _ = vg.generate_synthetic(synth_spec(seed=3, k=3))
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    for scenario in Scenario:
        with pytest.raises(DimensionError, match=re.escape(
                "the test block has (d1, d2, K) = (3, 3, 3), but the model has (3, 3, 2)")):
            evaluate(model, test, scenario)


def test_evaluate_empty_test_rejected():
    model = new_model(3, 3, 2, np.random.default_rng(0), hidden_dim=4)
    with pytest.raises(ConfigError):
        evaluate(model, vg.Views(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 2))),
                 Scenario.COMPLETE)


# --------------------------------------------------------------- baseline

def test_baseline_trains_on_the_right_pool():
    ds, test, _ = vg.generate_synthetic(synth_spec(seed=4))
    net, rep = train_singleview_baseline(1, ds, tiny_cfg(), test, hidden_dim=4)
    assert net.weights_in.shape[1] == ds.d1          # consumes view 1 only
    assert rep.fake_rate == 0.0                      # argmax never says fake
    net2, _ = train_singleview_baseline(2, ds, tiny_cfg(), test, hidden_dim=4)
    assert net2.weights_in.shape[1] == ds.d2
    with pytest.raises(ValueError):
        train_singleview_baseline(3, ds, tiny_cfg(), test)


def test_baseline_learns_a_separable_task():
    spec = synth_spec(seed=8, m_test=60)
    ds, test, _ = vg.generate_synthetic(spec)
    _, rep = train_singleview_baseline(
        1, ds, TrainConfig(iterations=400, minibatch_size=8, alpha=5e-3, seed=2),
        test, hidden_dim=8)
    assert rep.accuracy >= 0.8


def test_baseline_empty_pool_rejected():
    ds, test, _ = vg.generate_synthetic(synth_spec())
    empty = vg.PartitionedDataset(s_full=ds.s_full[:0], s_missing1=ds.s_missing1,
                                  s_missing2=ds.s_missing2[:0])
    with pytest.raises(ConfigError):
        train_singleview_baseline(1, empty, tiny_cfg(), test)


def test_baseline_rejects_a_test_block_of_another_k_before_training(monkeypatch):
    ds, test, _ = vg.generate_synthetic(synth_spec(k=3))
    other = vg.Views(test.view1, test.view2, np.eye(4)[np.arange(len(test)) % 4])

    def no_pass(*args, **kwargs):
        raise AssertionError("the baseline trained before checking the test labels")

    monkeypatch.setattr(evaluate_mod, "forward", no_pass)
    with pytest.raises(DimensionError, match=re.escape(
            "the test block has (d1, d2, K) = (3, 3, 4), but the training data has (3, 3, 3)")):
        train_singleview_baseline(1, ds, tiny_cfg(), other, hidden_dim=4)


def test_baseline_rejects_an_empty_test_block_before_training(monkeypatch):
    # it used to make every iteration's Adam step, then fail in the test pass
    ds, test, _ = vg.generate_synthetic(synth_spec())
    steps = []
    monkeypatch.setattr(evaluate_mod, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match="^empty test set$"):
        train_singleview_baseline(1, ds, tiny_cfg(iters=200), test[:0], hidden_dim=4)
    assert steps == []


def test_baseline_test_pass_in_row_blocks_reports_as_one_whole_pass():
    # 5,000 test rows make three row blocks of the classifier's pass
    ds, test, _ = vg.generate_synthetic(synth_spec(seed=5, m_test=5000))
    cfg = tiny_cfg(seed=6)
    net, rep = train_singleview_baseline(2, ds, cfg, test)
    pred = np.argmax(vg.forward(net, test.view2).output, axis=1)
    whole = metrics_from_predictions(np.argmax(test.label, axis=1), pred,
                                     np.zeros(len(test), dtype=bool), ds.num_classes, cfg.seed)
    assert rep == whole


# ------------------------------------------------------------- experiment

def test_experiment_spec_needs_exactly_one_source():
    cfg = tiny_cfg()
    with pytest.raises(ConfigError):
        ExperimentSpec(n_repeats=1, scenario=Scenario.COMPLETE, train_config=cfg,
                       m_full=4, m_missing1=4, m_missing2=4)
    with pytest.raises(ConfigError):
        ExperimentSpec(n_repeats=1, scenario=Scenario.COMPLETE, train_config=cfg,
                       m_full=4, m_missing1=4, m_missing2=4,
                       data_pool=vg.generate_synthetic(synth_spec())[1],
                       synthetic=synth_spec())
    with pytest.raises(ConfigError):
        ExperimentSpec(n_repeats=0, scenario=Scenario.COMPLETE, train_config=cfg,
                       m_full=4, m_missing1=4, m_missing2=4, synthetic=synth_spec())


def tiny_experiment(n_repeats=2, master_seed=11, include_baselines=True):
    return ExperimentSpec(
        n_repeats=n_repeats, scenario=Scenario.COMPLETE,
        train_config=tiny_cfg(iters=4),
        m_full=8, m_missing1=8, m_missing2=8,
        synthetic=synth_spec(), hidden_dim=4,
        include_baselines=include_baselines, master_seed=master_seed)


# Each case builds, from an rng it may not draw from, a type given one setting one
# below its bound, and names the key of that setting.
SETTINGS_BELOW_THEIR_BOUND = {
    "train-seed": (lambda rng: TrainConfig(iterations=1, minibatch_size=1, seed=-1), "seed"),
    "synthetic-seed": (lambda rng: synth_spec(seed=-1), "seed"),
    **{f"experiment-{key}": (
        lambda rng, key=key: dataclasses.replace(tiny_experiment(), **{key: 0}), key)
       for key in ("m_full", "m_missing1", "m_missing2", "hidden_dim")},
    "experiment-master-seed": (lambda rng: tiny_experiment(master_seed=-1), "master_seed"),
    "experiment-synthetic-m-test": (lambda rng: dataclasses.replace(
        tiny_experiment(), synthetic=synth_spec(m_test=0)), "m_test"),
    # 24 pairs, all of which the three subsets of 8 take
    "experiment-pool": (lambda rng: dataclasses.replace(
        tiny_experiment(), synthetic=None,
        data_pool=vg.generate_synthetic(synth_spec(m_test=24))[1]), "data"),
    "init-mlp-hidden-dim": (lambda rng: vg.init_mlp(3, 0, 2, SOFTMAX, rng), "hidden_dim"),
}


@pytest.mark.parametrize("case", SETTINGS_BELOW_THEIR_BOUND)
def test_each_type_rejects_a_setting_below_its_bound_when_built(case):
    build, key = SETTINGS_BELOW_THEIR_BOUND[case]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError) as err:
        build(rng)
    assert err.value.key == key
    assert rng.bit_generator.state == state


def test_run_experiment_synthetic():
    res = run_experiment(tiny_experiment())
    assert len(res.rows) == 2
    assert res.rows[0].repeat == 0 and res.rows[1].repeat == 1
    for row in res.rows:
        assert row.bayes_accuracy is not None
        assert row.baseline1_accuracy is not None
    assert "accuracy" in res.mean and "bayes_accuracy" in res.std


def test_run_experiment_is_deterministic():
    a = run_experiment(tiny_experiment())
    b = run_experiment(tiny_experiment())
    assert a.rows == b.rows
    c = run_experiment(tiny_experiment(master_seed=12))
    assert c.rows != a.rows


def test_run_experiment_from_pool():
    _, test, _ = vg.generate_synthetic(synth_spec(seed=6, m_test=40))
    spec = ExperimentSpec(
        n_repeats=1, scenario=Scenario.COMPLETE, train_config=tiny_cfg(iters=3),
        m_full=6, m_missing1=6, m_missing2=6,
        data_pool=test, hidden_dim=4, include_baselines=False, master_seed=0)
    res = run_experiment(spec)
    assert res.rows[0].bayes_accuracy is None
    assert res.rows[0].baseline1_accuracy is None
    assert "bayes_accuracy" not in res.mean


def test_experiment_csv_layout(tmp_path):
    res = run_experiment(tiny_experiment())
    path = tmp_path / "exp.csv"
    write_experiment_csv(path, res)
    lines = path.read_text().splitlines()
    header = ("repeat,accuracy,macro_f1,fake_rate,baseline1_accuracy,baseline2_accuracy,"
              "bayes_accuracy,class_accuracy")
    assert lines[0] == header
    assert len(lines) == 1 + 2 + 2                    # rows + mean + std
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std,")
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == res.rows[0].accuracy


def test_experiment_csv_blank_cells(tmp_path):
    _, test, _ = vg.generate_synthetic(synth_spec(seed=6, m_test=40))
    spec = ExperimentSpec(
        n_repeats=1, scenario=Scenario.COMPLETE, train_config=tiny_cfg(iters=2),
        m_full=6, m_missing1=6, m_missing2=6,
        data_pool=test, hidden_dim=4, include_baselines=False)
    path = tmp_path / "exp.csv"
    write_experiment_csv(path, run_experiment(spec))
    row = path.read_text().splitlines()[1].split(",")
    assert row[4] == "" and row[5] == "" and row[6] == ""
