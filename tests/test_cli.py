"""End-to-end tests of the command line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viewgan
import viewgan.cli as cli_mod
import viewgan.train as train_mod
from viewgan.cli import main
from viewgan.config import ConfigMap

SYNTH_CFG = """
# small two-view task
num_classes = 2
d1 = 3
d2 = 3
mean_scale_view1 = 2.5
mean_scale_view2 = 2.5
noise_sigma = 0.4
m_full = 8
m_missing1 = 8
m_missing2 = 8
m_test = 10
seed = 5
"""

TRAIN_CFG = """
iterations = 6
minibatch_size = 3
alpha = 0.001
seed = 9
hidden_dim = 4
eval_every = 3
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def synth_files(tmp_path):
    cfg = write(tmp_path / "synth.cfg", SYNTH_CFG)
    train_f = str(tmp_path / "train.tsv")
    test_f = str(tmp_path / "test.tsv")
    rc = main(["synth", "--config", cfg, "--out-train", train_f, "--out-test", test_f])
    assert rc == 0
    return train_f, test_f


def test_synth_prints_bayes(capsys, synth_files, tmp_path):
    # capsys comes first, so it captures what the fixture's synth run printed
    bayes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("bayes_accuracy=")]
    assert len(bayes) == 1
    assert 1 / 2 <= float(bayes[0].split("=", 1)[1]) <= 1  # K = 2
    # each data file is written with its array sidecar
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "synth.cfg", "test.tsv", "test.tsv.arrays", "train.tsv", "train.tsv.arrays"]
    train_f, test_f = synth_files
    import viewgan as vg
    ds = vg.load_multiview_file(train_f)
    assert ds.m == 24
    test = vg.load_multiview_file(test_f)
    assert len(test.s_full) == 10


def test_train_then_eval(tmp_path, synth_files, capsys):
    train_f, test_f = synth_files
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    ckpt = str(tmp_path / "model.ckpt")
    metrics = str(tmp_path / "metrics.csv")
    rc = main(["train", "--config", cfg, "--data", train_f,
               "--out-checkpoint", ckpt, "--metrics", metrics,
               "--heldout", test_f])
    assert rc == 0
    out = capsys.readouterr().out
    assert "checkpoint written" in out

    lines = open(metrics).read().splitlines()
    assert lines[0] == "iter,loss_d,loss_g1,loss_g2,heldout_acc,heldout_class_acc"
    assert len(lines) == 7
    last_class_acc = lines[-1].split(",")[5]

    rc = main(["eval", "--checkpoint", ckpt, "--data", test_f,
               "--scenario", "complete"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out and "fake_rate=" in out
    lines = out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("accuracy="))
    assert lines[i + 1].startswith("class_accuracy=")
    # the last step is evaluated on the held-out file with the saved model
    assert lines[i + 1] == f"class_accuracy={last_class_acc}"


def test_eval_generated_scenario(tmp_path, synth_files, capsys):
    train_f, test_f = synth_files
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", cfg, "--data", train_f,
                 "--out-checkpoint", ckpt]) == 0
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", ckpt, "--data", test_f,
               "--scenario", "view1-generated", "--seed", "3"])
    assert rc == 0
    assert "scenario=view1-generated" in capsys.readouterr().out


def test_eval_prints_the_confusion_matrix_with_its_fake_column(tmp_path, synth_files, capsys):
    train_f, test_f = synth_files
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", write(tmp_path / "train.cfg", TRAIN_CFG),
                 "--data", train_f, "--out-checkpoint", ckpt]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--data", test_f,
                 "--scenario", "complete"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the benchmark reads the report's accuracy= and fake_rate= lines
    assert sum(line.startswith(("accuracy=", "fake_rate=")) for line in lines) == 2
    report = dict(line.split("=", 1) for line in lines if "=" in line and ":" not in line)
    head = lines.index("confusion rows=true class, columns=predicted 0 1 fake")
    rows = [lines[head + 1 + k].split(": ") for k in range(2)]
    assert [label for label, _ in rows] == ["confusion 0", "confusion 1"]
    counts = np.array([[int(c) for c in cells.split()] for _, cells in rows])
    assert counts.shape == (2, 3) and counts.sum() == int(report["n_test"]) == 10
    assert np.trace(counts[:, :2]) / 10 == float(report["accuracy"])
    assert counts[:, 2].sum() / 10 == float(report["fake_rate"])


def test_cli_train_is_bitwise_deterministic(tmp_path, synth_files):
    train_f, _ = synth_files
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"model_{tag}.ckpt"
        metrics = tmp_path / f"metrics_{tag}.csv"
        rc = main(["train", "--config", cfg, "--data", train_f,
                   "--out-checkpoint", str(ckpt), "--metrics", str(metrics)])
        assert rc == 0
        outputs.append((ckpt.read_bytes(), metrics.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_writes_each_checkpoint_once_with_one_seed(tmp_path, synth_files, monkeypatch):
    import viewgan.model as model_mod
    original = model_mod.save_checkpoint
    saves = []

    def record(path, model, seed, step):
        saves.append((seed, step))
        original(path, model, seed, step)

    # whichever viewgan module writes a checkpoint, the write is recorded
    for name, mod in list(sys.modules.items()):
        if name.startswith("viewgan") and getattr(mod, "save_checkpoint", None) is original:
            monkeypatch.setattr(mod, "save_checkpoint", record)
    cfg = write(tmp_path / "train.cfg", "iterations = 4\nminibatch_size = 3\nseed = 9\n"
                "hidden_dim = 4\ncheckpoint_every = 2\n")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", cfg, "--data", synth_files[0],
                 "--out-checkpoint", str(ckpt)]) == 0
    assert [step for _, step in saves] == [2, 4]
    assert len({seed for seed, _ in saves}) == 1
    assert f"seed {saves[-1][0]}" in ckpt.read_text().splitlines()


def test_experiment_command(tmp_path, capsys):
    cfg = write(tmp_path / "exp.cfg", """
num_classes = 2
d1 = 3
d2 = 3
mean_scale_view1 = 2.5
mean_scale_view2 = 2.5
noise_sigma = 0.4
m_full = 8
m_missing1 = 8
m_missing2 = 8
m_test = 10
iterations = 6
minibatch_size = 3
alpha = 0.001
hidden_dim = 4
n_repeats = 2
master_seed = 3
scenario = complete
""")
    out_csv = str(tmp_path / "exp.csv")
    rc = main(["experiment", "--config", cfg, "--out", out_csv])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "mean accuracy=" in printed
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("repeat,accuracy,")
    assert len(lines) == 5


@pytest.mark.parametrize("sizes,message", [
    ((40, 3, 3), "cannot draw 46 examples from a pool of 10"),
    ((4, 3, 3), "split left no test examples"),
], ids=["pool-too-small", "no-test-left"])
def test_experiment_on_an_impossible_split_exits_2(tmp_path, synth_files, capsys,
                                                   sizes, message):
    _, test_f = synth_files  # a pool of 10 complete pairs
    capsys.readouterr()
    rc = main(experiment_case(tmp_path, test_f, sizes))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: repeat 0: {message}"]


def test_theory_check_builtin(capsys):
    rc = main(["theory-check", "--trials", "25", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    assert "max_identity_residual=" in out


def test_theory_check_explicit_tables(tmp_path, capsys):
    real = tmp_path / "real.txt"
    np.savetxt(real, np.full((2, 2), 0.25))
    g1 = tmp_path / "g1.txt"
    np.savetxt(g1, np.array([[0.5, 0.0], [0.0, 0.5]]))
    g2 = tmp_path / "g2.txt"
    np.savetxt(g2, np.array([[0.0, 0.5], [0.5, 0.0]]))
    rc = main(["theory-check", "--p-real", str(real),
               "--pg1", str(g1), "--pg2", str(g2)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equilibrium_gap=" in out and "status=ok" in out


def test_theory_check_skips_cells_empty_on_both_sides(tmp_path, capsys):
    # the second column has no mass under the real joint or the mixture;
    # there the closed form reads 0.5 and the grid argmax 0
    tables = {"real": [[0.5, 0.0], [0.5, 0.0]], "g1": [[0.25, 0.0], [0.75, 0.0]],
              "g2": [[0.5, 0.0], [0.5, 0.0]]}
    for name, table in tables.items():
        np.savetxt(tmp_path / f"{name}.txt", np.array(table))
    rc = main(["theory-check", "--p-real", str(tmp_path / "real.txt"),
               "--pg1", str(tmp_path / "g1.txt"), "--pg2", str(tmp_path / "g2.txt")])
    out = capsys.readouterr().out
    assert rc == 0 and "status=ok" in out
    gap = float(out.split("brute_force_max_diff=")[1].split()[0])
    assert gap <= 1e-3


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--instances", "3", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_rel_error=" in out and "FAILED" not in out


def test_theory_check_rejects_a_column_against_rows(tmp_path, capsys):
    rc = main(theory_tables(tmp_path))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [cmd, flag, str(count)]
    for cmd, flag in (("gradcheck", "--instances"), ("theory-check", "--trials"))
    for count in (0, -3)
], ids=lambda argv: f"{argv[0]}{argv[2]}")
def test_oracle_commands_reject_an_empty_count(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert [line.startswith("error:") for line in captured.err.splitlines()] == [True]


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--instances", "1_0"],
    ["eval", "--checkpoint", "m.ckpt", "--data", "d.tsv", "--seed", "+1"],
    ["theory-check", "--trials", "\uff15"],
], ids=["digit-separator", "sign", "full-width-digit"])
def test_a_number_flag_keeps_the_number_rule(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"{argv[-2]}: invalid parse_int value: {argv[-1]!r}" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "iterations = 5\nunknown_key = 1\n"
                "minibatch_size = 2\n")
    rc = main(["train", "--config", cfg, "--data", "nope.tsv",
               "--out-checkpoint", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    rc = main(["train", "--config", cfg, "--data", str(tmp_path / "absent.tsv"),
               "--out-checkpoint", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------ bad inputs

def synth_text(**settings):
    """SYNTH_CFG with some of its settings replaced."""
    text = SYNTH_CFG
    for key, value in settings.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


def line_of(text, key):
    """The 1-based line of ``text`` that sets ``key``."""
    return 1 + [line.partition(" = ")[0] for line in text.splitlines()].index(key)


def synth_test_file(tmp_path, name, **settings):
    """The test file of SYNTH_CFG's task with some of its settings replaced."""
    test_f = str(tmp_path / f"{name}.tsv")
    assert main(["synth", "--config", write(tmp_path / f"{name}.cfg", synth_text(**settings)),
                 "--out-train", str(tmp_path / f"{name}-train.tsv"), "--out-test", test_f]) == 0
    return test_f


def synth_config_case(tmp_path, blame, **settings):
    """A synth run whose config replaces these settings and is at fault at key ``blame``."""
    text = synth_text(**settings)
    cfg = write(tmp_path / "bad.cfg", text)
    return (["synth", "--config", cfg, "--out-train", str(tmp_path / "x-train.tsv"),
             "--out-test", str(tmp_path / "x-test.tsv")],
            [f"{cfg}: line {line_of(text, blame)}:", f"key '{blame}'"])


def train_argv(tmp_path, train_f, ckpt="model.ckpt", *extra):
    return ["train", "--config", write(tmp_path / "train.cfg", TRAIN_CFG), "--data", train_f,
            "--out-checkpoint", str(tmp_path / ckpt), *extra]


def train_config_case(tmp_path, train_f, key, value):
    """A train run, with a metrics file, whose config sets ``key`` to ``value`` on its
    last line."""
    text = re.sub(rf"^{key} = .*\n", "", TRAIN_CFG, flags=re.M) + f"{key} = {value}\n"
    cfg = write(tmp_path / "bad.cfg", text)
    return (["train", "--config", cfg, "--data", train_f,
             "--out-checkpoint", str(tmp_path / "x.ckpt"),
             "--metrics", str(tmp_path / "metrics.csv")],
            [f"{cfg}: line {line_of(text, key)}:", f"key '{key}'"])


def heldout_case(tmp_path, train_f, test_f, want, **settings):
    other = synth_test_file(tmp_path, "other", **settings)
    return train_argv(tmp_path, train_f, "model.ckpt", "--heldout", other), [other, "(3, 3, 2)", want]


def eval_case(tmp_path, train_f, test_f, scenario, want, **settings):
    assert main(train_argv(tmp_path, train_f)) == 0
    other = synth_test_file(tmp_path, "other", **settings)
    return (["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", other,
             "--scenario", scenario], [other, "(3, 3, 2)", want])


# a data file of SYNTH_CFG's shapes with one row lacking each view and no complete pair
HALF_FILE = "#dims 3 3 2\n0\t-\t0:1.0\n1\t0:1.0\t-\n"


def empty_eval_case(tmp_path, train_f, text, scenario, want):
    """An eval of a trained checkpoint, in ``scenario``, on data file ``text``,
    none of whose rows that scenario can score."""
    assert main(train_argv(tmp_path, train_f)) == 0
    data = write(tmp_path / "few.tsv", text)
    return (["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", data,
             "--scenario", scenario], [data, f"scenario {scenario}", want])


def experiment_case(tmp_path, test_f, sizes, out="exp.csv", extra="", n_repeats=2):
    """argv of an experiment that splits the test file of SYNTH_CFG into these sizes;
    ``extra`` lines follow the config's eight, the last of which sets n_repeats."""
    m_full, m_missing1, m_missing2 = sizes
    cfg = write(tmp_path / "exp.cfg",
                f"data = {test_f}\nm_full = {m_full}\nm_missing1 = {m_missing1}\n"
                f"m_missing2 = {m_missing2}\niterations = 2\nminibatch_size = 2\n"
                f"hidden_dim = 4\nn_repeats = {n_repeats}\n" + extra)
    return ["experiment", "--config", cfg, "--out", str(tmp_path / out)]


def synth_experiment_case(tmp_path, text=re.sub(r"^seed = .*\n", "", SYNTH_CFG, flags=re.M)):
    """argv of one repeat of an experiment on a fresh draw of SYNTH_CFG's task; the
    config is ``text`` (by default SYNTH_CFG without its seed) and four lines of its own."""
    cfg = write(tmp_path / "synth-exp.cfg",
                text + "iterations = 2\nminibatch_size = 2\nhidden_dim = 4\nn_repeats = 1\n")
    return ["experiment", "--out", str(tmp_path / "exp.csv"), "--config", cfg]


def synth_experiment_config_case(tmp_path, blame, **settings):
    """One repeat of an experiment on SYNTH_CFG's task with these settings replaced,
    whose config is at fault at key ``blame``."""
    text = re.sub(r"^seed = .*\n", "", synth_text(**settings), flags=re.M)
    return (synth_experiment_case(tmp_path, text),
            [f"{tmp_path / 'synth-exp.cfg'}: line {line_of(text, blame)}:", f"key '{blame}'"])


def never_scored_case(tmp_path, train_f, test_f, eval_every_line):
    """A train run with held-out pairs whose config's eval_every line is
    ``eval_every_line``: one that sets 0, or none, which leaves the default of 0."""
    text = re.sub(r"^eval_every = .*\n", eval_every_line, TRAIN_CFG, flags=re.M)
    cfg = write(tmp_path / "bad.cfg", text)
    line = f"line {line_of(text, 'eval_every')}: " if eval_every_line else ""
    return (["train", "--config", cfg, "--data", train_f, "--out-checkpoint",
             str(tmp_path / "x.ckpt"), "--metrics", str(tmp_path / "metrics.csv"),
             "--heldout", test_f],
            [f"{cfg}: {line}key 'eval_every' must be at least 1 with --heldout, got 0"])


def experiment_key_case(tmp_path, test_f, key):
    """An experiment on the test file of SYNTH_CFG whose config sets ``key``, which a
    repeat would not use, on line 9."""
    return (experiment_case(tmp_path, test_f, (2, 2, 2), extra=f"{key} = 3\n"),
            [f"{tmp_path / 'exp.cfg'}: line 9: unknown key '{key}'"])


def theory_tables(tmp_path, real_rows=3):
    # a 3x1 real table and 1x3 generator tables are different joints
    np.savetxt(tmp_path / "real.txt", np.full((real_rows, 1), 1 / 3))
    for name in ("g1", "g2"):
        np.savetxt(tmp_path / f"{name}.txt", np.full((1, 3), 1 / 3))
    return ["theory-check", "--p-real", str(tmp_path / "real.txt"),
            "--pg1", str(tmp_path / "g1.txt"), "--pg2", str(tmp_path / "g2.txt")]


def bad_table_case(tmp_path, name="real", row="0.5 abc", want="'abc'"):
    """theory-check with a table file ``name``.txt whose first row, on line 2, is ``row``."""
    argv = theory_tables(tmp_path)
    write(tmp_path / f"{name}.txt", f"# {name}\n{row}\n")
    return argv, [f"{tmp_path / f'{name}.txt'}: line 2:", want]


def summed_table_case(tmp_path):
    """theory-check with a --p-real table that sums to 1.1: the sum is a plain float."""
    argv = theory_tables(tmp_path)
    write(tmp_path / "real.txt", "0.5 0.6\n")
    return argv, [f"error: {tmp_path / 'real.txt'}: table sums to 1.1, not 1"]


def ragged_table_case(tmp_path):
    """theory-check with a --p-real file whose second row, on line 2, is one value short."""
    argv = theory_tables(tmp_path)
    write(tmp_path / "real.txt", "0.5 0.25\n0.25\n")
    return argv, [f"{tmp_path / 'real.txt'}: line 2:",
                  "expected 2 values as on the first row, got 1"]


def tables_with_flag_case(tmp_path, flag, value):
    """theory-check on three equal tables, which pass, with a flag for random triples."""
    argv = theory_tables(tmp_path)
    np.savetxt(tmp_path / "real.txt", np.full((1, 3), 1 / 3))
    return argv + [flag, value], [f"{flag} does not apply to tables"]


def zero_subset_case(tmp_path, test_f, index):
    """An experiment whose config, on line index + 2, sets one subset size to 0."""
    sizes = [2, 2, 2]
    sizes[index] = 0
    key = ("m_full", "m_missing1", "m_missing2")[index]
    return (experiment_case(tmp_path, test_f, sizes),
            [f"{tmp_path / 'exp.cfg'}: line {index + 2}:", f"'{key}'", "'0'"])


def empty_subset_case(tmp_path):
    """A train run, with a metrics file, on data without rows missing view 1."""
    synth_test_file(tmp_path, "nomiss", m_missing1=0)
    return (train_argv(tmp_path, str(tmp_path / "nomiss-train.tsv"), "model.ckpt",
                       "--metrics", str(tmp_path / "metrics.csv")), ["s_missing1 is empty"])


def latin1_config_case(tmp_path, train_f):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes((TRAIN_CFG + "# caf\u00e9\n").encode("latin-1"))
    line = len(TRAIN_CFG.splitlines()) + 1
    return (["train", "--config", str(cfg), "--data", train_f,
             "--out-checkpoint", str(tmp_path / "x.ckpt")], [f"{cfg}: line {line}:", "utf-8"])


def eval_seed_case(tmp_path, train_f, test_f):
    """An eval of a trained checkpoint with a negative --seed."""
    assert main(train_argv(tmp_path, train_f)) == 0
    return (["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", test_f,
             "--seed", "-1"], ["--seed must be at least 0, got -1"])


def damaged_checkpoint_case(tmp_path, train_f, test_f, lineno, text, want):
    """An eval of a trained checkpoint whose line ``lineno`` reads ``text``."""
    assert main(train_argv(tmp_path, train_f)) == 0
    ckpt = tmp_path / "model.ckpt"
    lines = ckpt.read_text().splitlines()
    lines[lineno - 1] = text
    write(ckpt, "\n".join(lines) + "\n")
    return (["eval", "--checkpoint", str(ckpt), "--data", test_f],
            [f"{ckpt}: line {lineno}:", want])


# Each case builds its files in (tmp_path, train file, test file of SYNTH_CFG)
# and returns the argv and the fragments its one error line must contain.
BAD_INPUTS = {
    "heldout-view-width": lambda t, tr, te: heldout_case(t, tr, te, "(4, 3, 2)", d1=4),
    "heldout-classes": lambda t, tr, te: heldout_case(t, tr, te, "(3, 3, 3)", num_classes=3),
    "eval-classes": lambda t, tr, te: eval_case(t, tr, te, "complete", "(3, 3, 3)",
                                                num_classes=3),
    "eval-generated-view-width": lambda t, tr, te: eval_case(t, tr, te, "view1-generated",
                                                             "(4, 3, 2)", d1=4),
    "train-output-dir": lambda t, tr, te: (
        train_argv(t, tr, "nodir/m.ckpt"),
        [str(t / "nodir" / "m.ckpt") + ":", "not a writable directory"]),
    "experiment-output-dir": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), "nodir/o.csv"),
        [str(t / "nodir" / "o.csv") + ":", "not a writable directory"]),
    "unknown-config-key": lambda t, tr, te: (
        ["train", "--config", write(t / "bad.cfg", "iterations = 5\nunknown_key = 1\n"
                                    "minibatch_size = 2\n"),
         "--data", tr, "--out-checkpoint", str(t / "x.ckpt")], ["unknown_key"]),
    "missing-data-file": lambda t, tr, te: (
        train_argv(t, str(t / "absent.tsv")), [str(t / "absent.tsv")]),
    "theory-table-shapes": lambda t, tr, te: (theory_tables(t), []),
    "theory-table-empty": lambda t, tr, te: (
        theory_tables(t, real_rows=0), [str(t / "real.txt") + ": table must be a nonempty"]),
    "theory-check-some-tables": lambda t, tr, te: (
        theory_tables(t)[:3], ["provide all three of --p-real, --pg1, --pg2 or none"]),
    "train-output-is-a-directory": lambda t, tr, te: (
        (t / "ckdir").mkdir() or train_argv(t, tr, "ckdir"),
        [str(t / "ckdir"), "is a directory"]),
    "heldout-no-complete-pairs": lambda t, tr, te: (
        train_argv(t, tr, "model.ckpt", "--heldout",
                   write(t / "half.tsv", HALF_FILE)),
        [str(t / "half.tsv"), "no complete pairs"]),
    "empty-subset": lambda t, tr, te: empty_subset_case(t),
    "eval-no-complete-pairs": lambda t, tr, te: empty_eval_case(
        t, tr, HALF_FILE, "complete", "has no complete pairs"),
    "eval-generated-nothing-observes-view2": lambda t, tr, te: empty_eval_case(
        t, tr, "#dims 3 3 2\n1\t0:1.0\t-\n", "view1-generated",
        "has no rows that observe view 2"),
    "experiment-no-complete-pairs": lambda t, tr, te: (
        experiment_case(t, write(t / "half.tsv", HALF_FILE), (2, 2, 2)),
        [f"error: {t / 'half.tsv'} has no complete pairs"]),
    "experiment-unknown-scenario": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), extra="scenario = bogus\n"),
        [f"{t / 'exp.cfg'}: line 9:", "'scenario'", "'bogus'",
         "one of complete, view1-generated, view2-generated"]),
    "data-not-ascii": lambda t, tr, te: (
        train_argv(t, write(t / "utf8.tsv", "#dims 3 3 2\n0\t0:1.0\t0:1.0\n1\t0:\u00e9\t-\n"),
                   "model.ckpt", "--metrics", str(t / "metrics.csv")),
        [f"{t / 'utf8.tsv'}: line 3:", "ascii"]),
    "config-not-utf8": lambda t, tr, te: latin1_config_case(t, tr),
    "checkpoint-not-ascii": lambda t, tr, te: damaged_checkpoint_case(
        t, tr, te, 5, "step \u00e9", "ascii"),
    # line 7 is the first weight row of gen1
    "checkpoint-line": lambda t, tr, te: damaged_checkpoint_case(
        t, tr, te, 7, "abc", "expected 6 values, got 1"),
    "data-line": lambda t, tr, te: (
        train_argv(t, write(t / "bad.tsv", "#dims 3 3 2\n0\tx\t0:1.0\n")),
        [f"{t / 'bad.tsv'}: line 2:", "malformed pair 'x'"]),
    "config-line": lambda t, tr, te: (
        ["train", "--config", write(t / "bad.cfg", "iterations = 6\nno separator\n"),
         "--data", tr, "--out-checkpoint", str(t / "x.ckpt")],
        [f"{t / 'bad.cfg'}: line 2:", "expected 'key = value'"]),
    "theory-table-line": lambda t, tr, te: bad_table_case(t),
    "theory-table-nan": lambda t, tr, te: bad_table_case(
        t, "g1", "0.5 nan", "non-finite number 'nan'"),
    "theory-table-negative": lambda t, tr, te: bad_table_case(
        t, "g2", "0.75 -0.25", "table entries must be finite and nonnegative"),
    # a table entry keeps the number rule of data files: no "_", no leading "+"
    "theory-table-digit-separator": lambda t, tr, te: bad_table_case(
        t, "real", "0.2_5 0.25 0.5", "malformed number '0.2_5'"),
    "theory-table-sign": lambda t, tr, te: bad_table_case(
        t, "g2", "+0.5 0.25 0.25", "malformed number '+0.5'"),
    "theory-table-sum": lambda t, tr, te: summed_table_case(t),
    "theory-table-ragged-row": lambda t, tr, te: ragged_table_case(t),
    "experiment-zero-m_full": lambda t, tr, te: zero_subset_case(t, te, 0),
    "experiment-zero-m_missing1": lambda t, tr, te: zero_subset_case(t, te, 1),
    "experiment-zero-m_missing2": lambda t, tr, te: zero_subset_case(t, te, 2),
    "experiment-pool-too-small": lambda t, tr, te: (
        experiment_case(t, te, (40, 3, 3)), ["cannot draw 46 examples from a pool of 10"]),
    "experiment-no-test-left": lambda t, tr, te: (
        experiment_case(t, te, (4, 3, 3)), ["split left no test examples"]),
    "gradcheck-no-instances": lambda t, tr, te: (["gradcheck", "--instances", "0"], []),
    "theory-check-no-trials": lambda t, tr, te: (["theory-check", "--trials", "0"], []),
    "fm-weight-nan": lambda t, tr, te: train_config_case(t, tr, "fm_weight", "nan"),
    "fm-weight-inf": lambda t, tr, te: train_config_case(t, tr, "fm_weight", "inf"),
    "alpha-inf": lambda t, tr, te: train_config_case(t, tr, "alpha", "inf"),
    "epsilon-inf": lambda t, tr, te: train_config_case(t, tr, "epsilon", "inf"),
    "beta1-one": lambda t, tr, te: train_config_case(t, tr, "beta1", "1.0"),
    "eval-every-negative": lambda t, tr, te: train_config_case(t, tr, "eval_every", "-1"),
    "heldout-never-scored": lambda t, tr, te: never_scored_case(t, tr, te, "eval_every = 0\n"),
    "heldout-never-scored-by-default": lambda t, tr, te: never_scored_case(t, tr, te, ""),
    "minibatch-size-zero": lambda t, tr, te: train_config_case(t, tr, "minibatch_size", "0"),
    "alpha-negative": lambda t, tr, te: train_config_case(t, tr, "alpha", "-1"),
    "hidden-dim-zero": lambda t, tr, te: train_config_case(t, tr, "hidden_dim", "0"),
    "train-seed-negative": lambda t, tr, te: train_config_case(t, tr, "seed", "-1"),
    "synth-subset-negative": lambda t, tr, te: synth_config_case(t, "m_missing1", m_missing1=-1),
    "synth-noise-zero": lambda t, tr, te: synth_config_case(t, "noise_sigma", noise_sigma=0),
    "synth-view-narrower-than-classes": lambda t, tr, te: synth_config_case(
        t, "d1", d1=2, num_classes=3),
    "synth-no-classes": lambda t, tr, te: synth_config_case(t, "num_classes", num_classes=0),
    "synth-seed-negative": lambda t, tr, te: synth_config_case(t, "seed", seed=-1),
    # a config number is finite and keeps the number rule of data files
    "synth-noise-inf": lambda t, tr, te: synth_config_case(t, "noise_sigma", noise_sigma="inf"),
    "synth-mean-scale-nan": lambda t, tr, te: synth_config_case(
        t, "mean_scale_view1", mean_scale_view1="nan"),
    "experiment-noise-overflows": lambda t, tr, te: synth_experiment_config_case(
        t, "noise_sigma", noise_sigma="1e999"),
    "synth-size-digit-separator": lambda t, tr, te: synth_config_case(t, "m_full", m_full="1_0"),
    "synth-seed-signed": lambda t, tr, te: synth_config_case(t, "seed", seed="+0_0"),
    "train-iterations-full-width-digit": lambda t, tr, te: train_config_case(
        t, tr, "iterations", "\uff15"),
    "experiment-master-seed-negative": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), extra="master_seed = -3\n"),
        [f"{t / 'exp.cfg'}: line 9:", "key 'master_seed'"]),
    "experiment-no-repeats": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), n_repeats=0),
        [f"{t / 'exp.cfg'}: line 8:", "key 'n_repeats'"]),
    "eval-seed-negative": lambda t, tr, te: eval_seed_case(t, tr, te),
    "theory-check-seed-negative": lambda t, tr, te: (
        ["theory-check", "--trials", "2", "--seed", "-1"], ["--seed must be at least 0, got -1"]),
    "gradcheck-seed-negative": lambda t, tr, te: (
        ["gradcheck", "--instances", "1", "--seed", "-1"], ["--seed must be at least 0, got -1"]),
    "experiment-seed-key": lambda t, tr, te: experiment_key_case(t, te, "seed"),
    "experiment-eval-every-key": lambda t, tr, te: experiment_key_case(t, te, "eval_every"),
    "experiment-checkpoint-every-key": lambda t, tr, te: experiment_key_case(
        t, te, "checkpoint_every"),
    "experiment-synthetic-seed-key": lambda t, tr, te: (
        synth_experiment_case(t, SYNTH_CFG),
        [f"{t / 'synth-exp.cfg'}: line {line_of(SYNTH_CFG, 'seed')}: unknown key 'seed'"]),
    "theory-check-tables-with-trials": lambda t, tr, te: tables_with_flag_case(t, "--trials", "5"),
    "theory-check-tables-with-seed": lambda t, tr, te: tables_with_flag_case(t, "--seed", "3"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line_before_any_work(case, tmp_path, synth_files,
                                                               capsys, monkeypatch):
    argv, fragments = BAD_INPUTS[case](tmp_path, *synth_files)
    work = []
    original_sample, original_evaluate = train_mod.sample_minibatch, cli_mod.evaluate
    monkeypatch.setattr(train_mod, "sample_minibatch",
                        lambda *a: work.append("step") or original_sample(*a))
    monkeypatch.setattr(cli_mod, "evaluate",
                        lambda *a, **k: work.append("eval") or original_evaluate(*a, **k))
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err
    assert work == []
    assert not (tmp_path / "metrics.csv").exists()


def snapshot(directory):
    """{path: bytes} of every file under ``directory``."""
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def linked_checkpoint_case(tmp_path, train_f):
    (tmp_path / "link.tsv").symlink_to(train_f)
    return (train_argv(tmp_path, train_f, "link.tsv"),
            [f"--data and --out-checkpoint both name the file {tmp_path / 'link.tsv'}"])


def synth_argv(tmp_path, out_train, out_test):
    return ["synth", "--config", str(tmp_path / "synth.cfg"), "--out-train", out_train,
            "--out-test", out_test]


# Each case builds its files in (tmp_path, train file, test file of SYNTH_CFG) and
# returns an argv with an output that names another output or an input, or that
# cannot be written, and the fragments its one error line must contain.
OUTPUT_CLASHES = {
    "synth-train-is-test": lambda t, tr, te: (
        synth_argv(t, str(t / "a.tsv"), str(t / "a.tsv")),
        [f"--out-train and --out-test both name the file {t / 'a.tsv'}"]),
    "synth-test-is-train-spelled-apart": lambda t, tr, te: (
        synth_argv(t, str(t / "a.tsv"), f"{t}/./a.tsv"),
        ["--out-train and --out-test both name the file"]),
    "synth-test-is-config": lambda t, tr, te: (
        synth_argv(t, str(t / "a.tsv"), str(t / "synth.cfg")),
        ["--config and --out-test both name the file"]),
    "synth-config-is-train-sidecar": lambda t, tr, te: (
        ["synth", "--config", write(t / "a.tsv.arrays", SYNTH_CFG), "--out-train",
         str(t / "a.tsv"), "--out-test", str(t / "b.tsv")],
        [f"--config and the sidecar of --out-train both name the file {t / 'a.tsv.arrays'}"]),
    "synth-test-is-train-sidecar": lambda t, tr, te: (
        synth_argv(t, str(t / "a.tsv"), str(t / "a.tsv.arrays")),
        [f"the sidecar of --out-train and --out-test both name the file {t / 'a.tsv.arrays'}"]),
    "synth-test-dir-missing": lambda t, tr, te: (
        synth_argv(t, str(t / "a.tsv"), str(t / "nodir" / "b.tsv")),
        [str(t / "nodir" / "b.tsv") + ":", "not a writable directory"]),
    "train-checkpoint-is-data": lambda t, tr, te: (
        train_argv(t, tr, "train.tsv"), [f"--data and --out-checkpoint both name the file {tr}"]),
    "train-checkpoint-links-to-data": lambda t, tr, te: linked_checkpoint_case(t, tr),
    "train-checkpoint-is-data-sidecar": lambda t, tr, te: (
        train_argv(t, tr, "train.tsv.arrays"),
        [f"the sidecar of --data and --out-checkpoint both name the file {tr}.arrays"]),
    "train-metrics-is-heldout-sidecar": lambda t, tr, te: (
        train_argv(t, tr, "model.ckpt", "--heldout", te, "--metrics", f"{te}.arrays"),
        [f"the sidecar of --heldout and --metrics both name the file {te}.arrays"]),
    "train-metrics-is-heldout": lambda t, tr, te: (
        train_argv(t, tr, "model.ckpt", "--heldout", te, "--metrics", te),
        [f"--heldout and --metrics both name the file {te}"]),
    "train-metrics-is-config": lambda t, tr, te: (
        train_argv(t, tr, "model.ckpt", "--metrics", str(t / "train.cfg")),
        ["--config and --metrics both name the file"]),
    "train-metrics-is-checkpoint": lambda t, tr, te: (
        train_argv(t, tr, "model.ckpt", "--metrics", str(t / "model.ckpt")),
        ["--out-checkpoint and --metrics both name the file"]),
    "train-metrics-dir-missing": lambda t, tr, te: (
        train_argv(t, tr, "model.ckpt", "--metrics", str(t / "nodir" / "m.csv")),
        [str(t / "nodir" / "m.csv") + ":", "not a writable directory"]),
    "experiment-out-is-config": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), "exp.cfg"),
        ["--config and --out both name the file"]),
    "experiment-out-is-data": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), "test.tsv"),
        [f"key 'data' of {t / 'exp.cfg'} and --out both name the file {te}"]),
    "experiment-out-is-data-sidecar": lambda t, tr, te: (
        experiment_case(t, te, (2, 2, 2), "test.tsv.arrays"),
        [f"the sidecar of key 'data' of {t / 'exp.cfg'} and --out both name the file"]),
}


@pytest.mark.parametrize("case", OUTPUT_CLASHES)
def test_an_output_that_clashes_or_cannot_be_written_leaves_every_file_alone(case, tmp_path,
                                                                           synth_files, capsys):
    argv, fragments = OUTPUT_CLASHES[case](tmp_path, *synth_files)
    before = snapshot(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    for fragment in fragments:
        assert fragment in err
    assert snapshot(tmp_path) == before


def readme_config_tables():
    """{command: {key: default cell}} from the tables under README.md's "Config keys"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Config keys\n", 1)[1].split("\n## ", 1)[0]
    tables, table = {}, None
    for line in section.splitlines():
        heading = re.fullmatch(r"`viewgan (\w+)`:", line)
        row = re.fullmatch(r"\| `(\w+)` \| ([^|]+) \|.*", line)
        if heading:
            table = tables.setdefault(heading[1], {})
        elif row:
            table[row[1]] = row[2].strip()
    return tables


def test_readme_config_tables_list_exactly_the_keys_each_command_reads(tmp_path, monkeypatch):
    asked, read = {}, {}
    original = ConfigMap._pop

    def pop(self, key, default):
        asked[key] = default
        return original(self, key, default)

    monkeypatch.setattr(ConfigMap, "_pop", pop)

    def run(command, argv):
        asked.clear()
        assert main(argv) == 0
        read.setdefault(command, {}).update(asked)

    train_f, test_f = str(tmp_path / "train.tsv"), str(tmp_path / "test.tsv")
    run("synth", ["synth", "--config", write(tmp_path / "synth.cfg", SYNTH_CFG),
                  "--out-train", train_f, "--out-test", test_f])
    run("train", train_argv(tmp_path, train_f))
    run("experiment", experiment_case(tmp_path, test_f, (2, 2, 2)))
    run("experiment", synth_experiment_case(tmp_path))
    tables = readme_config_tables()
    assert set(tables) == set(read) == {"synth", "train", "experiment"}
    for command, keys in read.items():
        assert set(tables[command]) == set(keys), command
        for key, default in keys.items():
            cell = tables[command][key]
            assert cell == f"`{default}`" if default is not None else not cell.startswith("`"), \
                (command, key, cell)


def test_python_dash_m_runs_the_cli():
    src = Path(viewgan.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "viewgan", "gradcheck", "--instances", "1"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6 and all(line.endswith(" ok") for line in lines), run.stdout
