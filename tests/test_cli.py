"""End-to-end tests of the command line interface."""

import sys

import numpy as np
import pytest

from viewgan.cli import main

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


def test_synth_prints_bayes(capsys, synth_files):
    # capsys comes first, so it captures what the fixture's synth run printed
    bayes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("bayes_accuracy=")]
    assert len(bayes) == 1
    assert 1 / 2 <= float(bayes[0].split("=", 1)[1]) <= 1  # K = 2
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
    m_full, m_missing1, m_missing2 = sizes
    cfg = write(tmp_path / "exp.cfg",
                f"data = {test_f}\nm_full = {m_full}\nm_missing1 = {m_missing1}\n"
                f"m_missing2 = {m_missing2}\niterations = 2\nminibatch_size = 2\n"
                "hidden_dim = 4\nn_repeats = 2\n")
    capsys.readouterr()
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "exp.csv")])
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
    # a 3x1 real table and 1x3 generator tables are different joints
    np.savetxt(tmp_path / "real.txt", np.full((3, 1), 1 / 3))
    for name in ("g1", "g2"):
        np.savetxt(tmp_path / f"{name}.txt", np.full((1, 3), 1 / 3))
    rc = main(["theory-check", "--p-real", str(tmp_path / "real.txt"),
               "--pg1", str(tmp_path / "g1.txt"), "--pg2", str(tmp_path / "g2.txt")])
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
