"""Smoke tests: every workload runs at toy sizes and reports every metric."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bw.WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(workload, trace, tmp_path):
    record = bw.execute(workload, None, 0.0, trace, "toy", tmp_path)
    expected = bw.PER_LAYER if trace else bw.END_TO_END
    assert list(record["metrics"]) == list(expected)
    for name, entry in record["metrics"].items():
        assert entry["unit"] == expected[name]
        assert math.isfinite(entry["value"]), name
    assert record["checks"] and all(ok for _, ok in record["checks"]), record["checks"]
    if trace:
        assert ("traced_digest_matches", True) in record["checks"]
        assert (tmp_path / f"spans-{workload}.npz").is_file()


def test_training_step_counts_match_the_sequential_update(tmp_path):
    record = bw.execute("train-accept", 3, 0.0, True, "toy", tmp_path)
    metrics = record["metrics"]
    assert metrics["nn.forward_calls_per_step"]["value"] == 13.0
    assert metrics["nn.backward_calls_per_step"]["value"] == 9.0


def test_best_laps_takes_each_lap_at_its_fastest():
    # train-accept's stamps: train() enters (0) and exits (1); a step is
    # cut at each sample_minibatch entry (2) and exit (3)
    labels = bytes([0, 2, 3, 2, 3, 1])
    slow = bw.Timing(0.0, 0.0, labels, np.array([5, 1, 9, 4, 3, 8, 7]))
    fast = bw.Timing(0.0, 0.0, labels, np.array([6, 2, 8, 6, 4, 9, 1]))
    best = bw.best_laps(bw.FastestLaps([slow, fast]), 2 * len(bw.TrainAccept.LAPS))
    # positions 2 and 4 are the same lap one step apart, so both take 3
    assert best.tolist() == [5, 1, 3, 4, 3, 8, 1]
    assert bw.train_ns(bw.TrainAccept, labels, best) == 1 + 3 + 4 + 3 + 8
    other = bw.Timing(0.0, 0.0, bytes([0, 1]), np.array([1, 2, 3]))
    assert bw.best_laps(bw.FastestLaps([slow, other]), 2) is None
    # two train() calls: a step of the second is not compared with the first's
    twice = bw.Timing(0.0, 0.0, bytes([0, 2, 3, 1, 0, 2, 3, 2, 3, 1]),
                      np.array([1, 1, 1, 1, 1, 1, 9, 5, 7, 1, 1]))
    assert bw.best_laps(bw.FastestLaps([twice]), 2).tolist() == [1, 1, 1, 1, 1, 1, 7, 5, 7, 1, 1]


def test_best_laps_compares_instances_within_a_gradcheck_family():
    # verify-oracles' stamps: check_family enters (0) and exits (1);
    # finite_difference enters (6) and exits (7) once per instance; the
    # loss closure's forward enters (8) and exits (9) once per evaluation
    labels = bytes([0, 6, 8, 9, 7, 6, 8, 9, 7, 1, 0, 6, 8, 9, 7, 1])
    laps = np.array([1, 2, 5, 9, 4, 3, 6, 7, 8, 1, 1, 1, 1, 1, 1, 1, 1])
    best = bw.best_laps(bw.FastestLaps([bw.Timing(0.0, 0.0, labels, laps)]),
                        2 * len(bw.VerifyOracles.LAPS))
    # the two instances of the first family share their shortest laps; the
    # second family's faster laps are not compared with the first's
    assert best.tolist() == [1, 2, 5, 7, 4, 3, 5, 7, 4, 1, 1, 1, 1, 1, 1, 1, 1]
    assert bw.VerifyOracles.LAPS[0] == ("viewgan.gradcheck", "check_family")
    assert bw.VerifyOracles.LOOP[:2] == (("viewgan.gradcheck", "finite_difference"),
                                         ("viewgan.gradcheck", "forward"))


def test_best_laps_compares_rows_within_a_file_load():
    # cli-files' stamps: a load_multiview_file call enters (2) and exits (3);
    # one_hot (14, 15) is called once per row
    labels = bytes([2, 14, 15, 14, 15, 3, 2, 14, 15, 3])
    laps = np.array([1, 4, 3, 6, 2, 5, 1, 1, 1, 1, 1])
    loop = 2 * bw.CliFiles.LOOP.index(("viewgan.data", "one_hot")) + 2 * len(bw.CliFiles.LAPS)
    assert loop == 14
    best = bw.best_laps(bw.FastestLaps([bw.Timing(0.0, 0.0, labels, laps)]),
                        2 * len(bw.CliFiles.LAPS))
    # the two rows of the first load share their shortest row lap (2), not the
    # second load's (1)
    assert best.tolist() == [1, 4, 2, 6, 2, 5, 1, 1, 1, 1, 1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(bw.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bw.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bw.PER_LAYER


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_last_line_is_the_result_object():
    out = _run(ROOT, "--workload", "verify-oracles", "--seed", "1", "--seconds", "0",
               "--trace", "0", "--size", "toy")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bw.END_TO_END)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "train-accept", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
