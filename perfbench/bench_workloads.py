"""The benchmark's workloads, the metrics they report, and the run harness.

Each workload drives public viewgan functions from this one process, one
call after another (a closed loop with a single caller). A workload has a
set-up step (input generation, model init, or ``viewgan synth``), a timed
section ("unit") that is repeated on the same inputs, and a scoring step
that runs the correctness checks and digests the outputs after the clock
has stopped. See README.md for why each workload exists, why its unit has
the size it has, and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import os
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from bench_trace import Tracer

V = {name: importlib.import_module(f"viewgan.{name}")
     for name in ("nn", "train", "model", "data", "evaluate", "theory", "gradcheck", "cli")}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ungated_accuracy": "fraction",
}

GRADCHECK_FAMILIES = V["gradcheck"].FAMILIES

PER_LAYER = {
    "nn.forward_calls_per_step": "count/step",
    "nn.backward_calls_per_step": "count/step",
    "nn.forward_calls": "count",
    "nn.forward_us.disc": "us",
    "nn.forward_us.gen": "us",
    "nn.backward_us.disc": "us",
    "nn.backward_us.gen": "us",
    "nn.adam_step_us.disc": "us",
    "nn.adam_step_us.gen1": "us",
    "nn.adam_step_us.gen2": "us",
    "train.step_us.p50": "us",
    "train.step_us.p99": "us",
    "train.sample_minibatch_us": "us",
    "train.loss_discriminator_us": "us",
    "train.loss_generator_us.g1": "us",
    "train.loss_generator_us.g2": "us",
    "train.feature_matching_us": "us",
    "model.discriminate_us": "us",
    "model.generate_us": "us",
    "model.save_checkpoint_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "model.checkpoint_bytes": "bytes",
    "data.generate_synthetic_ms": "ms",
    "data.save_multiview_file_ms": "ms",
    "data.load_multiview_file_ms": "ms",
    "data.file_bytes": "bytes",
    "evaluate.train_s": "s",
    "evaluate.baseline_s": "s",
    "evaluate.evaluate_ms": "ms",
    "evaluate.concurrency": "ratio",
    "evaluate.accuracy": "fraction",
    "evaluate.fake_rate": "fraction",
    "theory.check_theorem_us": "us",
    "theory.brute_force_ms": "ms",
    **{f"gradcheck.family_s.{f}": "s" for f in GRADCHECK_FAMILIES},
    "cli.main_ms.synth": "ms",
    "cli.main_ms.train": "ms",
    "cli.main_ms.eval": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem sizes of one unit.

    ``bench`` is what the benchmark times: the acceptance task and shapes,
    with units short enough that a run holds several of them. ``accept``
    is the acceptance configuration itself (2000 steps, 100 gradcheck
    instances), run once to reproduce the acceptance numbers. ``toy`` is
    for the smoke tests.
    """

    m_full: int
    m_missing: int
    m_test: int
    iterations: int
    hidden: int
    minibatch: int
    gradcheck_instances: int
    brute_force_triples: int
    theorem_triples: int
    cli_m_full: int
    cli_m_missing: int
    cli_m_test: int
    cli_iterations: int
    cli_eval_every: int
    cli_checkpoint_every: int


SIZES = {
    "bench": Size(m_full=50, m_missing=500, m_test=1000, iterations=500, hidden=200,
                  minibatch=32, gradcheck_instances=25,
                  brute_force_triples=25, theorem_triples=250,
                  cli_m_full=1000, cli_m_missing=4500, cli_m_test=5000,
                  cli_iterations=300, cli_eval_every=25, cli_checkpoint_every=50),
    "accept": Size(m_full=50, m_missing=500, m_test=1000, iterations=2000, hidden=200,
                   minibatch=32, gradcheck_instances=100,
                   brute_force_triples=100, theorem_triples=1000,
                   cli_m_full=1000, cli_m_missing=4500, cli_m_test=5000,
                   cli_iterations=300, cli_eval_every=25, cli_checkpoint_every=50),
    "toy": Size(m_full=10, m_missing=20, m_test=30, iterations=6, hidden=8,
                minibatch=4, gradcheck_instances=1,
                brute_force_triples=3, theorem_triples=10,
                cli_m_full=10, cli_m_missing=20, cli_m_test=20,
                cli_iterations=6, cli_eval_every=2, cli_checkpoint_every=3),
}


def acceptance_task(size: Size, seed: int):
    """The end-to-end acceptance task: K=3, 20+20 dims, view 1 carries more signal."""
    return V["data"].SyntheticSpec(
        num_classes=3, d1=20, d2=20,
        means_view1=V["data"].block_class_means(3, 20, 1.6),
        means_view2=V["data"].block_class_means(3, 20, 0.8),
        noise_sigma=1.0, view_correlation=0.0,
        m_full=size.m_full, m_missing1=size.m_missing, m_missing2=size.m_missing,
        m_test=size.m_test, seed=seed)


def acceptance_train_config(size: Size, seed: int = 0):
    return V["train"].TrainConfig(iterations=size.iterations, minibatch_size=size.minibatch,
                                  alpha=1e-4, beta1=0.5, beta2=0.999, epsilon=1e-8,
                                  fm_weight=1.0, seed=seed)


# ----------------------------------------------------------------- helpers

@contextlib.contextmanager
def patched(module, name, replacement):
    """Rebind ``module.name`` for the duration of the block."""
    saved = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, saved)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child.

    viewgan starts no child processes today, so the second term is 0 until
    a change runs work in worker processes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def model_bytes(model) -> bytes:
    return b"".join(p.tobytes() for net in (model.gen1, model.gen2, model.disc)
                    for p in net.params())


def ungated_accuracy(model, examples) -> float:
    """Argmax over the K class outputs on complete pairs, ignoring the fake output."""
    x1 = np.stack([ex.view1 for ex in examples])
    x2 = np.stack([ex.view2 for ex in examples])
    y = np.array([int(np.argmax(ex.label)) for ex in examples])
    probs = V["model"].discriminate(model, x1, x2)
    return float(np.mean(np.argmax(probs[:, :-1], axis=1) == y))


def losses_finite(rows) -> bool:
    return bool(rows) and all(math.isfinite(v) for row in rows for v in row[1:4])


def checkpoint_round_trip(model, path) -> bool:
    """load_checkpoint(save_checkpoint(m)) returns m's parameters bit for bit."""
    V["model"].save_checkpoint(path, model, 0, 0)
    loaded, _, _ = V["model"].load_checkpoint(path)
    return model_bytes(loaded) == model_bytes(model)


@dataclasses.dataclass
class Outcome:
    """What one unit of a workload produced, once scored."""

    steps: int            # train() iterations, or oracle instances on verify-oracles
    ungated_accuracy: float
    accuracy: float
    fake_rate: float
    checks: list          # (name, passed) pairs
    digest: str
    file_bytes: dict = dataclasses.field(default_factory=dict)  # layer metric -> bytes


@dataclasses.dataclass
class Timing:
    """How long one unit took, split into laps at the lap clock's stamps."""

    wall_s: float
    cpu_s: float
    labels: bytes         # the stamps' labels, in order
    laps_ns: np.ndarray   # one more lap than stamps


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class LapClock:
    """Stamps the entry and exit of a few viewgan functions.

    Each hook is rebound only in the namespace named, where its caller
    looks it up; a stamp is one clock read and two appends. The stamps cut
    a unit into laps: a training step, a row of a data file, one loss
    evaluation of a finite difference. The program is not modified, and
    leaving the ``with`` block puts every binding back. A hook's entry
    stamp has label ``2*i`` and its exit stamp ``2*i + 1``.
    """

    def __init__(self, hooks):
        self.hooks = hooks
        self.labels = bytearray()
        self.times = array("q")
        self._saved: list[tuple] = []

    def __enter__(self):
        for i, (mod_name, fn_name) in enumerate(self.hooks):
            module = importlib.import_module(mod_name)
            fn = getattr(module, fn_name)
            self._saved.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(fn, 2 * i))
        return self

    def __exit__(self, *exc):
        for module, fn_name, fn in reversed(self._saved):
            setattr(module, fn_name, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, label: int):
        labels, times, clock = self.labels, self.times, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            labels.append(label)
            times.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                labels.append(label + 1)
                times.append(clock())

        return wrapper


# --------------------------------------------------------------- workloads

class Workload:
    """Base: ``setup`` makes inputs, ``prepare`` copies what a unit mutates,
    ``run`` is the timed unit, and ``score`` turns its raw result into an
    Outcome after the clock has stopped.

    ``LAPS`` and ``LOOP`` are the lap clock's hooks (module, function).
    ``LOOP`` hooks are called once per iteration of a loop (a training
    step, a gradcheck instance or loss evaluation), so the laps between two
    of them inside one ``LAPS`` call are alike from one iteration to the
    next (see ``best_laps``). ``SETUP_LAPS`` and ``SETUP_LOOP`` cut the
    set-up into laps the same way. ``TRAIN``, one of ``LAPS``, is the hook that enters
    ``train()``, if the workload trains.
    """

    name = ""
    default_seed = 0
    LAPS: tuple = ()
    LOOP: tuple = ()
    SETUP_LAPS: tuple = ()
    SETUP_LOOP: tuple = ()
    TRAIN = None

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.setup_checks: list = []

    def setup(self):
        raise NotImplementedError

    def prepare(self, inputs):
        return inputs

    def run(self, state):
        raise NotImplementedError

    def score(self, state, raw) -> Outcome:
        raise NotImplementedError


class TrainAccept(Workload):
    name = "train-accept"
    default_seed = 7
    TRAIN = ("viewgan.train", "train")
    LAPS = (TRAIN,)
    LOOP = (("viewgan.train", "sample_minibatch"),)
    SETUP_LAPS = (("viewgan.data", "generate_synthetic"), ("viewgan.model", "new_model"))

    # seeds 7 -> data 7, init 77, train 770, eval 7700, as in the acceptance test
    def setup(self):
        s = self.seed
        dataset, test, _ = V["data"].generate_synthetic(acceptance_task(self.size, s))
        model = V["model"].new_model(20, 20, 3, np.random.default_rng(11 * s), self.size.hidden)
        return dataset, test, model

    def prepare(self, inputs):
        dataset, test, model = inputs
        return dataset, test, model.copy()

    def run(self, state):
        dataset, test, model = state
        config = acceptance_train_config(self.size, 110 * self.seed)
        _, rows = V["train"].train(model, dataset, config)
        report = V["evaluate"].evaluate(model, test, V["evaluate"].Scenario.VIEW1_GENERATED,
                                        seed=1100 * self.seed)
        return rows, report

    def score(self, state, raw):
        _, test, model = state
        rows, report = raw
        checks = [("train.losses_finite", losses_finite(rows)),
                  ("model.checkpoint_round_trip",
                   checkpoint_round_trip(model, self.workdir / "round_trip.ckpt"))]
        return Outcome(len(rows), ungated_accuracy(model, test),
                       report.accuracy, report.fake_rate, checks,
                       digest(model_bytes(model), rows, dataclasses.astuple(report)))


class ExperimentAccept(Workload):
    name = "experiment-accept"
    default_seed = 2024
    TRAIN = ("viewgan.evaluate", "train")
    LAPS = (TRAIN, ("viewgan.evaluate", "generate_synthetic"), ("viewgan.evaluate", "evaluate"),
            ("viewgan.evaluate", "train_singleview_baseline"))
    LOOP = (("viewgan.train", "sample_minibatch"), ("viewgan.evaluate", "adam_step"))

    def n_repeats(self) -> int:
        """One repeat per usable CPU, clamped to 2..4 so a unit fits a run on any host."""
        return max(2, min(len(os.sched_getaffinity(0)), 4))

    def setup(self):
        E = V["evaluate"]
        return E.ExperimentSpec(
            n_repeats=self.n_repeats(), scenario=E.Scenario.COMPLETE,
            train_config=acceptance_train_config(self.size),
            m_full=self.size.m_full, m_missing1=self.size.m_missing,
            m_missing2=self.size.m_missing, synthetic=acceptance_task(self.size, 0),
            hidden_dim=self.size.hidden, include_baselines=True, master_seed=self.seed)

    def run(self, spec):
        E = V["evaluate"]
        trained, evaluated = [], []
        inner_train, inner_evaluate = E.train, E.evaluate

        def probe_train(model, dataset, config, *args, **kwargs):
            out = inner_train(model, dataset, config, *args, **kwargs)
            trained.append(out[1])
            return out

        def probe_evaluate(model, test, *args, **kwargs):
            evaluated.append((model, test))
            return inner_evaluate(model, test, *args, **kwargs)

        with patched(E, "train", probe_train), patched(E, "evaluate", probe_evaluate):
            result = E.run_experiment(spec)
        return result, trained, evaluated

    def score(self, spec, raw):
        result, trained, evaluated = raw
        checks = [(f"train.losses_finite.{i}", losses_finite(rows))
                  for i, rows in enumerate(trained)]
        checks += [(f"model.checkpoint_round_trip.{i}",
                    checkpoint_round_trip(model, self.workdir / "round_trip.ckpt"))
                   for i, (model, _) in enumerate(evaluated)]
        ungated = float(np.mean([ungated_accuracy(m, t) for m, t in evaluated]))
        return Outcome(sum(len(rows) for rows in trained), ungated,
                       result.mean["accuracy"], result.mean["fake_rate"], checks,
                       digest([dataclasses.astuple(r) for r in result.rows],
                              *(model_bytes(m) for m, _ in evaluated)))


class VerifyOracles(Workload):
    name = "verify-oracles"
    default_seed = 0
    LAPS = (("viewgan.gradcheck", "check_family"), ("viewgan.theory", "check_theorem"),
            ("viewgan.theory", "brute_force_discriminator"))
    # once per instance, and what a finite difference's loss closures call,
    # once per evaluation. The laps between two of these are compared across
    # all instances of one family: the instances differ in shape, but at
    # widths of 2 to 8 a loss evaluation costs the same to within 2%
    # (README.md, "Laps").
    LOOP = tuple(("viewgan.gradcheck", f) for f in ("finite_difference", "forward",
                                                    "loss_discriminator", "loss_generator",
                                                    "feature_matching_penalty"))

    # seed 0 -> gradcheck seed 0, brute-force rng 42, identity rng 7, as in the tests
    def setup(self):
        T = V["theory"]
        rng = np.random.default_rng(self.seed + 42)
        brute = []
        for i in range(self.size.brute_force_triples):
            n1, n2 = int(rng.integers(1, 21)), int(rng.integers(1, 21))
            sparsity = 0.0 if i % 2 == 0 else 0.3
            brute.append(tuple(T.random_joint(rng, n1, n2, sparsity) for _ in range(3)))
        rng = np.random.default_rng(self.seed + 7)
        triples = []
        for _ in range(self.size.theorem_triples):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            triples.append(tuple(T.random_joint(rng, n1, n2, 0.2) for _ in range(3)))
        return brute, triples

    def run(self, inputs):
        T = V["theory"]
        brute, triples = inputs
        reports = V["gradcheck"].run_all(self.size.gradcheck_instances, self.seed)
        gaps = []
        for real, g1, g2 in brute:
            closed = T.optimal_discriminator(real, g1, g2).table
            grid = T.brute_force_discriminator(real, g1, g2, step=1e-3).table
            live = (real.table + T.mixture(g1, g2).table) > 0
            gaps.append(float(np.max(np.abs(closed[live] - grid[live]))))
        residuals = [T.check_theorem(*t).identity_residual for t in triples]
        return reports, gaps, residuals

    def score(self, inputs, raw):
        reports, gaps, residuals = raw
        checks = [(f"gradcheck.{r.family}", r.max_rel_error < 1e-4) for r in reports]
        checks.append(("theory.identity_residual", max(residuals) < 1e-10))
        checks.append(("theory.brute_force_gap", max(gaps) <= 1e-3 + 1e-12))
        n_instances = (len(reports) * self.size.gradcheck_instances
                       + len(gaps) + len(residuals))
        passed = sum(ok for _, ok in checks) / len(checks)
        return Outcome(n_instances, passed, 0.0, 0.0, checks,
                       digest([(r.family, r.max_rel_error) for r in reports],
                              np.array(gaps).tobytes(), np.array(residuals).tobytes()))


class CliFiles(Workload):
    name = "cli-files"
    default_seed = 0
    TRAIN = ("viewgan.cli", "train")
    LAPS = (TRAIN, ("viewgan.cli", "load_multiview_file"), ("viewgan.cli", "load_checkpoint"),
            ("viewgan.cli", "evaluate"))
    SETUP_LAPS = (("viewgan.cli", "generate_synthetic"), ("viewgan.cli", "save_multiview_file"))
    # per example drawn, and per row saved
    SETUP_LOOP = (("viewgan.data", "one_hot"), ("viewgan.data", "label_index"))
    # per step of train(), and per row of a data file load
    LOOP = (("viewgan.train", "sample_minibatch"), ("viewgan.train", "discriminate"),
            ("viewgan.train", "save_checkpoint"), ("viewgan.data", "one_hot"))

    SCENARIOS = ("complete", "view1-generated", "view2-generated")

    def path(self, name) -> str:
        return str(self.workdir / name)

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = V["cli"].main(argv)
        return code, out.getvalue()

    def setup(self):
        z = self.size
        Path(self.path("synth.cfg")).write_text(
            "num_classes = 3\nd1 = 20\nd2 = 20\nmean_scale_view1 = 1.6\n"
            "mean_scale_view2 = 0.8\nnoise_sigma = 1.0\nview_correlation = 0.0\n"
            f"m_full = {z.cli_m_full}\nm_missing1 = {z.cli_m_missing}\n"
            f"m_missing2 = {z.cli_m_missing}\nm_test = {z.cli_m_test}\nseed = {self.seed}\n",
            encoding="ascii")
        Path(self.path("train.cfg")).write_text(
            f"iterations = {z.cli_iterations}\nminibatch_size = {z.minibatch}\n"
            f"seed = {self.seed}\nhidden_dim = {z.hidden}\neval_every = {z.cli_eval_every}\n"
            f"checkpoint_every = {z.cli_checkpoint_every}\n", encoding="ascii")
        code, out = self._main(["synth", "--config", self.path("synth.cfg"),
                                "--out-train", self.path("train.tsv"),
                                "--out-test", self.path("test.tsv")])
        self.setup_checks.append(("cli.exit_0.synth", code == 0))
        return out

    def run(self, synth_out):
        results = [self._main(
            ["train", "--config", self.path("train.cfg"), "--data", self.path("train.tsv"),
             "--out-checkpoint", self.path("model.ckpt"),
             "--metrics", self.path("metrics.csv"), "--heldout", self.path("test.tsv")])]
        for scenario in self.SCENARIOS:
            results.append(self._main(
                ["eval", "--checkpoint", self.path("model.ckpt"),
                 "--data", self.path("test.tsv"), "--scenario", scenario,
                 "--seed", str(self.seed)]))
        return results

    def score(self, synth_out, results):
        checks = [(f"cli.exit_0.{cmd}", code == 0)
                  for cmd, (code, _) in zip(("train",) + self.SCENARIOS, results)]
        rows = [tuple(float(v) for v in line.split(",")[:4])
                for line in Path(self.path("metrics.csv")).read_text().splitlines()[1:]]
        checks.append(("train.losses_finite", losses_finite(rows)))
        model, _, _ = V["model"].load_checkpoint(self.path("model.ckpt"))
        checks.append(("model.checkpoint_round_trip",
                       checkpoint_round_trip(model, self.workdir / "round_trip.ckpt")))
        test = V["data"].load_multiview_file(self.path("test.tsv")).s_full
        report = dict(line.split("=", 1) for line in results[1][1].splitlines()
                      if line.startswith(("accuracy=", "fake_rate=")))
        files = [Path(self.path(n)).read_bytes()
                 for n in ("train.tsv", "test.tsv", "model.ckpt", "metrics.csv")]
        return Outcome(len(rows), ungated_accuracy(model, test), float(report["accuracy"]),
                       float(report["fake_rate"]), checks,
                       digest(synth_out, *files, *(out for _, out in results[1:])),
                       {"data.file_bytes": len(files[0]) + len(files[1]),
                        "model.checkpoint_bytes": len(files[2])})


WORKLOADS = {w.name: w for w in (TrainAccept, ExperimentAccept, VerifyOracles, CliFiles)}


# ------------------------------------------------------------------ harness

def _unit(workload: Workload, inputs, hooks=(), tracer: Tracer | None = None):
    """Prepare, time one unit under a lap clock on ``hooks``, then score it.

    With a tracer, the unit is traced but the scoring, which calls viewgan
    for its checks, is not. Returns (Timing, Outcome).
    """
    with tracer or contextlib.nullcontext():
        state = workload.prepare(inputs)
        with LapClock(hooks) as laps:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter_ns()
            raw = workload.run(state)
            t1 = time.perf_counter_ns()
            cpu = cpu_seconds() - cpu0
    stamps = np.array([t0, *laps.times, t1], dtype=np.int64)
    timing = Timing((t1 - t0) / 1e9, cpu, bytes(laps.labels), np.diff(stamps))
    return timing, workload.score(state, raw)


def fresh_import():
    """Import viewgan and its modules afresh, with numpy already loaded.

    The module objects loaded before are put back afterwards, so the
    program and the benchmark keep using one set of them.
    """
    ours = lambda name: name == "viewgan" or name.startswith("viewgan.")
    saved = {n: m for n, m in sys.modules.items() if ours(n)}
    for name in saved:
        del sys.modules[name]
    try:
        for name in V:
            importlib.import_module(f"viewgan.{name}")
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _timed_setup(workload: Workload):
    """Import viewgan afresh and make the inputs under a lap clock on the
    set-up hooks; return (inputs, Timing)."""
    with LapClock(workload.SETUP_LAPS + workload.SETUP_LOOP) as laps:
        t0 = time.perf_counter_ns()
        fresh_import()
        inputs = workload.setup()
        t1 = time.perf_counter_ns()
    stamps = np.array([t0, *laps.times, t1], dtype=np.int64)
    return inputs, Timing((t1 - t0) / 1e9, 0.0, bytes(laps.labels), np.diff(stamps))


def train_ns(workload: Workload, labels: bytes, laps_ns: np.ndarray) -> float:
    """Time inside the unit's train() calls; the whole unit if it never trains."""
    if workload.TRAIN is None:
        return float(laps_ns.sum())
    enter = 2 * workload.LAPS.index(workload.TRAIN)
    marks = np.frombuffer(labels, dtype=np.uint8)
    # stamp j closes lap j and opens lap j + 1
    starts = np.flatnonzero(marks == enter) + 1
    ends = np.flatnonzero(marks == enter + 1) + 1
    return float(sum(laps_ns[a:b].sum() for a, b in zip(starts, ends)))


class FastestLaps:
    """The laps of a run's units, folded as they come: each position's
    shortest lap while every unit gives the same stamps, and the fastest
    whole unit. Memory stays that of two units however many run.
    """

    def __init__(self, timings=()):
        self.count = 0
        self.total_s = 0.0
        self.fastest: Timing | None = None
        self.labels: bytes | None = None
        self.laps_ns: np.ndarray | None = None   # None once the stamps differ
        for timing in timings:
            self.add(timing)

    def add(self, timing: Timing):
        self.count += 1
        self.total_s += timing.wall_s
        if self.fastest is None or timing.wall_s < self.fastest.wall_s:
            self.fastest = timing
        if self.count == 1:
            self.labels, self.laps_ns = timing.labels, timing.laps_ns.copy()
        elif self.laps_ns is not None and timing.labels == self.labels:
            np.minimum(self.laps_ns, timing.laps_ns, out=self.laps_ns)
        else:
            self.laps_ns = None


def best_laps(laps: FastestLaps, first_loop_label: int) -> np.ndarray | None:
    """Each lap's shortest time: None if the units' stamps differ.

    A lap is compared with the laps at the same position in the other
    units. A lap that loop hooks open and close is also compared with
    every lap between the same two loop stamps after the same lap-hook
    stamp, in every unit: those are the same work, one iteration apart
    (on ``verify-oracles``, one instance of a gradcheck family apart).
    """
    if laps.laps_ns is None:
        return None
    best = laps.laps_ns.copy()
    marks = np.frombuffer(laps.labels, dtype=np.uint8).astype(np.int64)
    # lap j runs from stamp j - 1 to stamp j; -1 stands for the unit's start and end
    opens = np.concatenate([[-1], marks])
    closes = np.concatenate([marks, [-1]])
    # the lap opened by the last lap-hook stamp (or the unit's start) so far
    anchor = np.maximum.accumulate(np.where(opens < first_loop_label, np.arange(opens.size), 0))
    loop = (opens >= first_loop_label) & (closes >= first_loop_label)
    _, group = np.unique((anchor[loop] * 256 + opens[loop]) * 256 + closes[loop],
                         return_inverse=True)
    shortest = np.full(group.max() + 1 if group.size else 0, np.iinfo(np.int64).max)
    np.minimum.at(shortest, group, best[loop])
    best[loop] = shortest[group]
    return best


# Set-ups take at least this share of a run, so that a cheap set-up is
# timed many times over the run, like the laps.
SETUP_SHARE = 0.25


def lap_seconds(workload: Workload, laps: FastestLaps) -> tuple[float, float]:
    """(wall, inside train()) seconds of a unit, summed over its shortest laps.

    If the units' stamps differ, the fastest whole unit stands in.
    """
    best = best_laps(laps, 2 * len(workload.LAPS))
    labels = laps.labels
    if best is None:
        labels, best = laps.fastest.labels, laps.fastest.laps_ns
    return float(best.sum()) / 1e9, train_ns(workload, labels, best) / 1e9


def setup_seconds(workload: Workload, laps: FastestLaps) -> float:
    """A set-up's seconds, summed over its shortest laps; the fastest whole
    set-up if the set-ups' stamps differ."""
    best = best_laps(laps, 2 * len(workload.SETUP_LAPS))
    return laps.fastest.wall_s if best is None else float(best.sum()) / 1e9


def execute(name: str, seed: int | None, seconds: float, trace: bool, size: str,
            out_dir: Path) -> dict:
    """Run one workload and return its checks, digest and metrics.

    Untraced: set up, then run one unit on the last set-up's inputs under
    the lap clock, until the units add up to ``seconds`` (at least once).
    Before each unit the workload sets up once, or more often until the
    set-ups add up to ``SETUP_SHARE`` of the units' time. ``setup_s``
    sums each set-up lap's shortest time, ``wall_s`` each
    unit lap's shortest time (``best_laps``), and ``steps_per_s`` does the
    same inside train(): the machine's speed switches between a fast and a
    1.6x slower state within a second, and a lap of milliseconds is far
    likelier than a whole unit to fall in a fast stretch (README.md).
    Traced: one set-up, then ``TRACE_PAIRS`` untraced and traced units in
    turn, all under the lap clock; the traced digests must equal the
    untraced one, and the ratio of their ``lap_seconds`` is the tracing
    overhead.
    """
    cls = WORKLOADS[name]
    seed = cls.default_seed if seed is None else seed
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(seed, SIZES[size], workdir)
        setup_walls, unit_walls = [], []
        record = {"workload": name, "seed": seed, "size": size, "trace": int(trace)}
        if trace:
            inputs, setup_t = _timed_setup(workload)
            setup_walls.append(setup_t.wall_s)
            values, unit_walls, outcomes = _traced(workload, inputs, out_dir)
            units = PER_LAYER
        else:
            setups, laps, outcomes = FastestLaps(), FastestLaps(), []
            while not laps.count or laps.total_s < seconds:
                while True:
                    inputs, setup_t = _timed_setup(workload)
                    setups.add(setup_t)
                    setup_walls.append(setup_t.wall_s)
                    if setups.total_s >= SETUP_SHARE * laps.total_s:
                        break
                timing, outcome = _unit(workload, inputs, workload.LAPS + workload.LOOP)
                laps.add(timing)
                unit_walls.append(timing.wall_s)
                outcomes.append(outcome)
            wall_s, train_s = lap_seconds(workload, laps)
            values = {
                "setup_s": setup_seconds(workload, setups),
                "wall_s": wall_s,
                "steps_per_s": outcomes[0].steps / train_s,
                "peak_rss_mb": peak_rss_mb(),
                "ungated_accuracy": outcomes[0].ungated_accuracy,
            }
            units = END_TO_END
            record["laps_per_unit"] = len(laps.fastest.laps_ns)
        first = outcomes[0]
        checks = [c for o in outcomes for c in o.checks]
        if not trace and len(outcomes) > 1:
            checks.append(("repeat_digests_agree", all(o.digest == first.digest for o in outcomes)))
        record.update({"units": len(unit_walls), "setup_s_all": setup_walls,
                       "digest": first.digest,
                       "accuracy": first.accuracy, "fake_rate": first.fake_rate,
                       "ungated_accuracy": first.ungated_accuracy,
                       "wall_s_all": unit_walls,
                       "checks": workload.setup_checks + checks,
                       "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}})
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


TRACE_PAIRS = 3


def _traced(workload: Workload, inputs, out_dir: Path):
    """Untraced and traced units in turn; returns (layer metrics, unit walls, outcomes).

    The traced set-up runs once, before the first traced unit. The
    outcomes are the untraced ones first, then the traced ones, whose
    checks are renamed ``traced.*`` and whose digests must match.
    """
    plain, traced = [], []
    tracer = Tracer()
    hooks = workload.LAPS + workload.LOOP
    for i in range(TRACE_PAIRS):
        plain.append(_unit(workload, inputs, hooks))
        if i == 0:
            with tracer:
                traced_inputs = workload.setup()
        timing, outcome = _unit(workload, traced_inputs, hooks, tracer)
        traced.append((timing, dataclasses.replace(
            outcome, checks=[(f"traced.{n}", ok) for n, ok in outcome.checks])))
    tracer.write(out_dir / f"spans-{workload.name}.npz")
    first = plain[0][1]
    match = ("traced_digest_matches", all(o.digest == first.digest for _, o in traced))
    traced[-1][1].checks.append(match)
    overhead = (lap_seconds(workload, FastestLaps(t for t, _ in traced))[0]
                / lap_seconds(workload, FastestLaps(t for t, _ in plain))[0])
    values = layer_metrics(tracer, plain, traced, overhead)
    pairs = plain + traced
    return values, [t.wall_s for t, _ in pairs], [o for _, o in pairs]


def layer_metrics(tracer: Tracer, plain, traced, overhead: float) -> dict:
    """Per-layer metrics from a finished trace (times are per call)."""
    s = tracer.summary()
    us = lambda name, **kw: s.mean(name, **kw) / 1e3
    ms = lambda name, **kw: s.mean(name, **kw) / 1e6
    sec = lambda name, **kw: s.mean(name, **kw) / 1e9
    steps = tracer.steps
    step_us = s.step_durations() / 1e3
    best_plain = min(plain, key=lambda p: p[0].wall_s)[0]
    first = plain[0][1]
    files = traced[0][1].file_bytes
    m = {
        "nn.forward_calls_per_step": tracer.step_forward_calls / steps if steps else 0.0,
        "nn.backward_calls_per_step": tracer.step_backward_calls / steps if steps else 0.0,
        "nn.forward_calls": s.count("nn.forward") / len(traced),
        "train.step_us.p50": float(np.percentile(step_us, 50)) if step_us.size else 0.0,
        "train.step_us.p99": float(np.percentile(step_us, 99)) if step_us.size else 0.0,
        "train.sample_minibatch_us": us("train.sample_minibatch"),
        "train.loss_discriminator_us": us("train.loss_discriminator"),
        "train.loss_generator_us.g1": us("train.loss_generator.g1"),
        "train.loss_generator_us.g2": us("train.loss_generator.g2"),
        "train.feature_matching_us": us("train.feature_matching_penalty"),
        "model.discriminate_us": us("model.discriminate"),
        "model.generate_us": us("model.generate"),
        "model.save_checkpoint_ms": ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": ms("model.load_checkpoint"),
        "model.checkpoint_bytes": files.get("model.checkpoint_bytes", 0),
        "data.generate_synthetic_ms": ms("data.generate_synthetic"),
        "data.save_multiview_file_ms": ms("data.save_multiview_file"),
        "data.load_multiview_file_ms": ms("data.load_multiview_file"),
        "data.file_bytes": files.get("data.file_bytes", 0),
        "evaluate.train_s": sec("train.train", parent="evaluate.run_experiment"),
        "evaluate.baseline_s": sec("evaluate.train_singleview_baseline"),
        "evaluate.evaluate_ms": ms("evaluate.evaluate"),
        "evaluate.concurrency": best_plain.cpu_s / best_plain.wall_s,
        "evaluate.accuracy": first.accuracy,
        "evaluate.fake_rate": first.fake_rate,
        "theory.check_theorem_us": us("theory.check_theorem"),
        "theory.brute_force_ms": ms("theory.brute_force_discriminator"),
        "cli.main_ms.synth": ms("cli.main.synth"),
        "cli.main_ms.train": ms("cli.main.train"),
        "cli.main_ms.eval": ms("cli.main.eval"),
        "trace.overhead_ratio": overhead,
        "trace.spans": len(s.dur),
    }
    for kind in ("disc", "gen"):
        m[f"nn.forward_us.{kind}"] = us(f"nn.forward.{kind}", self_time=True)
        m[f"nn.backward_us.{kind}"] = us(f"nn.backward.{kind}", self_time=True)
    for player in ("disc", "gen1", "gen2"):
        m[f"nn.adam_step_us.{player}"] = us(f"nn.adam_step.{player}", self_time=True)
    for family in GRADCHECK_FAMILIES:
        m[f"gradcheck.family_s.{family}"] = sec(f"gradcheck.check_family.{family}")
    return m
