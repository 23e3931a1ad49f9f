"""Command-line surface: train, eval, synth, experiment, theory-check, gradcheck.

Configs are flat key=value files; every run's randomness hangs off a single
`seed` (or `master_seed`) key. Exit code 0 means every invariant and check
the subcommand performed came out clean; 1 means a check failed; 2 means the
inputs were unusable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import ConfigMap, load_kv_file
from .data import (SyntheticSpec, TextLines, block_class_means, check_scorable, float_row,
                   generate_synthetic, load_multiview_file, other_view, parse_int,
                   partition_rows, save_multiview_file, sidecar_path)
from .errors import ConfigError, DataFormatError, DimensionError
from .evaluate import (ExperimentSpec, MetricsReport, Scenario, evaluate,
                       run_experiment, write_experiment_csv)
from .gradcheck import run_all
from .model import load_checkpoint, new_model
from .nn import DEFAULT_HIDDEN_DIM
from .theory import (GRID_STEP, LOG4, DiscreteJoint, brute_force_gap, check_theorem, mixture,
                     random_joint)
from .train import TrainConfig, train


def _seed(value: int) -> int:
    """``value`` of a ``--seed`` flag, checked before any work: numpy's
    generators take integers of at least 0."""
    if value < 0:
        raise ConfigError(f"must be at least 0, got {value}", key="seed")
    return value


def _fields(cfg: ConfigMap, cls, skip=()) -> dict:
    """Each int, float and bool field of dataclass ``cls`` but those in
    ``skip``, read under its own name, type and default; ``cls`` checks the
    values, and a field left out keeps its default."""
    getters = {"int": cfg.get_int, "float": cfg.get_float, "bool": cfg.get_bool}
    return {f.name: getters[f.type](f.name,
                                    None if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls) if f.type in getters and f.name not in skip}


# the TrainConfig fields a repeat of run_experiment sets itself or has no use
# for: it replaces the seed, and passes no held-out pairs and no checkpoint path
_REPEAT_FIELDS = ("seed", "eval_every", "checkpoint_every")


# the config keys, and ExperimentSpec and SyntheticSpec fields, of the training subsets' sizes
_SUBSET_SIZES = ("m_full", "m_missing1", "m_missing2")


def _view_means(cfg: ConfigMap, k: int, v: int):
    """View v's width and block class means, from keys d<v> and mean_scale_view<v>."""
    keys = {"dim": f"d{v}", "scale": f"mean_scale_view{v}"}
    d, scale = cfg.get_int(keys["dim"]), cfg.get_float(keys["scale"], 1.0)
    try:
        return d, block_class_means(k, d, scale)
    except ConfigError as e:
        raise ConfigError(e.rule, key=keys.get(e.key, e.key)) from None


def _synthetic_spec(cfg: ConfigMap, sizes: dict, seed: int) -> SyntheticSpec:
    """The synthetic task of the config, whose subset sizes ``sizes`` and
    seed the caller has read."""
    k = cfg.get_int("num_classes")
    (d1, means1), (d2, means2) = (_view_means(cfg, k, v) for v in (1, 2))
    return SyntheticSpec(
        num_classes=k, d1=d1, d2=d2, means_view1=means1, means_view2=means2,
        noise_sigma=cfg.get_float("noise_sigma", 1.0),
        view_correlation=cfg.get_float("view_correlation", 0.0),
        **sizes,
        m_test=cfg.get_int("m_test"),
        seed=seed,
    )


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file: one inode if both exist,
    else one path once symlinks and ``..`` are resolved."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _data_files(*pairs):
    """The (name, path) pairs of data files, each followed by its sidecar's:
    a save writes both files, and a load may read both."""
    return [pair for name, path in pairs if path is not None
            for pair in ((name, path), (f"the sidecar of {name}", sidecar_path(path)))]


def _check_output_paths(outputs, inputs=()) -> None:
    """Reject, before any work is done, an output path that cannot be written
    or that names the same file as another output or an input. ``outputs``
    and ``inputs`` are (name, path) pairs; a None path is left out."""
    seen = [(name, path) for name, path in inputs if path is not None]
    for name, path in outputs:
        if path is None:
            continue
        if os.path.isdir(path):
            raise ConfigError(f"output path {path} is a directory")
        directory = os.path.dirname(path) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ConfigError(f"output path {path}: {directory} is not a writable directory")
        for other_name, other in seen:
            if _same_file(path, other):
                raise ConfigError(f"{other_name} and {name} both name the file {path}")
        seen.append((name, path))


def _print_report(report: MetricsReport) -> None:
    print(f"accuracy={repr(report.accuracy)}")
    print(f"class_accuracy={repr(report.class_accuracy)}")
    print(f"macro_f1={repr(report.macro_f1)}")
    print(f"fake_rate={repr(report.fake_rate)}")
    print(f"n_test={report.n_test}")
    for k, c in enumerate(report.per_class):
        print(f"class {k}: precision={repr(c.precision)} "
              f"recall={repr(c.recall)} f1={repr(c.f1)}")
    classes = " ".join(map(str, range(len(report.confusion))))
    print(f"confusion rows=true class, columns=predicted {classes} fake")
    for k, row in enumerate(report.confusion):
        print(f"confusion {k}: {' '.join(map(str, row))}")


def cmd_train(args) -> int:
    _check_output_paths([("--out-checkpoint", args.out_checkpoint), ("--metrics", args.metrics)],
                        [("--config", args.config),
                         *_data_files(("--data", args.data), ("--heldout", args.heldout))])
    # the whole run is in the block, so a rule that new_model or train applies
    # to a config value names the file, the line and the key
    with load_kv_file(args.config) as cfg:
        tc = TrainConfig(**_fields(cfg, TrainConfig))
        hidden = cfg.get_int("hidden_dim", DEFAULT_HIDDEN_DIM)
        cfg.finish()
        dataset = load_multiview_file(args.data)
        heldout = None
        if args.heldout:
            heldout = load_multiview_file(args.heldout).s_full
            check_scorable(heldout, args.heldout, dataset, f"the training data {args.data}")
            if len(heldout) == 0:
                raise ConfigError(f"{args.heldout} has no complete pairs")

        init_ss, train_ss = np.random.SeedSequence(tc.seed).spawn(2)
        model = new_model(dataset.d1, dataset.d2, dataset.num_classes,
                          np.random.default_rng(init_ss), hidden)
        run_cfg = dataclasses.replace(tc, seed=int(train_ss.generate_state(1)[0]))
        _, rows = train(model, dataset, run_cfg, heldout=heldout,
                        metrics_path=args.metrics, checkpoint_path=args.out_checkpoint)
    if rows:
        last = rows[-1]
        print(f"final iter={last[0]} loss_d={repr(float(last[1]))} "
              f"loss_g1={repr(float(last[2]))} loss_g2={repr(float(last[3]))}")
    print(f"checkpoint written to {args.out_checkpoint}")
    return 0


def cmd_eval(args) -> int:
    seed = _seed(args.seed)
    model, _, _ = load_checkpoint(args.checkpoint)
    dataset = load_multiview_file(args.data)
    check_scorable(dataset.s_full, args.data, model, f"checkpoint {args.checkpoint}")
    scenario = Scenario(args.scenario)
    v = scenario.generated_view
    test = dataset.s_full if v is None else dataset.observing(other_view(v))
    if len(test) == 0:
        what = "complete pairs" if v is None else f"rows that observe view {other_view(v)}"
        raise ConfigError(f"{args.data} has no {what} to evaluate in scenario {scenario.value}")
    report = evaluate(model, test, scenario, seed=seed)
    print(f"scenario={scenario.value}")
    _print_report(report)
    return 0


def cmd_synth(args) -> int:
    _check_output_paths(_data_files(("--out-train", args.out_train),
                                    ("--out-test", args.out_test)),
                        [("--config", args.config)])
    with load_kv_file(args.config) as cfg:
        sizes = {key: cfg.get_int(key) for key in _SUBSET_SIZES}
        spec = _synthetic_spec(cfg, sizes, cfg.get_int("seed", 0))
        cfg.finish()
    dataset, test, bayes = generate_synthetic(spec)
    save_multiview_file(args.out_train, dataset)
    save_multiview_file(args.out_test, partition_rows(test, len(test), 0, 0)[0])
    print(f"train examples={dataset.m} test examples={len(test)}")
    print(f"bayes_accuracy={repr(bayes)}")
    return 0


def cmd_experiment(args) -> int:
    _check_output_paths([("--out", args.out)], [("--config", args.config)])
    with load_kv_file(args.config) as cfg:
        tc = TrainConfig(**_fields(cfg, TrainConfig, skip=_REPEAT_FIELDS))
        fields = _fields(cfg, ExperimentSpec)
        scenario = cfg.typed("scenario", Scenario.COMPLETE.value, Scenario,
                             "one of " + ", ".join(s.value for s in Scenario))
        pool = synth = None
        if cfg.has("data"):
            pool_file = cfg.get_str("data")
            cfg.finish()
            _check_output_paths([("--out", args.out)],
                                _data_files((f"key 'data' of {args.config}", pool_file)))
            pool = load_multiview_file(pool_file).s_full
        else:
            sizes = {key: fields[key] for key in _SUBSET_SIZES}
            synth = _synthetic_spec(cfg, sizes, seed=0)  # each repeat draws with its own
            cfg.finish()
        spec = ExperimentSpec(scenario=scenario, train_config=tc, data_pool=pool,
                              synthetic=synth, **fields)
    result = run_experiment(spec)
    write_experiment_csv(args.out, result)
    for name, value in result.mean.items():
        print(f"mean {name}={repr(value)} std={repr(result.std[name])}")
    print(f"rows written to {args.out}")
    return 0


def _load_table(path) -> DiscreteJoint:
    """The table in file ``path``: one row of numbers per line, ``#`` starts a
    comment. A table that cannot be used names the file, and a bad row its line."""
    rows = []
    with TextLines(path, "utf-8") as lines:
        for line in lines:
            row = float_row(line.partition("#")[0])
            if not row:
                continue
            rows.append(row)
            if len(row) != len(rows[0]):
                raise ValueError(f"expected {len(rows[0])} values as on the first row, "
                                 f"got {len(row)}")
            if min(row) < 0:
                raise ValueError("table entries must be finite and nonnegative")
    try:
        return DiscreteJoint(np.array(rows, dtype=np.float64, ndmin=2))
    except ValueError as e:
        raise DataFormatError(str(e), path=path) from None


# random triples that theory-check draws when no --trials is given
_THEORY_TRIALS = 200


def cmd_theory_check(args) -> int:
    ok = True
    if args.p_real or args.pg1 or args.pg2:
        if not (args.p_real and args.pg1 and args.pg2):
            raise ConfigError("provide all three of --p-real, --pg1, --pg2 or none")
        for key in ("trials", "seed"):
            if getattr(args, key) is not None:
                raise ConfigError("does not apply to tables given by --p-real, --pg1, --pg2",
                                  key=key)
        paths = {"--p-real": args.p_real, "--pg1": args.pg1, "--pg2": args.pg2}
        p_real, pg1, pg2 = tables = [_load_table(p) for p in paths.values()]
        for (flag, path), t in zip(paths.items(), tables):
            if t.table.shape != p_real.table.shape:
                raise DimensionError(f"{flag} {path} has shape {t.table.shape}, "
                                     f"but --p-real {args.p_real} has {p_real.table.shape}")
        report = check_theorem(p_real, pg1, pg2)
        bf_diff = brute_force_gap(p_real, pg1, pg2)
        print(f"value={repr(report.value)}")
        print(f"jsd_real_mixture={repr(report.jsd_real_mixture)}")
        print(f"identity_residual={repr(report.identity_residual)}")
        print(f"equilibrium_gap={repr(report.equilibrium_gap)}")
        print(f"brute_force_max_diff={repr(bf_diff)}")
        ok = report.ok and bf_diff <= GRID_STEP
    else:
        trials = _THEORY_TRIALS if args.trials is None else args.trials
        if trials < 1:
            raise ConfigError(f"must be at least 1, got {trials}", key="trials")
        rng = np.random.default_rng(_seed(0 if args.seed is None else args.seed))
        worst_residual = 0.0
        for _ in range(trials):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            triple = [random_joint(rng, n1, n2) for _ in range(3)]
            rep = check_theorem(*triple)
            worst_residual = max(worst_residual, rep.identity_residual)
            ok = ok and rep.ok
        worst_gap = 0.0
        for _ in range(max(1, trials // 10)):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            pg1 = random_joint(rng, n1, n2)
            pg2 = random_joint(rng, n1, n2)
            rep = check_theorem(mixture(pg1, pg2), pg1, pg2)
            worst_gap = max(worst_gap, abs(rep.equilibrium_gap))
            ok = ok and rep.ok
        worst_bf = 0.0
        for _ in range(5):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            triple = [random_joint(rng, n1, n2) for _ in range(3)]
            worst_bf = max(worst_bf, brute_force_gap(*triple))
        print(f"trials={trials}")
        print(f"max_identity_residual={repr(worst_residual)}")
        print(f"max_equilibrium_gap={repr(worst_gap)} (mixture forced equal to real)")
        step = np.format_float_scientific(GRID_STEP, trim="-", exp_digits=1)
        print(f"max_brute_force_diff={repr(worst_bf)} (grid step {step})")
        print(f"minimum_value={repr(-LOG4)}")
        ok = ok and worst_bf <= GRID_STEP
    print("status=ok" if ok else "status=FAILED")
    return 0 if ok else 1


def cmd_gradcheck(args) -> int:
    reports = run_all(args.instances, _seed(args.seed))
    all_ok = True
    for rep in reports:
        mark = "ok" if rep.passed else "FAILED"
        print(f"{rep.family}: instances={rep.instances} "
              f"max_rel_error={repr(rep.max_rel_error)} {mark}")
        all_ok = all_ok and rep.passed
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewgan",
        description="Adversarial completion of missing views for two-view classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train on a multiview file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--heldout", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under a scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scenario", default=Scenario.COMPLETE.value,
                   choices=[s.value for s in Scenario])
    p.add_argument("--seed", type=parse_int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic two-view dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("experiment", help="repeated splits with aggregate CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("theory-check", help="verify the equilibrium analysis on tables")
    p.add_argument("--p-real", default=None)
    p.add_argument("--pg1", default=None)
    p.add_argument("--pg2", default=None)
    # None marks a flag left out: the tables take neither
    p.add_argument("--trials", type=parse_int, default=None,
                   help=f"random triples to check (default {_THEORY_TRIALS}); not with tables")
    p.add_argument("--seed", type=parse_int, default=None,
                   help="seed of the random triples (default 0); not with tables")
    p.set_defaults(func=cmd_theory_check)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=parse_int, default=100)
    p.add_argument("--seed", type=parse_int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # every viewgan.errors type is a ValueError
        if isinstance(e, ConfigError) and e.key in vars(args):  # a flag's value
            e = f"--{e.key.replace('_', '-')} {e.rule}"
        print(f"error: {e}", file=sys.stderr)
        return 2
