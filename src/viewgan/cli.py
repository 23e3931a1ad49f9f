"""Command-line surface: train, eval, synth, experiment, theory-check, gradcheck.

Configs are flat key=value files; every run's randomness hangs off a single
`seed` (or `master_seed`) key. Exit code 0 means every invariant and check
the subcommand performed came out clean; 1 means a check failed; 2 means the
inputs were unusable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import ConfigMap, load_kv_file
from .data import (SyntheticSpec, block_class_means, generate_synthetic, load_multiview_file,
                   other_view, partition_rows, save_multiview_file)
from .errors import ConfigError
from .evaluate import (ExperimentSpec, MetricsReport, Scenario, evaluate,
                       run_experiment, write_experiment_csv)
from .gradcheck import run_all
from .model import load_checkpoint, new_model
from .nn import DEFAULT_HIDDEN_DIM
from .theory import DiscreteJoint, LOG4, brute_force_gap, check_theorem, mixture, random_joint
from .train import TrainConfig, train


def _train_config(cfg: ConfigMap) -> TrainConfig:
    """Read every TrainConfig field under its own name, type and default."""
    getters = {"int": cfg.get_int, "float": cfg.get_float}
    return TrainConfig(**{
        f.name: getters[f.type](f.name, None if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(TrainConfig)})


def _synthetic_spec(cfg: ConfigMap) -> SyntheticSpec:
    k = cfg.get_int("num_classes")
    d1 = cfg.get_int("d1")
    d2 = cfg.get_int("d2")
    latent = cfg.get_int("latent_dim") if cfg.has("latent_dim") else None
    return SyntheticSpec(
        num_classes=k, d1=d1, d2=d2,
        means_view1=block_class_means(k, d1, cfg.get_float("mean_scale_view1", 1.0)),
        means_view2=block_class_means(k, d2, cfg.get_float("mean_scale_view2", 1.0)),
        noise_sigma=cfg.get_float("noise_sigma", 1.0),
        view_correlation=cfg.get_float("view_correlation", 0.0),
        m_full=cfg.get_int("m_full"),
        m_missing1=cfg.get_int("m_missing1"),
        m_missing2=cfg.get_int("m_missing2"),
        m_test=cfg.get_int("m_test"),
        seed=cfg.get_int("seed", 0),
        latent_dim=latent,
    )


def _print_report(report: MetricsReport) -> None:
    print(f"accuracy={repr(report.accuracy)}")
    print(f"class_accuracy={repr(report.class_accuracy)}")
    print(f"macro_f1={repr(report.macro_f1)}")
    print(f"fake_rate={repr(report.fake_rate)}")
    print(f"n_test={report.n_test}")
    for k, c in enumerate(report.per_class):
        print(f"class {k}: precision={repr(c.precision)} "
              f"recall={repr(c.recall)} f1={repr(c.f1)}")


def cmd_train(args) -> int:
    cfg = load_kv_file(args.config)
    tc = _train_config(cfg)
    hidden = cfg.get_int("hidden_dim", DEFAULT_HIDDEN_DIM)
    cfg.finish()
    dataset = load_multiview_file(args.data)
    heldout = None
    if args.heldout:
        heldout = load_multiview_file(args.heldout).s_full
        if not heldout:
            raise ConfigError("heldout file has no complete pairs")

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
    model, _, _ = load_checkpoint(args.checkpoint)
    dataset = load_multiview_file(args.data)
    scenario = Scenario(args.scenario)
    v = scenario.generated_view
    test = dataset.s_full if v is None else dataset.observing(other_view(v))
    report = evaluate(model, test, scenario, seed=args.seed)
    print(f"scenario={scenario.value}")
    _print_report(report)
    return 0


def cmd_synth(args) -> int:
    cfg = load_kv_file(args.config)
    spec = _synthetic_spec(cfg)
    cfg.finish()
    dataset, test, bayes = generate_synthetic(spec)
    save_multiview_file(args.out_train, dataset)
    save_multiview_file(args.out_test, partition_rows(test, len(test), 0, 0)[0])
    print(f"train examples={dataset.m} test examples={len(test)}")
    print(f"bayes_accuracy={repr(bayes)}")
    return 0


def cmd_experiment(args) -> int:
    cfg = load_kv_file(args.config)
    tc = _train_config(cfg)
    n_repeats = cfg.get_int("n_repeats")
    scenario = Scenario(cfg.get_str("scenario", Scenario.COMPLETE.value))
    master_seed = cfg.get_int("master_seed", 0)
    include_baselines = cfg.get_bool("include_baselines", True)
    hidden = cfg.get_int("hidden_dim", DEFAULT_HIDDEN_DIM)

    pool = None
    synth = None
    if cfg.has("data"):
        pool_file = cfg.get_str("data")
        m_full = cfg.get_int("m_full")
        m_missing1 = cfg.get_int("m_missing1")
        m_missing2 = cfg.get_int("m_missing2")
        cfg.finish()
        pool = load_multiview_file(pool_file).s_full
    else:
        # the synthetic spec owns the split sizes; lift them to the
        # experiment level so both sources carry them the same way
        synth = _synthetic_spec(cfg)
        cfg.finish()
        m_full, m_missing1, m_missing2 = synth.m_full, synth.m_missing1, synth.m_missing2

    spec = ExperimentSpec(n_repeats=n_repeats, scenario=scenario, train_config=tc,
                          m_full=m_full, m_missing1=m_missing1, m_missing2=m_missing2,
                          data_pool=pool, synthetic=synth, hidden_dim=hidden,
                          include_baselines=include_baselines, master_seed=master_seed)
    result = run_experiment(spec)
    write_experiment_csv(args.out, result)
    for name, value in result.mean.items():
        print(f"mean {name}={repr(value)} std={repr(result.std[name])}")
    print(f"rows written to {args.out}")
    return 0


def _load_table(path) -> DiscreteJoint:
    return DiscreteJoint(np.loadtxt(path, dtype=np.float64, ndmin=2))


def cmd_theory_check(args) -> int:
    ok = True
    if args.p_real or args.pg1 or args.pg2:
        if not (args.p_real and args.pg1 and args.pg2):
            raise ConfigError("provide all three of --p-real, --pg1, --pg2 or none")
        p_real, pg1, pg2 = (_load_table(p) for p in (args.p_real, args.pg1, args.pg2))
        report = check_theorem(p_real, pg1, pg2, tol=args.tol)
        bf_diff = brute_force_gap(p_real, pg1, pg2)
        print(f"value={repr(report.value)}")
        print(f"jsd_real_mixture={repr(report.jsd_real_mixture)}")
        print(f"identity_residual={repr(report.identity_residual)}")
        print(f"equilibrium_gap={repr(report.equilibrium_gap)}")
        print(f"brute_force_max_diff={repr(bf_diff)}")
        ok = report.ok and bf_diff <= 1e-3
    else:
        if args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        rng = np.random.default_rng(args.seed)
        worst_residual = 0.0
        for _ in range(args.trials):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            triple = [random_joint(rng, n1, n2) for _ in range(3)]
            rep = check_theorem(*triple, tol=args.tol)
            worst_residual = max(worst_residual, rep.identity_residual)
            ok = ok and rep.ok
        worst_gap = 0.0
        for _ in range(max(1, args.trials // 10)):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            pg1 = random_joint(rng, n1, n2)
            pg2 = random_joint(rng, n1, n2)
            rep = check_theorem(mixture(pg1, pg2), pg1, pg2, tol=args.tol)
            worst_gap = max(worst_gap, abs(rep.equilibrium_gap))
            ok = ok and rep.ok
        worst_bf = 0.0
        for _ in range(5):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            triple = [random_joint(rng, n1, n2) for _ in range(3)]
            worst_bf = max(worst_bf, brute_force_gap(*triple))
        print(f"trials={args.trials}")
        print(f"max_identity_residual={repr(worst_residual)}")
        print(f"max_equilibrium_gap={repr(worst_gap)} (mixture forced equal to real)")
        print(f"max_brute_force_diff={repr(worst_bf)} (grid step 1e-3)")
        print(f"minimum_value={repr(-LOG4)}")
        ok = ok and worst_bf <= 1e-3
    print("status=ok" if ok else "status=FAILED")
    return 0 if ok else 1


def cmd_gradcheck(args) -> int:
    reports = run_all(args.instances, args.seed)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_theory_check)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # every viewgan.errors type is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
