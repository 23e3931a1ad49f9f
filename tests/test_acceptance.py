"""Acceptance gate: the load-bearing behaviors at their stated tolerances.

Each test prints one summary line (shown with -s, or in the failure report)
and then asserts. The two end-to-end tests train at the full acceptance
configuration: 3 classes, 20+20 dims, 50 labeled pairs, 500 examples per
missing-view subset, 2000 adversarial iterations. Together they take a few
minutes; everything else is seconds.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import viewgan as vg
import viewgan.train as train_mod
from viewgan.data import Views, one_hot
from viewgan.evaluate import (ExperimentSpec, Scenario, evaluate,
                              run_experiment)
from viewgan.gradcheck import run_all
from viewgan.model import new_model
from viewgan.nn import adam_step as real_adam_step
from viewgan.theory import (LOG4, check_theorem, jsd, mixture,
                            optimal_discriminator, augmented_value,
                            brute_force_discriminator, random_joint,
                            value_function)
from viewgan.train import (Minibatch, TrainConfig, loss_discriminator,
                           loss_generator, train)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {status}{suffix}")


# The end-to-end task: view 1 carries most of the signal (scale 1.6 vs
# 0.8), unit noise, no cross-view coupling beyond the shared label.
def acceptance_task(seed):
    return vg.SyntheticSpec(
        num_classes=3, d1=20, d2=20,
        means_view1=vg.block_class_means(3, 20, 1.6),
        means_view2=vg.block_class_means(3, 20, 0.8),
        noise_sigma=1.0, view_correlation=0.0,
        m_full=50, m_missing1=500, m_missing2=500, m_test=1000, seed=seed)


ACCEPT_TRAIN = TrainConfig(iterations=2000, minibatch_size=32, alpha=1e-4,
                           beta1=0.5, beta2=0.999, epsilon=1e-8, fm_weight=1.0)
ACCEPT_HIDDEN = 200


# --------------------------------------------------------------------- 1

def test_gradient_integrity():
    t0 = time.perf_counter()
    reports = run_all(instances=100, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 60.0
    _report("gradient integrity", ok,
            f"max rel error {worst:.2e} over {len(reports)} families x 100 "
            f"instances, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# --------------------------------------------------------------------- 2

def test_brute_force_best_response_matches_closed_form():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n1 = int(rng.integers(1, 21))
        n2 = int(rng.integers(1, 21))
        sparsity = 0.0 if i % 2 == 0 else 0.3
        real = random_joint(rng, n1, n2, sparsity)
        g1 = random_joint(rng, n1, n2, sparsity)
        g2 = random_joint(rng, n1, n2, sparsity)
        closed = optimal_discriminator(real, g1, g2).table
        brute = brute_force_discriminator(real, g1, g2, step=1e-3).table
        live = (real.table + mixture(g1, g2).table) > 0
        worst = max(worst, float(np.max(np.abs(closed[live] - brute[live]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 + 1e-12
    _report("best-response grid search", ok,
            f"max cell gap {worst:.2e} over 100 triples, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------- 3

def test_equilibrium_value_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        rep = check_theorem(random_joint(rng, n1, n2, 0.2),
                            random_joint(rng, n1, n2, 0.2),
                            random_joint(rng, n1, n2, 0.2))
        worst = max(worst, rep.identity_residual)

    worst_eq = 0.0
    for _ in range(50):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        # a) both generators sit exactly on the real joint
        real = random_joint(rng, n1, n2, 0.2)
        rep = check_theorem(real, real, real)
        worst_eq = max(worst_eq, abs(rep.value + LOG4))
        # b) generators differ but their mixture matches the real joint
        g1 = random_joint(rng, n1, n2, 0.2)
        g2 = random_joint(rng, n1, n2, 0.2)
        rep = check_theorem(mixture(g1, g2), g1, g2)
        worst_eq = max(worst_eq, abs(rep.value + LOG4))

    ok = worst < 1e-10 and worst_eq <= 1e-12
    _report("equilibrium value identity", ok,
            f"max identity residual {worst:.2e} over 1000 triples, "
            f"max equilibrium gap {worst_eq:.2e}")
    assert worst < 1e-10
    assert worst_eq <= 1e-12


# --------------------------------------------------------------------- 4

def test_augmented_value_corollary():
    # mixture matches the real joint while the generators disagree: the
    # plain value bottoms out but the augmented value stays strictly above
    real = np.full((2, 2), 0.25)
    g1 = np.array([[0.5, 0.0], [0.0, 0.5]])
    g2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    d = optimal_discriminator(real, g1, g2)
    v = value_function(d, real, g1, g2)
    v_aug = augmented_value(d, real, g1, g2)
    spurious_exposed = abs(v + LOG4) <= 1e-12 and v_aug > -LOG4 + 1e-6

    rng = np.random.default_rng(13)
    random_exposed = True
    for _ in range(25):
        a = random_joint(rng, 3, 3, 0.2)
        b = random_joint(rng, 3, 3, 0.2)
        if np.array_equal(a.table, b.table):
            continue
        m = mixture(a, b)
        dd = optimal_discriminator(m, a, b)
        random_exposed &= abs(value_function(dd, m, a, b) + LOG4) <= 1e-12
        random_exposed &= augmented_value(dd, m, a, b) > -LOG4 + 1e-6

    # full agreement is the only configuration that floors the augmented value
    coincide = random_joint(rng, 3, 4, 0.2)
    d_eq = optimal_discriminator(coincide, coincide, coincide)
    at_floor = abs(augmented_value(d_eq, coincide, coincide, coincide) + LOG4) <= 1e-12

    off = random_joint(rng, 3, 4, 0.0)
    d_off = optimal_discriminator(coincide, off, coincide)
    off_floor = augmented_value(d_off, coincide, off, coincide) > -LOG4 + 1e-12

    ok = spurious_exposed and random_exposed and at_floor and off_floor
    _report("augmented value corollary", ok,
            "mixture-only matches exposed, floor reached only at full agreement")
    assert spurious_exposed
    assert random_exposed
    assert at_floor
    assert off_floor


# --------------------------------------------------------------------- 5

def _zero_model(k, d1=4, d2=4, hidden=5):
    m = new_model(d1, d2, k, np.random.default_rng(0), hidden_dim=hidden)
    for net in (m.gen1, m.gen2, m.disc):
        for block in net.params():
            block[...] = 0.0
    return m


def test_initial_loss_closed_forms():
    k, m_b = 6, 1
    model = _zero_model(k)
    rng = np.random.default_rng(1)
    labels = np.stack([one_hot(0, k)])
    batch = Minibatch(
        Views(rng.normal(size=(m_b, 4)), rng.normal(size=(m_b, 4)), labels),
        Views(None, rng.normal(size=(m_b, 4)), labels.copy()),
        Views(rng.normal(size=(m_b, 4)), None, labels.copy()),
        rng.uniform(-1, 1, size=(m_b, 4)),
        rng.uniform(-1, 1, size=(m_b, 4)))

    completed = [vg.complete(model, v, batch)[1] for v in (1, 2)]
    loss_d, _ = loss_discriminator(model, batch, completed)
    expect_d = (k + 2) / (k + 1) * math.log(k + 1)
    gap_d = abs(loss_d - expect_d)

    expect_g = math.log(k + 1) / (k + 1)
    gap_g = 0.0
    real_mean = vg.real_feature_mean(model, batch)
    for v in (1, 2):
        loss_g, _ = loss_generator(model, v, batch, real_mean, fm_weight=0.0)
        gap_g = max(gap_g, abs(loss_g - expect_g))

    ok = gap_d < 1e-12 and gap_g < 1e-12
    _report("uniform-output loss values", ok,
            f"discriminator gap {gap_d:.2e}, generator class-term gap {gap_g:.2e}")
    assert gap_d < 1e-12
    assert gap_g < 1e-12


# --------------------------------------------------------------------- 6

@pytest.fixture(scope="module")
def end_to_end():
    spec = ExperimentSpec(
        n_repeats=20, scenario=Scenario.COMPLETE, train_config=ACCEPT_TRAIN,
        m_full=50, m_missing1=500, m_missing2=500,
        synthetic=acceptance_task(0), hidden_dim=ACCEPT_HIDDEN,
        include_baselines=True, master_seed=2024)
    t0 = time.perf_counter()
    result = run_experiment(spec)
    return result, time.perf_counter() - t0


@pytest.mark.slow
def test_semisupervised_accuracy_end_to_end(end_to_end):
    # Scored on the class head (argmax over the K class outputs). The
    # pinned loss's best response puts (K+1)/(K+2) on Fake wherever the
    # generators match the real pairs (theory.fake_response), so the
    # Fake-gated accuracy is only reported.
    result, elapsed = end_to_end
    accs = np.array([r.class_accuracy for r in result.rows])
    gated = np.array([r.accuracy for r in result.rows])
    fake = np.array([r.fake_rate for r in result.rows])
    bayes = np.array([r.bayes_accuracy for r in result.rows])
    weaker = np.array([min(r.baseline1_accuracy, r.baseline2_accuracy)
                       for r in result.rows])
    wins = int(np.sum(accs > weaker))
    bar = 0.85 * float(bayes.mean())

    problems = []
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.0f}s is not under 600s")
    if float(accs.mean()) < bar:
        problems.append(
            f"mean class accuracy {accs.mean():.3f} is below 0.85 x bayes = {bar:.3f}")
    if wins < 15:
        problems.append(f"beats the weaker baseline in only {wins}/20 repeats, need 15")

    ok = not problems
    _report("semi-supervised accuracy", ok,
            f"mean class acc {accs.mean():.3f}, bar {bar:.3f}, wins {wins}/20, "
            f"weaker baseline mean {weaker.mean():.3f}, gated acc {gated.mean():.3f}, "
            f"fake rate {fake.mean():.3f}, {elapsed:.0f}s")
    assert ok, "; ".join(problems)


# --------------------------------------------------------------------- 7

@pytest.mark.slow
def test_accuracy_on_generated_view1():
    dataset, test, _ = vg.generate_synthetic(acceptance_task(7))
    model = new_model(20, 20, 3, np.random.default_rng(77), ACCEPT_HIDDEN)
    train(model, dataset, dataclasses.replace(ACCEPT_TRAIN, seed=770))
    report = evaluate(model, test, Scenario.VIEW1_GENERATED, seed=7700)

    # Scored on the class head: at any best response of the pinned loss the
    # Fake gate passes at most 2/(K+1) of generator 1's pairs, below this
    # bar (tests/test_theory.py), so the gated accuracy is only reported.
    labels = np.array([int(np.argmax(ex.label)) for ex in test])
    majority = float(np.max(np.bincount(labels, minlength=3))) / len(labels)
    margin = report.class_accuracy - majority
    ok = margin >= 0.30
    _report("recognition with view 1 generated", ok,
            f"class accuracy {report.class_accuracy:.3f}, majority rate {majority:.3f}, "
            f"margin {margin:+.3f}, need +0.300, gated accuracy {report.accuracy:.3f}, "
            f"fake rate {report.fake_rate:.3f}")
    assert ok, (f"class accuracy {report.class_accuracy:.3f} clears the majority rate "
                f"{majority:.3f} by {margin:+.3f}, not the required +0.30")


# --------------------------------------------------------------------- 8

def test_bitwise_determinism(tmp_path):
    spec = dataclasses.replace(acceptance_task(3), m_missing1=100,
                               m_missing2=100, m_test=50)
    cfg = TrainConfig(iterations=200, minibatch_size=32, alpha=1e-4,
                      beta1=0.5, seed=31, eval_every=50, checkpoint_every=100)
    blobs = []
    for tag in ("a", "b"):
        dataset, test, _ = vg.generate_synthetic(spec)
        model = new_model(20, 20, 3, np.random.default_rng(311), hidden_dim=32)
        metrics = tmp_path / f"metrics_{tag}.csv"
        ckpt = tmp_path / f"model_{tag}.ckpt"
        train(model, dataset, cfg, heldout=test,
              metrics_path=metrics, checkpoint_path=ckpt)
        blobs.append((metrics.read_bytes(), ckpt.read_bytes()))
    ok = blobs[0] == blobs[1]
    _report("bitwise determinism", ok,
            f"metrics {len(blobs[0][0])} bytes, checkpoint {len(blobs[0][1])} bytes")
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


# --------------------------------------------------------------------- 9

def test_update_isolation(monkeypatch):
    spec = dataclasses.replace(acceptance_task(5), m_missing1=100,
                               m_missing2=100, m_test=10)
    dataset, _, _ = vg.generate_synthetic(spec)
    model = new_model(20, 20, 3, np.random.default_rng(50), hidden_dim=16)
    nets = {"disc": model.disc, "gen1": model.gen1, "gen2": model.gen2}
    order = []

    def spy(params, grads, state):
        before = {name: [p.tobytes() for p in net.params()]
                  for name, net in nets.items()}
        target = [name for name, net in nets.items()
                  if net.params()[0] is params[0]]
        assert len(target) == 1
        out = real_adam_step(params, grads, state)
        for name, net in nets.items():
            if name != target[0]:
                assert [p.tobytes() for p in net.params()] == before[name], (
                    f"{name} moved during the {target[0]} update")
        order.append(target[0])
        return out

    monkeypatch.setattr(train_mod, "adam_step", spy)
    iters = 30
    init = {name: [p.copy() for p in net.params()] for name, net in nets.items()}
    train(model, dataset, TrainConfig(iterations=iters, minibatch_size=32, seed=5))

    ok = (len(order) == 3 * iters
          and order[0::3] == ["disc"] * iters
          and order[1::3] == ["gen1"] * iters
          and order[2::3] == ["gen2"] * iters)
    # every player must actually have moved; isolation is vacuous otherwise
    for name, net in nets.items():
        moved = any(not np.array_equal(a, b)
                    for a, b in zip(init[name], net.params()))
        ok = ok and moved
    _report("update isolation", ok,
            f"{3 * iters} updates, strict disc/gen1/gen2 rotation, "
            "bystanders bit-identical throughout")
    assert ok
