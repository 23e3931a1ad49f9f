"""Tests for the exact discrete-distribution equilibrium oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viewgan.theory as theory
from viewgan.cli import main
from viewgan.errors import DimensionError
from viewgan.theory import (LOG4, DiscreteJoint, DiscriminatorTable,
                            augmented_value, brute_force_discriminator,
                            check_theorem, fake_response, jsd, kl, mixture,
                            optimal_discriminator, random_joint,
                            value_function)


def uniform(n1, n2):
    return np.full((n1, n2), 1.0 / (n1 * n2))


def triple(seed, n1=3, n2=4, sparsity=0.0):
    rng = np.random.default_rng(seed)
    return (random_joint(rng, n1, n2, sparsity),
            random_joint(rng, n1, n2, sparsity),
            random_joint(rng, n1, n2, sparsity))


# ------------------------------------------------------------ dataclasses

def test_joint_validation():
    with pytest.raises(ValueError):
        DiscreteJoint(np.array([[0.5, 0.6]]))       # sums past 1
    with pytest.raises(ValueError):
        DiscreteJoint(np.array([[1.5, -0.5]]))      # negative mass
    with pytest.raises(DimensionError):
        DiscreteJoint(np.array([1.0]))              # not 2-D
    DiscreteJoint(np.array([[0.25, 0.75]]))


def test_discriminator_table_validation():
    with pytest.raises(ValueError):
        DiscriminatorTable(np.array([[1.1]]))
    with pytest.raises(ValueError):
        DiscriminatorTable(np.array([[-0.1]]))
    DiscriminatorTable(np.array([[0.0, 1.0]]))      # boundary is fine


def test_mixture_is_cellwise_average():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    m = mixture(a, b).table
    assert np.array_equal(m, np.array([[0.5, 0.0], [0.0, 0.5]]))


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        mixture(uniform(2, 2), uniform(2, 3))


# ----------------------------------------------------------- divergences

def test_kl_zero_on_equal():
    p = uniform(2, 3)
    assert kl(p, p) == 0.0


def test_kl_infinite_on_support_violation():
    p = np.array([[0.5, 0.5]])
    q = np.array([[1.0, 0.0]])
    assert kl(p, q) == math.inf
    # but zero cells in p are ignored
    assert math.isfinite(kl(q, p))


def test_kl_matches_hand_value():
    p = np.array([[0.75, 0.25]])
    q = np.array([[0.5, 0.5]])
    expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(kl(p, q) - expect) < 1e-15


def test_jsd_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_joint(rng, 3, 3, sparsity=0.4)
        q = random_joint(rng, 3, 3, sparsity=0.4)
        d = jsd(p, q)
        assert 0.0 <= d <= math.log(2.0) + 1e-15
        assert abs(d - jsd(q, p)) < 1e-15
    assert jsd(uniform(2, 2), uniform(2, 2)) == 0.0


def test_jsd_maximal_on_disjoint_support():
    p = np.array([[1.0, 0.0]])
    q = np.array([[0.0, 1.0]])
    assert abs(jsd(p, q) - math.log(2.0)) < 1e-15


# ------------------------------------------------------ optimal response

def test_optimal_discriminator_closed_form():
    real = np.array([[0.5, 0.5], [0.0, 0.0]])
    g = np.array([[0.0, 0.5], [0.5, 0.0]])
    d = optimal_discriminator(real, g, g).table
    assert d[0, 0] == 1.0            # only real mass
    assert d[0, 1] == 0.5            # equal mass both sides
    assert d[1, 0] == 0.0            # only generated mass
    assert d[1, 1] == 0.5            # dead cell convention


def test_brute_force_agrees_with_closed_form():
    for seed in range(10):
        real, g1, g2 = triple(seed, sparsity=0.3)
        closed = optimal_discriminator(real, g1, g2).table
        brute = brute_force_discriminator(real, g1, g2, step=1e-3).table
        # dead cells (no mass on either side) are excluded: the grid argmax
        # picks an arbitrary value there while the closed form pins 0.5
        live = (real.table + mixture(g1, g2).table) > 0
        assert np.max(np.abs(closed[live] - brute[live])) <= 1e-3 + 1e-12
        # the (K+1)-way game: real mass weighs 1/(K+1), z = 1 - fake
        k = 1 + seed % 5
        closed = fake_response(real, g1, g2, k).table
        brute = 1.0 - brute_force_discriminator(real, g1, g2, step=1e-3,
                                                real_weight=1.0 / (k + 1)).table
        assert np.max(np.abs(closed[live] - brute[live])) <= 1e-3 + 1e-12


def test_brute_force_never_beats_closed_form():
    real, g1, g2 = triple(99, sparsity=0.2)
    v_closed = value_function(optimal_discriminator(real, g1, g2), real, g1, g2)
    v_brute = value_function(brute_force_discriminator(real, g1, g2), real, g1, g2)
    assert v_brute <= v_closed + 1e-12


def one_block_brute_force(real, g1, g2, real_weight=1.0):
    """The grid search as one (cells, grid) score block: the reference that
    brute_force_discriminator's blocks of cells must match bit for bit."""
    real = real_weight * real.table
    mix = mixture(g1, g2).table
    grid = np.arange(0.0, 1.0 + theory.GRID_STEP / 2.0, theory.GRID_STEP)
    log_z = np.log(np.maximum(grid, 1e-300))
    log_1mz = np.log(np.maximum(1.0 - grid, 1e-300))
    scores = real.reshape(-1, 1) * log_z + mix.reshape(-1, 1) * log_1mz
    return grid[np.argmax(scores, axis=1)].reshape(real.shape)


@pytest.mark.parametrize("sparsity", [0.0, 0.3])
def test_brute_force_in_blocks_of_cells_matches_one_block(sparsity):
    # tables from 1 cell to 1,600, so from part of one block of cells to 50
    rng = np.random.default_rng(7)
    for trial in range(16):
        n1, n2 = (int(n) for n in rng.integers(1, 41, size=2))
        real, g1, g2 = (random_joint(rng, n1, n2, sparsity) for _ in range(3))
        weight = 1.0 if trial % 2 else 1.0 / (2 + trial % 5)
        got = brute_force_discriminator(real, g1, g2, real_weight=weight).table
        assert np.array_equal(got, one_block_brute_force(real, g1, g2, weight)), (n1, n2)


def test_brute_force_memory_peak():
    # a 60 x 60 table as one (cells, grid) score block peaked at 57.9 MB;
    # blocks of 32 cells peak at about 1.1 MB
    real, g1, g2 = triple(3, 60, 60)
    tracemalloc.start()
    try:
        brute_force_discriminator(real, g1, g2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_value_function_hand_example():
    real = np.array([[1.0]])
    g = np.array([[1.0]])
    d = np.array([[0.5]])
    # 1*log .5 + .5*log .5 + .5*log .5 = 2 log .5 = -log 4
    assert abs(value_function(d, real, g, g) + LOG4) < 1e-15


def test_value_function_floors_boundary_logs():
    real = np.array([[1.0]])
    g = np.array([[1.0]])
    v = value_function(np.array([[0.0]]), real, g, g)
    assert math.isfinite(v)


# ------------------------------------------- the (K+1)-way weighted game

def test_fake_response_closed_form():
    k = 3
    real = np.array([[0.5, 0.5], [0.0, 0.0]])
    g = np.array([[0.0, 0.5], [0.5, 0.0]])
    d = fake_response(real, g, g, k).table
    assert d[0, 0] == 0.0            # only real mass
    assert d[0, 1] == 0.8            # q = p: (K+1)/(K+2)
    assert d[1, 0] == 1.0            # only generated mass
    assert d[1, 1] == 0.5            # dead cell convention
    with pytest.raises(ValueError):
        fake_response(real, g, g, 0)
    with pytest.raises(ValueError):
        brute_force_discriminator(real, g, g, real_weight=0.0)


def test_fake_response_at_matched_generators():
    # both generators on the real joint: every cell reads (K+1)/(K+2), so
    # the strict gate (Fake above 1/2) rejects every pair
    rng = np.random.default_rng(5)
    for k in range(1, 8):
        real = random_joint(rng, 4, 3)
        d = fake_response(real, real, real, k).table
        assert np.all(np.abs(d - (k + 1) / (k + 2)) < 1e-12)
        assert np.all(d > 0.5)


def gate_passed_share(real, g1, g2, k):
    """Generator 1's mass on cells the strict gate lets through as real."""
    return float(g1.table[fake_response(real, g1, g2, k).table <= 0.5].sum())


def test_gate_passes_at_most_two_over_k_plus_one_of_generator_mass():
    rng = np.random.default_rng(11)
    for i in range(500):
        k = int(rng.integers(1, 8))
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        real, g1, g2 = (random_joint(rng, n1, n2, 0.3 * (i % 2))
                        for _ in range(3))
        assert gate_passed_share(real, g1, g2, k) <= 2.0 / (k + 1) + 1e-12
    # the bound is reached: g1 = 2p/(K+1) where p lives, g2 elsewhere
    real = np.array([[0.5, 0.5, 0.0]])
    g1 = DiscreteJoint(np.array([[0.25, 0.25, 0.5]]))
    g2 = DiscreteJoint(np.array([[0.0, 0.0, 1.0]]))
    assert gate_passed_share(real, g1, g2, 3) == 0.5
    # A gated score counts only passed pairs, so with view 1 generated it is
    # at most 2/(K+1) = 0.5 at K = 3, below the acceptance bar of the
    # majority rate (at least 1/K) plus 0.30.
    assert 2.0 / (3 + 1) < 1.0 / 3 + 0.30


# -------------------------------------------------------------- theorem

def test_identity_on_random_triples():
    for seed in range(50):
        real, g1, g2 = triple(seed, n1=4, n2=5, sparsity=0.3)
        rep = check_theorem(real, g1, g2)
        assert rep.identity_residual < 1e-10
        assert rep.ok


def test_a_misweighted_value_function_fails_the_oracle(monkeypatch, capsys):
    # generator 1 weighed by 0.45 instead of 0.5: the identity no longer
    # holds, and no caller can loosen THEOREM_TOL until it does
    def misweighted(d, p_real, pg1, pg2):
        d, real, a, b = (getattr(x, "table", x) for x in (d, p_real, pg1, pg2))
        log_1md = np.log(np.maximum(1.0 - d, 1e-300))
        return float(np.sum(real * np.log(np.maximum(d, 1e-300)))
                     + 0.45 * np.sum(a * log_1md) + 0.5 * np.sum(b * log_1md))

    monkeypatch.setattr(theory, "value_function", misweighted)
    for seed in range(20):
        assert not check_theorem(*triple(seed)).ok
    assert main(["theory-check", "--trials", "25"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "status=FAILED"


def test_equilibrium_value_when_mixture_matches():
    # generators differ but average to the real joint
    real = uniform(2, 2)
    g1 = np.array([[0.5, 0.0], [0.0, 0.5]])
    g2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    rep = check_theorem(real, g1, g2)
    assert abs(rep.value + LOG4) < 1e-12
    assert rep.equilibrium_gap == pytest.approx(0.0, abs=1e-12)


def test_gap_positive_off_equilibrium():
    real = np.array([[0.9, 0.1]])
    g = np.array([[0.1, 0.9]])
    rep = check_theorem(real, g, g)
    assert rep.equilibrium_gap > 1e-3
    assert rep.ok


def test_augmented_value_separates_mixture_only_matches():
    real = uniform(2, 2)
    g1 = np.array([[0.5, 0.0], [0.0, 0.5]])
    g2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    d = optimal_discriminator(real, g1, g2)
    plain = value_function(d, real, g1, g2)
    assert abs(plain + LOG4) < 1e-12
    # the augmented value exposes the mismatch the plain value hides
    assert augmented_value(d, real, g1, g2) > -LOG4 + 1e-6


def test_augmented_value_at_true_equilibrium():
    real, _, _ = triple(7, sparsity=0.2)
    d = optimal_discriminator(real, real, real)
    assert abs(augmented_value(d, real, real, real) + LOG4) < 1e-12


def test_random_joint_is_valid():
    rng = np.random.default_rng(1)
    for _ in range(20):
        j = random_joint(rng, 5, 2, sparsity=0.9)
        assert abs(j.table.sum() - 1.0) < 1e-12
        assert np.all(j.table >= 0)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), sparsity=st.floats(0.0, 0.8))
def test_theorem_holds_under_hypothesis(seed, sparsity):
    rng = np.random.default_rng(seed)
    real = random_joint(rng, 3, 3, sparsity)
    g1 = random_joint(rng, 3, 3, sparsity)
    g2 = random_joint(rng, 3, 3, sparsity)
    rep = check_theorem(real, g1, g2)
    assert rep.identity_residual < 1e-10
    assert rep.equilibrium_gap >= -1e-12
