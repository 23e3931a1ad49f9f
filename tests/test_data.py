"""Tests for dataset containers, the sparse two-view file format and the
synthetic Gaussian task."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viewgan as vg
import viewgan.data as data_mod
from viewgan.data import label_index, one_hot
from viewgan.errors import ConfigError, DataFormatError, DimensionError


def make_views(n, d1=3, d2=2, k=2, miss=None, seed=0):
    """n examples with labels 0, 1, ..., k-1, 0, ...; ``miss`` drops a view."""
    rng = np.random.default_rng(seed)
    v1 = rng.normal(size=(n, d1))
    v2 = rng.normal(size=(n, d2))
    return vg.Views(None if miss == 1 else v1, None if miss == 2 else v2,
                    np.eye(k)[np.arange(n) % k])


def views_equal(a, b) -> bool:
    for x, y in ((a.view1, b.view1), (a.view2, b.view2), (a.label, b.label)):
        if (x is None) != (y is None) or x is not None and not np.array_equal(x, y):
            return False
    return True


def tiny_dataset(n_full=4, n_m1=3, n_m2=2, d1=3, d2=2, k=2):
    return vg.PartitionedDataset(s_full=make_views(n_full, d1, d2, k, seed=0),
                                 s_missing1=make_views(n_m1, d1, d2, k, miss=1, seed=1),
                                 s_missing2=make_views(n_m2, d1, d2, k, miss=2, seed=2),
                                 d1=d1, d2=d2, num_classes=k)


def test_one_hot_roundtrip():
    for k in range(2, 6):
        for i in range(k):
            v = one_hot(i, k)
            assert v.shape == (k,)
            assert v.sum() == 1.0
            assert label_index(v) == i


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_hot(3, 3)
    with pytest.raises(ValueError):
        one_hot(-1, 3)


def test_partitioned_dataset_checks_view_patterns():
    wrong = make_views(1, miss=1)  # belongs in s_missing1
    with pytest.raises(ValueError):
        vg.PartitionedDataset(s_full=wrong, s_missing1=make_views(0, miss=1),
                              s_missing2=make_views(0, miss=2), d1=3, d2=2, num_classes=2)
    ds = vg.PartitionedDataset(s_full=make_views(1), s_missing1=make_views(0, miss=1),
                               s_missing2=make_views(0, miss=2), d1=3, d2=2, num_classes=2)
    assert ds.m == 1


def _nan_in_view(ds):
    bad = ds.s_full.view2.copy()
    bad[1, 0] = np.nan
    return {"s_full": vg.Views(ds.s_full.view1, bad, ds.s_full.label)}


def _label_not_one_hot(ds):
    bad = ds.s_missing1.label.copy()
    bad[0] = [0.5, 0.5]
    return {"s_missing1": vg.Views(None, ds.s_missing1.view2, bad)}


def _wrong_view_width(ds):
    return {"s_missing2": vg.Views(ds.s_missing2.view1[:, :2], None, ds.s_missing2.label)}


def _view_in_slot_that_lacks_it(ds):
    return {"s_missing1": vg.Views(np.zeros((3, 3)), ds.s_missing1.view2, ds.s_missing1.label)}


@pytest.mark.parametrize("damage,error", [
    (_nan_in_view, ValueError),
    (_label_not_one_hot, ValueError),
    (_wrong_view_width, DimensionError),
    (_view_in_slot_that_lacks_it, ValueError),
])
def test_partitioned_dataset_rejects_bad_subset(damage, error):
    ds = tiny_dataset()
    subsets = {"s_full": ds.s_full, "s_missing1": ds.s_missing1, "s_missing2": ds.s_missing2}
    subsets.update(damage(ds))
    with pytest.raises(error):
        vg.PartitionedDataset(**subsets, d1=3, d2=2, num_classes=2)


def test_views_hold_examples_as_rows():
    # a Views holds its examples stacked as rows; a missing view is None
    views = make_views(3)
    assert len(views) == 3
    assert views.view1.shape == (3, 3) and views.view2.shape == (3, 2)
    assert views.label.shape == (3, 2)
    batch = views[np.array([2, 0, 2])]
    assert np.array_equal(batch.view1, views.view1[[2, 0, 2]])
    assert np.array_equal(batch.label, views.label[[2, 0, 2]])
    rows = list(views)
    assert len(rows) == 3
    assert np.array_equal(rows[1].view2, views.view2[1])
    assert label_index(rows[1].label) == 1
    missing = make_views(2, miss=1)
    assert missing.view1 is None and missing.view2.shape == (2, 2)
    assert all(ex.view1 is None for ex in missing)


def test_split_for_protocol_rejects_a_pool_lacking_a_view():
    # the protocol split takes a pool of complete pairs only
    with pytest.raises(ValueError):
        vg.split_for_protocol(make_views(6, miss=1), 2, 2, 2, seed=0)


def test_split_for_protocol_rejects_an_empty_pool():
    with pytest.raises(ConfigError):
        vg.split_for_protocol(make_views(0), 0, 0, 0, seed=0)


def test_file_roundtrip_is_exact(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, ds)
    loaded = vg.load_multiview_file(path)
    assert loaded.d1 == ds.d1 and loaded.d2 == ds.d2
    assert loaded.num_classes == ds.num_classes
    for got, want in [(loaded.s_full, ds.s_full),
                      (loaded.s_missing1, ds.s_missing1),
                      (loaded.s_missing2, ds.s_missing2)]:
        assert views_equal(got, want)  # array-equality on views and labels


def test_file_format_example(tmp_path):
    # hand-written file: zero-based sparse indices, '-' marks a missing view
    text = "#dims 4 3 2\n" \
           "0\t0:1.5 2:-0.25\t1:7.0\n" \
           "1\t-\t0:1.0 2:2.0\n" \
           "0\t\t1:1.0\n"
    path = tmp_path / "hand.tsv"
    path.write_text(text)
    ds = vg.load_multiview_file(path)
    assert len(ds.s_full) == 2 and len(ds.s_missing1) == 1
    first = ds.s_full[0]
    assert np.array_equal(first.view1, np.array([1.5, 0.0, -0.25, 0.0]))
    assert np.array_equal(first.view2, np.array([0.0, 7.0, 0.0]))
    # an empty field is a present all-zero view, not a missing one
    assert np.array_equal(ds.s_full[1].view1, np.zeros(4))


@pytest.mark.parametrize("bad_line,expect_line", [
    ("0\t0:1.0 0:2.0\t0:1.0", 2),   # indices must strictly increase
    ("0\t9:1.0\t0:1.0", 2),         # index out of range
    ("5\t0:1.0\t0:1.0", 2),         # label out of range
    ("0\t-\t-", 2),                 # both views missing
    ("0\tnot-a-pair\t0:1.0", 2),    # malformed pair
])
def test_file_errors_carry_line_numbers(tmp_path, bad_line, expect_line):
    path = tmp_path / "bad.tsv"
    path.write_text("#dims 4 3 2\n" + bad_line + "\n")
    with pytest.raises(DataFormatError) as err:
        vg.load_multiview_file(path)
    assert err.value.line == expect_line


def test_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    for header in ("#dims 4 3", "#dimsfoo 4 3 2"):
        path.write_text(header + "\n")
        with pytest.raises(DataFormatError) as err:
            vg.load_multiview_file(path)
        assert err.value.line == 1


def test_block_class_means():
    means = vg.block_class_means(3, 7, 2.0)
    assert means.shape == (3, 7)
    # class blocks partition the leading coordinates, 7 // 3 wide each
    assert np.array_equal(means[0][:2], [2.0, 2.0])
    assert means[0][2:].sum() == 0
    assert np.array_equal(means[1][2:4], [2.0, 2.0])
    assert np.array_equal(means[2][4:6], [2.0, 2.0])


def synth_spec(k=2, d1=4, d2=3, sigma=0.8, rho=0.0, seed=5, **sizes):
    defaults = dict(m_full=6, m_missing1=8, m_missing2=7, m_test=10)
    defaults.update(sizes)
    return vg.SyntheticSpec(
        num_classes=k, d1=d1, d2=d2,
        means_view1=vg.block_class_means(k, d1, 1.5),
        means_view2=vg.block_class_means(k, d2, 1.0),
        noise_sigma=sigma, view_correlation=rho, seed=seed, **defaults)


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        synth_spec(sigma=0.0)
    with pytest.raises(ConfigError):
        synth_spec(rho=1.5)
    means = np.ones((2, 4))  # duplicate rows: classes indistinguishable
    with pytest.raises(ConfigError):
        vg.SyntheticSpec(num_classes=2, d1=4, d2=3,
                         means_view1=means, means_view2=vg.block_class_means(2, 3, 1.0),
                         noise_sigma=1.0, view_correlation=0.0,
                         m_full=2, m_missing1=2, m_missing2=2, m_test=2, seed=0)


def test_generate_synthetic_shapes_and_determinism():
    spec = synth_spec()
    ds, test, bayes = vg.generate_synthetic(spec)
    assert len(ds.s_full) == 6 and len(ds.s_missing1) == 8 and len(ds.s_missing2) == 7
    assert test.view1.shape == (10, 4) and test.view2.shape == (10, 3)
    assert 1.0 / spec.num_classes <= bayes <= 1.0
    ds2, test2, bayes2 = vg.generate_synthetic(spec)
    assert bayes == bayes2
    assert views_equal(test, test2)


def test_synthetic_missing_patterns():
    ds, _, _ = vg.generate_synthetic(synth_spec())
    assert all(e.view1 is None and e.view2 is not None for e in ds.s_missing1)
    assert all(e.view2 is None and e.view1 is not None for e in ds.s_missing2)


def test_bayes_accuracy_binary_closed_form_against_monte_carlo():
    # independent route: simulate the task and score with the exact rule
    spec = synth_spec(k=2, sigma=1.2, seed=9, m_test=0)
    _, _, bayes = vg.generate_synthetic(spec)
    rng = np.random.default_rng(123)
    n = 200_000
    means = np.hstack([spec.means_view1, spec.means_view2])
    y = rng.integers(0, 2, n)
    x = means[y] + spec.noise_sigma * rng.standard_normal((n, 7))
    w = (means[1] - means[0]) / spec.noise_sigma**2
    thresh = 0.5 * (means[1] + means[0]) @ w
    mc = float(((x @ w > thresh).astype(int) == y).mean())
    assert abs(bayes - mc) < 0.005


def test_bayes_accuracy_increases_with_separation():
    lo = vg.generate_synthetic(synth_spec(sigma=2.5, seed=3))[2]
    hi = vg.generate_synthetic(synth_spec(sigma=0.3, seed=3))[2]
    assert hi > lo


def pair_space_bayes(spec, a1, a2, rng, n=100_000):
    """The linear discriminant scored on whole pairs [view1|view2], each drawn
    as the task draws it: class mean, latent factor, isotropic noise."""
    means, cov = data_mod._pair_gaussian(spec, a1, a2)
    weights = np.linalg.solve(cov, means.T)
    y = rng.integers(0, spec.num_classes, size=n)
    u = rng.standard_normal((n, spec.latent_dim))
    eps = rng.standard_normal((n, spec.d1 + spec.d2))
    x = means[y] + spec.view_correlation * u @ np.vstack([a1, a2]).T + spec.noise_sigma * eps
    scores = x @ weights - 0.5 * np.sum(means.T * weights, axis=0)
    return float(np.mean(np.argmax(scores, axis=1) == y))


def mc_se(p, n=100_000):
    return math.sqrt(p * (1.0 - p) / n)


def latent_maps(spec, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((spec.d1, spec.latent_dim)),
            rng.standard_normal((spec.d2, spec.latent_dim)))


@pytest.mark.parametrize("rho", [0.0, 0.4, 1.0])
def test_score_monte_carlo_matches_the_binary_closed_form(rho):
    spec = synth_spec(k=2, d1=5, d2=4, sigma=1.5, rho=rho)
    a1, a2 = latent_maps(spec, 20)
    exact = data_mod._bayes_accuracy(spec, a1, a2, np.random.default_rng(0))
    means, cov = data_mod._pair_gaussian(spec, a1, a2)
    mc = data_mod._score_monte_carlo(means, cov, np.random.default_rng(21))
    assert abs(mc - exact) < 4 * mc_se(exact)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("rho", [0.0, 0.7, 1.0])
def test_score_monte_carlo_matches_pair_space_sampling(k, rho):
    spec = synth_spec(k=k, d1=6, d2=5, sigma=1.2, rho=rho)
    a1, a2 = latent_maps(spec, 30 + k)
    mc = data_mod._bayes_accuracy(spec, a1, a2, np.random.default_rng(31))
    ref = pair_space_bayes(spec, a1, a2, np.random.default_rng(32))
    assert abs(mc - ref) < 4 * math.hypot(mc_se(mc), mc_se(ref))


def test_bayes_accuracy_with_collinear_means():
    # means 0, c, 2c in both views: the (K, K) score covariance has rank 1.
    # Without view correlation the latent map generate_synthetic draws does
    # not enter the Bayes rate.
    scale = np.arange(3.0)[:, None]
    spec = vg.SyntheticSpec(num_classes=3, d1=4, d2=3,
                            means_view1=scale * np.ones(4), means_view2=scale * 0.5 * np.ones(3),
                            noise_sigma=1.0, view_correlation=0.0,
                            m_full=2, m_missing1=2, m_missing2=2, m_test=2, seed=4)
    _, _, bayes = vg.generate_synthetic(spec)
    a1, a2 = latent_maps(spec, 40)
    means, cov = data_mod._pair_gaussian(spec, a1, a2)
    assert np.linalg.matrix_rank(means @ np.linalg.solve(cov, means.T)) == 1
    ref = pair_space_bayes(spec, a1, a2, np.random.default_rng(42))
    assert abs(bayes - ref) < 4 * math.hypot(mc_se(bayes), mc_se(ref))


def test_generate_synthetic_memory_peak():
    # the acceptance task: drawing the Bayes Monte Carlo as 100,000 whole
    # pairs instead of score vectors peaks at about 130 MB
    spec = vg.SyntheticSpec(num_classes=3, d1=20, d2=20,
                            means_view1=vg.block_class_means(3, 20, 1.6),
                            means_view2=vg.block_class_means(3, 20, 0.8),
                            noise_sigma=1.0, view_correlation=0.0, m_full=50,
                            m_missing1=500, m_missing2=500, m_test=1000, seed=7)
    tracemalloc.start()
    try:
        vg.generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_split_for_protocol_partitions_pool():
    pool = make_views(20)
    ds, test = vg.split_for_protocol(pool, m_full=5, m_missing1=6, m_missing2=4, seed=11)
    assert len(ds.s_full) == 5 and len(ds.s_missing1) == 6 and len(ds.s_missing2) == 4
    assert len(test) == 5  # remainder
    # the protocol hides one view per missing subset
    assert ds.s_missing1.view1 is None and ds.s_missing2.view2 is None
    again, test_again = vg.split_for_protocol(pool, 5, 6, 4, seed=11)
    assert views_equal(test, test_again)
    other = vg.split_for_protocol(pool, 5, 6, 4, seed=12)[1]
    assert not views_equal(test, other)


def test_split_for_protocol_rejects_oversized_request():
    pool = make_views(5)
    with pytest.raises(ConfigError):
        vg.split_for_protocol(pool, 4, 4, 4, seed=0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_synthetic_generation_is_seed_deterministic(seed):
    spec = synth_spec(seed=seed, m_full=3, m_missing1=3, m_missing2=3, m_test=3)
    a = vg.generate_synthetic(spec)
    b = vg.generate_synthetic(spec)
    assert a[2] == b[2]
    assert views_equal(a[0].s_full, b[0].s_full)
