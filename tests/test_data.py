"""Tests for dataset containers, the sparse two-view file format and the
synthetic Gaussian task."""

import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viewgan as vg
import viewgan.data as data_mod
from viewgan.data import label_index, one_hot
from viewgan.errors import ConfigError, DataFormatError, DimensionError
from viewgan.evaluate import ExperimentResult, write_experiment_csv


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
                                 s_missing2=make_views(n_m2, d1, d2, k, miss=2, seed=2))


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
                              s_missing2=make_views(0, miss=2))
    ds = vg.PartitionedDataset(s_full=make_views(1), s_missing1=make_views(0, miss=1),
                               s_missing2=make_views(0, miss=2))
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
        vg.PartitionedDataset(**subsets)


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


def blocks(ds):
    """The (view1, view2, label) blocks of each subset, in file order."""
    return [a for s in (ds.s_full, ds.s_missing1, ds.s_missing2)
            for a in (s.view1, s.view2, s.label)]


def same_bits(a, b) -> bool:
    """Both datasets hold the same blocks, None for None, byte for byte."""
    return all((x is None) == (y is None) and (
        x is None or x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes())
        for x, y in zip(blocks(a), blocks(b)))


def parse_only(monkeypatch, path):
    """The parse of data file ``path``, with its sidecar out of the way."""
    with monkeypatch.context() as m:
        m.setattr(data_mod, "_read_arrays", lambda path: None)
        return vg.load_multiview_file(path)


@pytest.fixture(params=["sidecar", "parse"])
def read_via(request, monkeypatch):
    """Called after a save, so that loads take one path: "sidecar" makes the
    parser an error, "parse" deletes the sidecar."""
    def no_parse(path):
        raise AssertionError(f"{path} was parsed, not read from its sidecar")

    def prepare(path):
        if request.param == "parse":
            os.remove(f"{path}.arrays")
        else:
            monkeypatch.setattr(data_mod, "_parse_multiview_file", no_parse)
    return prepare


def test_file_roundtrip_is_exact(tmp_path, read_via):
    ds = tiny_dataset()
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, ds)
    read_via(path)
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


def writer_rows():
    """Signed zeros, 5e-324, 1e16, a present all-zero view and missing views."""
    rows = {"full": [(2, [0.1, -0.0, 1e-05], [0.0, 1e16, 0.0]),
                     (0, [0.0, 0.0, -0.0], [5e-324, -2.5, 0.0])],
            "missing1": [(1, None, [-0.0, 0.0, 3.0])],
            "missing2": [(0, [0.0, 7.0, -1e-05], None)]}

    def block(subset):
        labels, v1, v2 = zip(*rows[subset])
        return vg.Views(None if v1[0] is None else np.array(v1),
                        None if v2[0] is None else np.array(v2), np.eye(3)[list(labels)])

    return vg.PartitionedDataset(block("full"), block("missing1"), block("missing2"))


def test_file_writer_bytes(tmp_path):
    # rows are written full, missing1, missing2; zeros of either sign are left
    # out, a present all-zero view is an empty field and a missing one "-"
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, writer_rows())
    assert path.read_bytes() == (b"#dims 3 3 3\n"
                                 b"2\t0:0.1 2:1e-05\t1:1e+16\n"
                                 b"0\t\t0:5e-324 1:-2.5\n"
                                 b"1\t-\t2:3.0\n"
                                 b"0\t1:7.0 2:-1e-05\t-\n")


def sparse_rows():
    """60 rows 300 wide with about 8% nonzero entries, as a TF-IDF view would be."""
    rng = np.random.default_rng(3)
    view1, view2 = (rng.standard_normal((60, 300)) * (rng.random((60, 300)) < 0.08)
                    for _ in range(2))
    return vg.PartitionedDataset(
        vg.Views(view1[:40], view2[:40], np.eye(2)[np.arange(40) % 2]),
        vg.Views(None, view2[40:50], np.eye(2)[np.arange(10) % 2]),
        vg.Views(view1[50:], None, np.eye(2)[np.arange(10) % 2]))


def test_file_roundtrip_of_sparse_rows(tmp_path):
    ds = sparse_rows()
    path = tmp_path / "sparse.tsv"
    vg.save_multiview_file(path, ds)
    # one index:value pair per nonzero entry of a present view
    nonzero = sum(np.count_nonzero(v) for b in (ds.s_full, ds.s_missing1, ds.s_missing2)
                  for v in (b.view1, b.view2) if v is not None)
    assert path.read_text().count(":") == nonzero
    loaded = vg.load_multiview_file(path)
    assert (loaded.d1, loaded.d2, loaded.num_classes) == (300, 300, 2)
    for got, want in [(loaded.s_full, ds.s_full), (loaded.s_missing1, ds.s_missing1),
                      (loaded.s_missing2, ds.s_missing2)]:
        assert views_equal(got, want)


def complete_rows(n, d=20, k=3, seed=0):
    """A dataset of n complete d+d rows of standard normals, labels 0, 1, ..., k-1, 0, ..."""
    rng = np.random.default_rng(seed)
    labels = np.eye(k)[np.arange(n) % k]
    return vg.PartitionedDataset(vg.Views(rng.standard_normal((n, d)),
                                          rng.standard_normal((n, d)), labels),
                                 vg.Views(None, np.zeros((0, d)), labels[:0]),
                                 vg.Views(np.zeros((0, d)), None, labels[:0]))


def test_save_multiview_file_memory_peak(tmp_path):
    # 5,000 complete 20+20 rows written a line at a time peak at about
    # 0.05 MB; joining a subset's lines before writing needs several MB. The
    # sidecar, hashed and written 1,024 rows at a time, is counted too.
    ds = complete_rows(5000)
    tracemalloc.start()
    try:
        vg.save_multiview_file(tmp_path / "big.tsv", ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_load_multiview_file_memory_peak(tmp_path, read_via):
    # 5,000 complete 20+20 rows hold 1.7 MB of arrays; read a line at a time
    # into flat buffers they peak at about 1.9 MB, and holding the file's
    # bytes, text and lines plus an array per view row peaked at 10.1 MB.
    # Read from the sidecar, the buffers are the arrays.
    path = tmp_path / "big.tsv"
    vg.save_multiview_file(path, complete_rows(5000))
    read_via(path)
    tracemalloc.start()
    try:
        vg.load_multiview_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_loaded_blocks_are_contiguous_writable_float64(tmp_path):
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, tiny_dataset())
    loaded = vg.load_multiview_file(path)
    for subset in (loaded.s_full, loaded.s_missing1, loaded.s_missing2):
        for block in (subset.view1, subset.view2, subset.label):
            if block is not None:
                assert block.dtype == np.float64
                assert block.flags.c_contiguous and block.flags.writeable


@pytest.mark.parametrize("make", [writer_rows, tiny_dataset, sparse_rows,
                                  lambda: complete_rows(5000)],
                         ids=["writer-rows", "tiny", "sparse-300", "complete-5000"])
def test_sidecar_load_gives_the_bits_of_the_parse(tmp_path, make):
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, make())
    assert (tmp_path / "data.tsv.arrays").is_file()
    assert data_mod._read_arrays(path) is not None
    with_sidecar = vg.load_multiview_file(path)
    os.remove(tmp_path / "data.tsv.arrays")
    assert same_bits(with_sidecar, vg.load_multiview_file(path))
    for block in blocks(with_sidecar):
        if block is not None:
            assert block.dtype == np.float64
            assert block.flags.c_contiguous and block.flags.writeable


def test_an_edited_file_is_parsed_not_read_from_its_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, tiny_dataset())
    lines = path.read_text().splitlines(keepends=True)
    label, view1, view2 = lines[1].split("\t")
    lines[1] = "\t".join([label, "0:42.5" + view1[view1.index(" "):], view2])
    path.write_text("".join(lines))
    loaded = vg.load_multiview_file(path)
    assert loaded.s_full.view1[0, 0] == 42.5
    assert same_bits(loaded, parse_only(monkeypatch, path))

    # an appended bad line is reported as it is without a sidecar
    vg.save_multiview_file(path, tiny_dataset())
    with open(path, "a", encoding="ascii") as f:
        f.write("0\tx\t0:1.0\n")
    with pytest.raises(DataFormatError) as with_sidecar:
        vg.load_multiview_file(path)
    os.remove(tmp_path / "data.tsv.arrays")
    with pytest.raises(DataFormatError) as without:
        vg.load_multiview_file(path)
    assert str(with_sidecar.value) == str(without.value)
    assert with_sidecar.value.line == without.value.line == 11


def _header_fields(raw, edit):
    """``raw`` with its header's space-separated fields passed through ``edit``."""
    line, body = raw.split(b"\n", 1)
    return b" ".join(edit(line.split(b" "))) + b"\n" + body


def _flip(field):
    return field[:-1] + (b"0" if field[-1:] != b"0" else b"1")


def _not_one_hot(path):
    # a sidecar whose digests hold, written from labels that are not one-hot
    ds = tiny_dataset(d1=3, d2=3)
    label = ds.s_full.label.copy()
    label[0] = [0.5, 0.5]
    data_mod._write_arrays(path, types.SimpleNamespace(
        s_full=vg.Views(ds.s_full.view1, ds.s_full.view2, label), s_missing1=ds.s_missing1,
        s_missing2=ds.s_missing2, d1=3, d2=3, num_classes=2))
    return (path.parent / "data.tsv.arrays").read_bytes()


SIDECAR_DAMAGE = {
    "one-byte-short": lambda raw, path: raw[:-1],
    "one-byte-extra": lambda raw, path: raw + b"\0",
    "wrong-magic": lambda raw, path: raw.replace(b"VIEWGAN-ARRAYS-1", b"VIEWGAN-ARRAYS-2", 1),
    "bad-text-digest": lambda raw, path: _header_fields(
        raw, lambda f: [f[0], _flip(f[1]), *f[2:]]),
    "bad-own-digest": lambda raw, path: _header_fields(raw, lambda f: [*f[:-1], _flip(f[-1])]),
    # 4 + 3 + 2 rows as 5 + 2 + 2: another byte count
    "other-sizes": lambda raw, path: _header_fields(
        raw, lambda f: [*f[:5], b"5", b"2", *f[7:]]),
    # 4 + 3 + 2 rows as 4 + 2 + 3: the same byte count, since d1 = d2
    "swapped-sizes": lambda raw, path: _header_fields(
        raw, lambda f: [*f[:6], f[7], f[6], f[8]]),
    "header-cut": lambda raw, path: raw[:40],
    "not-a-number": lambda raw, path: _header_fields(raw, lambda f: [*f[:2], b"x", *f[3:]]),
    "body-byte": lambda raw, path: raw[:-20] + bytes([raw[-20] ^ 1]) + raw[-19:],
    "not-one-hot": lambda raw, path: _not_one_hot(path),
    # 4 + 3 + 2 rows as -1 + 11 + 2: the same byte count, so only the range guard rejects it
    "negative-count": lambda raw, path: _header_fields(
        raw, lambda f: [*f[:5], b"-1", b"11", *f[7:]]),
}


@pytest.mark.parametrize("damage", list(SIDECAR_DAMAGE))
def test_a_damaged_sidecar_gives_the_parse(tmp_path, monkeypatch, damage):
    path = tmp_path / "data.tsv"
    vg.save_multiview_file(path, tiny_dataset(d1=3, d2=3))
    sidecar = tmp_path / "data.tsv.arrays"
    raw = sidecar.read_bytes()
    sidecar.write_bytes(SIDECAR_DAMAGE[damage](raw, path))
    assert sidecar.read_bytes() != raw
    assert data_mod._read_arrays(path) is None
    assert same_bits(vg.load_multiview_file(path), parse_only(monkeypatch, path))


def fail_replace(monkeypatch, name):
    """Make ``os.replace`` raise OSError("disk full") onto a file named ``name``."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("disk full")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def save_data(directory, version):
    vg.save_multiview_file(directory / "data.tsv", tiny_dataset(n_full=3 + version))


# each writer of a whole file: the file it replaces, and a save of version 1 or 2
WRITERS = {
    "checkpoint": ("model.ckpt", lambda directory, version: vg.save_checkpoint(
        directory / "model.ckpt", vg.new_model(3, 2, 2, np.random.default_rng(version), 4),
        seed=0, step=version)),
    "data text": ("data.tsv", save_data),
    "sidecar": ("data.tsv.arrays", save_data),
    "experiment csv": ("results.csv", lambda directory, version: write_experiment_csv(
        directory / "results.csv", ExperimentResult((), {"accuracy": version / 4}, {}))),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_failed_replace_keeps_the_previous_file_and_leaves_no_temporary_file(
        tmp_path, monkeypatch, writer):
    name, save = WRITERS[writer]
    save(tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail_replace(monkeypatch, name)
    with pytest.raises(OSError, match="disk full"):
        save(tmp_path, 2)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)
    assert after[name] == before[name]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_an_error_inside_replace_file_keeps_the_previous_file(tmp_path, error):
    path = tmp_path / "file.txt"
    path.write_text("old", encoding="ascii")
    with pytest.raises(error), data_mod.replace_file(path, "w", "ascii") as f:
        f.write("new")
        raise error
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]
    assert path.read_text(encoding="ascii") == "old"


@pytest.mark.parametrize("failed,n_full", [("data.tsv", 4), ("data.tsv.arrays", 5)],
                         ids=["text", "sidecar"])
def test_a_data_file_whose_save_failed_loads_what_lies_on_disk(tmp_path, monkeypatch,
                                                               failed, n_full):
    # the text failing keeps the old text and its still-matching sidecar; the
    # sidecar failing leaves the new text beside a stale sidecar, so it is parsed
    path = tmp_path / "data.tsv"
    save_data(tmp_path, 1)
    with monkeypatch.context() as m:
        fail_replace(m, failed)
        with pytest.raises(OSError, match="disk full"):
            save_data(tmp_path, 2)
    assert (data_mod._read_arrays(path) is None) == (failed == "data.tsv.arrays")
    loaded = vg.load_multiview_file(path)
    assert len(loaded.s_full) == n_full
    assert same_bits(loaded, parse_only(monkeypatch, path))


ENDING_ROWS = ["#dims 4 3 2", "0\t0:1.5 2:-0.25\t1:7.0", "", "1\t-\t0:1.0 2:2.0", "0\t\t-"]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "\f", "mixed"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_line_endings_give_the_same_rows_and_line_numbers(tmp_path, ending, final_newline):
    # the lines are those of str.splitlines on the whole text, which also
    # numbers them: a bad row or byte among CR or form-feed lines names that line
    def text(rows):
        ends = (["\r\n", "\n", "\r", "\f"] if ending == "mixed" else [ending]) * len(rows)
        body = "".join(row + end for row, end in zip(rows, ends))
        return (body if final_newline else body[:-len(ends[len(rows) - 1])]).encode("latin-1")

    path = tmp_path / "data.tsv"
    path.write_bytes(text(ENDING_ROWS))
    got = vg.load_multiview_file(path)
    path.write_bytes("\n".join(ENDING_ROWS).encode("ascii"))
    want = vg.load_multiview_file(path)
    for a, b in ((got.s_full, want.s_full), (got.s_missing1, want.s_missing1),
                 (got.s_missing2, want.s_missing2)):
        assert views_equal(a, b)

    for bad_row in ("0\tx\t0:1.0", "\xff\t0:1.0\t-"):
        path.write_bytes(text(ENDING_ROWS[:4] + [bad_row] + ENDING_ROWS[4:]))
        with pytest.raises(DataFormatError) as err:
            vg.load_multiview_file(path)
        assert err.value.line == 5, bad_row


@pytest.mark.parametrize("bad_line,expect_line", [
    ("0\t0:1.0 0:2.0\t0:1.0", 2),   # indices must strictly increase
    ("0\t9:1.0\t0:1.0", 2),         # index out of range
    ("5\t0:1.0\t0:1.0", 2),         # label out of range
    ("0\t-\t-", 2),                 # both views missing
    ("0\tnot-a-pair\t0:1.0", 2),    # malformed pair
    ("0\t0:abc\t0:1.0", 2),         # non-numeric value
    ("0\t0:nan\t0:1.0", 2),         # non-finite value
    ("\n0\t-\t-", 3),               # blank lines count
    ("0\t0:1.0", 2),                # a field short
    ("x\t0:1.0\t0:1.0", 2),         # malformed label
    # int() and float() read "_" as a digit separator, which no writer writes
    ("0\t0:1_5\t0:1.0", 2),         # in a value
    ("0\t0_1:1.0\t0:1.0", 2),       # in an index
    ("0_1\t0:1.0\t0:1.0", 2),       # in a label
    # and they take a sign, which no writer writes but after an exponent's e
    ("+1\t0:1.0\t0:1.0", 2),        # in a label
    ("0\t+0:1.0\t0:1.0", 2),        # in an index
    ("0\t0:+1.5\t0:1.0", 2),        # in a value
    ("0\t0:1.0\t0:1.0\n1\t0:\u00e9\t-", 3),  # not ASCII
    # the first bad line is reported: a loader that decoded the whole file
    # before parsing it reported the byte on line 8
    ("0\t0:1.0\t0:1.0\n0\tx\t0:1.0\n" + "1\t-\t0:1.0\n" * 4 + "0\t0:\u00e9\t-", 3),
])
def test_file_errors_carry_line_numbers(tmp_path, bad_line, expect_line):
    path = tmp_path / "bad.tsv"
    path.write_bytes(("#dims 4 3 2\n" + bad_line + "\n").encode("utf-8"))
    with pytest.raises(DataFormatError) as err:
        vg.load_multiview_file(path)
    assert err.value.line == expect_line


def test_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    for header in ("#dims 4 3", "#dimsfoo 4 3 2", "#dims 4 x 2", "#dims 4 0 2", "#dims 2_0 2 2",
                   "#dims +4 3 2"):
        path.write_text(header + "\n")
        with pytest.raises(DataFormatError) as err:
            vg.load_multiview_file(path)
        assert err.value.line == 1


def test_classes_are_the_label_index_of_each_row():
    views = make_views(5, k=3)
    assert views.classes.tolist() == [label_index(y) for y in views.label] == [0, 1, 2, 0, 1]


def test_the_number_rule_reads_what_writers_write_and_nothing_else():
    for text, value in (("0", 0), ("-0", 0), ("-12", -12), ("12", 12)):
        assert data_mod.parse_int(text) == value
    for text, value in (("0.5", 0.5), ("-0.0", 0.0), ("1e+300", 1e300), ("2.5E-3", 2.5e-3),
                        ("7", 7.0), (".5", 0.5)):
        assert data_mod.parse_float(text) == value
    for text in ("1_0", "+1", "\uff15", "1.0", "1e+5", ""):
        with pytest.raises(ValueError):
            data_mod.parse_int(text)
    for text in ("0.2_5", "+0.5", "1e+5+", "+1e5", "\uff15", "inf", "-inf", "nan", "1e999",
                 "abc", ""):
        with pytest.raises(ValueError):
            data_mod.parse_float(text)
    # a row is checked once, but a bad entry is named
    assert data_mod.float_row("0.5 -1e+2\t3") == [0.5, -100.0, 3.0]
    for row, bad in (("0.5 1_5", "'1_5'"), ("+0.5 1", "'+0.5'"), ("0.5 nan", "'nan'"),
                     ("0.5 abc", "'abc'")):
        with pytest.raises(ValueError) as err:
            data_mod.float_row(row)
        assert bad in str(err.value)
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        data_mod.float_row("0.5 1", 3)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
       st.integers(min_value=-2**70, max_value=2**70))
def test_every_number_a_writer_writes_reads_back_exactly(values, integer):
    row = data_mod.float_row(" ".join(map(repr, values)))
    assert np.array(row).tobytes() == np.array(values, dtype=np.float64).tobytes()
    assert [data_mod.parse_float(repr(v)) for v in values] == row
    assert data_mod.parse_int(str(integer)) == integer


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
    u = rng.standard_normal((n, min(spec.d1, spec.d2)))
    eps = rng.standard_normal((n, spec.d1 + spec.d2))
    x = means[y] + spec.view_correlation * u @ np.vstack([a1, a2]).T + spec.noise_sigma * eps
    scores = x @ weights - 0.5 * np.sum(means.T * weights, axis=0)
    return float(np.mean(np.argmax(scores, axis=1) == y))


def mc_se(p, n=100_000):
    return math.sqrt(p * (1.0 - p) / n)


def latent_maps(spec, seed):
    rng = np.random.default_rng(seed)
    latent_dim = min(spec.d1, spec.d2)
    return (rng.standard_normal((spec.d1, latent_dim)),
            rng.standard_normal((spec.d2, latent_dim)))


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


def reference_score_monte_carlo(means, cov, rng):
    """The score-space Monte Carlo drawn and scored as one block of all
    _BAYES_MC_SAMPLES rows."""
    gram = means @ np.linalg.solve(cov, means.T)
    evals, evecs = np.linalg.eigh(gram)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    labels = rng.integers(0, means.shape[0], size=data_mod._BAYES_MC_SAMPLES)
    scores = rng.standard_normal((data_mod._BAYES_MC_SAMPLES, means.shape[0])) @ root.T
    scores += (gram - 0.5 * np.diag(gram)).take(labels, axis=0)
    return float(np.mean(np.argmax(scores, axis=1) == labels))


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("rho", [0.0, 0.7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_monte_carlo_in_blocks_equals_one_block(k, rho, seed):
    spec = synth_spec(k=k, d1=6, d2=5, sigma=1.2, rho=rho, seed=seed)
    means, cov = data_mod._pair_gaussian(spec, *latent_maps(spec, 50 + seed))
    got = data_mod._score_monte_carlo(means, cov, np.random.default_rng(seed))
    want = reference_score_monte_carlo(means, cov, np.random.default_rng(seed))
    assert type(got) is float and got == want


def test_generate_synthetic_memory_peak():
    # the acceptance task: drawing the Bayes Monte Carlo in blocks of 8,192
    # samples peaks at about 2.5 MB; one whole 100,000-sample block of score
    # vectors peaked at 9.1 MB, and whole pairs instead of score vectors at
    # about 130 MB
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
    assert peak < 4e6


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
