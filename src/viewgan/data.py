"""Two-view datasets: partition by missing view, sparse text format with an
array sidecar, synthetic task.

A training set splits into three subsets: examples with both views, examples
missing view 1, and examples missing view 2. Every example is labeled. The
synthetic generator produces Gaussian class-conditional views with a shared
latent factor and reports the Bayes accuracy of the complete-pair task, which
anchors end-to-end accuracy tests: in closed form for two classes, otherwise
by a 100,000-sample Monte Carlo over the K discriminant scores (standard
error at most 0.0016), drawn and scored in blocks of 8,192 samples so its
scratch memory does not grow with the sample count.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from array import array
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError

_BAYES_MC_SAMPLES = 100_000
# rows of standard normals drawn and scored at a time; large enough that the
# block matmuls give the bits of one whole-sample matmul
_BAYES_MC_BLOCK = 8192


def one_hot(index: int, num_classes: int) -> np.ndarray:
    if not 0 <= index < num_classes:
        raise ValueError(f"label {index} outside [0, {num_classes})")
    y = np.zeros(num_classes, dtype=np.float64)
    y[index] = 1.0
    return y


def label_index(label: np.ndarray) -> int:
    return int(label.argmax())


def _decode(raw: bytes, encoding: str, path, lines_before: int) -> str:
    """``raw`` decoded; a byte that does not decode names file ``path`` and its
    line: ``lines_before`` plus its line in ``raw``, with the breaks of the
    text decoded before it counted as ``str.splitlines`` counts them."""
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as e:
        # a character appended to the prefix stands for the bad byte's line
        line = len((raw[:e.start].decode(encoding) + "?").splitlines())
        raise DataFormatError(f"byte {raw[e.start]:#04x} is not {encoding} text",
                              line=lines_before + line, path=path) from None


@contextlib.contextmanager
def replace_file(path, mode: str, encoding: str | None = None):
    """A file object to write the whole of file ``path``: a temporary file
    beside it, opened in ``mode``, that replaces ``path`` when the block ends
    cleanly and is removed on any error. So a crash mid-write leaves the
    previous file as it was; nothing is fsync'd, so a power loss may not."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class TextLines:
    """The lines of text file ``path``, read one newline-ended line at a time,
    decoded with ``_decode`` and numbered as ``str.splitlines`` numbers the
    whole text: ``number`` is the line read last, and past the last line
    ``next()`` gives "" counted as one more. In a ``with`` block, a ValueError
    that is not a DataFormatError becomes one naming the file and line
    ``number``; leaving the block closes the file."""

    def __init__(self, path, encoding: str):
        self.path, self.number = path, 0
        self._file = open(path, "rb")
        self._lines = (line for raw in self._file
                       for line in _decode(raw, encoding, path, self.number).splitlines())

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.number += 1
        return line

    def next(self) -> str:
        line = next(self, None)
        if line is None:  # past the last line
            self.number += 1
            return ""
        return line

    def __enter__(self) -> "TextLines":
        return self

    def __exit__(self, kind, error, traceback):
        self._file.close()
        if isinstance(error, ValueError) and not isinstance(error, DataFormatError):
            raise DataFormatError(str(error), line=self.number, path=self.path) from None


def _spelled(text: str) -> bool:
    """Whether ``text``, a number or a field or row of them, is spelled by the
    one number rule of every text input: ASCII, no "_" (a digit separator to
    int() and float()), a "+" only right after an exponent's e or E. The rule
    also asks that int() or float() read it and a float be finite."""
    return text.isascii() and "_" not in text and (
        "+" not in text or text.count("+") == text.count("e+") + text.count("E+"))


def parse_int(text: str) -> int:
    """The integer that ``text`` spells by the number rule; else ValueError."""
    if not _spelled(text):
        raise ValueError(f"malformed number {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """The finite number that ``text`` spells by the number rule; else ValueError."""
    if not _spelled(text):
        raise ValueError(f"malformed number {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def float_row(line: str, size: int | None = None) -> list[float]:
    """The whitespace-separated numbers of ``line``, ``size`` of them unless
    it is None. The rule is checked once for the line and each entry read by
    float(); a line that breaks it is read by parse_float, to name the entry."""
    parts = line.split()
    if size is not None and len(parts) != size:
        raise ValueError(f"expected {size} values, got {len(parts)}")
    if _spelled(line):
        row = list(map(float, parts))
        if all(map(math.isfinite, row)):
            return row
    return list(map(parse_float, parts))


def keyed_ints(line: str, key: str, count: int, low: int | None = None) -> list[int]:
    """The ``count`` integers of a '<key> <int> ...' line, where ``key`` may be
    several words; each must be at least ``low`` unless it is None."""
    parts, words = line.split(), key.split()
    if len(parts) != len(words) + count or parts[:len(words)] != words:
        raise ValueError(f"expected a '{key}' line with {count} integer(s)")
    try:
        values = [parse_int(p) for p in parts[len(words):]]
    except ValueError:
        raise ValueError(f"{key} must be integers") from None
    if low is not None and min(values) < low:
        raise ValueError(f"{key} must be at least {low}")
    return values


def by_view(v: int, first, second):
    """``first`` for view 1, ``second`` for view 2; any other v is an error."""
    if v not in (1, 2):
        raise ValueError(f"which_view must be 1 or 2, got {v}")
    return first if v == 1 else second


def other_view(v: int) -> int:
    """The view that is not view ``v``."""
    return by_view(v, 2, 1)


@dataclass(frozen=True, eq=False)
class Views:
    """A block of labelled examples held as rows.

    view1 is (n, d1), view2 is (n, d2) and label is (n, K) one-hot rows; a
    view the block lacks is None. An index array or a slice selects a
    block of rows, an int one example (1-D fields), and iterating yields
    the examples.
    """

    view1: np.ndarray | None
    view2: np.ndarray | None
    label: np.ndarray

    def __len__(self) -> int:
        return self.label.shape[0]

    def __getitem__(self, index) -> "Views":
        v1, v2 = self.view1, self.view2
        return Views(None if v1 is None else v1[index], None if v2 is None else v2[index],
                     self.label[index])

    @property
    def classes(self) -> np.ndarray:
        """The class index of each row: where its one-hot label is 1."""
        return self.label.argmax(axis=1)

    def view(self, v: int) -> np.ndarray | None:
        """View ``v`` (1 or 2) of the block; None when the block lacks it."""
        return by_view(v, self.view1, self.view2)

    def with_view(self, v: int, x: np.ndarray | None) -> "Views":
        """This block with view ``v`` replaced by ``x``; None drops the view."""
        return replace(self, **{by_view(v, "view1", "view2"): x})


def check_scorable(block: Views, name: str, ref, ref_name: str, reads=(1, 2)) -> None:
    """The one (d1, d2, K) rule for scored blocks, against any ``ref`` with ``d1``,
    ``d2`` and ``num_classes``: a view in ``reads`` that ``block`` lacks is a ValueError,
    a present view of another width or labels of another K a DimensionError. Both
    name the block, its (d1, d2, K) (None for a view it lacks) and ``ref``'s."""
    got = tuple(None if a is None else np.shape(a)[-1]
                for a in (block.view1, block.view2, block.label))
    want = (ref.d1, ref.d2, ref.num_classes)
    dims = f"(d1, d2, K) = {got}, but {ref_name} has {want}"
    for v in reads:
        if block.view(v) is None:
            raise ValueError(f"{name} lacks view {v}: it has {dims}")
    if any(g is not None and g != w for g, w in zip(got, want)):
        raise DimensionError(f"{name} has {dims}")


def _check_subset(subset: Views, d1, d2, num_classes, want1: bool, want2: bool,
                  name: str) -> Views:
    """Validate a whole subset at once; return it with float64 arrays."""
    if (subset.view1 is not None) != want1 or (subset.view2 is not None) != want2:
        raise ValueError(f"{name} has the wrong view pattern")
    label = np.asarray(subset.label, dtype=np.float64)
    if label.ndim != 2 or label.shape[1] != num_classes:
        raise DimensionError(f"{name} labels must have shape (n, {num_classes})")
    if not (np.all((label == 0.0) | (label == 1.0)) and np.all(label.sum(axis=1) == 1.0)):
        raise ValueError(f"{name} labels must be one-hot rows")
    views = []
    for view, width, vname in ((subset.view1, d1, "view1"), (subset.view2, d2, "view2")):
        if view is not None:
            view = np.asarray(view, dtype=np.float64)
            if view.shape != (label.shape[0], width):
                raise DimensionError(
                    f"{name} {vname} has shape {view.shape}, not ({label.shape[0]}, {width})")
            if not np.all(np.isfinite(view)):
                raise ValueError(f"non-finite values in {name} {vname}")
        views.append(view)
    return Views(*views, label)


@dataclass(eq=False)
class PartitionedDataset:
    """Training examples split by which views are observed.

    s_full has both views, s_missing1 lacks view 1, s_missing2 lacks view 2.
    (d1, d2, K) are read off s_full's (n, d) blocks, which keep them at n = 0.
    """

    s_full: Views
    s_missing1: Views
    s_missing2: Views
    d1: int = field(init=False)
    d2: int = field(init=False)
    num_classes: int = field(init=False)

    def __post_init__(self):
        full = self.s_full
        if full.view1 is None or full.view2 is None:
            raise ValueError("s_full must hold both views")
        dims = tuple(np.shape(a)[-1] for a in (full.view1, full.view2, full.label))
        self.d1, self.d2, self.num_classes = dims
        self.s_full = _check_subset(self.s_full, *dims, True, True, "s_full")
        self.s_missing1 = _check_subset(self.s_missing1, *dims, False, True, "s_missing1")
        self.s_missing2 = _check_subset(self.s_missing2, *dims, True, False, "s_missing2")

    @property
    def m(self) -> int:
        return len(self.s_full) + len(self.s_missing1) + len(self.s_missing2)

    def lacking(self, v: int) -> Views:
        """The subset that lacks view ``v``: s_missing1 or s_missing2."""
        return by_view(v, self.s_missing1, self.s_missing2)

    def observing(self, which_view: int) -> Views:
        """Every example that observes ``which_view``, carrying that view only:
        s_full first, then the subset that lacks the other view."""
        blocks = (self.s_full, self.lacking(other_view(which_view)))
        label = np.concatenate([b.label for b in blocks])
        return Views(None, None, label).with_view(
            which_view, np.concatenate([b.view(which_view) for b in blocks]))


# ---------------------------------------------------------------------------
# Sparse multiview text format.
#
# Header:  #dims <d1> <d2> <K>
# Line:    <label> \t <view1> \t <view2>
# where each view is space-separated index:value pairs with strictly
# increasing 0-based indices, the single character "-" for a missing view,
# or an empty field for a present all-zero view.

# which views (view1, view2) the subsets s_full, s_missing1 and s_missing2 hold
_PATTERNS = ((True, True), (False, True), (True, False))


def _subsets(dataset: PartitionedDataset):
    return dataset.s_full, dataset.s_missing1, dataset.s_missing2


def _format_view(v: np.ndarray | None, prefix) -> str:
    """One view field: "-" for a missing view, else "j:value" for each nonzero
    entry (0.0 and -0.0 are left out). Only those entries are taken to Python
    floats and meet ``repr``, so a sparse row costs what its nonzeros cost;
    ``prefix(j)`` is the string "j:"."""
    if v is None:
        return "-"
    cols = v.nonzero()[0]
    return " ".join(map(str.__add__, map(prefix, cols.tolist()), map(repr, v[cols].tolist())))


def _parse_view(text: str, buf: array, zeros: array) -> None:
    """Append one present view field to ``buf`` as ``len(zeros)`` floats: the
    zeros, then each nonzero entry set by its index. A malformed field raises
    ValueError."""
    row = len(buf)
    buf.extend(zeros)
    if text == "":
        return
    if not _spelled(text):
        raise ValueError(f"malformed pair {next(p for p in text.split(' ') if not _spelled(p))!r}")
    dim = len(zeros)
    prev = -1
    for pair in text.split(" "):
        idx_s, sep, val_s = pair.partition(":")
        if not sep:
            raise ValueError(f"malformed pair {pair!r}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise ValueError(f"malformed pair {pair!r}") from None
        if idx >= dim or idx < 0:
            raise ValueError(f"index {idx} outside [0, {dim})")
        if idx <= prev:
            raise ValueError("indices must be strictly increasing")
        if not math.isfinite(val):
            raise ValueError(f"non-finite value {val_s!r}")
        prev = idx
        buf[row + idx] = val


def save_multiview_file(path, dataset: PartitionedDataset) -> None:
    """Write a dataset in the sparse text format, a line per row, and then
    its array sidecar (``_write_arrays``), each through ``replace_file``;
    loading inverts exactly, up to the sign of zero."""
    prefix1, prefix2 = ([f"{j}:" for j in range(d)].__getitem__
                        for d in (dataset.d1, dataset.d2))
    with replace_file(path, "w", "ascii") as f:
        f.write(f"#dims {dataset.d1} {dataset.d2} {dataset.num_classes}\n")
        for subset in _subsets(dataset):
            rows1, rows2 = (repeat(None) if x is None else x for x in (subset.view1, subset.view2))
            for label, v1, v2 in zip(subset.label, rows1, rows2):
                f.write(f"{label_index(label)}\t{_format_view(v1, prefix1)}"
                        f"\t{_format_view(v2, prefix2)}\n")
    _write_arrays(path, dataset)


def load_multiview_file(path) -> PartitionedDataset:
    """Load a file in the sparse multiview format.

    When the file's array sidecar is whole and records the file's SHA-256
    (``_read_arrays``), the arrays come from it and the text is only
    hashed; otherwise the text is parsed (``_parse_multiview_file``). Either
    way the result is the same, bit for bit.
    """
    dataset = _read_arrays(path)
    return _parse_multiview_file(path) if dataset is None else dataset


def _parse_multiview_file(path) -> PartitionedDataset:
    """Parse the sparse multiview format; the partition is derived from "-" marks.

    The file is read a line at a time, and each subset's labels and present
    views go into one flat float64 buffer apiece, which the returned (n, d)
    arrays use without a copy. The lines come from ``TextLines``, so a
    malformed line, or a byte that does not decode, raises DataFormatError
    naming the file and the line. Lines are checked in file order, so the
    first bad line is the one reported; a bad byte is found when the
    newline-ended line holding it is read.
    """
    with TextLines(path, "ascii") as lines:
        widths = d1, d2, num_classes = keyed_ints(lines.next(), "#dims", 3, low=1)
        zeros1, zeros2 = (array("d", bytes(8 * d)) for d in (d1, d2))
        # (view1, view2, label) buffers per subset, keyed by which views are present
        subsets = {present: (array("d"), array("d"), array("d")) for present in _PATTERNS}

        for line in lines:
            if line == "":
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError("expected 'label<TAB>view1<TAB>view2'")
            try:
                label = parse_int(fields[0])
            except ValueError:
                raise ValueError(f"malformed label {fields[0]!r}") from None
            y = one_hot(label, num_classes)
            present = fields[1] != "-", fields[2] != "-"
            if present == (False, False):
                raise ValueError("both views missing")
            buf1, buf2, labels = subsets[present]
            if present[0]:
                _parse_view(fields[1], buf1, zeros1)
            if present[1]:
                _parse_view(fields[2], buf2, zeros2)
            labels.frombytes(y.tobytes())

    def block(present):
        bufs = subsets[present]
        n = len(bufs[2]) // num_classes
        return Views(*(np.frombuffer(buf, dtype=np.float64).reshape(n, w) if keep else None
                       for buf, w, keep in zip(bufs, widths, (*present, True))))

    return PartitionedDataset(*map(block, _PATTERNS))


# ---------------------------------------------------------------------------
# Array sidecar of a data file: ``<path>.arrays``.
#
# Header:  VIEWGAN-ARRAYS-1 <text sha256> <d1> <d2> <K> <n_full> <n_missing1>
#          <n_missing2> <sha256 of the header before it and of the body>
# Body:    each present block of s_full, s_missing1 and s_missing2, in that
#          order and (view1, view2, label) within a subset, as raw <f8 rows.
#
# The text stays the format of record: the sidecar is read only while both
# digests match and the body has the size the header implies, so a sidecar
# that is stale, damaged or deleted only costs the parse.

_ARRAYS_MAGIC = b"VIEWGAN-ARRAYS-1"
_HASH_CHUNK = 1 << 16   # bytes read at a time to hash a data file
_ARRAYS_ROWS = 1024     # rows written at a time, which bounds the save's scratch


def sidecar_path(path) -> str:
    """The array sidecar's path beside data file ``path``: the second file a
    save writes."""
    return f"{os.fspath(path)}.arrays"


def _file_sha256(path) -> bytes:
    """The hex SHA-256 of file ``path``'s bytes, read _HASH_CHUNK at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest().encode("ascii")


def _write_arrays(path, dataset: PartitionedDataset) -> None:
    """Write the sidecar of the data file just written to ``path`` from
    ``dataset``, whose parse it holds: the parser returns each value written
    exactly, and +0.0 for every zero, so each block is stored through
    ``np.add(block, 0.0)``, which turns -0.0 into +0.0. The text is hashed as
    it lies on disk.
    """
    subsets = _subsets(dataset)
    head = b" ".join([_ARRAYS_MAGIC, _file_sha256(path), *(
        str(n).encode("ascii") for n in (dataset.d1, dataset.d2, dataset.num_classes,
                                         *map(len, subsets)))])
    digest = hashlib.sha256(head)
    with replace_file(sidecar_path(path), "wb") as f:
        f.seek(len(head) + 66)  # the header ends in a space, 64 hex digits and a newline
        for subset in subsets:
            for block in (subset.view1, subset.view2, subset.label):
                for start in range(0, 0 if block is None else len(block), _ARRAYS_ROWS):
                    rows = np.add(block[start:start + _ARRAYS_ROWS], 0.0).astype(
                        "<f8", copy=False)
                    digest.update(rows)
                    f.write(rows)
        f.seek(0)
        f.write(head + b" " + digest.hexdigest().encode("ascii") + b"\n")


def _read_arrays(path) -> PartitionedDataset | None:
    """The dataset held in the sidecar of data file ``path``, or None unless
    the sidecar exists, its header parses with the magic, the text's SHA-256
    is the one it records, its body has exactly the size the header implies,
    the header's own digest matches, and the blocks make a PartitionedDataset.

    Each block is read with ``readinto`` into a bytearray that the returned
    array uses without a copy, so it is writable and C-contiguous. Nothing
    here raises for a file the parser could read: a file it cannot read is
    left to the parser, whose errors name the file and the line.
    """
    try:
        with open(sidecar_path(path), "rb") as f:
            line = f.readline(512)
            head, _, own = line[:-1].rpartition(b" ")
            fields = head.split(b" ")
            if line[-1:] != b"\n" or len(fields) != 8 or fields[0] != _ARRAYS_MAGIC:
                return None
            try:
                *widths, n_full, n_missing1, n_missing2 = map(int, fields[2:])
            except ValueError:
                return None
            if min(widths) < 1 or min(n_full, n_missing1, n_missing2) < 0:
                return None
            shapes = [[(n, w) if keep else None for w, keep in zip(widths, (*present, True))]
                      for n, present in zip((n_full, n_missing1, n_missing2), _PATTERNS)]
            body = sum(8 * n * w for subset in shapes for n, w in filter(None, subset))
            if (os.fstat(f.fileno()).st_size != len(line) + body
                    or fields[1] != _file_sha256(path)):
                return None
            digest = hashlib.sha256(head)

            def read(shape):
                buf = bytearray(8 * shape[0] * shape[1])
                f.readinto(buf)
                digest.update(buf)
                return np.frombuffer(buf, dtype="<f8").reshape(shape)

            blocks = [Views(*(None if shape is None else read(shape) for shape in subset))
                      for subset in shapes]
    except OSError:
        return None
    if digest.hexdigest().encode("ascii") != own:
        return None
    try:
        return PartitionedDataset(*blocks)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Synthetic two-view Gaussian task.

def block_class_means(num_classes: int, dim: int, scale: float) -> np.ndarray:
    """Pairwise-distinct means: class k puts ``scale`` on its own coordinate block.

    A ConfigError's key names the argument at fault.
    """
    if num_classes < 1:
        raise ConfigError(f"must be at least 1, got {num_classes}", key="num_classes")
    if dim < num_classes:
        raise ConfigError(f"must be at least num_classes {num_classes}, got {dim}", key="dim")
    if scale == 0.0:
        raise ConfigError("must be nonzero for distinct means", key="scale")
    means = np.zeros((num_classes, dim), dtype=np.float64)
    block = dim // num_classes
    for k in range(num_classes):
        means[k, k * block:(k + 1) * block] = scale
    return means


@dataclass
class SyntheticSpec:
    """Parameters of the Gaussian two-view task.

    Each view of an example is its class mean plus ``view_correlation`` times
    a shared min(d1, d2)-wide latent factor pushed through a fixed random map,
    plus isotropic noise. view_correlation=0 makes the views conditionally
    independent given the class; 1 ties them strongly through the latent.
    """

    num_classes: int
    d1: int
    d2: int
    means_view1: np.ndarray
    means_view2: np.ndarray
    noise_sigma: float
    view_correlation: float
    m_full: int
    m_missing1: int
    m_missing2: int
    m_test: int
    seed: int

    def __post_init__(self):
        for key, low in (("num_classes", 2), ("d1", 1), ("d2", 1), ("m_full", 0),
                         ("m_missing1", 0), ("m_missing2", 0), ("m_test", 0), ("seed", 0)):
            value = getattr(self, key)
            if value < low:
                raise ConfigError(f"must be at least {low}, got {value!r}", key=key)
        self.means_view1 = np.asarray(self.means_view1, dtype=np.float64)
        self.means_view2 = np.asarray(self.means_view2, dtype=np.float64)
        for v, means, dim in ((1, self.means_view1, self.d1), (2, self.means_view2, self.d2)):
            if means.shape != (self.num_classes, dim):
                raise ConfigError(f"means_view{v} must have shape (num_classes, d{v})")
            for j in range(self.num_classes):
                for k in range(j + 1, self.num_classes):
                    if np.array_equal(means[j], means[k]):
                        raise ConfigError(f"classes {j} and {k} share a view{v} mean")
        if not self.noise_sigma > 0:
            raise ConfigError(f"must be positive, got {self.noise_sigma!r}", key="noise_sigma")
        if not 0.0 <= self.view_correlation <= 1.0:
            raise ConfigError(f"must lie in [0, 1], got {self.view_correlation!r}",
                              key="view_correlation")


def _pair_gaussian(spec: SyntheticSpec, a1: np.ndarray, a2: np.ndarray):
    """Mean matrix and shared covariance of the complete pair [view1|view2]."""
    means = np.concatenate([spec.means_view1, spec.means_view2], axis=1)
    a = np.concatenate([a1, a2], axis=0)
    rho = spec.view_correlation
    cov = rho * rho * (a @ a.T) + spec.noise_sigma ** 2 * np.eye(spec.d1 + spec.d2)
    return means, cov


def _score_monte_carlo(means: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> float:
    """Monte Carlo accuracy of the linear discriminant, drawn in score space.

    With weights W = cov^-1 means^T and offsets c_k = 1/2 mu_k^T cov^-1 mu_k,
    the K scores s = W^T x - c of a class-y pair are Gaussian with mean
    G[y] - 1/2 diag G and covariance G = means cov^-1 means^T. Drawing
    _BAYES_MC_SAMPLES score vectors gives the same estimator as drawing whole
    pairs, without building any. G is singular when the means are linearly
    dependent, so its square root comes from eigh, not Cholesky. The normals
    are drawn and scored _BAYES_MC_BLOCK rows at a time: the generator fills
    its output in order, so the blocks draw the numbers of one whole draw.
    """
    gram = means @ np.linalg.solve(cov, means.T)  # (K, K)
    evals, evecs = np.linalg.eigh(gram)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))  # root @ root.T == gram
    offsets = gram - 0.5 * np.diag(gram)
    labels = rng.integers(0, means.shape[0], size=_BAYES_MC_SAMPLES)
    hits = 0
    for start in range(0, _BAYES_MC_SAMPLES, _BAYES_MC_BLOCK):
        block = labels[start:start + _BAYES_MC_BLOCK]
        scores = rng.standard_normal((len(block), means.shape[0])) @ root.T
        scores += offsets.take(block, axis=0)
        hits += int(np.count_nonzero(np.argmax(scores, axis=1) == block))
    return hits / _BAYES_MC_SAMPLES


def _bayes_accuracy(spec: SyntheticSpec, a1, a2, rng: np.random.Generator) -> float:
    """Bayes accuracy of the complete-pair task under equal priors.

    The class-conditional pairs are Gaussian with shared covariance, so the
    Bayes rule is the linear discriminant. For two classes the error has the
    closed form Phi(-delta/2) with delta the Mahalanobis distance between the
    means; for more classes it is a 100,000-sample Monte Carlo over the K
    discriminant scores (``_score_monte_carlo``), standard error at most 0.0016.
    """
    means, cov = _pair_gaussian(spec, a1, a2)
    if spec.num_classes == 2:
        diff = means[1] - means[0]
        delta = math.sqrt(float(diff @ np.linalg.solve(cov, diff)))
        return 0.5 * (1.0 + math.erf(delta / (2.0 * math.sqrt(2.0))))
    return _score_monte_carlo(means, cov, rng)


def generate_synthetic(spec: SyntheticSpec):
    """Draw a partitioned train set and a complete test set from the spec.

    Returns (PartitionedDataset, complete test Views, bayes_accuracy). The
    Bayes accuracy is exact for two classes and a Monte Carlo estimate
    otherwise (``_bayes_accuracy``), drawn after the data from the same
    generator. The same seed reproduces everything, Bayes estimate included.
    """
    rng = np.random.default_rng(spec.seed)
    latent_dim = min(spec.d1, spec.d2)
    scale = 1.0 / math.sqrt(latent_dim)
    a1, a2 = (rng.standard_normal((d, latent_dim)) * scale for d in (spec.d1, spec.d2))

    n = spec.m_full + spec.m_missing1 + spec.m_missing2 + spec.m_test
    labels = rng.integers(0, spec.num_classes, size=n)
    u = rng.standard_normal((n, latent_dim))
    # view 1 then view 2, each drawing its noise in turn
    x1, x2 = (means[labels] + spec.view_correlation * u @ a.T
              + spec.noise_sigma * rng.standard_normal((n, a.shape[0]))
              for means, a in ((spec.means_view1, a1), (spec.means_view2, a2)))

    dataset, test = partition_rows(Views(x1, x2, np.eye(spec.num_classes)[labels]),
                                   spec.m_full, spec.m_missing1, spec.m_missing2)
    return dataset, test, _bayes_accuracy(spec, a1, a2, rng)


def partition_rows(rows: Views, m_full: int, m_missing1: int, m_missing2: int):
    """Split complete rows, in order, into s_full, s_missing1 (view 1 dropped),
    s_missing2 (view 2 dropped) and the rest; return (PartitionedDataset, rest)."""
    need = m_full + m_missing1 + m_missing2
    if min(m_full, m_missing1, m_missing2) < 0 or need > len(rows):
        raise ConfigError(f"cannot draw {need} examples from a pool of {len(rows)}")
    b = m_full + m_missing1
    dataset = PartitionedDataset(rows[:m_full], rows[m_full:b].with_view(1, None),
                                 rows[b:need].with_view(2, None))
    return dataset, rows[need:]


def split_for_protocol(pool: Views, m_full: int, m_missing1: int, m_missing2: int, seed: int):
    """Randomly split a pool of complete pairs into the three-subset layout.

    The view-1 subset has its first view deleted and the view-2 subset its
    second; whatever remains stays complete and is returned as the test set.
    """
    if len(pool) == 0:
        raise ConfigError("empty pool")
    if pool.view1 is None or pool.view2 is None:
        raise ValueError("pool examples must have both views")
    return partition_rows(pool[np.random.default_rng(seed).permutation(len(pool))],
                          m_full, m_missing1, m_missing2)
