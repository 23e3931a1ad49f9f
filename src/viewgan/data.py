"""Two-view datasets: partition by missing view, sparse text format, synthetic task.

A training set splits into three subsets: examples with both views, examples
missing view 1, and examples missing view 2. Every example is labeled. The
synthetic generator produces Gaussian class-conditional views with a shared
latent factor and reports the Bayes accuracy of the complete-pair task, which
anchors end-to-end accuracy tests: in closed form for two classes, otherwise
by a 100,000-sample Monte Carlo over the K discriminant scores (standard
error at most 0.0016).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError

_BAYES_MC_SAMPLES = 100_000


def one_hot(index: int, num_classes: int) -> np.ndarray:
    if not 0 <= index < num_classes:
        raise ValueError(f"label {index} outside [0, {num_classes})")
    y = np.zeros(num_classes, dtype=np.float64)
    y[index] = 1.0
    return y


def label_index(label: np.ndarray) -> int:
    return int(np.argmax(label))


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

    def view(self, v: int) -> np.ndarray | None:
        """View ``v`` (1 or 2) of the block; None when the block lacks it."""
        return by_view(v, self.view1, self.view2)

    def with_view(self, v: int, x: np.ndarray | None) -> "Views":
        """This block with view ``v`` replaced by ``x``; None drops the view."""
        return replace(self, **{by_view(v, "view1", "view2"): x})


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
    """

    s_full: Views
    s_missing1: Views
    s_missing2: Views
    d1: int
    d2: int
    num_classes: int

    def __post_init__(self):
        if min(self.d1, self.d2) < 1 or self.num_classes < 1:
            raise DimensionError("d1, d2, num_classes must be positive")
        dims = (self.d1, self.d2, self.num_classes)
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

def _format_view(v: np.ndarray | None) -> str:
    if v is None:
        return "-"
    idx = np.nonzero(v)[0]
    return " ".join(f"{int(i)}:{repr(float(v[i]))}" for i in idx)


def _parse_view(text: str, dim: int, lineno: int) -> np.ndarray | None:
    if text == "-":
        return None
    v = np.zeros(dim, dtype=np.float64)
    if text == "":
        return v
    prev = -1
    for pair in text.split(" "):
        idx_s, sep, val_s = pair.partition(":")
        if not sep:
            raise DataFormatError(f"malformed pair {pair!r}", line=lineno)
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise DataFormatError(f"malformed pair {pair!r}", line=lineno) from None
        if idx >= dim or idx < 0:
            raise DataFormatError(f"index {idx} outside [0, {dim})", line=lineno)
        if idx <= prev:
            raise DataFormatError("indices must be strictly increasing", line=lineno)
        if not math.isfinite(val):
            raise DataFormatError(f"non-finite value {val_s!r}", line=lineno)
        prev = idx
        v[idx] = val
    return v


def save_multiview_file(path, dataset: PartitionedDataset) -> None:
    """Write a dataset in the sparse text format; loading inverts exactly."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"#dims {dataset.d1} {dataset.d2} {dataset.num_classes}\n")
        for subset in (dataset.s_full, dataset.s_missing1, dataset.s_missing2):
            for ex in subset:
                f.write(f"{label_index(ex.label)}\t{_format_view(ex.view1)}"
                        f"\t{_format_view(ex.view2)}\n")


def load_multiview_file(path) -> PartitionedDataset:
    """Parse the sparse multiview format; the partition is derived from "-" marks."""
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().splitlines()
    head = lines[0].split() if lines else []
    if head[:1] != ["#dims"]:
        raise DataFormatError("missing '#dims d1 d2 K' header", line=1)
    if len(head) != 4:
        raise DataFormatError("header must be '#dims d1 d2 K'", line=1)
    try:
        d1, d2, num_classes = (int(p) for p in head[1:])
    except ValueError:
        raise DataFormatError("non-integer dimensions in header", line=1) from None
    if min(d1, d2, num_classes) < 1:
        raise DataFormatError("dimensions must be positive", line=1)

    # one (view1s, view2s, labels) column triple per subset
    full, missing1, missing2 = ([], [], []), ([], [], []), ([], [], [])
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataFormatError("expected 'label<TAB>view1<TAB>view2'", line=lineno)
        try:
            label = int(fields[0])
        except ValueError:
            raise DataFormatError(f"malformed label {fields[0]!r}", line=lineno) from None
        if not 0 <= label < num_classes:
            raise DataFormatError(f"label {label} outside [0, {num_classes})", line=lineno)
        v1 = _parse_view(fields[1], d1, lineno)
        v2 = _parse_view(fields[2], d2, lineno)
        if v1 is None and v2 is None:
            raise DataFormatError("both views missing", line=lineno)
        columns = missing1 if v1 is None else missing2 if v2 is None else full
        for column, value in zip(columns, (v1, v2, one_hot(label, num_classes))):
            column.append(value)

    def block(columns, widths):
        return Views(*(None if w is None else np.array(c, dtype=np.float64).reshape(len(c), w)
                       for c, w in zip(columns, widths)))

    return PartitionedDataset(block(full, (d1, d2, num_classes)),
                              block(missing1, (None, d2, num_classes)),
                              block(missing2, (d1, None, num_classes)),
                              d1, d2, num_classes)


# ---------------------------------------------------------------------------
# Synthetic two-view Gaussian task.

def block_class_means(num_classes: int, dim: int, scale: float) -> np.ndarray:
    """Pairwise-distinct means: class k puts ``scale`` on its own coordinate block."""
    if dim < num_classes:
        raise ConfigError(f"dim {dim} < num_classes {num_classes}")
    if scale == 0.0:
        raise ConfigError("scale must be nonzero for distinct means")
    means = np.zeros((num_classes, dim), dtype=np.float64)
    block = dim // num_classes
    for k in range(num_classes):
        means[k, k * block:(k + 1) * block] = scale
    return means


@dataclass
class SyntheticSpec:
    """Parameters of the Gaussian two-view task.

    Each view of an example is its class mean plus ``view_correlation`` times
    a shared latent factor pushed through a fixed random map, plus isotropic
    noise. view_correlation=0 makes the views conditionally independent given
    the class; 1 ties them strongly through the latent.
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
    latent_dim: int | None = None

    def __post_init__(self):
        if min(self.d1, self.d2) < 1 or self.num_classes < 2:
            raise ConfigError("need positive dims and at least two classes")
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
            raise ConfigError("noise_sigma must be positive")
        if not 0.0 <= self.view_correlation <= 1.0:
            raise ConfigError("view_correlation must lie in [0, 1]")
        if min(self.m_full, self.m_missing1, self.m_missing2, self.m_test) < 0:
            raise ConfigError("subset sizes must be nonnegative")
        if self.latent_dim is None:
            self.latent_dim = min(self.d1, self.d2)
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be positive")


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
    dependent, so its square root comes from eigh, not Cholesky.
    """
    gram = means @ np.linalg.solve(cov, means.T)  # (K, K)
    evals, evecs = np.linalg.eigh(gram)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))  # root @ root.T == gram
    labels = rng.integers(0, means.shape[0], size=_BAYES_MC_SAMPLES)
    z = rng.standard_normal((_BAYES_MC_SAMPLES, means.shape[0]))
    scores = z @ root.T
    scores += (gram - 0.5 * np.diag(gram)).take(labels, axis=0)
    return float(np.mean(np.argmax(scores, axis=1) == labels))


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
    scale = 1.0 / math.sqrt(spec.latent_dim)
    a1, a2 = (rng.standard_normal((d, spec.latent_dim)) * scale for d in (spec.d1, spec.d2))

    n = spec.m_full + spec.m_missing1 + spec.m_missing2 + spec.m_test
    labels = rng.integers(0, spec.num_classes, size=n)
    u = rng.standard_normal((n, spec.latent_dim))
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
                                 rows[b:need].with_view(2, None),
                                 rows.view1.shape[1], rows.view2.shape[1], rows.label.shape[1])
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
