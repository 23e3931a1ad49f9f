"""Exact game analysis on finite discrete distributions.

Everything here works on probability tables over a finite grid of view
pairs, never on trained networks. The point is to verify the minimax
analysis exactly: the closed-form optimal discriminator against the
two-generator mixture, the value -log 4 at equilibrium, the identity
linking the value to the Jensen-Shannon divergence, and the augmented
value whose unique minimum forces both generators onto the real joint.

It also covers the (K+1)-way game that ``train.loss_discriminator`` plays,
where a real pair's class term carries weight 1/(K+1) against 1/2 for each
generator's pairs: fake_response gives that game's best-response fake
probability, which the decide rule's Fake gate reads.

Natural logarithms throughout, so -log 4 is about -1.386294.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_LOG_FLOOR = 1e-300
_SUM_TOL = 1e-12
LOG4 = math.log(4.0)
THEOREM_TOL = 1e-10  # check_theorem's bound on the identity residual
GRID_STEP = 1e-3  # brute_force_discriminator's grid, and its gap bound on live cells
# cells brute_force_discriminator scores at a time: its (cells, grid) score
# block stays 32 x 1001 at the default step (a quarter of a megabyte), whatever
# the table's size
_BRUTE_FORCE_CELLS = 32


def _table(table, message: str, upper: float | None = None) -> np.ndarray:
    """table as a nonempty 2-D float64 array of finite entries in [0, upper]."""
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2 or t.size == 0:
        raise DimensionError("table must be a nonempty 2-D array")
    if not np.all(np.isfinite(t)) or np.any(t < 0) or (upper is not None and np.any(t > upper)):
        raise ValueError(message)
    return t


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """A joint distribution over an n1 x n2 grid of view-pair values."""

    table: np.ndarray

    def __post_init__(self):
        t = _table(self.table, "table entries must be finite and nonnegative")
        if abs(float(t.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"table sums to {float(t.sum())!r}, not 1")
        object.__setattr__(self, "table", t)


@dataclass(frozen=True, eq=False)
class DiscriminatorTable:
    """A discriminator response in [0, 1] for every support cell."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table",
                           _table(self.table, "discriminator entries must lie in [0, 1]", 1.0))


def _dist(x) -> np.ndarray:
    """The table of a DiscreteJoint, or of one built (and so validated) from an array."""
    return (x if isinstance(x, DiscreteJoint) else DiscreteJoint(x)).table


def _disc(x) -> np.ndarray:
    """The table of a DiscriminatorTable, or of one built from an array."""
    return (x if isinstance(x, DiscriminatorTable) else DiscriminatorTable(x)).table


def _same_shape(*tables):
    shape = tables[0].shape
    for t in tables[1:]:
        if t.shape != shape:
            raise DimensionError(f"shape mismatch: {t.shape} vs {shape}")


def mixture(pg1, pg2) -> DiscreteJoint:
    """Equal-weight mixture of the two generator joints."""
    a, b = _dist(pg1), _dist(pg2)
    _same_shape(a, b)
    return DiscreteJoint(0.5 * (a + b))


def _share(part: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """part / (part + rest) cellwise; 0.5 on dead cells, where both are 0."""
    _same_shape(part, rest)
    den = part + rest
    return np.where(den > 0, part / np.where(den > 0, den, 1.0), 0.5)


def optimal_discriminator(p_real, pg1, pg2) -> DiscriminatorTable:
    """Best response p_real / (p_real + mixture), cellwise.

    Cells carrying no mass under either side are set to 0.5; the value
    there is irrelevant to the game (no term of the value function sees
    them) and 0.5 keeps the table well defined everywhere.
    """
    real = _dist(p_real)
    mix = mixture(pg1, pg2).table
    return DiscriminatorTable(_share(real, mix))


def fake_response(p_real, pg1, pg2, num_classes: int) -> DiscriminatorTable:
    """Best-response fake probability q / (p_real/(K+1) + q), cellwise.

    q is the generator mixture. This is the fake output that minimises the
    population form of the discriminator loss in train.py: a real pair's
    class term weighs 1/(K+1), each generator's pairs weigh 1/2. The class
    outputs share the rest in proportion to the real class mass, so their
    argmax stays the Bayes class. Where q = p_real the response is
    (K+1)/(K+2), and the strict decide rule (Fake when above 1/2) passes a
    cell only where q <= p_real/(K+1), so at most 2/(K+1) of either
    generator's mass. Dead cells are set to 0.5, as in
    optimal_discriminator.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be at least 1")
    real = _dist(p_real) / (num_classes + 1)
    mix = mixture(pg1, pg2).table
    return DiscriminatorTable(_share(mix, real))


def value_function(d, p_real, pg1, pg2) -> float:
    """Expected log payoff of discriminator table d against the three joints.

    Sum of p_real*log d plus half of each generator mass times log(1-d),
    with logs floored at 1e-300 so boundary tables stay finite.
    """
    dt = _disc(d)
    real, a, b = _dist(p_real), _dist(pg1), _dist(pg2)
    _same_shape(dt, real, a, b)
    log_d = np.log(np.maximum(dt, _LOG_FLOOR))
    log_1md = np.log(np.maximum(1.0 - dt, _LOG_FLOOR))
    return float(np.sum(real * log_d) + 0.5 * np.sum(a * log_1md) + 0.5 * np.sum(b * log_1md))


def brute_force_discriminator(p_real, pg1, pg2, step: float = GRID_STEP,
                              real_weight: float = 1.0) -> DiscriminatorTable:
    """Grid-search best response, the slow road to the closed form.

    For every cell the scalar objective w*alpha*log z + mix*log(1-z) is
    evaluated on the grid {0, step, ..., 1} and the argmax kept. Exists to
    confirm optimal_discriminator (w = 1) and fake_response (w = 1/(K+1),
    where z is one minus the fake probability) independently of any
    calculus. The cells are scored _BRUTE_FORCE_CELLS at a time; each score
    is its own product and sum, so the blocks give the table of one pass.
    """
    if not real_weight > 0:
        raise ValueError("real_weight must be positive")
    real = real_weight * _dist(p_real)
    mix = mixture(pg1, pg2).table
    _same_shape(real, mix)
    grid = np.arange(0.0, 1.0 + step / 2.0, step)
    log_z = np.log(np.maximum(grid, _LOG_FLOOR))
    log_1mz = np.log(np.maximum(1.0 - grid, _LOG_FLOOR))
    cells, cell_mix = real.reshape(-1, 1), mix.reshape(-1, 1)
    best = np.empty(real.size)
    for start in range(0, real.size, _BRUTE_FORCE_CELLS):
        rows = slice(start, start + _BRUTE_FORCE_CELLS)
        # objective per cell and grid point: (cells, grid)
        scores = cells[rows] * log_z + cell_mix[rows] * log_1mz
        best[rows] = grid[np.argmax(scores, axis=1)]
    return DiscriminatorTable(best.reshape(real.shape))


def brute_force_gap(p_real, pg1, pg2) -> float:
    """Largest |brute_force_discriminator - optimal_discriminator| on live cells.
    A dead cell (no mass under the real joint or the mixture) is skipped: the
    game never sees it, the closed form pins it at 0.5 and the grid at 0."""
    live = (_dist(p_real) + mixture(pg1, pg2).table) > 0
    gap = (brute_force_discriminator(p_real, pg1, pg2).table
           - optimal_discriminator(p_real, pg1, pg2).table)
    return float(np.max(np.abs(gap[live])))


def random_joint(rng: np.random.Generator, n1: int, n2: int,
                 sparsity: float = 0.0) -> DiscreteJoint:
    """Random instance generator for property checks.

    sparsity is the expected fraction of cells emptied before normalizing;
    at least one cell always keeps mass.
    """
    t = rng.random((n1, n2))
    if sparsity > 0.0:
        t[rng.random((n1, n2)) < sparsity] = 0.0
        if t.sum() == 0.0:
            t[rng.integers(0, n1), rng.integers(0, n2)] = 1.0
    return DiscreteJoint(t / t.sum())


def kl(p, q) -> float:
    """KL divergence sum p*log(p/q) over p's support; +inf if q misses mass.

    Cells with p=0 contribute nothing (the 0*log 0 convention).
    """
    pt, qt = _dist(p), _dist(q)
    _same_shape(pt, qt)
    mask = pt > 0
    if np.any(qt[mask] == 0):
        return math.inf
    return float(np.sum(pt[mask] * np.log(pt[mask] / qt[mask])))


def jsd(p, q) -> float:
    """Jensen-Shannon divergence, always finite, in [0, log 2]."""
    pt, qt = _dist(p), _dist(q)
    _same_shape(pt, qt)
    m = 0.5 * (pt + qt)
    return 0.5 * kl(pt, m) + 0.5 * kl(qt, m)


@dataclass(frozen=True)
class TheoremReport:
    """Residuals from checking the equilibrium statement on one triple."""

    value: float               # V at the optimal discriminator
    jsd_real_mixture: float
    identity_residual: float   # |value - (-log4 + 2*jsd_real_mixture)|
    equilibrium_gap: float     # value - (-log4); zero iff mixture matches p_real
    ok: bool


def check_theorem(p_real, pg1, pg2) -> TheoremReport:
    """Verify V(D*) = -log4 + 2*JSD(p_real, mixture) on one triple.

    The value sits at its global minimum -log 4 exactly when the mixture
    equals the real joint; the gap above -log 4 is twice the divergence.
    ok requires the identity residual below THEOREM_TOL and agreement
    between "gap below THEOREM_TOL" and "divergence below THEOREM_TOL/2".
    """
    d_star = optimal_discriminator(p_real, pg1, pg2)
    v = value_function(d_star, p_real, pg1, pg2)
    div = jsd(p_real, mixture(pg1, pg2))
    residual = abs(v - (-LOG4 + 2.0 * div))
    gap = v + LOG4
    ok = residual < THEOREM_TOL and ((abs(gap) < THEOREM_TOL) == (2.0 * div < THEOREM_TOL))
    return TheoremReport(v, div, residual, gap, ok)


def augmented_value(d, p_real, pg1, pg2) -> float:
    """Value plus the two generator-to-real divergences.

    Adding JSD(pg1, p_real) and JSD(pg2, p_real) removes the spurious
    minima where only the mixture matches the real joint: the augmented
    value reaches -log 4 exactly when both generators match it.
    """
    return (value_function(d, p_real, pg1, pg2)
            + jsd(_dist(pg1), _dist(p_real)) + jsd(_dist(pg2), _dist(p_real)))
