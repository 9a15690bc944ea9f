"""Market-price-of-risk systems: assembly, solving, classification.

At a fixed time t the absence of arbitrage requires, for every stock i,

    alpha_i(t) - r(t) = sum_j sigma_ij(t) theta_j
                        + sum_m (lambda_m(t) - lambda_tilde_m) y_im(t),

a linear system in the unknowns x = [theta_1..theta_D,
lambda_tilde_1..lambda_tilde_M].  Moving known terms to the left gives
rows A[i] = [sigma_i1..sigma_iD, -y_i1..-y_iM] and right-hand side
b[i] = alpha_i - r - sum_m lambda_m y_im (so the coefficient of
lambda_tilde_m is -y_im).  A unique solution means the market is
complete; a consistent underdetermined system is incomplete but
arbitrage-free; an inconsistent one admits arbitrage.

On a grid of K times the systems are stacked, A (K, n, D+M) and b (K, n),
and classified in one array pass (one system is the K = 1 case): a node's
rank counts the pivots above PIVOT_RTOL * max|A| met by one partial-pivot
elimination to row echelon form run on all nodes; square full-rank nodes
are solved by one ``np.linalg.solve`` on the stack, the others by
``np.linalg.lstsq``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .model import DiscreteJumpSpec, MarketSpec, default_grid
from .timefns import stack_values

__all__ = [
    "MprSystem",
    "MarketClassification",
    "GridClassification",
    "assemble_mpr_system",
    "solve_mpr",
    "classify_over_grid",
    "COMPLETE",
    "INCOMPLETE_ARBITRAGE_FREE",
    "ARBITRAGE",
]

COMPLETE = "Complete"
INCOMPLETE_ARBITRAGE_FREE = "IncompleteArbitrageFree"
ARBITRAGE = "Arbitrage"

# rank decisions: drop pivots below PIVOT_RTOL * max|A|
PIVOT_RTOL = 1e-12
# an underdetermined system counts as consistent when the least-squares
# residual is below CONSISTENCY_RTOL * (1 + |b|)
CONSISTENCY_RTOL = 1e-9
_TAGS = np.array([COMPLETE, COMPLETE, INCOMPLETE_ARBITRAGE_FREE, ARBITRAGE])
_NOTES = np.array(["", "overdetermined but consistent", "minimum-norm solution", ""])


@dataclass(frozen=True)
class MprSystem:
    """The linear system A x = b at time t with labelled unknowns."""

    matrix: np.ndarray
    rhs: np.ndarray
    unknowns: tuple[str, ...]
    t: float

    @property
    def n_theta(self) -> int:
        return sum(1 for u in self.unknowns if u.startswith("theta"))


@dataclass(frozen=True)
class MarketClassification:
    """Outcome of solving one MPR system."""

    tag: str
    t: float
    solution: np.ndarray | None
    rank: int
    nullspace_dim: int
    residual: float
    nonpositive_intensities: tuple[int, ...]
    solution_note: str = ""


def _assemble(spec: MarketSpec, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked systems at K times: A (K, n, D+M) and b (K, n)."""
    if not isinstance(spec.jumps, DiscreteJumpSpec):
        raise ShapeMismatch(
            "continuous mark spaces have no finite unknown vector; "
            "reduce to cells first"
        )
    D, M = spec.n_brownians, spec.n_jump_drivers
    A = np.zeros((len(ts), spec.n, D + M))
    A[:, :, :D] = spec.sigma_values(ts)
    ys = spec.jumps.loading_values(ts)
    A[:, :, D:] = -ys
    b = stack_values(spec.alpha, ts) - spec.rate.value(ts)[:, None]
    return A, b - (ys @ spec.jumps.intensity_values(ts)[:, :, None])[:, :, 0]


def _unknowns(spec: MarketSpec) -> tuple[str, ...]:
    return tuple(f"theta_{d}" for d in range(spec.n_brownians)) + tuple(
        f"lambda_tilde_{m}" for m in range(spec.n_jump_drivers)
    )


def assemble_mpr_system(spec: MarketSpec, t: float) -> MprSystem:
    """Build the risk-premium system of a (discrete-jump) market at time t."""
    A, b = _assemble(spec, np.array([float(t)]))
    return MprSystem(matrix=A[0], rhs=b[0], unknowns=_unknowns(spec), t=float(t))


def _pivot_ranks(A: np.ndarray) -> np.ndarray:
    """Rank of each of K stacked matrices (K, n, p): the pivots above
    PIVOT_RTOL * max|A| of that matrix met by a partial-pivot elimination
    to row echelon form.  A column without such a pivot uses up no row, so
    a zero column cannot hide the pivots after it."""
    K, n, p = A.shape
    thresh = PIVOT_RTOL * np.max(np.abs(A), axis=(1, 2), initial=0.0)
    U = A.copy()
    nodes = np.arange(K)
    free = np.ones((K, n), dtype=bool)  # rows not yet used as a pivot
    for j in range(p):
        col = np.where(free, np.abs(U[:, :, j]), -1.0)
        r = col.argmax(axis=1)
        ok = col[nodes, r] > thresh
        free[nodes[ok], r[ok]] = False
        pivot_row = U[nodes, r]
        f = np.divide(U[:, :, j], pivot_row[:, j, None], out=np.zeros((K, n)),
                      where=free & ok[:, None])
        U -= f[:, :, None] * pivot_row[:, None, :]
    return n - free.sum(axis=1)


def _classify(A: np.ndarray, b: np.ndarray, n_theta: int) -> dict:
    """Classify and solve K stacked systems A (K, n, p), b (K, n) into the
    per-node arrays of a GridClassification."""
    K, n, p = A.shape
    ranks = _pivot_ranks(A)
    square = (ranks == p) & (n == p)
    x = np.empty((K, p))
    if square.any():
        x[square] = np.linalg.solve(A[square], b[square][:, :, None])[:, :, 0]
    for k in np.flatnonzero(~square):
        x[k] = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
    residuals = np.max(np.abs((A @ x[:, :, None])[:, :, 0] - b), axis=1, initial=0.0)
    bnorm = np.sqrt((b * b).sum(axis=1))
    arbitrage = ~square & (residuals > CONSISTENCY_RTOL * (1.0 + bnorm))
    # 0 square complete, 1 overdetermined, 2 incomplete, 3 arbitrage
    case = np.where(arbitrage, 3, 2 - (ranks == p) - square)
    x[arbitrage] = np.nan
    nonpositive = x[:, n_theta:] <= 0.0  # False on the NaN rows
    return dict(tags=_TAGS[case], notes=_NOTES[case], ranks=ranks, solutions=x,
                residuals=residuals, nonpositive=nonpositive)


def solve_mpr(system: MprSystem) -> MarketClassification:
    """Classify a system as Complete / IncompleteArbitrageFree / Arbitrage.

    Complete systems return the unique solution; consistent underdetermined
    ones return the minimum-norm particular solution together with the
    nullspace dimension.  A complete solution with some lambda_tilde <= 0
    is flagged: the linear algebra succeeded but no equivalent measure of
    the assumed form exists.  This is the one-node case of
    :func:`classify_over_grid`.
    """
    out = _classify(system.matrix[None], system.rhs[None], system.n_theta)
    t = np.array([system.t])
    return GridClassification(grid=t, unknowns=system.unknowns, **out).entry(0)


@dataclass(frozen=True)
class GridClassification:
    """Per-time classifications over a sampling grid, held as arrays over
    the K grid nodes; ``entries`` builds one MarketClassification each."""

    grid: np.ndarray
    unknowns: tuple[str, ...]
    tags: np.ndarray
    notes: np.ndarray
    ranks: np.ndarray
    solutions: np.ndarray  # (K, n_unknowns), NaN rows where there is none
    residuals: np.ndarray
    nonpositive: np.ndarray  # (K, n_intensities) mask

    def entry(self, k: int) -> MarketClassification:
        """The classification of grid node k."""
        tag, rank = str(self.tags[k]), int(self.ranks[k])
        return MarketClassification(
            tag=tag,
            t=float(self.grid[k]),
            solution=None if tag == ARBITRAGE else self.solutions[k].copy(),
            rank=rank,
            nullspace_dim=len(self.unknowns) - rank,
            residual=float(self.residuals[k]),
            nonpositive_intensities=tuple(np.flatnonzero(self.nonpositive[k]).tolist()),
            solution_note=str(self.notes[k]),
        )

    @property
    def entries(self) -> tuple[MarketClassification, ...]:
        return tuple(self.entry(k) for k in range(len(self.grid)))

    @property
    def all_complete(self) -> bool:
        return bool(np.all(self.tags == COMPLETE))

    @property
    def all_emm_valid(self) -> bool:
        return self.all_complete and not self.nonpositive.any()

    def solution_matrix(self) -> np.ndarray:
        """Stacked solutions, shape (len(grid), n_unknowns)."""
        if not self.all_complete:
            raise ValueError("grid contains non-complete classifications")
        return self.solutions.copy()

    def first_failure(self) -> MarketClassification | None:
        bad = np.flatnonzero(self.tags != COMPLETE)
        return self.entry(int(bad[0])) if len(bad) else None


def classify_over_grid(spec: MarketSpec, grid=None) -> GridClassification:
    """Classify the market at each grid time, all nodes in one array pass.

    Constant-coefficient markets are solved once and broadcast, so the
    result is exactly time-invariant.
    """
    if grid is None:
        grid = default_grid(spec.horizon)
    grid = np.asarray(grid, dtype=float)
    const = spec.is_constant
    out = _classify(*_assemble(spec, grid[:1] if const else grid), spec.n_brownians)
    if const:
        out = {k: np.repeat(v, len(grid), axis=0) for k, v in out.items()}
    return GridClassification(grid=grid, unknowns=_unknowns(spec), **out)
