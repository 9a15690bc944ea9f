import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from upliftemm import (
    ContinuousPlan,
    DiscreteJumpSpec,
    DiscretePlan,
    MarketSpec,
    TimeFunction,
    assemble_mpr_system,
    classify_over_grid,
    reduce_market,
    solve_mpr,
    solve_unique_emm,
)
from upliftemm import mpr
from upliftemm.errors import InvalidIntensities, NotComplete, ShapeMismatch
from upliftemm.mpr import ARBITRAGE, COMPLETE, INCOMPLETE_ARBITRAGE_FREE
from upliftemm.timefns import derivation

from conftest import (
    INTENSITIES,
    LOADINGS,
    RATE,
    SIGMA,
    TARGET_SOLUTION,
    make_piecewise_mark_market,
    make_three_stock_market,
    make_time_varying_market,
)


def gaussian_elimination(A, b):
    """Naive elimination with partial pivoting: the independent oracle."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        A[[col, pivot]] = A[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def reduced_system_spec() -> MarketSpec:
    """The 3x3 fictitious instance: drivers 0 and 1 of the canonical market."""
    return MarketSpec(
        horizon=1.0,
        s0=[100.0, 50.0, 25.0],
        alpha=[0.19 + RATE, 0.155 + RATE, -0.06 + RATE],
        rate=RATE,
        sigma=[[s] for s in SIGMA],
        jumps=DiscreteJumpSpec(
            intensities=INTENSITIES[:2],
            loadings=[row[:2] for row in LOADINGS],
        ),
    )


class TestAssembly:
    def test_single_stock_single_brownian(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.07], rate=0.02, sigma=[[0.25]]
        )
        system = assemble_mpr_system(spec, 0.0)
        assert system.matrix.shape == (1, 1)
        assert system.matrix[0, 0] == 0.25
        assert system.rhs[0] == pytest.approx(0.05)

    def test_shape_and_layout(self, three_stock_market):
        system = assemble_mpr_system(three_stock_market, 0.0)
        assert system.matrix.shape == (3, 4)
        assert system.unknowns == (
            "theta_0", "lambda_tilde_0", "lambda_tilde_1", "lambda_tilde_2",
        )

    def test_zero_premium_gives_zero_rhs(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0, 1.0], alpha=[0.02, 0.02], rate=0.02,
            sigma=[[0.2], [0.3]],
            jumps=DiscreteJumpSpec(intensities=[1.0], loadings=[[0.0], [0.0]]),
        )
        system = assemble_mpr_system(spec, 0.0)
        assert np.allclose(system.rhs, 0.0)

    def test_intensity_coefficient_sign(self, three_stock_market):
        # the unknown lambda~_m enters with coefficient -y_im
        system = assemble_mpr_system(three_stock_market, 0.0)
        assert np.allclose(system.matrix[:, 1:], -np.array(LOADINGS))

    def test_continuous_mark_space_rejected(self, uniform_mark_market):
        with pytest.raises(ShapeMismatch):
            assemble_mpr_system(uniform_mark_market, 0.0)


class TestSolve:
    def test_constructed_instance_recovers_target(self):
        # independent oracle: naive Gaussian elimination on the same system
        system = assemble_mpr_system(reduced_system_spec(), 0.0)
        oracle = gaussian_elimination(system.matrix, system.rhs)
        assert np.allclose(oracle, TARGET_SOLUTION, atol=1e-12)
        cls = solve_mpr(system)
        assert cls.tag == COMPLETE
        assert np.allclose(cls.solution, TARGET_SOLUTION, atol=1e-12)
        assert np.allclose(cls.solution, oracle, atol=1e-12)
        assert cls.residual < 1e-10

    def test_zero_premium_fixed_point(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0, 1.0], alpha=[0.02, 0.02], rate=0.02,
            sigma=[[0.2], [0.0]],
            jumps=DiscreteJumpSpec(intensities=[1.5], loadings=[[0.1], [0.2]]),
        )
        cls = solve_mpr(assemble_mpr_system(spec, 0.0))
        assert cls.tag == COMPLETE
        assert cls.solution[0] == pytest.approx(0.0, abs=1e-14)
        assert cls.solution[1] == pytest.approx(1.5, abs=1e-12)
        assert cls.residual == 0.0

    def test_underdetermined_is_incomplete(self, three_stock_market):
        cls = solve_mpr(assemble_mpr_system(three_stock_market, 0.0))
        assert cls.tag == INCOMPLETE_ARBITRAGE_FREE
        assert cls.nullspace_dim == 1
        assert cls.residual < 1e-9
        assert cls.solution_note == "minimum-norm solution"

    def test_inconsistent_system_is_arbitrage(self):
        # two stocks with identical exposures but different excess returns
        spec = MarketSpec(
            horizon=1.0, s0=[1.0, 1.0], alpha=[0.08, 0.05], rate=0.02,
            sigma=[[0.2], [0.2]],
        )
        cls = solve_mpr(assemble_mpr_system(spec, 0.0))
        assert cls.tag == ARBITRAGE
        assert cls.solution is None

    def test_nonpositive_intensity_flagged(self):
        # forward-construct a unique solution with lambda~ < 0
        y, lam, sigma = 0.2, 1.0, 0.25
        theta, lam_t = 0.3, -0.5
        alpha = RATE + sigma * theta + (lam - lam_t) * y
        spec = MarketSpec(
            horizon=1.0, s0=[1.0, 1.0], alpha=[alpha, RATE], rate=RATE,
            sigma=[[sigma], [0.4]],
            jumps=DiscreteJumpSpec(intensities=[lam], loadings=[[y], [0.0]]),
        )
        cls = solve_mpr(assemble_mpr_system(spec, 0.0))
        assert cls.tag == COMPLETE
        assert cls.nonpositive_intensities == (0,)

    def test_runtime_under_a_millisecond(self):
        system = assemble_mpr_system(reduced_system_spec(), 0.0)
        solve_mpr(system)  # warm up
        t0 = time.perf_counter()
        solve_mpr(system)
        assert time.perf_counter() - t0 < 1e-3

    @given(st.floats(0.1, 10.0), st.integers(0, 2))
    def test_row_scaling_invariance(self, scale, row):
        system = assemble_mpr_system(reduced_system_spec(), 0.0)
        A = system.matrix.copy()
        b = system.rhs.copy()
        A[row] *= scale
        b[row] *= scale
        scaled = type(system)(matrix=A, rhs=b, unknowns=system.unknowns, t=0.0)
        cls = solve_mpr(scaled)
        assert cls.tag == COMPLETE
        assert np.allclose(cls.solution, TARGET_SOLUTION, atol=1e-9)


class TestGrid:
    def test_constant_market_time_invariant(self):
        grid = np.linspace(0.0, 1.0, 9)
        out = classify_over_grid(reduced_system_spec(), grid)
        assert out.all_complete
        sols = out.solution_matrix()
        assert np.all(sols == sols[0])

    def test_time_varying_recovers_constructed_solution(self):
        spec = make_time_varying_market()
        # reduce by hand: this market's drivers 1, 2 need batching, so test
        # the original's incompleteness instead plus the per-time tags
        grid = np.linspace(0.0, 1.0, 11)
        out = classify_over_grid(spec, grid)
        assert all(e.tag == INCOMPLETE_ARBITRAGE_FREE for e in out.entries)

    def test_single_point_grid_matches_solve(self):
        spec = reduced_system_spec()
        out = classify_over_grid(spec, np.array([0.0]))
        direct = solve_mpr(assemble_mpr_system(spec, 0.0))
        assert np.allclose(out.entries[0].solution, direct.solution)


# -- the stacked grid solve against the one-node solve -------------------------


def _fictitious(make, plan):
    return lambda: reduce_market(make(), plan).spec


# the fictitious markets of the benchmark's three workload shapes
WORKLOAD_FICTITIOUS = {
    "const-neglect": _fictitious(
        make_three_stock_market, DiscretePlan(retain=(0, 1), neglect=(2,))
    ),
    "tv-batch": _fictitious(
        make_time_varying_market, DiscretePlan(retain=(0,), batches=((1, 2),))
    ),
    "cont-cells": _fictitious(
        make_piecewise_mark_market,
        ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True),
    ),
}


def _step(before, after):
    return TimeFunction.piecewise([0.0, 0.5, 1.0], [before, after])


def complete_then_deficient_market() -> MarketSpec:
    """Complete on [0, 0.5); the jump loadings drop to 0 after, leaving a
    zero column: incomplete but consistent (theta = 0.5, lam~ = 1.5)."""
    sig, ys = (0.2, 0.3), (0.1, 0.2)
    alpha = [_step(RATE + s * 0.5 + 0.5 * y, RATE + s * 0.5) for s, y in zip(sig, ys)]
    return MarketSpec(
        horizon=1.0, s0=[1.0, 1.0], alpha=alpha, rate=RATE,
        sigma=[[s] for s in sig],
        jumps=DiscreteJumpSpec(
            intensities=[2.0], loadings=[[_step(y, 0.0)] for y in ys]
        ),
    )


def sometimes_arbitrage_market() -> MarketSpec:
    """Two stocks with the same exposure: consistent (overdetermined) on
    [0, 0.5), different excess returns, so arbitrage, after."""
    return MarketSpec(
        horizon=1.0, s0=[1.0, 1.0], alpha=[0.08, _step(0.08, 0.05)], rate=RATE,
        sigma=[[0.2], [0.2]],
    )


def overdetermined_consistent_market() -> MarketSpec:
    """Three stocks, one Brownian, one driver, time-varying and consistent:
    theta = 0.3 + 0.2 t, lam~ = 1.5 against lam = 2."""
    t = np.linspace(0.0, 1.0, 5)
    sig, ys = (0.2, 0.3, 0.1), (0.1, -0.2, 0.25)
    alpha = [
        TimeFunction.samples(t, RATE + s * (0.3 + 0.2 * t) + 0.5 * y)
        for s, y in zip(sig, ys)
    ]
    return MarketSpec(
        horizon=1.0, s0=[1.0] * 3, alpha=alpha, rate=RATE,
        sigma=[[s] for s in sig],
        jumps=DiscreteJumpSpec(intensities=[2.0], loadings=[[y] for y in ys]),
    )


def crossing_intensity_market() -> MarketSpec:
    """Complete, with solved lam~(t) = 1 - 2t: nonpositive from t = 0.5."""
    t = np.array([0.0, 1.0])
    y, lam, sigma, theta = 0.2, 1.0, 0.25, 0.3
    alpha0 = TimeFunction.samples(t, RATE + sigma * theta + (lam - (1.0 - 2.0 * t)) * y)
    return MarketSpec(
        horizon=1.0, s0=[1.0, 1.0], alpha=[alpha0, RATE + 0.4 * theta], rate=RATE,
        sigma=[[sigma], [0.4]],
        jumps=DiscreteJumpSpec(intensities=[lam], loadings=[[y], [0.0]]),
    )


STACK_FIXTURES = {
    **WORKLOAD_FICTITIOUS,
    "complete-then-deficient": complete_then_deficient_market,
    "sometimes-arbitrage": sometimes_arbitrage_market,
    "overdetermined-consistent": overdetermined_consistent_market,
    "crossing-intensity": crossing_intensity_market,
}


def _per_node(spec, grid):
    return [solve_mpr(assemble_mpr_system(spec, float(t))) for t in grid]


class TestStackedGrid:
    @pytest.mark.parametrize("name", sorted(STACK_FIXTURES))
    def test_matches_one_node_solves(self, name):
        spec = STACK_FIXTURES[name]()
        grid = np.linspace(0.0, 1.0, 256)
        stacked = classify_over_grid(spec, grid).entries
        for got, want in zip(stacked, _per_node(spec, grid), strict=True):
            assert got.t == want.t
            assert got.tag == want.tag
            assert got.rank == want.rank
            assert got.nullspace_dim == want.nullspace_dim
            assert got.nonpositive_intensities == want.nonpositive_intensities
            assert got.solution_note == want.solution_note
            if want.solution is None:
                assert got.solution is None
            else:
                assert np.array_equal(got.solution, want.solution)

    def test_fixtures_cover_every_outcome(self):
        grid = np.linspace(0.0, 1.0, 256)

        def tags(make):
            return {e.tag for e in _per_node(make(), grid)}

        assert tags(complete_then_deficient_market) == {
            COMPLETE, INCOMPLETE_ARBITRAGE_FREE
        }
        assert tags(sometimes_arbitrage_market) == {COMPLETE, ARBITRAGE}
        assert tags(overdetermined_consistent_market) == {COMPLETE}
        nodes = _per_node(crossing_intensity_market(), grid)
        assert any(e.nonpositive_intensities for e in nodes)
        assert not all(e.nonpositive_intensities for e in nodes)

    @pytest.mark.parametrize("name", sorted(STACK_FIXTURES))
    def test_solve_unique_emm_names_the_first_bad_node(self, name):
        spec = STACK_FIXTURES[name]()
        grid = np.linspace(0.0, 1.0, 256)
        # a market of constant and piecewise-constant coefficients is solved
        # at the left end of each piece, any other at the grid nodes
        nodes = _per_node(spec, derivation(spec.coefficient_functions(), grid)[0])
        bad = next((e for e in nodes if e.tag != COMPLETE), None)
        if bad is not None:
            error, message = NotComplete, (
                f"market is {bad.tag} at t={bad.t:g} "
                f"(rank {bad.rank}, nullspace {bad.nullspace_dim})"
            )
        else:
            bad = next((e for e in nodes if e.nonpositive_intensities), None)
            if bad is None:
                solve_unique_emm(spec, grid)
                return
            error, message = InvalidIntensities, (
                f"unique solution has nonpositive intensities "
                f"{bad.nonpositive_intensities} at t={bad.t:g}"
            )
        with pytest.raises(error) as info:
            solve_unique_emm(spec, grid)
        assert str(info.value) == message

    def test_grid_solve_makes_no_per_node_call(self, monkeypatch):
        def refuse(system):
            raise AssertionError("solve_mpr called per node")

        monkeypatch.setattr(mpr, "solve_mpr", refuse)
        spec = WORKLOAD_FICTITIOUS["tv-batch"]()
        assert not spec.is_constant
        out = classify_over_grid(spec, np.linspace(0.0, 1.0, 256))
        assert out.all_complete
        assert out.solution_matrix().shape == (256, 3)


def _lu_rank(A: np.ndarray) -> int:
    """The rank rule on scipy's LU factor of A without its zero columns:
    the independent oracle.  (On the full matrix LU's diagonal can miss a
    pivot: a zero column uses up a row.)"""
    A = A[:, np.any(A != 0.0, axis=0)]
    scale = np.max(np.abs(A), initial=0.0)
    if scale == 0.0:
        return 0
    u = scipy.linalg.lu(A)[2]
    return int(np.sum(np.abs(np.diag(u)) > mpr.PIVOT_RTOL * scale))


# Vandermonde rows x^0..x^(p-1) on distinct positive nodes have only
# nonzero minors, so every pivot of their elimination is far from zero.
VANDERMONDE_NODES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@st.composite
def rank_test_matrices(draw):
    """Scaled Vandermonde rows, with repeated nodes (duplicated rows) and
    zeroed columns: every pivot is an exact zero or far above the
    threshold, so the rank does not hang on rounding."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 5))
    nodes = draw(st.lists(st.sampled_from(VANDERMONDE_NODES), min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from([-2.0, -0.3, 0.7, 1.0, 3.0]),
                           min_size=n, max_size=n))
    A = np.array(scales)[:, None] * np.array(nodes)[:, None] ** np.arange(p)
    A[:, draw(st.lists(st.booleans(), min_size=p, max_size=p))] = 0.0
    return A


class TestPivotRank:
    @given(rank_test_matrices())
    def test_matches_scipy_lu(self, A):
        assert mpr._pivot_ranks(A[None])[0] == _lu_rank(A)

    @given(st.lists(rank_test_matrices(), min_size=2, max_size=6))
    def test_stack_ranks_each_node_alone(self, mats):
        shape = mats[0].shape
        same = [A for A in mats if A.shape == shape]
        stacked = mpr._pivot_ranks(np.stack(same))
        assert list(stacked) == [_lu_rank(A) for A in same]

    @pytest.mark.parametrize("A", [
        [[0.0, 1.0]],
        [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ])
    def test_a_column_without_pivot_hides_no_later_pivot(self, A):
        # scipy.linalg.lu's diagonal reads fewer pivots on each of these
        A = np.array(A)
        assert mpr._pivot_ranks(A[None])[0] == np.linalg.matrix_rank(A)
