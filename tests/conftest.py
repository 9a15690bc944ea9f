import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from upliftemm import (
    ContinuousJumpSpec,
    ContinuousPlan,
    Density,
    DiscreteJumpSpec,
    DiscretePlan,
    MarketSpec,
    TimeFunction,
    reduce_discrete,
)
from upliftemm.errors import PlanMismatch, UpliftError


class FactorAtMinusOne(UpliftError):
    """A stochastic-exponential jump factor hit -1 (process absorbed at zero)."""


class UndeterminedIntegral(UpliftError):
    """A path's grid and increments do not determine a stochastic integral."""


# The canonical worked instance used throughout: three stocks, one
# Brownian driver, three Poisson drivers.  Reducing away driver 2 leaves
# a 3x3 system constructed to have the solution
# (theta, lam~_0, lam~_1) = (0.5, 1.5, 1.2).
RATE = 0.02
EXCESS = np.array([0.19, 0.155, -0.06])
SIGMA = [0.2, 0.3, 0.1]
LOADINGS = [
    [0.1, -0.2, 0.2],
    [0.05, 0.1, -0.15],
    [-0.1, 0.3, 0.25],
]
INTENSITIES = [2.0, 1.0, 3.0]
TARGET_SOLUTION = np.array([0.5, 1.5, 1.2])


def make_three_stock_market(horizon: float = 1.0) -> MarketSpec:
    return MarketSpec(
        horizon=horizon,
        s0=[100.0, 50.0, 25.0],
        alpha=list(EXCESS + RATE),
        rate=RATE,
        sigma=[[s] for s in SIGMA],
        jumps=DiscreteJumpSpec(intensities=INTENSITIES, loadings=LOADINGS),
    )


def make_four_driver_market() -> MarketSpec:
    """The canonical market with a fourth Poisson driver of intensity 0.5,
    so one plan can retain, batch and neglect drivers at once."""
    return MarketSpec(
        horizon=1.0,
        s0=[100.0, 50.0, 25.0],
        alpha=list(EXCESS + RATE),
        rate=RATE,
        sigma=[[s] for s in SIGMA],
        jumps=DiscreteJumpSpec(
            intensities=INTENSITIES + [0.5],
            loadings=[row + [y] for row, y in zip(LOADINGS, [0.15, 0.3, -0.2])],
        ),
    )


def make_theta_knot_market() -> MarketSpec:
    """The three-stock market with drifts that step at t = 0.3 and 0.6, so
    the uplifted theta has knots that the constant sigma lacks: a path
    weighted by the density draws three segments' normals (two pairs),
    one under the measure a single segment's (one pair)."""
    base = make_three_stock_market()
    steps = [0.0, 0.3, 0.6, 1.0]
    alpha = [TimeFunction.piecewise(steps, [a, a + 0.03, a - 0.02]) for a in EXCESS + RATE]
    return dataclasses.replace(base, alpha=alpha)


@pytest.fixture
def three_stock_market() -> MarketSpec:
    return make_three_stock_market()


@pytest.fixture
def neglect_plan() -> DiscretePlan:
    return DiscretePlan(retain=(0, 1), neglect=(2,))


@pytest.fixture
def batch_plan() -> DiscretePlan:
    return DiscretePlan(retain=(0,), batches=((1, 2),))


def make_uniform_mark_market() -> MarketSpec:
    """Two stocks, one Brownian, uniform marks on (-0.5, 0.5) at rate 4."""
    return MarketSpec(
        horizon=1.0,
        s0=[100.0, 80.0],
        alpha=[0.08, 0.03],
        rate=RATE,
        sigma=[[0.25], [0.4]],
        jumps=ContinuousJumpSpec(
            density=Density("uniform", (-0.5, 0.5), {}),
            total_intensity=4.0,
        ),
    )


@pytest.fixture
def uniform_mark_market() -> MarketSpec:
    return make_uniform_mark_market()


def make_piecewise_mark_market() -> MarketSpec:
    """The uniform-mark market with total intensity 4 on [0, 0.5) and 5 on
    [0.5, 1]: its uplifted cell measure varies in time."""
    return MarketSpec(
        horizon=1.0,
        s0=[100.0, 80.0],
        alpha=[0.08, 0.03],
        rate=RATE,
        sigma=[[0.25], [0.4]],
        jumps=ContinuousJumpSpec(
            density=Density("uniform", (-0.5, 0.5), {}),
            total_intensity=TimeFunction.piecewise([0.0, 0.5, 1.0], [4.0, 5.0]),
        ),
    )


@pytest.fixture
def piecewise_mark_market() -> MarketSpec:
    return make_piecewise_mark_market()


def make_time_varying_market() -> MarketSpec:
    """The three-stock market with lambda_2(t) = 1 + t and matching drift.

    The drift is constructed so the batched reduction (batch drivers 1
    and 2) solves to theta* = 0.5, lam~*_0 = 1.5, gamma* = 0.8 * gamma(t)
    at every grid time.
    """
    grid = np.linspace(0.0, 1.0, 256)
    lam2 = TimeFunction.samples([0.0, 1.0], [1.0, 2.0])
    lam = [TimeFunction.constant(2.0), TimeFunction.constant(1.0), lam2]
    theta, lam0_star = 0.5, 1.5
    gamma = 1.0 + (1.0 + grid)
    gamma_star = 0.8 * gamma
    alphas = []
    for i in range(3):
        ybar = (1.0 * LOADINGS[i][1] + (1.0 + grid) * LOADINGS[i][2]) / gamma
        a = (
            RATE
            + SIGMA[i] * theta
            + (2.0 - lam0_star) * LOADINGS[i][0]
            + (gamma - gamma_star) * ybar
        )
        alphas.append(TimeFunction.samples(grid, a))
    return MarketSpec(
        horizon=1.0,
        s0=[100.0, 50.0, 25.0],
        alpha=alphas,
        rate=RATE,
        sigma=[[s] for s in SIGMA],
        jumps=DiscreteJumpSpec(intensities=lam, loadings=LOADINGS),
    )


@pytest.fixture
def time_varying_market() -> MarketSpec:
    return make_time_varying_market()


# -- test oracles -------------------------------------------------------------
# Those that read the engine import it when called: fresh-interpreter tests
# import this module and check that the pipeline alone never loads it.


def _out_indices(grid: np.ndarray, out_times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid, out_times)
    if np.any(np.abs(grid[np.minimum(idx, len(grid) - 1)] - out_times) > 1e-12):
        raise ValueError("output times must be grid nodes")
    return idx


def _require_step_coefficients(fns, what: str) -> None:
    """A path's (grid, dw) fixes the integral of a coefficient against
    dW only where the coefficient is a step function on the grid."""
    if not all(fn.is_piecewise_constant for fn in fns):
        raise UndeterminedIntegral(
            f"an interpolated {what} varies inside a grid segment, so the "
            "path's increments do not determine its stochastic integral"
        )


def stock_path_exact(
    spec: MarketSpec, event_times, event_marks, grid, dw, out_times, measure_emm=None
) -> np.ndarray:
    """(n, n_out) stock values of one path from all of its randomness,
    summed one path at a time: the per-path reference of the block engine.

    Under the physical measure the drift uses alpha and the physical
    compensator; with ``measure_emm`` the short rate and that measure's
    compensator.  Output times must be nodes of ``grid``, and sigma a step
    function on it: an interpolated sigma that varies raises
    :class:`UndeterminedIntegral`.
    """
    from upliftemm.blocks import _event_log_factors
    from upliftemm.stochastic import SimulationContext

    _require_step_coefficients([fn for row in spec.sigma for fn in row], "sigma")
    ctx = SimulationContext(spec, out_times, measure_emm=measure_emm)
    out_idx = _out_indices(grid, ctx.out_times)
    dt = np.diff(grid)
    # cumulative stochastic integral and variance drag per stock at nodes
    sig3 = np.moveaxis(spec.sigma_values(grid[:-1]), 0, -1)  # (n, D, K)
    drive = np.einsum("idk,kd->ki", sig3, dw) if dw.size else 0.0
    drag = 0.5 * np.einsum("idk,k->ki", sig3**2, dt)
    cum = np.zeros((len(dt) + 1, spec.n))
    np.cumsum(drive - drag, axis=0, out=cum[1:])
    # (n, n_events), or one row every stock shares on a continuous-mark market
    ev_logs = _event_log_factors(ctx, event_times, event_marks)
    cum_ev = np.zeros((len(ev_logs), ev_logs.shape[1] + 1))
    np.cumsum(ev_logs, axis=1, out=cum_ev[:, 1:])
    n_ev_before = np.searchsorted(event_times, ctx.out_times, side="right")
    log_total = cum[out_idx] + ctx.det_drift + cum_ev[:, n_ev_before].T  # (n_out, n)
    return (np.asarray(spec.s0) * np.exp(log_total)).T


def rn_density_path(spec: MarketSpec, emm, bundle) -> np.ndarray:
    """(n_out,) density process of ``emm`` against the physical measure
    along the path of ``bundle``, summed one path at a time.

    A Gaussian exponential in the Brownian increments times the
    jump-intensity ratio factors, with the deterministic compensator
    drift.  An interpolated theta that varies raises
    :class:`UndeterminedIntegral`.
    """
    from upliftemm.blocks import _event_log_phi
    from upliftemm.stochastic import SimulationContext

    _require_step_coefficients(emm.theta, "theta")
    ctx = SimulationContext(spec, bundle.out_times, density_emm=emm)
    grid, dw, times = bundle.grid, bundle.dw, bundle.event_times
    out_idx = _out_indices(grid, ctx.out_times)
    dt = np.diff(grid)
    cum_z1 = np.zeros(len(dt) + 1)
    if ctx.n_brownians and emm.theta:
        th = np.vstack([np.atleast_1d(fn.value(grid[:-1])) for fn in emm.theta])
        seg = -np.einsum("dk,kd->k", th, dw) - 0.5 * np.einsum("dk,k->k", th**2, dt)
        np.cumsum(seg, out=cum_z1[1:])
    log_phi = _event_log_phi(ctx, times, bundle.event_marks)
    cum_phi = np.concatenate([[0.0], np.cumsum(log_phi)])
    n_ev_before = np.searchsorted(times, ctx.out_times, side="right")
    return np.exp(cum_z1[out_idx] + ctx.z2_drift + cum_phi[n_ev_before])


def block_rows(ctx, seed: int, n_paths: int, first_stream: int = 0):
    """Each path of the engine's blocks in stream order, as (block, row,
    event times, event marks): row p of a block is stream
    ``block.first_stream + p``."""
    from upliftemm.stochastic import _blocks, _Sample

    for _, _, block in _blocks([_Sample(ctx, first_stream)], seed, n_paths):
        for p in range(len(block)):
            lo, hi = block.ev_off[p], block.ev_off[p + 1]
            yield block, p, block.ev_times[lo:hi], block.ev_marks[lo:hi]


def project_price_closed_form(
    spec: MarketSpec,
    plan: DiscretePlan,
    retained_path,
    t: float,
) -> np.ndarray:
    """Fictitious stock prices from a retained-driver path, in closed form.

    The full price factors into a retained part and a neglected part whose
    expectation is one, so the projection onto the reduced information set
    just drops the neglected jump products together with their compensator
    drift.  ``retained_path`` must be a path bundle of the reduced market
    containing time t among its output times.
    """
    if isinstance(plan, ContinuousPlan) or plan.batches:
        raise PlanMismatch(
            "closed-form projection requires a complete-neglect plan"
        )
    fict = reduce_discrete(spec, plan)
    values = stock_path_exact(
        fict.spec,
        event_times=retained_path.event_times,
        event_marks=retained_path.event_marks,
        grid=retained_path.grid,
        dw=retained_path.dw,
        out_times=np.array([t]),
    )
    return values[:, 0]


def cell_probabilities(measure, t: float) -> np.ndarray:
    """p~*(cell) = cell intensity / total intensity of a ``CellMeasure``
    at time t (remainder last: the sum of its gaps' intensities)."""
    rates = measure._table(float(t))[0][:, 0]
    n = len(measure.cells)
    if len(rates) > n:
        rates = np.append(rates[:n], rates[n:].sum())
    return rates / sum(rates)


@dataclass(frozen=True)
class JumpProcessPath:
    """A finite-activity jump process with closed-form continuous part."""

    continuous_part: object  # callable t -> X^c(t)
    quadratic_variation: object  # callable t -> [X^c, X^c](t)
    jump_times: np.ndarray
    jump_sizes: np.ndarray


def doleans_dade_eval(path: JumpProcessPath, t: float) -> float:
    """The stochastic exponential of a jump process at time t."""
    xc = float(path.continuous_part(t))
    qv = float(path.quadratic_variation(t))
    jt = np.asarray(path.jump_times, dtype=float)
    js = np.asarray(path.jump_sizes, dtype=float)
    keep = jt <= t
    factors = 1.0 + js[keep]
    if np.any(factors == 0.0):
        raise FactorAtMinusOne("jump of size -1: exponential absorbed at zero")
    return float(np.exp(xc - 0.5 * qv) * np.prod(factors))


@dataclass(frozen=True)
class IntensityTestReport:
    passed: bool
    max_bin_z: float
    total_z: float
    bin_z: np.ndarray
    expected: np.ndarray
    observed: np.ndarray

    def to_json(self):
        return {
            "passed": bool(self.passed),
            "max_bin_z": float(self.max_bin_z),
            "total_z": float(self.total_z),
            "bin_z": [float(x) for x in self.bin_z],
        }


def empirical_intensity_test(
    event_times_per_path,
    lam: TimeFunction,
    horizon: float,
    n_bins: int = 20,
    z_limit: float = 4.0,
) -> IntensityTestReport:
    """Counting-process test: binned counts against the integrated intensity.

    A correctly simulated process has Poisson bin counts with mean
    n_paths * integral of lambda over the bin; the report compares every
    bin (and the total) by z-score.
    """
    n_paths = len(event_times_per_path)
    if n_paths < 10_000:
        raise ValueError("need at least 1e4 paths for a meaningful test")
    lam = TimeFunction.coerce(lam)
    edges = np.linspace(0.0, horizon, n_bins + 1)
    flat = (
        np.concatenate([np.asarray(t, dtype=float) for t in event_times_per_path])
        if n_paths
        else np.zeros(0)
    )
    observed, _ = np.histogram(flat, bins=edges)
    expected = n_paths * np.array(
        [lam.integral(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    )
    bin_z = (observed - expected) / np.sqrt(expected)
    total_z = (observed.sum() - expected.sum()) / np.sqrt(expected.sum())
    max_bin_z = float(np.max(np.abs(bin_z)))
    return IntensityTestReport(
        passed=bool(max_bin_z < z_limit and abs(total_z) < z_limit),
        max_bin_z=max_bin_z,
        total_z=float(total_z),
        bin_z=bin_z,
        expected=expected,
        observed=observed.astype(float),
    )
