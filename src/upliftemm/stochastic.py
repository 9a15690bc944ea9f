"""Exact path simulation and density processes along paths.

Event times come from thinning against a constant majorant, which samples
an inhomogeneous Poisson process exactly.  The log price is a Gaussian
plus closed-form drift integrals plus the jump factors, and the Gaussian
is drawn exactly over each segment of a grid shared by all paths, so no
coefficient kind carries Euler error.  Randomness is counter-based
(:mod:`upliftemm.philox`): every draw is addressed by (master seed, role,
path stream id, draw index), which makes every path reproducible bit for
bit independently of how the paths are chunked.

Paths are simulated in blocks (:mod:`upliftemm.blocks`), one block after
another on one thread, with two kernel calls for all of a block's paths.
A path's values do not depend on the block size: :func:`simulate_path`
is a block of one, and row k of :func:`simulate_terminal` equals it on
stream ``stream_offset + k``.  It wraps ``_terminal_sample``, which also
sums a per-event hook over each path's events in order (the restriction's
cell counts, hedging's jump leg) and can skip the stock paths of a sample
that only reads Z, counts and increments.  The standalone samplers draw
the same events on one stream or on many.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    PathBundle,
    _block_size,
    _draw_marked_events,
    _event_log_factors,
    _event_log_phi,
    _segment_gaussians,
    _simulate_block,
    _stream_ids,
)
from .errors import (
    NullMark,
    UnboundedIntensity,
    UndeterminedIntegral,
)
from .model import JUMP_GRID_POINTS, ContinuousJumpSpec, DiscreteJumpSpec, MarketSpec
from .philox import poisson_cdf, uniforms
from .timefns import (
    TimeFunction,
    derive,
    integrate_product,
    merged_breakpoints,
    sum_max_value,
)
from .uplift import Emm

__all__ = [
    "RngStreamSpec",
    "PathBundle",
    "TerminalSample",
    "SimulationContext",
    "sample_poisson_inhomogeneous",
    "sample_marked_point_process",
    "stock_path_exact",
    "rn_density_path",
    "simulate_path",
    "simulate_terminal",
    "iterate_bundles",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class RngStreamSpec:
    """Counter-based addressing of one path's draws: (seed, path stream).

    Draw j of a role is Philox counter (j, role, stream id) under the
    seed, the same on any machine and in any block.
    """

    master_seed: int
    stream_id: int

    def uniforms(self, role: str, n: int) -> np.ndarray:
        """(2, n): the two doubles of each of the role's first n counters."""
        return uniforms(self.master_seed, role, np.arange(n), self.stream_id)


# -- simulation context ---------------------------------------------------------


class SimulationContext:
    """Prepared, path-independent data for simulating one market.

    Collects the simulation-measure intensities, the thinning majorant,
    the shared grid with its per-segment Gaussians, constant-intensity
    fast paths, and the deterministic drift and compensator integrals at
    the requested output times (the stocks' drift on first use, so a
    density-only sample integrates no compensator).
    """

    def __init__(
        self,
        spec: MarketSpec,
        out_times,
        measure_emm: Emm | None = None,
        density_emm: Emm | None = None,
    ):
        self.spec = spec
        self.measure_emm = measure_emm
        self.density_emm = density_emm
        T = float(spec.horizon)
        self.horizon = T
        out = np.unique(np.asarray(list(out_times), dtype=float))
        if out.size == 0 or out[0] < 0.0 or out[-1] > T * (1 + 1e-12):
            raise ValueError("output times must lie in [0, horizon]")
        self.out_times = out
        self.n = spec.n
        self.n_brownians = spec.n_brownians

        jumps = spec.jumps
        if jumps is None:
            self.kind = "none"
        elif isinstance(jumps, DiscreteJumpSpec):
            self.kind = "discrete"
        else:
            self.kind = "continuous"

        # simulation-measure intensities and thinning majorant
        self.sim_intensities: tuple[TimeFunction, ...] = ()
        self.mark_measure = None
        self.sim_total_fn: TimeFunction | None = None
        if self.kind == "discrete":
            if measure_emm is not None:
                self.sim_intensities = measure_emm.intensities
            else:
                self.sim_intensities = jumps.intensities
            self.majorant = sum_max_value(self.sim_intensities, 0.0, T) * (1 + 1e-9)
        elif self.kind == "continuous":
            if measure_emm is not None and measure_emm.jump_measure is not None:
                mm = measure_emm.jump_measure
                self.mark_measure = mm
                self.sim_total_fn = mm.time_function("total_intensity", T)
                safety = 1 + (1e-9 if self.sim_total_fn.is_piecewise_constant else 1e-2)
                self.majorant = self.sim_total_fn.max_value(0.0, T) * safety
            else:
                self.sim_total_fn = jumps.total_intensity
                self.majorant = jumps.total_intensity.max_value(0.0, T) * (1 + 1e-9)
        else:
            self.majorant = 0.0
        if self.kind != "none" and not np.isfinite(self.majorant):
            raise UnboundedIntensity("intensity has no finite majorant on the grid")
        # candidate counts are drawn by inverting this table
        mean = self.majorant * T
        self.count_cdf = poisson_cdf(mean) if mean > 0.0 else None

        # constant-intensity fast path for marking events
        self.const_total = None
        self.const_mark_cum = None
        if self.kind == "discrete" and all(
            fn.is_constant for fn in self.sim_intensities
        ):
            vals = np.array([fn.constant_value for fn in self.sim_intensities])
            self.const_total = float(vals.sum())
            self.const_mark_cum = np.cumsum(vals) / vals.sum()
        elif self.kind == "continuous" and self.sim_total_fn.is_constant:
            self.const_total = self.sim_total_fn.constant_value

        # the grid every path shares: the output times and the knots of the
        # coefficients read on it, sigma always and theta when weighting (a
        # Q* path never reads it); events are not on it
        knot_fns = [fn for row in spec.sigma for fn in row]
        if density_emm is not None:
            knot_fns.extend(density_emm.theta)
        self.base_knots = np.unique(
            np.concatenate([merged_breakpoints(knot_fns, 0.0, T), self.out_times])
        )
        self.segments = _segment_gaussians(self)

        # constant-intensity fast path for the density's event factors
        self.const_log_phi = None
        if (
            self.kind == "discrete"
            and density_emm is not None
            and all(fn.is_constant for fn in jumps.intensities)
            and all(fn.is_constant for fn in density_emm.intensities)
        ):
            lam = np.array([fn.constant_value for fn in jumps.intensities])
            lam_t = np.array([fn.constant_value for fn in density_emm.intensities])
            if np.any(lam_t <= 0.0):
                raise NullMark("risk-neutral intensity vanishes on a driver")
            self.const_log_phi = np.log(lam_t / lam)

        # drift integrals to all output times, one call per function, a lone
        # time as a float (numpy's per-call cost); det_drift is built on use
        self._limits = out if len(out) > 1 else float(out[0])
        self.z2_drift = np.zeros(len(out))
        if density_emm is not None:
            self.z2_drift[:] = self._density_drift(density_emm)

    @cached_property
    def det_drift(self) -> np.ndarray:
        """(n_out, n) log-price drift integrals to each output time: the
        rate under a measure, else alpha, less the jump compensator."""
        spec, lim = self.spec, self._limits
        r_int, under_q = spec.rate.integral(0.0, lim), self.measure_emm is not None
        drift = np.zeros((len(self.out_times), spec.n))
        for i in range(spec.n):
            base = r_int if under_q else spec.alpha[i].integral(0.0, lim)
            drift[:, i] = base - self._jump_compensator(i)
        return drift

    def _jump_compensator(self, i: int):
        """integral over [0, tau] of the stock-i jump drift under the
        simulation measure, at each output time tau."""
        spec, lim = self.spec, self._limits
        if self.kind == "none":
            return 0.0
        if self.kind == "discrete":
            total = 0.0
            for m, lam in enumerate(self.sim_intensities):
                total += integrate_product(spec.jumps.loadings[i][m], lam, 0.0, lim)
            return total
        if self.mark_measure is not None:
            fn = self.mark_measure.time_function("mean_jump_intensity", self.horizon)
            return fn.integral(0.0, lim)
        total = spec.jumps.total_intensity
        return integrate_product(total, self._mark_mean_fn, 0.0, lim)

    @cached_property
    def _mark_mean_fn(self) -> TimeFunction:
        """The physical mark mean in time, on the jump grid."""
        dens = self.spec.jumps.density
        grid = np.linspace(0.0, self.horizon, JUMP_GRID_POINTS)
        return derive(dens.mean, dens.time_functions, grid)

    def _density_drift(self, emm: Emm):
        """log of the deterministic density factor at each output time:
        integral of (physical minus risk-neutral) total intensity."""
        spec, lim = self.spec, self._limits
        if self.kind == "none":
            return 0.0
        if self.kind == "discrete":
            total = 0.0
            for lam, lam_t in zip(spec.jumps.intensities, emm.intensities):
                total += lam.integral(0.0, lim) - lam_t.integral(0.0, lim)
            return total
        rn_total = emm.jump_measure.time_function("total_intensity", self.horizon)
        return spec.jumps.total_intensity.integral(0.0, lim) - rn_total.integral(0.0, lim)

    # -- event machinery -----------------------------------------------------

    def total_intensity_at(self, times: np.ndarray) -> np.ndarray:
        """The continuous or constant simulation intensity at ``times``."""
        if self.const_total is not None:
            return np.full(times.shape, self.const_total)
        return np.atleast_1d(self.sim_total_fn.value(times))

    @cached_property
    def sorts_events(self) -> bool:
        """Whether blocks read their events in time order: where a discrete
        market reads a varying samples-kind function (np.interp is faster)."""
        if self.kind != "discrete":
            return False
        rows = [self.sim_intensities, *self.spec.jumps.loadings]
        if self.density_emm is not None:
            rows += [self.spec.jumps.intensities, self.density_emm.intensities]
        return any(fn.kind == "samples" and not fn.is_constant for row in rows for fn in row)

    def sample_marks(self, streams: RngStreamSpec, times: np.ndarray) -> np.ndarray:
        """The marks of a path's events at ``times``, from the path's first
        ``len(times)`` ``marks`` counters, as a block draws them."""
        return self.marks_from_uniforms(streams.uniforms("marks", times.size), times)

    def marks_from_uniforms(self, u: np.ndarray, times: np.ndarray, lam=None):
        """Marks from two rows of uniforms, one column per event.

        Row 0 picks the driver, by ``lam``, the (M, n_events) intensities
        at ``times`` (evaluated when not given), or the mark's quantile; on
        a cell measure row 0 picks the region and row 1 the quantile inside it.
        """
        if self.kind == "discrete":
            if self.const_mark_cum is not None:
                idx = np.searchsorted(self.const_mark_cum, u[0], side="left")
            else:
                if lam is None:
                    lam = np.array([fn.value(times) for fn in self.sim_intensities])
                cum = np.cumsum(lam / lam.sum(axis=0, keepdims=True), axis=0)
                idx = (u[0][None, :] > cum).sum(axis=0)
            return np.minimum(idx, len(self.sim_intensities) - 1).astype(np.int64)
        if self.mark_measure is not None:
            return self.mark_measure.marks_from_uniforms(u, times)
        return np.asarray(self.spec.jumps.density.ppf(u[0], times), dtype=float)


def sample_poisson_inhomogeneous(
    lam: TimeFunction,
    horizon: float,
    streams: RngStreamSpec,
    n_streams: int | None = None,
):
    """Event times of a Poisson process with deterministic intensity.

    The events a one-driver market draws on ``streams``; given
    ``n_streams``, a list of the times on each of that many consecutive
    streams from ``streams.stream_id`` on.
    """
    jumps = DiscreteJumpSpec(intensities=[lam], loadings=[[0.0]])
    return sample_marked_point_process(jumps, horizon, streams, n_streams=n_streams)[0]


def sample_marked_point_process(
    jumps: DiscreteJumpSpec | ContinuousJumpSpec,
    horizon: float,
    streams: RngStreamSpec,
    measure_emm: Emm | None = None,
    n_streams: int | None = None,
    _ctx: "SimulationContext | None" = None,
):
    """Event times plus marks (driver indices or continuous jump sizes).

    The total process runs at the summed intensity; each event is marked
    with driver m with probability lambda_m(t)/lambda(t), or with a draw
    from the mark distribution at the event time.  These are the events
    and marks a simulated path draws on ``streams``; given ``n_streams``,
    lists of the times and of the marks on each of that many consecutive
    streams, drawn in blocks.
    """
    if _ctx is None:
        spec_like = MarketSpec(
            horizon=horizon, s0=(1.0,), alpha=(0.0,), rate=0.0,
            sigma=((),), jumps=jumps,
        )
        _ctx = SimulationContext(spec_like, [horizon], measure_emm=measure_emm)
    count = 1 if n_streams is None else n_streams
    size = _block_size(_ctx)
    times, marks, per_path = [], [], []
    for lo in range(0, count, size):
        sids = _stream_ids(streams.stream_id + lo, min(size, count - lo))
        events = _draw_marked_events(_ctx, streams.master_seed, sids)
        times.append(events.ev_times)
        marks.append(events.ev_marks)
        per_path.append(np.diff(events.ev_off))
    cuts = np.cumsum(np.concatenate(per_path))[:-1]
    times = np.split(np.concatenate(times), cuts)
    marks = np.split(np.concatenate(marks), cuts)
    return (times[0], marks[0]) if n_streams is None else (times, marks)


# -- exact stock evaluation -------------------------------------------------------


def _out_indices(grid: np.ndarray, out_times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid, out_times)
    if np.any(np.abs(grid[np.minimum(idx, len(grid) - 1)] - out_times) > 1e-12):
        raise ValueError("output times must be grid nodes")
    return idx


def _require_step_coefficients(fns, what: str) -> None:
    """A bundle's (grid, dw) fixes the integral of a coefficient against
    dW only where the coefficient is a step function on the grid."""
    if not all(fn.is_piecewise_constant for fn in fns):
        raise UndeterminedIntegral(
            f"an interpolated {what} varies inside a grid segment, so the "
            "path's increments do not determine its stochastic integral"
        )


def _stock_values_from_parts(
    ctx: SimulationContext,
    grid: np.ndarray,
    dw: np.ndarray,
    ev_times: np.ndarray,
    ev_marks: np.ndarray,
    out_idx: np.ndarray,
) -> np.ndarray:
    n = ctx.n
    dt = np.diff(grid)
    K = len(dt)
    # cumulative stochastic integral and variance drag per stock at nodes
    sig3 = np.moveaxis(ctx.spec.sigma_values(grid[:-1]), 0, -1)  # (n, D, K)
    drive = np.einsum("idk,kd->ki", sig3, dw) if dw.size else np.zeros((K, n))
    drag = 0.5 * np.einsum("idk,k->ki", sig3**2, dt)
    cum = np.empty((K + 1, n))
    cum[0] = 0.0
    np.cumsum(drive - drag, axis=0, out=cum[1:])
    ev_logs = _event_log_factors(ctx, ev_times, ev_marks)  # (n, n_ev)
    cum_ev = np.empty((n, ev_logs.shape[1] + 1))
    cum_ev[:, 0] = 0.0
    np.cumsum(ev_logs, axis=1, out=cum_ev[:, 1:])
    n_ev_before = np.searchsorted(ev_times, ctx.out_times, side="right")
    s0 = np.asarray(ctx.spec.s0)
    log_total = (
        cum[out_idx, :] + ctx.det_drift + cum_ev[:, n_ev_before].T
    )  # (n_out, n)
    return (s0 * np.exp(log_total)).T


def stock_path_exact(
    spec: MarketSpec,
    event_times: np.ndarray,
    event_marks: np.ndarray,
    grid: np.ndarray,
    dw: np.ndarray,
    out_times,
    measure_emm: Emm | None = None,
) -> np.ndarray:
    """Exact stock values given all of the path's randomness.

    Under the physical measure the drift uses alpha and the physical
    compensator; with ``measure_emm`` the drift uses the short rate and
    the risk-neutral compensator, i.e. the dynamics under that measure.
    Output times must be nodes of ``grid``, and sigma a step function on
    it: an interpolated sigma that varies raises
    :class:`UndeterminedIntegral`.
    """
    _require_step_coefficients([fn for row in spec.sigma for fn in row], "sigma")
    ctx = SimulationContext(spec, out_times, measure_emm=measure_emm)
    out_idx = _out_indices(grid, ctx.out_times)
    return _stock_values_from_parts(
        ctx, grid, dw, event_times, event_marks, out_idx
    )


def _z_values_from_parts(
    ctx: SimulationContext,
    grid: np.ndarray,
    dw: np.ndarray,
    ev_times: np.ndarray,
    ev_marks: np.ndarray,
    out_idx: np.ndarray,
) -> np.ndarray:
    emm = ctx.density_emm
    dt = np.diff(grid)
    D = ctx.n_brownians
    if D and emm.theta:
        th = np.vstack([np.atleast_1d(fn.value(grid[:-1])) for fn in emm.theta])
        seg = -np.einsum("dk,kd->k", th, dw) - 0.5 * np.einsum("dk,k->k", th**2, dt)
        cum_z1 = np.concatenate([[0.0], np.cumsum(seg)])
    else:
        cum_z1 = np.zeros(len(dt) + 1)
    log_phi = _event_log_phi(ctx, ev_times, ev_marks)
    cum_phi = np.concatenate([[0.0], np.cumsum(log_phi)])
    n_ev_before = np.searchsorted(ev_times, ctx.out_times, side="right")
    z = np.empty(len(out_idx))
    for j, k in enumerate(out_idx):
        z[j] = np.exp(cum_z1[k] + ctx.z2_drift[j] + cum_phi[n_ev_before[j]])
    return z


def rn_density_path(spec: MarketSpec, emm: Emm, bundle: PathBundle) -> np.ndarray:
    """Density process of ``emm`` against the physical measure along a path.

    Exact given the path: a Gaussian exponential in the Brownian
    increments times the jump-intensity ratio factors, with the
    deterministic compensator drift.  An interpolated theta that varies
    raises :class:`UndeterminedIntegral`.
    """
    _require_step_coefficients(emm.theta, "theta")
    ctx = SimulationContext(spec, bundle.out_times, density_emm=emm)
    out_idx = _out_indices(bundle.grid, ctx.out_times)
    return _z_values_from_parts(
        ctx, bundle.grid, bundle.dw, bundle.event_times, bundle.event_marks, out_idx
    )


# -- running blocks ----------------------------------------------------------------


def _blocks(ctx: SimulationContext, master_seed: int, first_stream: int, n_paths: int,
            stocks: bool = True):
    """Yield (row, block) covering ``n_paths`` consecutive streams in order."""
    size = _block_size(ctx)
    for lo in range(0, n_paths, size):
        yield lo, _simulate_block(
            ctx, master_seed, first_stream + lo, min(size, n_paths - lo), stocks
        )


# -- whole-path simulation ----------------------------------------------------------


def simulate_path(ctx: SimulationContext, streams: RngStreamSpec) -> PathBundle:
    """Simulate one scenario under the context's measure (a block of one)."""
    block = _simulate_block(ctx, streams.master_seed, streams.stream_id, 1)
    return block.bundle(ctx, 0, streams.master_seed)


@dataclass
class TerminalSample:
    """Stacked per-path results at the output times (pairwise-summable)."""

    out_times: np.ndarray
    stocks: np.ndarray | None  # (n_paths, n, n_out); None in a density-only sample
    z: np.ndarray | None  # (n_paths, n_out)
    counts: np.ndarray  # (n_paths, M) or (n_paths, 1) total for continuous
    w_terminal: np.ndarray  # (n_paths, D): each path's increments, summed in order
    seed: int
    measure: str

    def terminal_stocks(self) -> np.ndarray:
        return self.stocks[:, :, -1]

    def z_terminal(self) -> np.ndarray:
        return self.z[:, -1]


def _count_width(spec: MarketSpec) -> int:
    if isinstance(spec.jumps, DiscreteJumpSpec):
        return spec.jumps.n_drivers
    return 1 if spec.jumps is not None else 0


def run_paths(
    spec: MarketSpec,
    out_times,
    n_paths: int,
    master_seed: int,
    per_path,
    width: int,
    measure_emm: Emm | None = None,
    density_emm: Emm | None = None,
    stream_offset: int = 0,
) -> np.ndarray:
    """Run ``per_path`` over independent paths into an (n_paths, width) array.

    Paths are simulated in blocks and handed to ``per_path`` one
    :class:`PathBundle` at a time.  Results depend only on
    (master_seed, stream_offset) and the per-path function, never on the
    block size: each path owns its stream id and writes into its own row.
    """
    ctx = SimulationContext(
        spec, out_times, measure_emm=measure_emm, density_emm=density_emm
    )
    out = np.empty((n_paths, width))
    for row, block in _blocks(ctx, master_seed, stream_offset, n_paths):
        for p in range(len(block)):
            out[row + p, :] = per_path(block.bundle(ctx, p, master_seed))
        del block  # free it before the next block is simulated
    return out


def simulate_terminal(
    spec: MarketSpec,
    out_times,
    n_paths: int,
    master_seed: int = DEFAULT_SEED,
    measure_emm: Emm | None = None,
    density_emm: Emm | None = None,
    stream_offset: int = 0,
) -> TerminalSample:
    """Simulate terminal state summaries for a batch of paths.

    Blocks of paths are reduced straight into the stacked arrays.  Row k
    is the path of stream ``stream_offset + k``, identical to
    :func:`simulate_path` on that stream, for any block size.
    """
    ctx = SimulationContext(
        spec, out_times, measure_emm=measure_emm, density_emm=density_emm
    )
    return _terminal_sample(ctx, n_paths, master_seed, stream_offset)[0]


def _terminal_sample(ctx, n_paths, master_seed, stream_offset, event_values=None,
                     stocks=True):
    """:func:`simulate_terminal` on a built context, plus each path's sums
    of ``event_values(times, marks, order)`` (``order`` sorts a block's
    events by time, or None), an (n_events, k) array, over its events
    ((n_paths, k), added in event order; None without the hook).
    Without ``stocks`` the sample is density-only: ``stocks`` is None and
    ``z``, ``counts`` and ``w_terminal`` are those of the full sample."""
    spec = ctx.spec
    out_times = ctx.out_times
    n, n_out = spec.n, len(out_times)
    cw = _count_width(spec)
    D = spec.n_brownians
    with_z = ctx.density_emm is not None
    pos_z = n * n_out if stocks else 0
    pos_c = pos_z + (n_out if with_z else 0)
    pos_w = pos_c + cw
    rows = np.empty((n_paths, pos_w + D))
    sums = None
    for lo, block in _blocks(ctx, master_seed, stream_offset, n_paths, stocks):
        hi = lo + len(block)
        if event_values is not None:
            values = event_values(block.ev_times, block.ev_marks, block.order)
            if sums is None:
                sums = np.zeros((n_paths, values.shape[1]))
            for c, col in enumerate(values.T):
                sums[lo:hi, c] = np.bincount(block.pid, weights=col, minlength=hi - lo)
        if stocks:
            rows[lo:hi, :pos_z] = block.stocks.reshape(hi - lo, pos_z)
        if with_z:
            rows[lo:hi, pos_z:pos_c] = block.z
        if ctx.kind == "discrete":
            rows[lo:hi, pos_c:pos_w] = np.bincount(
                block.pid * cw + block.ev_marks, minlength=(hi - lo) * cw
            ).reshape(hi - lo, cw)
        elif cw:
            rows[lo:hi, pos_c] = np.diff(block.ev_off)
        rows[lo:hi, pos_w:] = np.cumsum(block.dw, axis=1)[:, -1]
        del block  # free it before the next block is simulated
    sample = TerminalSample(
        out_times=out_times,
        stocks=rows[:, :pos_z].reshape(n_paths, n, n_out) if stocks else None,
        z=rows[:, pos_z:pos_c] if with_z else None,
        counts=rows[:, pos_c:pos_w],
        w_terminal=rows[:, pos_w:],
        seed=master_seed,
        measure="Q" if ctx.measure_emm is not None else "P",
    )
    return sample, sums


def iterate_bundles(
    spec: MarketSpec,
    out_times,
    n_paths: int,
    master_seed: int = DEFAULT_SEED,
    measure_emm: Emm | None = None,
    density_emm: Emm | None = None,
    stream_offset: int = 0,
):
    """Yield full path bundles one at a time (for file output)."""
    ctx = SimulationContext(
        spec, out_times, measure_emm=measure_emm, density_emm=density_emm
    )
    for _, block in _blocks(ctx, master_seed, stream_offset, n_paths):
        for p in range(len(block)):
            yield block.bundle(ctx, p, master_seed)
