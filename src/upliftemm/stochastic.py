"""Exact path simulation and density processes along paths.

Event times come from thinning against a constant majorant, which samples
an inhomogeneous Poisson process exactly, and the draw that accepts an
event also marks it: its driver, or its mark's region and quantile.  The
log price is a Gaussian plus closed-form drift integrals plus the jump
factors, each segment's Gaussian exact on a grid shared by all paths, so
no coefficient kind carries Euler error.  Randomness is counter-based
(:mod:`upliftemm.philox`): every draw is addressed by (master seed, role,
path stream id, draw index), so every path is the same bit for bit
however paths are chunked.

Paths are simulated in blocks (:mod:`upliftemm.blocks`), one block after
another on one thread, by one loop, ``_blocks``, over the samples of one
check: each a context, a first stream, the stock rows it builds and a
per-event hook.  A joint block makes two kernel calls for every path of
every sample, and each sample reads only its own counters.  The two-route
check's legs are its two samples; every other consumer is the one-sample
case.  A path's values depend neither on the block size nor on the
samples drawn with it: :func:`simulate_path` is a block of one, and row k
of :func:`simulate_terminal` equals it on stream ``stream_offset + k``.
It wraps ``_terminal_sample``, which stacks each sample's rows, also sums
its per-event hook over each path's events in order (the restriction's
cell counts) and builds only the stock rows it is asked for, none in a
sample that reads only Z, counts and increments.  ``_blocks`` yields the
blocks themselves, which hedging reduces as they are made and whose rows
``upliftemm simulate`` writes out.  The standalone samplers draw the same
events on one stream or on many.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    PathBundle,
    _block_size,
    _draw_marked_events,
    _Sample,
    _segment_gaussians,
    _simulate_block,
    _simulate_blocks,
)
from .errors import NullMark, UnboundedIntensity
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
    "simulate_path",
    "simulate_terminal",
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
        self.kind = "discrete" if isinstance(jumps, DiscreteJumpSpec) else "continuous"

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
        elif measure_emm is not None and measure_emm.jump_measure is not None:
            mm = measure_emm.jump_measure
            self.mark_measure = mm
            self.sim_total_fn = mm.time_function("total_intensity", T)
            safety = 1 + (1e-9 if self.sim_total_fn.is_piecewise_constant else 1e-2)
            self.majorant = self.sim_total_fn.max_value(0.0, T) * safety
        else:
            self.sim_total_fn = jumps.total_intensity
            self.majorant = jumps.total_intensity.max_value(0.0, T) * (1 + 1e-9)
        if not np.isfinite(self.majorant):
            raise UnboundedIntensity("intensity has no finite majorant on the grid")
        # candidate counts are drawn by inverting this table
        mean = self.majorant * T
        self.count_table = poisson_cdf(mean) if mean > 0.0 else None

        # constant-intensity fast path for marking events
        self.const_total = None
        self.const_mark_cum = None
        if self.kind == "discrete" and all(
            fn.is_constant for fn in self.sim_intensities
        ):
            vals = np.array([fn.constant_value for fn in self.sim_intensities])
            self.const_mark_cum = np.cumsum(vals)
            self.const_total = float(self.const_mark_cum[-1:].sum())  # 0 without drivers
        elif self.kind == "continuous" and self.sim_total_fn.is_constant:
            self.const_total = self.sim_total_fn.constant_value

        # the grid every path shares: the output times and the knots of its
        # Gaussians' loadings, the stocks' sigma rows, then -theta's when
        # weighting (a Q* path never reads theta); events are not on it
        rows = [list(row) for row in spec.sigma]
        if density_emm is not None and density_emm.theta and self.n_brownians:
            rows.append([fn.scaled(-1.0) for fn in density_emm.theta])
        knot_fns = [fn for row in rows for fn in row]
        self.base_knots = np.unique(
            np.concatenate([merged_breakpoints(knot_fns, 0.0, T), self.out_times])
        )
        self.segments = _segment_gaussians(rows, self.base_knots, self.out_times)

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
        """The marks of the events at ``times`` of the path on ``streams``,
        which read its thinning draws: those of a block of one."""
        ((events, _),) = _draw_marked_events([_Sample(self, streams.stream_id)],
                                             streams.master_seed, 0, 1)
        return events.ev_marks[np.isin(events.ev_times, times)]

    def marks_from_uniforms(self, w: np.ndarray, times: np.ndarray, lam=None):
        """Marks of accepted events at ``times`` from their thinning draws
        ``w``, uniform on [0, total(t)]: the driver m with cum_{m-1}(t) <= w
        < cum_m(t), the last on w = total(t), for the constant or ``lam``'s
        cumulative intensities in driver order; or, with ``w`` here
        w / total(t), the cell measure's mark or the density's quantile w.
        """
        if self.kind == "discrete":
            if self.const_mark_cum is not None:
                # the cumulative intensities at or below each draw: searchsorted's
                # side="right" count, faster by comparisons in so short a table
                idx = (w >= self.const_mark_cum[:, None]).sum(axis=0, dtype=np.int64)
            else:
                cum, idx = 0.0, 0
                for row in lam:  # each event's cumulative intensity, row by row
                    cum = cum + row
                    idx = idx + (w >= cum)
            return np.minimum(idx, len(self.sim_intensities) - 1)
        if self.mark_measure is not None:
            return self.mark_measure.marks_from_uniforms(w, times)
        return np.asarray(self.spec.jumps.density.ppf(w, times), dtype=float)


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
):
    """Event times plus marks (driver indices or continuous jump sizes).

    The total process runs at the summed intensity; each event is marked
    with driver m with probability lambda_m(t)/lambda(t), or with a draw
    from the mark distribution at the event time.  These are the events
    and marks a simulated path draws on ``streams``; given ``n_streams``,
    lists of the times and of the marks on each of that many consecutive
    streams, drawn in blocks.
    """
    spec_like = MarketSpec(
        horizon=horizon, s0=(1.0,), alpha=(0.0,), rate=0.0, sigma=((),), jumps=jumps,
    )
    ctx = SimulationContext(spec_like, [horizon], measure_emm=measure_emm)
    count = 1 if n_streams is None else n_streams
    size = _block_size(ctx)
    times, marks, per_path = [], [], []
    for lo in range(0, count, size):
        ((events, _),) = _draw_marked_events([_Sample(ctx, streams.stream_id)],
                                             streams.master_seed, lo, min(size, count - lo))
        times.append(events.ev_times)
        marks.append(events.ev_marks)
        per_path.append(np.diff(events.ev_off))
    cuts = np.cumsum(np.concatenate(per_path))[:-1]
    times = np.split(np.concatenate(times), cuts)
    marks = np.split(np.concatenate(marks), cuts)
    return (times[0], marks[0]) if n_streams is None else (times, marks)


# -- running blocks ----------------------------------------------------------------


def _blocks(samples, master_seed: int, n_paths: int):
    """Yield (row, k, block): the blocks covering ``n_paths`` consecutive
    streams of each :class:`~upliftemm.blocks._Sample` k from its first, in
    order.  Each joint block holds one budget over the samples' summed
    widths and yields its samples' blocks in turn."""
    size = _block_size(*(s.ctx for s in samples))
    for lo in range(0, n_paths, size):
        yield from _simulate_blocks(samples, master_seed, lo, min(size, n_paths - lo))


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
    return 1


def _block_counts(ctx: SimulationContext, block) -> np.ndarray:
    """(B, :func:`_count_width`): each path's events per driver, or its
    total on a continuous-mark market."""
    if ctx.kind == "discrete":
        cw = _count_width(ctx.spec)
        return np.bincount(
            block.pid * cw + block.ev_marks, minlength=len(block) * cw
        ).reshape(len(block), cw)
    return np.diff(block.ev_off)[:, None]


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
    for row, _, block in _blocks([_Sample(ctx, stream_offset)], master_seed, n_paths):
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
    return _terminal_sample([_Sample(ctx, stream_offset)], n_paths, master_seed)[0][0]


def _terminal_sample(samples, n_paths: int, master_seed: int):
    """:func:`simulate_terminal` for each :class:`~upliftemm.blocks._Sample`
    of one block loop, as a list of (sample, sums).  ``sums`` are each
    path's sums of the sample's ``event_values(times, marks, order)``
    (``order`` sorts a block's events by time, or None), an (n_events, k)
    array, over its events ((n_paths, k), added in event order; None
    without the hook).  A sample holds the ``stocks`` rows of its blocks;
    with ``()`` it is density-only: ``stocks`` is None and ``z``,
    ``counts`` and ``w_terminal`` are those of the full sample."""
    cols, rows, sums = [], [], [None] * len(samples)
    for s in samples:
        n = s.ctx.n if s.stocks is None else len(s.stocks)
        n_out, with_z = len(s.ctx.out_times), s.ctx.density_emm is not None
        pos_z = n * n_out
        pos_c = pos_z + (n_out if with_z else 0)
        pos_w = pos_c + _count_width(s.ctx.spec)
        cols.append((n, pos_z, pos_c, pos_w))
        rows.append(np.empty((n_paths, pos_w + s.ctx.n_brownians)))
    for lo, k, block in _blocks(samples, master_seed, n_paths):
        (n, pos_z, pos_c, pos_w), out, hi = cols[k], rows[k], lo + len(block)
        if samples[k].event_values is not None:
            values = samples[k].event_values(block.ev_times, block.ev_marks, block.order)
            if sums[k] is None:
                sums[k] = np.zeros((n_paths, values.shape[1]))
            for c, col in enumerate(values.T):
                sums[k][lo:hi, c] = np.bincount(block.pid, weights=col, minlength=hi - lo)
        if n:
            out[lo:hi, :pos_z] = block.stocks.reshape(hi - lo, pos_z)
        if block.z is not None:
            out[lo:hi, pos_z:pos_c] = block.z
        out[lo:hi, pos_c:pos_w] = _block_counts(samples[k].ctx, block)
        out[lo:hi, pos_w:] = np.cumsum(block.dw, axis=1)[:, -1]
        del block  # free it before the next block is simulated
    results = []
    for s, out, (n, pos_z, pos_c, pos_w), path_sums in zip(samples, rows, cols, sums):
        sample = TerminalSample(
            out_times=s.ctx.out_times,
            stocks=out[:, :pos_z].reshape(n_paths, n, len(s.ctx.out_times)) if n else None,
            z=out[:, pos_z:pos_c] if pos_c > pos_z else None,
            counts=out[:, pos_c:pos_w],
            w_terminal=out[:, pos_w:],
            seed=master_seed,
            measure="Q" if s.ctx.measure_emm is not None else "P",
        )
        results.append((sample, path_sums))
    return results
