"""Exact path simulation and density processes along paths.

Event times come from thinning against a constant majorant, which samples
an inhomogeneous Poisson process exactly; between events the log price is
a Gaussian plus closed-form drift integrals, so there is no Euler error
anywhere.  Randomness is organized as counter-based substreams keyed by
(master seed, path index, role), which makes every path reproducible
bit for bit independently of how the paths are chunked.

Paths are simulated in blocks (:mod:`upliftemm.blocks`), one block after
another on one thread: per path, only the draws from its own Philox
substreams run in a Python loop, and everything else runs on whole-block
arrays.  A path's values do not depend on the block size:
:func:`simulate_path` is a block of one, and row k of
:func:`simulate_terminal` equals it on stream ``stream_offset + k``.  It
wraps ``_terminal_sample``, which also sums a per-event hook over each
path's events in order (the restriction's cell counts, hedging's jump leg).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    _MASK64,
    PathBundle,
    _block_size,
    _check_majorant,
    _event_log_factors,
    _event_log_phi,
    _simulate_block,
)
from .errors import FactorAtMinusOne, NullMark, UnboundedIntensity
from .model import ContinuousJumpSpec, DiscreteJumpSpec, MarketSpec
from .timefns import TimeFunction, integrate_product, merged_breakpoints, sum_max_value
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
    "JumpProcessPath",
    "doleans_dade_eval",
    "simulate_path",
    "simulate_terminal",
    "iterate_bundles",
    "empirical_intensity_test",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0x5EED

_ROLE_IDS = {"brownian": 1, "event_times": 2, "marks": 3, "thinning": 4, "inner": 5}


@dataclass(frozen=True)
class RngStreamSpec:
    """Counter-based substream addressing: (seed, path stream, role).

    Distinct triples yield independent Philox streams; the same triple
    always reproduces the same sequence, on any machine and in any block.
    """

    master_seed: int
    stream_id: int

    def generator(self, role: str) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, _ROLE_IDS[role]], dtype=np.uint64
        )
        counter = np.array([0, 0, self.stream_id & _MASK64, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))


class StreamPool:
    """Reusable per-role generators for one master seed (single thread).

    Rewinding the Philox counter to a path's block reproduces exactly the
    stream that :meth:`RngStreamSpec.generator` would create, without the
    per-path construction cost.  Each role keeps the state dict of a fresh
    generator (counter zero, buffer empty, held in plain lists, which load
    faster than arrays); a rewind writes the stream id into its counter
    and loads the dict.  Each role has one generator, so a rewind also
    rewinds any generator an earlier call returned for that role.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._slots = {}
        for role, rid in _ROLE_IDS.items():
            key = [master_seed & _MASK64, rid]
            bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
            counter = [0, 0, 0, 0]
            state = {
                "bit_generator": "Philox",
                "state": {"counter": counter, "key": key},
                "buffer": [0, 0, 0, 0],
                "buffer_pos": 4,  # empty: the next draw computes a block
                "has_uint32": 0,
                "uinteger": 0,
            }
            self._slots[role] = (bitgen, np.random.Generator(bitgen), state, counter)

    def generator(self, role: str, stream_id: int) -> np.random.Generator:
        bitgen, gen, state, counter = self._slots[role]
        counter[2] = stream_id & _MASK64
        bitgen.state = state
        return gen


# -- simulation context ---------------------------------------------------------


class SimulationContext:
    """Prepared, path-independent data for simulating one market.

    Collects the simulation-measure intensities, the thinning majorant,
    constant-coefficient fast paths, and the deterministic drift and
    compensator integrals at the requested output times.
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
                self.sim_total_fn = mm.sampled("total_intensity", T)
                safety = 1 + (1e-9 if mm._is_constant else 1e-2)
                self.majorant = self.sim_total_fn.max_value(0.0, T) * safety
            else:
                self.sim_total_fn = jumps.total_intensity
                self.majorant = jumps.total_intensity.max_value(0.0, T) * (1 + 1e-9)
                grid = np.linspace(0, T, 513) if jumps.density.is_time_varying else None
                self.mark_mean_fn = jumps.density.mean_timefunction(grid)
        else:
            self.majorant = 0.0
        if self.kind != "none" and not np.isfinite(self.majorant):
            raise UnboundedIntensity("intensity has no finite majorant on the grid")

        # grid knots beyond events/outputs: sigma always, theta when weighting
        knot_fns = [fn for row in spec.sigma for fn in row]
        if density_emm is not None:
            knot_fns.extend(density_emm.theta)
        if measure_emm is not None:
            knot_fns.extend(measure_emm.theta)
        self.extra_knots = (
            merged_breakpoints(knot_fns, 0.0, T) if knot_fns else np.array([0.0, T])
        )

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
        # uniforms per event when marks are a function of uniforms; 0 when
        # a time-varying cell measure reads a varying number per event
        self.mark_draws = 1
        if self.mark_measure is not None:
            self.mark_draws = 2 if self.mark_measure._is_constant else 0
        self.base_knots = np.unique(
            np.concatenate([self.extra_knots, self.out_times, [0.0, T]])
        )

        # constant-coefficient fast paths
        self.sigma_const = (
            spec.sigma_values(0.0)
            if all(fn.is_constant for row in spec.sigma for fn in row)
            else None
        )
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

        # deterministic integrals at each output time
        self.det_drift = np.zeros((len(out), spec.n))
        self.z2_drift = np.zeros(len(out))
        self.discounts = np.ones(len(out))
        under_q = measure_emm is not None
        for j, tau in enumerate(out):
            tau = float(tau)
            r_int = spec.rate.integral(0.0, tau)
            self.discounts[j] = np.exp(-r_int)
            for i in range(spec.n):
                base = r_int if under_q else spec.alpha[i].integral(0.0, tau)
                self.det_drift[j, i] = base - self._jump_compensator(i, tau)
            if density_emm is not None:
                self.z2_drift[j] = self._density_drift(density_emm, tau)

    def _jump_compensator(self, i: int, tau: float) -> float:
        """integral over [0, tau] of the stock-i jump drift under the
        simulation measure."""
        spec = self.spec
        if self.kind == "none":
            return 0.0
        if self.kind == "discrete":
            total = 0.0
            for m, lam in enumerate(self.sim_intensities):
                total += integrate_product(spec.jumps.loadings[i][m], lam, 0.0, tau)
            return total
        if self.mark_measure is not None:
            fn = self.mark_measure.sampled("mean_jump_intensity", self.horizon)
            return fn.integral(0.0, tau)
        return integrate_product(spec.jumps.total_intensity, self.mark_mean_fn, 0.0, tau)

    def _density_drift(self, emm: Emm, tau: float) -> float:
        """log of the deterministic density factor: integral of
        (physical minus risk-neutral) total intensity."""
        spec = self.spec
        if self.kind == "none":
            return 0.0
        if self.kind == "discrete":
            total = 0.0
            for lam, lam_t in zip(spec.jumps.intensities, emm.intensities):
                total += lam.integral(0.0, tau) - lam_t.integral(0.0, tau)
            return total
        rn_total = emm.jump_measure.sampled("total_intensity", self.horizon)
        return spec.jumps.total_intensity.integral(0.0, tau) - rn_total.integral(
            0.0, tau
        )

    # -- event machinery -----------------------------------------------------

    def total_intensity_at(self, times: np.ndarray) -> np.ndarray:
        if self.const_total is not None:
            return np.full(times.shape, self.const_total)
        if self.kind == "discrete":
            acc = np.zeros(times.shape)
            for fn in self.sim_intensities:
                acc += np.atleast_1d(fn.value(times)) if times.size else 0.0
            return acc
        return np.atleast_1d(self.sim_total_fn.value(times))

    def driver_probabilities(self, times: np.ndarray) -> np.ndarray:
        """(M, n_events) matrix of conditional driver probabilities."""
        vals = np.vstack(
            [np.atleast_1d(fn.value(times)) for fn in self.sim_intensities]
        )
        return vals / vals.sum(axis=0, keepdims=True)

    def sample_marks(self, rng: np.random.Generator, times: np.ndarray) -> np.ndarray:
        """One mark per event time from the path's ``marks`` stream."""
        if self.mark_draws == 0:
            return self.mark_measure.sample_marks(rng, times)
        u = rng.uniform(size=(self.mark_draws, times.size))
        return self.marks_from_uniforms(u, times)

    def marks_from_uniforms(self, u: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Marks from ``mark_draws`` rows of uniforms, one column per event.

        Row 0 picks the driver, or the mark's quantile; on a constant cell
        measure row 0 picks the region and row 1 the quantile inside it.
        """
        if self.kind == "discrete":
            if self.const_mark_cum is not None:
                idx = np.searchsorted(self.const_mark_cum, u[0], side="left")
            else:
                cum = np.cumsum(self.driver_probabilities(times), axis=0)
                idx = (u[0][None, :] > cum).sum(axis=0)
            return np.minimum(idx, len(self.sim_intensities) - 1).astype(np.int64)
        if self.mark_measure is not None:
            return self.mark_measure.marks_from_uniforms(u)
        dens = self.spec.jumps.density
        return np.asarray(
            dens.ppf(u[0], times if dens.is_time_varying else 0.0), dtype=float
        )


def _thinned_times(
    total_at, majorant: float, horizon: float, rng_times, rng_thin
) -> np.ndarray:
    """Exact inhomogeneous Poisson times by thinning a rate-majorant PP."""
    if majorant <= 0.0:
        return np.zeros(0)
    n_cand = rng_times.poisson(majorant * horizon)
    times = np.sort(rng_times.uniform(0.0, horizon, n_cand))
    u = rng_thin.uniform(size=n_cand)
    if n_cand == 0:
        return times
    lam = np.atleast_1d(total_at(times))
    _check_majorant(lam, majorant)
    return times[u * majorant <= lam]


def sample_poisson_inhomogeneous(
    lam: TimeFunction,
    horizon: float,
    streams: RngStreamSpec,
    pool: "StreamPool | None" = None,
) -> np.ndarray:
    """Event times of a Poisson process with deterministic intensity."""
    lam = TimeFunction.coerce(lam)
    majorant = lam.max_value(0.0, horizon) * (1 + 1e-9)
    if not np.isfinite(majorant):
        raise UnboundedIntensity("intensity has no finite majorant on the grid")
    if pool is None:
        rng_t = streams.generator("event_times")
        rng_u = streams.generator("thinning")
    else:
        rng_t = pool.generator("event_times", streams.stream_id)
        rng_u = pool.generator("thinning", streams.stream_id)
    return _thinned_times(lambda t: lam.value(t), majorant, horizon, rng_t, rng_u)


def sample_marked_point_process(
    jumps: DiscreteJumpSpec | ContinuousJumpSpec,
    horizon: float,
    streams: RngStreamSpec,
    measure_emm: Emm | None = None,
    pool: "StreamPool | None" = None,
    _ctx: "SimulationContext | None" = None,
):
    """Event times plus marks (driver indices or continuous jump sizes).

    The total process runs at the summed intensity; each event is marked
    with driver m with probability lambda_m(t)/lambda(t), or with a draw
    from the mark distribution at the event time.
    """
    if _ctx is None:
        spec_like = MarketSpec(
            horizon=horizon, s0=(1.0,), alpha=(0.0,), rate=0.0,
            sigma=((),), jumps=jumps,
        )
        _ctx = SimulationContext(spec_like, [horizon], measure_emm=measure_emm)
    if pool is None:
        rng_t = streams.generator("event_times")
        rng_u = streams.generator("thinning")
        rng_m = streams.generator("marks")
    else:
        rng_t = pool.generator("event_times", streams.stream_id)
        rng_u = pool.generator("thinning", streams.stream_id)
        rng_m = pool.generator("marks", streams.stream_id)
    times = _thinned_times(
        _ctx.total_intensity_at, _ctx.majorant, horizon, rng_t, rng_u
    )
    marks = _ctx.sample_marks(rng_m, times)
    return times, marks


# -- exact stock evaluation -------------------------------------------------------


def _out_indices(grid: np.ndarray, out_times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid, out_times)
    if np.any(np.abs(grid[np.minimum(idx, len(grid) - 1)] - out_times) > 1e-12):
        raise ValueError("output times must be grid nodes")
    return idx

def _sigma_on_grid(ctx: SimulationContext, grid: np.ndarray) -> np.ndarray:
    """(n, D, K) volatility evaluated at segment left endpoints."""
    K = len(grid) - 1
    if ctx.sigma_const is not None:
        return np.repeat(ctx.sigma_const[:, :, None], K, axis=2)
    left = grid[:-1]
    sig = np.empty((ctx.n, ctx.n_brownians, K))
    for i, row in enumerate(ctx.spec.sigma):
        for d, fn in enumerate(row):
            sig[i, d, :] = np.atleast_1d(fn.value(left))
    return sig


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
    if ctx.sigma_const is not None:
        sig = ctx.sigma_const  # (n, D)
        drive = dw @ sig.T if dw.size else np.zeros((K, n))  # (K, n)
        drag = np.outer(dt, 0.5 * (sig * sig).sum(axis=1))
    else:
        sig3 = _sigma_on_grid(ctx, grid)  # (n, D, K)
        drive = (
            np.einsum("idk,kd->ki", sig3, dw) if dw.size else np.zeros((K, n))
        )
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
    Output times must be nodes of ``grid``.
    """
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
    deterministic compensator drift.
    """
    ctx = SimulationContext(spec, bundle.out_times, density_emm=emm)
    out_idx = _out_indices(bundle.grid, ctx.out_times)
    return _z_values_from_parts(
        ctx, bundle.grid, bundle.dw, bundle.event_times, bundle.event_marks, out_idx
    )


# -- Doleans-Dade cross-check -----------------------------------------------------


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


# -- running blocks ----------------------------------------------------------------


def _blocks(ctx: SimulationContext, master_seed: int, first_stream: int, n_paths: int):
    """Yield (row, block) covering ``n_paths`` consecutive streams in order."""
    pool = StreamPool(master_seed)
    size = _block_size(ctx)
    for lo in range(0, n_paths, size):
        yield lo, _simulate_block(
            ctx, pool, first_stream + lo, min(size, n_paths - lo)
        )


# -- whole-path simulation ----------------------------------------------------------


def simulate_path(
    ctx: SimulationContext,
    streams: RngStreamSpec,
    pool: StreamPool | None = None,
) -> PathBundle:
    """Simulate one scenario under the context's measure (a block of one).

    Passing a :class:`StreamPool` (same master seed) avoids per-path
    generator construction while producing identical randomness.
    """
    if pool is None:
        pool = StreamPool(streams.master_seed)
    block = _simulate_block(ctx, pool, streams.stream_id, 1)
    return block.bundle(ctx, 0, streams.master_seed)


@dataclass
class TerminalSample:
    """Stacked per-path results at the output times (pairwise-summable)."""

    out_times: np.ndarray
    stocks: np.ndarray  # (n_paths, n, n_out)
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
    block size: each path owns its substreams and writes into its own row.
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


def _terminal_sample(ctx, n_paths, master_seed, stream_offset, event_values=None):
    """:func:`simulate_terminal` on a built context, plus each path's sums
    of ``event_values(times, marks)``, an (n_events, k) array, over its
    events ((n_paths, k), added in event order; None without the hook)."""
    spec = ctx.spec
    out_times = ctx.out_times
    n, n_out = spec.n, len(out_times)
    cw = _count_width(spec)
    D = spec.n_brownians
    with_z = ctx.density_emm is not None
    pos_z = n * n_out
    pos_c = pos_z + (n_out if with_z else 0)
    pos_w = pos_c + cw
    rows = np.empty((n_paths, pos_w + D))
    sums = None
    for lo, block in _blocks(ctx, master_seed, stream_offset, n_paths):
        hi = lo + len(block)
        if event_values is not None:
            values = event_values(block.ev_times, block.ev_marks)
            if sums is None:
                sums = np.zeros((n_paths, values.shape[1]))
            for c, col in enumerate(values.T):
                sums[lo:hi, c] = np.bincount(block.pid, weights=col, minlength=hi - lo)
        rows[lo:hi, :pos_z] = block.stocks.transpose(0, 2, 1).reshape(hi - lo, pos_z)
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
        stocks=rows[:, :pos_z].reshape(n_paths, n, n_out),
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


# -- statistical intensity test -------------------------------------------------------


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
