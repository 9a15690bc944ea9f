"""Block engine: many paths simulated together, each from its own counters.

Every path of a context lives on one shared grid, ``ctx.base_knots`` (0,
T, the output times and the knots of sigma, and of theta when weighting),
and draws each segment's Brownian integrals as one exact Gaussian
(:class:`_Segments`).  Events are not on the grid: they reach the stocks
and the density only through each path's count of events at or before
each output time.  Every draw is addressed by its path's stream id, its
role and its index within the path (:mod:`upliftemm.philox`), so a block
makes two kernel calls for all of its paths: counts with normals, then
candidate times with marks.  It sums on whole-block arrays, each path's
sums in its own order, so a path's values do not depend on the block
size (``_SEGMENT_BUDGET``, read at call time).  A density-only block
(``stocks=False``) computes Z, counts and increments but no stock path.
The entry points live in :mod:`upliftemm.stochastic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NullMark, UnboundedIntensity
from .philox import MASK64, ROLE_IDS, box_muller, poisson_counts, uniforms

if TYPE_CHECKING:
    from .stochastic import SimulationContext


@dataclass
class PathBundle:
    """One simulated scenario: its randomness plus derived values.

    ``grid`` is the context's shared grid (events are not on it) and
    ``dw`` the (K, D) Brownian increments per segment; an interpolated
    sigma or theta that varies on a segment also reads normals ``dw``
    does not hold.  Bundles of a block are views into its arrays.
    """

    master_seed: int
    stream_id: int
    measure: str
    grid: np.ndarray
    dw: np.ndarray
    event_times: np.ndarray
    event_marks: np.ndarray
    out_times: np.ndarray
    stock_values: np.ndarray
    z_values: np.ndarray | None = None

    def counts_by_driver(self, n_drivers: int) -> np.ndarray:
        if self.event_marks.dtype.kind != "i":
            raise ValueError("continuous marks have no driver counts")
        return np.bincount(self.event_marks, minlength=n_drivers)


# -- per-event factors (shared with the one-path reference) ---------------------


def _per_driver(rows, times, marks, order=None) -> np.ndarray:
    """(len(rows), n_events): each event's value of its driver's function
    in each row of functions, 0 past a row's end.  Each function is
    evaluated once, on its driver's events, in time order when ``order``
    sorts the events (where np.interp and step lookups are faster)."""
    if all(fn.is_constant for row in rows for fn in row):
        order = None  # a constant looks nothing up, and scatters faster in event order
    by_driver = marks if order is None else marks[order]
    out = np.zeros((len(rows), times.size))
    for m in range(max(map(len, rows))):
        idx = np.flatnonzero(by_driver == m) if order is None else order[by_driver == m]
        at = times[idx]
        for r, row in enumerate(rows):
            if m < len(row):
                out[r, idx] = row[m].value(at)
    return out


def _event_log_factors(ctx: SimulationContext, ev_times, ev_marks, order=None):
    """(n, n_events) log jump factors ln(1 + y_i) at each event."""
    n = ctx.n
    if ev_times.size == 0:
        return np.zeros((n, 0))
    if ctx.kind == "continuous":
        row = np.log1p(ev_marks.astype(float))
        return np.tile(row, (n, 1))
    out = _per_driver(ctx.spec.jumps.loadings, ev_times, ev_marks, order)
    return np.log1p(out, out=out)


def _event_log_phi(ctx: SimulationContext, ev_times, ev_marks, order=None, lam=None):
    """log d(lambda~)/d(lambda) of the density measure at each event;
    ``lam``, a block's simulation intensities at them, are lambda under P."""
    emm = ctx.density_emm
    if ev_times.size == 0 or ctx.kind == "none":
        return np.zeros(0)
    if ctx.kind == "continuous":
        phis = emm.jump_measure.phi_values(ev_marks, ev_times)
        if np.any(phis <= 0.0):
            raise NullMark("mark realized where the measures are not equivalent")
        return np.log(phis)
    if ctx.const_log_phi is not None:
        return ctx.const_log_phi[ev_marks]
    lam_t_ev = _per_driver((emm.intensities,), ev_times, ev_marks, order)[0]
    if lam is None or ctx.measure_emm is not None:
        (lam_ev,) = _per_driver((ctx.spec.jumps.intensities,), ev_times, ev_marks, order)
    else:
        lam_ev = lam[ev_marks, np.arange(ev_marks.size)]
    if np.any(lam_t_ev <= 0.0):
        raise NullMark("event realized where the risk-neutral intensity is 0")
    return np.log(lam_t_ev / lam_ev)


# -- the shared grid's Gaussians ----------------------------------------------------


@dataclass(frozen=True)
class _Segments:
    """Each shared-grid segment's exact Gaussian, per row g: the stocks'
    sigma_i and, when weighting, -theta, each adding int g.dW - 1/2 int |g|^2
    to its log.  On a segment of length h and midpoint c a loading is
    affine, g = mean + slope (t - c), so int g dW_d = mean dW_d + slope A_d
    with A_d = int (t - c) dW_d ~ N(0, h^3/12) independent of dW_d
    (Glasserman, *Monte Carlo Methods in Financial Engineering*, 2003,
    3.1).  ``tilt`` = slope sqrt(h^3/12) loads A_d's standard normal, which
    a (segment, Brownian) cell draws only where some row's tilt is nonzero
    (``varies``): a constant segment draws just its D increments."""

    dt: np.ndarray  # (K,)
    mean: np.ndarray  # (D, Y, 1, K)
    tilt: np.ndarray  # (D, Y, 1, K)
    drag: np.ndarray  # (Y, 1, K): 1/2 int |g_y|^2 over each segment
    varies: np.ndarray  # (K, D)
    out_idx: np.ndarray  # (n_out,) grid column of each output time


def _segment_gaussians(ctx: SimulationContext) -> _Segments:
    """The shared grid's per-segment Gaussians, built once per context
    from each loading's limits inside each segment (a, b)."""
    knots = ctx.base_knots
    a, b = knots[:-1], knots[1:]
    dt = b - a
    D = ctx.n_brownians
    rows = [list(row) for row in ctx.spec.sigma]
    emm = ctx.density_emm
    if emm is not None and emm.theta and D:
        rows.append([fn.scaled(-1.0) for fn in emm.theta])

    def ends(fn):  # a step function takes its right-continuous value at a
        left = fn.value(a)
        return left, fn.value(b) if fn.kind == "samples" else left

    limits = np.array([[ends(fn) for fn in row] for row in rows], dtype=float)
    limits = limits.reshape(len(rows), D, 2, len(dt))
    left, right = limits[:, :, 0], limits[:, :, 1]  # (Y, D, K)
    mean = 0.5 * (left + right)
    tilt = (right - left) * np.sqrt(dt / 12.0)
    drag = 0.5 * ((mean * mean).sum(axis=1) * dt + (tilt * tilt).sum(axis=1))
    return _Segments(
        dt=dt,
        mean=mean.transpose(1, 0, 2)[:, :, None, :],
        tilt=tilt.transpose(1, 0, 2)[:, :, None, :],
        drag=drag[:, None, :],
        varies=(tilt != 0.0).any(axis=0).T,
        out_idx=np.searchsorted(knots, ctx.out_times),
    )


# -- block engine -------------------------------------------------------------------

# Cells a block is sized for.  A block's arrays hold about this many
# (path, grid segment or event) cells, so memory stays flat in n_paths
# while numpy's per-call cost is spread over the block's paths.
_SEGMENT_BUDGET = 1 << 15


def _block_size(ctx: SimulationContext) -> int:
    """Paths per block: the budget over a generous per-path width, the
    shared grid's knots plus the candidate count's mean and three
    deviations (the width of the padded per-event sums)."""
    mean = ctx.majorant * ctx.horizon
    width = len(ctx.base_knots) + mean + 3.0 * np.sqrt(mean) + 3.0
    return max(1, int(_SEGMENT_BUDGET // width))


@dataclass
class _Block:
    """Consecutive paths simulated together on the shared grid.

    Row p is stream ``first_stream + p``.  Events are path-major: path p
    owns ``ev_times[ev_off[p]:ev_off[p + 1]]``, and ``pid`` names each
    event's row; ``order`` sorts them by time (else None), and ``lam`` holds
    a time-varying discrete market's (M, n_events) intensities at them.
    ``dw[p]`` holds the path's increments over the shared grid's segments
    and ``n_before[p]`` its number of events at or before each output time.
    """

    pid: np.ndarray
    local: np.ndarray  # each event's position within its path
    ev_off: np.ndarray
    ev_times: np.ndarray
    ev_marks: np.ndarray
    order: np.ndarray | None = None
    lam: np.ndarray | None = None
    first_stream: int = 0
    dw: np.ndarray | None = None  # (B, K, D)
    n_before: np.ndarray | None = None  # (B, n_out)
    stocks: np.ndarray | None = None  # (B, n, n_out)
    z: np.ndarray | None = None  # (B, n_out)

    def __len__(self) -> int:
        return len(self.ev_off) - 1

    def bundle(self, ctx: SimulationContext, p: int, master_seed: int) -> PathBundle:
        lo, hi = self.ev_off[p], self.ev_off[p + 1]
        return PathBundle(
            master_seed=master_seed,
            stream_id=self.first_stream + p,
            measure="Q" if ctx.measure_emm is not None else "P",
            grid=ctx.base_knots,
            dw=self.dw[p],
            event_times=self.ev_times[lo:hi],
            event_marks=self.ev_marks[lo:hi],
            out_times=ctx.out_times,
            stock_values=self.stocks[p],
            z_values=None if self.z is None else self.z[p],
        )


# the role of each row of the candidates' (2, N_cand) counter grid
_TIMES_AND_MARKS = np.array([ROLE_IDS["event_times"], ROLE_IDS["marks"]])


def _stream_ids(first: int, count: int) -> np.ndarray:
    """The 64-bit stream ids ``first .. first + count - 1`` (wrapping)."""
    return np.uint64(first & MASK64) + np.arange(count, dtype=np.uint64)


def _draw_marked_events(
    ctx: SimulationContext, seed: int, sids: np.ndarray, u_count=None
) -> _Block:
    """The block of streams ``sids`` with only its accepted events: their
    times (path-major, sorted within each path), rows, offsets, positions
    within their paths, marks, time order and intensities.

    Path p's candidate count inverts the context's Poisson table at its
    ``count`` uniform (``u_count``, drawn here when not given).  One kernel
    call on a (2, N_cand) counter grid then gives candidate j of path p
    its ``event_times`` counter j, its time and thinning uniform, and its
    ``marks`` counter j.  The thinning uniforms are independent of every
    candidate time, so the sorted times take them in counter order.
    Accepted event l of path p reads the marks row at candidate column
    ``start[p] + l``, which is marks counter l since l < n_cand[p]; its
    two uniforms cover every mark rule; a discrete market's intensities,
    evaluated once per candidate, mark them from their accepted columns.
    """
    B = len(sids)
    n_cand = np.zeros(B, dtype=np.int64)
    if ctx.kind != "none" and ctx.majorant > 0.0:
        if u_count is None:
            u_count = uniforms(seed, "count", 0, sids)[0]
        n_cand = poisson_counts(ctx.count_cdf, u_count)
    pid = np.repeat(np.arange(B), n_cand)
    start = np.cumsum(n_cand) - n_cand
    u = np.zeros((2, 2, 0))
    ev_times, accept = np.zeros(0), np.zeros(0, dtype=bool)
    order = lam = None
    if pid.size:
        j = np.arange(pid.size) - start[pid]
        u = uniforms(seed, _TIMES_AND_MARKS[:, None], j, sids[pid])
        t, thin = u[:, 0]
        filled = np.arange(n_cand.max()) < n_cand[:, None]
        pad = np.full(filled.shape, np.inf)
        pad[filled] = ctx.horizon * t
        pad.sort(axis=1)
        cand = pad[filled]
        order = np.argsort(cand) if ctx.sorts_events else None
        if ctx.kind == "discrete" and ctx.const_total is None:
            at = slice(None) if order is None else order
            lam = np.empty((len(ctx.sim_intensities), cand.size))
            lam[:, at] = [fn.value(cand[at]) for fn in ctx.sim_intensities]
            total = lam.sum(axis=0)  # in driver order
        else:
            total = ctx.total_intensity_at(cand)
        if np.any(total > ctx.majorant):  # thinning is exact only below it
            raise UnboundedIntensity("intensity exceeds the thinning majorant")
        accept = thin * ctx.majorant <= total
        ev_times = cand[accept]
        if order is not None:  # each accepted candidate's event index, in time order
            order = (np.cumsum(accept) - 1)[order[accept[order]]]
        lam = None if lam is None else lam.compress(accept, axis=1)  # C-ordered: sums run by row
    pid = pid[accept]
    ev_off = np.concatenate([[0], np.cumsum(np.bincount(pid, minlength=B))])
    local = np.arange(ev_times.size) - ev_off[pid]
    marks = np.zeros(0, dtype=np.int64)
    if ctx.kind != "none":
        marks = ctx.marks_from_uniforms(u[:, 1, start[pid] + local], ev_times, lam)
    return _Block(pid, local, ev_off, ev_times, marks, order, lam)


def _counts_at_or_below(times, pid, count: int, out: np.ndarray) -> np.ndarray:
    """(B, m) number of each row's ``times`` at or below ``out[j]``."""
    first = np.searchsorted(out, times)  # first out[j] counting t
    m = len(out) + 1
    hist = np.bincount(pid * m + first, minlength=count * m).reshape(count, m)
    return np.cumsum(hist, axis=1)[:, :-1]


def _path_draws(ctx: SimulationContext, seed: int, sids: np.ndarray):
    """Each path's ``count`` uniform, its (B, K, D) increments over the
    shared grid and its (B, K, D) normals in the ``varies`` cells (None if
    there are none), from one kernel call on a (1 + n_pairs, B) counter
    grid: row 0 holds each path's counter (0, count, sid) and row 1 + j
    its (j, brownian, sid), so the long axis is the innermost.  Each path
    draws K * D increment cells in (segment, Brownian) order, then its
    ``varies`` cells, as Box-Muller pairs, one per ``brownian`` counter."""
    seg = ctx.segments
    B, (K, D) = len(sids), seg.varies.shape
    n_dw, n_res = K * D, int(seg.varies.sum())
    j = np.arange(-1, (n_dw + n_res + 1) // 2)
    j[0] = 0
    roles = np.full(j.size, ROLE_IDS["brownian"])
    roles[0] = ROLE_IDS["count"]
    u = uniforms(seed, roles[:, None], j[:, None], sids)  # (2, 1 + n_pairs, B)
    if n_dw == 0:
        return u[0, 0], np.zeros((B, K, D)), None
    z = box_muller(u[:, 1:]).transpose(1, 0, 2).reshape(B, -1)
    dw = z[:, :n_dw].reshape(B, K, D) * np.sqrt(seg.dt)[:, None]
    res = None
    if n_res:  # n_res <= n_dw
        res = np.zeros((B, K, D))
        res[:, seg.varies] = z[:, n_dw:n_dw + n_res]
    return u[0, 0], dw, res


def _sum_d(a, b) -> np.ndarray:
    """sum over d of a[d] * b[d], added in d order whatever the shapes, so
    a path's sum does not depend on the block it is computed in."""
    out = a[0] * b[0]
    for d in range(1, len(a)):
        out += a[d] * b[d]
    return out


def _gaussian_sums(ctx: SimulationContext, dw, res, rows=slice(None)) -> np.ndarray:
    """(Y, B, n_out) int g . dW - 1/2 int |g|^2 up to each output time for
    each of the ``rows`` of the segments' Gaussians, added in grid order."""
    seg = ctx.segments
    mean, tilt, drag = seg.mean[:, rows], seg.tilt[:, rows], seg.drag[rows]
    B, K, D = dw.shape
    if D:
        x = _sum_d(mean, dw.transpose(2, 0, 1))
        if res is not None:
            x += _sum_d(tilt, res.transpose(2, 0, 1))
    else:
        x = np.zeros((len(drag), B, K))
    x -= drag
    np.cumsum(x, axis=-1, out=x)
    sums = x[..., np.maximum(seg.out_idx - 1, 0)]
    sums[..., seg.out_idx == 0] = 0.0  # an output at time 0
    return sums


def _event_sums(block: _Block, values) -> np.ndarray:
    """Sums of each path's first ``n_before[p, j]`` per-event ``values``
    ((..., n_events) -> (..., B, n_out)), added in event order."""
    e_max = int(block.local.max(initial=-1)) + 1
    cum = np.zeros(values.shape[:-1] + (len(block), e_max + 1))
    cum[..., block.pid, block.local + 1] = values
    np.cumsum(cum, axis=-1, out=cum)
    return cum[..., np.arange(len(block))[:, None], block.n_before]


def _simulate_block(
    ctx: SimulationContext, seed: int, first: int, count: int, stocks: bool = True
) -> _Block:
    """Simulate the paths of streams ``first .. first + count - 1``.

    The block makes two kernel calls: each path's candidate count with
    its normals on the shared grid, then every candidate's time, thinning
    uniform and mark uniforms.  Every draw is addressed by its path's
    stream id and its index within the path, and everything else is done
    on whole-block arrays, so path k's values do not depend on the block
    it is in.  Without ``stocks`` the block carries only the density and
    the counts: no stock row, jump factor or exp is computed.
    """
    sids = _stream_ids(first, count)
    u_count, dw, res = _path_draws(ctx, seed, sids)
    block = _draw_marked_events(ctx, seed, sids, u_count)
    block.first_stream, block.dw = first, dw
    ev_times, marks, order = block.ev_times, block.ev_marks, block.order
    block.n_before = _counts_at_or_below(ev_times, block.pid, count, ctx.out_times)
    n = ctx.n
    gauss = _gaussian_sums(ctx, dw, res, slice(None) if stocks else slice(n, None))
    if stocks:
        log_s = gauss[:n] + ctx.det_drift.T[:, None, :]  # (n, B, n_out)
        log_s += _event_sums(block, _event_log_factors(ctx, ev_times, marks, order))
        np.exp(log_s, out=log_s)
        log_s *= np.asarray(ctx.spec.s0)[:, None, None]
        block.stocks = np.ascontiguousarray(log_s.transpose(1, 0, 2))
    if ctx.density_emm is not None:
        log_z1 = gauss[-1] if len(ctx.segments.drag) > n else 0.0  # -theta's row
        log_phi = _event_log_phi(ctx, ev_times, marks, order, block.lam)
        block.z = np.exp(log_z1 + ctx.z2_drift + _event_sums(block, log_phi))
    return block
