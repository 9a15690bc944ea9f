"""Block engine: many paths simulated together, each from its own counters.

Every draw is addressed by its path's stream id, its role and its index
within the path (:mod:`upliftemm.philox`), so a block draws each kind of
randomness for all of its paths in one kernel call, and sorting,
thinning, marking, grid merging and the Brownian, jump and density sums
run on whole-block arrays, with no loop over the paths.  Every draw is
an inversion or a fixed-count transform of its own counters, and every
per-path sum is taken in the order the path's own arrays give it, so a
path's values do not depend on the block size (``_SEGMENT_BUDGET``, read
at call time).  Blocks run one after another on one thread.  The entry
points (``simulate_path``, ``simulate_terminal``, ``iterate_bundles``,
the standalone samplers and the private ``_terminal_sample`` that every
Monte Carlo check and hedging reduce) live in :mod:`upliftemm.stochastic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NullMark, UnboundedIntensity
from .philox import MASK64, box_muller, poisson_counts, uniforms

if TYPE_CHECKING:
    from .stochastic import SimulationContext


@dataclass
class PathBundle:
    """One simulated scenario: all of its randomness plus derived values.

    ``grid`` merges event times, requested output times, and coefficient
    knots; ``dw`` holds the Brownian increments per grid segment.  Stock
    values (and the density process, when requested) are exact functions
    of this randomness and can be recomputed from it.  Bundles of a
    simulated block are views into the block's arrays.
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


def _event_log_factors(ctx: SimulationContext, ev_times, ev_marks) -> np.ndarray:
    """(n, n_events) log jump factors ln(1 + y_i) at each event."""
    n = ctx.n
    if ev_times.size == 0:
        return np.zeros((n, 0))
    if ctx.kind == "continuous":
        row = np.log1p(ev_marks.astype(float))
        return np.tile(row, (n, 1))
    y = np.empty((n, ev_times.size))
    for i, row in enumerate(ctx.spec.jumps.loadings):
        for m, fn in enumerate(row):
            sel = ev_marks == m
            y[i, sel] = fn.value(ev_times[sel])
    return np.log1p(y)


def _event_log_phi(ctx: SimulationContext, ev_times, ev_marks) -> np.ndarray:
    """log d(lambda~)/d(lambda) of the density measure at each event."""
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
    lam_ev = np.empty(ev_times.size)
    lam_t_ev = np.empty(ev_times.size)
    for m, (lam, lam_t) in enumerate(zip(ctx.spec.jumps.intensities, emm.intensities)):
        sel = ev_marks == m
        lam_ev[sel] = lam.value(ev_times[sel])
        lam_t_ev[sel] = lam_t.value(ev_times[sel])
    if np.any(lam_t_ev <= 0.0):
        raise NullMark("event realized where the risk-neutral intensity is 0")
    return np.log(lam_t_ev / lam_ev)


# -- block engine -------------------------------------------------------------------

# Grid segments a block is sized for.  A block's arrays hold about this many
# (path, segment) cells, so memory stays flat in n_paths while numpy's
# per-call cost is spread over the block's paths.
_SEGMENT_BUDGET = 1 << 13


def _block_size(ctx: SimulationContext) -> int:
    """Paths per block: the segment budget over a generous per-path grid
    size (the knots plus the candidate count's mean and three deviations)."""
    mean = ctx.majorant * ctx.horizon
    width = len(ctx.base_knots) + mean + 3.0 * np.sqrt(mean) + 3.0
    return max(1, int(_SEGMENT_BUDGET // width))


def _prefix_sums(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sums of the first ``idx[p, j]`` entries of each row ``x[..., p, :]``.

    ``x`` is (..., B, W) and ``idx`` is (B, m); the result is (..., B, m).
    Entries are added in order, as :func:`np.cumsum` adds them for one
    path.  ``x`` is overwritten by its running sums.
    """
    np.cumsum(x, axis=-1, out=x)
    got = x[..., np.arange(idx.shape[0])[:, None], np.maximum(idx - 1, 0)]
    return np.where(idx > 0, got, 0.0)


@dataclass
class _Block:
    """Consecutive paths simulated together, as flat and padded arrays.

    Row p is stream ``first_stream + p``.  Events are path-major: path p
    owns ``ev_times[ev_off[p]:ev_off[p + 1]]``, and ``pid`` names each
    event's row.  ``grid[p]`` holds the path's merged grid in its first
    ``n_seg[p] + 1`` columns (padded with the horizon) and ``dw[p]`` its
    Brownian increments (padded with zeros).
    """

    first_stream: int
    pid: np.ndarray
    local: np.ndarray  # each event's position within its path
    ev_off: np.ndarray
    ev_times: np.ndarray
    ev_marks: np.ndarray
    n_seg: np.ndarray
    grid: np.ndarray
    dw: np.ndarray
    out_idx: np.ndarray  # (B, n_out) grid column of each output time
    n_before: np.ndarray  # (B, n_out) events at or before each output time
    stocks: np.ndarray | None = None  # (B, n_out, n), laid out as the reference's
    z: np.ndarray | None = None  # (B, n_out)

    def __len__(self) -> int:
        return len(self.n_seg)

    def bundle(self, ctx: SimulationContext, p: int, master_seed: int) -> PathBundle:
        lo, hi = self.ev_off[p], self.ev_off[p + 1]
        k = self.n_seg[p]
        return PathBundle(
            master_seed=master_seed,
            stream_id=self.first_stream + p,
            measure="Q" if ctx.measure_emm is not None else "P",
            grid=self.grid[p, :k + 1],
            dw=self.dw[p, :k],
            event_times=self.ev_times[lo:hi],
            event_marks=self.ev_marks[lo:hi],
            out_times=ctx.out_times,
            stock_values=self.stocks[p].T,
            z_values=None if self.z is None else self.z[p],
        )


def _stream_ids(first: int, count: int) -> np.ndarray:
    """The 64-bit stream ids ``first .. first + count - 1`` (wrapping)."""
    return np.uint64(first & MASK64) + np.arange(count, dtype=np.uint64)


def _ranks(n: np.ndarray):
    """Row of each of ``n[p]`` consecutive items per row, and its index
    within the row."""
    pid = np.repeat(np.arange(len(n)), n)
    return pid, np.arange(pid.size) - (np.cumsum(n) - n)[pid]


def _draw_events(ctx: SimulationContext, seed: int, sids: np.ndarray):
    """Accepted event times (path-major, sorted within each path) and the
    row of each.  Path p's candidate count inverts the context's Poisson
    table at its ``count`` uniform; its candidate i takes its time and
    its thinning uniform from its ``event_times`` counter i.  The thinning
    uniforms are independent of every candidate time, so the sorted times
    take them in counter order."""
    empty = np.zeros(0), np.zeros(0, dtype=np.int64)
    if ctx.kind == "none" or ctx.majorant <= 0.0:
        return empty
    n_cand = poisson_counts(ctx.count_cdf, uniforms(seed, "count", 0, sids)[0])
    if not n_cand.any():
        return empty
    pid, j = _ranks(n_cand)
    t, thin = uniforms(seed, "event_times", j, sids[pid])
    filled = np.arange(n_cand.max()) < n_cand[:, None]
    pad = np.full(filled.shape, np.inf)
    pad[filled] = ctx.horizon * t
    pad.sort(axis=1)
    cand = pad[filled]
    lam = ctx.total_intensity_at(cand)
    _check_majorant(lam, ctx.majorant)
    accept = thin * ctx.majorant <= lam
    return cand[accept], pid[accept]


def _draw_marked_events(ctx: SimulationContext, seed: int, sids: np.ndarray):
    """:func:`_draw_events` plus each path's event offsets, each event's
    position within its path and its mark, from its ``marks`` counter
    (one per event: its two uniforms cover every mark rule)."""
    ev_times, pid = _draw_events(ctx, seed, sids)
    ev_off = np.concatenate([[0], np.cumsum(np.bincount(pid, minlength=len(sids)))])
    local = np.arange(ev_times.size) - ev_off[pid]
    if ctx.kind == "none":
        return ev_times, pid, ev_off, local, np.zeros(0, dtype=np.int64)
    u = uniforms(seed, "marks", local, sids[pid])
    return ev_times, pid, ev_off, local, ctx.marks_from_uniforms(u, ev_times)


def _check_majorant(lam: np.ndarray, majorant: float) -> None:
    """Thinning is exact only below the majorant: check, do not trust it."""
    if np.any(lam > majorant):
        raise UnboundedIntensity("intensity exceeds the thinning majorant")


def _counts_below(times, pid, count: int, out: np.ndarray, side: str) -> np.ndarray:
    """(B, m) number of each row's ``times`` below ``out[j]``: strictly
    below for ``side="right"``, at or below for ``side="left"``."""
    first = np.searchsorted(out, times, side=side)  # first out[j] counting t
    m = len(out) + 1
    hist = np.bincount(pid * m + first, minlength=count * m).reshape(count, m)
    return np.cumsum(hist, axis=1)[:, :-1]


def _merge_grids(ctx: SimulationContext, ev_times, pid, count: int):
    """Each path's grid (the knots plus its distinct event times) in the
    first ``n_seg + 1`` columns of a horizon-padded array, and the column
    of every output time."""
    knots = ctx.base_knots
    pos = np.searchsorted(knots, ev_times)
    new = knots[np.minimum(pos, len(knots) - 1)] != ev_times
    new[1:] &= (ev_times[1:] != ev_times[:-1]) | (pid[1:] != pid[:-1])
    new_times, new_pid = ev_times[new], pid[new]
    n_new = np.bincount(new_pid, minlength=count)
    n_seg = len(knots) - 1 + n_new
    grid = np.full((count, n_seg.max() + 1), ctx.horizon)
    is_event = np.zeros(grid.shape, dtype=bool)
    rank = np.arange(new_times.size) - np.repeat(np.cumsum(n_new) - n_new, n_new)
    is_event[new_pid, pos[new] + rank] = True
    grid[is_event] = new_times
    is_knot = (np.arange(grid.shape[1]) <= n_seg[:, None]) & ~is_event
    grid[is_knot] = np.tile(knots, count)
    out = ctx.out_times  # knots themselves, so no new event equals one
    out_idx = np.searchsorted(knots, out) + _counts_below(
        new_times, new_pid, count, out, "right"
    )
    return grid, n_seg, out_idx


def _draw_increments(ctx: SimulationContext, seed: int, sids, n_seg, dt):
    """(B, W, D) Brownian increments, zero past each path's grid.  Path p
    fills its first ``n_seg[p] * D`` (segment, Brownian) cells in row-major
    order with Box-Muller pairs, one per ``brownian`` counter."""
    D = ctx.n_brownians
    z = np.zeros((len(sids), dt.shape[1] * D))
    if D:
        cells = n_seg * D
        pid, j = _ranks((cells + 1) // 2)
        pairs = box_muller(uniforms(seed, "brownian", j, sids[pid]))
        first_cells = 2 * j[:, None] + np.arange(2) < cells[pid][:, None]
        z[np.arange(z.shape[1]) < cells[:, None]] = pairs[first_cells]
    z = z.reshape(dt.shape + (D,))
    z *= np.sqrt(dt)[:, :, None]
    return z


def _event_sums(block: _Block, values) -> np.ndarray:
    """Sums of each path's first ``n_before[p, j]`` per-event ``values``
    ((..., n_events) -> (..., B, n_out)), added in event order."""
    e_max = int(block.local.max(initial=0)) + 1
    padded = np.zeros(values.shape[:-1] + (len(block), e_max))
    padded[..., block.pid, block.local] = values
    return _prefix_sums(padded, block.n_before)


def _sum_d(a, b) -> np.ndarray:
    """sum over d of a[d] * b[d], added in d order whatever the shapes, so
    a path's sum does not depend on the block it is computed in."""
    out = a[0] * b[0]
    for d in range(1, len(a)):
        out = out + a[d] * b[d]
    return out


def _log_prices(ctx: SimulationContext, block: _Block, dt) -> np.ndarray:
    """(B, n_out, n) stock values: the Brownian and drag sums over the
    grid, the deterministic drift and the jump factors, all stocks at once."""
    D = ctx.n_brownians
    dw = block.dw.transpose(2, 0, 1)  # (D, B, W)
    sig = ctx.sigma_const
    if sig is not None:
        x = _sum_d(sig.T[:, :, None, None], dw) if D else np.zeros((ctx.n, *dt.shape))
        x -= (0.5 * (sig * sig).sum(axis=1))[:, None, None] * dt
    else:
        left = block.grid[:, :-1]
        sig = np.array([[fn.value(left) for fn in row] for row in ctx.spec.sigma])
        sig = sig.transpose(1, 0, 2, 3)  # (D, n, B, W)
        x = _sum_d(sig, dw)
        x -= 0.5 * _sum_d(sig**2, [dt] * D)
    log_s = (  # (n, B, n_out)
        _prefix_sums(x, block.out_idx) + ctx.det_drift.T[:, None, :]
        + _event_sums(block, _event_log_factors(ctx, block.ev_times, block.ev_marks))
    )
    stocks = np.asarray(ctx.spec.s0)[:, None, None] * np.exp(log_s)
    return np.ascontiguousarray(stocks.transpose(1, 2, 0))


def _density(ctx: SimulationContext, block: _Block, dt) -> np.ndarray:
    """(B, n_out) density process of ``ctx.density_emm``: the Gaussian
    exponential over the grid, the deterministic drift, the ratio factors."""
    emm = ctx.density_emm
    D = ctx.n_brownians
    log_z1 = np.zeros(block.out_idx.shape)
    if D and emm.theta:
        dw = block.dw.transpose(2, 0, 1)  # (D, B, W)
        th = np.array([fn.value(block.grid[:, :-1]) for fn in emm.theta])
        seg = -_sum_d(th, dw)
        seg -= 0.5 * _sum_d(th**2, [dt] * D)
        log_z1 = _prefix_sums(seg, block.out_idx)
    log_phi = _event_log_phi(ctx, block.ev_times, block.ev_marks)
    return np.exp(log_z1 + ctx.z2_drift + _event_sums(block, log_phi))


def _simulate_block(ctx: SimulationContext, seed: int, first: int, count: int) -> _Block:
    """Simulate the paths of streams ``first .. first + count - 1``.

    Each kind of draw is one kernel call for the whole block: candidate
    counts, then candidate times with their thinning uniforms, then the
    accepted events' marks and, once the events fix every path's grid,
    the Brownian increments.  Every draw is addressed by its path's
    stream id and its index within the path, and everything else is done
    on whole-block arrays, so path k's values do not depend on the block
    it is in.
    """
    sids = _stream_ids(first, count)
    ev_times, pid, ev_off, local, marks = _draw_marked_events(ctx, seed, sids)
    grid, n_seg, out_idx = _merge_grids(ctx, ev_times, pid, count)
    dt = grid[:, 1:] - grid[:, :-1]
    block = _Block(
        first_stream=first, pid=pid, local=local, ev_off=ev_off, ev_times=ev_times,
        ev_marks=marks, n_seg=n_seg, grid=grid,
        dw=_draw_increments(ctx, seed, sids, n_seg, dt), out_idx=out_idx,
        n_before=_counts_below(ev_times, pid, count, ctx.out_times, "left"),
    )
    block.stocks = _log_prices(ctx, block, dt)
    if ctx.density_emm is not None:
        block.z = _density(ctx, block, dt)
    return block
