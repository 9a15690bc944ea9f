"""Block engine: many paths simulated together, each from its own counters.

Every path of a context lives on one shared grid, ``ctx.base_knots`` (0,
T, the output times and the knots of sigma, and of theta when weighting),
and draws each segment's Brownian integrals as one exact Gaussian
(:class:`_Segments`).  Events are not on the grid: they reach the stocks
and the density only through each path's sums of per-event values up to
each output time, added in event order by output interval or, with more
output times than events on a path, by rank (:func:`_event_sums`).
Every draw is addressed by its path's stream id, role and index within
the path (:mod:`upliftemm.philox`), so a joint block of the samples of
one check (:class:`_Sample`; one sample but for the two-route check's
two legs) makes two kernel calls for all of their paths: counts with
normals, then one counter per candidate, whose thinning draw also marks
it.  Each sample reads its own counters, at its own width.  Each
sample's block then sums on whole-block arrays, each path's sums in its
own order, so a path's values depend neither on the block size
(``_SEGMENT_BUDGET`` over the samples' summed widths, read at call time)
nor on the samples drawn with it.  A block builds only the stock rows it
is asked for (``stocks``): row i of a subset equals row i of the full
block bit for bit, and a density-only block (``stocks=()``) computes Z,
counts and increments but no stock path.  The entry points live in
:mod:`upliftemm.stochastic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

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


# -- per-event factors --------------------------------------------------------------


def _per_driver(rows, times, marks, order=None) -> np.ndarray:
    """(len(rows), n_events): each event's value of its driver's function
    in each row of functions, 0 past a row's end.  Each function is
    evaluated once, on its driver's events, in time order when ``order``
    sorts the events (where np.interp and step lookups are faster).
    Constant rows look nothing up: each event gathers its driver's column
    of one zero-padded (len(rows), M) table."""
    M = max(map(len, rows))
    if all(fn.is_constant for row in rows for fn in row):
        table = np.zeros((len(rows), M))
        for r, row in enumerate(rows):
            table[r, :len(row)] = [fn.constant_value for fn in row]
        return table[:, marks]
    by_driver = marks if order is None else marks[order]
    out = np.zeros((len(rows), times.size))
    for m in range(M):
        idx = np.flatnonzero(by_driver == m) if order is None else order[by_driver == m]
        at = times[idx]
        for r, row in enumerate(rows):
            if m < len(row):
                out[r, idx] = row[m].value(at)
    return out


def _event_log_factors(ctx: SimulationContext, ev_times, ev_marks, order=None,
                       stocks=None):
    """(len(stocks), n_events) log jump factors ln(1 + y_i) at each event
    for the ``stocks`` rows (None: all n); one (1, n_events) row on a
    continuous-mark market, where every stock jumps by the mark."""
    if ctx.kind == "continuous":
        return np.log1p(ev_marks.astype(float))[None, :]
    loadings = ctx.spec.jumps.loadings
    if stocks is not None:
        loadings = [loadings[i] for i in stocks]
    if ev_times.size == 0:
        return np.zeros((len(loadings), 0))
    out = _per_driver(loadings, ev_times, ev_marks, order)
    return np.log1p(out, out=out)


def _event_log_phi(ctx: SimulationContext, ev_times, ev_marks, order=None, lam=None):
    """log d(lambda~)/d(lambda) of the density measure at each event;
    ``lam``, a block's simulation intensities at them, are lambda under P."""
    emm = ctx.density_emm
    if ev_times.size == 0:
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

    @property
    def n_normals(self) -> int:
        """Standard normals a path draws: the K * D increments, then one
        per ``varies`` cell."""
        return self.varies.size + int(self.varies.sum())


def _segment_gaussians(rows, knots: np.ndarray, out_times) -> _Segments:
    """The per-segment Gaussians of the loadings ``rows`` (Y rows of D
    time functions) on the segments of ``knots``, which hold every knot of
    them, from each loading's right limit at a segment's start and left
    limit at its end."""
    dt = np.diff(knots)
    limits = np.array([[fn.limits(knots) for fn in row] for row in rows], dtype=float)
    limits = limits.reshape(len(rows), len(rows[0]), 2, len(knots))  # (Y, D, 2, K + 1)
    left, right = limits[:, :, 1, :-1], limits[:, :, 0, 1:]  # (Y, D, K)
    mean = 0.5 * (left + right)
    tilt = (right - left) * np.sqrt(dt / 12.0)
    drag = 0.5 * ((mean * mean).sum(axis=1) * dt + (tilt * tilt).sum(axis=1))
    return _Segments(
        dt=dt,
        mean=mean.transpose(1, 0, 2)[:, :, None, :],
        tilt=tilt.transpose(1, 0, 2)[:, :, None, :],
        drag=drag[:, None, :],
        varies=(tilt != 0.0).any(axis=0).T,
        out_idx=np.searchsorted(knots, out_times),
    )


def _segment_normals(seg: _Segments, z: np.ndarray):
    """A (B, K, D) draw of the segments' Brownian integrals from (B, ...)
    standard normals: the K * D increments in (segment, Brownian) order,
    then one normal per ``varies`` cell; returns the increments and the
    (B, K, D) ``varies`` normals (None if there are none)."""
    B, (K, D) = len(z), seg.varies.shape
    n_dw, n_res = K * D, int(seg.varies.sum())
    dw = z[:, :n_dw].reshape(B, K, D) * np.sqrt(seg.dt)[:, None]
    res = None
    if n_res:
        res = np.zeros((B, K, D))
        res[:, seg.varies] = z[:, n_dw:n_dw + n_res]
    return dw, res


# -- block engine -------------------------------------------------------------------

# Cells a block is sized for.  A block's arrays hold about this many
# (path, grid segment or event) cells, so memory stays flat in n_paths
# while numpy's per-call cost is spread over the block's paths.
_SEGMENT_BUDGET = 1 << 15


def _block_size(*ctxs: SimulationContext) -> int:
    """Paths per block of samples on contexts ``ctxs``: the budget over
    their summed generous per-path widths, each the shared grid's knots
    plus the candidate count's mean and three deviations (which bounds
    the padded width of the candidate sort)."""
    width = 0.0
    for ctx in ctxs:
        mean = ctx.majorant * ctx.horizon
        width += len(ctx.base_knots) + mean + 3.0 * np.sqrt(mean) + 3.0
    return max(1, int(_SEGMENT_BUDGET // width))


@dataclass
class _Block:
    """Consecutive paths simulated together on the shared grid.

    Row p is stream ``first_stream + p``.  Events are path-major: path p
    owns ``ev_times[ev_off[p]:ev_off[p + 1]]``, and ``pid`` names each
    event's row; ``order`` sorts them by time (else None), and ``lam`` holds
    a time-varying discrete market's (M, n_events) intensities at them.
    ``dw[p]`` holds the path's increments over the shared grid's segments
    and ``sums`` how its event values are summed (:func:`_sum_plan`).
    """

    pid: np.ndarray
    ev_off: np.ndarray
    ev_times: np.ndarray
    ev_marks: np.ndarray
    order: np.ndarray | None = None
    lam: np.ndarray | None = None
    first_stream: int = 0
    dw: np.ndarray | None = None  # (B, K, D)
    sums: _SumPlan | None = None
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


def _stream_ids(first: int, count: int) -> np.ndarray:
    """The 64-bit stream ids ``first .. first + count - 1`` (wrapping)."""
    return np.uint64(first & MASK64) + np.arange(count, dtype=np.uint64)


def _candidates(ctx: SimulationContext, u_count):
    """The candidate mask of a block whose paths drew the ``count``
    uniforms ``u_count``: entry (p, j) is set iff path p has a candidate
    j, its count inverting the context's Poisson table at its uniform; and
    each set entry's path and candidate index, in mask order."""
    n_cand = np.zeros(len(u_count), dtype=np.int64)
    if ctx.majorant > 0.0:
        n_cand = poisson_counts(ctx.count_table, u_count)
    width = n_cand.max(initial=0)
    filled = np.arange(width) < n_cand[:, None]
    at = np.flatnonzero(filled)
    pid = at // width
    return filled, pid, at - pid * width


def _draw_marked_events(samples, seed: int, lo: int, count: int):
    """(block, res) for each :class:`_Sample`: its block of paths ``lo ..
    lo + count - 1`` with only their accepted events (:func:`_marked_events`)
    and increments, and their ``varies`` normals.  Two kernel calls serve
    every path of every sample: the counts with the normals
    (:func:`_path_draws`), then one counter per candidate.  A sample reads
    exactly its own counters and inverts its own Poisson table."""
    sids = [_stream_ids(s.first_stream + lo, count) for s in samples]
    draws = _path_draws([s.ctx for s in samples], seed, sids)
    cands = [_candidates(s.ctx, u_count) for s, (u_count, _, _) in zip(samples, draws)]
    ends = np.cumsum([pid.size for _, pid, _ in cands])
    u = None
    if ends[-1]:
        u = uniforms(seed, "event_times", _joined([j for _, _, j in cands]),
                     _joined([sid[pid] for sid, (_, pid, _) in zip(sids, cands)]))
    cands = [(filled, pid) for filled, pid, _ in cands]  # free the indices j before thinning
    drawn = []
    for s, (filled, pid), end, (_, dw, res) in zip(samples, cands, ends, draws):
        block = _marked_events(s.ctx, filled, pid, None if u is None else u[:, end - pid.size:end])
        block.first_stream, block.dw = s.first_stream + lo, dw
        drawn.append((block, res))
    return drawn


def _joined(arrays) -> np.ndarray:
    """The arrays end to end; a lone array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _marked_events(ctx: SimulationContext, filled, pid, u) -> _Block:
    """A block with only its accepted events: their times (path-major,
    sorted within each path), rows, offsets, marks, time order and
    intensities, from the :func:`_candidates` mask ``filled`` and rows
    ``pid`` and the candidates' (2, n_candidates) uniforms ``u``.

    Candidate j of path p reads one counter, ``event_times`` j: its time
    and its thinning uniform, independent of every time, so the sorted
    times take them in counter order.  It is accepted iff w = thin *
    majorant <= total(t), and then w is uniform on [0, total(t)], so w
    also picks the driver or region with probability lambda_m(t) /
    total(t) (Lewis and Shedler, 1979), and a continuous mark's quantile
    is w / total(t) rescaled within its region
    (:meth:`SimulationContext.marks_from_uniforms`).
    """
    B = len(filled)
    ev_times, w = np.zeros(0), np.zeros(0)
    accept, order, lam = np.zeros(0, dtype=bool), None, None
    if pid.size:
        t, thin = u
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
        w = thin * ctx.majorant
        accept = w <= total
        ev_times, w = cand[accept], w[accept]
        if ctx.kind == "continuous":  # the mark uniform, over the total thinning read
            w /= total[accept]
        if order is not None:  # each accepted candidate's event index, in time order
            order = (np.cumsum(accept) - 1)[order[accept[order]]]
        lam = None if lam is None else lam.compress(accept, axis=1)  # C-ordered: sums run by row
    pid = pid[accept]
    ev_off = np.concatenate([[0], np.cumsum(np.bincount(pid, minlength=B))])
    marks = np.zeros(0, dtype=np.int64)
    if ctx.kind == "continuous" or ev_times.size:
        marks = ctx.marks_from_uniforms(w, ev_times, lam)
    return _Block(pid, ev_off, ev_times, marks, order, lam)


@dataclass(frozen=True)
class _SumPlan:
    """How :func:`_event_sums` adds a block's per-event values up to each
    output time: ``take`` lists the events in the plan's order, ``off``
    bounds its groups, and either ``pid`` names each taken event's path
    (:func:`_interval_plan`) or ``at`` locates each path's sum at each
    output time (:func:`_rank_plan`)."""

    take: np.ndarray
    off: np.ndarray
    pid: np.ndarray | None = None
    at: np.ndarray | None = None  # (B, n_out)


def _interval_plan(pid, times, out) -> _SumPlan:
    """The events at or before ``out[-1]`` grouped by output interval, the
    number of output times strictly before an event, in event order
    within each group."""
    n_out = len(out)
    kind = np.min_scalar_type(n_out)  # uint8 up to 255 output times, radix-sorted
    k = (times > out[:, None]).sum(axis=0, dtype=kind)
    order = np.argsort(k, kind="stable")
    off = np.searchsorted(k[order], np.arange(n_out + 1, dtype=kind))
    take = order[:off[-1]]
    return _SumPlan(take, off, pid=pid[take])


def _rank_plan(pid, ev_off, times, out) -> _SumPlan:
    """The events in levels: level 0 holds one zero per path and level r
    the r-th event of each path that has r, the paths ordered by their
    number of events, most first.  So a level's paths lead the level
    before it, and each path's running sums are one slice sum per level.
    ``at[p, j]`` is the level slot of path p's last event at or before
    ``out[j]``."""
    B, n_out, N = len(ev_off) - 1, len(out), times.size
    count = np.diff(ev_off)
    place = np.empty(B, dtype=np.intp)
    place[np.argsort(-count, kind="stable")] = np.arange(B)
    width = np.bincount(count, minlength=1)[::-1].cumsum()[::-1]  # paths with >= r events
    off = np.zeros(len(width) + 1, dtype=np.intp)
    np.cumsum(width, out=off[1:])
    take, ev = np.empty(N, dtype=np.intp), np.arange(N)
    take[off[1:][ev - ev_off[pid]] + place[pid] - B] = ev
    n = np.bincount(np.searchsorted(out, times) * B + pid, minlength=(n_out + 1) * B)
    n = np.cumsum(n.reshape(n_out + 1, B)[:n_out], axis=0)  # events at or before
    return _SumPlan(take, off, at=(off[n] + place).T)


def _sum_plan(pid, ev_off, times, out) -> _SumPlan:
    """The cheaper plan for a block.  The interval plan makes one pass per
    output interval and row, the rank plan one per rank for all rows plus
    a (B, n_out) table, so a block with few output times, no more than
    its most events on a path, sums by interval and any other by rank."""
    out = np.asarray(out, dtype=float)
    if len(out) <= np.diff(ev_off).max(initial=0):
        return _interval_plan(pid, times, out)
    return _rank_plan(pid, ev_off, times, out)


def _path_draws(ctxs, seed: int, sids):
    """Each sample's ``count`` uniforms and :func:`_segment_normals` on its
    shared grid, for contexts ``ctxs`` on stream ids ``sids`` (one (B,)
    array each), from one kernel call over their counter grids joined by
    rows: row k holds sample k's counters (0, count, sid), then each
    sample's (j, brownian, sid) rows follow in turn, so a sample reads its
    own number of them and the long axis is the innermost.  The normals
    are Box-Muller pairs, one per ``brownian`` counter."""
    S = len(ctxs)
    pairs = [(ctx.segments.n_normals + 1) // 2 for ctx in ctxs]
    j = np.concatenate([np.zeros(S, dtype=np.int64), *map(np.arange, pairs)])
    roles = np.full(j.size, ROLE_IDS["brownian"])
    roles[:S] = ROLE_IDS["count"]
    sid = sids[0] if S == 1 else np.stack(sids)[np.r_[:S, np.repeat(np.arange(S), pairs)]]
    u = uniforms(seed, roles[:, None], j[:, None], sid)  # (2, S + pairs, B)
    draws, lo = [], S
    for k, (ctx, n_pairs) in enumerate(zip(ctxs, pairs)):
        z = box_muller(u[:, lo:lo + n_pairs]).transpose(1, 0, 2).reshape(len(sids[k]), -1)
        draws.append((u[0, k], *_segment_normals(ctx.segments, z)))
        lo += n_pairs
    return draws


def _sum_d(a, b) -> np.ndarray:
    """sum over d of a[d] * b[d], added in d order whatever the shapes, so
    a path's sum does not depend on the block it is computed in."""
    out = a[0] * b[0]
    for d in range(1, len(a)):
        out += a[d] * b[d]
    return out


def _gaussian_sums(seg: _Segments, dw, res, rows=slice(None)) -> np.ndarray:
    """(Y, B, n_out) int g . dW - 1/2 int |g|^2 up to each output time for
    each of the ``rows`` of the segments' Gaussians, added in grid order."""
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
    """Sums of each path's per-event ``values`` ((..., n_events) ->
    (..., B, n_out)) over its events at or before each output time, added
    in event order from zero, whichever plan the block has: by interval,
    each row keeps one running sum per path, adds each output interval's
    events to it in turn and is copied out after each; by rank, each
    level's slots add the slots of the level before."""
    plan, B = block.sums, len(block)
    lead = values.shape[:-1]
    rows = values.reshape(math.prod(lead), values.shape[-1])
    if plan.at is not None:
        cells = np.zeros((len(rows), plan.off[-1]))
        np.take(rows, plan.take, axis=1, out=cells[:, B:])
        for lo, hi, end in zip(plan.off[:-2], plan.off[1:-1], plan.off[2:]):
            cells[:, hi:end] += cells[:, lo:lo + end - hi]
        return np.take(cells, plan.at, axis=1).reshape(lead + plan.at.shape)
    rows, pid, off = np.take(rows, plan.take, axis=1), plan.pid, plan.off
    n_out = len(off) - 1
    sums = np.empty((len(rows), B, n_out))
    for row, row_sums in zip(rows, sums):
        # with no event in the first interval bincount gives int64 zeros
        run = np.bincount(pid[:off[1]], row[:off[1]], minlength=B).astype(float)
        row_sums[:, 0] = run
        for j in range(1, n_out):
            np.add.at(run, pid[off[j]:off[j + 1]], row[off[j]:off[j + 1]])
            row_sums[:, j] = run
    return sums.reshape(lead + (B, n_out))


class _Sample(NamedTuple):
    """One sample of a block loop: its context, its first path's stream id,
    the stock rows its blocks build (None: all n; (): none) and a
    per-event hook (:func:`upliftemm.stochastic._terminal_sample`)."""

    ctx: SimulationContext
    first_stream: int = 0
    stocks: Sequence[int] | None = None
    event_values: Callable | None = None


def _simulate_blocks(samples, seed: int, lo: int, count: int):
    """Yield (lo, k, block): the paths ``lo .. lo + count - 1`` of each
    sample k, drawn as one joint block (:func:`_draw_marked_events`).
    Each sample's block is built and yielded before the next sample's, so
    a consumer's work overlaps only its own block's arrays."""
    drawn = _draw_marked_events(samples, seed, lo, count)
    for k, sample in enumerate(samples):  # no block is held here: a consumer frees it
        yield lo, k, _build_block(sample, *drawn.pop(0))


def _simulate_block(
    ctx: SimulationContext, seed: int, first: int, count: int, stocks=None
) -> _Block:
    """The paths of streams ``first .. first + count - 1``: a joint block
    of one sample."""
    return next(_simulate_blocks([_Sample(ctx, first, stocks)], seed, 0, count))[2]


def _build_block(sample: _Sample, block: _Block, res) -> _Block:
    """Finish a sample's block of accepted events and increments, with its
    ``varies`` normals ``res``, on whole-block arrays.  ``sample.stocks``
    lists the stock rows it builds, in that order, as ``block.stocks[:,
    k]`` (None: all n).  Only those rows get Gaussian sums, drift, jump
    factors, exp and s0; with ``()`` the block carries only the density
    and the counts."""
    ctx, stocks, dw = sample.ctx, sample.stocks, block.dw
    ev_times, marks, order = block.ev_times, block.ev_marks, block.order
    block.sums = _sum_plan(block.pid, block.ev_off, ev_times, ctx.out_times)
    n, n_rows = ctx.n, len(ctx.segments.drag)  # -theta's row follows the stocks'
    rows = slice(None) if stocks is None else list(stocks)
    k = n if stocks is None else len(rows)
    # all stocks or none take a slice of the Gaussians' rows, copying none
    picked = slice(n - k, None) if stocks is None or not k else [*rows, *range(n, n_rows)]
    gauss = _gaussian_sums(ctx.segments, dw, res, picked)
    if k:
        log_s = gauss[:k] + ctx.det_drift.T[rows, None, :]  # (k, B, n_out)
        log_s += _event_sums(block, _event_log_factors(ctx, ev_times, marks, order, stocks))
        np.exp(log_s, out=log_s)
        log_s *= np.asarray(ctx.spec.s0)[rows, None, None]
        block.stocks = np.ascontiguousarray(log_s.transpose(1, 0, 2))
    if ctx.density_emm is not None:
        log_z1 = gauss[-1] if n_rows > n else 0.0  # -theta's row
        log_phi = _event_log_phi(ctx, ev_times, marks, order, block.lam)
        block.z = np.exp(log_z1 + ctx.z2_drift + _event_sums(block, log_phi))
    return block
