"""Consistent uplift of the fictitious market's pricing measure.

Once the fictitious market is complete, its unique measure is pinned down
by Brownian risk premia theta*(t) and risk-neutral driver intensities.
Consistency across all possible reductions forces the extension back to
the original market: neglected drivers keep their physical intensities
(no risk premium), batched drivers split the batch intensity in
proportion to their physical weights, and a continuous mark density is
reweighted cell by cell while keeping its shape within each cell.  One
uplift, :func:`uplift_discrete`, serves every discrete plan, complete
neglect being the one with no batches; :func:`uplift_continuous` serves
cell plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densities import Density
from .errors import (
    EmptyCell,
    InvalidIntensities,
    NonpositiveGamma,
    NotComplete,
    PlanMismatch,
    ShapeMismatch,
)
from .model import (
    JUMP_GRID_POINTS,
    ContinuousJumpSpec,
    DiscreteJumpSpec,
    MarketSpec,
    default_grid,
)
from .mpr import classify_over_grid
from .reduction import ContinuousPlan, FictitiousMarket, reduce_market
from .timefns import TimeFunction, derivation, derive, stack_values

__all__ = [
    "Emm",
    "CellMeasure",
    "UpliftVerification",
    "solve_unique_emm",
    "uplift_discrete",
    "uplift_continuous",
    "uplift_general",
    "build_uplifted_emm",
    "verify_uplift",
    "physical_emm",
]

VERIFY_TOL_DISCRETE = 1e-9
VERIFY_TOL_CONTINUOUS = 1e-7
# solved node values this many ulp apart (of their largest magnitude) are
# one constant up to rounding
COLLAPSE_ULPS = 32


def cell_index(cells, y) -> np.ndarray:
    """Index of the cell holding each mark in ``y``, -1 outside every cell;
    a mark on a shared cell edge belongs to the first cell."""
    y = np.asarray(y, dtype=float)
    idx = np.full(y.shape, -1)
    for k in reversed(range(len(cells))):
        a, b = cells[k]
        idx[(y >= a) & (y <= b)] = k
    return idx


@dataclass(frozen=True)
class CellMeasure:
    """Risk-neutral jump measure of a continuous mark space.

    Within each cell the density keeps the physical shape, scaled so that
    the cell carries intensity ``cell_intensities[k]``; the remainder (if
    any) keeps the physical intensity measure unchanged.  So the measure
    is a finite mixture of the base density restricted to regions (the
    cells, then the gaps of the remainder), and a mark is one exact
    inverse-CDF draw from one uniform: the region, then the quantile.
    Every time-dependent quantity takes a time or an array of times.
    """

    base: Density
    physical_intensity: TimeFunction
    cells: tuple[tuple[float, float], ...]
    cell_intensities: tuple[TimeFunction, ...]
    remainder_physical: bool = False

    @cached_property
    def _regions(self) -> np.ndarray:
        """(R, 2) mark intervals a mark is drawn in: the cells, then, when
        the remainder keeps the physical measure, the gaps the cells leave
        in the support."""
        regions = list(self.cells)
        if self.remainder_physical:
            cursor, hi = self.base.support
            for a, b in sorted(self.cells):
                if a > cursor:
                    regions.append((cursor, a))
                cursor = max(cursor, b)
            if hi > cursor:
                regions.append((cursor, hi))
        return np.array(regions, dtype=float)

    def _table(self, t):
        """Each region's intensity, base mass and lower CDF edge at each of
        the times ``t``: an (R, len(t)) array, then two that broadcast to
        it ((R, 1) for a base constant in time).  A cell carries its own
        intensity, a gap the physical intensity times its mass."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cdf = self.base.cdf(self._regions[:, :, None], t)
        lo, mass = cdf[:, 0], cdf[:, 1] - cdf[:, 0]
        rates = np.empty((len(lo), t.size))
        for k, fn in enumerate(self.cell_intensities):
            rates[k] = fn.value(t)
        n = len(self.cells)
        if len(rates) > n:
            rates[n:] = self.physical_intensity.value(t) * mass[n:]
        return rates, mass, lo

    def total_intensity(self, t):
        """Total intensity at a time, or at each of an array of times."""
        total = self._table(t)[0].sum(axis=0)  # in region order
        return total if np.ndim(t) else float(total[0])

    def phi(self, y: float, t: float) -> float:
        """Intensity ratio d(lambda~)/d(lambda) at mark y."""
        return float(self.phi_values(np.array([y], float), np.array([t], float))[0])

    def phi_values(self, y: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`phi` at each pair (y[j], t[j]): in a cell, its intensity
        over its physical intensity; outside every cell, 1 when the
        remainder keeps the physical measure, else 0.  A mark on a shared
        cell edge belongs to the first cell."""
        k = cell_index(self.cells, y)
        out = np.full(y.shape, float(self.remainder_physical))
        at = np.flatnonzero(k >= 0)
        ts, k, col = t[at], k[at], np.arange(at.size)
        rates, mass, _ = self._table(ts)
        mass = np.broadcast_to(mass, rates.shape)[k, col]
        phys = self.physical_intensity.value(ts) * mass
        if np.any(phys <= 0.0):
            raise EmptyCell("physical cell intensity vanished")
        out[at] = rates[k, col] / phys
        return out

    def density_value(self, y, t: float = 0.0):
        """The reweighted mark density f~*_t(y)."""
        y = np.asarray(y, dtype=float)
        rates, mass, _ = self._table(t)
        rates, mass = rates[:, 0], mass[:, 0]
        # a massless region has density 0
        scale = np.divide(rates / rates.sum(), mass, out=np.zeros(mass.shape),
                          where=mass > 0.0)
        k = cell_index(self._regions, y)
        out = np.where(k >= 0, self.base.pdf(y, t) * scale[k], 0.0)
        return out if out.ndim else float(out)

    def mean_jump_intensity(self, t):
        """integral of y d(lambda~_t)(y), the risk-neutral jump drift, at a
        time or at each of an array of times: each region's intensity times
        its restricted mean, added in region order."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        rates, mass, _ = self._table(ts)
        total = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):  # a massless region adds 0
            for (a, b), rate, m in zip(self._regions, rates, mass):
                mean = self.base._partial_moment(a, b, ts) / m
                total = total + rate * np.where(m > 0.0, mean, 0.0)
        return total if np.ndim(t) else float(total[0])

    @cached_property
    def _functions(self) -> dict:
        return {}

    def time_function(self, name: str, horizon: float) -> TimeFunction:
        """The method ``name`` (``"total_intensity"`` or
        ``"mean_jump_intensity"``) as a TimeFunction on [0, horizon],
        derived from the intensities and the base density's parameters by
        :func:`timefns.derive` on a ``JUMP_GRID_POINTS``-point grid.  Built
        once per measure and horizon and shared by every simulation context
        built from this measure."""
        key = (name, float(horizon))
        if key not in self._functions:
            inputs = (self.physical_intensity, *self.cell_intensities,
                      *self.base.time_functions)
            grid = default_grid(horizon, JUMP_GRID_POINTS)
            self._functions[key] = derive(getattr(self, name), inputs, grid)
        return self._functions[key]

    def marks_from_uniforms(self, u: np.ndarray, times: np.ndarray):
        """Marks at event ``times`` from uniforms ``u``: ``u`` picks the
        region k (a cell or a gap of the remainder) with c_{k-1} < u <= c_k
        for the cumulative shares c of the regions' intensities at the
        event's time, and its residual q = (u - c_{k-1}) / (c_k - c_{k-1}),
        again uniform and independent of k, is the quantile of the base
        density restricted to that region (Devroye, *Non-Uniform Random
        Variate Generation*, 1986), so a mark is one inverse-CDF draw, with
        no rejection.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return np.zeros(0)
        rates, mass, lo = self._table(times)
        # (R, n): each event's shares added in region order, over their sum
        cum = rates / rates.sum(axis=0)
        for r in range(1, len(cum)):
            cum[r] += cum[r - 1]
        cum /= cum[-1]
        # the first region whose cumulative probability reaches u
        n = times.size
        k = np.minimum((cum < u).sum(axis=0), len(rates) - 1)
        at = k * n + np.arange(n)  # event j's entry of region k in an (R, n) table
        below = np.where(k > 0, cum.take(at - n), 0.0)  # (at - n wraps where k = 0)
        width = cum.take(at) - below
        # a region of zero width is reached only on an exact tie
        q = np.divide(u - below, width, out=np.zeros(u.shape), where=width > 0.0)
        np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
        # lo and mass are (R, n), or (R, 1) for a base constant in time
        lo, mass = (x.take(at if x.shape[1] == n else k) for x in (lo, mass))
        marks = self.base.ppf(lo + q * mass, times)
        # ppf(cdf(a)) need not be a: keep each mark in the region it picked
        # (the bound second, so that a tie returns the bound, as np.clip does)
        np.maximum(marks, self._regions[:, 0].take(k), out=marks)
        return np.minimum(marks, self._regions[:, 1].take(k), out=marks)

    def to_json(self):
        return {
            "base": self.base.to_json(),
            "physical_intensity": self.physical_intensity.to_json(),
            "cells": [list(c) for c in self.cells],
            "cell_intensities": [fn.to_json() for fn in self.cell_intensities],
            "remainder_physical": self.remainder_physical,
        }

    @staticmethod
    def from_json(obj) -> "CellMeasure":
        return CellMeasure(
            base=Density.from_json(obj["base"]),
            physical_intensity=TimeFunction.from_json(obj["physical_intensity"]),
            cells=tuple(tuple(c) for c in obj["cells"]),
            cell_intensities=tuple(
                TimeFunction.from_json(x) for x in obj["cell_intensities"]
            ),
            remainder_physical=bool(obj["remainder_physical"]),
        )


@dataclass(frozen=True)
class Emm:
    """An equivalent measure change for a jump-diffusion market.

    theta[d] shifts Brownian d (W + int theta dt is the new Brownian);
    for discrete markets ``intensities[m]`` is the risk-neutral rate of
    driver m (None reads as no driver, and no driver is written as null),
    and for continuous ones ``jump_measure`` carries the reweighted
    intensity measure.  The same object parameterizes both
    direct simulation under the new measure and the density process along
    physical paths.
    """

    theta: tuple[TimeFunction, ...]
    intensities: tuple[TimeFunction, ...] = ()
    jump_measure: CellMeasure | None = None
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "theta", tuple(TimeFunction.coerce(f) for f in self.theta)
        )
        object.__setattr__(
            self,
            "intensities",
            tuple(TimeFunction.coerce(f) for f in self.intensities or ()),
        )

    def to_json(self):
        return {
            "theta": [fn.to_json() for fn in self.theta],
            "lambda_tilde": [fn.to_json() for fn in self.intensities] or None,
            "density": (
                None if self.jump_measure is None else self.jump_measure.to_json()
            ),
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(obj) -> "Emm":
        lam = obj.get("lambda_tilde")
        dens = obj.get("density")
        return Emm(
            theta=tuple(TimeFunction.from_json(x) for x in obj["theta"]),
            intensities=(
                None if lam is None else tuple(TimeFunction.from_json(x) for x in lam)
            ),
            jump_measure=None if dens is None else CellMeasure.from_json(dens),
            provenance=obj.get("provenance", ""),
        )


def physical_emm(spec: MarketSpec) -> Emm:
    """The identity measure change (theta = 0, intensities physical)."""
    theta = tuple(TimeFunction.constant(0.0) for _ in range(spec.n_brownians))
    if isinstance(spec.jumps, DiscreteJumpSpec):
        return Emm(theta=theta, intensities=spec.jumps.intensities,
                   provenance="physical")
    lo, hi = spec.jumps.support
    measure = CellMeasure(
        base=spec.jumps.density,
        physical_intensity=spec.jumps.total_intensity,
        cells=((lo, hi),),
        cell_intensities=(spec.jumps.total_intensity,),
    )
    return Emm(theta=theta, jump_measure=measure, provenance="physical")


# -- solving the fictitious market --------------------------------------------


def _solved_fn(values: np.ndarray, make) -> TimeFunction:
    """A solved coefficient from its node values: the constant values[0]
    when they agree within COLLAPSE_ULPS ulp of their largest magnitude,
    else ``make(values)``."""
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= COLLAPSE_ULPS * math.ulp(max(-lo, hi)):  # max(-lo, hi) = max|v|
        return TimeFunction.constant(float(values[0]))
    return make(values)


def solve_unique_emm(spec: MarketSpec, grid=None) -> Emm:
    """Solve a (reduced) market's risk-premium system into a measure.

    The system is solved at the nodes :func:`timefns.derivation` picks
    from the coefficients: when every coefficient is constant or piecewise
    constant, once per piece of their merged breakpoints, at the piece's
    left end, so each solution is a step function on those pieces, exact
    on all of [0, T]; otherwise (interpolated samples) at the grid nodes,
    interpolated linearly between them.  Either way, a solution whose node
    values agree within ``COLLAPSE_ULPS`` = 32 ulp of their largest
    magnitude is stored as a constant, so rounding in the solve adds no
    time dependence.

    Raises NotComplete unless the system is uniquely solvable at every
    node, and InvalidIntensities if a solution exists but is not a
    positive intensity vector.
    """
    if grid is None:
        grid = default_grid(spec.horizon)
    nodes, make = derivation(spec.coefficient_functions(), grid)
    cls = classify_over_grid(spec, nodes)
    if not cls.all_complete:
        bad = cls.first_failure()
        raise NotComplete(
            f"market is {bad.tag} at t={bad.t:g} "
            f"(rank {bad.rank}, nullspace {bad.nullspace_dim})"
        )
    if not cls.all_emm_valid:
        bad = cls.entry(int(np.argmax(cls.nonpositive.any(axis=1))))
        raise InvalidIntensities(
            f"unique solution has nonpositive intensities "
            f"{bad.nonpositive_intensities} at t={bad.t:g}"
        )
    fns = tuple(_solved_fn(col, make) for col in cls.solution_matrix().T)
    D = spec.n_brownians
    return Emm(theta=fns[:D], intensities=fns[D:], provenance="solved")


# -- uplift constructions -------------------------------------------------------


def _uplift_theta(fict_emm: Emm, fict: FictitiousMarket):
    theta = [TimeFunction.constant(0.0)] * fict.original.n_brownians
    for reduced_d, original_d in enumerate(fict.brownian_map):
        theta[original_d] = fict_emm.theta[reduced_d]
    return tuple(theta)


def _require_discrete_solution(fict_emm: Emm):
    if fict_emm.intensities == () and fict_emm.theta == ():
        raise NotComplete("fictitious solution is empty")


def uplift_discrete(fict_emm: Emm, fict: FictitiousMarket, grid=None) -> Emm:
    """Extend a discrete-plan solution to the original market.

    Retained drivers take their solved intensities.  Member m of a batch
    with solved intensity gamma*(t) receives lambda~*_m(t) = gamma*(t) *
    delta_m(t), the share proportional to its physical conditional
    probability within the batch, with the reduction's own delta_m.
    Neglected drivers carry no risk premium, so their risk-neutral
    intensities equal the physical ones, and dropped Brownian drivers get
    theta = 0.
    """
    if isinstance(fict.plan, ContinuousPlan):
        raise PlanMismatch("discrete plans apply to discrete jump drivers")
    _require_discrete_solution(fict_emm)
    spec, batches = fict.original, fict.plan.batches
    theta = _uplift_theta(fict_emm, fict)
    provenance = "uplift: batching" if batches else "uplift: complete neglect"
    fict_lams = fict_emm.intensities
    if len(fict_lams) != len(fict.driver_groups):
        raise NotComplete("fictitious solution does not match the plan")

    lams: list[TimeFunction] = list(spec.jumps.intensities)
    if batches and grid is None:
        grid = default_grid(spec.horizon)
    for group, deltas, lam in zip(fict.driver_groups, fict.weights, fict_lams):
        if len(group) == 1:
            lams[group[0]] = lam
            continue
        if lam.min_value(0.0, spec.horizon) <= 0.0:
            raise NonpositiveGamma(f"solved batch intensity nonpositive for batch {group}")
        shares = derive(
            lambda t: lam.value(t) * np.array([d.value(t) for d in deltas]),
            (lam, *deltas),
            grid,
        )
        for m, share in zip(group, shares):
            lams[m] = share
    bad = [m for m, fn in enumerate(lams) if fn.min_value(0.0, spec.horizon) <= 0.0]
    if bad:
        raise InvalidIntensities(f"uplifted intensities nonpositive: {bad}")
    return Emm(theta=theta, intensities=tuple(lams), provenance=provenance)


def uplift_continuous(fict_emm: Emm, fict: FictitiousMarket) -> Emm:
    """Extend a cell solution to a reweighted mark density.

    The unique consistent density keeps the physical shape within each
    cell and scales it to the solved cell probability; an uncovered
    remainder keeps the physical intensity measure (no risk premium).
    The reduction has already refused a cell of ~zero probability.
    """
    if not isinstance(fict.plan, ContinuousPlan):
        raise PlanMismatch("cell plans apply to continuous mark spaces")
    _require_discrete_solution(fict_emm)
    spec = fict.original
    theta = _uplift_theta(fict_emm, fict)
    fict_lams = fict_emm.intensities
    if len(fict_lams) != len(fict.cells):
        raise NotComplete("fictitious solution does not match the cell count")
    if any(lam.min_value(0.0, spec.horizon) <= 0.0 for lam in fict_lams):
        raise InvalidIntensities("cell intensity nonpositive")
    measure = CellMeasure(
        base=spec.jumps.density,
        physical_intensity=spec.jumps.total_intensity,
        cells=fict.cells,
        cell_intensities=tuple(fict_lams),
        remainder_physical=fict.plan.neglect_remainder,
    )
    return Emm(theta=theta, jump_measure=measure, provenance="uplift: continuous")


def uplift_general(fict_emm: Emm, fict: FictitiousMarket, grid=None) -> Emm:
    """Dispatch on the plan kind; compositions agree with one-shot results."""
    if isinstance(fict.plan, ContinuousPlan):
        return uplift_continuous(fict_emm, fict)
    return uplift_discrete(fict_emm, fict, grid)


def build_uplifted_emm(spec: MarketSpec, plan, grid=None):
    """reduce -> solve -> uplift in one call.

    Returns (emm, fictitious_market, fictitious_emm).
    """
    if grid is None:
        grid = default_grid(spec.horizon)
    fict = reduce_market(spec, plan, grid)
    fict_emm = solve_unique_emm(fict.spec, grid)
    emm = uplift_general(fict_emm, fict, grid)
    return emm, fict, fict_emm


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class UpliftVerification:
    max_residual: float
    tolerance: float
    grid: np.ndarray

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def to_json(self):
        return {
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def verify_uplift(emm: Emm, spec: MarketSpec, grid=None) -> UpliftVerification:
    """Substitute the measure into the original risk-premium equations.

    Reports the largest absolute residual over all stocks, at the grid
    nodes and at the midpoints of the grid's segments (so a measure that is
    right only at the nodes fails), computed in one array pass.  Continuous
    mark spaces get a looser tolerance because their loadings carry
    quadrature error.  A measure of the wrong shape for the market raises
    ShapeMismatch.
    """
    if grid is None:
        grid = default_grid(spec.horizon)
    grid = np.asarray(grid, dtype=float)
    _check_emm_shape(emm, spec)
    continuous = isinstance(spec.jumps, ContinuousJumpSpec)
    tol = VERIFY_TOL_CONTINUOUS if continuous else VERIFY_TOL_DISCRETE
    # a constant market and measure hold at one time: check it as a scalar
    if spec.is_constant and _emm_constant(emm):
        ts = float(grid[0])
    else:
        ts = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
    theta = stack_values(emm.theta, ts)
    lhs = stack_values(spec.alpha, ts) - np.asarray(spec.rate.value(ts))[..., None]
    rhs = (spec.sigma_values(ts) @ theta[..., None])[..., 0]
    if continuous:  # physical minus risk-neutral jump drift
        jump_drift = (
            spec.jumps.total_intensity.value(ts) * spec.jumps.density.mean(ts)
            - emm.jump_measure.mean_jump_intensity(ts)
        )
        rhs = rhs + np.asarray(jump_drift)[..., None]
    else:
        lam = spec.jumps.intensity_values(ts) - stack_values(emm.intensities, ts)
        rhs = rhs + (spec.jumps.loading_values(ts) @ lam[..., None])[..., 0]
    worst = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return UpliftVerification(max_residual=worst, tolerance=tol, grid=grid)


def _check_emm_shape(emm: Emm, spec: MarketSpec):
    """ShapeMismatch unless ``emm`` has the parts the market's drivers need."""
    need = {"theta functions": (len(emm.theta), spec.n_brownians)}
    if isinstance(spec.jumps, DiscreteJumpSpec):
        need["driver intensities"] = (len(emm.intensities), spec.n_jump_drivers)
    else:
        need["jump measures"] = (int(emm.jump_measure is not None), 1)
    for part, (given, expected) in need.items():
        if given != expected:
            raise ShapeMismatch(
                f"measure has {given} {part}; the market needs {expected}"
            )


def _emm_constant(emm: Emm) -> bool:
    fns = list(emm.theta) + list(emm.intensities)
    if emm.jump_measure is not None:
        fns.extend(emm.jump_measure.cell_intensities)
        fns.append(emm.jump_measure.physical_intensity)
    return all(fn.is_constant for fn in fns)
