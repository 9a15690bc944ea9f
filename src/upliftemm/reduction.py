"""Fictitious markets from reduction plans.

A trader who cannot hedge every source of randomness picks a reduction
plan: keep some Brownian drivers, keep some jump drivers, merge others
into batches (hedged on average), drop the rest entirely.  Complete
neglect is the discrete plan with no batches, so one reduction,
:func:`reduce_discrete`, serves every discrete plan.  Continuous mark
spaces are reduced by partitioning the support into cells, each
becoming a discrete driver with the cell's intensity and conditional
mean jump size.  The result is a fictitious market specification whose
driver count can match the number of stocks, making it complete.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCell, EmptyRetention, PlanMismatch, ShapeMismatch
from .model import (
    ContinuousJumpSpec,
    DiscreteJumpSpec,
    MarketSpec,
    default_grid,
)
from .timefns import TimeFunction, derive

__all__ = [
    "DiscretePlan",
    "ContinuousPlan",
    "FictitiousMarket",
    "reduce_discrete",
    "reduce_continuous",
    "reduce_market",
    "batch_weights",
]


class _BrownianSelection:
    """``keep_brownians``, one rule for both plan kinds: None keeps every
    Brownian column, else it lists distinct columns in range."""

    def _coerce_brownians(self):
        kb = self.keep_brownians
        object.__setattr__(self, "keep_brownians", kb if kb is None else tuple(map(int, kb)))

    def _validate_brownians(self, spec: MarketSpec) -> None:
        kb = self.keep_brownians or ()
        if len(set(kb)) != len(kb) or not set(kb) <= set(range(spec.n_brownians)):
            raise ShapeMismatch("keep_brownians out of range")

    def kept_brownians(self, spec: MarketSpec) -> tuple[int, ...]:
        kb = self.keep_brownians
        return tuple(range(spec.n_brownians)) if kb is None else tuple(sorted(kb))

    def _json_with_brownians(self, doc: dict) -> dict:
        if self.keep_brownians is not None:
            doc["keep_brownians"] = list(self.keep_brownians)
        return doc


@dataclass(frozen=True)
class DiscretePlan(_BrownianSelection):
    """Partition of the jump drivers into retained, batched, and neglected.

    ``keep_brownians`` selects Brownian columns (None keeps all).  The
    union of ``retain``, the members of every batch, and ``neglect`` must
    be exactly {0, ..., M-1}.
    """

    retain: tuple[int, ...] = ()
    batches: tuple[tuple[int, ...], ...] = ()
    neglect: tuple[int, ...] = ()
    keep_brownians: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "retain", tuple(int(i) for i in self.retain))
        object.__setattr__(
            self, "batches", tuple(tuple(int(i) for i in b) for b in self.batches)
        )
        object.__setattr__(self, "neglect", tuple(int(i) for i in self.neglect))
        self._coerce_brownians()

    def validate(self, spec: MarketSpec) -> None:
        if isinstance(spec.jumps, ContinuousJumpSpec):
            raise PlanMismatch("discrete plans apply to discrete jump drivers")
        M = spec.n_jump_drivers
        mentioned = list(self.retain) + list(self.neglect)
        for b in self.batches:
            if len(b) < 2:
                raise ShapeMismatch("a batch needs at least two members")
            mentioned.extend(b)
        if sorted(mentioned) != list(range(M)):
            raise ShapeMismatch(
                "retain + batches + neglect must partition the driver set"
            )
        self._validate_brownians(spec)

    def to_json(self):
        return self._json_with_brownians({
            "retain": list(self.retain),
            "batches": [list(b) for b in self.batches],
            "neglect": list(self.neglect),
        })


@dataclass(frozen=True)
class ContinuousPlan(_BrownianSelection):
    """Disjoint cells of the mark space; the uncovered remainder may be
    kept as an (unhedged, unpriced) cell or must be empty."""

    cells: tuple[tuple[float, float], ...]
    neglect_remainder: bool = False
    keep_brownians: tuple[int, ...] | None = None

    def __post_init__(self):
        cells = tuple((float(a), float(b)) for a, b in self.cells)
        object.__setattr__(self, "cells", cells)
        self._coerce_brownians()

    def covers(self, spec: MarketSpec) -> bool:
        """Whether the cells cover the mark space's support."""
        lo, hi = spec.jumps.support
        return sum(b - a for a, b in self.cells) >= (hi - lo) * (1.0 - 1e-9)

    def validate(self, spec: MarketSpec) -> None:
        if not isinstance(spec.jumps, ContinuousJumpSpec):
            raise PlanMismatch("cell plans apply to continuous mark spaces")
        lo, hi = spec.jumps.support
        cells = sorted(self.cells)
        for a, b in cells:
            if not (lo - 1e-12 <= a < b <= hi + 1e-12):
                raise ShapeMismatch(f"cell ({a:g}, {b:g}) escapes the support")
        for (_, b1), (a2, _) in zip(cells, cells[1:]):
            if a2 < b1 - 1e-12:
                raise ShapeMismatch("cells overlap")
        if not (self.neglect_remainder or self.covers(spec)):
            raise ShapeMismatch(
                "cells do not cover the support; set neglect_remainder"
            )
        self._validate_brownians(spec)

    def to_json(self):
        return self._json_with_brownians({
            "cells": [list(c) for c in self.cells],
            "neglect_remainder": self.neglect_remainder,
        })


ReductionPlan = DiscretePlan | ContinuousPlan


@dataclass(frozen=True)
class FictitiousMarket:
    """A reduced market plus the provenance needed to undo the reduction.

    The uplift and the consistency checks read the ``original`` market,
    its ``plan`` and the rest from here rather than reducing again.
    ``brownian_map[d]`` is the original column of reduced Brownian d;
    ``driver_groups[k]`` lists the original driver indices aggregated into
    reduced driver k (singletons for retained drivers); ``weights[k]``
    holds the conditional probabilities delta of each member within its
    group.  For continuous reductions the groups refer to cells instead
    and ``cells`` describes the mark-space partition.
    """

    spec: MarketSpec
    original: MarketSpec
    plan: ReductionPlan
    brownian_map: tuple[int, ...]
    driver_groups: tuple[tuple[int, ...], ...] = ()
    weights: tuple[tuple[TimeFunction, ...], ...] = ()
    neglected: tuple[int, ...] = ()
    cells: tuple[tuple[float, float], ...] = ()

    def reduced_index_of(self, original_driver: int) -> int | None:
        groups = enumerate(self.driver_groups)
        return next((k for k, group in groups if original_driver in group), None)

    def reduced_brownian_of(self, original_d: int) -> int | None:
        kept = self.brownian_map
        return kept.index(original_d) if original_d in kept else None

    def unreduced_reason(self, drivers, brownians) -> str | None:
        """Why randomness read through original ``drivers`` and Brownian
        columns ``brownians`` lies outside the reduced information, or None
        when it lies inside: the first of a neglected driver, a dropped
        Brownian and a batched driver."""
        group_size = {m: len(group) for group in self.driver_groups for m in group}
        if not set(drivers) <= group_size.keys():
            return "a neglected driver"
        if not set(brownians) <= set(self.brownian_map):
            return "a dropped Brownian driver"
        if any(group_size[m] > 1 for m in drivers):
            return "a batched driver; individual counts are not reduced-information"
        return None


def _completeness_warning(spec: MarketSpec, n_drivers: int) -> None:
    if n_drivers != spec.n:
        warnings.warn(
            f"reduced market has {n_drivers} drivers for {spec.n} stocks; "
            "completeness needs them equal",
            stacklevel=3,
        )


def batch_weights(
    spec: MarketSpec, batch: tuple[int, ...], grid=None
) -> tuple[TimeFunction, tuple[TimeFunction, ...]]:
    """Aggregate intensity gamma and member weights delta_m of a batch.

    delta_m(t) = lambda_m(t) / gamma(t), derived from the member
    intensities by :func:`timefns.derive` (exact unless an intensity is
    interpolated, then sampled on the grid, default 256 points).
    :func:`reduce_discrete` stores the weights in
    ``FictitiousMarket.weights``, where the uplift reads them, so the
    reduction and the uplift share one delta.
    """
    members = [spec.jumps.intensities[m] for m in batch]
    if grid is None:
        grid = default_grid(spec.horizon)

    def weights(t):
        vals = np.vstack([fn.value(t) for fn in members])
        gvals = vals.sum(axis=0)
        return np.vstack([gvals, vals / gvals])

    gamma, *deltas = derive(weights, members, grid)
    return gamma, tuple(deltas)


def _batched_loadings(spec: MarketSpec, batch, deltas, grid):
    """Each stock's convex combination ybar_i(t) = sum_m delta_m(t) y_im(t)
    of the member loadings."""
    cols = [[spec.jumps.loadings[i][m] for i in range(spec.n)] for m in batch]

    def ybar(t):
        acc = np.zeros((spec.n, len(t)))
        for d, col in zip(deltas, cols):
            acc += d.value(t) * np.array([fn.value(t) for fn in col])
        return acc

    return derive(ybar, [*deltas, *(fn for col in cols for fn in col)], grid)


def _reduced_spec(spec: MarketSpec, kept_b: tuple[int, ...], jumps) -> MarketSpec:
    """The original stocks on the kept Brownian columns and the reduced
    jump drivers; the drift keeps alpha."""
    sigma = tuple(tuple(spec.sigma[i][d] for d in kept_b) for i in range(spec.n))
    return replace(spec, sigma=sigma, jumps=jumps)


def _is_complete_neglect(plan: ReductionPlan) -> bool:
    """A discrete plan without batches: every jump driver is retained or
    neglected, the plans the nested conditioning checks support."""
    return isinstance(plan, DiscretePlan) and not plan.batches


def reduce_discrete(
    spec: MarketSpec, plan: DiscretePlan, grid=None
) -> FictitiousMarket:
    """Retain, batch and neglect discrete jump drivers.

    A retained driver is a one-member group of weight 1, untouched.  A
    batch becomes one driver with intensity gamma(t) = sum of member
    intensities and loading ybar_i(t) = sum_m delta_m(t) y_im, the convex
    combination with weights delta_m(t) = lambda_m(t) / gamma(t) (see
    :func:`batch_weights`).  Neglected drivers and dropped Brownian columns
    leave the market.  Retained drivers keep their ``marks`` labels only
    under complete neglect, the plan with no batches.
    """
    plan.validate(spec)
    kept_b = plan.kept_brownians(spec)
    jumps = spec.jumps
    retained = tuple(sorted(plan.retain))
    groups = [(m,) for m in retained]
    weights = [(TimeFunction.constant(1.0),) for _ in retained]
    intensities = [jumps.intensities[m] for m in retained]
    load_cols = [tuple(jumps.loadings[i][m] for i in range(spec.n)) for m in retained]
    if plan.batches and grid is None:
        grid = default_grid(spec.horizon)
    for batch in plan.batches:
        batch = tuple(sorted(batch))
        gamma, deltas = batch_weights(spec, batch, grid)
        groups.append(batch)
        weights.append(deltas)
        intensities.append(gamma)
        load_cols.append(_batched_loadings(spec, batch, deltas, grid))

    if not kept_b and not groups:
        raise EmptyRetention("every driver neglected and no Brownians kept")
    _completeness_warning(spec, len(kept_b) + len(groups))
    new_jumps = DiscreteJumpSpec(
        intensities=tuple(intensities),
        loadings=tuple(
            tuple(load_cols[k][i] for k in range(len(groups))) for i in range(spec.n)
        ),
        marks=(
            tuple(jumps.marks[m] for m in retained)
            if jumps.marks and not plan.batches
            else None
        ),
    )
    return FictitiousMarket(
        spec=_reduced_spec(spec, kept_b, new_jumps),
        original=spec,
        plan=plan,
        brownian_map=kept_b,
        driver_groups=tuple(groups),
        weights=tuple(weights),
        neglected=tuple(sorted(plan.neglect)),
    )


def reduce_continuous(
    spec: MarketSpec, plan: ContinuousPlan, grid=None
) -> FictitiousMarket:
    """Turn mark-space cells into discrete drivers.

    Cell k becomes a driver with intensity lambda_t(B) * mass_t(cell) and
    loading equal to the cell's conditional mean mark (shared by all
    stocks, since every stock jumps by the mark itself).  An uncovered
    remainder is treated like a neglected driver.
    """
    plan.validate(spec)
    if grid is None:
        grid = default_grid(spec.horizon)
    kept_b = plan.kept_brownians(spec)
    dens = spec.jumps.density
    total = spec.jumps.total_intensity
    cells = plan.cells

    def cell_parts(t):
        """Each cell's mass, then each cell's mean."""
        masses = [dens.mass(a, b, t) for a, b in cells]
        for (a, b), mass in zip(cells, masses):
            if np.any(mass < 1e-12):
                raise EmptyCell(f"cell ({a:g}, {b:g}) has ~zero probability")
        means = [dens._partial_moment(a, b, t) / m for (a, b), m in zip(cells, masses)]
        return np.reshape([*masses, *means], (-1, len(t)))

    parts = derive(cell_parts, dens.time_functions, grid)
    masses, loadings = parts[:len(cells)], parts[len(cells):]

    def cell_intensities(t):
        return total.value(t) * np.reshape([m.value(t) for m in masses], (-1, len(t)))

    intensities = derive(cell_intensities, (total, *masses), grid)

    _completeness_warning(spec, len(kept_b) + len(intensities))
    new_jumps = DiscreteJumpSpec(
        intensities=intensities,
        loadings=tuple(tuple(loadings) for _ in range(spec.n)),
        marks=None,
    )
    return FictitiousMarket(
        spec=_reduced_spec(spec, kept_b, new_jumps),
        original=spec,
        plan=plan,
        brownian_map=kept_b,
        driver_groups=tuple((k,) for k in range(len(plan.cells))),
        weights=tuple((TimeFunction.constant(1.0),) for _ in plan.cells),
        neglected=(),
        cells=plan.cells,
    )


def reduce_market(spec: MarketSpec, plan: ReductionPlan, grid=None) -> FictitiousMarket:
    """Dispatch to the reduction matching the plan's kind."""
    if isinstance(plan, ContinuousPlan):
        return reduce_continuous(spec, plan, grid)
    return reduce_discrete(spec, plan, grid)
