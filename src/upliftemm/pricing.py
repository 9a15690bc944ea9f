"""Monte Carlo pricing, measure-identity checks, and hedging errors.

Every estimator reduces an (n_paths,)-vector of per-path values with a
single pairwise sum over the path index, so estimates are byte-identical
for any block size; prices are reductions of a terminal sample through one
estimator.  The two legs of a comparison always use disjoint substream
ranges, making the "within 4 combined standard errors" criteria meaningful.
All payoffs of one two-route report share its two samples, so its lines
are correlated with each other.  In a verify run the density mass is leg a
of the restriction check's ``omega`` line (Z* 1_omega is Z*); the
restriction's leg b is exact, so it draws no stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import blocks
from .blocks import _per_driver, _sum_d
from .errors import (
    BudgetExceeded,
    NonReducedEvent,
    PlanMismatch,
    ShapeMismatch,
    TooFewPaths,
)
from .model import DiscreteJumpSpec, MarketSpec
from .philox import box_muller, poisson_cdf, poisson_counts, uniforms
from .reduction import ContinuousPlan, FictitiousMarket, _is_complete_neglect
from .stochastic import (
    DEFAULT_SEED,
    SimulationContext,
    TerminalSample,
    _block_counts,
    _blocks,
    _count_width,
    _Sample,
    _terminal_sample,
    run_paths,  # unused here: the benchmark's tracer wraps pricing.run_paths
    simulate_terminal,
)
from .timefns import TimeFunction, integrate_product, merged_breakpoints
from .uplift import Emm, cell_index, physical_emm, verify_uplift

__all__ = [
    "Payoff",
    "Strategy",
    "MarketEvent",
    "McReport",
    "price_mc",
    "zweighted_price_mc",
    "two_route_check",
    "restriction_check",
    "cost_of_construction_check",
    "projection_consistency_check",
    "hedging_error",
    "martingale_check",
    "density_mass_check",
]

Z_LIMIT = 4.0
# two deterministic estimates (standard error 0) this close relative to
# their size differ by rounding alone
ROUNDING_RTOL = 1e-12


# -- payoffs -------------------------------------------------------------------

# each payoff kind and the fields it cannot do without
_PAYOFF_NEEDS = {
    "terminal": ("asset",),
    "forward": ("asset", "strike"),
    "call": ("asset", "strike"),
    "put": ("asset", "strike"),
    "indicator_count": ("driver", "count"),
    "linear": (),
}


@dataclass(frozen=True)
class Payoff:
    """A terminal-state claim.

    kind: "terminal" | "forward" | "call" | "put" | "indicator_count" |
    "linear".  ``indicator_count`` pays 1{N_driver(T) == count}, times the
    terminal price of ``asset`` when one is given.  ``linear`` combines
    sub-payoffs with weights.  ``discounted`` multiplies by
    exp(-integral of r over [0, T]).  An unknown kind, a kind without the
    fields it reads, or a field of the wrong type raises ValueError when
    the payoff is made: ``asset``, ``driver`` and ``count`` are integers
    (``count`` at least 0), ``strike`` and the weights finite numbers, and
    ``discounted`` a bool.
    """

    kind: str
    asset: int | None = None
    strike: float | None = None
    driver: int | None = None
    count: int | None = None
    discounted: bool = True
    terms: tuple[tuple[float, "Payoff"], ...] = ()

    def __post_init__(self):
        if self.kind not in _PAYOFF_NEEDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        missing = [key for key in _PAYOFF_NEEDS[self.kind] if getattr(self, key) is None]
        if missing:
            raise ValueError(f"payoff kind {self.kind!r} needs {' and '.join(missing)}")
        for key in ("asset", "driver", "count"):
            val = getattr(self, key)
            if val is not None and (isinstance(val, bool)
                                    or not isinstance(val, numbers.Integral)):
                raise ValueError(f"payoff {key} must be an integer, got {val!r}")
        if self.count is not None and self.count < 0:
            raise ValueError(f"payoff count must be at least 0, got {self.count}")
        for what, val in (("strike", self.strike), *(("weight", w) for w, _ in self.terms)):
            if val is not None and (isinstance(val, bool) or not isinstance(val, numbers.Real)
                                    or not math.isfinite(val)):
                raise ValueError(f"payoff {what} must be a finite number, got {val!r}")
        if not isinstance(self.discounted, bool):
            raise ValueError(f"payoff discounted must be true or false, got {self.discounted!r}")
        object.__setattr__(self, "terms", tuple((float(w), p) for w, p in self.terms))

    # convenience constructors
    @staticmethod
    def terminal(asset: int, discounted: bool = True) -> "Payoff":
        return Payoff("terminal", asset=asset, discounted=discounted)

    @staticmethod
    def forward(asset: int, strike: float, discounted: bool = True) -> "Payoff":
        return Payoff("forward", asset=asset, strike=strike, discounted=discounted)

    @staticmethod
    def call(asset: int, strike: float, discounted: bool = True) -> "Payoff":
        return Payoff("call", asset=asset, strike=strike, discounted=discounted)

    @staticmethod
    def put(asset: int, strike: float, discounted: bool = True) -> "Payoff":
        return Payoff("put", asset=asset, strike=strike, discounted=discounted)

    @staticmethod
    def indicator_count(
        driver: int, count: int, asset: int | None = None, discounted: bool = False
    ) -> "Payoff":
        return Payoff(
            "indicator_count",
            driver=driver,
            count=count,
            asset=asset,
            discounted=discounted,
        )

    @staticmethod
    def linear(terms, discounted: bool = True) -> "Payoff":
        return Payoff("linear", terms=tuple(terms), discounted=discounted)

    def undiscounted_values(
        self, stocks: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-path payoff before discounting; stocks is (n_paths, n)."""
        k = self.kind
        if k == "terminal":
            return stocks[:, self.asset].copy()
        if k == "forward":
            return stocks[:, self.asset] - self.strike
        if k == "call":
            return np.maximum(stocks[:, self.asset] - self.strike, 0.0)
        if k == "put":
            return np.maximum(self.strike - stocks[:, self.asset], 0.0)
        if k == "indicator_count":
            ind = (counts[:, self.driver] == self.count).astype(float)
            if self.asset is not None:
                ind = ind * stocks[:, self.asset]
            return ind
        acc = np.zeros(len(stocks))  # linear
        for w, p in self.terms:
            acc += w * p.undiscounted_values(stocks, counts)
        return acc

    def values(self, sample: TerminalSample, spec: MarketSpec) -> np.ndarray:
        return self.terminal_values(sample.terminal_stocks(), sample.counts, spec)

    def terminal_values(self, stocks, counts, spec: MarketSpec) -> np.ndarray:
        """Per-path payoff at the horizon, discounted when the claim is."""
        vals = self.undiscounted_values(stocks, counts)
        if self.discounted:
            vals = vals * spec.discount_factor(spec.horizon)
        return vals

    def _leaves(self) -> list["Payoff"]:
        """The claims a linear payoff combines, at any depth; else itself."""
        if self.kind != "linear":
            return [self]
        return [leaf for _, p in self.terms for leaf in p._leaves()]

    def referenced_drivers(self, spec: MarketSpec) -> set[int]:
        refs = set()
        for p in self._leaves():
            refs |= _asset_drivers(spec, p.asset)
            if p.kind == "indicator_count":
                refs.add(p.driver)
        return refs

    def referenced_brownians(self, spec: MarketSpec) -> set[int]:
        return set().union(*(_asset_brownians(spec, p.asset) for p in self._leaves()))

    def is_reduced_measurable(self, fict: FictitiousMarket) -> bool:
        """Whether the claim depends only on the reduced information: on a
        discrete market, retained, unbatched randomness.  A continuous
        market's reduced information holds each cell's count, not the marks,
        so it holds no stock price, and the total count (column 0) only
        when the cells cover the support."""
        spec = fict.original
        if isinstance(fict.plan, ContinuousPlan):
            return all(p.kind == "indicator_count" and p.asset is None and p.driver == 0
                       and fict.plan.covers(spec) for p in self._leaves())
        return fict.unreduced_reason(
            self.referenced_drivers(spec), self.referenced_brownians(spec)
        ) is None

    def to_json(self):
        if self.kind == "linear":
            return {
                "type": "linear",
                "discounted": self.discounted,
                "terms": [
                    {"weight": w, **p.to_json()} for w, p in self.terms
                ],
            }
        doc = {"type": self.kind, "discounted": self.discounted}
        for key in ("asset", "strike", "driver", "count"):
            val = getattr(self, key)
            if val is not None:
                doc[key] = val
        return doc

    @staticmethod
    def from_json(obj) -> "Payoff":
        kind = obj["type"]
        if kind == "linear":
            return Payoff.linear(
                [
                    (term["weight"], Payoff.from_json(term))
                    for term in obj["terms"]
                ],
                discounted=obj.get("discounted", True),
            )
        return Payoff(
            kind,
            asset=obj.get("asset"),
            strike=obj.get("strike"),
            driver=obj.get("driver"),
            count=obj.get("count"),
            discounted=obj.get("discounted", True),
        )


def _check_claim(spec: MarketSpec, payoff: Payoff) -> None:
    """Raise ShapeMismatch, before anything is simulated, when ``payoff``
    reads a stock or a count column that the market's terminal sample
    lacks."""
    width = _count_width(spec)
    for p in payoff._leaves():
        if p.asset is not None and not 0 <= p.asset < spec.n:
            raise ShapeMismatch(
                f"payoff reads asset {p.asset}, but the market has {spec.n} stock(s)"
            )
        if p.kind == "indicator_count" and not 0 <= p.driver < width:
            raise ShapeMismatch(
                f"payoff counts driver {p.driver}, but the market's "
                f"sample has {width} count column(s)"
            )


def _nonzero(fns) -> set[int]:
    """The indices of the functions that are not identically 0."""
    return {k for k, fn in enumerate(fns)
            if not (fn.is_constant and fn.constant_value == 0.0)}


def _asset_drivers(spec: MarketSpec, asset: int | None) -> set[int]:
    if asset is None:
        return set()
    if isinstance(spec.jumps, DiscreteJumpSpec):
        return _nonzero(spec.jumps.loadings[asset])
    return {0}


def _asset_brownians(spec: MarketSpec, asset: int | None) -> set[int]:
    return set() if asset is None else _nonzero(spec.sigma[asset])


# -- events (for the restriction theorem) -----------------------------------------


@dataclass(frozen=True)
class MarketEvent:
    """A terminal event defined by driver counts and Brownian levels.

    Empty conditions mean the whole sample space.
    """

    label: str = "omega"
    count_eq: tuple[tuple[int, int], ...] = ()
    brownian_gt: tuple[tuple[int, float], ...] = ()

    def indicator(self, counts: np.ndarray, w_terminal: np.ndarray) -> np.ndarray:
        ok = np.ones(len(counts), dtype=bool)
        for driver, k in self.count_eq:
            ok &= counts[:, driver] == k
        for d, c in self.brownian_gt:
            ok &= w_terminal[:, d] > c
        return ok.astype(float)

    def referenced_drivers(self) -> set[int]:
        return {driver for driver, _ in self.count_eq}

    def referenced_brownians(self) -> set[int]:
        return {d for d, _ in self.brownian_gt}


# -- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class McReport:
    estimate: float
    std_error: float
    n_paths: int
    seed: int
    measure: str

    def to_json(self):
        return asdict(self)


def _mc_report(values: np.ndarray, seed: int, measure: str) -> McReport:
    n = len(values)
    est = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / np.sqrt(n))
    return McReport(estimate=est, std_error=se, n_paths=n, seed=seed, measure=measure)


def _exact(value: float, seed: int, measure: str = "exact") -> McReport:
    """A closed-form leg: standard error 0, from no path."""
    return McReport(estimate=float(value), std_error=0.0, n_paths=0, seed=seed,
                    measure=measure)


def _z(a: float, b: float, se: float) -> float:
    """|a - b| in standard errors ``se``.  With se 0 it is 0 if a and b
    agree to rounding (``ROUNDING_RTOL``), else inf.  Every Monte Carlo
    verdict is z < Z_LIMIT."""
    diff = abs(a - b)
    if se > 0:
        return diff / se
    return 0.0 if diff <= ROUNDING_RTOL * max(abs(a), abs(b)) else math.inf


def _require_paths(n_paths: int, least: int = 2) -> None:
    """An estimate needs a standard error (ddof=1), so at least two paths;
    a nested check's other count needs ``least`` = 1."""
    if n_paths < least:
        plural = "s" * (least > 1)
        raise TooFewPaths(f"an estimate needs at least {least} path{plural}, got {n_paths}")


def _price(sample: TerminalSample, spec: MarketSpec, payoff: Payoff) -> McReport:
    """E[payoff] on one terminal sample, Z-weighted when it carries Z."""
    values = payoff.values(sample, spec)
    if sample.z is None:
        return _mc_report(values, sample.seed, "Q*")
    return _mc_report(sample.z_terminal() * values, sample.seed, "P,Z-weighted")


# -- pricing ---------------------------------------------------------------------------


def price_mc(
    spec: MarketSpec,
    emm: Emm,
    payoff: Payoff,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> McReport:
    """E[payoff] by simulating directly under the pricing measure, after
    checking that the measure solves the risk-premium equations."""
    _require_paths(n_paths)
    _check_claim(spec, payoff)
    rep = verify_uplift(emm, spec)
    if not rep.passed:
        raise ValueError(
            f"measure does not satisfy the risk-premium equations "
            f"(residual {rep.max_residual:.3e})"
        )
    sample = simulate_terminal(spec, [spec.horizon], n_paths, seed, measure_emm=emm)
    return _price(sample, spec, payoff)


def zweighted_price_mc(
    spec: MarketSpec,
    emm: Emm,
    payoff: Payoff,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> McReport:
    """E[payoff] as a density-weighted physical-measure expectation."""
    _require_paths(n_paths)
    _check_claim(spec, payoff)
    sample = simulate_terminal(spec, [spec.horizon], n_paths, seed, density_emm=emm)
    return _price(sample, spec, payoff)


@dataclass(frozen=True)
class ComparisonLine:
    """Leg a against leg b.  ``p_no_hit`` is set only on a restriction
    line whose leg a has no path in its event: the chance of that under
    P, which then judges the line in place of the legs' difference."""

    label: str
    a: McReport
    b: McReport
    p_no_hit: float | None = None

    @property
    def difference(self) -> float:
        return self.a.estimate - self.b.estimate

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.a.std_error, self.b.std_error))

    @property
    def z(self) -> float:
        if self.p_no_hit is not None:
            return _two_sided_deviate(self.p_no_hit)
        return _z(self.a.estimate, self.b.estimate, self.combined_se)

    @property
    def passed(self) -> bool:
        return self.z < Z_LIMIT

    def to_json(self):
        doc = {
            "label": self.label,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "difference": self.difference,
            "combined_se": self.combined_se,
            "z": self.z,
            "passed": self.passed,
        }
        if self.p_no_hit is not None:
            doc["p_no_hit"] = self.p_no_hit
        return doc


def _two_sided_deviate(p: float) -> float:
    """The |z| whose two-sided normal tail 2 Phi(-|z|) is ``p``, so that
    z < Z_LIMIT exactly when p exceeds the z-test's false-alarm rate."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return 0.0
    from statistics import NormalDist  # only a line with no hit reads it

    return -NormalDist().inv_cdf(0.5 * p)


@dataclass(frozen=True)
class CheckReport:
    """A Monte Carlo check: it passes when every line passes."""

    name: str
    lines: tuple[ComparisonLine, ...]

    @property
    def passed(self) -> bool:
        return all(ln.passed for ln in self.lines)

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "lines": [ln.to_json() for ln in self.lines],
        }


def two_route_check(
    spec: MarketSpec,
    emm: Emm,
    payoffs: dict,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Direct simulation under the measure vs density-weighted physical.

    One sample per route prices every payoff: under the measure on
    streams [0, n), under P with the density on [n, 2n), both drawn by one
    block loop.  The two legs of a line are independent and estimate the
    same expectation when the measure change is correct; the lines share
    samples, so are correlated.
    """
    _require_paths(n_paths)
    for payoff in payoffs.values():
        _check_claim(spec, payoff)
    T = spec.horizon
    (direct, _), (weighted, _) = _terminal_sample([
        _Sample(SimulationContext(spec, [T], measure_emm=emm), 0),
        _Sample(SimulationContext(spec, [T], density_emm=emm), n_paths),
    ], n_paths, seed)
    return CheckReport("two_route", tuple(
        ComparisonLine(label, _price(direct, spec, payoff), _price(weighted, spec, payoff))
        for label, payoff in payoffs.items()
    ))


def density_mass_check(
    spec: MarketSpec,
    emm: Emm,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """E[Z(T)] = 1 under the physical measure, within 4 standard errors."""
    _require_paths(n_paths)
    ctx = SimulationContext(spec, [spec.horizon], density_emm=emm)
    ((sample, _),) = _terminal_sample([_Sample(ctx, 0, ())], n_paths, seed)
    return _density_mass_report(_mc_report(sample.z_terminal(), seed, "P,Z*"))


def _density_mass_report(rep: McReport) -> CheckReport:
    """The density-mass line: an estimate of E_P[Z(T)] against exact 1."""
    return CheckReport("density_mass", (ComparisonLine("mass", rep, _exact(1.0, rep.seed)),))


def martingale_check(
    spec: MarketSpec,
    emm: Emm,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Discounted terminal prices average to the initial prices under emm."""
    _require_paths(n_paths)
    sample = simulate_terminal(spec, [spec.horizon], n_paths, seed, measure_emm=emm)
    return CheckReport("martingale", tuple(
        ComparisonLine(f"stock_{i}", _price(sample, spec, Payoff.terminal(i)), _exact(s0, seed))
        for i, s0 in enumerate(spec.s0)
    ))


# -- restriction of the uplift to the reduced information ---------------------------------


def restriction_check(
    fict: FictitiousMarket,
    emm: Emm,
    fict_emm: Emm,
    events: tuple[MarketEvent, ...],
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """E_P[Z* 1_A] vs Q~*(A) for reduced-information events A.

    Leg a weights full-market paths with the uplifted density; leg b is
    the fictitious measure's probability of A in closed form
    (:func:`_event_probability`), so only leg a is random.  Equality for
    every A in the reduced terminal information set is what makes the
    uplift an extension of the fictitious measure.  A line whose leg a has
    no path in A is judged by the chance of that under P instead:
    (1 - P(A))^n_paths, with P(A) from the same closed form.
    """
    _require_paths(n_paths)
    for ev in events:
        reason = fict.unreduced_reason(ev.referenced_drivers(), ev.referenced_brownians())
        if reason is not None:
            raise NonReducedEvent(f"event {ev.label!r} references {reason}")

    # the sample is density-only, as the indicators read only counts and
    # W_T; on a continuous market the reduced drivers are the plan's cells,
    # so the full market's marks are counted cell by cell
    spec = fict.original
    ctx = SimulationContext(spec, [spec.horizon], density_emm=emm)
    if isinstance(fict.plan, ContinuousPlan):
        cols = np.arange(len(fict.cells))

        def in_cells(times, marks, order):  # one-hot of each mark's cell
            return (cell_index(fict.cells, marks)[:, None] == cols).astype(float)

        ((full, full_counts),) = _terminal_sample([_Sample(ctx, 0, (), in_cells)], n_paths, seed)
    else:
        ((full, _),) = _terminal_sample([_Sample(ctx, 0, ())], n_paths, seed)
        full_counts = full.counts
    physical = physical_emm(fict.spec)
    lines = []
    for ev in events:
        hit = ev.indicator(full_counts, full.w_terminal)
        p_no_hit = None
        if not hit.any():
            p_no_hit = math.exp(n_paths * math.log1p(-_event_probability(ev, fict, physical)))
        lines.append(ComparisonLine(
            ev.label,
            a=_mc_report(full.z_terminal() * hit, seed, "P,Z*"),
            b=_exact(_event_probability(ev, fict, fict_emm), seed, "Q~ exact"),
            p_no_hit=p_no_hit,
        ))
    return CheckReport("restriction", tuple(lines))


def _event_probability(ev: MarketEvent, fict: FictitiousMarket, measure: Emm) -> float:
    """The probability of a reduced-information event under a measure of
    the reduced market with deterministic coefficients.

    Reduced driver g then counts a Poisson number of events with mean
    int_0^T measure.intensities[g] dt, and W_d(T) + int_0^T theta_d dt is
    normal with variance T (Jacod and Shiryaev, *Limit Theorems for
    Stochastic Processes*, II.4), all independent.  So conditions on
    distinct drivers multiply; two counts on one driver that differ
    cannot both hold, and of two levels on one Brownian the higher binds.
    """
    T = fict.original.horizon
    counts, levels = {}, {}
    for driver, k in ev.count_eq:
        if counts.setdefault(fict.reduced_index_of(driver), k) != k:
            return 0.0
    for d, c in ev.brownian_gt:
        b = fict.reduced_brownian_of(d)
        levels[b] = max(c, levels.get(b, -math.inf))
    p = 1.0
    for g, k in counts.items():
        p *= _poisson_pmf(k, measure.intensities[g].integral(0.0, T))
    for b, c in levels.items():
        p *= 0.5 * math.erfc((c + measure.theta[b].integral(0.0, T)) / math.sqrt(2.0 * T))
    return p


def _poisson_pmf(k: int, mean: float) -> float:
    if k < 0 or mean == 0.0:
        return float(k == 0)
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


# -- nested conditional expectation machinery ------------------------------------------


class _NeglectedModel(NamedTuple):
    tables: list
    log1p_y: np.ndarray
    shift: np.ndarray
    seg: blocks._Segments | None


def _neglected_factor_model(
    fict: FictitiousMarket, intensities, t: float
) -> _NeglectedModel:
    """Constant data describing the neglected part of the price factorization.

    The neglected part of stock i is exp(-sum_m y_im * Lam_m) times the
    product of (1 + y_im)^{N_m}, times the stochastic exponential of any
    dropped Brownian columns on [0, t]; its expectation is one.  Returns
    each Lam_m's Poisson table, the (n, M) log(1 + y), the (n,) y Lam
    and the dropped Brownians' exact per-segment Gaussians on the knots of
    their sigma (None when no Brownian is dropped).
    """
    spec, neglected = fict.original, list(fict.neglected)
    loadings = spec.jumps.loadings
    if not all(loadings[i][m].is_constant for i in range(spec.n) for m in neglected):
        raise PlanMismatch("nested conditioning needs constant neglected loadings")
    lam_int = np.array([intensities[m].integral(0.0, t) for m in neglected])
    y = spec.jumps.loading_values(0.0)[:, neglected]
    dropped = [d for d in range(spec.n_brownians) if d not in fict.brownian_map]
    seg = None
    if dropped:
        rows = [[spec.sigma[i][d] for d in dropped] for i in range(spec.n)]
        knots = merged_breakpoints([fn for row in rows for fn in row], 0.0, t)
        seg = blocks._segment_gaussians(rows, knots, [t])
    tables = [poisson_cdf(lam) for lam in lam_int]
    return _NeglectedModel(tables, np.log1p(y), y @ lam_int, seg)


def _neglected_factors(spec: MarketSpec, model, outer_ids, n_inner: int, seed: int):
    """(P, n, n_inner) multiplicative factors from the neglected randomness
    of outer paths ``outer_ids``, and their (P, M, n_inner) neglected counts.

    Outer path p draws from the ``inner`` counters of stream id p, so its
    factors do not depend on which outer paths are drawn with it.  Its
    uniform k is double k % 2 of counter k // 2.  Inner sample j's count
    of neglected driver m inverts Lam_m's Poisson CDF at uniform
    m * n_inner + j.  The dropped Brownians' standard normals follow as
    Box-Muller pairs, one counter per pair, from the first counter after
    the count uniforms: inner sample by inner sample, each its
    :func:`blocks._segment_normals`.
    """
    tables, log1p_y, shift, seg = model
    P, J, M = len(outer_ids), n_inner, len(tables)
    width = 0 if seg is None else seg.n_normals
    n_u, n_z = M * J, width * J
    n_c = (n_u + 1) // 2
    u = uniforms(seed, "inner", np.arange(n_c + (n_z + 1) // 2), outer_ids[:, None])
    cu = u[:, :, :n_c].transpose(1, 2, 0).reshape(P, -1)[:, :n_u].reshape(P, M, J)
    counts = np.empty((P, M, J), dtype=np.int64)
    for m, table in enumerate(tables):
        counts[:, m] = poisson_counts(table, cu[:, m])
    # each sum runs in driver / segment order, whatever P is
    if M:
        log_f = _sum_d(log1p_y.T[:, :, None], counts.transpose(1, 0, 2)[:, :, None])
    else:
        log_f = np.zeros((P, spec.n, J))
    if n_z:
        z = box_muller(u[:, :, n_c:]).reshape(P, -1)[:, :n_z].reshape(P * J, width)
        gauss = blocks._gaussian_sums(seg, *blocks._segment_normals(seg, z))[..., 0]
        log_f += gauss.reshape(spec.n, P, J).transpose(1, 0, 2)
    log_f -= shift[:, None]
    return np.exp(log_f, out=log_f), counts


def _nested_factors(
    fict: FictitiousMarket, intensities, t: float, n_outer: int, n_inner: int, seed: int
):
    """Outer paths 0..n_outer-1 in consecutive chunks: each chunk's ids and
    its :func:`_neglected_factors` at time t, the neglected drivers at
    ``intensities``.

    The model is built at once, so a neglected loading that varies raises
    PlanMismatch before anything is drawn; the chunks follow lazily.  A
    chunk holds about ``blocks._SEGMENT_BUDGET`` cells: per inner sample
    its n factors and, with dropped Brownians, its normals and its (n, K)
    running Gaussian sums over the K segments.
    """
    spec = fict.original
    model = _neglected_factor_model(fict, intensities, t)
    seg = model.seg
    per_sample = spec.n if seg is None else spec.n * (1 + len(seg.dt)) + seg.n_normals
    step = max(1, blocks._SEGMENT_BUDGET // (per_sample * n_inner))

    def chunks():
        for lo in range(0, n_outer, step):
            ids = np.arange(lo, min(lo + step, n_outer))
            yield (ids, *_neglected_factors(spec, model, ids, n_inner, seed))

    return chunks()


def cost_of_construction_check(
    fict: FictitiousMarket,
    emm: Emm,
    fict_emm: Emm,
    payoff: Payoff,
    n_outer: int,
    n_inner: int,
    n_direct: int = 100_000,
    seed: int = DEFAULT_SEED,
    budget: int = 20_000_000,
) -> CheckReport:
    """Nested estimate of the fictitious-claim price vs the direct price.

    The reduced claim is the conditional expectation of the payoff given
    the retained information; pricing it in the fictitious market must
    cost exactly the original claim's price under the uplifted measure.
    The inner expectation integrates over the neglected drivers (whose
    risk-neutral intensities are their physical ones).
    """
    if not _is_complete_neglect(fict.plan):
        raise PlanMismatch("nested conditioning supports complete-neglect plans")
    spec = fict.original
    _require_paths(n_outer)
    _require_paths(n_inner, 1)
    _require_paths(n_direct)
    _check_claim(spec, payoff)
    if n_outer * n_inner > budget:
        raise BudgetExceeded(
            f"{n_outer} x {n_inner} inner paths exceed the budget {budget}"
        )
    T = spec.horizon
    # under the consistent uplift the neglected intensities are physical
    chunks = _nested_factors(fict, emm.intensities, T, n_outer, n_inner, seed)
    outer = simulate_terminal(fict.spec, [T], n_outer, seed, measure_emm=fict_emm)
    retained = [m for group in fict.driver_groups for m in group]
    neglected = list(fict.neglected)
    inner_means = np.empty(n_outer)
    for ids, factors, neg_counts in chunks:
        # one row per (outer path, inner sample)
        stocks = outer.stocks[ids, :, -1][:, None, :] * factors.transpose(0, 2, 1)
        counts = np.zeros((len(ids), n_inner, spec.n_jump_drivers))
        counts[:, :, retained] = outer.counts[ids][:, None, :]
        counts[:, :, neglected] = neg_counts.transpose(0, 2, 1)
        rows = (len(ids) * n_inner, -1)
        vals = payoff.terminal_values(stocks.reshape(rows), counts.reshape(rows), spec)
        inner_means[ids] = vals.reshape(len(ids), n_inner).sum(axis=1) / n_inner
    nested = _mc_report(inner_means, seed, "Q~ nested")
    direct = simulate_terminal(
        spec, [T], n_direct, seed, measure_emm=emm, stream_offset=n_outer
    )
    line = ComparisonLine("cost_of_construction", nested, _price(direct, spec, payoff))
    return CheckReport("cost_of_construction", (line,))


def projection_consistency_check(
    fict: FictitiousMarket,
    n_outer: int,
    n_inner: int,
    t: float | None = None,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Conditional Monte Carlo check of the projection at time t.

    Given the retained information, the full price of each stock is its
    projected (reduced-market) price times a factor of the neglected
    randomness alone, whose mean is one.  The projected price cancels, so
    stock i's line is the mean of its n_outer * n_inner factors against
    exact 1, and the check reads only the ``inner`` counters of stream ids
    0..n_outer-1: no reduced-market path is drawn.
    """
    if not _is_complete_neglect(fict.plan):
        raise PlanMismatch("projection supports complete-neglect plans")
    spec = fict.original
    _require_paths(n_inner)
    _require_paths(n_outer, 1)
    t = 0.5 * spec.horizon if t is None else float(t)
    if not 0.0 <= t <= spec.horizon:
        raise ValueError(f"t must lie in [0, horizon], got {t:g}")
    means, m2 = np.empty((2, n_outer, spec.n))
    # the neglected drivers at their physical intensities
    chunks = _nested_factors(fict, spec.jumps.intensities, t, n_outer, n_inner, seed)
    for ids, factors, _ in chunks:
        # each outer path's mean and sum of squared deviations, from one sum
        # and one pass of squared deviations in sample order
        mean = factors.sum(axis=-1) / n_inner
        factors -= mean[..., None]
        factors *= factors
        means[ids] = mean
        m2[ids] = factors.sum(axis=-1)
    # the outer paths' moments pooled exactly (Chan, Golub and LeVeque,
    # "Algorithms for computing the sample variance", Am. Statistician 1983)
    grand = means.sum(axis=0) / n_outer
    means -= grand
    means *= means
    n_paths = n_outer * n_inner
    se = np.sqrt((m2.sum(axis=0) + n_inner * means.sum(axis=0)) / (n_paths - 1))
    se /= np.sqrt(n_paths)
    # a factor with no neglected randomness is exactly 1, with z 0
    return CheckReport("projection", tuple(
        ComparisonLine(f"stock_{i}", McReport(float(g), float(s), n_paths, seed, f"P, t={t}"),
                       _exact(1.0, seed))
        for i, (g, s) in enumerate(zip(grand, se))
    ))


# -- hedging ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """Piecewise-constant holdings plus a simple jump integrand.

    ``holdings[i]`` is the number of units of (discounted) stock i held
    over each rebalance interval; the value at a rebalance time applies to
    the following interval, the left-continuity surrogate for
    predictability.  ``jump_integrand[m]`` is paid at each event of driver
    m and compensated at that driver's simulation-measure intensity.
    """

    holdings: tuple[TimeFunction, ...]
    jump_integrand: tuple[TimeFunction, ...] = ()
    v0: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "holdings", tuple(TimeFunction.coerce(f) for f in self.holdings)
        )
        object.__setattr__(
            self,
            "jump_integrand",
            tuple(TimeFunction.coerce(f) for f in self.jump_integrand),
        )
        for fn in self.holdings + self.jump_integrand:
            if fn.kind == "samples":
                raise ValueError(
                    "strategies must be piecewise-constant, not interpolated"
                )

    def rebalance_times(self, horizon: float) -> np.ndarray:
        return merged_breakpoints(self.holdings, 0.0, horizon)


@dataclass(frozen=True)
class HedgingReport:
    """The hedging error and the total gain, unpriced when within 4 standard errors of 0."""

    error: McReport
    gain: McReport

    @property
    def gain_is_unpriced(self) -> bool:
        return _z(self.gain.estimate, 0.0, self.gain.std_error) < Z_LIMIT

    def to_json(self):
        return {
            "error": self.error.to_json(),
            "gain": self.gain.to_json(),
            "gain_is_unpriced": self.gain_is_unpriced,
        }


def hedging_error(
    spec: MarketSpec,
    emm: Emm,
    strategy: Strategy,
    payoff: Payoff,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> HedgingReport:
    """Terminal payoff minus initial value minus trading gains, under emm.

    Stock gains accrue on discounted prices; the jump leg pays the
    integrand at events minus its compensator under the simulation
    measure.  Reports the error and the total gain with the empirical
    "gains have zero expectation" verdict.  Each block of paths is reduced
    to its gains and payoff values as it is simulated, and only the stocks
    held or paid on are simulated.
    """
    if not isinstance(spec.jumps, DiscreteJumpSpec) and strategy.jump_integrand:
        raise PlanMismatch("jump integrands are defined per discrete driver")
    _require_paths(n_paths)
    n_hold, n_jump = len(strategy.holdings), len(strategy.jump_integrand)
    M = spec.n_jump_drivers
    if n_hold != spec.n or n_jump not in (0, M):
        raise ShapeMismatch(f"{n_hold} holding(s) and {n_jump} jump integrand(s) for "
                            f"{spec.n} stock(s) and {M} driver(s)")
    _check_claim(spec, payoff)
    T = spec.horizon
    times = strategy.rebalance_times(T)
    if times[-1] < T:
        times = np.append(times, T)
    disc = np.array([spec.discount_factor(float(u)) for u in times])
    hold = np.vstack(
        [np.atleast_1d(fn.value(times[:-1])) for fn in strategy.holdings]
    )  # (n, K)
    ctx = SimulationContext(spec, times, measure_emm=emm)
    compensator = 0.0
    if strategy.jump_integrand:
        lam_sim = emm.intensities if emm is not None else spec.jumps.intensities
        compensator = sum(
            integrate_product(h, lam, 0.0, T)
            for h, lam in zip(strategy.jump_integrand, lam_sim)
        )
    # only the stocks held or paid on are simulated
    read = _nonzero(strategy.holdings) | {p.asset for p in payoff._leaves()}
    read = sorted(read - {None})
    stocks = None if len(read) == spec.n else read
    gains, values = np.empty(n_paths), np.empty(n_paths)
    for lo, _, block in _blocks([_Sample(ctx, 0, stocks)], seed, n_paths):
        B = len(block)
        if stocks is None:
            terms = np.diff(block.stocks * disc, axis=2)
            terminal = block.stocks[:, :, -1]
        else:  # every (stock, interval) term, 0 where unread, so sums group as in full
            terms, terminal = np.zeros((B, spec.n, len(times) - 1)), np.zeros((B, spec.n))
            if stocks:
                terms[:, stocks] = np.diff(block.stocks * disc, axis=2)
                terminal[:, stocks] = block.stocks[:, :, -1]
        terms *= hold
        jump = 0.0
        if strategy.jump_integrand:  # the integrand of each event's driver
            paid = _per_driver((strategy.jump_integrand,), block.ev_times, block.ev_marks,
                               block.order)[0]
            jump = np.bincount(block.pid, weights=paid, minlength=B) - compensator
        gains[lo:lo + B] = terms.reshape(B, -1).sum(axis=1) + jump
        values[lo:lo + B] = payoff.terminal_values(terminal, _block_counts(ctx, block), spec)
        del block, terms, terminal  # free them before the next block is simulated
    errors = (values - strategy.v0) - gains
    return HedgingReport(error=_mc_report(errors, seed, "Q*"), gain=_mc_report(gains, seed, "Q*"))
