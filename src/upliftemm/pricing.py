"""Monte Carlo pricing, measure-identity checks, and hedging errors.

Every estimator reduces an (n_paths,)-vector of per-path values with a
single pairwise sum over the path index, so estimates are byte-identical
for any block size; prices are reductions of a terminal sample through one
estimator.  The two legs of a comparison always use disjoint substream
ranges, making the "within 4 combined standard errors" criteria meaningful.
All payoffs of one two-route report share its two samples, so its lines
are correlated with each other.  In a verify run the density mass is leg a
of the restriction check's ``omega`` line (Z* 1_omega is Z*); the
restriction's own two legs stay on disjoint streams.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
from .reduction import (
    ContinuousPlan,
    DiscretePlan,
    FictitiousMarket,
    _is_complete_neglect,
    reduce_market,
)
from .stochastic import (
    DEFAULT_SEED,
    SimulationContext,
    TerminalSample,
    _count_width,
    _terminal_sample,
    run_paths,  # unused here: the benchmark's tracer wraps pricing.run_paths
    simulate_terminal,
)
from .timefns import TimeFunction, integrate_product, merged_breakpoints
from .uplift import Emm, cell_index, verify_uplift

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


# -- payoffs -------------------------------------------------------------------


@dataclass(frozen=True)
class Payoff:
    """A terminal-state claim.

    kind: "terminal" | "forward" | "call" | "put" | "indicator_count" |
    "linear".  ``indicator_count`` pays 1{N_driver(T) == count}, times the
    terminal price of ``asset`` when one is given.  ``linear`` combines
    sub-payoffs with weights.  ``discounted`` multiplies by
    exp(-integral of r over [0, T]).
    """

    kind: str
    asset: int | None = None
    strike: float | None = None
    driver: int | None = None
    count: int | None = None
    discounted: bool = True
    terms: tuple[tuple[float, "Payoff"], ...] = ()

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
        return Payoff(
            "linear",
            terms=tuple((float(w), p) for w, p in terms),
            discounted=discounted,
        )

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
        if k == "linear":
            acc = np.zeros(len(stocks))
            for w, p in self.terms:
                acc += w * p.undiscounted_values(stocks, counts)
            return acc
        raise ValueError(f"unknown payoff kind {k!r}")

    def values(self, sample: TerminalSample, spec: MarketSpec) -> np.ndarray:
        vals = self.undiscounted_values(sample.terminal_stocks(), sample.counts)
        if self.discounted:
            vals = vals * spec.discount_factor(spec.horizon)
        return vals

    def referenced_drivers(self, spec: MarketSpec) -> set[int]:
        if self.kind == "indicator_count":
            refs = {self.driver}
            if self.asset is not None:
                refs |= _asset_drivers(spec, self.asset)
            return refs
        if self.kind == "linear":
            out: set[int] = set()
            for _, p in self.terms:
                out |= p.referenced_drivers(spec)
            return out
        return _asset_drivers(spec, self.asset)

    def referenced_brownians(self, spec: MarketSpec) -> set[int]:
        if self.kind == "linear":
            out: set[int] = set()
            for _, p in self.terms:
                out |= p.referenced_brownians(spec)
            return out
        if self.kind == "indicator_count" and self.asset is None:
            return set()
        return _asset_brownians(spec, self.asset)

    def is_reduced_measurable(self, spec: MarketSpec, fict: FictitiousMarket) -> bool:
        """Whether the claim depends only on retained, unbatched randomness."""
        retained = {
            m for group in fict.driver_groups if len(group) == 1 for m in group
        }
        return self.referenced_drivers(spec) <= retained and (
            self.referenced_brownians(spec) <= set(fict.brownian_map)
        )

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


def _check_count_columns(spec: MarketSpec, payoff: Payoff) -> None:
    """Raise ShapeMismatch, before anything is simulated, when ``payoff``
    reads a count column that the market's terminal sample lacks."""
    if payoff.kind == "linear":
        for _, term in payoff.terms:
            _check_count_columns(spec, term)
    elif payoff.kind == "indicator_count":
        width = _count_width(spec)
        if not 0 <= payoff.driver < width:
            raise ShapeMismatch(
                f"payoff counts driver {payoff.driver}, but the market's "
                f"sample has {width} count column(s)"
            )


def _asset_drivers(spec: MarketSpec, asset: int | None) -> set[int]:
    if asset is None:
        return set()
    if isinstance(spec.jumps, DiscreteJumpSpec):
        out = set()
        for m, fn in enumerate(spec.jumps.loadings[asset]):
            if not (fn.is_constant and fn.constant_value == 0.0):
                out.add(m)
        return out
    return {0} if spec.jumps is not None else set()


def _asset_brownians(spec: MarketSpec, asset: int | None) -> set[int]:
    if asset is None or not spec.sigma:
        return set()
    out = set()
    for d, fn in enumerate(spec.sigma[asset]):
        if not (fn.is_constant and fn.constant_value == 0.0):
            out.add(d)
    return out


# -- events (for the restriction theorem) -----------------------------------------


@dataclass(frozen=True)
class MarketEvent:
    """A terminal event defined by driver counts and Brownian levels.

    Empty conditions mean the whole sample space.
    """

    label: str = "omega"
    count_eq: tuple[tuple[int, int], ...] = ()
    brownian_gt: tuple[tuple[int, float], ...] = ()

    def indicator(
        self,
        counts: np.ndarray,
        w_terminal: np.ndarray,
        driver_map=None,
        brownian_map=None,
    ) -> np.ndarray:
        ok = np.ones(len(counts), dtype=bool)
        for driver, k in self.count_eq:
            col = driver if driver_map is None else driver_map(driver)
            ok &= counts[:, col] == k
        for d, c in self.brownian_gt:
            col = d if brownian_map is None else brownian_map(d)
            ok &= w_terminal[:, col] > c
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


def _z(diff: float, se: float) -> float:
    """|diff| in standard errors; 0 when the standard error is 0."""
    return abs(diff) / se if se > 0 else 0.0


def _require_paths(n_paths: int, least: int = 2) -> None:
    """An estimate needs a standard error (ddof=1), so at least two paths;
    a nested check's other count needs ``least`` = 1."""
    if n_paths < least:
        plural = "s" * (least > 1)
        raise TooFewPaths(f"an estimate needs at least {least} path{plural}, got {n_paths}")


def _agrees(diff: float, se: float) -> bool:
    """Within Z_LIMIT standard errors of 0; exactly 0 when se is 0."""
    return _z(diff, se) < Z_LIMIT if se > 0 else diff == 0.0


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
    _check_count_columns(spec, payoff)
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
    _check_count_columns(spec, payoff)
    sample = simulate_terminal(spec, [spec.horizon], n_paths, seed, density_emm=emm)
    return _price(sample, spec, payoff)


@dataclass(frozen=True)
class ComparisonLine:
    label: str
    a: McReport
    b: McReport

    @property
    def difference(self) -> float:
        return self.a.estimate - self.b.estimate

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.a.std_error, self.b.std_error))

    @property
    def z(self) -> float:
        return _z(self.difference, self.combined_se)

    @property
    def passed(self) -> bool:
        return _agrees(self.difference, self.combined_se)

    def to_json(self):
        return {
            "label": self.label,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "difference": self.difference,
            "combined_se": self.combined_se,
            "z": self.z,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    lines: tuple[ComparisonLine, ...] = ()
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "lines": [ln.to_json() for ln in self.lines],
            "details": self.details,
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
    streams [0, n), under P with the density on [n, 2n).  The two legs of
    a line are independent and estimate the same expectation when the
    measure change is correct; the lines share samples, so are correlated.
    """
    _require_paths(n_paths)
    for payoff in payoffs.values():
        _check_count_columns(spec, payoff)
    T = spec.horizon
    direct = simulate_terminal(spec, [T], n_paths, seed, measure_emm=emm)
    weighted = simulate_terminal(
        spec, [T], n_paths, seed, density_emm=emm, stream_offset=n_paths
    )
    lines = [
        ComparisonLine(
            label=label,
            a=_price(direct, spec, payoff),
            b=_price(weighted, spec, payoff),
        )
        for label, payoff in payoffs.items()
    ]
    return CheckReport(
        name="two_route",
        passed=all(ln.passed for ln in lines),
        lines=tuple(lines),
    )


def density_mass_check(
    spec: MarketSpec,
    emm: Emm,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """E[Z(T)] = 1 under the physical measure, within 4 standard errors."""
    _require_paths(n_paths)
    ctx = SimulationContext(spec, [spec.horizon], density_emm=emm)
    sample, _ = _terminal_sample(ctx, n_paths, seed, 0, stocks=False)
    return _density_mass_report(_mc_report(sample.z_terminal(), seed, "P"))


def _density_mass_report(rep: McReport) -> CheckReport:
    """The density-mass verdict on an estimate of E_P[Z(T)]."""
    z = _z(rep.estimate - 1.0, rep.std_error)
    return CheckReport(
        name="density_mass",
        passed=bool(z < Z_LIMIT),
        details={"estimate": rep.estimate, "std_error": rep.std_error, "z": z},
    )


def martingale_check(
    spec: MarketSpec,
    emm: Emm,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Discounted terminal prices average to the initial prices under emm."""
    _require_paths(n_paths)
    sample = simulate_terminal(spec, [spec.horizon], n_paths, seed, measure_emm=emm)
    zs = {}
    for i, target in enumerate(spec.s0):
        rep = _price(sample, spec, Payoff.terminal(i))
        z = _z(rep.estimate - target, rep.std_error)
        zs[f"stock_{i}"] = {"estimate": rep.estimate, "target": target,
                            "std_error": rep.std_error, "z": z}
    passed = all(line["z"] < Z_LIMIT for line in zs.values())
    return CheckReport(name="martingale", passed=passed, details=zs)


# -- restriction of the uplift to the reduced information ---------------------------------


def restriction_check(
    spec: MarketSpec,
    plan,
    emm: Emm,
    fict_emm: Emm,
    events: tuple[MarketEvent, ...],
    n_paths: int,
    seed: int = DEFAULT_SEED,
    fict: FictitiousMarket | None = None,
) -> CheckReport:
    """E_P[Z* 1_A] vs E_P[Z~ 1_A] for reduced-information events A.

    The left side weights full-market paths with the uplifted density; the
    right side weights reduced-market paths with the fictitious density.
    Equality for every A in the reduced terminal information set is what
    makes the uplift an extension of the fictitious measure.
    """
    _require_paths(n_paths)
    if fict is None:
        fict = reduce_market(spec, plan)
    retained = {m for group in fict.driver_groups for m in group}
    kept_b = set(fict.brownian_map)
    for ev in events:
        if not ev.referenced_drivers() <= retained:
            raise NonReducedEvent(
                f"event {ev.label!r} references a neglected driver"
            )
        if not ev.referenced_brownians() <= kept_b:
            raise NonReducedEvent(
                f"event {ev.label!r} references a dropped Brownian driver"
            )
        for driver in ev.referenced_drivers():
            group = fict.driver_groups[fict.reduced_index_of(driver)]
            if len(group) > 1:
                raise NonReducedEvent(
                    f"event {ev.label!r} references a batched driver; "
                    "individual counts are not reduced-information"
                )

    # both samples are density-only, as the indicators read only counts and
    # W_T; on a continuous market the reduced drivers are the plan's cells,
    # so the full market's marks are counted cell by cell
    ctx = SimulationContext(spec, [spec.horizon], density_emm=emm)
    if isinstance(plan, ContinuousPlan):
        cols = np.arange(len(plan.cells))

        def in_cells(times, marks, order):  # one-hot of each mark's cell
            return (cell_index(plan.cells, marks)[:, None] == cols).astype(float)

        full, full_counts = _terminal_sample(
            ctx, n_paths, seed, 0, in_cells, stocks=False
        )
    else:
        full, _ = _terminal_sample(ctx, n_paths, seed, 0, stocks=False)
        full_counts = full.counts
    fict_ctx = SimulationContext(fict.spec, [spec.horizon], density_emm=fict_emm)
    reduced, _ = _terminal_sample(fict_ctx, n_paths, seed, n_paths, stocks=False)
    lines = []
    for ev in events:
        va = full.z_terminal() * ev.indicator(full_counts, full.w_terminal)
        vb = reduced.z_terminal() * ev.indicator(
            reduced.counts,
            reduced.w_terminal,
            driver_map=fict.reduced_index_of,
            brownian_map=fict.reduced_brownian_of,
        )
        lines.append(
            ComparisonLine(
                label=ev.label,
                a=_mc_report(va, seed, "P,Z*"),
                b=_mc_report(vb, seed, "P,Z~"),
            )
        )
    return CheckReport(
        name="restriction",
        passed=all(ln.passed for ln in lines),
        lines=tuple(lines),
    )


# -- nested conditional expectation machinery ------------------------------------------


def _neglected_factor_model(
    spec: MarketSpec, fict: FictitiousMarket, intensities, t: float
):
    """Constant data describing the neglected part of the price factorization.

    The neglected part of stock i is exp(-sum_m y_im * Lam_m) times the
    product of (1 + y_im)^{N_m}, times the stochastic exponential of any
    dropped Brownian columns, exact on the knots of their sigma; its
    expectation is one.  Returns each Lam_m's Poisson CDF table, the (n, M)
    log(1 + y), the (n, D K) loads sigma sqrt(dt) of the dropped (Brownian,
    knot segment) normals and the (n,) shift y Lam + 1/2 int |sigma|^2.
    """
    neglected = list(fict.neglected)
    loadings = spec.jumps.loadings
    if not all(loadings[i][m].is_constant for i in range(spec.n) for m in neglected):
        raise PlanMismatch("nested conditioning needs constant neglected loadings")
    lam_int = np.array([intensities[m].integral(0.0, t) for m in neglected])
    y = spec.jumps.loading_values(0.0)[:, neglected]
    dropped = [d for d in range(spec.n_brownians) if d not in fict.brownian_map]
    sig_fns = [[spec.sigma[i][d] for d in dropped] for i in range(spec.n)]
    knots = merged_breakpoints([fn for row in sig_fns for fn in row], 0.0, t)
    dt = np.diff(knots)
    sig = np.array([[fn.value(knots[:-1]) for fn in row] for row in sig_fns])
    sig = sig.reshape(spec.n, len(dropped), len(dt))
    cdfs = [poisson_cdf(lam) if lam > 0.0 else np.ones(1) for lam in lam_int]
    load = (sig * np.sqrt(dt)).reshape(spec.n, -1)
    shift = y @ lam_int + 0.5 * (sig * sig * dt).sum(axis=(1, 2))
    return cdfs, np.log1p(y), load, shift


def _neglected_factors(spec: MarketSpec, model, outer_ids, n_inner: int, seed: int):
    """(P, n, n_inner) multiplicative factors from the neglected randomness
    of outer paths ``outer_ids``, and their (P, M, n_inner) neglected counts.

    Outer path p draws from the ``inner`` counters of stream id p, so its
    factors do not depend on which outer paths are drawn with it.  Its
    uniform k is double k % 2 of counter k // 2.  Inner sample j's count
    of neglected driver m inverts Lam_m's Poisson CDF at uniform
    m * n_inner + j.  The dropped Brownians' standard normals follow as
    Box-Muller pairs, one counter per pair, from the first counter after
    the count uniforms, in (dropped Brownian, knot segment, inner sample)
    order.
    """
    cdfs, log1p_y, load, shift = model
    P, J, M = len(outer_ids), n_inner, len(cdfs)
    n_u, n_z = M * J, load.shape[1] * J
    n_c = (n_u + 1) // 2
    u = uniforms(seed, "inner", np.arange(n_c + (n_z + 1) // 2), outer_ids[:, None])
    cu = u[:, :, :n_c].transpose(1, 2, 0).reshape(P, -1)[:, :n_u].reshape(P, M, J)
    counts = np.empty((P, M, J), dtype=np.int64)
    for m, cdf in enumerate(cdfs):
        counts[:, m] = poisson_counts(cdf, cu[:, m])
    log_f = np.zeros((P, spec.n, J))
    if M:  # each sum runs in driver / normal order, whatever P is
        log_f += _sum_d(log1p_y.T[:, :, None], counts.transpose(1, 0, 2)[:, :, None])
    if n_z:
        z = box_muller(u[:, :, n_c:]).reshape(P, -1)[:, :n_z].reshape(P, -1, J)
        log_f += _sum_d(load.T[:, :, None], z.transpose(1, 0, 2)[:, :, None])
    log_f -= shift[:, None]
    return np.exp(log_f), counts


def _outer_chunks(n_outer: int, width: int) -> list[np.ndarray]:
    """Consecutive outer paths in chunks of about ``blocks._SEGMENT_BUDGET``
    cells, each outer path holding ``width`` of them."""
    step = max(1, blocks._SEGMENT_BUDGET // width)
    return [np.arange(lo, min(lo + step, n_outer)) for lo in range(0, n_outer, step)]


def cost_of_construction_check(
    spec: MarketSpec,
    plan: DiscretePlan,
    emm: Emm,
    fict_emm: Emm,
    payoff: Payoff,
    n_outer: int,
    n_inner: int,
    n_direct: int = 100_000,
    seed: int = DEFAULT_SEED,
    budget: int = 20_000_000,
    fict: FictitiousMarket | None = None,
) -> CheckReport:
    """Nested estimate of the fictitious-claim price vs the direct price.

    The reduced claim is the conditional expectation of the payoff given
    the retained information; pricing it in the fictitious market must
    cost exactly the original claim's price under the uplifted measure.
    The inner expectation integrates over the neglected drivers (whose
    risk-neutral intensities are their physical ones).
    """
    if not _is_complete_neglect(plan):
        raise PlanMismatch("nested conditioning supports complete-neglect plans")
    _require_paths(n_outer)
    _require_paths(n_inner, 1)
    _require_paths(n_direct)
    _check_count_columns(spec, payoff)
    if n_outer * n_inner > budget:
        raise BudgetExceeded(
            f"{n_outer} x {n_inner} inner paths exceed the budget {budget}"
        )
    if fict is None:
        fict = reduce_market(spec, plan)
    T = spec.horizon
    # under the consistent uplift the neglected intensities are physical
    model = _neglected_factor_model(spec, fict, emm.intensities, T)

    outer = simulate_terminal(fict.spec, [T], n_outer, seed, measure_emm=fict_emm)
    retained = [m for group in fict.driver_groups for m in group]
    neglected = list(fict.neglected)
    inner_means = np.empty(n_outer)
    for ids in _outer_chunks(n_outer, spec.n * n_inner):
        factors, neg_counts = _neglected_factors(spec, model, ids, n_inner, seed)
        # one row per (outer path, inner sample)
        stocks = outer.stocks[ids, :, -1][:, None, :] * factors.transpose(0, 2, 1)
        counts = np.zeros((len(ids), n_inner, spec.n_jump_drivers))
        counts[:, :, retained] = outer.counts[ids][:, None, :]
        counts[:, :, neglected] = neg_counts.transpose(0, 2, 1)
        rows = (len(ids) * n_inner, -1)
        vals = payoff.undiscounted_values(stocks.reshape(rows), counts.reshape(rows))
        if payoff.discounted:
            vals = vals * spec.discount_factor(T)
        inner_means[ids] = vals.reshape(len(ids), n_inner).sum(axis=1) / n_inner
    nested = _mc_report(inner_means, seed, "Q~ nested")
    direct = simulate_terminal(
        spec, [T], n_direct, seed, measure_emm=emm, stream_offset=n_outer
    )
    line = ComparisonLine(
        label="cost_of_construction", a=nested, b=_price(direct, spec, payoff)
    )
    return CheckReport(
        name="cost_of_construction", passed=line.passed, lines=(line,)
    )


def projection_consistency_check(
    spec: MarketSpec,
    plan: DiscretePlan,
    n_outer: int,
    n_inner: int,
    t: float | None = None,
    seed: int = DEFAULT_SEED,
    fict: FictitiousMarket | None = None,
) -> "ProjectionReport":
    """Conditional Monte Carlo oracle for the closed-form projected price.

    For each retained path the full price averaged over fresh neglected
    randomness must match the projected price within the inner standard
    error; the neglected part contributes a mean-one factor.
    """
    if not _is_complete_neglect(plan):
        raise PlanMismatch("projection supports complete-neglect plans")
    _require_paths(n_inner)
    _require_paths(n_outer, 1)
    if fict is None:
        fict = reduce_market(spec, plan)
    t = 0.5 * spec.horizon if t is None else float(t)
    # the neglected drivers at their physical intensities
    model = _neglected_factor_model(spec, fict, spec.jumps.intensities, t)
    outer = simulate_terminal(fict.spec, [t], n_outer, seed)
    inner_mean_factors = np.empty((n_outer, spec.n))
    inner_se_factors = np.empty((n_outer, spec.n))
    for ids in _outer_chunks(n_outer, spec.n * n_inner):
        factors, _ = _neglected_factors(spec, model, ids, n_inner, seed)
        inner_mean_factors[ids] = factors.sum(axis=-1) / n_inner
        inner_se_factors[ids] = factors.std(axis=-1, ddof=1) / np.sqrt(n_inner)
    # a factor with no neglected randomness is exactly 1, with z 0
    diff, se = np.abs(inner_mean_factors - 1.0), inner_se_factors
    z_scores = np.divide(diff, se, out=np.where(diff > 0, np.inf, 0.0), where=se > 0)
    return ProjectionReport(
        t=t,
        projected=outer.stocks[:, :, 0],  # (n_outer, n): the reduced-market prices
        inner_mean_factors=inner_mean_factors,
        inner_se_factors=inner_se_factors,
        z_scores=z_scores,
        passed=bool(np.max(z_scores) < Z_LIMIT),
    )


@dataclass(frozen=True)
class ProjectionReport:
    t: float
    projected: np.ndarray
    inner_mean_factors: np.ndarray
    inner_se_factors: np.ndarray
    z_scores: np.ndarray
    passed: bool

    @property
    def max_z(self) -> float:
        return float(np.max(self.z_scores))

    def to_json(self):
        return {
            "name": "projection",
            "t": self.t,
            "max_z": self.max_z,
            "passed": bool(self.passed),
        }


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
    error: McReport
    gain: McReport
    gain_is_unpriced: bool

    def to_json(self):
        return {
            "error": self.error.to_json(),
            "gain": self.gain.to_json(),
            "gain_is_unpriced": bool(self.gain_is_unpriced),
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
    "gains have zero expectation" verdict.
    """
    if not isinstance(spec.jumps, (DiscreteJumpSpec, type(None))) and strategy.jump_integrand:
        raise PlanMismatch("jump integrands are defined per discrete driver")
    _require_paths(n_paths)
    _check_count_columns(spec, payoff)
    T = spec.horizon
    times = strategy.rebalance_times(T)
    if times[-1] < T:
        times = np.append(times, T)
    disc = np.array([spec.discount_factor(float(u)) for u in times])
    hold = np.vstack(
        [np.atleast_1d(fn.value(times[:-1])) for fn in strategy.holdings]
    )  # (n, K)
    ctx = SimulationContext(spec, times, measure_emm=emm)
    paid = None
    if strategy.jump_integrand:
        lam_sim = emm.intensities if emm is not None else spec.jumps.intensities
        compensator = sum(
            integrate_product(h, lam, 0.0, T)
            for h, lam in zip(strategy.jump_integrand, lam_sim)
        )

        def paid(times, marks, order):  # the integrand of each event's driver
            return _per_driver((strategy.jump_integrand,), times, marks, order).T

    sample, paid_sums = _terminal_sample(ctx, n_paths, seed, 0, paid)
    # each path's stock gain is one sum over its (stock, interval) terms
    terms = np.diff(sample.stocks * disc, axis=2)
    terms *= hold
    gain_jump = 0.0 if paid is None else paid_sums[:, 0] - compensator
    gains = terms.reshape(n_paths, -1).sum(axis=1) + gain_jump
    errors = (payoff.values(sample, spec) - strategy.v0) - gains
    gain = _mc_report(gains, seed, "Q*")
    unpriced = _agrees(gain.estimate, gain.std_error)
    return HedgingReport(
        error=_mc_report(errors, seed, "Q*"), gain=gain, gain_is_unpriced=unpriced
    )
