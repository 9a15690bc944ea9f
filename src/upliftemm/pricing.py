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

from .errors import BudgetExceeded, NonReducedEvent, PlanMismatch
from .model import DiscreteJumpSpec, MarketSpec
from .reduction import (
    ContinuousPlan,
    DiscretePlan,
    FictitiousMarket,
    reduce_market,
)
from .stochastic import (
    DEFAULT_SEED,
    RngStreamSpec,
    SimulationContext,
    TerminalSample,
    _terminal_sample,
    run_paths,  # unused here: the benchmark's tracer wraps pricing.run_paths
    simulate_terminal,
)
from .timefns import TimeFunction, integrate_product
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
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McReport(estimate=est, std_error=se, n_paths=n, seed=seed, measure=measure)


def _z(diff: float, se: float) -> float:
    """|diff| in standard errors; 0 when the standard error is 0."""
    return abs(diff) / se if se > 0 else 0.0


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
    sample = simulate_terminal(spec, [spec.horizon], n_paths, seed, density_emm=emm)
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

    # on a continuous market the reduced drivers are the plan's cells, so
    # the full market's marks are counted cell by cell
    ctx = SimulationContext(spec, [spec.horizon], density_emm=emm)
    if isinstance(plan, ContinuousPlan):
        cols = np.arange(len(plan.cells))

        def in_cells(times, marks):  # one-hot of each mark's cell
            return (cell_index(plan.cells, marks)[:, None] == cols).astype(float)

        full, full_counts = _terminal_sample(ctx, n_paths, seed, 0, in_cells)
    else:
        full, _ = _terminal_sample(ctx, n_paths, seed, 0)
        full_counts = full.counts
    reduced = simulate_terminal(
        fict.spec, [spec.horizon], n_paths, seed,
        density_emm=fict_emm, stream_offset=n_paths,
    )
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
    product of (1 + y_im)^{N_m}, plus the stochastic exponential of any
    dropped Brownian columns; its expectation is one.
    """
    neglected = fict.neglected
    jumps: DiscreteJumpSpec = spec.jumps
    for m in neglected:
        for i in range(spec.n):
            if not jumps.loadings[i][m].is_constant:
                raise PlanMismatch(
                    "nested conditioning needs constant neglected loadings"
                )
    lam_int = np.array([intensities[m].integral(0.0, t) for m in neglected])
    y = np.array(
        [[jumps.loadings[i][m].constant_value for m in neglected]
         for i in range(spec.n)]
    )
    if y.size == 0:
        y = y.reshape(spec.n, 0)
    dropped = [d for d in range(spec.n_brownians) if d not in fict.brownian_map]
    sig_fns = [[spec.sigma[i][d] for d in dropped] for i in range(spec.n)]
    knot_parts = [np.array([0.0, t])]
    for row in sig_fns:
        for fn in row:
            bp = fn.breakpoints()
            knot_parts.append(bp[(bp > 0) & (bp < t)])
    knots = np.unique(np.concatenate(knot_parts))
    return lam_int, y, np.log1p(y), dropped, sig_fns, knots


def _neglected_factors(
    spec: MarketSpec,
    fict: FictitiousMarket,
    model,
    n_inner: int,
    rng: np.random.Generator,
):
    """(n_inner, n) multiplicative factors from the neglected randomness."""
    lam_int, y, log1p_y, dropped, sig_fns, knots = model
    n = spec.n
    if len(lam_int):
        counts = rng.poisson(lam=lam_int, size=(n_inner, len(lam_int)))
        log_f = counts @ log1p_y.T - (y @ lam_int)[None, :]
    else:
        log_f = np.zeros((n_inner, n))
        counts = np.zeros((n_inner, 0), dtype=np.int64)
    # dropped Brownian part: exact Gaussian increments on the sigma knots
    if dropped:
        dt = np.diff(knots)
        z = rng.standard_normal((n_inner, len(dropped), len(dt)))
        dw = z * np.sqrt(dt)
        for i in range(n):
            sig_vals = np.vstack(
                [np.atleast_1d(fn.value(knots[:-1])) for fn in sig_fns[i]]
            )
            log_f[:, i] += np.einsum("pdk,dk->p", dw, sig_vals) - 0.5 * np.sum(
                sig_vals**2 * dt
            )
    return np.exp(log_f), counts


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
    if isinstance(plan, ContinuousPlan) or plan.batches:
        raise PlanMismatch("nested conditioning supports complete-neglect plans")
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
    M = spec.n_jump_drivers
    retained_cols = {m: k for k, group in enumerate(fict.driver_groups) for m in group}
    inner_means = np.empty(n_outer)
    for p in range(n_outer):
        rng = RngStreamSpec(seed, p).generator("inner")
        factors, neg_counts = _neglected_factors(spec, fict, model, n_inner, rng)
        stocks = outer.stocks[p, :, -1][None, :] * factors  # (n_inner, n)
        counts = np.zeros((n_inner, M))
        for m, k in retained_cols.items():
            counts[:, m] = outer.counts[p, k]
        for j, m in enumerate(fict.neglected):
            counts[:, m] = neg_counts[:, j]
        vals = payoff.undiscounted_values(stocks, counts)
        if payoff.discounted:
            vals = vals * spec.discount_factor(T)
        inner_means[p] = np.sum(vals) / n_inner
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
    if isinstance(plan, ContinuousPlan) or plan.batches:
        raise PlanMismatch("projection supports complete-neglect plans")
    if fict is None:
        fict = reduce_market(spec, plan)
    T = spec.horizon
    t = 0.5 * T if t is None else float(t)
    jumps: DiscreteJumpSpec = spec.jumps
    model = _neglected_factor_model(
        spec, fict, jumps.intensities, t
    )  # physical measure
    outer = simulate_terminal(fict.spec, [t], n_outer, seed)
    z_scores = np.empty((n_outer, spec.n))
    inner_mean_factors = np.empty((n_outer, spec.n))
    inner_se_factors = np.empty((n_outer, spec.n))
    for p in range(n_outer):
        rng = RngStreamSpec(seed, p).generator("inner")
        factors, _ = _neglected_factors(spec, fict, model, n_inner, rng)
        mean_f = factors.sum(axis=0) / n_inner
        se_f = factors.std(axis=0, ddof=1) / np.sqrt(n_inner)
        inner_mean_factors[p] = mean_f
        inner_se_factors[p] = se_f
        z_scores[p] = np.abs(mean_f - 1.0) / se_f
    projected = outer.stocks[:, :, 0]  # (n_outer, n): the reduced-market prices
    return ProjectionReport(
        t=t,
        projected=projected,
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
        knots = [np.array([0.0, horizon])]
        for fn in self.holdings:
            bp = fn.breakpoints()
            knots.append(bp[(bp > 0) & (bp < horizon)])
        return np.unique(np.concatenate(knots))


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

        def paid(times, marks):  # the integrand of each event's driver
            out = np.zeros((times.size, 1))
            for m, fn in enumerate(strategy.jump_integrand):
                sel = marks == m
                out[sel, 0] = fn.value(times[sel])
            return out

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
