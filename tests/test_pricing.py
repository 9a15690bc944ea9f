import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm, poisson

import upliftemm.blocks
import upliftemm.pricing
import upliftemm.stochastic
from upliftemm import (
    ContinuousPlan,
    DiscreteJumpSpec,
    DiscretePlan,
    Emm,
    MarketEvent,
    MarketSpec,
    Payoff,
    Strategy,
    TimeFunction,
    build_uplifted_emm,
    cost_of_construction_check,
    density_mass_check,
    hedging_error,
    martingale_check,
    price_mc,
    projection_consistency_check,
    reduce_market,
    restriction_check,
    simulate_terminal,
    two_route_check,
    zweighted_price_mc,
)
from upliftemm.cli import restriction_events, verify_suite
from upliftemm.io import market_from_json, plan_from_json
from upliftemm.errors import (
    BudgetExceeded,
    NonReducedEvent,
    PlanMismatch,
    ShapeMismatch,
    TooFewPaths,
)
from upliftemm.stochastic import SimulationContext, _terminal_sample
from upliftemm.pricing import _event_probability, _neglected_factor_model
from upliftemm.timefns import integrate_product
from upliftemm.uplift import cell_index

from conftest import block_rows, make_three_stock_market, make_uniform_mark_market

N_MC = 20_000
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def black_scholes_call(s0, k, r, sigma, t):
    d1 = (np.log(s0 / k) + (r + 0.5 * sigma**2) * t) / (sigma * np.sqrt(t))
    d2 = d1 - sigma * np.sqrt(t)
    return s0 * norm.cdf(d1) - k * np.exp(-r * t) * norm.cdf(d2)


def jump_mixture_call(s0, k, r, sigma, t, lam_tilde, y, n_terms=60):
    """Poisson mixture of Black-Scholes prices for one fixed jump size.

    Conditional on n jumps the terminal price is lognormal around the
    jump-adjusted forward s0 (1+y)^n exp(-lam~ y t).
    """
    total = 0.0
    for n in range(n_terms):
        s0_n = s0 * (1.0 + y) ** n * np.exp(-lam_tilde * y * t)
        total += poisson.pmf(n, lam_tilde * t) * black_scholes_call(
            s0_n, k, r, sigma, t
        )
    return total


@pytest.fixture
def uplifted(three_stock_market, neglect_plan):
    emm, fict, fict_emm = build_uplifted_emm(three_stock_market, neglect_plan)
    return three_stock_market, neglect_plan, emm, fict, fict_emm


class TestPriceMc:
    def test_discounted_terminal_is_initial_price(self, uplifted):
        spec, _, emm, _, _ = uplifted
        rep = price_mc(spec, emm, Payoff.terminal(1), N_MC, seed=101)
        assert abs(rep.estimate - spec.s0[1]) < 3 * rep.std_error

    def test_diffusion_call_matches_black_scholes(self):
        s0, r, sigma, t, k = 100.0, 0.03, 0.2, 1.0, 105.0
        spec = MarketSpec(horizon=t, s0=[s0], alpha=[0.08], rate=r, sigma=[[sigma]])
        emm = Emm(theta=((0.08 - r) / sigma,))
        rep = price_mc(spec, emm, Payoff.call(0, k), N_MC, seed=102)
        target = black_scholes_call(s0, k, r, sigma, t)
        assert abs(rep.estimate - target) < 3 * rep.std_error

    def test_single_jump_call_matches_mixture(self):
        s0, r, sigma, t, k = 100.0, 0.02, 0.2, 1.0, 100.0
        lam, lam_tilde, y, theta = 3.0, 2.0, 0.1, 0.3
        alpha = r + sigma * theta + (lam - lam_tilde) * y
        spec = MarketSpec(
            horizon=t, s0=[s0], alpha=[alpha], rate=r, sigma=[[sigma]],
            jumps=DiscreteJumpSpec(intensities=[lam], loadings=[[y]]),
        )
        emm = Emm(theta=(theta,), intensities=(lam_tilde,))
        rep = price_mc(spec, emm, Payoff.call(0, k), N_MC, seed=103)
        target = jump_mixture_call(s0, k, r, sigma, t, lam_tilde, y)
        assert abs(rep.estimate - target) < 3 * rep.std_error

    def test_invalid_measure_rejected(self, uplifted):
        spec, _, emm, _, _ = uplifted
        bad = Emm(
            theta=emm.theta,
            intensities=(
                TimeFunction.constant(9.9),
                emm.intensities[1],
                emm.intensities[2],
            ),
        )
        with pytest.raises(ValueError):
            price_mc(spec, bad, Payoff.terminal(0), 100, seed=1)


def _forbid_simulation(monkeypatch):
    def simulated(*args, **kwargs):
        raise AssertionError("simulated before the payoff was checked")

    monkeypatch.setattr(upliftemm.pricing, "simulate_terminal", simulated)
    monkeypatch.setattr(upliftemm.pricing, "_terminal_sample", simulated)


class TestCountColumns:
    """A payoff counting a driver the sample has no column for is a typed
    error, raised before anything is simulated."""

    def test_jump_free_market(self, monkeypatch):
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]]
        )
        emm = Emm(theta=(0.15,))
        quiet = Payoff.indicator_count(0, 0)
        _forbid_simulation(monkeypatch)
        calls = [
            lambda: price_mc(spec, emm, quiet, 1000),
            lambda: zweighted_price_mc(spec, emm, quiet, 1000),
            lambda: two_route_check(spec, emm, {"quiet": quiet}, 1000),
            lambda: hedging_error(spec, emm, Strategy(holdings=(0.0,)), quiet, 1000),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch, match="driver 0.* 0 count column"):
                call()

    def test_driver_out_of_range(self, uplifted, monkeypatch):
        spec, plan, emm, fict, fict_emm = uplifted  # three drivers
        bad = Payoff.linear(
            [(1.0, Payoff.terminal(0)), (2.0, Payoff.indicator_count(3, 0))]
        )
        hold = Strategy(holdings=(0.0, 0.0, 0.0))
        _forbid_simulation(monkeypatch)
        calls = [
            lambda: price_mc(spec, emm, bad, 1000),
            lambda: zweighted_price_mc(spec, emm, bad, 1000),
            lambda: two_route_check(
                spec, emm, {"ok": Payoff.terminal(0), "bad": bad}, 1000
            ),
            lambda: cost_of_construction_check(
                fict, emm, fict_emm, bad, n_outer=10, n_inner=10
            ),
            lambda: hedging_error(spec, emm, hold, bad, 1000),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch, match="driver 3.* 3 count column"):
                call()


class TestClaimShape:
    """A claim on a stock the market lacks, or a strategy whose holdings or
    jump integrands do not match the market's stocks and drivers, is a
    typed error, raised before anything is simulated."""

    @pytest.mark.parametrize("asset", [-1, 3, 7])
    def test_asset_out_of_range(self, uplifted, monkeypatch, asset):
        spec, plan, emm, fict, fict_emm = uplifted  # three stocks
        bad = Payoff.linear(
            [(1.0, Payoff.terminal(0)), (1.0, Payoff.indicator_count(0, 1, asset=asset))]
        )
        hold = Strategy(holdings=(0.0, 0.0, 0.0))
        _forbid_simulation(monkeypatch)
        calls = [
            lambda: price_mc(spec, emm, Payoff.terminal(asset), 2000, 3),
            lambda: zweighted_price_mc(spec, emm, Payoff.call(asset, 100.0), 2000),
            lambda: two_route_check(spec, emm, {"ok": Payoff.terminal(0), "bad": bad}, 1000),
            lambda: cost_of_construction_check(
                fict, emm, fict_emm, bad, n_outer=10, n_inner=10
            ),
            lambda: hedging_error(spec, emm, hold, Payoff.put(asset, 90.0), 1000),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch, match=f"asset {asset}, .* 3 stock"):
                call()

    @pytest.mark.parametrize("holdings, integrand, match", [
        ((1.0,), (), "1 holding.* 3 stock"),
        ((0.0,) * 4, (), "4 holding.* 3 stock"),
        ((0.0,) * 3, (0.5, -0.25), "2 jump integrand.* 3 driver"),
        ((0.0,) * 3, (0.5,) * 4, "4 jump integrand.* 3 driver"),
    ])
    def test_strategy_width(self, uplifted, monkeypatch, holdings, integrand, match):
        spec, _, emm, _, _ = uplifted  # three stocks, three drivers
        strategy = Strategy(holdings=holdings, jump_integrand=integrand, v0=100.0)
        _forbid_simulation(monkeypatch)
        with pytest.raises(ShapeMismatch, match=match):
            hedging_error(spec, emm, strategy, Payoff.terminal(0), 2000, 3)


class TestTooFewPaths:
    """An estimate's standard error (ddof=1) needs two paths, so fewer is a
    typed error, raised before anything is simulated."""

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_checks_reject_fewer_than_two_paths(self, uplifted, monkeypatch, n_paths):
        spec, plan, emm, fict, fict_emm = uplifted
        _forbid_simulation(monkeypatch)
        calls = [
            lambda: martingale_check(spec, emm, n_paths),
            lambda: density_mass_check(spec, emm, n_paths),
            lambda: restriction_check(
                fict, emm, fict_emm, (MarketEvent("omega"),), n_paths
            ),
            lambda: two_route_check(spec, emm, {"s0": Payoff.terminal(0)}, n_paths),
        ]
        for call in calls:
            with pytest.raises(TooFewPaths, match=f"at least 2 paths, got {n_paths}"):
                call()

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_prices_and_nested_checks_reject_fewer_than_two_paths(
        self, uplifted, monkeypatch, n_paths
    ):
        spec, plan, emm, fict, fict_emm = uplifted
        _forbid_simulation(monkeypatch)
        call = Payoff.call(0, 100.0)
        idle = Strategy(holdings=(0.0, 0.0, 0.0))
        calls = [
            lambda: price_mc(spec, emm, call, n_paths),
            lambda: zweighted_price_mc(spec, emm, call, n_paths),
            lambda: hedging_error(spec, emm, idle, call, n_paths),
            lambda: cost_of_construction_check(
                fict, emm, fict_emm, call, n_outer=n_paths, n_inner=10
            ),
            lambda: cost_of_construction_check(
                fict, emm, fict_emm, call, n_outer=10, n_inner=10,
                n_direct=n_paths,
            ),
            lambda: projection_consistency_check(
                fict, n_outer=10, n_inner=n_paths
            ),
        ]
        for call_with_too_few in calls:
            with pytest.raises(TooFewPaths, match=f"at least 2 paths, got {n_paths}"):
                call_with_too_few()

    def test_nested_checks_reject_an_empty_count(self, uplifted, monkeypatch):
        # the inner count of cost of construction and the outer count of
        # the projection need one path, not a standard error's two
        spec, plan, emm, fict, fict_emm = uplifted
        _forbid_simulation(monkeypatch)
        call = Payoff.call(0, 100.0)
        with pytest.raises(TooFewPaths, match="at least 1 path, got 0"):
            cost_of_construction_check(
                fict, emm, fict_emm, call, n_outer=10, n_inner=0
            )
        with pytest.raises(TooFewPaths, match="at least 1 path, got 0"):
            projection_consistency_check(fict, n_outer=0, n_inner=10)

    def test_one_nested_path_is_enough(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        call = Payoff.call(0, 100.0)
        cost_of_construction_check(
            fict, emm, fict_emm, call, n_outer=10, n_inner=1, seed=3
        )
        projection_consistency_check(fict, n_outer=1, n_inner=10, seed=3)

    def test_two_paths_have_a_standard_error(self, uplifted):
        spec, _, emm, _, _ = uplifted
        report = martingale_check(spec, emm, 2, seed=5)
        assert all(line["std_error"] > 0.0 for line in report.details.values())


class TestMeasurability:
    def test_reduced_vs_full_information_claims(self, uplifted):
        spec, plan, emm, fict, _ = uplifted
        reduced_claim = Payoff.indicator_count(0, 1)
        full_claim = Payoff.terminal(0)  # stock 0 loads on the neglected driver
        assert reduced_claim.is_reduced_measurable(fict)
        assert not full_claim.is_reduced_measurable(fict)
        assert full_claim.referenced_drivers(spec) == {0, 1, 2}

    @pytest.mark.parametrize("cells, remainder, total_count", [
        (((-0.5, 0.0),), True, False),
        (((-0.5, 0.0), (0.0, 0.5)), False, True),
        (((-0.5, 0.0), (0.0, 0.5)), True, True),
    ], ids=["remainder_neglected", "covering", "covering_remainder_empty"])
    def test_continuous_market_knows_cell_counts_not_marks(
        self, uniform_mark_market, cells, remainder, total_count
    ):
        # the total count is the cells' counts summed only when they cover
        # the support; every price jumps by the marks themselves
        fict = reduce_market(
            uniform_mark_market, ContinuousPlan(cells=cells, neglect_remainder=remainder)
        )
        assert Payoff.indicator_count(0, 0).is_reduced_measurable(fict) == total_count
        both = Payoff.linear([(1.0, Payoff.indicator_count(0, 1)),
                              (2.0, Payoff.indicator_count(0, 2))])
        assert both.is_reduced_measurable(fict) == total_count
        for claim in (
            Payoff.terminal(0), Payoff.call(1, 80.0), Payoff.indicator_count(1, 0),
            Payoff.indicator_count(0, 0, asset=0),
            Payoff.linear([(1.0, Payoff.indicator_count(0, 0)), (1.0, Payoff.terminal(1))]),
        ):
            assert not claim.is_reduced_measurable(fict), claim


class TestPlanKind:
    """The nested checks need a complete-neglect reduction and refuse any
    other before anything is simulated; the restriction check takes both
    plan kinds."""

    @pytest.mark.parametrize("plan", [
        DiscretePlan(retain=(0,), batches=((1, 2),)),
        ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True),
    ], ids=["batch", "continuous"])
    def test_nested_checks_refuse_other_reductions(self, monkeypatch, plan):
        spec = (
            make_uniform_mark_market() if isinstance(plan, ContinuousPlan)
            else make_three_stock_market()
        )
        emm, fict, fict_emm = build_uplifted_emm(spec, plan)
        _forbid_simulation(monkeypatch)
        with pytest.raises(PlanMismatch, match="complete-neglect"):
            cost_of_construction_check(
                fict, emm, fict_emm, Payoff.terminal(0), n_outer=10, n_inner=10
            )
        with pytest.raises(PlanMismatch, match="complete-neglect"):
            projection_consistency_check(fict, n_outer=10, n_inner=10)


class TestParityAndMonotonicity:
    def test_put_call_parity_on_common_paths(self, uplifted):
        spec, _, emm, _, _ = uplifted
        sample = simulate_terminal(spec, [1.0], 5_000, 104, measure_emm=emm)
        k = 100.0
        call = Payoff.call(0, k).values(sample, spec)
        put = Payoff.put(0, k).values(sample, spec)
        fwd = Payoff.forward(0, k).values(sample, spec)
        assert np.max(np.abs(call - put - fwd)) < 1e-10

    def test_call_monotone_in_strike_pathwise(self, uplifted):
        spec, _, emm, _, _ = uplifted
        sample = simulate_terminal(spec, [1.0], 5_000, 105, measure_emm=emm)
        prev = None
        for k in [80.0, 90.0, 100.0, 110.0, 130.0]:
            vals = Payoff.call(0, k).values(sample, spec)
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
            prev = vals


class TestTwoRoute:
    def test_terminal_and_capped_call_agree(self, uplifted):
        spec, _, emm, _, _ = uplifted
        capped_call = Payoff.linear(
            [(1.0, Payoff.call(0, 100.0)), (-1.0, Payoff.call(0, 170.0))]
        )
        report = two_route_check(
            spec, emm,
            {"terminal": Payoff.terminal(0), "capped_call": capped_call},
            n_paths=N_MC, seed=106,
        )
        assert report.passed, [ln.to_json() for ln in report.lines]

    def test_one_sample_per_route_prices_the_whole_book(self, uplifted, monkeypatch):
        spec, _, emm, _, _ = uplifted
        book = {
            "call": Payoff.call(0, 100.0),
            "put": Payoff.put(1, 50.0),
            "forward": Payoff.forward(2, 25.0),
            "quiet": Payoff.indicator_count(0, 0),
        }
        n, seed = 500, 109
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return simulate_terminal(*args, **kwargs)

        monkeypatch.setattr(upliftemm.pricing, "simulate_terminal", counting)
        report = two_route_check(spec, emm, book, n, seed)
        assert [kw.get("stream_offset", 0) for kw in calls] == [0, n]
        monkeypatch.undo()
        weighted = simulate_terminal(
            spec, [1.0], n, seed, density_emm=emm, stream_offset=n
        )
        for line, payoff in zip(report.lines, book.values()):
            assert line.a == price_mc(spec, emm, payoff, n, seed)
            values = weighted.z_terminal() * payoff.values(weighted, spec)
            assert line.b.estimate == np.sum(values) / n
            assert line.b.measure == "P,Z-weighted"

    def test_density_mass(self, uplifted):
        spec, _, emm, _, _ = uplifted
        report = density_mass_check(spec, emm, N_MC, seed=107)
        assert report.passed, report.details


class TestRestriction:
    def test_reduced_events_agree(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        events = (
            MarketEvent("omega"),
            MarketEvent("no_first_driver_events", count_eq=((0, 0),)),
            MarketEvent("one_and_zero", count_eq=((0, 1), (1, 0))),
            MarketEvent("brownian_up", brownian_gt=((0, 0.0),)),
        )
        report = restriction_check(
            fict, emm, fict_emm, events, N_MC, seed=108
        )
        assert report.passed, [ln.to_json() for ln in report.lines]
        omega = report.lines[0]
        assert abs(omega.a.estimate - 1.0) < 3 * omega.a.std_error
        assert omega.b.estimate == 1.0

    def test_exact_leg_of_simple_events(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        assert _event_probability(MarketEvent("omega"), fict, fict_emm) == 1.0
        # kept driver 0 has Q~* intensity 1.5, solved to rounding
        lam = fict_emm.intensities[0].constant_value
        assert lam == pytest.approx(1.5, rel=1e-15)
        quiet = MarketEvent("first_retained_quiet", count_eq=((0, 0),))
        assert _event_probability(quiet, fict, fict_emm) == math.exp(-lam)
        report = restriction_check(fict, emm, fict_emm, (quiet,), 100, seed=1)
        assert report.lines[0].b.estimate == math.exp(-lam)
        assert report.lines[0].b.std_error == 0.0
        assert report.lines[0].combined_se == report.lines[0].a.std_error
        # two different counts of one driver never hold together
        both = MarketEvent("both", count_eq=((0, 1), (0, 2)))
        assert _event_probability(both, fict, fict_emm) == 0.0
        once = MarketEvent("once", count_eq=((0, 1), (0, 1)))
        assert _event_probability(once, fict, fict_emm) == pytest.approx(
            lam * math.exp(-lam), rel=1e-14
        )
        # of two levels on one Brownian the higher binds
        levels = MarketEvent("levels", brownian_gt=((0, 0.1), (0, -0.3)))
        higher = MarketEvent("higher", brownian_gt=((0, 0.1),))
        p = _event_probability(higher, fict, fict_emm)
        assert _event_probability(levels, fict, fict_emm) == p
        theta = fict_emm.theta[0].constant_value
        assert p == pytest.approx(norm.sf(0.1 + theta), rel=1e-14)

    @pytest.mark.parametrize("workload", ["const-neglect", "tv-batch", "cont-cells"])
    def test_exact_leg_matches_the_simulated_fictitious_market(
        self, monkeypatch, workload
    ):
        # the route the exact leg replaced: the fictitious market simulated
        # under P with its density, on streams [n, 2n)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import generate

        gen = generate(workload, 2001)
        spec = market_from_json(gen["market"])
        _, fict, fict_emm = build_uplifted_emm(spec, plan_from_json(gen["plan"]))
        n, seed = 10_000, 11
        ctx = SimulationContext(fict.spec, [spec.horizon], density_emm=fict_emm)
        reduced, _ = _terminal_sample(ctx, n, seed, n, stocks=False)
        events = restriction_events(fict)
        assert len(events) == 3
        for ev in events:
            on_reduced = MarketEvent(
                ev.label,
                count_eq=tuple((fict.reduced_index_of(m), k) for m, k in ev.count_eq),
                brownian_gt=tuple((fict.reduced_brownian_of(d), c) for d, c in ev.brownian_gt),
            )
            values = reduced.z_terminal() * on_reduced.indicator(
                reduced.counts, reduced.w_terminal
            )
            se = values.std(ddof=1) / np.sqrt(n)
            exact = _event_probability(ev, fict, fict_emm)
            assert abs(values.mean() - exact) < 4 * se, (ev.label, values.mean(), exact)

    @pytest.mark.parametrize("paths", [1_000, 10_000])
    def test_a_line_with_no_hit_is_judged_by_its_chance_under_p(self, paths):
        # driver 0 fires 20 times a year, so no path is quiet: P(A) = e^-20
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 50.0], alpha=[0.1, 0.15], rate=0.02,
            sigma=[[0.2], [0.3]],
            jumps=DiscreteJumpSpec(intensities=[20.0, 1.0], loadings=[[0.01, -0.2], [0.02, 0.1]]),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,))
        report = verify_suite(spec, plan, paths=paths, seed=1, grid_points=256)
        assert report["aggregate"] == "PASS", report
        lines = {ln["label"]: ln for ln in report["checks"]["restriction"]["lines"]}
        quiet = lines["first_retained_quiet"]
        assert quiet["a"]["estimate"] == 0.0 and quiet["a"]["std_error"] == 0.0
        assert quiet["p_no_hit"] == pytest.approx((1.0 - math.exp(-20.0)) ** paths, rel=1e-12)
        assert quiet["z"] == pytest.approx(norm.isf(quiet["p_no_hit"] / 2.0), rel=1e-9)
        assert quiet["passed"]
        assert "p_no_hit" not in lines["omega"]

    def test_a_likely_event_with_no_hit_fails(self, monkeypatch, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        indicator = MarketEvent.indicator

        def no_quiet_path(ev, counts, w_terminal):
            hits = indicator(ev, counts, w_terminal)
            return 0.0 * hits if ev.label == "first_retained_quiet" else hits

        monkeypatch.setattr(MarketEvent, "indicator", no_quiet_path)
        events = restriction_events(fict)
        report = restriction_check(fict, emm, fict_emm, events, 1_500, seed=3)
        assert not report.passed
        omega, quiet, up = report.lines
        assert omega.passed and up.passed and not quiet.passed
        # driver 0 is quiet with probability e^-2 under P
        assert quiet.p_no_hit == pytest.approx((1.0 - math.exp(-2.0)) ** 1_500, rel=1e-12)
        assert quiet.z > 4.0

    def test_continuous_market_counts_marks_in_retained_cell(self, uniform_mark_market):
        spec = uniform_mark_market
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        seed = 2001
        report = verify_suite(
            spec, plan, paths=N_MC, seed=seed, grid_points=256, checks=["restriction"]
        )
        lines = {ln["label"]: ln for ln in report["checks"]["restriction"]["lines"]}
        assert lines["first_retained_quiet"]["passed"], lines
        # the full market's side counts the marks inside cell 0, not every event
        emm, _, _ = build_uplifted_emm(spec, plan)
        ctx = SimulationContext(spec, [1.0], density_emm=emm)
        full, in_cells = _terminal_sample(
            ctx, N_MC, seed, 0,
            lambda t, y, order: (cell_index(plan.cells, y) == 0)[:, None].astype(float),
        )
        quiet = full.z_terminal() * (in_cells[:, 0] == 0)
        assert lines["first_retained_quiet"]["a"]["estimate"] == np.sum(quiet) / N_MC
        assert np.all(in_cells[:, 0] <= full.counts[:, 0])
        assert np.any(in_cells[:, 0] < full.counts[:, 0])
        for k, (_, _, _, y) in enumerate(block_rows(ctx, seed, 300)):
            assert in_cells[k, 0] == np.sum((y >= -0.5) & (y <= 0.0)), k

    @pytest.mark.parametrize(
        "market, plan, simulations",
        [
            ("three_stock_market", "neglect_plan", 2),
            ("three_stock_market", "batch_plan", 2),
            ("uniform_mark_market", "cell_plan", 2),
        ],
    )
    def test_verify_takes_density_mass_from_the_restriction_sample(
        self, request, monkeypatch, market, plan, simulations
    ):
        spec = request.getfixturevalue(market)
        plan = (
            ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
            if plan == "cell_plan" else request.getfixturevalue(plan)
        )
        n, seed = 400, 122
        calls = []
        blocks = upliftemm.stochastic._blocks

        def counting(*args):
            calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(upliftemm.stochastic, "_blocks", counting)
        report = verify_suite(spec, plan, paths=n, seed=seed, grid_points=256)
        # the restriction's full market and the martingale check: the
        # restriction's reduced leg is exact, the projection draws only
        # inner counters, and the density mass is the restriction's omega line
        assert len(calls) == simulations
        monkeypatch.undo()
        alone = verify_suite(
            spec, plan, paths=n, seed=seed, grid_points=256, checks=["density_mass"]
        )
        mass = report["checks"]["density_mass"]
        assert alone["checks"]["density_mass"] == mass
        omega = report["checks"]["restriction"]["lines"][0]
        assert omega["label"] == "omega"
        assert mass["details"]["estimate"] == omega["a"]["estimate"]
        assert mass["details"]["std_error"] == omega["a"]["std_error"]

    @pytest.mark.parametrize(
        "event, payoff, reason",
        [
            (MarketEvent("kept", count_eq=((0, 1),), brownian_gt=((0, 0.0),)),
             Payoff.terminal(0), None),
            (MarketEvent("neglected", count_eq=((2, 0),)),
             Payoff.indicator_count(2, 0), "a neglected driver"),
            (MarketEvent("batched", count_eq=((3, 0),)),
             Payoff.indicator_count(3, 0),
             "a batched driver; individual counts are not reduced-information"),
            (MarketEvent("dropped", brownian_gt=((1, 0.0),)),
             Payoff.terminal(1), "a dropped Brownian driver"),
            (MarketEvent("all", count_eq=((1, 0), (2, 0)), brownian_gt=((1, 0.0),)),
             Payoff.linear([(1.0, Payoff.indicator_count(1, 0)),
                            (1.0, Payoff.indicator_count(2, 0)),
                            (1.0, Payoff.terminal(1))]),
             "a neglected driver"),
        ],
        ids=["kept", "neglected", "batched", "dropped_brownian", "first_reason"],
    )
    def test_rejects_exactly_the_events_a_claim_cannot_measure(
        self, monkeypatch, event, payoff, reason
    ):
        # stock 0 loads on driver 0 and Brownian 0, stock 1 only on the
        # dropped Brownian 1; drivers 1 and 3 are batched, 2 neglected
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 50.0], alpha=[0.07, 0.04], rate=0.02,
            sigma=[[0.2, 0.0], [0.0, 0.3]],
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 1.0, 3.0, 0.5],
                loadings=[[0.1, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            ),
        )
        plan = DiscretePlan(retain=(0,), batches=((1, 3),), neglect=(2,), keep_brownians=(0,))
        fict = reduce_market(spec, plan)
        assert event.referenced_drivers() == payoff.referenced_drivers(spec)
        assert event.referenced_brownians() == payoff.referenced_brownians(spec)

        class Simulated(Exception):
            pass

        def simulated(*args, **kwargs):
            raise Simulated

        monkeypatch.setattr(upliftemm.pricing, "_terminal_sample", simulated)
        assert payoff.is_reduced_measurable(fict) == (reason is None)
        with pytest.raises(Simulated if reason is None else NonReducedEvent) as err:
            restriction_check(fict, None, None, (event,), 100, seed=1)
        if reason is not None:
            assert str(err.value) == f"event {event.label!r} references {reason}"

    def test_neglected_event_rejected(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        with pytest.raises(NonReducedEvent):
            restriction_check(
                fict, emm, fict_emm,
                (MarketEvent("neglected", count_eq=((2, 0),)),),
                100, seed=1,
            )

    def test_batched_event_rejected(self, three_stock_market, batch_plan):
        emm, fict, fict_emm = build_uplifted_emm(three_stock_market, batch_plan)
        with pytest.raises(NonReducedEvent):
            restriction_check(
                fict, emm, fict_emm,
                (MarketEvent("member", count_eq=((1, 0),)),),
                100, seed=1,
            )


def _varying_dropped_sigma_market():
    """Two stocks whose second Brownian is dropped; stock 1 loads it with a
    sigma rising linearly from 0.1 to 0.9."""
    spec = MarketSpec(
        horizon=1.0, s0=[100.0, 80.0], alpha=[0.07, 0.04], rate=0.02,
        sigma=[[0.2, 0.0], [0.1, TimeFunction.samples([0.0, 1.0], [0.1, 0.9])]],
        jumps=DiscreteJumpSpec(
            intensities=[2.0, 1.0], loadings=[[0.1, 0.05], [-0.1, 0.2]]
        ),
    )
    return spec, DiscretePlan(retain=(0,), neglect=(1,), keep_brownians=(0,))


class TestCostOfConstruction:
    def test_already_reduced_claim(self, uplifted):
        # the claim references only retained drivers: inner noise is zero
        spec, plan, emm, fict, fict_emm = uplifted
        payoff = Payoff.indicator_count(0, 0, discounted=False)
        report = cost_of_construction_check(
            fict, emm, fict_emm, payoff,
            n_outer=4_000, n_inner=8, n_direct=N_MC, seed=109,
        )
        assert report.passed

    def test_full_information_claim(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        report = cost_of_construction_check(
            fict, emm, fict_emm, Payoff.terminal(0),
            n_outer=2_000, n_inner=200, n_direct=N_MC, seed=110,
        )
        assert report.passed, report.lines[0].to_json()

    def test_neglected_tail_probability(self, uplifted):
        # the neglected driver keeps its physical rate: P(N2(T) = 0) = e^{-3}
        spec, plan, emm, fict, fict_emm = uplifted
        payoff = Payoff.indicator_count(2, 0, discounted=False)
        rep = price_mc(spec, emm, payoff, N_MC, seed=111)
        assert abs(rep.estimate - np.exp(-3.0)) < 3 * rep.std_error

    def test_indicator_times_terminal_price(self, uplifted):
        # driver 2 is independent of the remaining drivers under the uplift,
        # and the discounted price factors through its compensated term:
        # E[1{N2(T)=0} S~0(T)] = s0 exp(-y02 lam2 T) exp(-lam2 T)
        spec, plan, emm, fict, fict_emm = uplifted
        payoff = Payoff.indicator_count(2, 0, asset=0, discounted=True)
        rep = price_mc(spec, emm, payoff, N_MC, seed=121)
        y02, lam2 = 0.2, 3.0
        target = spec.s0[0] * np.exp(-y02 * lam2) * np.exp(-lam2)
        assert abs(rep.estimate - target) < 4 * rep.std_error

    def test_varying_dropped_sigma(self):
        # stock 1's dropped column rises from 0.1 to 0.9: its factor's
        # Gaussian is exact per segment, where sigma(left) sqrt(dt) loads
        # failed a correct uplift at z = 76 (call) and 80 (put)
        spec, plan = _varying_dropped_sigma_market()
        emm, fict, fict_emm = build_uplifted_emm(spec, plan)
        for payoff in (Payoff.call(1, 100.0), Payoff.put(1, 80.0)):
            report = cost_of_construction_check(
                fict, emm, fict_emm, payoff,
                n_outer=4_000, n_inner=200, n_direct=100_000, seed=125,
            )
            assert report.passed, report.lines[0].to_json()

    def test_dropped_drag_is_half_the_integrated_variance(self):
        spec, plan = _varying_dropped_sigma_market()
        fict = reduce_market(spec, plan)
        for t in (0.5, 1.0):
            seg = _neglected_factor_model(fict, spec.jumps.intensities, t)[-1]
            want = [0.5 * integrate_product(row[1], row[1], 0.0, t) for row in spec.sigma]
            assert np.abs(seg.drag[:, 0].sum(axis=-1) - want).max() < 1e-12

    def test_budget_guard(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        with pytest.raises(BudgetExceeded):
            cost_of_construction_check(
                fict, emm, fict_emm, Payoff.terminal(0),
                n_outer=10**6, n_inner=10**6, seed=1,
            )

    def test_varying_neglected_loading_rejected_before_simulating(self, monkeypatch):
        # the closed-form factor needs a constant log(1 + y): both nested
        # checks refuse a varying neglected loading before drawing a path
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.07], rate=0.02, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 3.0],
                loadings=[[0.1, TimeFunction.piecewise([0.0, 0.5, 1.0], [0.1, 0.2])]],
            ),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,))
        _forbid_simulation(monkeypatch)
        emm = Emm(theta=(0.1,), intensities=(2.0, 3.0))
        with pytest.raises(PlanMismatch, match="constant neglected loadings"):
            cost_of_construction_check(
                reduce_market(spec, plan), emm, emm, Payoff.terminal(0),
                n_outer=10, n_inner=10,
            )
        with pytest.raises(PlanMismatch, match="constant neglected loadings"):
            projection_consistency_check(reduce_market(spec, plan), n_outer=10, n_inner=10)


class TestProjectionCheck:
    def test_conditional_mc_matches(self, uplifted):
        spec, plan, *_ = uplifted
        report = projection_consistency_check(
            reduce_market(spec, plan), n_outer=60, n_inner=4_000, t=0.5, seed=112
        )
        assert report.passed, report.max_z

    def test_negative_control_fails(self, uplifted):
        # omitting the neglected compensator shifts every factor by e^{y lam t}
        spec, plan, *_ = uplifted
        report = projection_consistency_check(
            reduce_market(spec, plan), n_outer=30, n_inner=4_000, t=0.5, seed=113
        )
        lam3, t = 3.0, 0.5
        y3 = np.array([0.2, -0.15, 0.25])
        wrong_mean = report.inner_mean_factors * np.exp(-y3 * lam3 * t)
        wrong_z = np.abs(wrong_mean - 1.0) / report.inner_se_factors
        assert np.max(wrong_z) > 4.0

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_time_outside_the_horizon_rejected(self, uplifted, t):
        spec, plan, _, fict, _ = uplifted
        assert spec.horizon == 1.0
        with pytest.raises(ValueError, match=r"t must lie in \[0, horizon\]"):
            projection_consistency_check(fict, n_outer=4, n_inner=4, t=t)

    def test_batch_plan_rejected(self, three_stock_market, batch_plan):
        with pytest.raises(PlanMismatch):
            projection_consistency_check(
                reduce_market(three_stock_market, batch_plan), n_outer=4, n_inner=4
            )

    def test_stock_without_neglected_exposure(self):
        # stock 1 loads on no neglected randomness: its factor is exactly 1,
        # with standard error 0 and z 0
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 50.0], alpha=[0.07, 0.04], rate=0.02,
            sigma=[[0.2], [0.1]],
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 3.0], loadings=[[0.1, 0.2], [-0.1, 0.0]]
            ),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,))
        report = projection_consistency_check(
            reduce_market(spec, plan), n_outer=20, n_inner=1_000, seed=125
        )
        assert np.all(report.inner_mean_factors[:, 1] == 1.0)
        assert np.all(report.z_scores[:, 1] == 0.0)
        assert report.passed, report.max_z

    def test_outer_path_does_not_depend_on_chunking(self, uplifted, monkeypatch):
        # outer path p draws from its own inner counters and is reduced
        # along its own rows, so neither n_outer nor the chunk size moves it
        spec, plan, emm, fict, fict_emm = uplifted
        n_inner = 1_000

        def run(n_outer):
            rep = projection_consistency_check(
                fict, n_outer=n_outer, n_inner=n_inner, seed=124
            )
            return rep.inner_mean_factors, rep.inner_se_factors

        def nested():
            return cost_of_construction_check(
                fict, emm, fict_emm, Payoff.call(0, 100.0),
                n_outer=20, n_inner=n_inner, n_direct=100, seed=124,
            ).lines[0].a

        mean, se = run(50)
        cost = nested()
        few_mean, few_se = run(5)
        assert np.array_equal(few_mean, mean[:5])
        assert np.array_equal(few_se, se[:5])
        # one outer path a chunk (the per-path loop), then three a chunk
        # with a shorter last chunk
        for per_chunk in (1, 3):
            budget = per_chunk * spec.n * n_inner
            monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", budget)
            chunked_mean, chunked_se = run(50)
            assert np.array_equal(chunked_mean, mean)
            assert np.array_equal(chunked_se, se)
            assert nested() == cost

    def test_dropped_brownian(self):
        # stock 0's dropped column steps from 0.3 to 0.15 at t = 0.2, so
        # its normals run over two knot segments
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 50.0], alpha=[0.07, 0.04], rate=0.02,
            sigma=[[0.2, TimeFunction.piecewise([0.0, 0.2, 1.0], [0.3, 0.15])],
                   [0.1, 0.25]],
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 3.0], loadings=[[0.1, 0.2], [-0.1, -0.15]]
            ),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,), keep_brownians=(0,))
        report = projection_consistency_check(
            reduce_market(spec, plan), n_outer=40, n_inner=4_000, t=0.5, seed=123
        )
        assert report.passed, report.max_z
        # negative control: omitting the -1/2 int sigma^2 drag must fail
        drag = 0.5 * np.array([0.3**2 * 0.2 + 0.15**2 * 0.3, 0.25**2 * 0.5])
        wrong_mean = report.inner_mean_factors * np.exp(drag)
        wrong_z = np.abs(wrong_mean - 1.0) / report.inner_se_factors
        assert np.max(wrong_z) > 4.0

    def test_dropped_brownian_chunks_within_the_budget(self, monkeypatch):
        # a dropped Brownian's normals and running Gaussian sums count
        # toward a chunk's cells, so a 64-piece dropped sigma peaks near
        # the same market with every Brownian kept; its reports are the
        # same for every chunk size
        grid = np.linspace(0.0, 1.0, 65)
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 80.0], alpha=[0.07, 0.04], rate=0.02,
            sigma=[[0.2, TimeFunction.piecewise(grid, 0.2 + 0.1 * np.sin(8 * grid[:-1]))],
                   [0.1, 0.15]],
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 1.0], loadings=[[0.1, 0.05], [-0.1, 0.2]]
            ),
        )

        def run(keep):
            plan = DiscretePlan(retain=(0,), neglect=(1,), keep_brownians=keep)
            fict = reduce_market(spec, plan)
            projection_consistency_check(fict, 2, 10, seed=5)  # warm
            tracemalloc.start()
            try:
                rep = projection_consistency_check(fict, 50, 1_000, seed=5)
                return rep, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, kept_peak = run((0, 1))
        dropped, dropped_peak = run((0,))
        assert dropped.passed, dropped.max_z
        assert dropped_peak <= 2 * kept_peak, (dropped_peak, kept_peak)
        plan = DiscretePlan(retain=(0,), neglect=(1,), keep_brownians=(0,))
        for budget in (1 << 10, 1 << 20):
            monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", budget)
            rep = projection_consistency_check(reduce_market(spec, plan), 50, 1_000, seed=5)
            assert np.array_equal(rep.inner_mean_factors, dropped.inner_mean_factors)
            assert np.array_equal(rep.inner_se_factors, dropped.inner_se_factors)


    def test_dropped_gaussians_sum_to_the_end_in_grid_order(self):
        # the nested checks' sums to t, one segment at a time, are the last
        # column of the whole grid's running sums bit for bit
        knots = np.linspace(0.0, 0.6, 9)
        const = TimeFunction.constant
        rows = [[TimeFunction.piecewise(knots, 0.2 + 0.1 * np.sin(knots[:-1])), const(0.1)],
                [const(0.3), TimeFunction.samples([0.0, 0.6], [0.15, 0.35])]]
        seg = upliftemm.blocks._segment_gaussians(rows, knots, [0.6])
        assert seg.varies.any()
        z = np.random.default_rng(4).standard_normal((700, seg.n_normals))
        dw, res = upliftemm.blocks._segment_normals(seg, z)
        whole = upliftemm.blocks._gaussian_sums(seg, dw, res)[..., -1]
        assert upliftemm.blocks._gaussian_ends(seg, dw, res).tobytes() == whole.tobytes()


class TestHedging:
    def test_buy_and_hold_replicates_exactly(self, uplifted):
        spec, _, emm, _, _ = uplifted
        strat = Strategy(holdings=(1.0, 0.0, 0.0), v0=spec.s0[0])
        report = hedging_error(
            spec, emm, strat, Payoff.terminal(0), 2_000, seed=114
        )
        assert report.error.estimate == 0.0
        assert report.error.std_error == 0.0

    def test_zero_strategy_with_fair_premium(self, uplifted):
        spec, _, emm, _, _ = uplifted
        payoff = Payoff.call(0, 100.0)
        fair = price_mc(spec, emm, payoff, N_MC, seed=115).estimate
        strat = Strategy(holdings=(0.0, 0.0, 0.0), v0=fair)
        report = hedging_error(spec, emm, strat, payoff, N_MC, seed=116)
        assert abs(report.error.estimate) < 4 * report.error.std_error

    def test_compensated_jump_leg_zero_mean(self, uplifted):
        spec, _, emm, _, _ = uplifted
        strat = Strategy(
            holdings=(0.0, 0.0, 0.0),
            jump_integrand=(0.5, 0.0, 0.0),
            v0=0.0,
        )
        trivial = Payoff.linear([], discounted=False)
        report = hedging_error(spec, emm, strat, trivial, N_MC, seed=117)
        assert report.gain_is_unpriced
        assert abs(report.gain.estimate) < 4 * report.gain.std_error

    def test_rebalanced_holdings_telescope(self, uplifted):
        # piecewise-constant holdings still replicate a traded asset when
        # they never actually change
        spec, _, emm, _, _ = uplifted
        strat = Strategy(
            holdings=(
                TimeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1.0]),
                0.0, 0.0,
            ),
            v0=spec.s0[0],
        )
        report = hedging_error(spec, emm, strat, Payoff.terminal(0), 500, seed=118)
        assert abs(report.error.estimate) < 1e-12

    @pytest.mark.parametrize(
        "integrand",
        [
            (0.5, -0.25, 0.0),
            (
                TimeFunction.piecewise([0.0, 0.4, 1.0], [0.3, -0.2]),
                0.25,
                TimeFunction.piecewise([0.0, 0.7, 1.0], [-0.1, 0.6]),
            ),
        ],
        ids=["constant", "piecewise"],
    )
    def test_matches_per_path_reference(self, uplifted, monkeypatch, integrand):
        spec, _, emm, _, _ = uplifted
        knots = np.linspace(0.0, 1.0, 9)
        strat = Strategy(
            holdings=(
                TimeFunction.piecewise(knots, np.linspace(0.6, 0.4, 8)),
                TimeFunction.piecewise(knots, np.linspace(0.1, 0.3, 8)),
                0.0,
            ),
            jump_integrand=integrand,
            v0=10.0,
        )
        payoff = Payoff.call(0, 100.0)
        n, seed = 600, 123
        report = hedging_error(spec, emm, strat, payoff, n, seed)
        assert report == _hedging_reference(spec, emm, strat, payoff, n, seed)
        monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", 100)
        assert hedging_error(spec, emm, strat, payoff, n, seed) == report

    def test_continuous_market_counts_events(self, uniform_mark_market):
        # the payoff's count is every event of the continuous market
        spec = uniform_mark_market
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, _, _ = build_uplifted_emm(spec, plan)
        payoff = Payoff.indicator_count(0, 0)
        strat = Strategy(holdings=(0.0, 0.0), v0=0.0)
        report = hedging_error(spec, emm, strat, payoff, 2_000, seed=5)
        priced = price_mc(spec, emm, payoff, 2_000, seed=5)
        assert report.error.estimate == priced.estimate
        assert report.error.std_error == priced.std_error

    def test_interpolated_holdings_rejected(self):
        with pytest.raises(ValueError):
            Strategy(holdings=(TimeFunction.samples([0, 1], [0.0, 1.0]),))


def _hedging_reference(spec, emm, strategy, payoff, n_paths, seed):
    """hedging_error one path at a time: the jump leg adds the integrand
    over the path's events in order, minus its compensator."""
    T = spec.horizon
    times = strategy.rebalance_times(T)
    disc = np.array([spec.discount_factor(float(u)) for u in times])
    hold = np.vstack([fn.value(times[:-1]) for fn in strategy.holdings])
    compensator = sum(
        integrate_product(h, lam, 0.0, T)
        for h, lam in zip(strategy.jump_integrand, emm.intensities)
    )
    errors, gains = [], []
    ctx = SimulationContext(spec, times, measure_emm=emm)
    for block, p, event_times, marks in block_rows(ctx, seed, n_paths):
        stocks = block.stocks[p]
        increments = np.diff(stocks * disc[None, :], axis=1)
        paid = 0.0
        for u, m in zip(event_times, marks):
            paid += strategy.jump_integrand[m].value(float(u))
        gain = float(np.sum(hold * increments)) + (paid - compensator)
        counts = np.bincount(marks, minlength=spec.n_jump_drivers)[None, :]
        c = payoff.undiscounted_values(stocks[:, -1][None, :], counts)
        c = c[0] * disc[-1] if payoff.discounted else c[0]
        errors.append((c - strategy.v0) - gain)
        gains.append(gain)
    gain = upliftemm.pricing._mc_report(np.array(gains), seed, "Q*")
    return upliftemm.pricing.HedgingReport(
        error=upliftemm.pricing._mc_report(np.array(errors), seed, "Q*"),
        gain=gain,
        gain_is_unpriced=bool(upliftemm.pricing._z(gain.estimate, 0.0, gain.std_error)
                              < upliftemm.pricing.Z_LIMIT),
    )


class TestMartingaleSuite:
    def test_complete_neglect_emm(self, uplifted):
        spec, _, emm, _, _ = uplifted
        assert martingale_check(spec, emm, N_MC, seed=119).passed

    def test_batch_emm(self, three_stock_market, batch_plan):
        emm, _, _ = build_uplifted_emm(three_stock_market, batch_plan)
        assert martingale_check(three_stock_market, emm, N_MC, seed=120).passed

    def test_riskless_stock_has_zero_standard_error(self):
        spec = MarketSpec(
            horizon=1, s0=[10], alpha=[0.05], rate=0.05, sigma=[[0.0]], jumps=None
        )
        report = martingale_check(spec, Emm(theta=(0.0,)), 100, seed=1)
        line = report.details["stock_0"]
        assert line["std_error"] == 0.0 and line["z"] == 0.0
        assert report.passed

    def test_a_deterministic_miss_fails(self):
        # with no event on any path Z(T) is the same 0.998 on every path:
        # standard error 0 but not mass 1, so z is infinite
        spec = MarketSpec(horizon=1, s0=(1,), alpha=(0.05,), rate=0, sigma=((),),
                          jumps=DiscreteJumpSpec((1e-9,), ((0.5,),)))
        report = density_mass_check(spec, Emm(theta=(), intensities=(2e-3,)), 100, seed=1)
        assert report.details["std_error"] == 0.0
        assert report.details["z"] == np.inf and not report.passed

    def test_every_verdict_reads_one_z_rule(self):
        z = upliftemm.pricing._z
        assert z(1.0, 1.0, 0.0) == 0.0 and z(10.0 + 2e-15, 10.0, 0.0) == 0.0
        assert z(1.0, 1.5, 0.0) == np.inf and z(1.0, 1.5, 0.25) == 2.0
        rep = upliftemm.pricing._mc_report(np.ones(4), 1, "P")
        missed = upliftemm.pricing.ComparisonLine(
            "x", rep, upliftemm.pricing.McReport(2.0, 0.0, 4, 1, "P"))
        assert missed.z == np.inf and not missed.passed
