import numpy as np
import pytest
from scipy.stats import norm, poisson

import upliftemm.pricing
from upliftemm import (
    ContinuousPlan,
    DiscreteJumpSpec,
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
    restriction_check,
    simulate_terminal,
    two_route_check,
)
from upliftemm.cli import verify_suite
from upliftemm.errors import BudgetExceeded, NonReducedEvent, PlanMismatch
from upliftemm.stochastic import SimulationContext, _terminal_sample, iterate_bundles

N_MC = 20_000


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


class TestMeasurability:
    def test_reduced_vs_full_information_claims(self, uplifted):
        spec, plan, emm, fict, _ = uplifted
        reduced_claim = Payoff.indicator_count(0, 1)
        full_claim = Payoff.terminal(0)  # stock 0 loads on the neglected driver
        assert reduced_claim.is_reduced_measurable(spec, fict)
        assert not full_claim.is_reduced_measurable(spec, fict)
        assert full_claim.referenced_drivers(spec) == {0, 1, 2}


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
            spec, plan, emm, fict_emm, events, N_MC, seed=108, fict=fict
        )
        assert report.passed, [ln.to_json() for ln in report.lines]
        omega = report.lines[0]
        assert abs(omega.a.estimate - 1.0) < 3 * omega.a.std_error
        assert abs(omega.b.estimate - 1.0) < 3 * omega.b.std_error

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
        full, in_cells = _terminal_sample(ctx, N_MC, seed, 0, plan.cells)
        quiet = full.z_terminal() * (in_cells[:, 0] == 0)
        assert lines["first_retained_quiet"]["a"]["estimate"] == np.sum(quiet) / N_MC
        assert np.all(in_cells[:, 0] <= full.counts[:, 0])
        assert np.any(in_cells[:, 0] < full.counts[:, 0])
        bundles = iterate_bundles(spec, [1.0], 300, seed, density_emm=emm)
        for k, bundle in enumerate(bundles):
            y = bundle.event_marks
            assert in_cells[k, 0] == np.sum((y >= -0.5) & (y <= 0.0)), k

    def test_neglected_event_rejected(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        with pytest.raises(NonReducedEvent):
            restriction_check(
                spec, plan, emm, fict_emm,
                (MarketEvent("neglected", count_eq=((2, 0),)),),
                100, seed=1, fict=fict,
            )

    def test_batched_event_rejected(self, three_stock_market, batch_plan):
        emm, fict, fict_emm = build_uplifted_emm(three_stock_market, batch_plan)
        with pytest.raises(NonReducedEvent):
            restriction_check(
                three_stock_market, batch_plan, emm, fict_emm,
                (MarketEvent("member", count_eq=((1, 0),)),),
                100, seed=1, fict=fict,
            )


class TestCostOfConstruction:
    def test_already_reduced_claim(self, uplifted):
        # the claim references only retained drivers: inner noise is zero
        spec, plan, emm, fict, fict_emm = uplifted
        payoff = Payoff.indicator_count(0, 0, discounted=False)
        report = cost_of_construction_check(
            spec, plan, emm, fict_emm, payoff,
            n_outer=4_000, n_inner=8, n_direct=N_MC, seed=109, fict=fict,
        )
        assert report.passed

    def test_full_information_claim(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        report = cost_of_construction_check(
            spec, plan, emm, fict_emm, Payoff.terminal(0),
            n_outer=2_000, n_inner=200, n_direct=N_MC, seed=110, fict=fict,
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

    def test_budget_guard(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        with pytest.raises(BudgetExceeded):
            cost_of_construction_check(
                spec, plan, emm, fict_emm, Payoff.terminal(0),
                n_outer=10**6, n_inner=10**6, seed=1, fict=fict,
            )


class TestProjectionCheck:
    def test_conditional_mc_matches(self, uplifted):
        spec, plan, *_ = uplifted
        report = projection_consistency_check(
            spec, plan, n_outer=60, n_inner=4_000, t=0.5, seed=112
        )
        assert report.passed, report.max_z

    def test_negative_control_fails(self, uplifted):
        # omitting the neglected compensator shifts every factor by e^{y lam t}
        spec, plan, *_ = uplifted
        report = projection_consistency_check(
            spec, plan, n_outer=30, n_inner=4_000, t=0.5, seed=113
        )
        lam3, t = 3.0, 0.5
        y3 = np.array([0.2, -0.15, 0.25])
        wrong_mean = report.inner_mean_factors * np.exp(-y3 * lam3 * t)
        wrong_z = np.abs(wrong_mean - 1.0) / report.inner_se_factors
        assert np.max(wrong_z) > 4.0

    def test_batch_plan_rejected(self, three_stock_market, batch_plan):
        with pytest.raises(PlanMismatch):
            projection_consistency_check(
                three_stock_market, batch_plan, n_outer=4, n_inner=4
            )


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

    def test_interpolated_holdings_rejected(self):
        with pytest.raises(ValueError):
            Strategy(holdings=(TimeFunction.samples([0, 1], [0.0, 1.0]),))


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
