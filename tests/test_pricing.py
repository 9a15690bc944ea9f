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
    restriction_check,
    simulate_terminal,
    two_route_check,
    zweighted_price_mc,
)
from upliftemm.cli import verify_suite
from upliftemm.errors import (
    BudgetExceeded,
    NonReducedEvent,
    PlanMismatch,
    ShapeMismatch,
    TooFewPaths,
)
from upliftemm.stochastic import SimulationContext, _terminal_sample, iterate_bundles
from upliftemm.timefns import integrate_product
from upliftemm.uplift import cell_index

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
                spec, plan, emm, fict_emm, bad, n_outer=10, n_inner=10, fict=fict
            ),
            lambda: hedging_error(spec, emm, hold, bad, 1000),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch, match="driver 3.* 3 count column"):
                call()


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
                spec, plan, emm, fict_emm, (MarketEvent("omega"),), n_paths, fict=fict
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
                spec, plan, emm, fict_emm, call, n_outer=n_paths, n_inner=10, fict=fict
            ),
            lambda: cost_of_construction_check(
                spec, plan, emm, fict_emm, call, n_outer=10, n_inner=10,
                n_direct=n_paths, fict=fict,
            ),
            lambda: projection_consistency_check(
                spec, plan, n_outer=10, n_inner=n_paths, fict=fict
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
                spec, plan, emm, fict_emm, call, n_outer=10, n_inner=0, fict=fict
            )
        with pytest.raises(TooFewPaths, match="at least 1 path, got 0"):
            projection_consistency_check(spec, plan, n_outer=0, n_inner=10, fict=fict)

    def test_one_nested_path_is_enough(self, uplifted):
        spec, plan, emm, fict, fict_emm = uplifted
        call = Payoff.call(0, 100.0)
        cost_of_construction_check(
            spec, plan, emm, fict_emm, call, n_outer=10, n_inner=1, fict=fict, seed=3
        )
        projection_consistency_check(spec, plan, n_outer=1, n_inner=10, fict=fict, seed=3)

    def test_two_paths_have_a_standard_error(self, uplifted):
        spec, _, emm, _, _ = uplifted
        report = martingale_check(spec, emm, 2, seed=5)
        assert all(line["std_error"] > 0.0 for line in report.details.values())


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
        full, in_cells = _terminal_sample(
            ctx, N_MC, seed, 0,
            lambda t, y, order: (cell_index(plan.cells, y) == 0)[:, None].astype(float),
        )
        quiet = full.z_terminal() * (in_cells[:, 0] == 0)
        assert lines["first_retained_quiet"]["a"]["estimate"] == np.sum(quiet) / N_MC
        assert np.all(in_cells[:, 0] <= full.counts[:, 0])
        assert np.any(in_cells[:, 0] < full.counts[:, 0])
        bundles = iterate_bundles(spec, [1.0], 300, seed, density_emm=emm)
        for k, bundle in enumerate(bundles):
            y = bundle.event_marks
            assert in_cells[k, 0] == np.sum((y >= -0.5) & (y <= 0.0)), k

    @pytest.mark.parametrize(
        "market, plan, simulations",
        [
            ("three_stock_market", "neglect_plan", 4),
            ("three_stock_market", "batch_plan", 3),
            ("uniform_mark_market", "cell_plan", 3),
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
        # restriction (full and reduced), projection when it applies,
        # martingale; the density mass is the restriction's omega line
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
            spec, plan, n_outer=20, n_inner=1_000, seed=125
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
                spec, plan, n_outer=n_outer, n_inner=n_inner, seed=124, fict=fict
            )
            return rep.inner_mean_factors, rep.inner_se_factors

        def nested():
            return cost_of_construction_check(
                spec, plan, emm, fict_emm, Payoff.call(0, 100.0),
                n_outer=20, n_inner=n_inner, n_direct=100, seed=124, fict=fict,
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
            spec, plan, n_outer=40, n_inner=4_000, t=0.5, seed=123
        )
        assert report.passed, report.max_z
        # negative control: omitting the -1/2 int sigma^2 drag must fail
        drag = 0.5 * np.array([0.3**2 * 0.2 + 0.15**2 * 0.3, 0.25**2 * 0.5])
        wrong_mean = report.inner_mean_factors * np.exp(drag)
        wrong_z = np.abs(wrong_mean - 1.0) / report.inner_se_factors
        assert np.max(wrong_z) > 4.0


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
    for bundle in iterate_bundles(spec, times, n_paths, seed, measure_emm=emm):
        increments = np.diff(bundle.stock_values * disc[None, :], axis=1)
        paid = 0.0
        for u, m in zip(bundle.event_times, bundle.event_marks):
            paid += strategy.jump_integrand[m].value(float(u))
        gain = float(np.sum(hold * increments)) + (paid - compensator)
        counts = bundle.counts_by_driver(spec.n_jump_drivers)[None, :]
        c = payoff.undiscounted_values(bundle.stock_values[:, -1][None, :], counts)
        c = c[0] * disc[-1] if payoff.discounted else c[0]
        errors.append((c - strategy.v0) - gain)
        gains.append(gain)
    gain = upliftemm.pricing._mc_report(np.array(gains), seed, "Q*")
    return upliftemm.pricing.HedgingReport(
        error=upliftemm.pricing._mc_report(np.array(errors), seed, "Q*"),
        gain=gain,
        gain_is_unpriced=upliftemm.pricing._agrees(gain.estimate, gain.std_error),
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
