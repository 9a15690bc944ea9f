import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upliftemm import (
    ContinuousJumpSpec,
    ContinuousPlan,
    Density,
    DiscreteJumpSpec,
    DiscretePlan,
    MarketSpec,
    RngStreamSpec,
    TimeFunction,
    batch_weights,
    reduce_continuous,
    reduce_discrete,
    reduce_market,
    simulate_path,
)
from upliftemm.errors import EmptyCell, EmptyRetention, PlanMismatch, ShapeMismatch
from upliftemm.io import market_to_json
import upliftemm.reduction
from upliftemm.stochastic import SimulationContext

from conftest import (
    make_four_driver_market,
    make_three_stock_market,
    make_uniform_mark_market,
    project_price_closed_form,
)


class TestCompleteNeglect:
    def test_drops_neglected_driver(self, three_stock_market, neglect_plan):
        fict = reduce_discrete(three_stock_market, neglect_plan)
        assert fict.spec.n_jump_drivers == 2
        assert np.allclose(fict.spec.jumps.intensity_values(0.0), [2.0, 1.0])
        assert fict.neglected == (2,)
        # retained loadings are untouched columns of the original
        assert np.allclose(
            fict.spec.jumps.loading_values(0.0),
            np.array([[0.1, -0.2], [0.05, 0.1], [-0.1, 0.3]]),
        )

    def test_empty_plan_is_identity(self, three_stock_market):
        plan = DiscretePlan(retain=(0, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fict = reduce_discrete(three_stock_market, plan)
        assert fict.spec.jumps.intensities == three_stock_market.jumps.intensities
        assert fict.spec.jumps.loadings == three_stock_market.jumps.loadings

    def test_brownian_truncation(self):
        # three Brownian columns, keep two, neglect all jump drivers
        spec = MarketSpec(
            horizon=1.0, s0=[10.0, 20.0], alpha=[0.05, 0.06], rate=0.02,
            sigma=[[0.2, 0.1, 0.05], [0.0, 0.3, 0.15]],
            jumps=DiscreteJumpSpec(
                intensities=[1.0], loadings=[[0.1], [0.2]]
            ),
        )
        plan = DiscretePlan(neglect=(0,), keep_brownians=(0, 1))
        fict = reduce_discrete(spec, plan)
        assert fict.spec.n_jump_drivers == 0
        assert market_to_json(fict.spec)["jumps"] is None
        assert fict.spec.n_brownians == 2
        assert np.allclose(fict.spec.sigma_values(0.0), [[0.2, 0.1], [0.0, 0.3]])
        assert fict.brownian_map == (0, 1)

    def test_everything_neglected_raises(self):
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.02, sigma=[[]],
            jumps=DiscreteJumpSpec(intensities=[1.0], loadings=[[0.1]]),
        )
        with pytest.raises(EmptyRetention):
            reduce_discrete(spec, DiscretePlan(neglect=(0,)))

    def test_incomplete_target_warns(self, three_stock_market):
        plan = DiscretePlan(retain=(0,), neglect=(1, 2))
        with pytest.warns(UserWarning, match="completeness"):
            reduce_discrete(three_stock_market, plan)

    def test_partition_enforced(self, three_stock_market):
        with pytest.raises(ShapeMismatch):
            reduce_discrete(
                three_stock_market, DiscretePlan(retain=(0,), neglect=(2,))
            )


class TestDiscreteReduction:
    """One reduction serves every discrete plan: complete neglect is the
    plan with no batches."""

    def test_retain_batch_and_neglect_together(self):
        spec = make_four_driver_market()
        plan = DiscretePlan(retain=(0,), batches=((1, 2),), neglect=(3,))
        fict = reduce_discrete(spec, plan)
        assert fict.driver_groups == ((0,), (1, 2))
        assert fict.neglected == (3,)
        jumps = fict.spec.jumps
        assert jumps.intensities[0] is spec.jumps.intensities[0]
        assert [row[0] for row in jumps.loadings] == [
            row[0] for row in spec.jumps.loadings
        ]
        assert fict.weights[0] == (TimeFunction.constant(1.0),)
        # gamma = 1 + 3; delta = (0.25, 0.75); the neglected driver is gone
        assert jumps.intensities[1].constant_value == pytest.approx(4.0)
        assert [d.constant_value for d in fict.weights[1]] == pytest.approx(
            [0.25, 0.75]
        )
        assert jumps.n_drivers == 2

    def test_marks_kept_only_under_complete_neglect(self, three_stock_market):
        spec = replace(
            three_stock_market,
            jumps=replace(three_stock_market.jumps, marks=(0.1, 0.2, 0.3)),
        )
        fict = reduce_discrete(spec, DiscretePlan(retain=(0, 1), neglect=(2,)))
        assert fict.spec.jumps.marks == (0.1, 0.2)
        fict = reduce_discrete(spec, DiscretePlan(retain=(0,), batches=((1, 2),)))
        assert fict.spec.jumps.marks is None

    def test_complete_neglect_builds_no_grid(
        self, three_stock_market, neglect_plan, monkeypatch
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("complete neglect built a grid")

        monkeypatch.setattr(upliftemm.reduction, "default_grid", no_grid)
        fict = reduce_discrete(three_stock_market, neglect_plan)
        assert fict.driver_groups == ((0,), (1,))

    def test_continuous_market_rejected(self):
        with pytest.raises(PlanMismatch):
            reduce_discrete(make_uniform_mark_market(), DiscretePlan())
        with pytest.raises(PlanMismatch):
            reduce_market(make_uniform_mark_market(), DiscretePlan())


class TestBatching:
    def test_weights_and_loading(self, three_stock_market, batch_plan):
        fict = reduce_discrete(three_stock_market, batch_plan)
        jumps = fict.spec.jumps
        assert jumps.n_drivers == 2
        # gamma = 1 + 3; delta = (0.25, 0.75)
        assert jumps.intensities[1].constant_value == pytest.approx(4.0)
        gamma, deltas = batch_weights(three_stock_market, (1, 2))
        assert [d.constant_value for d in deltas] == pytest.approx([0.25, 0.75])
        # ybar for stock 0: 0.25 * (-0.2) + 0.75 * 0.2 = 0.1
        assert jumps.loadings[0][1].constant_value == pytest.approx(0.1, abs=1e-15)

    def test_single_member_batch_rejected(self, three_stock_market):
        with pytest.raises(ShapeMismatch):
            reduce_discrete(
                three_stock_market, DiscretePlan(retain=(0, 1), batches=((2,),))
            )

    def test_time_varying_weights(self):
        # lambda_1 = 1 constant, lambda_2(t) = t via samples on [0, 3]
        spec = MarketSpec(
            horizon=3.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(
                intensities=[1.0, TimeFunction.samples([0.0, 3.0], [0.0, 3.0])],
                loadings=[[0.1, 0.3]],
            ),
        )
        gamma, deltas = batch_weights(spec, (0, 1))
        assert deltas[0].value(1.0) == pytest.approx(0.5, abs=1e-12)
        assert deltas[1].value(1.0) == pytest.approx(0.5, abs=1e-12)
        assert deltas[0].value(3.0) == pytest.approx(0.25, abs=1e-12)
        assert deltas[1].value(3.0) == pytest.approx(0.75, abs=1e-12)

    def test_weight_normalization_on_grid(self, time_varying_market):
        grid = np.linspace(0.0, 1.0, 256)
        _, deltas = batch_weights(time_varying_market, (1, 2), grid)
        total = sum(np.atleast_1d(d.value(grid)) for d in deltas)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_intensity_conservation(self, time_varying_market):
        grid = np.linspace(0.0, 1.0, 256)
        fict = reduce_discrete(
            time_varying_market, DiscretePlan(retain=(0,), batches=((1, 2),)), grid
        )
        jumps = time_varying_market.jumps
        original_total = sum(
            np.atleast_1d(fn.value(grid)) for fn in jumps.intensities
        )
        reduced_total = sum(
            np.atleast_1d(fn.value(grid)) for fn in fict.spec.jumps.intensities
        )
        assert np.max(np.abs(original_total - reduced_total)) == 0.0

    def test_compensator_consistency(self, time_varying_market):
        # gamma(t) * ybar_i(t) equals the sum of member compensators exactly
        grid = np.linspace(0.0, 1.0, 256)
        fict = reduce_discrete(
            time_varying_market, DiscretePlan(retain=(0,), batches=((1, 2),)), grid
        )
        jumps = time_varying_market.jumps
        gamma = np.atleast_1d(fict.spec.jumps.intensities[1].value(grid))
        for i in range(3):
            ybar = np.atleast_1d(fict.spec.jumps.loadings[i][1].value(grid))
            member_sum = sum(
                np.atleast_1d(jumps.intensities[m].value(grid))
                * np.atleast_1d(jumps.loadings[i][m].value(grid))
                for m in (1, 2)
            )
            assert np.max(np.abs(gamma * ybar - member_sum)) < 1e-12

    @given(
        st.lists(st.floats(0.1, 5.0), min_size=2, max_size=4),
        st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=4),
    )
    @settings(max_examples=50)
    def test_batched_loading_in_convex_hull(self, lams, ys):
        k = min(len(lams), len(ys))
        lams, ys = lams[:k], ys[:k]
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(intensities=lams, loadings=[ys]),
        )
        fict = reduce_discrete(spec, DiscretePlan(batches=(tuple(range(k)),)))
        ybar = fict.spec.jumps.loadings[0][0].constant_value
        assert min(ys) - 1e-12 <= ybar <= max(ys) + 1e-12


class TestContinuousReduction:
    def test_uniform_half_cells(self, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5)))
        fict = reduce_continuous(uniform_mark_market, plan)
        assert np.allclose(fict.spec.jumps.intensity_values(0.0), [2.0, 2.0])
        assert np.allclose(
            fict.spec.jumps.loading_values(0.0),
            [[-0.25, 0.25], [-0.25, 0.25]],
        )

    def test_single_cell_is_total_mean(self, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.5),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fict = reduce_continuous(uniform_mark_market, plan)
        assert fict.spec.jumps.intensities[0].constant_value == pytest.approx(4.0)
        assert fict.spec.jumps.loadings[0][0].constant_value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_empty_cell_raises(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(
                density=Density(
                    "histogram", (0.0, 1.0),
                    {"edges": [0.0, 0.5, 1.0], "weights": [1.0, 0.0]},
                ),
                total_intensity=2.0,
            ),
        )
        with pytest.raises(EmptyCell):
            reduce_continuous(
                spec, ContinuousPlan(cells=((0.6, 0.9),), neglect_remainder=True)
            )

    def test_uncovered_support_needs_remainder_flag(self, uniform_mark_market):
        with pytest.raises(ShapeMismatch):
            ContinuousPlan(cells=((-0.5, 0.0),)).validate(uniform_mark_market)
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fict = reduce_continuous(uniform_mark_market, plan)
        assert fict.spec.n_jump_drivers == 1

    @pytest.mark.parametrize("mu", [0.0, TimeFunction.samples([0.0, 1.0], [-0.1, 0.1])])
    def test_remainder_only_plan_has_no_drivers(self, mu):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(
                density=Density("truncnorm", (-0.5, 0.5), {"mu": mu, "sigma": 0.3}),
                total_intensity=4.0,
            ),
        )
        fict = reduce_continuous(spec, ContinuousPlan(cells=(), neglect_remainder=True))
        assert fict.spec.jumps.intensities == () and fict.spec.jumps.loadings == ((),)

    def test_split_and_merge_reproduces_cell(self, uniform_mark_market):
        # refining a cell and merging the two halves recovers the original
        coarse = reduce_continuous(
            uniform_mark_market,
            ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5))),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fine = reduce_continuous(
                uniform_mark_market,
                ContinuousPlan(cells=((-0.5, -0.25), (-0.25, 0.0), (0.0, 0.5))),
            )
        lam = fine.spec.jumps.intensity_values(0.0)
        ys = fine.spec.jumps.loading_values(0.0)[0]
        merged_lam = lam[0] + lam[1]
        merged_y = (lam[0] * ys[0] + lam[1] * ys[1]) / merged_lam
        assert merged_lam == pytest.approx(
            coarse.spec.jumps.intensity_values(0.0)[0], abs=1e-9
        )
        assert merged_y == pytest.approx(
            coarse.spec.jumps.loading_values(0.0)[0][0], abs=1e-9
        )


class TestProjection:
    def test_zero_neglected_intensity_is_pathwise_identity(self):
        # neglected driver with (numerically) vanishing intensity
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.0, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(
                intensities=[1.0, 1e-12], loadings=[[0.1, 0.4]]
            ),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fict = reduce_market(spec, plan)
            ctx = SimulationContext(fict.spec, [0.5, 1.0])
        bundle = simulate_path(ctx, RngStreamSpec(3, 0))
        values = project_price_closed_form(spec, plan, bundle, 1.0)
        assert values[0] == pytest.approx(bundle.stock_values[0, -1], rel=1e-12)

    def test_single_jump_closed_form(self):
        # no diffusion, zero drift: price is s0 e^{-y lam t} (1 + y)^{N(t)}
        lam, y = 1.3, 0.1
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.0], rate=0.0, sigma=[[0.0]],
            jumps=DiscreteJumpSpec(
                intensities=[lam, 2.0], loadings=[[y, 0.25]]
            ),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,))
        fict = reduce_market(spec, plan)
        ctx = SimulationContext(fict.spec, [1.0])
        for sid in range(64):
            bundle = simulate_path(ctx, RngStreamSpec(11, sid))
            if len(bundle.event_times) == 1:
                break
        assert len(bundle.event_times) == 1
        expected = 10.0 * np.exp(-y * lam) * (1 + y)
        got = project_price_closed_form(spec, plan, bundle, 1.0)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_batch_plan_rejected(self, three_stock_market, batch_plan):
        with pytest.raises(PlanMismatch):
            project_price_closed_form(three_stock_market, batch_plan, None, 0.5)

    def test_projected_price_is_martingale_without_drift(self):
        # alpha = r = 0 makes the discounted projected price a martingale:
        # its Monte Carlo mean at any time is the initial price
        from upliftemm import simulate_terminal

        spec = MarketSpec(
            horizon=1.0, s0=[10.0, 20.0], alpha=[0.0, 0.0], rate=0.0,
            sigma=[[0.2], [0.3]],
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 1.0, 3.0],
                loadings=[[0.1, -0.2, 0.2], [0.05, 0.1, -0.15]],
            ),
        )
        plan = DiscretePlan(retain=(0, 1), neglect=(2,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fict = reduce_market(spec, plan)
        sample = simulate_terminal(fict.spec, [0.5], 30_000, 31)
        for i in range(2):
            vals = sample.stocks[:, i, 0]
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - spec.s0[i]) < 3 * se


class TestDispatch:
    def test_reduce_market_picks_the_right_reduction(
        self, three_stock_market, neglect_plan, batch_plan
    ):
        assert reduce_market(three_stock_market, neglect_plan).spec.n_jump_drivers == 2
        assert reduce_market(three_stock_market, batch_plan).spec.n_jump_drivers == 2
        cont = make_uniform_mark_market()
        fict = reduce_market(cont, ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5))))
        assert isinstance(fict.spec.jumps, DiscreteJumpSpec)


# each plan kind on a one-Brownian market it applies to, keeping ``keep``
BROWNIAN_PLANS = {
    "discrete": (
        make_three_stock_market,
        lambda keep: DiscretePlan(retain=(0, 1), neglect=(2,), keep_brownians=keep),
    ),
    "continuous": (
        make_uniform_mark_market,
        lambda keep: ContinuousPlan(cells=((-0.5, 0.5),), keep_brownians=keep),
    ),
}


class TestBrownianSelection:
    """Both plan kinds select Brownian columns by one rule."""

    @pytest.mark.parametrize("kind", sorted(BROWNIAN_PLANS))
    @pytest.mark.parametrize("keep", [[5], [0, 0], [-1]], ids=["range", "twice", "negative"])
    def test_bad_columns_refused(self, kind, keep):
        make_spec, make_plan = BROWNIAN_PLANS[kind]
        with pytest.raises(ShapeMismatch, match="keep_brownians out of range"):
            reduce_market(make_spec(), make_plan(keep))

    @pytest.mark.parametrize("kind", sorted(BROWNIAN_PLANS))
    def test_coerced_kept_and_written(self, kind):
        make_spec, make_plan = BROWNIAN_PLANS[kind]
        spec = make_spec()
        plan = make_plan([np.int64(0)])
        assert plan.keep_brownians == (0,) and type(plan.keep_brownians[0]) is int
        assert plan.kept_brownians(spec) == (0,)
        assert plan.to_json()["keep_brownians"] == [0]
        assert reduce_market(spec, plan).brownian_map == (0,)
        assert "keep_brownians" not in make_plan(None).to_json()
        assert make_plan(None).kept_brownians(spec) == (0,)
