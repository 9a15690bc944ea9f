import numpy as np
import pytest
from hypothesis import given, strategies as st

from upliftemm import (
    ContinuousJumpSpec,
    Density,
    DiscreteJumpSpec,
    MarketSpec,
    TimeFunction,
    validate_market,
)
from upliftemm.errors import ShapeMismatch

from conftest import make_three_stock_market, make_time_varying_market


def compensator_drift(spec: MarketSpec, i: int, t: float) -> float:
    """Expected relative jump drift of stock i at time t (per year).

    Discrete drivers: sum_m loading[i][m](t) * intensity[m](t).
    Continuous marks: total_intensity(t) * mean mark at t.
    """
    jumps = spec.jumps
    if isinstance(jumps, DiscreteJumpSpec):
        return float(jumps.intensity_values(t) @ jumps.loading_values(t)[i])
    return float(jumps.total_intensity.value(t) * jumps.density.mean(t))


def cumulative_intensity(fn: TimeFunction, s: float, t: float) -> float:
    """Integrated intensity over [s, t]; exact for all supported kinds."""
    if not (0.0 <= s <= t):
        raise ValueError("need 0 <= s <= t")
    end = fn.domain_end()
    if end is not None and t > end * (1.0 + 1e-12) + 1e-15:
        raise ValueError(f"time {t:g} outside the function domain [0, {end:g}]")
    return fn.integral(s, t)


class TestValidation:
    def test_canonical_market_is_ok(self, three_stock_market):
        assert validate_market(three_stock_market).ok

    def test_jump_below_floor(self):
        spec = make_three_stock_market()
        bad = DiscreteJumpSpec(
            intensities=[2.0, 1.0],
            loadings=[[0.1, -1.5], [0.05, 0.1], [-0.1, 0.3]],
        )
        spec = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=spec.rate,
            sigma=spec.sigma, jumps=bad,
        )
        report = validate_market(spec)
        assert not report.ok and "JumpBelowFloor" in report.codes()

    def test_zero_intensity(self):
        spec = make_three_stock_market()
        bad = DiscreteJumpSpec(
            intensities=[2.0, 0.0, 3.0],
            loadings=spec.jumps.loadings,
        )
        spec = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=spec.rate,
            sigma=spec.sigma, jumps=bad,
        )
        assert "NonpositiveIntensity" in validate_market(spec).codes()

    def test_loading_row_count_mismatch(self):
        spec = make_three_stock_market()
        bad = DiscreteJumpSpec(
            intensities=[2.0, 1.0], loadings=[[0.1, 0.2], [0.1, 0.2]]
        )
        spec = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=spec.rate,
            sigma=spec.sigma, jumps=bad,
        )
        assert "ShapeMismatch" in validate_market(spec).codes()

    def test_ragged_loadings_rejected_at_construction(self):
        with pytest.raises(ShapeMismatch):
            DiscreteJumpSpec(intensities=[1.0, 2.0], loadings=[[0.1], [0.1, 0.2]])

    def test_unnormalized_density_flagged(self):
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(
                density=Density(
                    "histogram", (0.0, 1.0),
                    {"edges": [0.0, 0.5, 1.0], "weights": [0.5, 0.9]},
                ),
                total_intensity=2.0,
            ),
        )
        assert "DensityNotNormalized" in validate_market(spec).codes()

    def test_support_below_floor_flagged(self):
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(
                density=Density("uniform", (-1.2, 0.5), {}),
                total_intensity=2.0,
            ),
        )
        assert "JumpBelowFloor" in validate_market(spec).codes()

    def test_nonfinite_coefficient_flagged(self):
        spec = MarketSpec(
            horizon=1.0, s0=[100.0],
            alpha=[TimeFunction.samples([0.0, 1.0], [0.05, np.inf])],
            rate=0.02, sigma=[[0.2]],
        )
        assert "ShapeMismatch" in validate_market(spec).codes()

    def test_short_coefficient_domain_flagged(self):
        spec = MarketSpec(
            horizon=2.0, s0=[100.0],
            alpha=[TimeFunction.samples([0.0, 1.0], [0.05, 0.06])],
            rate=0.02, sigma=[[0.2]],
        )
        assert "ShapeMismatch" in validate_market(spec).codes()

    def test_pure_diffusion_and_pure_jump_are_legal(self):
        diffusion = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.02, sigma=[[0.2]]
        )
        assert validate_market(diffusion).ok
        pure_jump = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.02, sigma=[[]],
            jumps=DiscreteJumpSpec(intensities=[1.0], loadings=[[0.1]]),
        )
        assert pure_jump.n_brownians == 0
        assert validate_market(pure_jump).ok


class TestCompensatorDrift:
    def test_cancelling_loadings(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.1]],
            jumps=DiscreteJumpSpec(intensities=[2.0, 1.0], loadings=[[0.1, -0.2]]),
        )
        assert compensator_drift(spec, 0, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_density(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.1]],
            jumps=ContinuousJumpSpec(
                density=Density("uniform", (-0.5, 0.5), {}), total_intensity=3.0
            ),
        )
        assert compensator_drift(spec, 0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_time_varying_intensity(self):
        spec = MarketSpec(
            horizon=2.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.1]],
            jumps=DiscreteJumpSpec(
                intensities=[TimeFunction.samples([0.0, 2.0], [0.0, 2.0])],
                loadings=[[0.1]],
            ),
        )
        assert compensator_drift(spec, 0, 2.0) == pytest.approx(0.2, abs=1e-15)

    @given(st.floats(0.1, 5.0))
    def test_linear_in_intensities(self, scale):
        base = make_three_stock_market()
        scaled = MarketSpec(
            horizon=1.0, s0=base.s0, alpha=base.alpha, rate=base.rate,
            sigma=base.sigma,
            jumps=DiscreteJumpSpec(
                intensities=[fn.scaled(scale) for fn in base.jumps.intensities],
                loadings=base.jumps.loadings,
            ),
        )
        for i in range(3):
            assert compensator_drift(scaled, i, 0.4) == pytest.approx(
                scale * compensator_drift(base, i, 0.4), rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize("n", [1, 3])
def test_absent_drivers_have_one_form(n):
    # None and [] build the same market as an explicit spec with no drivers
    # and one empty sigma row per stock
    base = dict(horizon=1.0, s0=[1.0] * n, alpha=[0.05] * n, rate=0.02)
    jumps = DiscreteJumpSpec([2.0], [[0.1]] * n)
    assert (MarketSpec(**base, sigma=[[0.2]] * n, jumps=None)
            == MarketSpec(**base, sigma=[[0.2]] * n, jumps=DiscreteJumpSpec([], [[]] * n)))
    assert (MarketSpec(**base, sigma=[], jumps=jumps)
            == MarketSpec(**base, sigma=[[]] * n, jumps=jumps))
    assert MarketSpec(**base, sigma=[]).jumps.n_drivers == 0


class TestCoefficientArrays:
    def test_array_of_times_stacks_the_scalar_values(self):
        spec = make_time_varying_market()
        spec = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=spec.rate,
            sigma=[[0.2, TimeFunction.piecewise([0.0, 0.5, 1.0], [0.1, 0.3])]] * 3,
            jumps=spec.jumps,
        )
        ts = np.linspace(0.0, 1.0, 7)
        jumps = spec.jumps
        for method, shape in (
            (spec.sigma_values, (3, 2)),
            (jumps.loading_values, (3, 3)),
            (jumps.intensity_values, (3,)),
        ):
            stacked = method(ts)
            assert stacked.shape == (len(ts),) + shape
            for k, t in enumerate(ts):
                assert method(float(t)).shape == shape
                assert np.array_equal(stacked[k], method(float(t)))

    def test_no_brownians_gives_empty_columns(self):
        spec = MarketSpec(horizon=1.0, s0=[1.0, 2.0], alpha=[0.05, 0.05],
                          rate=0.02, sigma=[])
        assert spec.sigma_values(0.3).shape == (2, 0)
        assert spec.sigma_values(np.array([0.1, 0.3])).shape == (2, 2, 0)


class TestCumulativeIntensity:
    def test_constant(self):
        assert cumulative_intensity(TimeFunction.constant(2.0), 0.0, 1.0) == 2.0

    def test_linear(self):
        fn = TimeFunction.samples([0.0, 2.0], [0.0, 2.0])
        assert cumulative_intensity(fn, 0.0, 2.0) == pytest.approx(2.0, abs=1e-10)

    def test_empty(self):
        assert cumulative_intensity(TimeFunction.constant(5.0), 0.7, 0.7) == 0.0

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            cumulative_intensity(TimeFunction.constant(1.0), 1.0, 0.5)


class TestMarkProbabilities:
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.99])
    def test_driver_probabilities_sum_to_one(self, t, time_varying_market):
        jumps = time_varying_market.jumps
        lams = jumps.intensity_values(t)
        assert abs(np.sum(lams / lams.sum()) - 1.0) < 1e-12
