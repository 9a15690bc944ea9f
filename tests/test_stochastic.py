import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upliftemm import (
    DiscreteJumpSpec,
    ContinuousJumpSpec,
    ContinuousPlan,
    Density,
    DiscretePlan,
    Emm,
    MarketEvent,
    MarketSpec,
    Payoff,
    RngStreamSpec,
    Strategy,
    TimeFunction,
    build_uplifted_emm,
    density_mass_check,
    hedging_error,
    reduce_market,
    restriction_check,
    sample_marked_point_process,
    sample_poisson_inhomogeneous,
    simulate_path,
    simulate_terminal,
    two_route_check,
)
from upliftemm.errors import NullMark, UnboundedIntensity
import upliftemm.philox
import upliftemm.pricing
from upliftemm.blocks import (
    _Block,
    _block_size,
    _draw_marked_events,
    _event_log_factors,
    _event_log_phi,
    _event_sums,
    _interval_plan,
    _rank_plan,
    _path_draws,
    _per_driver,
    _Sample,
    _simulate_block,
    _simulate_blocks,
    _stream_ids,
)
from upliftemm.philox import box_muller, poisson_counts
from upliftemm.stochastic import SimulationContext, _block_counts, _terminal_sample
from upliftemm.timefns import adaptive_simpson, integrate_product
from upliftemm.uplift import COLLAPSE_ULPS, CellMeasure, _solved_fn, cell_index

from conftest import (
    FactorAtMinusOne,
    JumpProcessPath,
    UndeterminedIntegral,
    block_rows,
    doleans_dade_eval,
    empirical_intensity_test,
    make_theta_knot_market,
    project_price_closed_form,
    rn_density_path,
    stock_path_exact,
)
from test_pricing import black_scholes_call

N_STAT = 30_000


def _sample_counts(lam, horizon, seed, n):
    times = sample_poisson_inhomogeneous(lam, horizon, RngStreamSpec(seed, 0), n)
    return np.array([len(t) for t in times])


def _streams(seed, n):
    return (RngStreamSpec(seed, i) for i in range(n))


class TestPoissonSampling:
    def test_negligible_intensity_yields_no_events(self):
        times = sample_poisson_inhomogeneous(
            TimeFunction.constant(1e-300), 1.0, RngStreamSpec(1, 0)
        )
        assert len(times) == 0

    def test_constant_rate_count_moments(self):
        # mean of N(1) for rate 2 is 2 with variance 2
        counts = _sample_counts(TimeFunction.constant(2.0), 1.0, 2, N_STAT)
        z = (counts.mean() - 2.0) / np.sqrt(2.0 / N_STAT)
        assert abs(z) < 4.0

    def test_linear_rate_count_mean(self):
        lam = TimeFunction.samples([0.0, 2.0], [0.0, 2.0])  # integral = 2
        counts = _sample_counts(lam, 2.0, 3, N_STAT)
        z = (counts.mean() - 2.0) / np.sqrt(2.0 / N_STAT)
        assert abs(z) < 4.0

    def test_majorant_is_checked(self, three_stock_market, uniform_mark_market):
        # thinning below an intensity it cannot bound would be biased
        for spec in (three_stock_market, uniform_mark_market):
            ctx = SimulationContext(spec, [1.0])
            ctx.majorant = 0.9 * ctx.const_total
            with pytest.raises(UnboundedIntensity):
                for sid in range(5):
                    simulate_path(ctx, RngStreamSpec(3, sid))
            with pytest.raises(UnboundedIntensity):
                for sid in range(5):
                    _draw_marked_events([_Sample(ctx, sid)], 3, 0, 1)

    def test_majorant_covers_a_left_limit(self):
        # the summed intensity rises to 5.413 as t rises to 0.5, where the
        # step drops: a majorant probing only right of each knot undercut it
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(
                intensities=[
                    TimeFunction.samples([0.0, 0.5, 1.0], [2.0, 2.913, 2.745]),
                    1.0,
                    TimeFunction.piecewise([0.0, 0.5, 1.0], [1.5, 1.044]),
                ],
                loadings=[[0.1, -0.05, 0.2]],
            ),
        )
        sample = simulate_terminal(spec, [1.0], 2_000, master_seed=5)
        assert SimulationContext(spec, [1.0]).majorant == 5.413 * (1 + 1e-9)
        assert sample.counts.shape == (2_000, 3)

    def test_nonfinite_intensity_rejected(self):
        with pytest.raises(UnboundedIntensity):
            sample_poisson_inhomogeneous(
                TimeFunction.constant(np.inf), 1.0, RngStreamSpec(1, 0)
            )


def _assert_shares_by_bin(times, picks, probs, n_bins=10):
    """Each time bin's count of each pick k against the sum of its events'
    probabilities ``probs[k]``, at |z| < 4: given the times, the events'
    picks are independent draws."""
    bins = np.minimum((times * n_bins).astype(int), n_bins - 1)
    for b in range(n_bins):
        at = bins == b
        for k, p in enumerate(probs[:, at]):
            obs = np.sum(picks[at] == k)
            z = (obs - p.sum()) / np.sqrt(np.sum(p * (1.0 - p)))
            assert abs(z) < 4.0, (b, k, obs, p.sum())


class TestMarkedSampling:
    def test_mark_fractions(self):
        jumps = DiscreteJumpSpec(intensities=[1.0, 3.0], loadings=[[0.1, 0.2]])
        n_type2 = 0
        n_total = 0
        _, per_path = sample_marked_point_process(
            jumps, 1.0, RngStreamSpec(5, 0), n_streams=20_000
        )
        for marks in per_path:
            n_type2 += int(np.sum(marks == 1))
            n_total += len(marks)
        frac = n_type2 / n_total
        se = np.sqrt(0.75 * 0.25 / n_total)
        assert abs(frac - 0.75) < 4 * se

    def test_driver_shares_follow_the_intensities_in_time(self):
        # given the event times, each event's driver is m with probability
        # lambda_m(t) / total(t): compare each time bin's driver counts
        # (the varying driver last, then first, where a wrong cumulative
        # intensity is not hidden by the last driver's clip)
        lam2 = TimeFunction.samples([0.0, 1.0], [1.0, 2.0])  # 1 + t
        for intensities in ([2.0, 1.0, lam2], [lam2, 2.0, 1.0]):
            jumps = DiscreteJumpSpec(intensities=intensities, loadings=[[0.1, 0.2, 0.3]])
            times, marks = sample_marked_point_process(
                jumps, 1.0, RngStreamSpec(12, 0), n_streams=20_000
            )
            times, marks = np.concatenate(times), np.concatenate(marks)
            lam = np.array([fn.value(times) for fn in jumps.intensities])
            _assert_shares_by_bin(times, marks, lam / lam.sum(axis=0))

    def test_single_driver_matches_plain_poisson_exactly(self):
        lam = TimeFunction.samples([0.0, 2.0], [1.0, 2.0])
        jumps = DiscreteJumpSpec(intensities=[lam], loadings=[[0.1]])
        for s in _streams(6, 50):
            plain = sample_poisson_inhomogeneous(lam, 2.0, s)
            marked, marks = sample_marked_point_process(jumps, 2.0, s)
            assert np.array_equal(plain, marked)
            assert np.all(marks == 0)

    def test_samplers_draw_a_paths_events_on_any_range(self, three_stock_market):
        jumps = three_stock_market.jumps
        ctx = SimulationContext(three_stock_market, [1.0])
        times, marks = sample_marked_point_process(
            jumps, 1.0, RngStreamSpec(9, 40), n_streams=_block_size(ctx) + 3
        )
        for k in (0, 1, len(times) - 1):
            bundle = simulate_path(ctx, RngStreamSpec(9, 40 + k))
            alone = sample_marked_point_process(jumps, 1.0, RngStreamSpec(9, 40 + k))
            for got in ((times[k], marks[k]), alone):
                assert np.array_equal(got[0], bundle.event_times), k
                assert np.array_equal(got[1], bundle.event_marks), k

    def test_decomposed_counts_uncorrelated(self):
        jumps = DiscreteJumpSpec(intensities=[1.0, 3.0], loadings=[[0.1, 0.2]])
        pairs = np.empty((N_STAT // 2, 2))
        _, per_path = sample_marked_point_process(
            jumps, 1.0, RngStreamSpec(7, 0), n_streams=N_STAT // 2
        )
        for i, marks in enumerate(per_path):
            pairs[i] = [np.sum(marks == 0), np.sum(marks == 1)]
        cov = np.cov(pairs.T, ddof=1)[0, 1]
        se = np.sqrt(1.0 * 3.0 / (N_STAT // 2))
        assert abs(cov) < 4 * se

    def test_continuous_marks_inside_support(self):
        jumps = ContinuousJumpSpec(
            density=Density("uniform", (-0.5, 0.5), {}), total_intensity=4.0
        )
        times, marks = sample_marked_point_process(jumps, 1.0, RngStreamSpec(8, 0))
        assert np.all((marks >= -0.5) & (marks <= 0.5))
        assert np.all(np.diff(times) > 0)


def _reference_marks(mm: CellMeasure, u, times) -> np.ndarray:
    """Cell-measure marks one event at a time from scalar calls: the first
    region k (a cell, then a gap the cells leave in the support) whose
    cumulative probability c_k reaches u[j], then the base quantile
    (u[j] - c_{k-1}) / (c_k - c_{k-1}) between that region's CDF edges."""
    regions = list(mm.cells)
    if mm.remainder_physical:
        edges = [mm.base.support[0], *sorted(x for c in mm.cells for x in c),
                 mm.base.support[1]]
        regions += [(a, b) for a, b in zip(edges[::2], edges[1::2]) if b > a]
    marks = np.empty(len(times))
    for j, t in enumerate(times):
        t = float(t)
        rates = [float(fn.value(t)) for fn in mm.cell_intensities]
        if mm.remainder_physical:
            phys = float(mm.physical_intensity.value(t))
            rates += [phys * mm.base.mass(a, b, t) for a, b in regions[len(mm.cells):]]
        probs = np.asarray(rates) / sum(rates)  # the total in region order
        cum = np.cumsum(probs) / probs.sum()
        k = int(min(np.searchsorted(cum, u[j], side="left"), len(probs) - 1))
        below = cum[k - 1] if k else 0.0
        q = (u[j] - below) / (cum[k] - below) if cum[k] > below else 0.0
        lo, hi = mm.base.cdf(regions[k][0], t), mm.base.cdf(regions[k][1], t)
        marks[j] = mm.base.ppf(lo + min(max(q, 0.0), 1.0) * (hi - lo), t)
    return marks


def _varying_cell_measures():
    """Truncnorm marks with time-varying mu, three cells and a remainder;
    the second measure leaves the remainder one narrow gap of little mass,
    so its marks there are rare."""
    base = Density("truncnorm", (-0.6, 0.6), {
        "mu": TimeFunction.samples([0.0, 0.3, 1.0], [0.0, 0.1, -0.05]), "sigma": 0.3,
    })
    phys = TimeFunction.piecewise([0.0, 0.5, 1.0], [6.0, 9.0])
    lams = (
        TimeFunction.samples([0.0, 1.0], [1.0, 2.0]),
        TimeFunction.constant(1.5),
        TimeFunction.piecewise([0.0, 0.4, 1.0], [0.7, 1.1]),
    )
    cells = (((-0.6, -0.3), (-0.3, 0.0), (0.1, 0.3)),
             ((-0.6, -0.2), (-0.2, 0.3), (0.3, 0.58)))
    return [
        (base, phys, CellMeasure(base=base, physical_intensity=phys, cells=c,
                                 cell_intensities=lams, remainder_physical=True))
        for c in cells
    ]


class TestVaryingCellMarks:
    def test_block_marks_match_scalar_reference(self, monkeypatch):
        # the per-path reference is slow: shrink the blocks it must cross
        monkeypatch.setattr("upliftemm.blocks._SEGMENT_BUDGET", 1 << 12)
        for base, phys, mm in _varying_cell_measures():
            spec = MarketSpec(
                horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
                jumps=ContinuousJumpSpec(density=base, total_intensity=phys),
            )
            emm = Emm(theta=(0.1,), jump_measure=mm)
            ctx = SimulationContext(spec, [0.5, 1.0], measure_emm=emm)
            n_paths = _block_size(ctx) + 5  # across a block boundary
            seed, offset, n_remainder = 31, 7, 0
            rows = block_rows(ctx, seed, n_paths, offset)
            for k, (_, _, times, marks) in enumerate(rows):
                got, w, total, _ = _path_events(ctx, seed, offset + k)
                assert np.array_equal(got, times), k
                assert np.array_equal(marks, _reference_marks(mm, w / total, times)), k
                n_remainder += np.sum(mm.phi_values(marks, times) == 1.0)
            assert n_remainder > 5
            # the one-path sampler reads the same rule
            streams = RngStreamSpec(seed, offset + n_paths - 1)
            assert np.array_equal(ctx.sample_marks(streams, times), marks)

    @pytest.mark.parametrize("t", [0.2, 0.75])
    def test_marks_follow_reweighted_density(self, t):
        n = 100_000
        for i, (base, _, mm) in enumerate(_varying_cell_measures()):
            u = np.random.default_rng(40 + i).uniform(size=n)
            marks = mm.marks_from_uniforms(u, np.full(n, t))
            lo, hi = base.support
            edges = np.unique(np.concatenate(
                [np.linspace(lo, hi, 25), np.ravel(mm.cells)]
            ))
            observed, _ = np.histogram(marks, bins=edges)
            for a, b, obs in zip(edges[:-1], edges[1:], observed):
                eps = (b - a) * 1e-12  # the density jumps at cell edges
                p = adaptive_simpson(
                    lambda y: mm.density_value(np.clip(y, a + eps, b - eps), t),
                    a, b, tol=1e-9,
                )
                z = (obs - n * p) / np.sqrt(n * p * (1.0 - p))
                assert abs(z) < 4.0, (i, a, b, obs, n * p)

    def test_region_shares_follow_the_intensities_in_time(self):
        # given the event times, each mark's region (a cell or a gap of the
        # remainder) is k with probability rate_k(t) / total(t)
        base, phys, mm = _varying_cell_measures()[0]
        jumps = ContinuousJumpSpec(density=base, total_intensity=phys)
        times, marks = sample_marked_point_process(
            jumps, 1.0, RngStreamSpec(13, 0), Emm(theta=(0.1,), jump_measure=mm), 12_000
        )
        times, marks = np.concatenate(times), np.concatenate(marks)
        rates = mm._table(times)[0]
        _assert_shares_by_bin(times, cell_index(mm._regions, marks), rates / rates.sum(axis=0))

    def test_constant_block_marks_match_one_path_sampler(self):
        base = Density("truncnorm", (-0.5, 0.5), {"mu": 0.05, "sigma": 0.3})
        mm = CellMeasure(
            base=base, physical_intensity=TimeFunction.constant(4.0),
            cells=((-0.4, -0.2), (-0.1, 0.05), (0.15, 0.3)),
            cell_intensities=tuple(TimeFunction.constant(x) for x in (0.7, 1.2, 0.5)),
            remainder_physical=True,
        )
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(density=base, total_intensity=4.0),
        )
        emm = Emm(theta=(0.1,), jump_measure=mm)
        ctx = SimulationContext(spec, [1.0], measure_emm=emm)
        n_paths = _block_size(ctx) + 5
        n_remainder = 0
        for k, (_, _, times, marks) in enumerate(block_rows(ctx, 8, n_paths)):
            got = ctx.sample_marks(RngStreamSpec(8, k), times)
            assert np.array_equal(marks, got), k
            n_remainder += np.sum(mm.phi_values(got, times) == 1.0)
        assert n_remainder > 5

    def test_mean_jump_intensity_on_a_grid_matches_scalar_calls(
        self, piecewise_mark_market
    ):
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        uplifted = build_uplifted_emm(piecewise_mark_market, plan)[0].jump_measure
        grid = np.linspace(0.0, 1.0, 513)
        for mm in [m for _, _, m in _varying_cell_measures()] + [uplifted]:
            got = mm.mean_jump_intensity(grid)
            assert np.array_equal(got, [mm.mean_jump_intensity(float(t)) for t in grid])

    def test_measure_functions_sampled_once(self, piecewise_mark_market, monkeypatch):
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        uplifted, _, _ = build_uplifted_emm(piecewise_mark_market, plan)
        base, phys, varying = _varying_cell_measures()[0]
        varying_market = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(density=base, total_intensity=phys),
        )
        calls = {"mean_jump_intensity": 0, "total_intensity": 0}
        for name in calls:
            method = getattr(CellMeasure, name)

            def counted(self, t, _method=method, _name=name):
                calls[_name] += np.size(t)
                return _method(self, t)

            monkeypatch.setattr(CellMeasure, name, counted)
        times = np.linspace(0.0, 1.0, 9)
        # each function once for both contexts (the stocks' drift, built on
        # first use, reads the mean jump intensity): a step measure at the left
        # end of each of its two pieces, a time-varying density at 513 times
        for spec, emm, n_times in (
            (piecewise_mark_market, uplifted, 2),
            (varying_market, Emm(theta=(0.1,), jump_measure=varying), 513),
        ):
            calls.update(mean_jump_intensity=0, total_intensity=0)
            SimulationContext(spec, times, measure_emm=emm).det_drift
            SimulationContext(spec, times, measure_emm=emm, density_emm=emm).det_drift
            assert calls == {"mean_jump_intensity": n_times, "total_intensity": n_times}


def _small_cell_measure():
    """Truncnorm marks with mu linear in time: a cell of share about 1e-3,
    a large cell with a varying intensity, and the remainder's three gaps."""
    base = Density("truncnorm", (-0.6, 0.6), {
        "mu": TimeFunction.samples([0.0, 1.0], [-0.1, 0.15]), "sigma": 0.25,
    })
    return CellMeasure(
        base=base, physical_intensity=TimeFunction.constant(6.0),
        cells=((0.4, 0.45), (-0.5, 0.1)),
        cell_intensities=(TimeFunction.constant(0.005),
                          TimeFunction.samples([0.0, 1.0], [3.0, 4.0])),
        remainder_physical=True,
    )


def _assert_quantiles_uniform(mm: CellMeasure, k, times, marks):
    """Region k's marks have a uniform base CDF within the region, each at
    its own time (KS, p > 1e-4)."""
    from scipy.stats import kstest

    a, b = mm._regions[k]
    lo, hi = mm.base.cdf(a, times), mm.base.cdf(b, times)
    v = (mm.base.cdf(marks, times) - lo) / (hi - lo)
    assert kstest(v, "uniform").pvalue > 1e-4, (k, marks.size)


def _assert_regions_and_quantiles(mm: CellMeasure, times, marks, min_marks):
    """Given the event times, each mark's region k has probability
    rate_k(t) / total(t) (binomial |z| < 4), and each region's marks
    follow the base density restricted to it."""
    idx = cell_index(mm._regions, marks)
    assert np.all(idx >= 0)
    rates = mm._table(times)[0]
    for k, p in enumerate(rates / rates.sum(axis=0)):
        at = idx == k
        z = (at.sum() - p.sum()) / np.sqrt(np.sum(p * (1.0 - p)))
        assert abs(z) < 4.0 and at.sum() >= min_marks, (k, at.sum(), p.sum())
        _assert_quantiles_uniform(mm, k, times[at], marks[at])


class TestResidualQuantile:
    """A mark's quantile within its region is the residual of the uniform
    that picked the region, rescaled by the region's share."""

    @pytest.mark.parametrize("t", [0.2, 0.8])
    def test_marks_from_one_uniform_follow_the_regions(self, t):
        mm = _small_cell_measure()
        n = 200_000
        times = np.full(n, t)
        u = np.random.default_rng(int(10 * t)).random(n)
        marks = mm.marks_from_uniforms(u, times)
        share = mm._table(t)[0][0, 0] / mm.total_intensity(t)
        assert 5e-4 < share < 2e-3
        _assert_regions_and_quantiles(mm, times, marks, min_marks=100)
        # uniforms inside the small cell's share alone: 4,000 of its marks
        u = np.random.default_rng(7).uniform(0.0, share, 4000)
        marks = mm.marks_from_uniforms(u, times[:4000])
        assert np.all(cell_index(mm._regions, marks) == 0)
        _assert_quantiles_uniform(mm, 0, times[:4000], marks)

    def test_block_marks_follow_the_regions(self):
        mm = _small_cell_measure()
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(density=mm.base, total_intensity=6.0),
        )
        ctx = SimulationContext(spec, [1.0], measure_emm=Emm(theta=(0.1,), jump_measure=mm))
        block = _simulate_block(ctx, 29, 0, 30_000, stocks=())
        _assert_regions_and_quantiles(mm, block.ev_times, block.ev_marks, min_marks=100)


def _drift_per_time(spec, out, sim, under_q, density):
    """The drift integrals as one scalar integral per output time, each
    sum started at 0.0 and added in driver order."""
    drift, z2 = np.zeros((len(out), spec.n)), np.zeros(len(out))
    for j, tau in enumerate(map(float, out)):
        for i in range(spec.n):
            total = 0.0
            for m, lam in enumerate(sim):
                total += integrate_product(spec.jumps.loadings[i][m], lam, 0.0, tau)
            base = spec.rate.integral(0.0, tau) if under_q else spec.alpha[i].integral(0.0, tau)
            drift[j, i] = base - total
        if density is not None:
            total = 0.0
            for lam, lam_t in zip(spec.jumps.intensities, density.intensities):
                total += lam.integral(0.0, tau) - lam_t.integral(0.0, tau)
            z2[j] = total
    return drift, z2


class TestContextBuild:
    def test_drift_integrals_match_per_time_scalars(self, time_varying_market, batch_plan):
        # each function integrated to all 33 output times in one call gives
        # the per-time scalar integrals bit for bit; the fictitious market
        # pairs varying loadings with samples-kind intensities (Gauss rule)
        emm, fict, fict_emm = build_uplifted_emm(time_varying_market, batch_plan)
        out = np.linspace(0.0, 1.0, 33)
        gauss = [
            (y, lam) for row in fict.spec.jumps.loadings
            for y, lam in zip(row, fict_emm.intensities)
            if y.kind != "const" and lam.kind == "samples"
        ]
        assert gauss
        for spec, measure in ((time_varying_market, emm), (fict.spec, fict_emm)):
            for under_q in (True, False):
                kw = {"measure_emm" if under_q else "density_emm": measure}
                ctx = SimulationContext(spec, out, **kw)
                sim = measure.intensities if under_q else spec.jumps.intensities
                density = None if under_q else measure
                drift, z2 = _drift_per_time(spec, out, sim, under_q, density)
                assert ctx.det_drift.tobytes() == drift.tobytes()
                assert ctx.z2_drift.tobytes() == z2.tobytes()

    def test_mark_mean_built_once_per_context(self, monkeypatch):
        density = Density("truncnorm", (-0.6, 0.6), {
            "mu": TimeFunction.samples([0.0, 1.0], [0.0, 0.1]), "sigma": 0.3,
        })
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 80.0], alpha=[0.05, 0.03], rate=0.02,
            sigma=[[0.2], [0.3]],
            jumps=ContinuousJumpSpec(density=density, total_intensity=4.0),
        )
        calls = []
        original = Density.mean

        def counting(self, t=0.0):
            calls.append(np.size(t))
            return original(self, t)

        monkeypatch.setattr(Density, "mean", counting)
        ctx = SimulationContext(spec, np.linspace(0.125, 1.0, 9))
        assert calls == []  # the stocks' drift is built on first use
        ctx.det_drift
        ctx.det_drift
        assert calls == [513]  # once, on the whole jump grid

    @pytest.mark.parametrize("route", ["measure_emm", "density_emm"])
    def test_constant_fast_paths_match_the_general_code(
        self, route, three_stock_market, neglect_plan
    ):
        # const_total, const_mark_cum and const_log_phi are shortcuts only:
        # a block drawn without them is the same bit for bit
        emm, _, _ = build_uplifted_emm(three_stock_market, neglect_plan)
        fast, general = (
            SimulationContext(three_stock_market, [0.5, 1.0], **{route: emm})
            for _ in range(2)
        )
        assert fast.const_total is not None and fast.const_mark_cum is not None
        assert (fast.const_log_phi is not None) == (route == "density_emm")
        general.const_total = general.const_mark_cum = general.const_log_phi = None
        a, b = (_simulate_block(ctx, 21, 0, 600) for ctx in (fast, general))
        assert a.ev_times.size > 1000
        for name in ("ev_times", "ev_marks", "stocks", "z"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("intensities", [[2.0, 1.0, 3.0], [2.0]])
    def test_constant_shares_mark_as_a_left_search(self, intensities):
        # a cell measure's region is the first whose cumulative share reaches
        # the draw w / total: searchsorted's side="left", ties included,
        # unlike a driver's pick below; one event still gets an array.  A
        # tie's residual quantile is 1 (or 0 just above it), so its mark is a
        # region edge, kept in its region although ppf(cdf(a)) need not be a;
        # cells (-0.3, 0.0) and (0.1, 0.3) tell a left search from a right one
        base = Density("truncnorm", (-0.6, 0.6), {"mu": 0.0, "sigma": 0.3})
        cells = ((-0.6, -0.3), (-0.3, 0.0), (0.1, 0.3))[:len(intensities)]
        mm = CellMeasure(
            base=base, physical_intensity=TimeFunction.constant(6.0), cells=cells,
            cell_intensities=tuple(TimeFunction.constant(x) for x in intensities),
        )
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(density=base, total_intensity=6.0),
        )
        ctx = SimulationContext(spec, [1.0], measure_emm=Emm(theta=(0.1,), jump_measure=mm))
        probs = np.array(intensities) / np.sum(intensities)
        cum = np.cumsum(probs) / probs.sum()
        u = np.concatenate([
            np.random.default_rng(5).random(500), [0.0, 1.0], cum,
            np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
        ])
        times = np.full(u.size, 0.5)
        marks = ctx.marks_from_uniforms(u, times)
        want = np.minimum(np.searchsorted(cum, u, side="left"), len(intensities) - 1)
        lo, hi = np.array(cells)[want].T
        assert np.all((lo <= marks) & (marks <= hi))
        # off an edge two cells share, the mark's cell is the region picked
        off = ~np.isin(marks, np.intersect1d(*np.array(cells).T))
        assert np.array_equal(cell_index(cells, marks[off]), want[off])
        one = ctx.marks_from_uniforms(u[:1], times[:1])
        assert isinstance(one, np.ndarray) and one.shape == (1,)

    @pytest.mark.parametrize("intensities", [[2.0, 1.0, 3.0], [2.0]])
    def test_a_draw_on_a_cumulative_intensity_picks_the_driver_above(self, intensities):
        # a thinning draw w picks the m with cum_{m-1} <= w < cum_m: a draw on
        # cum_m picks driver m + 1, one on the total the last driver, as
        # searchsorted's side="right" clipped; the constant table and the
        # intensities agree; one driver gets an int64 array too
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(
                intensities=intensities, loadings=[[0.1] * len(intensities)]
            ),
        )
        fast, general = (SimulationContext(spec, [1.0]) for _ in range(2))
        cum, total = fast.const_mark_cum, fast.const_total
        assert cum[-1] == total and general.const_total == total
        general.const_mark_cum = None
        w = np.concatenate([
            np.random.default_rng(5).random(500) * total, [0.0], cum,
            np.nextafter(cum, 0.0), np.nextafter(cum[:-1], total),
        ])
        times = np.full(w.size, 0.5)
        want = np.minimum(np.searchsorted(cum, w, side="right"), len(intensities) - 1)
        assert want[501] == min(1, len(intensities) - 1) and want[500 + len(cum)] == len(cum) - 1
        lam = np.repeat(np.array(intensities)[:, None], w.size, axis=1)
        for marks in (
            fast.marks_from_uniforms(w, times),
            general.marks_from_uniforms(w, times, lam),
        ):
            assert marks.dtype == np.int64 and np.array_equal(marks, want)
        one = fast.marks_from_uniforms(w[:1], times[:1])
        assert isinstance(one, np.ndarray) and one.shape == (1,) and one.dtype == np.int64

    @pytest.mark.parametrize("market", ["time_varying", "piecewise_mark"])
    def test_uplifted_time_varying_markets_run_wide_blocks(self, market, request):
        # a solved theta that is constant up to rounding adds no grid knots
        spec = request.getfixturevalue(f"{market}_market")
        plan = (
            DiscretePlan(retain=(0,), batches=((1, 2),)) if market == "time_varying"
            else ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        )
        emm, _, _ = build_uplifted_emm(spec, plan)
        for kw in ({"measure_emm": emm}, {"density_emm": emm}):
            ctx = SimulationContext(spec, [0.5, 1.0], **kw)
            assert _block_size(ctx) >= 400, kw

    def test_q_paths_skip_theta_knots(self, three_stock_market):
        # a Q* path never reads theta; a Z-weighted path reads it per segment
        knots = np.linspace(0.0, 1.0, 50)
        theta = TimeFunction.samples(knots, np.linspace(0.4, 0.6, 50))
        emm = Emm(theta=(theta,), intensities=(1.5, 1.2, 3.0))
        q = SimulationContext(three_stock_market, [0.5, 1.0], measure_emm=emm)
        assert q.base_knots.tolist() == [0.0, 0.5, 1.0]
        pz = SimulationContext(three_stock_market, [0.5, 1.0], density_emm=emm)
        assert np.isin(knots, pz.base_knots).all()

    def test_solution_constant_up_to_rounding_collapses(self):
        grid = np.linspace(0.0, 1.0, 256)
        make = partial(TimeFunction.samples, grid)
        ulp = np.spacing(0.5)
        within = 0.5 + ulp * (np.arange(256) % (COLLAPSE_ULPS + 1))
        assert _solved_fn(within, make) == TimeFunction.constant(0.5)
        apart = 0.5 + ulp * 64 * (np.arange(256) % 2)
        assert _solved_fn(apart, make) == TimeFunction.samples(grid, apart)


def _total_intensity(ctx, times):
    """The simulation intensity at ``times``; a time-varying discrete
    market's is summed over its drivers in driver order."""
    if ctx.kind != "discrete" or ctx.const_total is not None:
        return ctx.total_intensity_at(times)
    total = np.zeros(times.shape)
    for fn in ctx.sim_intensities:
        total += fn.value(times)
    return total


def _path_events(ctx, seed, stream):
    """One path's accepted events from its own ``RngStreamSpec.uniforms``
    draws: count 0, then candidate j's ``event_times`` counter j, its time
    and thinning uniform (the sorted times take the thinning uniforms in
    counter order).  Returns the accepted times, their thinning draws w =
    thin * majorant, the totals thinning tested them against and the
    candidate count."""
    streams = RngStreamSpec(seed, stream)
    if ctx.majorant == 0.0:
        return np.zeros(0), np.zeros(0), np.zeros(0), 0
    n_cand = int(poisson_counts(ctx.count_table, streams.uniforms("count", 1)[0])[0])
    t, thin = streams.uniforms("event_times", n_cand)
    cand = np.sort(ctx.horizon * t)
    w, total = thin * ctx.majorant, _total_intensity(ctx, cand)
    accept = w <= total
    return cand[accept], w[accept], total[accept], n_cand


def _reference_drivers(ctx, w, times):
    """Each event's driver: the m with cum_{m-1}(t) <= w < cum_m(t) for the
    cumulative intensities in driver order, the last on w = total(t)."""
    cum = np.cumsum([fn.value(times) for fn in ctx.sim_intensities], axis=0)
    return np.minimum((w >= cum).sum(axis=0), len(cum) - 1)


def _per_path_draws(ctx, seed, stream):
    """One path's events, marks, increments and varying-segment normals
    from its own draws: :func:`_path_events`, each event's driver from its
    thinning draw, or its continuous mark from w / total, and the
    ``brownian`` pairs.  Also returns the candidate count."""
    streams = RngStreamSpec(seed, stream)
    times, w, total, n_cand = _path_events(ctx, seed, stream)
    marks = np.zeros(0)
    if ctx.kind == "discrete" and times.size:  # no driver fires on a path without events
        marks = _reference_drivers(ctx, w, times)
    elif ctx.kind == "continuous":
        mm = ctx.mark_measure
        marks = (ctx.spec.jumps.density.ppf(w / total, times) if mm is None
                 else _reference_marks(mm, w / total, times))
    seg = ctx.segments
    K, D = seg.varies.shape
    n_dw, n_res = K * D, int(seg.varies.sum())
    z = box_muller(streams.uniforms("brownian", (n_dw + n_res + 1) // 2)).ravel()
    dw = z[:n_dw].reshape(K, D) * np.sqrt(seg.dt)[:, None]
    res = np.zeros((K, D))
    res[seg.varies] = z[n_dw:n_dw + n_res]
    return times, marks, dw, res, n_cand


def _draw_context(name, request):
    """A context for each way a block draws: thinning that rejects
    candidates on a time-varying discrete market, a cell measure's
    one-uniform marks, a market without jumps whose sigma varies inside
    segments and one without Brownians whose intensity varies."""
    if name == "time_varying":
        spec = request.getfixturevalue("time_varying_market")
        emm, _, _ = build_uplifted_emm(spec, request.getfixturevalue("batch_plan"))
        return SimulationContext(spec, [0.5, 1.0], density_emm=emm)
    if name == "cell_measure":
        spec = request.getfixturevalue("piecewise_mark_market")
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, _, _ = build_uplifted_emm(spec, plan)
        return SimulationContext(spec, [0.5, 1.0], measure_emm=emm)
    if name == "pure_jumps":
        return SimulationContext(_pure_jump_market(), [0.5, 1.0])
    return SimulationContext(_linear_sigma_market(), [0.5, 1.0])


DRAW_CONTEXTS = ["time_varying", "cell_measure", "no_jumps", "pure_jumps"]


def _same_bits(a, b) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes (or both are None)."""
    if a is None or b is None:
        return a is b
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestBlockDraws:
    @pytest.mark.parametrize("name", DRAW_CONTEXTS)
    def test_block_equals_per_path_draws(self, name, request):
        ctx = _draw_context(name, request)
        seed, first, count = 23, 40, 150
        block = _simulate_block(ctx, seed, first, count)
        ((_, _, res),) = _path_draws([ctx], seed, [_stream_ids(first, count)])
        n_cand = 0
        for p in range(count):
            times, marks, dw, res_p, cand = _per_path_draws(ctx, seed, first + p)
            lo, hi = block.ev_off[p], block.ev_off[p + 1]
            assert np.array_equal(block.ev_times[lo:hi], times), p
            assert np.array_equal(block.ev_marks[lo:hi], marks), p
            assert np.array_equal(block.dw[p], dw), p
            assert np.array_equal(res_p if res is None else res[p], res_p), p
            n_cand += cand
        if name == "no_jumps":
            assert block.ev_times.size == 0 and res is not None
        else:  # thinning rejected some candidates
            assert 0 < block.ev_times.size < n_cand

    @pytest.mark.parametrize("name", DRAW_CONTEXTS)
    def test_a_block_makes_at_most_two_kernel_calls(self, name, request, monkeypatch):
        ctx = _draw_context(name, request)
        calls = []
        kernel = upliftemm.philox.philox4x32

        def counted(counter, key):
            calls.append(np.broadcast_shapes(*(np.shape(c) for c in counter)))
            return kernel(counter, key)

        monkeypatch.setattr(upliftemm.philox, "philox4x32", counted)
        for stocks in (None, ()):
            calls.clear()
            block = _simulate_block(ctx, 23, 40, 150, stocks)
            # (1 + n_pairs, B), then (2, N_cand) when there are candidates
            assert len(calls) == (2 if block.ev_times.size else 1)
            assert calls[0][-1] == 150

    @pytest.mark.parametrize("market", ["three_stock", "theta_knots", "cell_measure"])
    def test_a_joint_block_draws_the_legs_counters_in_two_calls(
        self, market, request, monkeypatch
    ):
        # both two-route legs in one joint block: two kernel calls, exactly
        # the counters the legs draw alone, and the legs' blocks bit for bit
        if market == "cell_measure":
            spec = request.getfixturevalue("uniform_mark_market")
            plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        else:
            spec = (make_theta_knot_market() if market == "theta_knots"
                    else request.getfixturevalue("three_stock_market"))
            plan = request.getfixturevalue("neglect_plan")
        emm, _, _ = build_uplifted_emm(spec, plan)
        samples = [_Sample(SimulationContext(spec, [1.0], measure_emm=emm), 40),
                   _Sample(SimulationContext(spec, [1.0], density_emm=emm), 190)]
        normals = [s.ctx.segments.n_normals for s in samples]
        assert (normals[0] < normals[1]) == (market == "theta_knots")
        calls = []
        kernel = upliftemm.philox.philox4x32

        def counted(counter, key):
            words = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
            calls.append(np.stack([w.ravel() for w in words], axis=1))
            return kernel(counter, key)

        monkeypatch.setattr(upliftemm.philox, "philox4x32", counted)
        joint = list(_simulate_blocks(samples, 23, 0, 150))
        assert len(calls) == 2
        drawn = sorted(map(tuple, np.concatenate(calls).tolist()))
        calls.clear()
        alone = [_simulate_block(s.ctx, 23, s.first_stream, 150) for s in samples]
        assert len(calls) == 4
        assert drawn == sorted(map(tuple, np.concatenate(calls).tolist()))
        for (lo, k, block), one in zip(joint, alone):
            assert (lo, block.first_stream) == (0, samples[k].first_stream)
            for attr in ("dw", "ev_times", "ev_marks", "ev_off", "stocks", "z"):
                assert _same_bits(getattr(block, attr), getattr(one, attr)), (k, attr)

    @pytest.mark.parametrize("name", DRAW_CONTEXTS + ["constant"])
    def test_a_block_draws_one_counter_per_candidate(self, name, request, monkeypatch):
        # B (1 + n_pairs) count and Brownian counters and one per candidate,
        # on every market kind
        if name == "constant":
            ctx = SimulationContext(request.getfixturevalue("three_stock_market"), [1.0])
        else:
            ctx = _draw_context(name, request)
        B, seed, first = 150, 23, 40
        n_cand = np.zeros(B, dtype=np.int64)
        if ctx.count_table is not None:
            u_count = upliftemm.philox.uniforms(seed, "count", 0, _stream_ids(first, B))[0]
            n_cand = poisson_counts(ctx.count_table, u_count)
        want = B * (1 + (ctx.segments.n_normals + 1) // 2) + n_cand.sum()
        counters = []
        kernel = upliftemm.philox.philox4x32

        def counted(counter, key):
            counters.append(math.prod(np.broadcast_shapes(*(np.shape(c) for c in counter))))
            return kernel(counter, key)

        monkeypatch.setattr(upliftemm.philox, "philox4x32", counted)
        _simulate_block(ctx, seed, first, B)
        assert sum(counters) == want and len(counters) == (1 if name == "no_jumps" else 2)

    @pytest.mark.parametrize("name", DRAW_CONTEXTS + ["three_stock", "mixed_loadings"])
    def test_a_block_of_some_stocks_is_those_rows_of_the_full_block(self, name, request):
        # a subset of the stock rows, in any order, is those rows of the full
        # block bit for bit, and no row leaves the density and the counts
        if name in DRAW_CONTEXTS:
            ctx = _draw_context(name, request)
        else:
            spec = request.getfixturevalue("three_stock_market")
            emm, _, _ = build_uplifted_emm(spec, request.getfixturevalue("neglect_plan"))
            if name == "mixed_loadings":  # stock 1 alone reads a varying loading
                loadings = [list(row) for row in spec.jumps.loadings]
                loadings[1][0] = TimeFunction.samples([0.0, 1.0], [0.05, -0.1])
                spec = dataclasses.replace(
                    spec, jumps=DiscreteJumpSpec(spec.jumps.intensities, loadings))
            ctx = SimulationContext(spec, [0.5, 1.0], density_emm=emm)
        full = _simulate_block(ctx, 23, 40, 150)
        subsets = [(i,) for i in range(ctx.n)] + ([(2, 0)] if ctx.n == 3 else [])
        for stocks in subsets:
            block = _simulate_block(ctx, 23, 40, 150, stocks)
            assert _same_bits(block.stocks, full.stocks[:, list(stocks)]), stocks
            assert _same_bits(block.z, full.z), stocks
        dens = _simulate_block(ctx, 23, 40, 150, ())
        assert dens.stocks is None
        assert _same_bits(_block_counts(ctx, dens), _block_counts(ctx, full))
        for attr in ("z", "dw", "ev_times", "ev_marks", "ev_off"):
            assert _same_bits(getattr(dens, attr), getattr(full, attr)), attr

    @pytest.mark.parametrize("market, plan", [
        ("three_stock_market", "neglect_plan"),
        ("uniform_mark_market", "cell_plan"),
    ])
    def test_density_only_sample_matches_the_full_sample(
        self, market, plan, request, monkeypatch
    ):
        spec = request.getfixturevalue(market)
        plan = (
            ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
            if plan == "cell_plan" else request.getfixturevalue(plan)
        )
        emm, fict, fict_emm = build_uplifted_emm(spec, plan)

        def hook(times, marks, order):  # a per-event sum rides along unchanged
            return np.column_stack([times, np.asarray(marks, dtype=float)])

        full_ctx = SimulationContext(spec, [0.5, 1.0], density_emm=emm)
        n_paths, seed = _block_size(full_ctx) + 5, 61  # across a block boundary
        ((full, full_sums),) = _terminal_sample([_Sample(full_ctx, 9, None, hook)], n_paths, seed)

        def no_compensator(*args):
            raise AssertionError("a density-only sample integrated a compensator")

        monkeypatch.setattr(SimulationContext, "_jump_compensator", no_compensator)
        ctx = SimulationContext(spec, [0.5, 1.0], density_emm=emm)
        ((dens, dens_sums),) = _terminal_sample([_Sample(ctx, 9, (), hook)], n_paths, seed)
        assert dens.stocks is None and full.stocks is not None
        for name in ("z", "counts", "w_terminal"):
            assert np.array_equal(getattr(dens, name), getattr(full, name)), name
        assert np.array_equal(dens_sums, full_sums)
        # the checks that read only Z, counts and W_T build no stock path
        restriction_check(fict, emm, fict_emm, (MarketEvent("omega"),), 500, seed=3)
        density_mass_check(spec, emm, 500, seed=3)


def _events_block(paths, out, by_rank):
    """A block whose path p has the sorted event times ``paths[p]``, its
    event sums planned for the output times ``out`` by rank or by
    interval."""
    sizes = [len(times) for times in paths]
    times = np.array([t for path in paths for t in path], dtype=float)
    pid = np.repeat(np.arange(len(paths)), sizes)
    ev_off = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    block = _Block(pid, ev_off, times, np.zeros(times.size, dtype=np.int64))
    out = np.asarray(out, dtype=float)
    if by_rank:
        block.sums = _rank_plan(pid, ev_off, times, out)
    else:
        block.sums = _interval_plan(pid, times, out)
    return block


def _looped_event_sums(paths, values, out):
    """Each path's values summed one event at a time, in event order, up to
    each output time: the plain loop :func:`_event_sums` must equal."""
    values = np.asarray(values, dtype=float)
    rows = values.reshape(int(np.prod(values.shape[:-1])), values.shape[-1])
    sums = np.zeros((len(rows), len(paths), len(out)))
    for r, row in enumerate(rows):
        first = 0
        for p, times in enumerate(paths):
            for j, o in enumerate(out):
                total = 0.0
                for i, t in enumerate(times):
                    if t <= o:
                        total += float(row[first + i])
                sums[r, p, j] = total
            first += len(times)
    return sums.reshape(values.shape[:-1] + (len(paths), len(out)))


class TestEventSums:
    @pytest.mark.parametrize("by_rank", [False, True])
    @pytest.mark.parametrize("n_out", [1, 2, 9, 33, 252])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_edge_cases_match_the_loop(self, n_out, lead, by_rank):
        # outputs from 0 on; paths without events; events exactly at an
        # output time and after the last one
        out = np.linspace(0.0, 0.8, n_out) if n_out > 1 else np.array([0.8])
        rng = np.random.default_rng(n_out)
        paths = [
            [],
            [0.0, out[-1], 0.9, 1.0],
            sorted(rng.uniform(0.0, 1.0, 40)),
            [],
            sorted(rng.choice(out, 6).tolist() + [0.95]),
        ]
        n_events = sum(map(len, paths))
        scales = 10.0 ** rng.integers(-6, 7, n_events)
        values = rng.standard_normal(lead + (n_events,)) * scales
        block = _events_block(paths, out, by_rank)
        sums = _event_sums(block, values)
        assert sums.shape == lead + (len(paths), n_out) and sums.dtype == float
        assert np.array_equal(sums, _looped_event_sums(paths, values, out))

    @pytest.mark.parametrize("by_rank", [False, True])
    @pytest.mark.parametrize("paths", [[], [[], [], []], [[1.5], [], [2.0, 3.0]]])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_no_event_to_sum(self, paths, lead, by_rank):
        # an empty block, a block without events and one whose events all
        # come after the last output time: float zeros of the full shape
        n_events = sum(map(len, paths))
        values = np.ones(lead + (n_events,))
        sums = _event_sums(_events_block(paths, [0.0, 0.5, 1.0], by_rank), values)
        assert sums.shape == lead + (len(paths), 3) and sums.dtype == float
        assert np.all(sums == 0.0)

    @pytest.mark.parametrize("by_rank", [False, True])
    def test_an_output_at_zero_counts_the_events_at_zero(self, by_rank):
        block = _events_block([[0.0, 0.0, 0.3], [0.2]], [0.0], by_rank)
        sums = _event_sums(block, np.array([1.0, 2.0, 4.0, 8.0]))
        assert np.array_equal(sums, [[3.0], [0.0]])

    @pytest.mark.parametrize("market, plan", [
        ("three_stock_market", "neglect_plan"),
        ("time_varying_market", "batch_plan"),
    ])
    def test_last_output_ends_the_sums(self, market, plan, request):
        # the events after the last output time are never added, so an
        # output's column does not depend on the outputs after it
        spec = request.getfixturevalue(market)
        emm, _, _ = build_uplifted_emm(spec, request.getfixturevalue(plan))
        kw = dict(measure_emm=emm, density_emm=emm)
        half = simulate_terminal(spec, [0.5], 800, 17, **kw)
        both = simulate_terminal(spec, [0.5, 1.0], 800, 17, **kw)
        assert np.array_equal(half.stocks[:, :, 0], both.stocks[:, :, 0])
        assert np.array_equal(half.z[:, 0], both.z[:, 0])
        assert np.array_equal(half.counts, both.counts)

    @pytest.mark.parametrize("n_out, by_rank", [(1, False), (9, False), (33, True), (252, True)])
    def test_few_output_times_sum_by_interval(self, three_stock_market, neglect_plan, n_out, by_rank):
        # a block picks the interval plan while its output times are no
        # more than its most events on a path, else the rank plan; both
        # give the same bits
        emm, _, _ = build_uplifted_emm(three_stock_market, neglect_plan)
        ctx = SimulationContext(three_stock_market, np.linspace(0.0, 1.0, n_out + 1)[1:],
                                measure_emm=emm)
        block = _simulate_block(ctx, 7, 0, _block_size(ctx))
        assert (block.sums.at is not None) == by_rank
        values = _event_log_factors(ctx, block.ev_times, block.ev_marks, block.order)
        sums = _event_sums(block, values)
        args = block.pid, block.ev_off, block.ev_times, ctx.out_times
        block.sums = _interval_plan(args[0], *args[2:]) if by_rank else _rank_plan(*args)
        assert np.array_equal(_event_sums(block, values), sums)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_out=st.sampled_from([1, 2, 9, 33, 252]),
    lead=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**32 - 1),
    by_rank=st.booleans(),
)
def test_event_sums_add_each_path_in_event_order(data, n_out, lead, seed, by_rank):
    # running sums by output interval or by rank perform the same
    # additions, in the same order, as a loop over each path's events
    out = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_out, max_size=n_out)))
    time = st.floats(0.0, 1.25) | st.sampled_from(out)
    paths = data.draw(st.lists(st.lists(time, max_size=9).map(sorted), max_size=12))
    n_events = sum(map(len, paths))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(lead + (n_events,)) * 10.0 ** rng.integers(-8, 9, n_events)
    sums = _event_sums(_events_block(paths, out, by_rank), values)
    assert np.array_equal(sums, _looped_event_sums(paths, values, out))


class TestStockPathExactness:
    def test_pure_diffusion_closed_form(self):
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[0.05], rate=0.02, sigma=[[0.2]]
        )
        ctx = SimulationContext(spec, [1.0])
        bundle = simulate_path(ctx, RngStreamSpec(10, 0))
        w_T = bundle.dw.sum()
        expected = 100.0 * np.exp(0.2 * w_T + (0.05 - 0.02) * 1.0)
        assert bundle.stock_values[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_drift_only(self):
        spec = MarketSpec(horizon=2.0, s0=[10.0], alpha=[0.07], rate=0.0, sigma=[[0.0]])
        ctx = SimulationContext(spec, [2.0])
        bundle = simulate_path(ctx, RngStreamSpec(10, 1))
        assert bundle.stock_values[0, 0] == pytest.approx(
            10.0 * np.exp(0.14), rel=1e-14
        )

    def test_single_jump_compensated(self):
        lam, y = 1.0, 0.1
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.0], rate=0.0, sigma=[[0.0]],
            jumps=DiscreteJumpSpec(intensities=[lam], loadings=[[y]]),
        )
        ctx = SimulationContext(spec, [1.0])
        for sid in range(64):
            bundle = simulate_path(ctx, RngStreamSpec(11, sid))
            if len(bundle.event_times) == 1:
                break
        assert bundle.stock_values[0, 0] == pytest.approx(
            10.0 * np.exp(-y * lam) * 1.1, rel=1e-12
        )

    def test_bundle_recomputation_residual(self, three_stock_market):
        emm, _, _ = build_uplifted_emm(
            three_stock_market, DiscretePlan(retain=(0, 1), neglect=(2,))
        )
        ctx = SimulationContext(three_stock_market, [0.5, 1.0], measure_emm=emm)
        for sid in range(5):
            bundle = simulate_path(ctx, RngStreamSpec(12, sid))
            again = stock_path_exact(
                three_stock_market,
                bundle.event_times, bundle.event_marks,
                bundle.grid, bundle.dw, bundle.out_times,
                measure_emm=emm,
            )
            assert np.max(np.abs(again / bundle.stock_values - 1.0)) < 1e-12

    def test_drift_known_only_after_its_first_knot(self):
        # alpha's samples start at 0.4 and it is 0.5 before them as well
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], rate=0.0, sigma=[[0.2]],
            alpha=[{"samples": {"t": [0.4, 1.0], "v": [0.5, 0.5]}}],
        )
        vals = simulate_terminal(spec, [1.0], 20_000, 31).terminal_stocks()[:, 0]
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 100.0 * np.exp(0.5)) < 4 * se

    def test_pure_jump_market_without_brownians(self):
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.0], rate=0.0, sigma=[[]],
            jumps=DiscreteJumpSpec(intensities=[2.0], loadings=[[0.1]]),
        )
        sample = simulate_terminal(spec, [1.0], 10_000, 30)
        # alpha = 0: the compensated price is a martingale under P
        vals = sample.terminal_stocks()[:, 0]
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 10.0) < 4 * se
        assert sample.w_terminal.shape == (10_000, 0)

    def test_determinism_across_blocks_and_pool(
        self, three_stock_market, time_varying_market, uniform_mark_market,
        piecewise_mark_market,
    ):
        # Paths are simulated in blocks: a path's values must not depend on
        # the block it falls in, nor on where a run starts.
        markets = {
            "constant": (three_stock_market, DiscretePlan(retain=(0, 1), neglect=(2,))),
            "time_varying": (
                time_varying_market, DiscretePlan(retain=(0,), batches=((1, 2),))
            ),
            "continuous": (
                uniform_mark_market,
                ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True),
            ),
            # a time-varying cell measure: marks read a varying number of draws
            "cont_cells": (
                piecewise_mark_market,
                ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True),
            ),
        }
        times, seed, offset = [0.5, 1.0], 78, 40
        for label, (spec, plan) in markets.items():
            emm, _, _ = build_uplifted_emm(spec, plan)
            for kw in ({"measure_emm": emm}, {"density_emm": emm}):
                case = (label, *kw)
                ctx = SimulationContext(spec, times, **kw)
                size = _block_size(ctx)
                n_paths = size + 3
                whole = simulate_terminal(
                    spec, times, n_paths, seed, stream_offset=offset, **kw
                )
                for k in (0, size - 1, size, n_paths - 1):  # both sides of a boundary
                    bundle = simulate_path(ctx, RngStreamSpec(seed, offset + k))
                    assert np.array_equal(whole.stocks[k], bundle.stock_values), case
                    if whole.z is not None:
                        assert np.array_equal(whole.z[k], bundle.z_values), case
                    counts = (
                        [bundle.event_times.size] if label.startswith("cont")
                        else np.bincount(bundle.event_marks, minlength=spec.jumps.n_drivers)
                    )
                    assert np.array_equal(whole.counts[k], counts), case
                    w_in_order = np.cumsum(bundle.dw, axis=0)[-1]
                    assert np.array_equal(whole.w_terminal[k], w_in_order), case
                cut = size - 2
                head = simulate_terminal(
                    spec, times, cut, seed, stream_offset=offset, **kw
                )
                tail = simulate_terminal(
                    spec, times, n_paths - cut, seed, stream_offset=offset + cut, **kw
                )
                for field in ("stocks", "z", "counts", "w_terminal"):
                    if getattr(whole, field) is None:
                        continue
                    parts = [getattr(head, field), getattr(tail, field)]
                    joined = np.concatenate(parts)
                    assert np.array_equal(joined, getattr(whole, field)), (case, field)


def _linear_sigma_market(rate=0.0):
    """One stock, no jumps, sigma linear from 0.1 to 0.5 on [0, 1]:
    Var log S_1 = int sigma^2 dt = 0.31 / 3."""
    return MarketSpec(
        horizon=1.0, s0=[100.0], alpha=[rate], rate=rate,
        sigma=[[TimeFunction.samples([0.0, 1.0], [0.1, 0.5])]],
    )


def _pure_jump_market(lam=TimeFunction.samples([0.0, 1.0], [1.0, 3.0])):
    """Two stocks, no Brownians (``sigma`` []), two drivers, the first at
    intensity ``lam``."""
    return MarketSpec(
        horizon=1.0, s0=[100.0, 50.0], alpha=[0.05, 0.01], rate=0.02, sigma=[],
        jumps=DiscreteJumpSpec([lam, 0.5], [[0.1, -0.2], [-0.15, 0.05]]),
    )


class TestNoDrivers:
    # a market without jumps holds a jump spec with no drivers and one
    # without Brownians empty sigma rows; the engine runs both on its one path
    def test_no_jump_paths_are_geometric_brownian(self):
        spec = MarketSpec(horizon=1.0, s0=[100.0], alpha=[0.08], rate=0.03,
                          sigma=[[0.2]], jumps=DiscreteJumpSpec([], [[]]))
        sample = simulate_terminal(spec, [1.0], 500, master_seed=4)
        assert sample.counts.shape == (500, 0)
        want = 100.0 * np.exp(0.08 - 0.02 + 0.2 * sample.w_terminal[:, 0])
        assert np.allclose(sample.terminal_stocks()[:, 0], want, rtol=1e-12)

    def test_pure_jump_paths_are_jump_products(self):
        spec = _pure_jump_market(lam=2.0)
        sample = simulate_terminal(spec, [1.0], 500, master_seed=4)
        assert sample.w_terminal.shape == (500, 0)
        y, lam = np.array([[0.1, -0.2], [-0.15, 0.05]]), np.array([2.0, 0.5])
        want = (np.array(spec.s0) * np.exp(np.array([0.05, 0.01]) - y @ lam)
                * np.prod((1 + y)[None] ** sample.counts[:, None, :], axis=2))
        assert np.allclose(sample.terminal_stocks(), want, rtol=1e-12)
        assert sample.counts.sum() > 0

    def test_remainder_only_reduction_weights_brownian_paths(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(
                density=Density("truncnorm", (-0.5, 0.5), {"mu": 0.0, "sigma": 0.3}),
                total_intensity=4.0,
            ),
        )
        plan = ContinuousPlan(cells=(), neglect_remainder=True)
        _, fict, fict_emm = build_uplifted_emm(spec, plan)
        ctx = SimulationContext(fict.spec, [1.0], density_emm=fict_emm)
        ((sample, _),) = _terminal_sample([_Sample(ctx, 0, ())], 500, 9)
        theta = fict_emm.theta[0].constant_value
        want = np.exp(-theta * sample.w_terminal[:, 0] - 0.5 * theta ** 2)
        assert np.allclose(sample.z_terminal(), want, rtol=1e-12)


def _masked(fns, times, marks):
    """Each event's value of its driver's function, one mask per driver."""
    out = np.zeros(times.size)
    for m, fn in enumerate(fns):
        sel = marks == m
        out[sel] = fn.value(times[sel])
    return out


class TestExactSegments:
    # An interpolated coefficient is exact on every grid segment: the
    # segment's Brownian integrals are one Gaussian, not a left-end hold.

    def test_linear_sigma_log_variance_and_call(self):
        rate, total_var = 0.02, 0.31 / 3.0
        spec = _linear_sigma_market(rate)
        assert SimulationContext(spec, [1.0]).base_knots.tolist() == [0.0, 1.0]
        s_T = simulate_terminal(spec, [1.0], 100_000, 41).terminal_stocks()[:, 0]
        x = np.log(s_T / 100.0)
        v = x.var(ddof=1)
        se_v = np.sqrt(np.mean((x - x.mean()) ** 4) - v * v) / np.sqrt(len(x))
        assert abs(v - total_var) < 4 * se_v
        pay = np.exp(-rate) * np.maximum(s_T - 100.0, 0.0)
        exact = black_scholes_call(100.0, 100.0, rate, np.sqrt(total_var), 1.0)
        se = pay.std(ddof=1) / np.sqrt(len(pay))
        assert abs(pay.mean() - exact) < 4 * se

    def test_linear_theta_two_routes_agree(self):
        # alpha = r + sigma theta(t) makes the linear theta the market
        # price of risk; only the density route reads theta
        rate, sig = 0.02, 0.2
        theta = TimeFunction.samples([0.0, 1.0], [-0.5, 1.5])
        alpha = TimeFunction.samples([0.0, 1.0], [rate - 0.5 * sig, rate + 1.5 * sig])
        spec = MarketSpec(
            horizon=1.0, s0=[100.0], alpha=[alpha], rate=rate, sigma=[[sig]]
        )
        payoffs = {"call": Payoff.call(0, 100.0), "put": Payoff.put(0, 90.0)}
        report = two_route_check(spec, Emm(theta=(theta,)), payoffs, 100_000, 42)
        for line in report.lines:
            assert line.z < 4.0, line.label
        assert report.passed

    def test_bundles_share_the_context_grid(self):
        spec = MarketSpec(
            horizon=1.0, s0=[100.0, 50.0], alpha=[0.05, 0.03], rate=0.02,
            sigma=[
                [TimeFunction.piecewise([0.0, 0.3, 1.0], [0.2, 0.3]), 0.1],
                [TimeFunction.samples([0.0, 0.6, 1.0], [0.1, 0.2, 0.4]), 0.0],
            ],
            jumps=DiscreteJumpSpec(intensities=[3.0], loadings=[[0.1], [-0.1]]),
        )
        theta = (0.1, TimeFunction.samples([0.0, 0.8], [0.0, 0.4]))
        emm = Emm(theta=theta, intensities=(2.0,))
        knots = {
            "measure_emm": [0.0, 0.3, 0.5, 0.6, 1.0],  # sigma's and the outputs
            "density_emm": [0.0, 0.3, 0.5, 0.6, 0.8, 1.0],  # and theta's
        }
        for key, expected in knots.items():
            ctx = SimulationContext(spec, [0.5, 1.0], **{key: emm})
            assert ctx.base_knots.tolist() == expected
            n_events = 0
            for block, p, times, _ in block_rows(ctx, 43, 50):
                assert block.dw[p].shape == (len(expected) - 1, 2)
                n_events += times.size
            assert n_events > 50  # events do not join the grid

    def test_reference_refuses_interpolated_coefficients(self):
        spec = _linear_sigma_market()
        bundle = simulate_path(SimulationContext(spec, [1.0]), RngStreamSpec(44, 0))
        with pytest.raises(UndeterminedIntegral):
            stock_path_exact(
                spec, bundle.event_times, bundle.event_marks, bundle.grid,
                bundle.dw, bundle.out_times,
            )
        jumpy = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.0,
            sigma=[[TimeFunction.samples([0.0, 1.0], [0.1, 0.5])]],
            jumps=DiscreteJumpSpec(intensities=[1.0, 2.0], loadings=[[0.1, 0.2]]),
        )
        plan = DiscretePlan(retain=(0,), neglect=(1,))
        ctx = SimulationContext(reduce_market(jumpy, plan).spec, [1.0])
        retained = simulate_path(ctx, RngStreamSpec(44, 1))
        with pytest.raises(UndeterminedIntegral):
            project_price_closed_form(jumpy, plan, retained, 1.0)
        flat = MarketSpec(horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.0, sigma=[[0.2]])
        emm = Emm(theta=(TimeFunction.samples([0.0, 1.0], [0.0, 0.5]),))
        ctx = SimulationContext(flat, [1.0], density_emm=emm)
        with pytest.raises(UndeterminedIntegral):
            rn_density_path(flat, emm, simulate_path(ctx, RngStreamSpec(44, 2)))

    def test_reference_matches_step_coefficients_on_the_shared_grid(self):
        step = TimeFunction.piecewise([0.0, 0.4, 1.0], [0.2, 0.35])
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.05], rate=0.0, sigma=[[step]],
            jumps=DiscreteJumpSpec(intensities=[3.0], loadings=[[0.1]]),
        )
        lam_t = TimeFunction.piecewise([0.0, 0.7, 1.0], [2.0, 4.0])
        emm = Emm(theta=(step.scaled(0.5),), intensities=(lam_t,))
        ctx = SimulationContext(spec, [0.5, 1.0], density_emm=emm)
        for sid in range(5):
            bundle = simulate_path(ctx, RngStreamSpec(45, sid))
            again = stock_path_exact(
                spec, bundle.event_times, bundle.event_marks, bundle.grid,
                bundle.dw, bundle.out_times,
            )
            assert np.max(np.abs(again / bundle.stock_values - 1.0)) < 1e-12
            z = rn_density_path(spec, emm, bundle)
            assert np.max(np.abs(z / bundle.z_values - 1.0)) < 1e-12
        # on a continuous-mark market both stocks add the one row of mark factors
        cont = MarketSpec(
            horizon=1.0, s0=[10.0, 20.0], alpha=[0.05, 0.03], rate=0.0,
            sigma=[[step], [0.3]],
            jumps=ContinuousJumpSpec(
                density=Density("uniform", (-0.5, 0.5), {}), total_intensity=3.0
            ),
        )
        ctx = SimulationContext(cont, [0.5, 1.0])
        for sid in range(5):
            bundle = simulate_path(ctx, RngStreamSpec(45, sid))
            again = stock_path_exact(
                cont, bundle.event_times, bundle.event_marks, bundle.grid,
                bundle.dw, bundle.out_times,
            )
            assert np.max(np.abs(again / bundle.stock_values - 1.0)) < 1e-12

    def test_event_values_per_driver_match_masks(
        self, time_varying_market, batch_plan, monkeypatch
    ):
        # each function evaluated once on its own driver's events, in event
        # order or in the block's time order, gives bit for bit the values
        # of one mask per (function, driver) on the path-major times
        emm, _, _ = build_uplifted_emm(time_varying_market, batch_plan)
        fict = reduce_market(time_varying_market, batch_plan).spec
        assert not all(fn.is_constant for row in fict.jumps.loadings for fn in row)
        assert max(len(fn.t) for fn in emm.intensities) == 256  # the tv-batch shape
        cases = (
            (time_varying_market, {"density_emm": emm}),
            (fict, {}),
            (time_varying_market, {"measure_emm": emm}),
        )
        for spec, kw in cases:
            ctx = SimulationContext(spec, [1.0], **kw)
            assert ctx.sorts_events
            block = _simulate_block(ctx, 46, 0, 300)
            t, m, order = block.ev_times, block.ev_marks, block.order
            assert np.unique(m).size == spec.jumps.n_drivers
            assert np.all(np.diff(t[order]) >= 0.0)
            for fn, row in zip(ctx.sim_intensities, block.lam):
                assert np.array_equal(row, fn.value(t))
            ref = np.log1p([_masked(row, t, m) for row in spec.jumps.loadings])
            assert np.array_equal(_event_log_factors(ctx, t, m), ref)
            assert np.array_equal(_event_log_factors(ctx, t, m, order), ref)
            density = kw.get("density_emm")
            if density is not None:
                assert ctx.const_log_phi is None  # lambda_2 varies
                lam = _masked(spec.jumps.intensities, t, m)
                lam_t = _masked(density.intensities, t, m)
                want = np.log(lam_t / lam)
                assert np.array_equal(_event_log_phi(ctx, t, m), want)
                assert np.array_equal(_event_log_phi(ctx, t, m, order, block.lam), want)
        # hedging's jump leg under the uplifted measure reads a 256-piece
        # integrand in time order; reading it in event order changes no bit
        steps = np.linspace(0.0, 1.0, 257)
        integrand = tuple(
            TimeFunction.piecewise(steps, np.cos(k + 9.0 * steps[:-1])) for k in range(3)
        )
        strategy = Strategy(holdings=(0.5, 0.0, 0.0), jump_integrand=integrand, v0=1.0)
        payoff = Payoff.call(0, 100.0)
        orders = []

        def in_event_order(rows, times, marks, order=None):
            orders.append(order)
            return _per_driver(rows, times, marks)

        timed = hedging_error(time_varying_market, emm, strategy, payoff, 700, seed=47)
        monkeypatch.setattr(upliftemm.pricing, "_per_driver", in_event_order)
        again = hedging_error(time_varying_market, emm, strategy, payoff, 700, seed=47)
        assert orders and all(order is not None for order in orders)
        assert again.to_json() == timed.to_json()


@settings(max_examples=40, deadline=None)
@given(
    knots=st.integers(2, 513),
    size=st.sampled_from([1, 7, 300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_ordered_event_values_match_path_major(knots, size, seed):
    # a block sorts its events once; every per-driver read in that order
    # equals fn.value on the path-major times bit for bit
    grid = np.linspace(0.0, 1.0, knots)
    wave = np.sin(seed % 97 + 40.0 * grid)
    lam = (
        TimeFunction.samples(grid, 2.0 + wave),
        TimeFunction.constant(1.0),
        TimeFunction.samples(grid, 1.5 - 0.5 * wave),
    )
    steps = TimeFunction.piecewise(grid, 0.1 * wave[:-1])
    loadings = ((TimeFunction.samples(grid, 0.2 * wave), steps, -0.1),)
    spec = MarketSpec(
        horizon=1.0, s0=[1.0], alpha=[0.0], rate=0.0, sigma=[[0.2]],
        jumps=DiscreteJumpSpec(intensities=lam, loadings=loadings),
    )
    ctx = SimulationContext(spec, [1.0])
    assert ctx.sorts_events
    block = _simulate_block(ctx, seed, 0, size)
    t, m, order = block.ev_times, block.ev_marks, block.order
    if order is None:  # no candidate at all
        assert t.size == 0
        return
    assert np.array_equal(np.sort(order), np.arange(t.size))
    assert np.all(np.diff(t[order]) >= 0.0)
    for fn, row in zip(lam, block.lam):
        assert np.array_equal(row, fn.value(t))
    for fns in (lam, spec.jumps.loadings[0]):
        assert np.array_equal(_per_driver((fns,), t, m, order)[0], _masked(fns, t, m))


class TestDensityProcess:
    def test_identity_measure_change(self, three_stock_market):
        from upliftemm import physical_emm

        emm = physical_emm(three_stock_market)
        ctx = SimulationContext(three_stock_market, [1.0], density_emm=emm)
        bundle = simulate_path(ctx, RngStreamSpec(13, 0))
        assert bundle.z_values[0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_jump_path_closed_form(self):
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.0], rate=0.0, sigma=[[0.0]],
            jumps=DiscreteJumpSpec(intensities=[1.0], loadings=[[0.1]]),
        )
        emm = Emm(theta=(0.0,), intensities=(2.0,))
        ctx = SimulationContext(spec, [1.0], density_emm=emm)
        for sid in range(50):
            bundle = simulate_path(ctx, RngStreamSpec(14, sid))
            if len(bundle.event_times) == 0:
                break
        assert bundle.z_values[0] == pytest.approx(np.exp(-1.0), rel=1e-13)

    def test_density_mean_one(self, three_stock_market):
        emm, _, _ = build_uplifted_emm(
            three_stock_market, DiscretePlan(retain=(0, 1), neglect=(2,))
        )
        sample = simulate_terminal(
            three_stock_market, [1.0], 50_000, 15, density_emm=emm
        )
        z = sample.z_terminal()
        se = z.std(ddof=1) / np.sqrt(len(z))
        assert abs(z.mean() - 1.0) < 4 * se

    def test_recompute_matches_inline(self, three_stock_market):
        emm, _, _ = build_uplifted_emm(
            three_stock_market, DiscretePlan(retain=(0, 1), neglect=(2,))
        )
        ctx = SimulationContext(three_stock_market, [1.0], density_emm=emm)
        bundle = simulate_path(ctx, RngStreamSpec(16, 3))
        z = rn_density_path(three_stock_market, emm, bundle)
        assert z[0] == pytest.approx(bundle.z_values[0], rel=1e-14)

    def test_null_mark_raises(self):
        spec = MarketSpec(
            horizon=1.0, s0=[10.0], alpha=[0.0], rate=0.0, sigma=[[0.0]],
            jumps=DiscreteJumpSpec(intensities=[2.0], loadings=[[0.1]]),
        )
        bad = Emm(theta=(0.0,), intensities=(TimeFunction.constant(0.0),))
        ctx = SimulationContext(spec, [1.0])
        for sid in range(50):
            bundle = simulate_path(ctx, RngStreamSpec(17, sid))
            if len(bundle.event_times) > 0:
                break
        with pytest.raises(NullMark):
            rn_density_path(spec, bad, bundle)


class TestCompensatedMartingales:
    def test_count_compensation(self):
        lam = TimeFunction.samples([0.0, 1.0], [1.0, 2.0])  # integral 1.5
        excess = _sample_counts(lam, 1.0, 18, N_STAT) - 1.5
        se = excess.std(ddof=1) / np.sqrt(N_STAT)
        assert abs(excess.mean()) < 4 * se

    def test_compound_compensation(self):
        jumps = DiscreteJumpSpec(intensities=[2.0, 1.0], loadings=[[0.1, -0.3]])
        drift = 2.0 * 0.1 + 1.0 * (-0.3)  # per unit time
        vals = np.empty(N_STAT // 2)
        _, per_path = sample_marked_point_process(
            jumps, 1.0, RngStreamSpec(19, 0), n_streams=N_STAT // 2
        )
        for i, marks in enumerate(per_path):
            q = 0.1 * np.sum(marks == 0) - 0.3 * np.sum(marks == 1)
            vals[i] = q - drift
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) < 4 * se


class TestDoleansDade:
    def test_zero_process(self):
        path = JumpProcessPath(
            continuous_part=lambda t: 0.0,
            quadratic_variation=lambda t: 0.0,
            jump_times=np.zeros(0),
            jump_sizes=np.zeros(0),
        )
        assert doleans_dade_eval(path, 1.0) == 1.0

    def test_pure_drift(self):
        path = JumpProcessPath(
            continuous_part=lambda t: 0.07 * t,
            quadratic_variation=lambda t: 0.0,
            jump_times=np.zeros(0),
            jump_sizes=np.zeros(0),
        )
        assert doleans_dade_eval(path, 2.0) == pytest.approx(np.exp(0.14), rel=1e-14)

    def test_matches_stock_reconstruction(self, three_stock_market):
        # S_i / s0_i is the stochastic exponential of the return process
        spec = three_stock_market
        ctx = SimulationContext(spec, [1.0])
        bundle = simulate_path(ctx, RngStreamSpec(20, 4))
        i = 1
        sig = spec.sigma[i][0].constant_value
        w_T = float(bundle.dw.sum())
        lam = spec.jumps.intensity_values(0.0)
        ys = spec.jumps.loading_values(0.0)
        drift = spec.alpha[i].constant_value - float(ys[i] @ lam)
        jump_sizes = ys[i][bundle.event_marks]
        path = JumpProcessPath(
            continuous_part=lambda t: sig * w_T + drift * t,
            quadratic_variation=lambda t: sig * sig * t,
            jump_times=bundle.event_times,
            jump_sizes=jump_sizes,
        )
        value = spec.s0[i] * doleans_dade_eval(path, 1.0)
        assert value == pytest.approx(bundle.stock_values[i, 0], rel=1e-12)

    def test_factor_at_minus_one(self):
        path = JumpProcessPath(
            continuous_part=lambda t: 0.0,
            quadratic_variation=lambda t: 0.0,
            jump_times=np.array([0.5]),
            jump_sizes=np.array([-1.0]),
        )
        with pytest.raises(FactorAtMinusOne):
            doleans_dade_eval(path, 1.0)


class TestIntensityTest:
    def test_correct_simulation_passes(self):
        lam = TimeFunction.samples([0.0, 1.0], [1.0, 2.0])
        events = sample_poisson_inhomogeneous(lam, 1.0, RngStreamSpec(21, 0), 20_000)
        report = empirical_intensity_test(events, lam, 1.0)
        assert report.passed, report.max_bin_z

    def test_wrong_intensity_fails(self):
        lam = TimeFunction.samples([0.0, 1.0], [1.0, 2.0])
        events = sample_poisson_inhomogeneous(lam, 1.0, RngStreamSpec(22, 0), 20_000)
        report = empirical_intensity_test(events, lam.scaled(1.2), 1.0)
        assert not report.passed

    def test_too_few_paths_rejected(self):
        with pytest.raises(ValueError):
            empirical_intensity_test([], TimeFunction.constant(1.0), 1.0)
