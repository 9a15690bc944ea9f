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
    rn_density_path,
    sample_marked_point_process,
    sample_poisson_inhomogeneous,
    simulate_path,
    simulate_terminal,
    stock_path_exact,
    two_route_check,
)
from upliftemm.errors import (
    FactorAtMinusOne,
    NullMark,
    UnboundedIntensity,
    UndeterminedIntegral,
)
import upliftemm.philox
import upliftemm.pricing
from upliftemm.blocks import (
    _block_size,
    _event_log_factors,
    _event_log_phi,
    _path_draws,
    _per_driver,
    _simulate_block,
    _stream_ids,
)
from upliftemm.philox import box_muller, poisson_counts
from upliftemm.stochastic import SimulationContext, _terminal_sample, iterate_bundles
from upliftemm.timefns import adaptive_simpson, integrate_product
from upliftemm.uplift import COLLAPSE_ULPS, CellMeasure, _solved_fn

from conftest import (
    JumpProcessPath,
    doleans_dade_eval,
    empirical_intensity_test,
    project_price_closed_form,
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
                    sample_marked_point_process(
                        spec.jumps, 1.0, RngStreamSpec(3, sid), _ctx=ctx
                    )

    def test_nonfinite_intensity_rejected(self):
        with pytest.raises(UnboundedIntensity):
            sample_poisson_inhomogeneous(
                TimeFunction.constant(np.inf), 1.0, RngStreamSpec(1, 0)
            )


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
    region (a cell, then a gap the cells leave in the support) whose
    cumulative probability reaches u[0, j], then the base quantile u[1, j]
    between that region's CDF edges."""
    regions = list(mm.cells)
    if mm.remainder_physical:
        edges = [mm.base.support[0], *sorted(x for c in mm.cells for x in c),
                 mm.base.support[1]]
        regions += [(a, b) for a, b in zip(edges[::2], edges[1::2]) if b > a]
    marks = np.empty(len(times))
    for j, t in enumerate(times):
        t = float(t)
        rates = [float(fn.value(t)) for fn in mm.cell_intensities]
        total = sum(rates)
        if mm.remainder_physical:
            covered = sum(mm.base.mass(a, b, t) for a, b in mm.cells)
            phys = float(mm.physical_intensity.value(t))
            total = sum([*rates, phys * max(1.0 - covered, 0.0)])
            rates += [phys * mm.base.mass(a, b, t) for a, b in regions[len(mm.cells):]]
        probs = np.asarray(rates) / total
        cum = np.cumsum(probs) / probs.sum()
        k = int(min(np.searchsorted(cum, u[0, j], side="left"), len(probs) - 1))
        lo, hi = mm.base.cdf(regions[k][0], t), mm.base.cdf(regions[k][1], t)
        marks[j] = mm.base.ppf(lo + u[1, j] * (hi - lo), t)
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


def _uniforms(seed, stream, n):
    """A path's mark uniforms, one counter per event: one row to pick the
    region, one for the quantile."""
    return RngStreamSpec(seed, stream).uniforms("marks", n)


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
            bundles = iterate_bundles(
                spec, [0.5, 1.0], n_paths, seed, measure_emm=emm, stream_offset=offset
            )
            for k, bundle in enumerate(bundles):
                times = bundle.event_times
                u = _uniforms(seed, offset + k, times.size)
                ref = _reference_marks(mm, u, times)
                assert np.array_equal(bundle.event_marks, ref), k
                n_remainder += np.sum(mm.phi_values(bundle.event_marks, times) == 1.0)
            assert n_remainder > 5
            # the one-path sampler reads the same rule
            times = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 40))
            got = ctx.sample_marks(RngStreamSpec(5, 2), times)
            assert np.array_equal(got, _reference_marks(mm, _uniforms(5, 2, 40), times))

    @pytest.mark.parametrize("t", [0.2, 0.75])
    def test_marks_follow_reweighted_density(self, t):
        n = 100_000
        for i, (base, _, mm) in enumerate(_varying_cell_measures()):
            u = np.random.default_rng(40 + i).uniform(size=(2, n))
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
        bundles = iterate_bundles(spec, [1.0], n_paths, 8, measure_emm=emm)
        for k, bundle in enumerate(bundles):
            got = ctx.sample_marks(RngStreamSpec(8, k), bundle.event_times)
            assert np.array_equal(bundle.event_marks, got), k
            n_remainder += np.sum(mm.phi_values(got, bundle.event_times) == 1.0)
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


def _per_path_draws(ctx, seed, stream):
    """One path's events, marks, increments and varying-segment normals
    from its own ``RngStreamSpec.uniforms(role, n)`` draws: count 0, then
    candidate j's ``event_times`` counter j (the sorted times take the
    thinning uniforms in counter order), event l's ``marks`` counter l and
    the ``brownian`` pairs.  Also returns the candidate count."""
    streams = RngStreamSpec(seed, stream)
    times, n_cand = np.zeros(0), 0
    if ctx.kind != "none" and ctx.majorant > 0.0:
        n_cand = int(poisson_counts(ctx.count_cdf, streams.uniforms("count", 1)[0])[0])
        t, thin = streams.uniforms("event_times", n_cand)
        cand = np.sort(ctx.horizon * t)
        times = cand[thin * ctx.majorant <= _total_intensity(ctx, cand)]
    marks = ctx.sample_marks(streams, times) if ctx.kind != "none" else np.zeros(0)
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
    two-uniform marks, and a market without jumps whose sigma varies
    inside segments."""
    if name == "time_varying":
        spec = request.getfixturevalue("time_varying_market")
        emm, _, _ = build_uplifted_emm(spec, request.getfixturevalue("batch_plan"))
        return SimulationContext(spec, [0.5, 1.0], density_emm=emm)
    if name == "cell_measure":
        spec = request.getfixturevalue("piecewise_mark_market")
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, _, _ = build_uplifted_emm(spec, plan)
        return SimulationContext(spec, [0.5, 1.0], measure_emm=emm)
    return SimulationContext(_linear_sigma_market(), [0.5, 1.0])


DRAW_CONTEXTS = ["time_varying", "cell_measure", "no_jumps"]


class TestBlockDraws:
    @pytest.mark.parametrize("name", DRAW_CONTEXTS)
    def test_block_equals_per_path_draws(self, name, request):
        ctx = _draw_context(name, request)
        seed, first, count = 23, 40, 150
        block = _simulate_block(ctx, seed, first, count)
        _, _, res = _path_draws(ctx, seed, _stream_ids(first, count))
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
        for stocks in (True, False):
            calls.clear()
            block = _simulate_block(ctx, 23, 40, 150, stocks)
            # (1 + n_pairs, B), then (2, N_cand) when there are candidates
            assert len(calls) == (2 if block.ev_times.size else 1)
            assert calls[0][-1] == 150

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
        full, full_sums = _terminal_sample(full_ctx, n_paths, seed, 9, hook)

        def no_compensator(*args):
            raise AssertionError("a density-only sample integrated a compensator")

        monkeypatch.setattr(SimulationContext, "_jump_compensator", no_compensator)
        ctx = SimulationContext(spec, [0.5, 1.0], density_emm=emm)
        dens, dens_sums = _terminal_sample(ctx, n_paths, seed, 9, hook, stocks=False)
        assert dens.stocks is None and full.stocks is not None
        for name in ("z", "counts", "w_terminal"):
            assert np.array_equal(getattr(dens, name), getattr(full, name)), name
        assert np.array_equal(dens_sums, full_sums)
        # the checks that read only Z, counts and W_T build no stock path
        restriction_check(
            spec, plan, emm, fict_emm, (MarketEvent("omega"),), 500, seed=3, fict=fict
        )
        density_mass_check(spec, emm, 500, seed=3)


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
                        else bundle.counts_by_driver(spec.jumps.n_drivers)
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
            for bundle in iterate_bundles(spec, [0.5, 1.0], 50, 43, **{key: emm}):
                assert np.array_equal(bundle.grid, ctx.base_knots)
                assert bundle.dw.shape == (len(expected) - 1, 2)
                n_events += bundle.event_times.size
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
