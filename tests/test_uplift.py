import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import upliftemm
from upliftemm import (
    ContinuousJumpSpec,
    ContinuousPlan,
    Density,
    DiscretePlan,
    Emm,
    MarketSpec,
    DiscreteJumpSpec,
    TimeFunction,
    batch_weights,
    build_uplifted_emm,
    physical_emm,
    reduce_market,
    solve_unique_emm,
    uplift_continuous,
    uplift_discrete,
    uplift_general,
    verify_uplift,
)
from upliftemm.errors import (
    InvalidIntensities,
    NotComplete,
    PlanMismatch,
    ShapeMismatch,
)
from upliftemm.uplift import CellMeasure, cell_index

from conftest import (
    EXCESS,
    INTENSITIES,
    LOADINGS,
    RATE,
    SIGMA,
    cell_probabilities,
    make_four_driver_market,
    make_piecewise_mark_market,
    make_three_stock_market,
    make_uniform_mark_market,
)

# probe times between the nodes of the default 256-point check grid
PROBE = np.linspace(0.0, 1.0, 20_001)


class TestCompleteNeglectUplift:
    def test_appends_physical_intensity(self, three_stock_market, neglect_plan):
        emm, fict, fict_emm = build_uplifted_emm(three_stock_market, neglect_plan)
        assert emm.theta[0].constant_value == pytest.approx(0.5, abs=1e-12)
        values = [fn.constant_value for fn in emm.intensities]
        assert values[:2] == pytest.approx([1.5, 1.2], abs=1e-12)
        # the neglected driver keeps its physical intensity object
        assert emm.intensities[2] is three_stock_market.jumps.intensities[2]

    def test_nothing_neglected_is_fictitious_solution(self, three_stock_market):
        # make the original complete by dropping the third driver entirely
        spec = MarketSpec(
            horizon=1.0, s0=three_stock_market.s0, alpha=three_stock_market.alpha,
            rate=RATE, sigma=three_stock_market.sigma,
            jumps=DiscreteJumpSpec(
                intensities=INTENSITIES[:2],
                loadings=[row[:2] for row in LOADINGS],
            ),
        )
        plan = DiscretePlan(retain=(0, 1))
        emm, _, fict_emm = build_uplifted_emm(spec, plan)
        assert emm.theta == fict_emm.theta
        assert emm.intensities == fict_emm.intensities

    def test_brownian_reduction_pads_theta_with_zeros(self):
        # two stocks, three Brownians, no jumps: keep the first two columns
        spec = MarketSpec(
            horizon=1.0, s0=[10.0, 20.0],
            alpha=[0.06, 0.03], rate=0.02,
            sigma=[[0.2, 0.0, 0.1], [0.1, 0.3, 0.05]],
        )
        plan = DiscretePlan(keep_brownians=(0, 1))
        emm, fict, fict_emm = build_uplifted_emm(spec, plan)
        assert len(emm.theta) == 3
        assert emm.theta[2].constant_value == 0.0
        # theta~ = truncated-sigma^{-1} (alpha - r), the complete-market solution
        sig = np.array([[0.2, 0.0], [0.1, 0.3]])
        expected = np.linalg.solve(sig, np.array([0.04, 0.01]))
        got = [emm.theta[0].constant_value, emm.theta[1].constant_value]
        assert np.allclose(got, expected, atol=1e-12)
        assert verify_uplift(emm, spec).max_residual < 1e-12

    def test_sequential_equals_one_shot(self):
        # four drivers, neglect two of them, uplift one at a time
        spec = make_four_driver_market()
        one_shot, _, fict_emm = build_uplifted_emm(
            spec, DiscretePlan(retain=(0, 1), neglect=(2, 3))
        )
        # sequential: first extend to drivers {0, 1, 2}, then to all four
        mid = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=RATE, sigma=spec.sigma,
            jumps=DiscreteJumpSpec(
                intensities=spec.jumps.intensities[:3],
                loadings=tuple(row[:3] for row in spec.jumps.loadings),
            ),
        )
        step1 = uplift_discrete(
            fict_emm, reduce_market(mid, DiscretePlan(retain=(0, 1), neglect=(2,)))
        )
        step2 = uplift_discrete(
            step1, reduce_market(spec, DiscretePlan(retain=(0, 1, 2), neglect=(3,)))
        )
        assert step2.theta == one_shot.theta
        assert step2.intensities == one_shot.intensities

    def test_incomplete_fictitious_market_refused(self, three_stock_market):
        plan = DiscretePlan(retain=(0,), neglect=(1, 2))
        with pytest.raises(NotComplete), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            build_uplifted_emm(three_stock_market, plan)

    def test_nonpositive_solution_refused(self):
        y, lam, sigma = 0.2, 1.0, 0.25
        alpha = RATE + sigma * 0.3 + (lam - (-0.5)) * y
        spec = MarketSpec(
            horizon=1.0, s0=[1.0, 1.0], alpha=[alpha, RATE], rate=RATE,
            sigma=[[sigma], [0.4]],
            jumps=DiscreteJumpSpec(intensities=[lam], loadings=[[y], [0.0]]),
        )
        with pytest.raises(InvalidIntensities):
            solve_unique_emm(spec)


class TestBatchUplift:
    def test_members_split_by_weight(self, three_stock_market, batch_plan):
        emm, fict, fict_emm = build_uplifted_emm(three_stock_market, batch_plan)
        gamma_star = fict_emm.intensities[1].constant_value
        vals = [fn.constant_value for fn in emm.intensities]
        assert vals[1] == pytest.approx(gamma_star * 0.25, abs=1e-14)
        assert vals[2] == pytest.approx(gamma_star * 0.75, abs=1e-14)
        assert verify_uplift(emm, three_stock_market).passed

    def test_no_premium_batch_keeps_physical(self):
        # alpha built so the batch solves exactly to gamma* = gamma
        spec = make_three_stock_market()
        gamma, deltas = batch_weights(spec, (1, 2))
        ybar = [
            sum(d.constant_value * LOADINGS[i][m] for d, m in zip(deltas, (1, 2)))
            for i in range(3)
        ]
        theta, lam0_star = 0.4, 1.7
        alpha = [
            RATE + SIGMA[i] * theta + (2.0 - lam0_star) * LOADINGS[i][0] + 0.0 * ybar[i]
            for i in range(3)
        ]
        spec = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=alpha, rate=RATE, sigma=spec.sigma,
            jumps=spec.jumps,
        )
        emm, _, fict_emm = build_uplifted_emm(
            spec, DiscretePlan(retain=(0,), batches=((1, 2),))
        )
        assert fict_emm.intensities[1].constant_value == pytest.approx(4.0, abs=1e-12)
        assert emm.intensities[1].constant_value == pytest.approx(1.0, abs=1e-12)
        assert emm.intensities[2].constant_value == pytest.approx(3.0, abs=1e-12)

    def test_weight_ratios_preserved_time_varying(self, time_varying_market):
        grid = np.linspace(0.0, 1.0, 256)
        plan = DiscretePlan(retain=(0,), batches=((1, 2),))
        emm, fict, fict_emm = build_uplifted_emm(time_varying_market, plan, grid)
        gamma_star = np.atleast_1d(fict_emm.intensities[1].value(grid))
        jumps = time_varying_market.jumps
        gamma = np.atleast_1d(jumps.intensities[1].value(grid)) + np.atleast_1d(
            jumps.intensities[2].value(grid)
        )
        for m in (1, 2):
            lam_m_star = np.atleast_1d(emm.intensities[m].value(grid))
            lam_m = np.atleast_1d(jumps.intensities[m].value(grid))
            assert np.max(np.abs(lam_m_star / gamma_star - lam_m / gamma)) < 1e-12

    def test_piecewise_batch_is_exact_between_nodes(self, three_stock_market):
        # lambda_2 steps at 0.4: the batch weights, the per-piece solve and
        # the members' shares of gamma* are all step functions
        lam2 = TimeFunction.piecewise([0.0, 0.4, 1.0], [3.0, 2.0])
        spec = MarketSpec(
            horizon=1.0, s0=three_stock_market.s0, alpha=three_stock_market.alpha,
            rate=RATE, sigma=three_stock_market.sigma,
            jumps=DiscreteJumpSpec(intensities=[2.0, 1.0, lam2], loadings=LOADINGS),
        )
        plan = DiscretePlan(retain=(0,), batches=((1, 2),))
        emm, _, fict_emm = build_uplifted_emm(spec, plan)
        assert fict_emm.intensities[1].kind == "piecewise"
        for fn in emm.intensities[1:]:
            assert fn.kind == "piecewise"
            assert fn.breakpoints().tolist() == [0.0, 0.4, 1.0]
        rep = verify_uplift(emm, spec, PROBE)
        assert rep.passed, rep.max_residual

    def test_trinomial_structure(self):
        # one retained driver and one 2-member batch: the solved vector
        # (theta*, lam0*, gamma*) maps to (theta*, lam0*, gamma* d, gamma* (1-d))
        spec = make_three_stock_market()
        plan = DiscretePlan(retain=(0,), batches=((1, 2),))
        emm, fict, fict_emm = build_uplifted_emm(spec, plan)
        gamma_star = fict_emm.intensities[1].constant_value
        delta = INTENSITIES[1] / (INTENSITIES[1] + INTENSITIES[2])
        assert emm.intensities[1].constant_value == pytest.approx(
            gamma_star * delta, abs=1e-13
        )
        assert emm.intensities[2].constant_value == pytest.approx(
            gamma_star * (1 - delta), abs=1e-13
        )


class TestContinuousUplift:
    def test_uniform_two_cell_density_values(self, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5)))
        given = Emm(theta=(0.0,), intensities=(1.5, 3.5))  # probabilities .3/.7
        emm = uplift_continuous(given, reduce_market(uniform_mark_market, plan))
        f = emm.jump_measure.density_value
        assert f(-0.25) == pytest.approx(0.6, abs=1e-12)
        assert f(0.25) == pytest.approx(1.4, abs=1e-12)

    def test_physical_probabilities_reproduce_density(self, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5)))
        given = Emm(theta=(0.0,), intensities=(2.0, 2.0))
        emm = uplift_continuous(given, reduce_market(uniform_mark_market, plan))
        ys = np.linspace(-0.49, 0.49, 33)
        base = uniform_mark_market.jumps.density
        assert np.allclose(emm.jump_measure.density_value(ys), base.pdf(ys), atol=1e-12)

    def test_cell_masses_and_means_against_quadrature(self, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5)))
        given = Emm(theta=(0.0,), intensities=(1.5, 3.5))
        emm = uplift_continuous(given, reduce_market(uniform_mark_market, plan))
        mm = emm.jump_measure
        fict = reduce_market(uniform_mark_market, plan)
        probs = cell_probabilities(mm, 0.0)
        for k, (a, b) in enumerate(plan.cells):
            mass, _ = quad(lambda y: mm.density_value(y), a, b)
            assert mass == pytest.approx(probs[k], abs=1e-8)
            num, _ = quad(lambda y: y * mm.density_value(y), a, b)
            loading = fict.spec.jumps.loadings[0][k].constant_value
            assert num / mass == pytest.approx(loading, abs=1e-8)
        total, _ = quad(
            lambda y: mm.density_value(y), -0.5, 0.5, points=[0.0], limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_reweighted_density_vanishes_off_the_support(self):
        # the base density has a zero-mass bin: the reweighted density must
        # be zero there too (equivalent measures share null sets)
        from upliftemm import ContinuousJumpSpec, Density

        base = Density(
            "histogram", (0.0, 1.0),
            {"edges": [0.0, 0.3, 0.6, 1.0], "weights": [0.5, 0.0, 0.5]},
        )
        spec = MarketSpec(
            horizon=1.0, s0=[10.0, 20.0], alpha=[0.05, 0.03], rate=0.02,
            sigma=[[0.2], [0.3]],
            jumps=ContinuousJumpSpec(density=base, total_intensity=2.0),
        )
        plan = ContinuousPlan(cells=((0.0, 0.3), (0.3, 1.0)))
        given = Emm(theta=(0.0,), intensities=(0.8, 1.1))
        emm = uplift_continuous(given, reduce_market(spec, plan))
        assert emm.jump_measure.density_value(0.45) == 0.0
        assert emm.jump_measure.density_value(1.5) == 0.0

    def test_shared_cell_edge_belongs_to_first_cell(self):
        cells = ((-0.5, 0.0), (0.0, 0.5))
        assert cell_index(cells, [-0.5, 0.0, 0.25, 0.5, 0.7]).tolist() == [0, 0, 1, 1, -1]

    def test_remainder_keeps_physical_measure(self, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        given = Emm(theta=(0.0,), intensities=(1.0,))
        emm = uplift_continuous(given, reduce_market(uniform_mark_market, plan))
        mm = emm.jump_measure
        # phi = d(lambda~)/d(lambda) is one on the remainder
        assert mm.phi(0.25, 0.0) == pytest.approx(1.0, abs=1e-12)
        # total = 1.0 (cell) + 4 * 0.5 (physical remainder)
        assert mm.total_intensity(0.0) == pytest.approx(3.0, abs=1e-12)

    def test_end_to_end_two_stock_remainder_market(self):
        spec = make_uniform_mark_market()
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, fict, fict_emm = build_uplifted_emm(spec, plan)
        rep = verify_uplift(emm, spec)
        assert rep.passed, rep.max_residual


def _table_bases():
    """Non-uniform bases whose cell quantities move in the last bit when
    summed region by region: time-varying truncnorm and truncexp, and a
    histogram."""
    return [
        Density("truncnorm", (-0.6, 0.6), {
            "mu": TimeFunction.samples([0.0, 1.0], [0.1, -0.1]), "sigma": 0.3}),
        Density("truncexp", (-0.6, 0.6), {
            "rate": TimeFunction.piecewise([0.0, 0.5, 1.0], [2.0, -1.5])}),
        Density("histogram", (-0.6, 0.6), {
            "edges": [-0.6, -0.1, 0.2, 0.6], "weights": [0.3, 0.5, 0.2]}),
    ]


def _per_cell_reference(mm, y, t):
    """The per-cell formulas the region table replaced, at marks y and
    times t: total intensity, phi and mean jump intensity at each t[j], and
    the density at y[j] and t[j]."""
    base, phys = mm.base, mm.physical_intensity.value(t)
    lams = [fn.value(t) for fn in mm.cell_intensities]
    mass = [base.mass(a, b, t) for a, b in mm.cells]
    total, mean = sum(lams), 0.0
    covered, cell_part = sum(mass), 0.0
    for (a, b), lam, m in zip(mm.cells, lams, mass):
        cell_mean = base._partial_moment(a, b, t) / m
        mean, cell_part = mean + lam * cell_mean, cell_part + m * cell_mean
    total = total + phys * np.maximum(1.0 - covered, 0.0)
    mean = mean + phys * (base.mean(t) - cell_part)
    idx = cell_index(mm.cells, y)
    phi = np.ones(y.shape)
    dens = base.pdf(y, t) * phys / total
    for k, (lam, m) in enumerate(zip(lams, mass)):
        sel = idx == k
        phi[sel] = lam[sel] / (phys * m)[sel]
        dens[sel] = (base.pdf(y, t) * (lam / total) / m)[sel]
    return total, phi, mean, dens


class TestCellTable:
    """CellMeasure's quantities, all read from one table of each region's
    intensity, mass and lower CDF edge."""

    CELLS = ((-0.5, -0.2), (0.0, 0.35))

    def _measures(self):
        lams = (TimeFunction.samples([0.0, 1.0], [1.0, 2.0]), TimeFunction.constant(1.5))
        phys = TimeFunction.piecewise([0.0, 0.5, 1.0], [6.0, 9.0])
        for base in _table_bases():
            yield CellMeasure(base=base, physical_intensity=phys, cells=self.CELLS,
                              cell_intensities=lams, remainder_physical=True)

    @pytest.mark.parametrize("k", range(3))
    def test_table_matches_per_cell_formulas(self, k):
        mm = list(self._measures())[k]
        t = np.linspace(0.0, 1.0, 41)
        y = np.linspace(-0.6, 0.6, 41)
        total, phi, mean, _ = _per_cell_reference(mm, y, t)
        assert np.abs(mm.total_intensity(t) - total).max() < 1e-12
        assert np.abs(mm.phi_values(y, t) - phi).max() < 1e-12
        assert np.abs(mm.mean_jump_intensity(t) - mean).max() < 1e-12
        for tj in (0.0, 0.3, 0.9):
            dens = _per_cell_reference(mm, y, np.full(y.shape, tj))[3]
            assert np.abs(mm.density_value(y, tj) - dens).max() < 1e-12

    def test_phi_is_one_on_the_remainder(self):
        y = np.array([-0.6, -0.55, -0.1, -0.01, 0.4, 0.6])  # in the gaps
        t = np.linspace(0.0, 1.0, len(y))
        for mm in self._measures():
            assert (cell_index(mm.cells, y) == -1).all()
            assert (mm.phi_values(y, t) == 1.0).all()

    def test_cell_probabilities_sum_the_gaps(self):
        for mm in self._measures():
            rates = mm._table(0.3)[0][:, 0]
            assert len(rates) == 5  # two cells, three gaps
            want = np.append(rates[:2], rates[2:].sum()) / rates.sum()
            assert np.abs(cell_probabilities(mm, 0.3) - want).max() < 1e-15


def _marks_in_event_rows(mm, u, times):
    """CellMeasure.marks_from_uniforms on an (n, R) layout: each event's
    shares in a contiguous row, added in region order and normalised by
    the row's np.sum; also returns the (n, R) cumulative shares."""
    rates, mass, lo = mm._table(times)
    probs = np.ascontiguousarray((rates / rates.sum(axis=0)).T)
    cum = np.cumsum(probs, axis=1) / probs.sum(axis=1, keepdims=True)
    k = np.minimum((cum < u[:, None]).sum(axis=1), len(rates) - 1)
    col = np.arange(times.size)
    below = np.where(k > 0, cum[col, k - 1], 0.0)
    width = cum[col, k] - below
    q = np.divide(u - below, width, out=np.zeros(u.shape), where=width > 0.0)
    lo, mass = (np.broadcast_to(x, rates.shape)[k, col] for x in (lo, mass))
    marks = mm.base.ppf(lo + np.clip(q, 0.0, 1.0) * mass, times)
    return np.clip(marks, *mm._regions[k].T), cum


@pytest.mark.parametrize("n_cells, remainder", [(n, False) for n in range(1, 8)] + [(3, True)])
def test_cell_marks_match_the_event_row_layout(n_cells, remainder):
    # below 8 regions numpy sums a row of shares in region order, as the
    # cumulative sum does, so the (R, n) layout's marks are the same bits,
    # draws on a cumulative share and just beside it included
    edges = np.linspace(-0.55, 0.55, n_cells + 1)
    cells = tuple((a + 0.01, b - 0.01) for a, b in zip(edges[:-1], edges[1:]))
    mm = CellMeasure(
        base=_table_bases()[0],
        physical_intensity=TimeFunction.piecewise([0.0, 0.5, 1.0], [6.0, 9.0]),
        cells=cells,
        cell_intensities=tuple(
            TimeFunction.samples([0.0, 1.0], [1.0 + k, 2.0 + 0.3 * k]) for k in range(n_cells)
        ),
        remainder_physical=remainder,
    )
    assert len(mm._regions) == (2 * n_cells + 1 if remainder else n_cells) <= 7
    rng = np.random.default_rng(n_cells)
    times = rng.random(400)
    cum = _marks_in_event_rows(mm, rng.random(times.size), times)[1]
    on = cum[np.arange(times.size), rng.integers(0, cum.shape[1], times.size)]
    times = np.tile(times, 4)
    u = np.concatenate([rng.random(on.size), on, np.nextafter(on, 0.0), np.nextafter(on, 2.0)])
    keep = u <= 1.0
    u, times = u[keep], times[keep]
    want = _marks_in_event_rows(mm, u, times)[0]
    assert mm.marks_from_uniforms(u, times).tobytes() == want.tobytes()


class TestDiscreteUplift:
    """One uplift serves every discrete plan: complete neglect is the plan
    with no batches."""

    def test_retain_batch_and_neglect_together(self):
        spec = make_four_driver_market()
        plan = DiscretePlan(retain=(0,), batches=((1, 2),), neglect=(3,))
        emm, _, fict_emm = build_uplifted_emm(spec, plan)
        assert emm.provenance == "uplift: batching"
        assert emm.intensities[0] is fict_emm.intensities[0]
        # the neglected driver carries no premium: exactly the physical rate
        assert emm.intensities[3] is spec.jumps.intensities[3]
        # the members share gamma* in their physical proportion 1 : 3
        gamma = fict_emm.intensities[1].constant_value
        shares = [emm.intensities[m].constant_value for m in (1, 2)]
        assert sum(shares) == pytest.approx(gamma, rel=1e-14)
        assert shares[1] == pytest.approx(3.0 * shares[0], rel=1e-14)
        assert verify_uplift(emm, spec).passed

    def test_complete_neglect_builds_no_grid(
        self, three_stock_market, neglect_plan, monkeypatch
    ):
        fict = reduce_market(three_stock_market, neglect_plan)
        fict_emm = solve_unique_emm(fict.spec)

        def no_grid(*args, **kwargs):
            raise AssertionError("complete neglect built a grid")

        monkeypatch.setattr(upliftemm.uplift, "default_grid", no_grid)
        emm = uplift_discrete(fict_emm, fict)
        assert emm.provenance == "uplift: complete neglect"

    def test_continuous_market_rejected(self):
        # a typed error, not AttributeError on the market's missing intensities
        spec = make_uniform_mark_market()
        for uplift in (uplift_discrete, uplift_general):
            with pytest.raises(PlanMismatch):
                uplift(Emm(theta=(0.1,)), reduce_market(spec, DiscretePlan()))


class TestUpliftReadsTheReduction:
    def test_batch_weights_derived_once_per_batch(self, monkeypatch):
        # the uplift splits gamma* by the reduction's own weights
        spec = make_four_driver_market()
        plan = DiscretePlan(batches=((0, 1), (2, 3)))
        original = upliftemm.reduction.batch_weights
        calls = []

        def counted(spec, batch, grid=None):
            calls.append(batch)
            return original(spec, batch, grid)

        for module in (upliftemm.reduction, upliftemm.uplift):
            if getattr(module, "batch_weights", None) is original:
                monkeypatch.setattr(module, "batch_weights", counted)
        emm, _, _ = build_uplifted_emm(spec, plan)
        assert calls == [(0, 1), (2, 3)]
        assert verify_uplift(emm, spec).passed

    def test_reduction_of_the_other_kind_refused(self, three_stock_market):
        discrete = reduce_market(three_stock_market, DiscretePlan(retain=(0, 1), neglect=(2,)))
        cells = reduce_market(
            make_uniform_mark_market(), ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        )
        given = Emm(theta=(0.0,), intensities=(1.0, 1.0))
        with pytest.raises(PlanMismatch, match="discrete plans apply"):
            uplift_discrete(given, cells)
        with pytest.raises(PlanMismatch, match="cell plans apply"):
            uplift_continuous(given, discrete)


class TestGeneralDispatch:
    def test_discrete_dispatch_matches_specialized(self, three_stock_market):
        plan = DiscretePlan(retain=(0,), batches=((1, 2),))
        fict = reduce_market(three_stock_market, plan)
        fict_emm = solve_unique_emm(fict.spec)
        via_general = uplift_general(fict_emm, fict)
        via_discrete = uplift_discrete(fict_emm, fict)
        assert via_general.theta == via_discrete.theta
        assert via_general.intensities == via_discrete.intensities

    def test_plan_kind_checked(self, three_stock_market, uniform_mark_market):
        plan = ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5)))
        given = Emm(theta=(0.0,), intensities=(1.0, 1.0))
        with pytest.raises(PlanMismatch):
            uplift_continuous(given, reduce_market(three_stock_market, plan))


class TestVerify:
    def test_perturbed_intensity_fails(self, three_stock_market, neglect_plan):
        emm, _, _ = build_uplifted_emm(three_stock_market, neglect_plan)
        tampered = Emm(
            theta=emm.theta,
            intensities=(
                emm.intensities[0],
                emm.intensities[1],
                TimeFunction.constant(emm.intensities[2].constant_value + 0.1),
            ),
        )
        rep = verify_uplift(tampered, three_stock_market)
        assert not rep.passed
        min_loading = np.min(np.abs(np.array(LOADINGS)[:, 2]))
        assert rep.max_residual >= 0.1 * min_loading - 1e-12

    def test_physical_measure_on_zero_premium_market(self):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.05], rate=0.05, sigma=[[0.2]],
            jumps=DiscreteJumpSpec(intensities=[2.0], loadings=[[0.0]]),
        )
        rep = verify_uplift(physical_emm(spec), spec)
        assert rep.max_residual == 0.0

    def test_canonical_uplift_residual_tiny(self, three_stock_market, neglect_plan):
        emm, _, _ = build_uplifted_emm(three_stock_market, neglect_plan)
        assert verify_uplift(emm, three_stock_market).max_residual < 1e-12


class TestGridwiseTimeVarying:
    def test_grid_solution_matches_per_time_construction(self, time_varying_market):
        grid = np.linspace(0.0, 1.0, 256)
        plan = DiscretePlan(retain=(0,), batches=((1, 2),))
        emm, fict, fict_emm = build_uplifted_emm(time_varying_market, plan, grid)
        # constructed targets: theta = 0.5, lam0* = 1.5, gamma* = 0.8 gamma(t)
        theta_vals = np.atleast_1d(emm.theta[0].value(grid))
        assert np.max(np.abs(theta_vals - 0.5)) < 1e-12
        lam0 = np.atleast_1d(emm.intensities[0].value(grid))
        assert np.max(np.abs(lam0 - 1.5)) < 1e-12
        gamma = 2.0 + grid
        gamma_star = np.atleast_1d(fict_emm.intensities[1].value(grid))
        assert np.max(np.abs(gamma_star - 0.8 * gamma)) < 1e-11
        assert verify_uplift(emm, time_varying_market, grid).passed


class TestBetweenNodes:
    """The solved measure must hold between the check grid's nodes too."""

    def test_cont_cells_intensity_step_is_exact(self, piecewise_mark_market):
        # total intensity 4 on [0, 0.5), 5 after: the solved cell intensity
        # steps at 0.5 instead of being interpolated across the step
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, _, _ = build_uplifted_emm(piecewise_mark_market, plan)
        (cell,) = emm.jump_measure.cell_intensities
        assert cell.kind == "piecewise"
        assert cell.breakpoints().tolist() == [0.0, 0.5, 1.0]
        assert verify_uplift(emm, piecewise_mark_market).max_residual < 1e-7
        assert verify_uplift(emm, piecewise_mark_market, PROBE).max_residual < 1e-7

    def test_alpha_step_off_the_grid_is_exact(self, three_stock_market):
        # theta* steps at 0.3001, between the nodes 76/255 and 77/255
        alpha = [
            TimeFunction.piecewise([0.0, 0.3001, 1.0], [a, a + 0.1 * s])
            for a, s in zip(EXCESS + RATE, SIGMA)
        ]
        spec = MarketSpec(
            horizon=1.0, s0=three_stock_market.s0, alpha=alpha, rate=RATE,
            sigma=three_stock_market.sigma, jumps=three_stock_market.jumps,
        )
        emm, _, _ = build_uplifted_emm(spec, DiscretePlan(retain=(0, 1), neglect=(2,)))
        assert emm.theta[0].breakpoints().tolist() == [0.0, 0.3001, 1.0]
        assert emm.theta[0].v == pytest.approx([0.5, 0.6], abs=1e-12)
        rep = verify_uplift(emm, spec, PROBE)
        assert rep.passed, rep.max_residual

    def test_step_density_parameter_is_exact(self, uniform_mark_market):
        # mu steps at 0.4003, between the nodes 102/255 and 103/255: the cell
        # intensity and mean are steps there, not samples across the step
        mu = TimeFunction.piecewise([0.0, 0.4003, 1.0], [-0.1, 0.1])
        spec = MarketSpec(
            horizon=1.0, s0=uniform_mark_market.s0, alpha=uniform_mark_market.alpha,
            rate=RATE, sigma=uniform_mark_market.sigma,
            jumps=ContinuousJumpSpec(
                density=Density("truncnorm", (-0.5, 0.5), {"mu": mu, "sigma": 0.3}),
                total_intensity=4.0,
            ),
        )
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, fict, _ = build_uplifted_emm(spec, plan)
        jumps = fict.spec.jumps
        for fn in (jumps.intensities[0], jumps.loadings[0][0]):
            assert fn.kind == "piecewise"
            assert fn.breakpoints().tolist() == [0.0, 0.4003, 1.0]
        rep = verify_uplift(emm, spec, PROBE)
        assert rep.passed, rep.max_residual

    def test_residual_between_nodes_is_reported(self, uniform_mark_market):
        # a time-varying density has no closed-form solve: the grid solve
        # interpolates across the intensity step at 0.5003, and the check's
        # segment midpoint 0.5 sees it although every node is solved exactly
        mu = TimeFunction.samples([0.0, 1.0], [-0.1, 0.1])
        spec = MarketSpec(
            horizon=1.0, s0=uniform_mark_market.s0, alpha=uniform_mark_market.alpha,
            rate=RATE, sigma=uniform_mark_market.sigma,
            jumps=ContinuousJumpSpec(
                density=Density("truncnorm", (-0.5, 0.5), {"mu": mu, "sigma": 0.2}),
                total_intensity=TimeFunction.piecewise([0.0, 0.5003, 1.0], [4.0, 5.0]),
            ),
        )
        plan = ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
        emm, _, _ = build_uplifted_emm(spec, plan)
        grid = np.linspace(0.0, 1.0, 256)
        rep = verify_uplift(emm, spec, grid)
        # a one-node grid has no midpoint: the two nodes around the step hold
        at_nodes = [verify_uplift(emm, spec, grid[[k]]) for k in (127, 128)]
        assert max(r.max_residual for r in at_nodes) < rep.tolerance < rep.max_residual


class TestVerifyShapes:
    def test_missing_intensities_on_a_discrete_market(self, three_stock_market):
        emm = Emm(theta=(0.5,))
        message = "0 driver intensities; the market needs 3"
        with pytest.raises(ShapeMismatch, match=message):
            verify_uplift(emm, three_stock_market)

    def test_theta_count_differs_from_brownians(self, three_stock_market):
        emm = Emm(theta=(0.5, 0.0), intensities=(1.5, 1.2, 3.0))
        message = "2 theta functions; the market needs 1"
        with pytest.raises(ShapeMismatch, match=message):
            verify_uplift(emm, three_stock_market)

    def test_continuous_market_without_jump_measure(self, uniform_mark_market):
        with pytest.raises(ShapeMismatch, match="0 jump measures; the market needs 1"):
            verify_uplift(Emm(theta=(0.0,)), uniform_mark_market)


def test_verify_reads_sigma_once_per_check_grid(monkeypatch, time_varying_market):
    plan = DiscretePlan(retain=(0,), batches=((1, 2),))
    emm, _, _ = build_uplifted_emm(time_varying_market, plan)
    calls = []
    original = MarketSpec.sigma_values

    def counted(self, t):
        calls.append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(MarketSpec, "sigma_values", counted)
    assert verify_uplift(emm, time_varying_market).passed
    assert calls == [256 + 255]  # the nodes and the segment midpoints


NO_SCIPY_SCRIPT = """
import sys
import upliftemm
from upliftemm import (
    ContinuousJumpSpec, ContinuousPlan, Density, DiscretePlan, MarketSpec,
    build_uplifted_emm, simulate_terminal, verify_uplift,
)
from conftest import make_three_stock_market, make_uniform_mark_market

for spec, plan in (
    (make_three_stock_market(), DiscretePlan(retain=(0, 1), neglect=(2,))),
    (make_uniform_mark_market(),
     ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)),
):
    emm, _, _ = build_uplifted_emm(spec, plan)
    assert verify_uplift(emm, spec).passed
    for route in ({"measure_emm": emm}, {"density_emm": emm}, {}):
        simulate_terminal(spec, [0.5, 1.0], 50, 1, **route)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)

base = make_uniform_mark_market()
spec = MarketSpec(
    horizon=1.0, s0=base.s0, alpha=base.alpha, rate=base.rate, sigma=base.sigma,
    jumps=ContinuousJumpSpec(
        density=Density("truncnorm", (-0.5, 0.5), {"mu": 0.0, "sigma": 0.2}),
        total_intensity=4.0,
    ),
)
dens = spec.jumps.density
print(dens.mass(-0.5, 0.0), dens.mass(0.0, 0.5))
emm, _, _ = build_uplifted_emm(
    spec, ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
)
assert verify_uplift(emm, spec).passed
"""


def _run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports the package from
    this checkout and the fixtures from conftest; return its stdout."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_pipeline_load_no_scipy():
    # a symmetric truncated normal puts half its mass on each side of 0
    masses = [float(x) for x in _run_fresh(NO_SCIPY_SCRIPT).split()]
    assert masses == pytest.approx([0.5, 0.5], abs=1e-12)


COLD_START_SCRIPT = """
import sys
from upliftemm.io import market_from_json, market_to_json
from upliftemm.reduction import ContinuousPlan, DiscretePlan
from upliftemm.uplift import build_uplifted_emm, verify_uplift
from conftest import make_three_stock_market, make_uniform_mark_market

for spec, plan in (
    (make_three_stock_market(), DiscretePlan(retain=(0, 1), neglect=(2,))),
    (make_uniform_mark_market(),
     ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)),
):
    spec = market_from_json(market_to_json(spec))
    emm, _, _ = build_uplifted_emm(spec, plan)
    assert verify_uplift(emm, spec).passed
engine = ("pricing", "stochastic", "blocks", "philox", "cli")
print(" ".join(m for m in engine if "upliftemm." + m in sys.modules))
"""


def test_pipeline_loads_no_engine():
    # reduce -> solve -> uplift -> verify_uplift is deterministic: it must
    # not pay for compiling the Monte Carlo engine
    assert _run_fresh(COLD_START_SCRIPT).split() == []


# the package's exported names by owning submodule
PACKAGE_EXPORTS = {
    "densities": ("Density",),
    "errors": (
        "BudgetExceeded", "EmptyCell", "EmptyRetention", "InvalidIntensities",
        "NonpositiveGamma", "NonReducedEvent", "NotComplete", "NullMark",
        "PlanMismatch", "QuadratureFailure", "ShapeMismatch",
        "UnboundedIntensity", "UpliftError",
    ),
    "model": (
        "ContinuousJumpSpec", "DiscreteJumpSpec", "MarketSpec",
        "ValidationReport", "default_grid", "validate_market",
    ),
    "mpr": (
        "MarketClassification", "MprSystem", "assemble_mpr_system",
        "classify_over_grid", "solve_mpr",
    ),
    "pricing": (
        "MarketEvent", "McReport", "Payoff", "Strategy",
        "cost_of_construction_check", "density_mass_check", "hedging_error",
        "martingale_check", "price_mc", "projection_consistency_check",
        "restriction_check", "two_route_check", "zweighted_price_mc",
    ),
    "reduction": (
        "ContinuousPlan", "DiscretePlan", "FictitiousMarket", "batch_weights",
        "reduce_continuous", "reduce_discrete", "reduce_market",
    ),
    "stochastic": (
        "DEFAULT_SEED", "PathBundle", "RngStreamSpec",
        "sample_marked_point_process", "sample_poisson_inhomogeneous",
        "simulate_path", "simulate_terminal",
    ),
    "timefns": ("TimeFunction", "adaptive_simpson", "integrate_product"),
    "uplift": (
        "CellMeasure", "Emm", "physical_emm", "solve_unique_emm",
        "build_uplifted_emm", "uplift_discrete",
        "uplift_continuous", "uplift_general", "verify_uplift",
    ),
}
EXPORTED = sorted(name for names in PACKAGE_EXPORTS.values() for name in names)

STAR_SCRIPT = """
from upliftemm import *
names = sorted(name for name in dir() if not name.startswith("__"))
import sys
import upliftemm
# a submodule no exported name lives in loads on first access too
assert "upliftemm.cli" not in sys.modules
assert upliftemm.cli is sys.modules["upliftemm.cli"]
print(" ".join(names))
"""


def test_package_namespace_resolves_each_name_to_its_owner():
    for module, names in PACKAGE_EXPORTS.items():
        owner = importlib.import_module(f"upliftemm.{module}")
        for name in names:
            assert getattr(upliftemm, name) is getattr(owner, name), name
    assert sorted(upliftemm.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(upliftemm))
    assert upliftemm.pricing is importlib.import_module("upliftemm.pricing")
    with pytest.raises(AttributeError, match="no_such_name"):
        upliftemm.no_such_name
    assert _run_fresh(STAR_SCRIPT).split() == EXPORTED
