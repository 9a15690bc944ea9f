"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds at the stated
tolerance (run with ``pytest -s`` to see them); a failure keeps the
criterion name in the pytest report.  Statistical criteria use fixed
seeds, so the whole suite is reproducible bit for bit.
"""

import json
import time

import numpy as np
import pytest

from upliftemm import (
    ContinuousPlan,
    DiscreteJumpSpec,
    DiscretePlan,
    Emm,
    MarketEvent,
    MarketSpec,
    Payoff,
    RngStreamSpec,
    Strategy,
    TimeFunction,
    assemble_mpr_system,
    build_uplifted_emm,
    hedging_error,
    martingale_check,
    price_mc,
    projection_consistency_check,
    reduce_market,
    restriction_check,
    sample_marked_point_process,
    sample_poisson_inhomogeneous,
    simulate_terminal,
    solve_mpr,
    uplift_discrete,
    verify_uplift,
)
import upliftemm.blocks
from upliftemm.cli import verify_suite
from upliftemm.io import dump_json

from conftest import (
    LOADINGS,
    RATE,
    TARGET_SOLUTION,
    cell_probabilities,
    empirical_intensity_test,
    make_three_stock_market,
    make_time_varying_market,
    make_uniform_mark_market,
)
from test_mpr import reduced_system_spec
from test_pricing import black_scholes_call, jump_mixture_call

N_FULL = 100_000


def report(name: str, detail: str = ""):
    print(f"PASS {name}" + (f"  [{detail}]" if detail else ""))


@pytest.fixture(scope="module")
def canonical():
    spec = make_three_stock_market()
    plan = DiscretePlan(retain=(0, 1), neglect=(2,))
    emm, fict, fict_emm = build_uplifted_emm(spec, plan)
    return spec, plan, emm, fict, fict_emm


def test_mpr_solver_recovers_constructed_solution():
    spec = reduced_system_spec()
    system = assemble_mpr_system(spec, 0.0)
    solve_mpr(system)  # warm-up, excluded from the timing
    t0 = time.perf_counter()
    cls = solve_mpr(system)
    elapsed = time.perf_counter() - t0
    assert cls.tag == "Complete"
    assert np.allclose(cls.solution, TARGET_SOLUTION, atol=1e-10)
    assert cls.residual < 1e-10
    assert elapsed < 1e-3
    report(
        "mpr_solver_recovers_constructed_solution",
        f"residual {cls.residual:.1e}, {elapsed * 1e6:.0f}us",
    )


def test_complete_neglect_uplift_solves_original_equations(canonical):
    spec, plan, emm, fict, fict_emm = canonical
    # the neglected driver carries no premium: exactly the physical rate
    assert emm.intensities[2] is spec.jumps.intensities[2]
    ver = verify_uplift(emm, spec)
    assert ver.max_residual < 1e-12

    # sequential one-at-a-time extension equals the one-shot uplift exactly
    spec4 = MarketSpec(
        horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=RATE, sigma=spec.sigma,
        jumps=DiscreteJumpSpec(
            intensities=[2.0, 1.0, 3.0, 0.5],
            loadings=[
                [0.1, -0.2, 0.2, 0.15],
                [0.05, 0.1, -0.15, 0.3],
                [-0.1, 0.3, 0.25, -0.2],
            ],
        ),
    )
    one_shot, _, fict_emm4 = build_uplifted_emm(
        spec4, DiscretePlan(retain=(0, 1), neglect=(2, 3))
    )
    mid = MarketSpec(
        horizon=1.0, s0=spec4.s0, alpha=spec4.alpha, rate=RATE, sigma=spec4.sigma,
        jumps=DiscreteJumpSpec(
            intensities=spec4.jumps.intensities[:3],
            loadings=tuple(row[:3] for row in spec4.jumps.loadings),
        ),
    )
    seq = uplift_discrete(
        uplift_discrete(
            fict_emm4, reduce_market(mid, DiscretePlan(retain=(0, 1), neglect=(2,)))
        ),
        reduce_market(spec4, DiscretePlan(retain=(0, 1, 2), neglect=(3,))),
    )
    assert seq.theta == one_shot.theta
    assert seq.intensities == one_shot.intensities
    report(
        "complete_neglect_uplift_solves_original_equations",
        f"residual {ver.max_residual:.1e}",
    )


def test_batch_weights_preserved_on_grid():
    grid = np.linspace(0.0, 1.0, 256)
    plan = DiscretePlan(retain=(0,), batches=((1, 2),))
    worst = 0.0
    for spec in (make_three_stock_market(), make_time_varying_market()):
        emm, fict, fict_emm = build_uplifted_emm(spec, plan, grid)
        gamma_star = np.atleast_1d(fict_emm.intensities[1].value(grid))
        jumps = spec.jumps
        gamma = np.atleast_1d(jumps.intensities[1].value(grid)) + np.atleast_1d(
            jumps.intensities[2].value(grid)
        )
        for m in (1, 2):
            ratio = np.atleast_1d(emm.intensities[m].value(grid)) / gamma_star
            weight = np.atleast_1d(jumps.intensities[m].value(grid)) / gamma
            worst = max(worst, float(np.max(np.abs(ratio - weight))))
    assert worst < 1e-12
    report("batch_weights_preserved_on_grid", f"max deviation {worst:.1e}")


def test_reweighted_density_integrates_correctly():
    from scipy.integrate import quad

    t0 = time.perf_counter()
    spec = make_uniform_mark_market()
    plan = ContinuousPlan(cells=((-0.5, 0.0), (0.0, 0.5)))
    given = Emm(theta=(0.0,), intensities=(1.5, 3.5))
    from upliftemm import reduce_market, uplift_continuous

    emm = uplift_continuous(given, reduce_market(spec, plan))
    fict = reduce_market(spec, plan)
    mm = emm.jump_measure
    probs = cell_probabilities(mm, 0.0)
    total, _ = quad(lambda y: mm.density_value(y), -0.5, 0.5, points=[0.0], limit=200)
    assert abs(total - 1.0) < 1e-8
    for k, (a, b) in enumerate(plan.cells):
        mass, _ = quad(lambda y: mm.density_value(y), a, b)
        assert abs(mass - probs[k]) < 1e-8
        num, _ = quad(lambda y: y * mm.density_value(y), a, b)
        loading = fict.spec.jumps.loadings[0][k].constant_value
        assert abs(num / mass - loading) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("reweighted_density_integrates_correctly", f"{elapsed:.2f}s")


def test_measure_change_two_routes_agree(canonical):
    spec, plan, emm, fict, fict_emm = canonical
    t0 = time.perf_counter()
    weighted = simulate_terminal(spec, [1.0], N_FULL, 301, density_emm=emm)
    direct = simulate_terminal(
        spec, [1.0], N_FULL, 301, measure_emm=emm, stream_offset=N_FULL
    )
    z = weighted.z_terminal()
    se_z = z.std(ddof=1) / np.sqrt(N_FULL)
    assert abs(z.mean() - 1.0) < 4 * se_z

    payoffs = {
        "terminal_0": Payoff.terminal(0),
        "terminal_1": Payoff.terminal(1),
        "terminal_2": Payoff.terminal(2),
        "capped_call": Payoff.linear(
            [(1.0, Payoff.call(0, 100.0)), (-1.0, Payoff.call(0, 170.0))]
        ),
    }
    zs = {}
    for label, payoff in payoffs.items():
        va = z * payoff.values(weighted, spec)
        vb = payoff.values(direct, spec)
        diff = va.mean() - vb.mean()
        se = np.hypot(va.std(ddof=1), vb.std(ddof=1)) / np.sqrt(N_FULL)
        zs[label] = abs(diff) / se
        assert abs(diff) < 4 * se, (label, diff, se)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "measure_change_two_routes_agree",
        f"EZ z={abs(z.mean() - 1) / se_z:.2f}, "
        f"max payoff z={max(zs.values()):.2f}, {elapsed:.0f}s",
    )


def test_martingale_suite_for_every_measure(canonical):
    spec, plan, emm, *_ = canonical
    batch_emm, *_ = build_uplifted_emm(
        spec, DiscretePlan(retain=(0,), batches=((1, 2),))
    )
    tv_spec = make_time_varying_market()
    tv_emm, *_ = build_uplifted_emm(
        tv_spec, DiscretePlan(retain=(0,), batches=((1, 2),))
    )
    cont_spec = make_uniform_mark_market()
    cont_emm, *_ = build_uplifted_emm(
        cont_spec, ContinuousPlan(cells=((-0.5, 0.0),), neglect_remainder=True)
    )
    cases = [
        ("complete_neglect", spec, emm),
        ("batched", spec, batch_emm),
        ("time_varying_batched", tv_spec, tv_emm),
        ("continuous_remainder", cont_spec, cont_emm),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for label, market, measure in cases:
        check = martingale_check(market, measure, N_FULL, seed=302)
        assert check.passed, (label, check.details)
        worst = max(worst, max(v["z"] for v in check.details.values()))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        "martingale_suite_for_every_measure",
        f"max z {worst:.2f} over {len(cases)} measures, {elapsed:.0f}s",
    )


def test_restriction_to_reduced_information(canonical):
    spec, plan, emm, fict, fict_emm = canonical
    events = (
        MarketEvent("omega"),
        MarketEvent("no_driver0_events", count_eq=((0, 0),)),
        MarketEvent("one_and_zero", count_eq=((0, 1), (1, 0))),
        MarketEvent("brownian_positive", brownian_gt=((0, 0.0),)),
    )
    check = restriction_check(fict, emm, fict_emm, events, N_FULL, seed=303)
    assert check.passed, [ln.to_json() for ln in check.lines]
    report(
        "restriction_to_reduced_information",
        "max z " + format(max(ln.z for ln in check.lines), ".2f"),
    )


def test_projected_price_matches_conditional_mc(canonical):
    spec, plan, *_ = canonical
    check = projection_consistency_check(
        reduce_market(spec, plan), n_outer=100, n_inner=10_000, t=0.5, seed=304
    )
    assert check.passed, check.max_z

    # negative control: dropping the neglected compensator factor must fail
    lam3, t = 3.0, 0.5
    y3 = np.array([row[2] for row in LOADINGS])
    wrong_mean = check.inner_mean_factors * np.exp(-y3 * lam3 * t)
    wrong_z = np.abs(wrong_mean - 1.0) / check.inner_se_factors
    assert np.max(wrong_z) > 4.0
    report(
        "projected_price_matches_conditional_mc",
        f"max z {check.max_z:.2f}, control z {np.max(wrong_z):.0f}",
    )


def test_pricing_matches_closed_forms():
    s0, r, sigma, t, k = 100.0, 0.03, 0.2, 1.0, 105.0
    diffusion = MarketSpec(
        horizon=t, s0=[s0], alpha=[0.08], rate=r, sigma=[[sigma]]
    )
    emm = Emm(theta=((0.08 - r) / sigma,))
    rep = price_mc(diffusion, emm, Payoff.call(0, k), N_FULL, seed=305)
    target = black_scholes_call(s0, k, r, sigma, t)
    z1 = abs(rep.estimate - target) / rep.std_error
    assert z1 < 4.0

    lam, lam_tilde, y, theta = 3.0, 2.0, 0.1, 0.3
    alpha = r + sigma * theta + (lam - lam_tilde) * y
    jump_spec = MarketSpec(
        horizon=t, s0=[s0], alpha=[alpha], rate=r, sigma=[[sigma]],
        jumps=DiscreteJumpSpec(intensities=[lam], loadings=[[y]]),
    )
    emm2 = Emm(theta=(theta,), intensities=(lam_tilde,))
    rep2 = price_mc(jump_spec, emm2, Payoff.call(0, k), N_FULL, seed=306)
    target2 = jump_mixture_call(s0, k, r, sigma, t, lam_tilde, y)
    z2 = abs(rep2.estimate - target2) / rep2.std_error
    assert z2 < 4.0
    report("pricing_matches_closed_forms", f"z diffusion {z1:.2f}, z jump {z2:.2f}")


def test_hedging_error_behaviour(canonical):
    spec, plan, emm, *_ = canonical
    buy_hold = Strategy(holdings=(1.0, 0.0, 0.0), v0=spec.s0[0])
    rep = hedging_error(spec, emm, buy_hold, Payoff.terminal(0), 10_000, seed=307)
    assert rep.error.estimate == 0.0 and rep.error.std_error == 0.0

    jump_leg = Strategy(
        holdings=(0.0, 0.0, 0.0), jump_integrand=(0.5, -0.25, 0.0), v0=0.0
    )
    rep2 = hedging_error(
        spec, emm, jump_leg, Payoff.linear([], discounted=False), N_FULL, seed=308
    )
    assert abs(rep2.gain.estimate) < 4 * rep2.gain.std_error
    assert rep2.gain_is_unpriced
    report(
        "hedging_error_behaviour",
        f"replication exact, gain z "
        f"{abs(rep2.gain.estimate) / rep2.gain.std_error:.2f}",
    )


def test_driver_statistics():
    lam = TimeFunction.samples([0.0, 1.0], [1.0, 2.0])
    events = sample_poisson_inhomogeneous(lam, 1.0, RngStreamSpec(309, 0), N_FULL)
    intensity_report = empirical_intensity_test(events, lam, 1.0)
    assert intensity_report.passed, intensity_report.max_bin_z

    jumps = DiscreteJumpSpec(intensities=[1.0, 3.0], loadings=[[0.1, 0.2]])
    pairs = np.empty((N_FULL, 2))
    _, per_path = sample_marked_point_process(
        jumps, 1.0, RngStreamSpec(310, 0), n_streams=N_FULL
    )
    for i, marks in enumerate(per_path):
        pairs[i] = [np.sum(marks == 0), np.sum(marks == 1)]
    cov = np.cov(pairs.T, ddof=1)[0, 1]
    se = np.sqrt(np.var(pairs[:, 0], ddof=1) * np.var(pairs[:, 1], ddof=1) / N_FULL)
    assert abs(cov) < 4 * se
    report(
        "driver_statistics",
        f"max bin z {intensity_report.max_bin_z:.2f}, cov z {abs(cov) / se:.2f}",
    )


def test_verify_suite_deterministic_across_block_sizes(canonical, monkeypatch):
    spec, plan, *_ = canonical

    def run():
        return dump_json(
            verify_suite(spec, plan, paths=10_000, seed=311, grid_points=256)
        )

    default = run()
    parsed = json.loads(default)
    assert parsed["aggregate"] == "PASS"
    # a second run of the same configuration is byte-identical
    assert run() == default
    # and so is a run in blocks of a few paths instead of a few hundred
    monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", 100)
    assert run() == default
    report("verify_suite_deterministic_across_block_sizes")
