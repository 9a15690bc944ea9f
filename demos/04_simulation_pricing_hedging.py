"""Exact simulation, density weighting, pricing, and hedging errors.

Everything the uplift promises is checkable by Monte Carlo: discounted
prices are martingales under the uplifted measure, density-weighted
physical expectations equal direct risk-neutral ones, and the claims
priced in the fictitious market cost exactly their original-market value.
"""

import numpy as np

from upliftemm import (
    DiscreteJumpSpec,
    DiscretePlan,
    MarketEvent,
    MarketSpec,
    Payoff,
    Strategy,
    build_uplifted_emm,
    hedging_error,
    price_mc,
    restriction_check,
    simulate_terminal,
    zweighted_price_mc,
)

market = MarketSpec(
    horizon=1.0,
    s0=[100.0, 50.0, 25.0],
    alpha=[0.21, 0.175, -0.04],
    rate=0.02,
    sigma=[[0.2], [0.3], [0.1]],
    jumps=DiscreteJumpSpec(
        intensities=[2.0, 1.0, 3.0],
        loadings=[[0.1, -0.2, 0.2], [0.05, 0.1, -0.15], [-0.1, 0.3, 0.25]],
    ),
)
plan = DiscretePlan(retain=(0, 1), neglect=(2,))
emm, fict, fict_emm = build_uplifted_emm(market, plan)

N = 30_000

# martingale property of each discounted stock under the uplifted measure
sample = simulate_terminal(market, [1.0], N, 12345, measure_emm=emm)
disc = market.discount_factor(1.0)
for i in range(3):
    vals = disc * sample.stocks[:, i, -1]
    se = vals.std(ddof=1) / np.sqrt(N)
    print(f"stock {i}: discounted mean {vals.mean():8.3f} "
          f"vs s0 {market.s0[i]:6.1f}  (z = {(vals.mean() - market.s0[i]) / se:+.2f})")

# one price, two routes
call = Payoff.call(0, 100.0)
direct = price_mc(market, emm, call, N, seed=777)
weighted = zweighted_price_mc(market, emm, call, N, seed=778)
print(f"\ncall price, direct simulation : {direct.estimate:.4f} "
      f"+/- {direct.std_error:.4f}")
print(f"call price, density-weighted  : {weighted.estimate:.4f} "
      f"+/- {weighted.std_error:.4f}")

# the uplift restricted to hedgeable information is the fictitious measure
events = (
    MarketEvent("omega"),
    MarketEvent("no_driver0_events", count_eq=((0, 0),)),
    MarketEvent("brownian_up", brownian_gt=((0, 0.0),)),
)
check = restriction_check(fict, emm, fict_emm, events, N, seed=779)
print("\nrestriction to the reduced information set (leg b, Q~*(A), is exact):")
for line in check.lines:
    print(f"  {line.label:20s} |diff| = {abs(line.difference):.5f} "
          f"({line.z:.2f} standard errors of leg a)")

# hedging: holding one discounted share replicates it with zero error,
# while a compensated jump bet has zero expected gain under the uplift
buy_hold = Strategy(holdings=(1.0, 0.0, 0.0), v0=market.s0[0])
rep = hedging_error(market, emm, buy_hold, Payoff.terminal(0), 5_000, seed=780)
print(f"\nbuy-and-hold replication error: {rep.error.estimate} "
      f"(std error {rep.error.std_error})")

bet = Strategy(holdings=(0.0, 0.0, 0.0), jump_integrand=(1.0, 0.0, 0.0), v0=0.0)
rep = hedging_error(market, emm, bet, Payoff.linear([], discounted=False), N, seed=781)
print(f"compensated jump bet mean gain: {rep.gain.estimate:+.5f} "
      f"+/- {rep.gain.std_error:.5f}  unpriced: {rep.gain_is_unpriced}")
