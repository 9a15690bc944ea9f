"""Seeded workload generators for the benchmark.

Each workload is a market, a reduction plan, a four-payoff book and a
hedging strategy, all written as JSON documents so that the program only
ever sees generated inputs.  The seed moves initial prices, strikes and
the Monte Carlo seed; it never changes the market's structure (driver
counts, coefficient kinds, intensities), so the work per run is the same
for every seed and run-to-run spread measures the machine, not the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATE = 0.02
HORIZON = 1.0

# The README three-stock market: one Brownian, three Poisson drivers.  The
# drift is built so that retaining drivers 0 and 1 solves to
# (theta, lam~_0, lam~_1) = (0.5, 1.5, 1.2).
EXCESS = (0.19, 0.155, -0.06)
SIGMA = (0.2, 0.3, 0.1)
LOADINGS = ((0.1, -0.2, 0.2), (0.05, 0.1, -0.15), (-0.1, 0.3, 0.25))
INTENSITIES = (2.0, 1.0, 3.0)
S0 = (100.0, 50.0, 25.0)


@dataclass(frozen=True)
class Workload:
    name: str
    # session shape: pipeline calls before each operation, path counts per
    # operation
    pipeline_calls: int
    verify_paths: int
    route_paths: int
    hedge_paths: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "const-neglect",
            pipeline_calls=7, verify_paths=1500, route_paths=400, hedge_paths=3000,
        ),
        Workload(
            "tv-batch",
            pipeline_calls=1, verify_paths=1200, route_paths=300, hedge_paths=2000,
        ),
        Workload(
            "cont-cells",
            pipeline_calls=1, verify_paths=1000, route_paths=250, hedge_paths=1500,
        ),
    )
}


def _discrete_market(s0, alpha, intensities) -> dict:
    return {
        "horizon": HORIZON,
        "rate": RATE,
        "brownians": 1,
        "stocks": [
            {"s0": s0[i], "alpha": alpha[i], "sigma": [SIGMA[i]]}
            for i in range(3)
        ],
        "jumps": {
            "type": "discrete",
            "intensities": list(intensities),
            "loadings": [list(row) for row in LOADINGS],
        },
    }


def _const_neglect(rng) -> tuple[dict, dict]:
    s0 = [s * rng.uniform(0.9, 1.1) for s in S0]
    alpha = [e + RATE for e in EXCESS]
    market = _discrete_market(s0, alpha, INTENSITIES)
    return market, {"retain": [0, 1], "neglect": [2]}


def _tv_batch(rng) -> tuple[dict, dict]:
    """lambda_2(t) = 1 + t, drift built so the batched reduction solves to
    theta* = 0.5, lam~*_0 = 1.5, gamma* = 0.8 gamma(t) at every node."""
    s0 = [s * rng.uniform(0.9, 1.1) for s in S0]
    grid = np.linspace(0.0, HORIZON, 256)
    theta, lam0_star = 0.5, 1.5
    gamma = 1.0 + (1.0 + grid)
    gamma_star = 0.8 * gamma
    alpha = []
    for i in range(3):
        ybar = (1.0 * LOADINGS[i][1] + (1.0 + grid) * LOADINGS[i][2]) / gamma
        a = (
            RATE
            + SIGMA[i] * theta
            + (2.0 - lam0_star) * LOADINGS[i][0]
            + (gamma - gamma_star) * ybar
        )
        alpha.append({"samples": {"t": grid.tolist(), "v": a.tolist()}})
    lam2 = {"samples": {"t": [0.0, HORIZON], "v": [1.0, 2.0]}}
    market = _discrete_market(s0, alpha, [2.0, 1.0, lam2])
    return market, {"retain": [0], "batches": [[1, 2]]}


def _cont_cells(rng) -> tuple[dict, dict]:
    """Two stocks, uniform marks on (-0.5, 0.5), total intensity 4 on
    [0, 0.5) and 5 on [0.5, 1]."""
    s0 = [100.0 * rng.uniform(0.9, 1.1), 80.0 * rng.uniform(0.9, 1.1)]
    market = {
        "horizon": HORIZON,
        "rate": RATE,
        "brownians": 1,
        "stocks": [
            {"s0": s0[0], "alpha": 0.08, "sigma": [0.25]},
            {"s0": s0[1], "alpha": 0.03, "sigma": [0.4]},
        ],
        "jumps": {
            "type": "density",
            "family": "uniform",
            "params": {},
            "support": [-0.5, 0.5],
            "total_intensity": {
                "piecewise": {"t": [0.0, 0.5, HORIZON], "v": [4.0, 5.0]}
            },
        },
    }
    return market, {"cells": [[-0.5, 0.0]], "neglect_remainder": True}


_MARKETS = {
    "const-neglect": _const_neglect,
    "tv-batch": _tv_batch,
    "cont-cells": _cont_cells,
}


def generate(name: str, seed: int) -> dict:
    """All inputs of one workload run, as JSON-ready documents."""
    rng = np.random.Generator(np.random.PCG64(seed))
    market, plan = _MARKETS[name](rng)
    s0 = [s["s0"] for s in market["stocks"]]
    strikes = [s * rng.uniform(0.9, 1.1) for s in s0]
    discrete = market["jumps"]["type"] == "discrete"
    last = len(s0) - 1
    book = {
        "call_0": {"type": "call", "asset": 0, "strike": strikes[0]},
        "put_1": {"type": "put", "asset": 1, "strike": strikes[1]},
        f"forward_{last}": {"type": "forward", "asset": last, "strike": strikes[last]},
        "quiet_0": {"type": "indicator_count", "driver": 0, "count": 0,
                    "discounted": False},
    }
    knots = np.linspace(0.0, HORIZON, 9).tolist()  # 8 rebalance intervals
    holdings = [
        {"piecewise": {"t": knots, "v": np.linspace(0.6, 0.4, 8).tolist()}},
        {"piecewise": {"t": knots, "v": np.linspace(0.1, 0.3, 8).tolist()}},
    ] + [0.0] * (len(s0) - 2)
    hedge = {
        "holdings": holdings,
        "jump_integrand": [0.5, -0.25, 0.0] if discrete else [],
        "v0": 0.1 * s0[0],
        "payoff": {"type": "call", "asset": 0, "strike": strikes[0]},
    }
    return {
        "market": market,
        "plan": plan,
        "book": book,
        "hedge": hedge,
        "mc_seed": int(rng.integers(1, 2**31)),
    }
