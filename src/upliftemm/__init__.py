"""Unique pricing measures for incomplete jump-diffusion markets.

The workflow: describe a market (stocks driven by Brownian motions and
Poisson or marked-point jump drivers), pick a reduction plan for the risks
you actually hedge, solve the reduced market's risk-premium system, and
uplift its unique measure back to the full market.  Simulation, density
processes, Monte Carlo pricing, and hedging-error estimation close the
loop by verifying every identity the construction promises.

Every name below loads on first use (PEP 562): ``import upliftemm`` runs
no submodule, and ``upliftemm.hedging_error`` imports ``upliftemm.pricing``
the first time it is read.  Reducing, solving and uplifting therefore never
load the Monte Carlo engine (``pricing``, ``stochastic``, ``blocks``,
``philox``).
"""

import importlib

__version__ = "0.13.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "densities": ("Density",),
    "errors": (
        "BudgetExceeded",
        "EmptyCell",
        "EmptyRetention",
        "InvalidIntensities",
        "NonpositiveGamma",
        "NonReducedEvent",
        "NotComplete",
        "NullMark",
        "PlanMismatch",
        "QuadratureFailure",
        "ShapeMismatch",
        "UnboundedIntensity",
        "UpliftError",
    ),
    "model": (
        "ContinuousJumpSpec",
        "DiscreteJumpSpec",
        "MarketSpec",
        "ValidationReport",
        "default_grid",
        "validate_market",
    ),
    "mpr": (
        "MarketClassification",
        "MprSystem",
        "assemble_mpr_system",
        "classify_over_grid",
        "solve_mpr",
    ),
    "pricing": (
        "MarketEvent",
        "McReport",
        "Payoff",
        "Strategy",
        "cost_of_construction_check",
        "density_mass_check",
        "hedging_error",
        "martingale_check",
        "price_mc",
        "projection_consistency_check",
        "restriction_check",
        "two_route_check",
        "zweighted_price_mc",
    ),
    "reduction": (
        "ContinuousPlan",
        "DiscretePlan",
        "FictitiousMarket",
        "batch_weights",
        "reduce_continuous",
        "reduce_discrete",
        "reduce_market",
    ),
    "stochastic": (
        "DEFAULT_SEED",
        "PathBundle",
        "RngStreamSpec",
        "sample_marked_point_process",
        "sample_poisson_inhomogeneous",
        "simulate_path",
        "simulate_terminal",
    ),
    "timefns": ("TimeFunction", "adaptive_simpson", "integrate_product"),
    "uplift": (
        "CellMeasure",
        "Emm",
        "physical_emm",
        "solve_unique_emm",
        "build_uplifted_emm",
        "uplift_continuous",
        "uplift_discrete",
        "uplift_general",
        "verify_uplift",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"blocks", "cli", "io", "philox"}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
