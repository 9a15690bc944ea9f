"""Unique pricing measures for incomplete jump-diffusion markets.

The workflow: describe a market (stocks driven by Brownian motions and
Poisson or marked-point jump drivers), pick a reduction plan for the risks
you actually hedge, solve the reduced market's risk-premium system, and
uplift its unique measure back to the full market.  Simulation, density
processes, Monte Carlo pricing, and hedging-error estimation close the
loop by verifying every identity the construction promises.
"""

from .densities import Density
from .errors import (
    BudgetExceeded,
    EmptyCell,
    EmptyRetention,
    FactorAtMinusOne,
    InvalidIntensities,
    NonpositiveGamma,
    NonReducedEvent,
    NotComplete,
    NullMark,
    PlanMismatch,
    QuadratureFailure,
    ShapeMismatch,
    UnboundedIntensity,
    UndeterminedIntegral,
    UpliftError,
)
from .model import (
    ContinuousJumpSpec,
    DiscreteJumpSpec,
    MarketSpec,
    ValidationReport,
    compensator_drift,
    cumulative_intensity,
    default_grid,
    validate_market,
)
from .mpr import (
    MarketClassification,
    MprSystem,
    assemble_mpr_system,
    classify_over_grid,
    solve_mpr,
)
from .pricing import (
    MarketEvent,
    McReport,
    Payoff,
    Strategy,
    cost_of_construction_check,
    density_mass_check,
    hedging_error,
    martingale_check,
    price_mc,
    projection_consistency_check,
    restriction_check,
    two_route_check,
    zweighted_price_mc,
)
from .reduction import (
    ContinuousPlan,
    DiscretePlan,
    FictitiousMarket,
    batch_weights,
    project_price_closed_form,
    reduce_batch,
    reduce_complete_neglect,
    reduce_continuous,
    reduce_market,
)
from .stochastic import (
    DEFAULT_SEED,
    JumpProcessPath,
    PathBundle,
    RngStreamSpec,
    doleans_dade_eval,
    empirical_intensity_test,
    rn_density_path,
    sample_marked_point_process,
    sample_poisson_inhomogeneous,
    simulate_path,
    simulate_terminal,
    stock_path_exact,
)
from .timefns import TimeFunction, adaptive_simpson, integrate_product
from .uplift import (
    CellMeasure,
    Emm,
    physical_emm,
    solve_unique_emm,
    build_uplifted_emm,
    uplift_batch,
    uplift_complete_neglect,
    uplift_continuous,
    uplift_general,
    verify_uplift,
)

__version__ = "0.2.0"
