"""Market specification: stocks, Brownian drivers, jump drivers.

A :class:`MarketSpec` is the single source of truth for every symbol in
the stock dynamics

    dS_i = (alpha_i - beta_i * lambda) S_i dt
           + sum_j sigma_ij S_i dW_j + S_i(-) dQ_i,

with all coefficients deterministic functions of time.  Jump risk comes
either from finitely many Poisson drivers with per-stock loadings (a
stock i jumps by loading y[i][m] when driver m fires) or from a marked
point process with a continuous mark density (every stock jumps by the
realized mark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import Density
from .errors import ShapeMismatch
from .timefns import TimeFunction, stack_values

__all__ = [
    "DiscreteJumpSpec",
    "ContinuousJumpSpec",
    "MarketSpec",
    "ValidationReport",
    "Violation",
    "validate_market",
    "DEFAULT_GRID_POINTS",
    "JUMP_GRID_POINTS",
    "default_grid",
]

DEFAULT_GRID_POINTS = 256
# grid on which simulation samples a jump measure's interpolated total
# intensity and compensator
JUMP_GRID_POINTS = 513


def default_grid(horizon: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, horizon, points)


def _coerce_fns(xs) -> tuple[TimeFunction, ...]:
    return tuple(TimeFunction.coerce(x) for x in xs)


def _matrix_values(rows, shape: tuple[int, int], t) -> np.ndarray:
    """A matrix of time functions at a time, shape ``shape``, or at each of
    an array of K times, shape (K, *shape)."""
    flat = stack_values([fn for row in rows for fn in row], t)
    return flat.reshape(np.shape(t) + shape)


@dataclass(frozen=True)
class DiscreteJumpSpec:
    """M Poisson jump drivers with per-stock loadings.

    intensities[m] is the event rate of driver m (events/year); when stock
    i sees an event of driver m its price is multiplied by 1 + loading,
    where the loading may itself vary deterministically in time (batched
    drivers of fictitious markets do).  ``marks`` optionally labels the
    drivers with mark values; drivers are index-distinguished regardless.
    """

    intensities: tuple[TimeFunction, ...]
    loadings: tuple[tuple[TimeFunction, ...], ...]
    marks: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "intensities", _coerce_fns(self.intensities))
        rows = tuple(_coerce_fns(row) for row in self.loadings)
        if rows and any(len(r) != len(self.intensities) for r in rows):
            raise ShapeMismatch("each loading row needs one entry per driver")
        object.__setattr__(self, "loadings", rows)
        if self.marks is not None:
            object.__setattr__(self, "marks", tuple(float(m) for m in self.marks))

    @property
    def n_drivers(self) -> int:
        return len(self.intensities)

    @property
    def n_rows(self) -> int:
        return len(self.loadings)

    def loading_values(self, t) -> np.ndarray:
        """Loadings at a time, (n, M), or at each of K times, (K, n, M)."""
        return _matrix_values(self.loadings, (self.n_rows, self.n_drivers), t)

    def intensity_values(self, t) -> np.ndarray:
        """Intensities at a time, (M,), or at each of K times, (K, M)."""
        return stack_values(self.intensities, t)

    @property
    def is_constant(self) -> bool:
        return all(fn.is_constant for fn in self.intensities) and all(
            fn.is_constant for row in self.loadings for fn in row
        )


@dataclass(frozen=True)
class ContinuousJumpSpec:
    """A marked point process with a continuous mark density.

    Events arrive at rate ``total_intensity(t)``; each event carries a mark
    drawn from ``density`` at the event time, and every stock jumps by the
    mark (relative jump size).
    """

    density: Density
    total_intensity: TimeFunction

    def __post_init__(self):
        object.__setattr__(
            self, "total_intensity", TimeFunction.coerce(self.total_intensity)
        )

    @property
    def support(self) -> tuple[float, float]:
        return self.density.support

    @property
    def is_constant(self) -> bool:
        return self.total_intensity.is_constant and not self.density.is_time_varying


@dataclass(frozen=True)
class MarketSpec:
    """n stocks, D Brownian drivers, and jump drivers on horizon [0, T].

    A market without jumps holds a discrete spec with no drivers (``jumps``
    None builds it), and one without Brownians n empty sigma rows (``[]``
    builds them), so each absent driver class has one form.
    """

    horizon: float
    s0: tuple[float, ...]
    alpha: tuple[TimeFunction, ...]
    rate: TimeFunction
    sigma: tuple[tuple[TimeFunction, ...], ...]
    jumps: DiscreteJumpSpec | ContinuousJumpSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "s0", tuple(float(x) for x in self.s0))
        object.__setattr__(self, "alpha", _coerce_fns(self.alpha))
        object.__setattr__(self, "rate", TimeFunction.coerce(self.rate))
        rows = tuple(_coerce_fns(row) for row in self.sigma) or ((),) * self.n
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("sigma rows must all have the same length")
        object.__setattr__(self, "sigma", rows)
        if self.jumps is None:
            object.__setattr__(self, "jumps", DiscreteJumpSpec((), ((),) * self.n))

    @property
    def n(self) -> int:
        return len(self.s0)

    @property
    def n_brownians(self) -> int:
        return len(self.sigma[0]) if self.sigma else 0

    @property
    def n_jump_drivers(self) -> int:
        if isinstance(self.jumps, DiscreteJumpSpec):
            return self.jumps.n_drivers
        return 0

    def sigma_values(self, t) -> np.ndarray:
        """Volatilities at a time, (n, D), or at each of K times, (K, n, D)."""
        return _matrix_values(self.sigma, (self.n, self.n_brownians), t)

    @property
    def is_constant(self) -> bool:
        return (
            all(fn.is_constant for fn in self.alpha)
            and self.rate.is_constant
            and all(fn.is_constant for row in self.sigma for fn in row)
            and self.jumps.is_constant
        )

    def coefficient_functions(self) -> list[TimeFunction]:
        fns = list(self.alpha) + [self.rate]
        for row in self.sigma:
            fns.extend(row)
        if isinstance(self.jumps, DiscreteJumpSpec):
            fns.extend(self.jumps.intensities)
            for row in self.jumps.loadings:
                fns.extend(row)
        elif isinstance(self.jumps, ContinuousJumpSpec):
            fns.append(self.jumps.total_intensity)
        return fns

    def discount_factor(self, t) -> float | np.ndarray:
        if np.ndim(t) == 0:
            return float(np.exp(-self.rate.integral(0.0, float(t))))
        return np.exp([-self.rate.integral(0.0, float(x)) for x in np.asarray(t)])


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def __str__(self):
        if self.ok:
            return "OK"
        return "\n".join(f"{v.code}: {v.message}" for v in self.violations)


def validate_market(spec: MarketSpec) -> ValidationReport:
    """Check every model invariant; returns OK or the list of violations."""
    bad: list[Violation] = []
    T = spec.horizon

    if spec.n < 1 or T <= 0:
        bad.append(Violation("ShapeMismatch", "need n >= 1 stocks and horizon > 0"))
        return ValidationReport(tuple(bad))
    if any(s <= 0 for s in spec.s0):
        bad.append(Violation("ShapeMismatch", "initial prices must be positive"))
    if len(spec.alpha) != spec.n:
        bad.append(Violation("ShapeMismatch", "need one alpha per stock"))
    if len(spec.sigma) != spec.n:
        bad.append(Violation("ShapeMismatch", "sigma must have one row per stock"))

    for fn in spec.coefficient_functions():
        end = fn.domain_end()
        if end is not None and end < T:
            bad.append(
                Violation(
                    "ShapeMismatch",
                    f"time function defined up to {end:g} does not cover [0, {T:g}]",
                )
            )
            break
        if not np.all(np.isfinite(fn.v)):
            bad.append(
                Violation("ShapeMismatch", "coefficient has non-finite values")
            )
            break

    grid = default_grid(spec.horizon, 65)
    jumps = spec.jumps
    if isinstance(jumps, DiscreteJumpSpec):
        if jumps.n_rows != spec.n:
            bad.append(
                Violation("ShapeMismatch", "loadings must have one row per stock")
            )
        for m, lam in enumerate(jumps.intensities):
            if lam.min_value(0.0, T) <= 0.0:
                bad.append(
                    Violation(
                        "NonpositiveIntensity",
                        f"intensity of driver {m} is not strictly positive",
                    )
                )
        for i, row in enumerate(jumps.loadings):
            for m, fn in enumerate(row):
                if fn.min_value(0.0, T) <= -1.0:
                    bad.append(
                        Violation(
                            "JumpBelowFloor",
                            f"loading ({i}, {m}) reaches -1 or below",
                        )
                    )
    elif isinstance(jumps, ContinuousJumpSpec):
        lo, hi = jumps.support
        if lo <= -1.0:
            bad.append(
                Violation("JumpBelowFloor", "mark support must stay above -1")
            )
        if jumps.total_intensity.min_value(0.0, T) <= 0.0:
            bad.append(
                Violation("NonpositiveIntensity", "total intensity must be positive")
            )
        check_times = grid if jumps.density.is_time_varying else grid[:1]
        for t in check_times:
            err = jumps.density.normalization_error(float(t))
            if err > 1e-8:
                bad.append(
                    Violation(
                        "DensityNotNormalized",
                        f"density integrates to 1 {err:.2e} away at t={t:g}",
                    )
                )
                break
        probe = np.linspace(lo, hi, 101)
        for t in check_times:
            if np.any(jumps.density.pdf(probe, float(t)) < 0.0):
                bad.append(
                    Violation("DensityNotNormalized", f"density negative at t={t:g}")
                )
                break

    return ValidationReport(tuple(bad))
