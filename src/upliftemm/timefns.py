"""Deterministic time functions on [0, T].

All model coefficients (drifts, rates, volatilities, jump intensities) are
instances of :class:`TimeFunction`, which is closed under exactly three
kinds: constant, piecewise-constant on a breakpoint grid, and linearly
interpolated samples.  Keeping the representation closed makes evaluation
deterministic, integrals exact, and serialization trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "TimeFunction",
    "adaptive_simpson",
    "derivation",
    "derive",
    "integrate_product",
    "merged_breakpoints",
    "stack_values",
    "sum_values",
    "sum_max_value",
]

_CONST = "const"
_PIECEWISE = "piecewise"
_SAMPLES = "samples"


@dataclass(frozen=True)
class TimeFunction:
    """A real-valued deterministic function of time.

    kind = "const":      value ``v[0]`` everywhere.
    kind = "piecewise":  right-continuous step function, value ``v[j]`` on
                         ``[t[j], t[j+1])``; ``len(v) == len(t) - 1``.
    kind = "samples":    linear interpolation through ``(t[j], v[j])``.

    Evaluation outside ``[t[0], t[-1]]`` clamps to the nearest endpoint,
    which keeps floating-point grid edges harmless.
    """

    kind: str
    t: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    # cumulative antiderivative at the knots, computed once
    _cum: np.ndarray = field(repr=False, compare=False, default=None)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value: float) -> "TimeFunction":
        return TimeFunction(_CONST, np.zeros(0), np.array([float(value)]), np.zeros(0))

    @staticmethod
    def piecewise(t, v) -> "TimeFunction":
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or len(t) < 2 or len(v) != len(t) - 1:
            raise ValueError("piecewise needs k+1 breakpoints and k values")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        cum = np.concatenate([[0.0], np.cumsum(v * np.diff(t))])
        return TimeFunction(_PIECEWISE, t, v, cum)

    @staticmethod
    def samples(t, v) -> "TimeFunction":
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or len(t) < 2 or len(v) != len(t):
            raise ValueError("samples needs matching t and v arrays, len >= 2")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        seg = 0.5 * (v[1:] + v[:-1]) * np.diff(t)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return TimeFunction(_SAMPLES, t, v, cum)

    @staticmethod
    def coerce(x) -> "TimeFunction":
        """Accept a TimeFunction, a bare number, or a JSON-style dict."""
        if isinstance(x, TimeFunction):
            return x
        if isinstance(x, dict):
            return TimeFunction.from_json(x)
        return TimeFunction.constant(float(x))

    # -- basic queries -----------------------------------------------------

    @cached_property
    def is_constant(self) -> bool:
        return self.kind == _CONST or bool((self.v == self.v[0]).all())

    @property
    def is_piecewise_constant(self) -> bool:
        """Constant or a step function: known exactly on each of its pieces."""
        return self.kind != _SAMPLES or self.is_constant

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("not a constant function")
        return float(self.v[0])

    def breakpoints(self) -> np.ndarray:
        """Knot times; empty for constants."""
        return self.t

    def domain_end(self) -> float | None:
        return None if self.kind == _CONST else float(self.t[-1])

    # -- evaluation ---------------------------------------------------------

    def value(self, t):
        """Evaluate at a scalar or an array of times."""
        if self.kind == _CONST:
            if np.ndim(t) == 0:
                return float(self.v[0])
            return np.full(np.shape(t), self.v[0])
        if self.kind == _SAMPLES:
            out = np.interp(t, self.t, self.v)
            return float(out) if np.ndim(t) == 0 else out
        # piecewise: right-continuous lookup, clamped to the domain; t's
        # piece is the number of interior knots at or before t
        out = self.v[np.searchsorted(self.t[1:-1], t, side="right")]
        return float(out) if np.ndim(t) == 0 else out

    def __call__(self, t):
        return self.value(t)

    def integral(self, a: float, b):
        """Exact integral over [a, b], or to each of an array of limits b."""
        if (b < a).any() if isinstance(b, np.ndarray) else b < a:
            raise ValueError("integral requires a <= b")
        if self.kind == _CONST:
            return float(self.v[0]) * (b - a)
        return self._antiderivative(b) - self._antiderivative(a)

    def _antiderivative(self, x):
        t, v, cum = self.t, self.v, self._cum
        array = isinstance(x, np.ndarray)
        x = np.minimum(np.maximum(x, t[0]), t[-1]) if array else min(max(x, t[0]), t[-1])
        j = t[1:-1].searchsorted(x, side="right")  # x's piece
        dx = x - t[j]
        if self.kind == _PIECEWISE:
            out = cum[j] + v[j] * dx
        else:
            slope = (v[j + 1] - v[j]) / (t[j + 1] - t[j])
            out = cum[j] + v[j] * dx + 0.5 * slope * dx * dx
        return out if array else float(out)

    def max_value(self, a: float, b: float) -> float:
        """Maximum over [a, b]; attained on the knot grid for all kinds."""
        if self.kind == _CONST:
            return float(self.v[0])
        inner = self.t[(self.t > a) & (self.t < b)]
        cand = np.concatenate([[a], inner, [b]])
        vals = self.value(cand)
        if self.kind == _PIECEWISE:
            # a piece starting inside [a, b) contributes its own level
            lo = np.searchsorted(self.t, a, side="left")
            hi = np.searchsorted(self.t, b, side="left")
            if hi > lo:
                vals = np.concatenate([vals, self.v[lo:min(hi, len(self.v))]])
        return float(np.max(vals))

    def min_value(self, a: float, b: float) -> float:
        return -self.scaled(-1.0).max_value(a, b)

    def scaled(self, c: float) -> "TimeFunction":
        """Pointwise scaling; stays within the same kind."""
        if self.kind == _CONST:
            return TimeFunction.constant(c * self.v[0])
        if self.kind == _PIECEWISE:
            return TimeFunction.piecewise(self.t, c * self.v)
        return TimeFunction.samples(self.t, c * self.v)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.kind == _CONST:
            return {"const": float(self.v[0])}
        if self.kind == _PIECEWISE:
            return {"piecewise": {"t": self.t.tolist(), "v": self.v.tolist()}}
        return {"samples": {"t": self.t.tolist(), "v": self.v.tolist()}}

    @staticmethod
    def from_json(obj) -> "TimeFunction":
        if isinstance(obj, (int, float)):
            return TimeFunction.constant(obj)
        if "const" in obj:
            return TimeFunction.constant(obj["const"])
        if "piecewise" in obj:
            return TimeFunction.piecewise(obj["piecewise"]["t"], obj["piecewise"]["v"])
        if "samples" in obj:
            return TimeFunction.samples(obj["samples"]["t"], obj["samples"]["v"])
        raise ValueError(f"not a TimeFunction document: {obj!r}")

    def __eq__(self, other):
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self):
        return hash((self.kind, self.t.tobytes(), self.v.tobytes()))


# -- helpers over collections of time functions ------------------------------


def merged_breakpoints(fns, a: float, b: float) -> np.ndarray:
    """Sorted unique knots of all ``fns`` inside [a, b], including a and b."""
    knots = [np.array([a, b])]
    for fn in fns:
        bp = fn.breakpoints()
        if len(bp):
            knots.append(bp[(bp > a) & (bp < b)])
    # np.unique's sort and dedupe, without its lazy import of numpy.ma
    # (about 15 ms in a fresh process that otherwise never needs it)
    knots = np.sort(np.concatenate(knots))
    return knots[np.concatenate(([True], knots[1:] != knots[:-1]))]


def derivation(inputs, grid):
    """How a coefficient derived from the time functions ``inputs`` is
    built on [grid[0], grid[-1]]: ``(nodes, make)``, where ``make`` turns
    the derived values at ``nodes`` into a TimeFunction.

    - Every input constant: the one node grid[0], and a constant.
    - Every input constant or a step: the left end of each piece of the
      varying inputs' merged breakpoints, and a step on those pieces, exact
      on the whole interval (a constant when its pieces are all equal).
    - Otherwise: the grid's nodes, interpolated linearly between them.
    """
    grid = np.asarray(grid, dtype=float)
    if any(fn.kind == _SAMPLES and not fn.is_constant for fn in inputs):
        return grid, partial(TimeFunction.samples, grid)
    steps = [fn for fn in inputs if fn.kind == _PIECEWISE and not fn.is_constant]
    if not steps:
        return grid[:1], _constant
    knots = merged_breakpoints(steps, float(grid[0]), float(grid[-1]))
    return knots[:-1], partial(_step, knots)


def _constant(values) -> TimeFunction:
    return TimeFunction.constant(float(values[0]))


def _step(knots, values) -> TimeFunction:
    if (values == values[0]).all():
        return _constant(values)
    return TimeFunction.piecewise(knots, values)


def derive(fn, inputs, grid):
    """The coefficient ``fn``, a function of an array of times that reads
    the time functions ``inputs``, as the TimeFunction :func:`derivation`
    builds; a tuple of them, one per row, when ``fn`` returns an (F, K)
    array of F coefficients at the K nodes."""
    nodes, make = derivation(inputs, grid)
    values = np.asarray(fn(nodes), dtype=float)
    return make(values) if values.ndim == 1 else tuple(make(row) for row in values)


def stack_values(fns, t) -> np.ndarray:
    """F time functions at a time, (F,), or at each of K times, (K, F)."""
    vals = np.array([fn.value(t) for fn in fns], dtype=float)
    if np.ndim(t) == 0:
        return vals
    return np.ascontiguousarray(vals.reshape(len(fns), np.size(t)).T)


def sum_values(fns, t):
    """Pointwise sum of several time functions at scalar or array t."""
    total = None
    for fn in fns:
        v = fn.value(t)
        total = v if total is None else total + v
    if total is None:
        return 0.0 if np.ndim(t) == 0 else np.zeros(np.shape(t))
    return total


def sum_max_value(fns, a: float, b: float) -> float:
    """Maximum of the pointwise sum over [a, b].

    The sum is piecewise linear between merged knots for every mix of
    kinds except piecewise steps, whose suprema sit at knot levels; both
    cases are covered by evaluating just right of each knot.
    """
    grid = merged_breakpoints(fns, a, b)
    eps = 1e-12 * max(abs(b - a), 1.0)
    probes = np.unique(np.concatenate([grid, np.minimum(grid + eps, b)]))
    return float(np.max(sum_values(fns, probes)))


def integrate_product(f: TimeFunction, g: TimeFunction, a: float, b):
    """Exact integral of ``f * g`` over [a, b]; ``b`` may be an array of
    upper limits, each integrated as on its own.

    Products of the supported kinds are at most piecewise quadratic between
    merged knots, so a 3-point Gauss rule per segment is exact.  Interior
    Gauss nodes also avoid ambiguity at step discontinuities.
    """
    if isinstance(b, np.ndarray):  # a constant factor takes every limit at once
        if f.kind == _CONST or g.kind == _CONST:
            c, h = (f, g) if f.kind == _CONST else (g, f)
            return np.where(b == a, 0.0, c.constant_value * h.integral(a, b))
        return np.array([integrate_product(f, g, a, x) for x in b])
    if b < a:
        raise ValueError("integrate_product requires a <= b")
    if b == a:
        return 0.0
    if f.kind == _CONST:
        return f.constant_value * g.integral(a, b)
    if g.kind == _CONST:
        return g.constant_value * f.integral(a, b)
    grid = merged_breakpoints((f, g), a, b)
    lo, hi = grid[:-1], grid[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x1 = mid - half * np.sqrt(3.0 / 5.0)
    x3 = mid + half * np.sqrt(3.0 / 5.0)
    w = (hi - lo) / 18.0
    total = 0.0
    for x, wt in ((x1, 5.0), (mid, 8.0), (x3, 5.0)):
        total += wt * np.sum(w * f.value(x) * g.value(x))
    return float(total)


def adaptive_simpson(
    fn, a: float, b: float, tol: float = 1e-10, max_depth: int = 40
) -> float:
    """Adaptive Simpson quadrature with an absolute tolerance.

    Raises :class:`QuadratureFailure` when the recursion depth is exhausted
    before the local error estimate drops below tolerance.
    """
    if b < a:
        raise ValueError("adaptive_simpson requires a <= b")
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if not (np.isfinite(left) and np.isfinite(right)):
            raise QuadratureFailure("non-finite integrand")
        err = left + right - whole
        if abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise QuadratureFailure(
                f"tolerance {eps:g} unreachable on [{x0:g}, {x2:g}]"
            )
        return recurse(x0, x1, f0, flm, f1, left, 0.5 * eps, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, 0.5 * eps, depth + 1
        )

    m = 0.5 * (a + b)
    f0, f1, f2 = fn(a), fn(m), fn(b)
    whole = simpson(a, b, f0, f1, f2)
    return recurse(a, b, f0, f1, f2, whole, tol, 0)
