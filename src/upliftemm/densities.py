"""Named jump-size density families on a bounded support.

Continuous mark distributions are restricted to four families (uniform,
truncated normal, truncated exponential, piecewise-constant histogram) so
that cell masses, restricted means, and inverse CDFs all have closed
forms.  Family parameters may be time functions, giving a time-indexed
density f_t(y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timefns import TimeFunction, adaptive_simpson

__all__ = ["Density", "FAMILIES"]

_SQRT2 = np.sqrt(2.0)


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _Phi(x):
    from scipy.special import erf  # only truncated-normal marks need scipy
    return 0.5 * (1.0 + erf(x / _SQRT2))


@dataclass(frozen=True)
class Density:
    """Time-indexed probability density on the interval ``support``.

    family: one of "uniform", "truncnorm", "truncexp", "histogram".
    params: family parameters, each a TimeFunction (constants coerced):
        uniform    -- none
        truncnorm  -- mu, sigma of the pre-truncation normal
        truncexp   -- rate (f proportional to exp(-rate * (y - lo)), rate != 0)
        histogram  -- edges (list), weights (list); weights are masses per bin
    """

    family: str
    support: tuple[float, float]
    params: dict

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("support must be a finite interval (lo, hi)")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown density family {self.family!r}")
        coerced = {}
        for k, v in self.params.items():
            if k in ("edges", "weights"):
                coerced[k] = tuple(float(x) for x in v)
            else:
                coerced[k] = TimeFunction.coerce(v)
        object.__setattr__(self, "params", coerced)
        if self.family == "histogram":
            edges = np.asarray(self.params["edges"])
            if len(edges) < 2 or np.any(np.diff(edges) <= 0):
                raise ValueError("histogram edges must be increasing")
            if len(self.params["weights"]) != len(edges) - 1:
                raise ValueError("histogram needs one weight per bin")

    @property
    def time_functions(self) -> tuple[TimeFunction, ...]:
        """The parameters that are time functions (all but a histogram's)."""
        return tuple(p for p in self.params.values() if isinstance(p, TimeFunction))

    @property
    def is_time_varying(self) -> bool:
        return any(not p.is_constant for p in self.time_functions)

    # -- family internals ---------------------------------------------------

    def _truncnorm_std(self, t):
        mu = self.params["mu"].value(t)
        sig = self.params["sigma"].value(t)
        lo, hi = self.support
        a, b = (lo - mu) / sig, (hi - mu) / sig
        return mu, sig, a, b, _Phi(b) - _Phi(a)

    def _truncexp_rate(self, t):
        return self.params["rate"].value(t)

    # -- core evaluations ----------------------------------------------------

    def pdf(self, y, t: float = 0.0):
        y = np.asarray(y, dtype=float)
        lo, hi = self.support
        inside = (y >= lo) & (y <= hi)
        if self.family == "uniform":
            out = np.where(inside, 1.0 / (hi - lo), 0.0)
        elif self.family == "truncnorm":
            mu, sig, _, _, z = self._truncnorm_std(t)
            out = np.where(inside, _phi((y - mu) / sig) / (sig * z), 0.0)
        elif self.family == "truncexp":
            r = self._truncexp_rate(t)
            z = (1.0 - np.exp(-r * (hi - lo))) / r
            out = np.where(inside, np.exp(-r * (y - lo)) / z, 0.0)
        else:  # histogram: weights are bin masses and must sum to one
            edges = np.asarray(self.params["edges"])
            w = np.asarray(self.params["weights"], dtype=float)
            dens = w / np.diff(edges)
            idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, len(w) - 1)
            out = np.where(inside, dens[idx], 0.0)
        return out if out.ndim else float(out)

    def cdf(self, y, t: float = 0.0):
        y = np.asarray(y, dtype=float)
        lo, hi = self.support
        yc = np.clip(y, lo, hi)
        if self.family == "uniform":
            out = (yc - lo) / (hi - lo)
        elif self.family == "truncnorm":
            mu, sig, a, _, z = self._truncnorm_std(t)
            out = (_Phi((yc - mu) / sig) - _Phi(a)) / z
        elif self.family == "truncexp":
            r = self._truncexp_rate(t)
            out = (1.0 - np.exp(-r * (yc - lo))) / (1.0 - np.exp(-r * (hi - lo)))
        else:
            edges = np.asarray(self.params["edges"])
            w = np.asarray(self.params["weights"], dtype=float)
            cum = np.concatenate([[0.0], np.cumsum(w)])
            idx = np.clip(np.searchsorted(edges, yc, side="right") - 1, 0, len(w) - 1)
            frac = (yc - edges[idx]) / (edges[idx + 1] - edges[idx])
            out = cum[idx] + frac * (cum[idx + 1] - cum[idx])
        return out if out.ndim else float(out)

    def ppf(self, u, t: float = 0.0):
        """Inverse CDF for exact mark sampling."""
        u = np.asarray(u, dtype=float)
        lo, hi = self.support
        if self.family == "uniform":
            out = lo + u * (hi - lo)
        elif self.family == "truncnorm":
            from scipy.special import ndtri
            mu, sig, a, _, z = self._truncnorm_std(t)
            out = mu + sig * ndtri(_Phi(a) + u * z)
        elif self.family == "truncexp":
            r = self._truncexp_rate(t)
            out = lo - np.log1p(-u * (1.0 - np.exp(-r * (hi - lo)))) / r
        else:
            edges = np.asarray(self.params["edges"])
            w = np.asarray(self.params["weights"], dtype=float)
            cum = np.concatenate([[0.0], np.cumsum(w)]) / np.sum(w)
            idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(w) - 1)
            frac = (u - cum[idx]) / (cum[idx + 1] - cum[idx])
            out = edges[idx] + frac * (edges[idx + 1] - edges[idx])
        out = np.clip(out, lo, hi)
        return out if out.ndim else float(out)

    # -- cell quantities -----------------------------------------------------

    def mass(self, lo: float, hi: float, t=0.0):
        """Probability of the cell [lo, hi] at a time, or at each of an
        array of times."""
        m = np.full(np.shape(t), self.cdf(hi, t) - self.cdf(lo, t))
        return m if np.ndim(t) else float(m)

    def restricted_mean(self, lo: float, hi: float, t=0.0):
        """Conditional mean of the mark given it falls in [lo, hi], at a
        time or at each of an array of times."""
        m = self.mass(lo, hi, t)
        if np.any(m <= 0.0):
            raise ZeroDivisionError("cell has zero mass")
        num = self._partial_moment(lo, hi, t)
        return num / m if np.ndim(t) else float(num) / m

    def _partial_moment(self, lo: float, hi: float, t=0.0):
        """integral of y f_t(y) over [lo, hi]."""
        slo, shi = self.support
        lo, hi = max(lo, slo), min(hi, shi)
        if self.family == "uniform":
            num = 0.5 * (hi * hi - lo * lo) / (shi - slo)
        elif self.family == "truncnorm":
            mu, sig, _, _, z = self._truncnorm_std(t)
            a, b = (lo - mu) / sig, (hi - mu) / sig
            num = (mu * (_Phi(b) - _Phi(a)) + sig * (_phi(a) - _phi(b))) / z
        elif self.family == "truncexp":
            r = self._truncexp_rate(t)
            z = (1.0 - np.exp(-r * (shi - slo))) / r
            # int y e^{-r(y-slo)} dy on [lo, hi]
            def prim(y):
                return -np.exp(-r * (y - slo)) * (y + 1.0 / r) / r
            num = (prim(hi) - prim(lo)) / z
        else:
            edges = np.asarray(self.params["edges"])
            w = np.asarray(self.params["weights"], dtype=float)
            dens = w / np.diff(edges)
            num = 0.0
            for j in range(len(w)):
                a = max(lo, edges[j])
                b = min(hi, edges[j + 1])
                if b > a:
                    num += dens[j] * 0.5 * (b * b - a * a)
        return num

    def mean(self, t=0.0):
        return self.restricted_mean(*self.support, t)

    def quad_breakpoints(self) -> tuple[float, ...]:
        """Interior discontinuities; quadrature must split there."""
        if self.family != "histogram":
            return ()
        lo, hi = self.support
        return tuple(e for e in self.params["edges"] if lo < e < hi)

    def normalization_error(self, t: float = 0.0, tol: float = 1e-10) -> float:
        """|quadrature integral of pdf - 1|; independent of the closed forms."""
        lo, hi = self.support
        pieces = [lo, *self.quad_breakpoints(), hi]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            # evaluate strictly inside the piece: the pdf is right-continuous
            # at shared edges, which would otherwise stall the subdivision
            eps = (b - a) * 1e-12
            total += adaptive_simpson(
                lambda y: self.pdf(np.clip(y, a + eps, b - eps), t), a, b, tol=tol
            )
        return abs(total - 1.0)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        params = {}
        for k, v in self.params.items():
            params[k] = list(v) if k in ("edges", "weights") else v.to_json()
        return {"family": self.family, "params": params, "support": list(self.support)}

    @staticmethod
    def from_json(obj) -> "Density":
        return Density(
            family=obj["family"],
            support=tuple(obj["support"]),
            params=dict(obj.get("params", {})),
        )


FAMILIES = ("uniform", "truncnorm", "truncexp", "histogram")
