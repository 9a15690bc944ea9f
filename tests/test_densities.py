import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import truncnorm as scipy_truncnorm

from upliftemm.densities import Density
from upliftemm.timefns import derive

# scipy.integrate.quad is the independent oracle for every closed form here


def sample(density: Density, rng: np.random.Generator, times) -> np.ndarray:
    """Draw one mark per entry of ``times`` from f_t at that time."""
    times = np.asarray(times, dtype=float)
    return np.asarray(density.ppf(rng.uniform(size=times.shape), times))


@pytest.fixture(
    params=[
        Density("uniform", (-0.5, 0.5), {}),
        Density("truncnorm", (-0.5, 1.0), {"mu": 0.05, "sigma": 0.3}),
        Density("truncexp", (0.0, 2.0), {"rate": 1.5}),
        Density(
            "histogram",
            (-0.4, 0.6),
            {"edges": [-0.4, 0.0, 0.2, 0.6], "weights": [0.25, 0.35, 0.4]},
        ),
    ],
    ids=["uniform", "truncnorm", "truncexp", "histogram"],
)
def density(request) -> Density:
    return request.param


def _quad_pdf(dens, lo, hi):
    pts = list(dens.params.get("edges", ()))
    inner = [p for p in pts if lo < p < hi]
    val, _ = quad(lambda y: dens.pdf(y), lo, hi, points=inner or None, limit=200)
    return val


class TestClosedForms:
    def test_normalized(self, density):
        assert _quad_pdf(density, *density.support) == pytest.approx(1.0, abs=1e-10)

    def test_mass_matches_quadrature(self, density):
        lo, hi = density.support
        a, b = lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo)
        assert density.mass(a, b) == pytest.approx(_quad_pdf(density, a, b), abs=1e-10)

    def test_restricted_mean_matches_quadrature(self, density):
        lo, hi = density.support
        a, b = lo + 0.1 * (hi - lo), lo + 0.8 * (hi - lo)
        pts = [p for p in density.params.get("edges", ()) if a < p < b]
        num, _ = quad(lambda y: y * density.pdf(y), a, b, points=pts or None, limit=200)
        assert density.restricted_mean(a, b) == pytest.approx(
            num / density.mass(a, b), abs=1e-9
        )

    def test_ppf_inverts_cdf(self, density):
        for u in [0.01, 0.2, 0.5, 0.8, 0.99]:
            assert density.cdf(density.ppf(u)) == pytest.approx(u, abs=1e-10)

    def test_normalization_error_is_small(self, density):
        assert density.normalization_error() < 1e-9


class TestTruncatedNormalAgainstScipy:
    def test_pdf_and_cdf(self):
        mu, sig, lo, hi = 0.05, 0.3, -0.5, 1.0
        ours = Density("truncnorm", (lo, hi), {"mu": mu, "sigma": sig})
        ref = scipy_truncnorm((lo - mu) / sig, (hi - mu) / sig, loc=mu, scale=sig)
        ys = np.linspace(lo, hi, 17)
        assert np.allclose(ours.pdf(ys), ref.pdf(ys), atol=1e-12)
        assert np.allclose(ours.cdf(ys), ref.cdf(ys), atol=1e-12)

    def test_sampling_moments(self):
        mu, sig, lo, hi = 0.05, 0.3, -0.5, 1.0
        ours = Density("truncnorm", (lo, hi), {"mu": mu, "sigma": sig})
        ref = scipy_truncnorm((lo - mu) / sig, (hi - mu) / sig, loc=mu, scale=sig)
        rng = np.random.default_rng(7)
        draws = sample(ours, rng, np.zeros(200_000))
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - ref.mean()) < 4 * se


class TestTimeVarying:
    def test_params_evolve(self):
        dens = Density(
            "truncnorm",
            (-0.5, 1.0),
            {"mu": {"samples": {"t": [0.0, 1.0], "v": [0.0, 0.3]}}, "sigma": 0.25},
        )
        assert dens.is_time_varying
        assert dens.mean(0.9) > dens.mean(0.1)
        assert dens.normalization_error(0.5) < 1e-9

    def test_constant_params_derive_a_constant_mean(self):
        dens = Density("uniform", (-0.5, 0.5), {})
        fn = derive(dens.mean, dens.time_functions, np.linspace(0.0, 1.0, 513))
        assert fn.kind == "const" and fn.constant_value == pytest.approx(0.0, abs=1e-15)


    def test_array_times_match_scalar_calls(self):
        grid = np.linspace(0.0, 1.0, 513)
        for dens in (
            Density("truncnorm", (-0.5, 1.0), {
                "mu": {"samples": {"t": [0.0, 1.0], "v": [0.0, 0.3]}}, "sigma": 0.25,
            }),
            Density("truncexp", (0.0, 2.0), {
                "rate": {"piecewise": {"t": [0.0, 0.5, 1.0], "v": [1.5, -0.7]}},
            }),
            Density("uniform", (-0.5, 0.5), {}),
        ):
            for name, args in (("mass", (-0.2, 0.4)), ("restricted_mean", (-0.2, 0.4)),
                               ("mean", ())):
                fn = getattr(dens, name)
                scalar = [fn(*args, float(t)) for t in grid]
                assert np.array_equal(fn(*args, grid), scalar)
            u = np.random.default_rng(5).uniform(size=grid.size)
            scalar = [dens.ppf(x, t) for x, t in zip(u, grid)]
            assert np.array_equal(dens.ppf(u, grid), scalar)


class TestValidationHooks:
    def test_unnormalized_histogram_detected(self):
        dens = Density(
            "histogram", (0.0, 1.0), {"edges": [0.0, 0.5, 1.0], "weights": [0.5, 0.9]}
        )
        assert dens.normalization_error() > 1e-3

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            Density("cauchy", (0.0, 1.0), {})

    def test_zero_mass_cell_errors(self):
        dens = Density(
            "histogram", (0.0, 1.0), {"edges": [0.0, 0.5, 1.0], "weights": [1.0, 0.0]}
        )
        with pytest.raises(ZeroDivisionError):
            dens.restricted_mean(0.6, 0.9)
