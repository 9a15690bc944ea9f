import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from upliftemm.errors import QuadratureFailure
from upliftemm.timefns import (
    TimeFunction,
    adaptive_simpson,
    derivation,
    derive,
    integrate_product,
    sum_max_value,
)


_KINDS = (
    TimeFunction.constant(-0.7),
    TimeFunction.piecewise([0.0, 0.3, 0.8, 1.0], [1.0, -2.0, 0.5]),
    TimeFunction.samples(np.linspace(0.0, 0.9, 7), np.cos(np.arange(7.0))),
)


@pytest.mark.parametrize("f", _KINDS)
@pytest.mark.parametrize("g", _KINDS)
def test_array_limits_match_scalar_integrals(f, g):
    # an array of upper limits, 0 among them, gives each scalar result's
    # bits, the sign of a zero included
    b = np.linspace(0.0, 1.2, 33)
    assert f.integral(0.0, b).tobytes() == np.array([f.integral(0.0, x) for x in b]).tobytes()
    want = np.array([integrate_product(f, g, 0.0, float(x)) for x in b])
    assert integrate_product(f, g, 0.0, b).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        integrate_product(f, g, 0.5, b)


class TestEvaluation:
    def test_constant(self):
        fn = TimeFunction.constant(2.5)
        assert fn.value(0.0) == 2.5
        assert fn.value(17.3) == 2.5
        assert np.array_equal(fn.value(np.array([0.0, 1.0])), [2.5, 2.5])

    def test_piecewise_right_continuous(self):
        fn = TimeFunction.piecewise([0.0, 1.0, 2.0], [1.0, 3.0])
        assert fn.value(0.0) == 1.0
        assert fn.value(0.999) == 1.0
        assert fn.value(1.0) == 3.0
        assert fn.value(2.0) == 3.0  # clamps to the last piece

    def test_samples_interpolates(self):
        fn = TimeFunction.samples([0.0, 2.0], [0.0, 2.0])
        assert fn.value(0.5) == 0.5
        assert fn.value(1.5) == 1.5

    def test_bad_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            TimeFunction.piecewise([0.0, 1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TimeFunction.samples([0.0], [1.0])


class TestIntegral:
    def test_constant(self):
        assert TimeFunction.constant(2.0).integral(0.0, 1.0) == 2.0

    def test_linear(self):
        fn = TimeFunction.samples([0.0, 2.0], [0.0, 2.0])
        assert fn.integral(0.0, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_empty_interval(self):
        fn = TimeFunction.piecewise([0.0, 1.0], [3.0])
        assert fn.integral(0.7, 0.7) == 0.0

    def test_piecewise_partial_pieces(self):
        fn = TimeFunction.piecewise([0.0, 1.0, 2.0], [1.0, 3.0])
        assert fn.integral(0.5, 1.5) == pytest.approx(0.5 + 1.5, abs=1e-15)

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=2, max_size=6),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_additivity(self, values, u1, u2):
        # integral over [s, u] plus [u, t] equals [s, t] to 1e-10
        t = np.linspace(0.0, 2.0, len(values) + 1)
        fn = TimeFunction.piecewise(t, values)
        s, u, tt = sorted([2.0 * u1, 2.0 * u2, 1.0])
        assert fn.integral(s, u) + fn.integral(u, tt) == pytest.approx(
            fn.integral(s, tt), abs=1e-10
        )

    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    def test_samples_additivity(self, a, b):
        fn = TimeFunction.samples([0.0, 1.0, 3.0], [0.5, a, b])
        assert fn.integral(0.0, 1.3) + fn.integral(1.3, 2.9) == pytest.approx(
            fn.integral(0.0, 2.9), abs=1e-10
        )


class TestMaxValue:
    def test_interior_piece_found(self):
        fn = TimeFunction.piecewise([0.0, 0.4, 0.6, 1.0], [1.0, 9.0, 2.0])
        assert fn.max_value(0.0, 1.0) == 9.0
        assert fn.max_value(0.61, 1.0) == 2.0

    def test_samples_peak_at_knot(self):
        fn = TimeFunction.samples([0.0, 0.5, 1.0], [0.0, 4.0, 1.0])
        assert fn.max_value(0.0, 1.0) == 4.0

    def test_sum_of_mixed_kinds(self):
        pw = TimeFunction.piecewise([0.0, 1.0, 2.0], [1.0, 3.0])
        lin = TimeFunction.samples([0.0, 2.0], [0.0, 2.0])
        assert sum_max_value([pw, lin], 0.0, 2.0) == pytest.approx(5.0, abs=1e-8)


class TestProductIntegral:
    def test_linear_times_linear(self):
        lin = TimeFunction.samples([0.0, 2.0], [0.0, 2.0])
        assert integrate_product(lin, lin, 0.0, 2.0) == pytest.approx(
            8.0 / 3.0, abs=1e-13
        )

    def test_step_times_linear_exact(self):
        step = TimeFunction.piecewise([0.0, 1.0, 2.0], [2.0, 4.0])
        lin = TimeFunction.samples([0.0, 2.0], [1.0, 3.0])
        # int_0^1 2(1+t) + int_1^2 4(1+t) = 3 + 10
        assert integrate_product(step, lin, 0.0, 2.0) == pytest.approx(
            13.0, abs=1e-13
        )

    def test_constant_shortcut(self):
        c = TimeFunction.constant(3.0)
        lin = TimeFunction.samples([0.0, 1.0], [0.0, 1.0])
        assert integrate_product(c, lin, 0.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(-2.0, 2.0))
    def test_matches_scipy_quad(self, a, b, c):
        f = TimeFunction.samples([0.0, 0.7, 2.0], [a, b, c])
        g = TimeFunction.piecewise([0.0, 1.1, 2.0], [b, a])
        expected, _ = quad(
            lambda t: f.value(t) * g.value(t), 0.0, 2.0, points=[0.7, 1.1], limit=200
        )
        assert integrate_product(f, g, 0.0, 2.0) == pytest.approx(
            expected, abs=1e-9
        )


class TestAdaptiveSimpson:
    def test_smooth_integrand(self):
        assert adaptive_simpson(np.sin, 0.0, np.pi, tol=1e-10) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_polynomial_immediate(self):
        assert adaptive_simpson(lambda t: t**3, 0.0, 1.0) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_depth_exhaustion_raises(self):
        with pytest.raises(QuadratureFailure):
            adaptive_simpson(
                lambda t: 1.0 / np.sqrt(abs(t) + 1e-300), 0.0, 1.0,
                tol=1e-12, max_depth=3,
            )


class TestSerialization:
    @pytest.mark.parametrize(
        "fn",
        [
            TimeFunction.constant(1.25),
            TimeFunction.piecewise([0.0, 0.5, 1.0], [2.0, 1.0]),
            TimeFunction.samples([0.0, 1.0], [0.5, 1.5]),
        ],
    )
    def test_roundtrip(self, fn):
        assert TimeFunction.from_json(fn.to_json()) == fn

    def test_coerce_number(self):
        assert TimeFunction.coerce(3) == TimeFunction.constant(3.0)

    def test_scaled_keeps_kind(self):
        fn = TimeFunction.piecewise([0.0, 1.0], [2.0]).scaled(0.5)
        assert fn.kind == "piecewise" and fn.value(0.3) == 1.0


GRID = np.linspace(0.0, 1.0, 256)


@st.composite
def step_fns(draw):
    """A step function on [0, 1] with up to four interior breakpoints."""
    inner = draw(st.lists(st.floats(0.001, 0.999), max_size=4, unique=True))
    t = [0.0, *sorted(inner), 1.0]
    v = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(t) - 1, max_size=len(t) - 1))
    return TimeFunction.piecewise(t, v)


def _mix(fns):
    """A nonlinear function of the time functions ``fns``."""
    return lambda t: np.exp(sum(fn.value(t) for fn in fns)) * fns[0].value(t) ** 2


class TestDerive:
    @given(
        st.lists(step_fns(), min_size=1, max_size=3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    def test_steps_are_exact_between_knots(self, fns, times):
        fn = _mix(fns)
        got = derive(fn, fns, GRID)
        assert got.kind in ("const", "piecewise")
        times = np.array(times)
        assert np.array_equal(got.value(times), fn(times))

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    def test_constant_inputs_give_a_constant(self, values):
        fns = [TimeFunction.constant(v) for v in values]
        fn = _mix(fns)
        got = derive(fn, fns, GRID)
        assert got.kind == "const"
        assert got.constant_value == fn(np.array([0.0]))[0]
        assert derivation(fns, GRID)[0].tolist() == [0.0]

    @given(step_fns())
    def test_equal_pieces_give_a_constant(self, step):
        got = derive(lambda t: 0.0 * step.value(t) + 2.5, (step,), GRID)
        assert got == TimeFunction.constant(2.5)

    @given(step_fns(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_one_samples_input_samples_on_the_grid(self, step, a, b):
        fns = [step, TimeFunction.samples([0.0, 1.0], [a, a + 1.0 + abs(b)])]
        fn = _mix(fns)
        got = derive(fn, fns, GRID)
        assert got.kind == "samples"
        assert np.array_equal(got.t, GRID)
        assert np.array_equal(got.v, fn(GRID))

    def test_rows_share_the_nodes(self):
        step = TimeFunction.piecewise([0.0, 0.3, 1.0], [1.0, 2.0])
        twice, same = derive(lambda t: np.array([2.0 * step(t), 0.0 * step(t)]),
                             (step,), GRID)
        assert twice == TimeFunction.piecewise([0.0, 0.3, 1.0], [2.0, 4.0])
        assert same == TimeFunction.constant(0.0)
