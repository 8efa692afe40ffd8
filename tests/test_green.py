import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    linear_shape,
    monomial,
    monomial_spec,
    separable_profile,
    separable_shape,
    sin_shape,
    sinh_shape,
)
from fluxheat import bench, catalog, green
from fluxheat.closed_form import baseline_u0_polynomial, flux_closed_form, integral_rep_solution
from fluxheat.green import (
    QuadratureError,
    assemble_integral_representation,
    baseline_u0,
    green_eval,
    green_integrand,
    heat_kernel,
    quad_semiinfinite,
    quad_semiinfinite_nodes,
    u0_quadratic_closed,
    u0_separable_closed,
    verify_identity_phi,
)
from fluxheat.problem import InitialProfile, ProfileKind, ShapeKind, SourceShape

SQRT_PI = math.sqrt(math.pi)


class TestKernelAndGreen:
    def test_kernel_peak_value(self):
        assert heat_kernel(1.0, 1.0, 1.0, 0.0) == pytest.approx(1 / (2 * SQRT_PI), rel=1e-15)

    def test_kernel_positive(self):
        for x, xi, dt in ((0.1, 3.0, 0.2), (2.0, 0.5, 1.0)):
            assert heat_kernel(x, dt, xi, 0.0) > 0.0

    def test_green_vanishes_at_face(self):
        for xi, t in ((0.5, 0.2), (3.0, 2.0)):
            assert green_eval(0.0, t, xi, 0.0) == 0.0

    def test_green_symmetric(self):
        a = green_eval(1.0, 1.0, 2.0, 0.0)
        b = green_eval(2.0, 1.0, 1.0, 0.0)
        assert a == pytest.approx(b, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            green_eval(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            green_eval(-1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "weight",
        [
            monomial(0.8, 1),
            monomial(0.8, 7),
            InitialProfile(ProfileKind.QUADRATIC, a=0.3, nu=1.2),
            separable_profile(1.3, -1.7, 0.6),
            separable_profile(1.3, 0.0, 0.6),
            separable_profile(1.3, 0.8, 0.6),
            sinh_shape(0.5, 1.0),
            separable_shape(0.8, 1.5, 2.0),
        ],
        ids=["m1", "m7", "quadratic", "sep-sin", "sep-lin", "sep-sinh", "phi2", "phi-sep"],
    )
    def test_green_integrand_is_bitwise_green_eval_times_weight(self, weight):
        bound = weight.evaluators()[0] if isinstance(weight, InitialProfile) else weight
        for x, t, tau in ((0.0, 0.5, 0.0), (1.3, 0.7, 0.0), (1.0, 1.0, 0.25)):
            for args in ((x, t, tau), (np.float64(x), np.float64(t), np.float64(tau))):
                integrand = green_integrand(*args, bound)
                for xi in np.linspace(0.0, 12.0, 241).tolist():
                    want = green_eval(*args[:2], xi, args[2]) * weight(xi)
                    assert integrand(xi) == want

    def test_green_integrand_domain_errors(self):
        with pytest.raises(ValueError):
            green_integrand(-0.1, 1.0, 0.0, math.exp)
        with pytest.raises(ValueError):
            green_integrand(1.0, 1.0, 1.0, math.exp)


class TestQuadrature:
    def test_moment_identity(self):
        # int_0^inf G(x,t,xi,0) xi dxi = x
        val = quad_semiinfinite(lambda xi: green_eval(1.0, 1.0, xi, 0.0) * xi, center=1.0, tvar=1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_zero_integrand(self):
        assert quad_semiinfinite(lambda xi: 0.0, center=1.0, tvar=1.0) == 0.0

    def test_gaussian_mass_split(self):
        v1 = quad_semiinfinite(lambda xi: heat_kernel(1.0, 1.0, xi, 0.0), center=1.0, tvar=1.0)
        v2 = quad_semiinfinite(lambda xi: heat_kernel(-1.0, 1.0, xi, 0.0), center=-1.0, tvar=1.0)
        assert v1 + v2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tolerance_failure_reports_estimate(self):
        # a discontinuous comb the adaptive rule cannot resolve to 1e-10
        rng = np.random.default_rng(0)
        jumps = np.sort(rng.random(size=400) * 10)

        def nasty(xi):
            return 1.0 if np.searchsorted(jumps, xi) % 2 else -1.0

        with pytest.raises(QuadratureError) as info:
            quad_semiinfinite(nasty, center=5.0, tvar=1.0, tol=1e-12)
        assert info.value.estimate > 0.0


class TestQuadratureNodes:
    def test_second_moment_at_every_node(self):
        # int_0^inf xi^2 exp(-xi^2 / (4t)) dxi = 2 sqrt(pi) t^{3/2}
        t = np.array([1e-12, 0.01, 0.5, 2.0, 8.0])
        got = quad_semiinfinite_nodes(lambda xi: xi * xi, t, tol=1e-12)
        assert np.max(np.abs(got / (2 * SQRT_PI * t ** 1.5) - 1.0)) <= 1e-13

    def test_constant_integrand_broadcasts(self):
        t = np.array([0.25, 1.0])
        got = quad_semiinfinite_nodes(lambda xi: 3.0, t)
        assert got.shape == (2,)
        assert got == pytest.approx(3.0 * SQRT_PI * np.sqrt(t), rel=1e-12)

    def test_scalar_tvar_keeps_shape(self):
        assert quad_semiinfinite_nodes(lambda xi: xi, 1.0).shape == ()

    def test_per_node_bound_failure_raises(self):
        # far too oscillatory for 400 intervals at 1e-12
        t = np.array([0.5, 1.0])
        with pytest.raises(QuadratureError) as info:
            quad_semiinfinite_nodes(lambda xi: np.sin(1e6 * xi), t, tol=1e-12)
        assert np.all(info.value.estimate > 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quad_semiinfinite_nodes(lambda xi: xi, np.array([1.0, 0.0]))


class TestBaseline:
    def test_linear_profile_invariant(self):
        h = monomial(2.0, 1)
        for t in (0.1, 1.0, 4.0):
            assert baseline_u0(h, 1.3, t) == pytest.approx(2.6, abs=1e-9)

    def test_matches_polynomial_m3(self):
        h = monomial(1.0, 3)
        assert baseline_u0(h, 1.0, 1.0) == pytest.approx(7.0, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_matches_polynomial_random_points(self, m, rng):
        h = monomial(0.8, m)
        xs = 0.2 + 1.8 * rng.random(10)
        ts = 0.05 + 0.95 * rng.random(10)
        for x, t in zip(xs, ts):
            quad_val = baseline_u0(h, x, t)
            poly_val = baseline_u0_polynomial(h, x, t)
            assert abs(quad_val - poly_val) <= 1e-8

    def test_matches_quadratic_erf_form(self, rng):
        h = InitialProfile(ProfileKind.QUADRATIC, a=0.0, nu=1.0)
        xs = 0.2 + 1.8 * rng.random(10)
        ts = 0.05 + 0.95 * rng.random(10)
        for x, t in zip(xs, ts):
            assert abs(baseline_u0(h, x, t) - u0_quadratic_closed(1.0, 0.0, x, t)) <= 1e-8

    def test_matches_separable_exponential(self):
        # decay for the sine branch, growth for the sinh branch
        for sigma in (-1.0, 0.8):
            h = separable_profile(2.0, sigma)
            for x, t in ((0.7, 0.4), (1.5, 1.0)):
                want = u0_separable_closed(h, x, t)
                assert baseline_u0(h, x, t) == pytest.approx(want, abs=1e-8, rel=1e-8)

    def test_t0_returns_h(self):
        h = monomial(1.0, 3)
        assert baseline_u0(h, 1.4, 0.0) == h(1.4)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            baseline_u0(monomial(1.0, 3), -0.5, 1.0)


class TestPhiIdentities:
    @pytest.mark.parametrize(
        "shape, factor",
        [
            (linear_shape(2.0), lambda dt: 1.0),
            (sinh_shape(1.0, 1.0), lambda dt: math.exp(dt)),
            (sin_shape(1.0, 1.0), lambda dt: math.exp(-dt)),
        ],
        ids=["phi1", "phi2", "phi3"],
    )
    def test_point_identities(self, shape, factor):
        lhs, rhs, diff = verify_identity_phi(shape, 1.0, 1.0, 0.0)
        assert rhs == pytest.approx(factor(1.0) * shape(1.0), rel=1e-15)
        assert diff <= 1e-9

    def test_example_values(self):
        _, rhs, diff = verify_identity_phi(sinh_shape(1.0, 1.0), 1.0, 1.0, 0.0)
        assert rhs == pytest.approx(-math.e * math.sinh(1.0), rel=1e-14)
        assert diff <= 1e-9
        _, rhs, diff = verify_identity_phi(sin_shape(1.0, 1.0), 1.0, 1.0, 0.0)
        assert rhs == pytest.approx(-math.exp(-1) * math.sin(1.0), rel=1e-14)
        assert diff <= 1e-9

    def test_requires_ordering(self):
        with pytest.raises(ValueError):
            verify_identity_phi(linear_shape(1.0), 1.0, 1.0, 1.5)


class TestAssemble:
    def test_t0_is_h(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        traj = flux_closed_form(spec)
        assert assemble_integral_representation(spec, 1.2, 0.0, traj) == spec.h(1.2)

    def test_zero_flux_gives_baseline(self):
        from fluxheat.trajectory import ClosedFormTrajectory

        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        zero = ClosedFormTrajectory(poly=(0.0,))
        val = assemble_integral_representation(spec, 1.0, 1.0, zero)
        assert val == pytest.approx(baseline_u0(spec.h, 1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)],
        ids=["phi1", "phi2", "phi3"],
    )
    def test_fast_path_matches_closed_form(self, shape):
        spec = monomial_spec(shape, 1.0, 3)
        field = integral_rep_solution(spec)
        for x, t in ((0.6, 0.4), (1.5, 1.1)):
            val = assemble_integral_representation(spec, x, t, field.V)
            assert abs(val - field.u(x, t)) <= 1e-8 * (1 + abs(val))

    def test_fast_path_takes_the_field_time_factor_at_large_t(self):
        # lambda^2 t = 800 for the sine shape: the pre-scaled time factor
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)
        field = integral_rep_solution(spec)
        val = assemble_integral_representation(spec, 1.0, 200.0, field.V)
        want = field.u(1.0, 200.0)
        assert math.isfinite(val) and abs(val - want) <= 1e-12 * abs(want)

    def test_fast_path_with_sampled_flux_at_large_t(self):
        from fluxheat.trajectory import SampledTrajectory

        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)
        field = integral_rep_solution(spec)
        ts = np.linspace(0.0, 200.0, 40001)
        sampled = SampledTrajectory(t=ts, values=field.V(ts))
        val = assemble_integral_representation(spec, 1.0, 200.0, sampled)
        want = field.u(1.0, 200.0)
        # the trapezoid error of the weight e^{-4 (200 - tau)} at step 0.005,
        # (4 * 0.005)^2 / 12 = 3.3e-5 of the time factor
        assert abs(val - want) <= 1e-4 * abs(want)

    def test_slow_oracle_agrees(self):
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 1)
        field = integral_rep_solution(spec)
        fast = assemble_integral_representation(spec, 1.0, 0.5, field.V, slow=False)
        slow = assemble_integral_representation(spec, 1.0, 0.5, field.V, slow=True)
        assert abs(fast - slow) <= 1e-7 * (1 + abs(fast))


@pytest.fixture
def cold_memo():
    """The Green quadrature memo emptied, so the test sees every quadrature run."""
    green._green_quad_of.cache_clear()


# A data field drawn as an int or a float; its twin holds the same value as a float.
_field = st.one_of(st.integers(1, 3), st.floats(0.25, 3.0))


@st.composite
def profile_twins(draw):
    """Two equal InitialProfiles, one built from ints where the other has floats."""
    kind = draw(st.sampled_from(list(ProfileKind)))
    if kind is ProfileKind.MONOMIAL:
        fields = {"eta": draw(_field), "m": draw(st.integers(0, 5))}
    elif kind is ProfileKind.QUADRATIC:
        fields = {"nu": draw(_field), "a": draw(_field)}
    else:
        fields = {
            "eta": draw(_field),
            "sigma": draw(st.sampled_from([-2, -1, 0, 1, 2])),
            "delta": draw(_field),
        }
    twin = {key: float(value) for key, value in fields.items()}
    return InitialProfile(kind, **fields), InitialProfile(kind, **twin)


@st.composite
def shape_twins(draw):
    """Two equal integral-representation shapes, ints against floats."""
    kind = draw(st.sampled_from([ShapeKind.LINEAR_X, ShapeKind.NEG_SINH, ShapeKind.NEG_SIN]))
    fields = {"lam": draw(_field), "mu": draw(_field)}
    twin = {key: float(value) for key, value in fields.items()}
    return SourceShape(kind, **fields), SourceShape(kind, **twin)


# x, and its twin: the other signed zero at x = 0, else the same float.
_points = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 4.0))


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


class TestGreenMemo:
    """The Green quadratures of a profile or shape are memoised per value of
    (data, x, t, tau, tol): a hit returns the bits the quadrature would."""

    def warm_equals_cold(self, call, data, twin, x, *point):
        x_twin = -x if x == 0.0 else x
        green._green_quad_of.cache_clear()
        cold = call(twin, x_twin, *point)
        green._green_quad_of.cache_clear()
        call(data, x, *point)
        hits = green._green_quad_of.cache_info().hits
        warm = call(twin, x_twin, *point)
        assert green._green_quad_of.cache_info().hits == hits + 1
        assert _bits(np.atleast_1d(warm)) == _bits(np.atleast_1d(cold))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(profile_twins(), _points, st.floats(0.05, 2.0))
    def test_warm_baseline_is_bitwise_cold(self, twins, x, t):
        self.warm_equals_cold(baseline_u0, *twins, x, t)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape_twins(), _points, st.floats(0.05, 2.0), st.floats(0.0, 0.9))
    def test_warm_identity_is_bitwise_cold(self, twins, x, t, share):
        self.warm_equals_cold(verify_identity_phi, *twins, x, t, share * t)

    def test_raising_call_stores_nothing(self, cold_memo):
        for _ in range(2):
            with pytest.raises(ValueError):
                baseline_u0(monomial(1.0, 3), -0.5, 1.0)
            with pytest.raises(ValueError):
                verify_identity_phi(linear_shape(1.0), -0.5, 1.0, 0.25)
        assert green._green_quad_of.cache_info().currsize == 0

    def test_repeated_catalog_pass_runs_no_quadrature(self, monkeypatch, cold_memo):
        calls = []
        scalar = green.quad_semiinfinite

        def counting(*args, **kwargs):
            calls.append(1)
            return scalar(*args, **kwargs)

        monkeypatch.setattr(green, "quad_semiinfinite", counting)
        per_pass = []
        for _ in range(2):
            calls.clear()
            for case_id, cfg in catalog.iter_cases():
                checks = tuple(cfg.get("checks", ()))
                bench.run_case(cfg["case"], case_id=case_id, extra_checks=checks)
            per_pass.append(len(calls))
        # one quadrature per distinct key, all of which the memo still holds
        assert per_pass[0] == green._green_quad_of.cache_info().currsize > 0
        assert per_pass[1] == 0
