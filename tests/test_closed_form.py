import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, solve_ivp

from conftest import (
    constant_law,
    linear_law,
    linear_shape,
    monomial,
    monomial_spec,
    separated_spec,
    sin_shape,
    sinh_shape,
)
from fluxheat import bench, catalog, closed_form, trajectory
from fluxheat import volterra as vol
from fluxheat.fd import pde_residual
from fluxheat.green import QuadratureError
from fluxheat.closed_form import (
    ConstructionError,
    Provenance,
    _u0_coeffs,
    _u0_dx_sum,
    baseline_u0_polynomial,
    flux_closed_form,
    integral_rep_solution,
    separated_components,
    separated_solution,
    solution_for,
    stationary_solution,
    tilde_solution,
)
from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    SourceShape,
    TimeFunction,
    Variant,
    separated_evaluators,
    spec_from_dict,
)
from fluxheat.trajectory import ClosedFormTrajectory

CONSTANT_ONE = SourceShape(ShapeKind.CONSTANT_ONE)


def quadratic_profile(nu, a):
    return InitialProfile(ProfileKind.QUADRATIC, a=a, nu=nu)


class TestStationary:
    def test_zero_law(self):
        spec = ProblemSpec(linear_shape(), FluxLaw(FluxKind.ZERO), monomial(2.0, 1))
        field = stationary_solution(spec)
        assert field.u(1.3, 5.0) == 2.6
        assert float(field.V(2.0)) == 2.0
        assert field.u(0.0, 1.0) == 0.0
        assert field.provenance is Provenance.STATIONARY

    def test_constant_law_quadratic(self):
        spec = ProblemSpec(CONSTANT_ONE, constant_law(1.0), quadratic_profile(1.0, 0.0))
        field = stationary_solution(spec)
        for t in (0.0, 1.0, 50.0):
            assert field.u(2.0, t) == 2.0

    def test_rejects_bad_pairing(self):
        spec = ProblemSpec(linear_shape(), FluxLaw(FluxKind.ZERO), monomial(1.0, 3))
        with pytest.raises(ConstructionError):
            stationary_solution(spec)
        spec = ProblemSpec(linear_shape(), constant_law(1.0), quadratic_profile(1.0, 0.0))
        with pytest.raises(ConstructionError):
            stationary_solution(spec)


class TestSeparated:
    def test_linear_balance_is_constant(self):
        spec = separated_spec(1.0, 1.0, 1.0, 1.0, linear_law(1.0))
        field = separated_solution(spec)
        comps = separated_components(spec)
        for t in (0.0, 0.7, 3.0):
            assert comps.T(t) == pytest.approx(1.0, rel=1e-15)
            assert field.u(1.0, t) == pytest.approx(comps.X(1.0))

    def test_linear_sigma0_decay(self):
        # sigma=0, nu=2, delta=1, eta=3: T = 3 exp(-2t)
        spec = separated_spec(0.0, 1.0, 1.0, 3.0, linear_law(2.0))
        comps = separated_components(spec)
        for t in (0.0, 0.4, 2.0):
            assert comps.T(t) == pytest.approx(3.0 * math.exp(-2.0 * t), rel=1e-14)

    def test_x_branches_solve_the_ode(self):
        for sigma in (-2.0, 0.0, 1.5):
            spec = separated_spec(sigma, 0.8, 1.0, 1.0, linear_law(1.0))
            comps = separated_components(spec)
            d = 1e-2
            for x in (0.4, 1.2):
                second = lambda dd: (comps.X(x + dd) - 2 * comps.X(x) + comps.X(x - dd)) / dd ** 2  # noqa: E731
                extrap = (4 * second(d / 2) - second(d)) / 3
                assert abs(extrap - sigma * comps.X(x)) <= 1e-10 * (1 + abs(comps.X(x)))

    def test_flux_is_delta_times_T(self):
        spec = separated_spec(-1.0, 1.5, 1.0, 2.0, linear_law(1.0))
        field = separated_solution(spec)
        comps = separated_components(spec)
        for t in (0.1, 1.0, 4.0):
            assert float(field.V(t)) == pytest.approx(1.5 * comps.T(t), rel=1e-14)

    def test_power_law_n0_against_ode(self):
        # spec example: n=0, f=1, sigma=-1, scale=1, delta=1, eta=2
        spec = separated_spec(
            -1.0, 1.0, 1.0, 2.0, FluxLaw(FluxKind.POWER_LAW, n=0.0, f=TimeFunction.constant(1.0))
        )
        comps = separated_components(spec)
        sol = solve_ivp(
            lambda t, y: [-y[0] - 1.0], (0, 3), [2.0], rtol=1e-11, atol=1e-12, dense_output=True
        )
        for t in (0.5, 1.5, 3.0):
            assert comps.T(t) == pytest.approx(sol.sol(t)[0], rel=1e-9)
        # closed form: T = 3 e^{-t} - 1
        assert comps.T(1.0) == pytest.approx(3 / math.e - 1, rel=1e-14)

    def test_power_law_constant_test_is_structural(self):
        # a non-constant f must not take the constant path, which only constant() opens
        f = TimeFunction(lambda t: 1.0 + t, lambda t: t + 0.5 * t * t)
        spec = separated_spec(-1.0, 1.0, 1.0, 2.0, FluxLaw(FluxKind.POWER_LAW, n=0.0, f=f))
        comps = separated_components(spec)
        sol = solve_ivp(
            lambda t, y: [-y[0] - (1.0 + t)], (0, 3), [2.0], rtol=1e-11, atol=1e-12, dense_output=True
        )
        for t in (0.5, 1.5, 3.0):
            assert comps.T(t) == pytest.approx(sol.sol(t)[0], rel=1e-9)
        assert TimeFunction.constant(1.5).constant_value == 1.5
        assert TimeFunction.exponential(1.5, 0.0).constant_value == 1.5
        assert TimeFunction.polynomial([1.5]).constant_value is None

    def test_power_law_fractional_against_ode(self):
        spec = separated_spec(
            0.5, 1.0, 1.0, 1.0, FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(0.25))
        )
        comps = separated_components(spec)
        rhs = lambda t, y: [0.5 * y[0] - 0.25 * math.sqrt(max(y[0], 0.0))]  # noqa: E731
        sol = solve_ivp(rhs, (0, 4), [1.0], rtol=1e-11, atol=1e-13, dense_output=True)
        for t in (1.0, 2.5, 4.0):
            assert comps.T(t) == pytest.approx(sol.sol(t)[0], rel=1e-8)

    def test_power_law_quenches(self):
        spec = separated_spec(
            -0.5, 1.0, 1.0, 1.0, FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(1.0))
        )
        comps = separated_components(spec)
        assert comps.T(30.0) == 0.0

    def test_power_law_short_quadrature_is_a_recorded_reason(self):
        # f = 1 + sin(1e5 t) oscillates too fast for 400 subintervals at 1e-12
        f = TimeFunction(
            lambda t: 1.0 + math.sin(1e5 * t),
            lambda t: t + (1.0 - math.cos(1e5 * t)) / 1e5,
        )
        spec = separated_spec(0.5, 1.0, 1.0, 1.0, FluxLaw(FluxKind.POWER_LAW, n=0.5, f=f))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            with pytest.raises(QuadratureError) as info:
                separated_components(spec).T(2.0)
            assert info.value.estimate > 50 * 1e-12 * (1 + abs(info.value.value))
            result = bench.run_case(spec, case_id="short-T")
        assert not result.passed
        assert result.reason.startswith("quadrature over [0, ")
        assert result.reason.endswith("wanted 1.000e-12")

    def test_power_law_requires_positive_data(self):
        law = FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(1.0))
        with pytest.raises(ConstructionError):
            separated_solution(separated_spec(1.0, 1.0, -1.0, 1.0, law))
        with pytest.raises(ConstructionError):
            separated_solution(separated_spec(1.0, 1.0, 1.0, -1.0, law))

    def test_affine_constant_coefficients(self):
        # T' = (sigma - scale*delta*c2) T - scale*c1
        sigma, scale, delta, eta, c1, c2 = 0.7, 1.3, 0.9, 1.5, 0.4, 0.6
        law = FluxLaw(
            FluxKind.AFFINE,
            f1=TimeFunction.constant(c1),
            f2=TimeFunction.constant(c2),
        )
        spec = separated_spec(sigma, delta, scale, eta, law)
        comps = separated_components(spec)
        alpha = sigma - scale * delta * c2
        beta = scale * c1
        for t in (0.3, 1.0, 2.2):
            want = beta / alpha + (eta - beta / alpha) * math.exp(alpha * t)
            assert comps.T(t) == pytest.approx(want, rel=1e-10)

    def test_affine_exponential_preset_against_ode(self):
        law = FluxLaw(
            FluxKind.AFFINE,
            f1=TimeFunction.exponential(0.5, -1.0),
            f2=TimeFunction.polynomial([0.2, 0.1]),
        )
        spec = separated_spec(-0.3, 1.0, 1.0, 1.0, law)
        comps = separated_components(spec)

        def rhs(t, y):
            return [-0.3 * y[0] - (0.5 * math.exp(-t) + (0.2 + 0.1 * t) * y[0])]

        sol = solve_ivp(rhs, (0, 3), [1.0], rtol=1e-11, atol=1e-13, dense_output=True)
        for t in (0.5, 1.5, 3.0):
            assert comps.T(t) == pytest.approx(sol.sol(t)[0], rel=1e-8)

    def test_affine_rejects_nonintegrable(self):
        bad = TimeFunction(lambda t: 1 / t, lambda t: math.log(t), locally_integrable=False)
        law = FluxLaw(FluxKind.AFFINE, f1=bad, f2=TimeFunction.constant(1.0))
        with pytest.raises(ConstructionError):
            separated_solution(separated_spec(1.0, 1.0, 1.0, 1.0, law))


class TestBaselinePolynomial:
    def test_m1(self):
        assert baseline_u0_polynomial(monomial(2.0, 1), 1.5, 9.0) == pytest.approx(3.0)

    def test_m3_expansion(self):
        # eta (x^3 + 6 t x)
        h = monomial(1.0, 3)
        for x, t in ((1.0, 1.0), (0.5, 2.0)):
            assert baseline_u0_polynomial(h, x, t) == pytest.approx(x ** 3 + 6 * t * x, rel=1e-14)

    def test_vanishes_at_face(self):
        for m in (1, 3, 5, 7):
            assert baseline_u0_polynomial(monomial(1.0, m), 0.0, 2.0) == 0.0

    def test_reduces_to_h_at_t0(self):
        for m in (1, 3, 7):
            h = monomial(0.7, m)
            assert baseline_u0_polynomial(h, 1.7, 0.0) == pytest.approx(h(1.7), rel=1e-14)

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            baseline_u0_polynomial(monomial(1.0, 2), 1.0, 1.0)

    def test_dx_matches_fd(self):
        # the field's ux carries the baseline's x-derivative for m >= 3
        field = integral_rep_solution(monomial_spec(sin_shape(1.0, 1.0), 0.9, 5))
        d = 1e-6
        for x, t in ((0.8, 0.5), (1.7, 1.2)):
            fd = (field.u(x + d, t) - field.u(x - d, t)) / (2 * d)
            assert field.ux(x, t) == pytest.approx(fd, rel=1e-8)


class TestFluxClosedForm:
    def test_phi1_m1(self):
        traj = flux_closed_form(monomial_spec(linear_shape(2.0), 1.0, 1))
        for t in (0.1, 1.0, 4.0):
            assert traj(t) == pytest.approx(math.exp(-2 * t), rel=1e-13)

    def test_phi1_m3_limit(self):
        traj = flux_closed_form(monomial_spec(linear_shape(1.0), 1.0, 3))
        for t in (0.2, 1.0, 3.0):
            assert traj(t) == pytest.approx(6 * (1 - math.exp(-t)), rel=1e-12)

    def test_phi1_m5_expanded_form(self):
        eta, nu, lam = 0.7, 1.3, 0.9
        a, c = nu * lam, 60 * 0.7
        c15 = -c * 2 / a ** 2
        traj = flux_closed_form(monomial_spec(linear_shape(lam), eta, 5, nu=nu))
        for t in (0.2, 1.1, 3.0):
            want = -c15 * (a * t - 1) - c15 * math.exp(-a * t)
            assert traj(t) == pytest.approx(want, rel=1e-11)

    def test_phi1_general_constant_term_sign(self):
        # the unified sum carries a +1 constant term; a (-1)^(p-1) variant
        # flips it for even p and fails the governing equation, which pins
        # the sign independently (m = 5 gives p = 2)
        eta, nu, lam = 1.0, 1.0, 1.0
        spec = monomial_spec(linear_shape(lam), eta, 5, nu=nu)
        forcing = vol.forcing_for(spec.h)
        c, p, a = forcing.c, int(forcing.exponent), nu * lam
        c_1m = (-1) ** (p - 1) * c * math.factorial(p) / a ** p
        t = np.linspace(0.1, 3.0, 8)

        def trajectory(constant):
            from fluxheat.trajectory import ClosedFormTrajectory

            poly = [0.0] * p
            for k in range(1, p):
                poly[k] = c_1m * (-a) ** k / math.factorial(k)
            poly[0] = c_1m * constant
            return ClosedFormTrajectory(poly=tuple(poly), exps=((-c_1m, -a),))

        kernel = vol.kernel_for(spec.phi)
        res_ours = vol.volterra_residual(trajectory(1.0), kernel, forcing, nu, t)
        res_flipped = vol.volterra_residual(trajectory((-1.0) ** (p - 1)), kernel, forcing, nu, t)
        assert res_ours < 1e-10
        assert res_flipped > 1.0

    def test_phi2_m1(self):
        lam, mu, nu, eta = 0.5, 1.0, 1.0, 1.0
        sigma = lam + nu * mu
        traj = flux_closed_form(monomial_spec(sinh_shape(lam, mu), eta, 1, nu=nu))
        for t in (0.2, 1.0, 2.0):
            want = eta / sigma * (lam + nu * mu * math.exp(lam * sigma * t))
            assert traj(t) == pytest.approx(want, rel=1e-13)

    def test_phi2_m3_expanded_form(self):
        lam, mu, nu, eta = 0.5, 1.0, 1.0, 1.0
        sigma, c = lam + nu * mu, 6 * eta
        c23 = c * nu * mu / (sigma * lam * sigma)
        traj = flux_closed_form(monomial_spec(sinh_shape(lam, mu), eta, 3, nu=nu))
        for t in (0.2, 1.5):
            want = c23 * (lam ** 2 * sigma / (nu * mu) * t - 1) + c23 * math.exp(lam * sigma * t)
            assert traj(t) == pytest.approx(want, rel=1e-12)

    def test_phi3_m1_branches(self):
        # delta > 0
        traj = flux_closed_form(monomial_spec(sin_shape(2.0, 1.0), 1.0, 1))
        for t in (0.5, 2.0):
            assert traj(t) == pytest.approx(2.0 - math.exp(-2 * t), rel=1e-13)
        # delta = 0 resonance: V = eta (1 + lam^2 t)
        traj = flux_closed_form(monomial_spec(sin_shape(1.0, 1.0), 1.0, 1))
        assert traj(2.0) == pytest.approx(3.0, rel=1e-14)

    def test_phi3_m5_expanded_form(self):
        # every coefficient of the sine-shape flux involves delta; the
        # expanded m = 5 form below satisfies the governing equation
        lam, mu, nu, eta = 2.0, 1.0, 1.0, 1.0
        delta, c = lam - nu * mu, 60 * eta
        c35 = -c * nu * mu * 2 / (delta * (lam * delta) ** 2)
        traj = flux_closed_form(monomial_spec(sin_shape(lam, mu), eta, 5, nu=nu))
        for t in (0.2, 1.0):
            want = -c35 * (lam ** 3 * delta ** 2 / (2 * nu * mu) * t * t - lam * delta * t + 1)
            want += c35 * math.exp(-lam * delta * t)
            assert traj(t) == pytest.approx(want, rel=1e-11)

    def test_initial_values(self):
        # t -> 0+ limit: eta for m = 1, zero for m > 1, any shape
        for shape in (linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)):
            assert flux_closed_form(monomial_spec(shape, -3.0, 1)).initial_value == pytest.approx(-3.0)
            for m in (3, 5, 7):
                traj = flux_closed_form(monomial_spec(shape, 1.0, m))
                assert abs(traj.initial_value) < 1e-9

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0), sin_shape(1.0, 1.0)],
        ids=["phi1", "phi2", "phi3-dpos", "phi3-d0"],
    )
    def test_volterra_residual_grid(self, shape, m):
        spec = monomial_spec(shape, 0.7, m)
        traj = flux_closed_form(spec)
        res = vol.volterra_residual(
            traj, vol.kernel_for(spec.phi), vol.forcing_for(spec.h), 1.0, np.linspace(0.1, 5.0, 12)
        )
        assert res <= 1e-8

    def test_even_m_rejected(self):
        with pytest.raises(ConstructionError):
            flux_closed_form(monomial_spec(linear_shape(), 1.0, 2))

    def test_construction_check_catches_corruption(self):
        spec = monomial_spec(linear_shape(), 1.0, 3)
        traj = flux_closed_form(spec)
        from fluxheat.trajectory import ClosedFormTrajectory

        bad = ClosedFormTrajectory(poly=tuple(c + 0.1 for c in traj.poly), exps=traj.exps)
        kernel = vol.kernel_for(spec.phi)
        forcing = vol.forcing_for(spec.h)
        assert vol.volterra_residual(bad, kernel, forcing, 1.0, [0.5, 1.0]) > 0.05


class TestIntegralRepSolution:
    def test_phi1_m1_field(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        field = integral_rep_solution(spec)
        for x, t in ((0.5, 0.4), (2.0, 1.5)):
            assert field.u(x, t) == pytest.approx(x * math.exp(-t), rel=1e-13)
        assert field.provenance is Provenance.INTEGRAL_REP

    def test_matches_separated_family(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        field = integral_rep_solution(spec)
        sep = separated_solution(separated_spec(0.0, 1.0, 1.0, 1.0, linear_law(1.0)))
        for x, t in ((0.3, 0.2), (1.5, 2.0)):
            assert field.u(x, t) == pytest.approx(sep.u(x, t), rel=1e-13)

    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)],
        ids=["phi1", "phi2", "phi3"],
    )
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_initial_and_boundary_conditions(self, shape, m):
        spec = monomial_spec(shape, 0.8, m)
        field = integral_rep_solution(spec)
        for x in (0.2, 1.0, 2.5):
            h = spec.h(x)
            assert abs(field.u(x, 0.0) - h) <= 1e-10 * (1 + abs(h))
        for t in (0.3, 1.2, 4.0):
            assert abs(field.u(0.0, t)) <= 1e-12

    def test_flux_matches_one_sided_derivative(self):
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)
        field = integral_rep_solution(spec)
        for t in (0.1, 0.9, 3.0):
            h0 = 1e-4
            one_sided = lambda h: (-3 * field.u(0, t) + 4 * field.u(h, t) - field.u(2 * h, t)) / (2 * h)  # noqa: E731
            extrap = (4 * one_sided(h0 / 2) - one_sided(h0)) / 3
            v = float(field.V(t))
            assert abs(extrap - v) <= 1e-6 * (1 + abs(v))


def uncached_w(spec, traj, t):
    """The time factor W(t) computed afresh, past both levels of its memo."""
    return trajectory._time_factor_of.__wrapped__(traj, spec.phi.semigroup[1], 1.0, 1.0).__wrapped__(t)


def uncached_u(spec, traj, x, t):
    """The field's formula with the baseline and time factor recomputed per call."""
    base = 0.0
    for coef, k, power in _u0_coeffs(spec.h):
        base += coef * (4.0 * t) ** k * x ** power
    return base - spec.flux.nu * spec.phi(x) * uncached_w(spec, traj, t)


def uncached_v(spec, traj, x, t):
    base = 0.0
    for coef, k, power in _u0_coeffs(spec.h):
        if power >= 1:
            base += coef * (4.0 * t) ** k * power * x ** (power - 1)
    return base - spec.flux.nu * spec.phi.derivative(x) * uncached_w(spec, traj, t)


class TestTimeFactorOncePerT:
    SHAPES = [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)]

    @pytest.mark.parametrize("shape", SHAPES, ids=["phi1", "phi2", "phi3"])
    @pytest.mark.parametrize("m", [1, 7])
    def test_u_and_v_equal_uncached_formula(self, shape, m):
        spec = monomial_spec(shape, 0.8, m)
        field = integral_rep_solution(spec)
        tilde = tilde_solution(monomial_spec(shape, 0.8, m, variant=Variant.P_TILDE))
        # distinct times, revisited, as floats and numpy scalars; t = 10 takes
        # the pre-scaled branch of the sine shape
        ts = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 0.3, 0.7, 1.3]
        points = [(x, t) for t in ts + ts[::-1] for x in (0.0, 0.4, 1.7)]
        points += [(np.float64(x), np.float64(t)) for x, t in points[::7]]
        for x, t in points:
            assert field.u(x, t) == uncached_u(spec, field.V, x, t)
            assert tilde.u(x, t) == uncached_v(spec, tilde.V, x, t)

    @staticmethod
    def count_time_factors(monkeypatch, field):
        """The t of every W the field evaluates from here on, and its W
        binding, emptied."""
        calls = []
        real = ClosedFormTrajectory.weighted_integral

        def counting(V, rate, t):
            calls.append(t)
            return real(V, rate, t)

        W = field.V.time_factor(field.spec.phi.semigroup[1])  # the binding the field holds
        W.cache_clear()
        monkeypatch.setattr(ClosedFormTrajectory, "weighted_integral", counting)
        return calls, W

    def test_pde_residual_computes_five_time_factors(self, monkeypatch):
        spec = monomial_spec(sin_shape(2.0, 1.0), 0.8, 3)
        closed_form._integral_rep_solution_of.cache_clear()  # a field with no point stored
        field = integral_rep_solution(spec)  # its flux check evaluates W too
        calls, W = self.count_time_factors(monkeypatch, field)
        pde_residual(field, spec, 0.7, 0.9, delta=1e-3)
        # u is called 9 times at the 5 stencil times t, t +- d, t +- d/2, and
        # -rho t < 30 there, so each evaluated W integrates V once
        assert len(calls) == 5 and len(set(calls)) == 5
        assert W.cache_info().misses == 5

    def test_flux_consistency_computes_five_time_factors(self, monkeypatch):
        spec = monomial_spec(sin_shape(2.0, 1.0), 0.8, 3)
        closed_form._integral_rep_solution_of.cache_clear()  # a field with no point stored
        field = integral_rep_solution(spec)
        u_calls, u = [], field.u
        field = dataclasses.replace(field, u=lambda x, t: u_calls.append(t) or u(x, t))
        checks = bench._integral_rep_checks(spec, field, slow=False)
        assert next(checks)[0] == "volterra_residual"  # W times kappa: another binding
        calls, W = self.count_time_factors(monkeypatch, field)
        assert next(checks)[0] == "flux_consistency"
        # 3 u calls per one-sided difference, 2 differences per t, 5 t: 30
        # calls at 20 distinct points (x = 0, d/2, d, 2d), each evaluated once
        assert len(u_calls) == 30 and len(set(u_calls)) == 5
        assert u.cache_info().misses == 20 and u.cache_info().hits == 10
        assert len(calls) == 5 and len(set(calls)) == 5
        assert W.cache_info().misses == 5 and W.cache_info().hits == 15


def test_pre_scaled_time_factor_matches_the_plain_form():
    # -rho t > 30 takes the pre-scaled sum, whose exp(r t) - exp(-b t) term
    # dominates for a flux rate r = -0.99 near -b = -1; the plain form
    # exp(rho t) * int_0^t exp(-rho tau) V dtau is still finite at these t
    V = ClosedFormTrajectory(poly=(0.0,), exps=((1.0, -0.99),))
    rho = -1.0
    for t in (31.0, 45.0, 60.0):
        plain = math.exp(rho * t) * V.weighted_integral(-rho, t)
        assert V.weighted_flux_integral(rho, t) == pytest.approx(plain, rel=1e-12)


def catalog_trajectories():
    """(case id, V) of every catalog case whose flux is a closed-form trajectory."""
    out = []
    for cid, cfg in catalog.iter_cases():
        field = solution_for(spec_from_dict(cfg["case"]))
        if field.provenance is not Provenance.STATIONARY and isinstance(field.V, ClosedFormTrajectory):
            out.append((cid, field.V))
    return out


class TestScalarTrajectory:
    def test_scalar_path_is_bitwise_array_path(self):
        trajs = catalog_trajectories()
        assert len(trajs) >= 20
        # the pde_residual stencil t, t +- 1e-3, t +- 5e-4 at the sample times
        stencil = [t + s * 1e-3 for t in bench._sample_points()[1]
                   for s in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        times = [0.0, 1e-8, *stencil, 80.0, 1e3]
        overflowed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow to inf must stay silent
            for cid, V in trajs:
                for t in times:
                    want = float(V(np.asarray(t))).hex()  # the 0-d array path
                    for arg in (t, np.float64(t)):
                        got = V(arg)
                        assert type(got) is float and got.hex() == want, (cid, t)
                assert V(80) == V(80.0)
                overflowed += math.isinf(V(1e3))
        assert overflowed > 0

    def test_arrays_keep_the_array_path(self):
        V = ClosedFormTrajectory(poly=(1.0, 2.0), exps=((3.0, -0.5),))
        t = np.array([0.0, 0.5, 2.0])
        got = V(t)
        assert isinstance(got, np.ndarray) and got.tolist() == [V(s) for s in t.tolist()]


class TestTilde:
    def test_constant_family(self):
        spec = ProblemSpec(linear_shape(), FluxLaw(FluxKind.ZERO), monomial(2.0, 1), Variant.P_TILDE)
        field = tilde_solution(spec)
        for x, t in ((0.0, 0.0), (1.5, 3.0)):
            assert field.u(x, t) == 2.0

    def test_separated_family(self):
        spec = separated_spec(-1.0, 1.0, 1.0, 1.0, linear_law(1.0), variant=Variant.P_TILDE)
        field = tilde_solution(spec)
        # v = delta*cos(x) * eta*exp((sigma-gamma) t)
        for x, t in ((0.5, 0.3), (1.2, 1.0)):
            want = math.cos(x) * math.exp(-2.0 * t)
            assert field.u(x, t) == pytest.approx(want, rel=1e-13)

    def test_derivative_family_phi1_m1(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1, variant=Variant.P_TILDE)
        field = tilde_solution(spec)
        for x, t in ((0.4, 0.2), (2.0, 1.5)):
            assert field.u(x, t) == pytest.approx(math.exp(-t), rel=1e-12)

    def test_derivative_family_matches_ux(self):
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3, variant=Variant.P_TILDE)
        field = tilde_solution(spec)
        base = integral_rep_solution(spec.as_p())
        d = 1e-5
        for x, t in ((0.6, 0.5), (1.4, 1.2)):
            central = lambda h: (base.u(x + h, t) - base.u(x - h, t)) / (2 * h)  # noqa: E731
            extrap = (4 * central(d / 2) - central(d)) / 3
            assert field.u(x, t) == pytest.approx(extrap, rel=1e-8)

    def test_stationary_quadratic_neumann(self):
        spec = ProblemSpec(
            CONSTANT_ONE, constant_law(1.0), quadratic_profile(1.0, 0.5),
            Variant.P_TILDE,
        )
        field = tilde_solution(spec)
        # v = h' = nu x + a; Neumann datum g = Phi(0) F = nu
        assert field.u(2.0, 1.0) == pytest.approx(2.5)
        d = 1e-6
        vx0 = (field.u(d, 1.0) - field.u(0.0, 1.0)) / d
        assert vx0 == pytest.approx(1.0, rel=1e-6)

    def test_rejects_p_variant(self):
        with pytest.raises(ConstructionError):
            tilde_solution(monomial_spec(linear_shape(), 1.0, 1))


def per_family_companion_u(spec):
    """The companion field's v(x, t) as each family once derived it by hand,
    before the companion field became the x-derivative view of its base."""
    base = spec.as_p()
    if spec.flux.kind is FluxKind.ZERO or spec.flux.constant_value is not None:
        hp = spec.h.derivative
        return lambda x, t: hp(x)
    if spec.phi.kind is ShapeKind.SCALED_SEPARABLE:
        comps = separated_components(base)
        X_tilde = separated_evaluators(comps.sigma, comps.delta)[1]
        return lambda x, t: X_tilde(x) * comps.T(t)
    traj = flux_closed_form(base)
    phi, nu = base.phi, base.flux.nu
    coeffs = _u0_coeffs(base.h)
    rho = phi.semigroup[1]
    return lambda x, t: (
        _u0_dx_sum(coeffs, x, t) - nu * phi.derivative(x) * traj.weighted_flux_integral(rho, t)
    )


def companion_view_specs():
    specs = [
        pytest.param(spec_from_dict(cfg["case"]), id=cid)
        for cid, cfg in catalog.iter_cases()
        if cid.startswith("tilde-")
    ]
    shapes = {"phi1": linear_shape(1.3), "phi2": sinh_shape(0.5, 1.0), "phi3": sin_shape(2.0, 1.0)}
    for name, shape in shapes.items():
        for m in (1, 3, 5, 7):
            spec = monomial_spec(shape, 0.8, m, nu=0.9, variant=Variant.P_TILDE)
            specs.append(pytest.param(spec, id=f"{name}-m{m}"))
    laws = {
        "linear": linear_law(0.7),
        "power": FluxLaw(FluxKind.POWER_LAW, nu=0.7, n=0.5, f=TimeFunction.constant(0.7)),
    }
    for sigma in (-2.0, 0.0, 0.7):
        for law, flux in laws.items():
            spec = separated_spec(sigma, 0.8, 1.2, 1.1, flux, variant=Variant.P_TILDE)
            specs.append(pytest.param(spec, id=f"separated-{sigma}-{law}"))
    return specs


class TestCompanionView:
    @pytest.mark.parametrize("spec", companion_view_specs())
    def test_view_equals_per_family_formula(self, spec):
        field = tilde_solution(spec)
        want = per_family_companion_u(spec)
        # t = 10 takes the pre-scaled branch of the sine shape
        ts = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 0.3, np.float64(0.7)]
        for t in ts:
            for x in (0.0, 0.4, 1.7, np.float64(0.9)):
                assert float(field.u(x, t)).hex() == float(want(x, t)).hex(), (x, t)

    @pytest.mark.parametrize("spec", companion_view_specs())
    def test_base_is_the_problem_p_field(self, spec):
        field = tilde_solution(spec)
        assert field.base.spec == spec.as_p()
        assert field.base.base is None
        assert field.V is field.base.V
        assert field.u is field.base.ux
        assert field.provenance is field.base.provenance

    def test_out_of_family_spec_names_the_problem_p_reason(self):
        spec = ProblemSpec(CONSTANT_ONE, linear_law(1.0), monomial(1.0, 1), Variant.P_TILDE)
        with pytest.raises(ConstructionError, match="closed-form flux requires Phi in"):
            tilde_solution(spec)


class TestDispatch:
    def test_families(self):
        assert (
            solution_for(ProblemSpec(linear_shape(), FluxLaw(FluxKind.ZERO), monomial(2.0, 1))).provenance
            is Provenance.STATIONARY
        )
        assert (
            solution_for(separated_spec(1.0, 1.0, 1.0, 1.0, linear_law())).provenance
            is Provenance.SEPARATED
        )
        assert (
            solution_for(monomial_spec(sinh_shape(0.5, 1.0), 1.0, 3)).provenance
            is Provenance.INTEGRAL_REP
        )
