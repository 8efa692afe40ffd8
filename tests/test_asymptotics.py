import math

import pytest

from conftest import (
    linear_law,
    linear_shape,
    monomial_spec,
    separated_spec,
    sin_shape,
    sinh_shape,
)
from fluxheat.asymptotics import (
    ALGEBRAIC_LADDER,
    DEFAULT_LADDER,
    LimitClass,
    LimitTag,
    control_classification,
    flux_initial_limit,
    flux_limit,
    flux_probe_ladder,
    numeric_limit_probe,
)
from fluxheat.closed_form import flux_closed_form, integral_rep_solution, separated_solution
from fluxheat.green import u0_separable_closed
from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    SourceShape,
    TimeFunction,
)


class TestFluxLimit:
    def test_phi1_rows(self):
        assert flux_limit(monomial_spec(linear_shape(1.0), 1.0, 1)).tag is LimitTag.ZERO
        lc = flux_limit(monomial_spec(linear_shape(2.0), 3.0, 3, nu=0.5))
        assert lc.tag is LimitTag.FINITE and lc.value == pytest.approx(18.0)
        assert flux_limit(monomial_spec(linear_shape(1.0), -1.0, 5)).tag is LimitTag.MINUS_INFINITY
        assert flux_limit(monomial_spec(linear_shape(1.0), 1.0, 7)).tag is LimitTag.PLUS_INFINITY

    def test_phi2_rows(self):
        assert flux_limit(monomial_spec(sinh_shape(0.5, 1.0), 1.0, 1)).tag is LimitTag.PLUS_INFINITY
        assert flux_limit(monomial_spec(sinh_shape(0.5, 1.0), -2.0, 1)).tag is LimitTag.MINUS_INFINITY
        assert flux_limit(monomial_spec(sinh_shape(0.5, 1.0), 1.0, 5)).tag is LimitTag.PLUS_INFINITY

    def test_phi2_sigma_negative_row_unreachable_but_implemented(self):
        # sigma < 0 cannot occur for admissible mu, nu, lambda > 0; the row
        # is implemented as written (finite value eta*lambda/sigma)
        spec = monomial_spec(
            SourceShape(ShapeKind.NEG_SINH, lam=1.0, mu=-2.0), 1.0, 1
        )  # inadmissible mu < 0 gives sigma = -1
        lc = flux_limit(spec)
        assert lc.tag is LimitTag.FINITE and lc.value == pytest.approx(-1.0)

    def test_phi3_rows(self):
        lc = flux_limit(monomial_spec(sin_shape(3.0, 1.0), 2.0, 1))  # delta = 2
        assert lc.tag is LimitTag.FINITE and lc.value == pytest.approx(3.0)
        assert flux_limit(monomial_spec(sin_shape(1.0, 2.0), 1.0, 1)).tag is LimitTag.PLUS_INFINITY
        assert flux_limit(monomial_spec(sin_shape(1.0, 1.0), -1.0, 1)).tag is LimitTag.MINUS_INFINITY

    def test_phi3_large_m_sign_set_by_eta_alone(self):
        # delta < 0, eta > 0, m = 7: the exponential amplitude keeps the
        # sign of eta for either sign of delta, so the limit is +infinity
        # (conditioning on delta*eta would wrongly claim -infinity)
        spec = monomial_spec(sin_shape(1.0, 1.5), 1.0, 7)
        assert flux_limit(spec).tag is LimitTag.PLUS_INFINITY
        probe = numeric_limit_probe(flux_closed_form(spec), flux_probe_ladder(spec))
        assert probe.tag is LimitTag.PLUS_INFINITY

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            flux_limit(monomial_spec(linear_shape(1.0), 1.0, 2))

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0), sin_shape(1.0, 1.5)],
        ids=["phi1", "phi2", "phi3-dpos", "phi3-dneg"],
    )
    def test_probe_agrees_everywhere(self, shape, m):
        spec = monomial_spec(shape, 0.7, m)
        symbolic = flux_limit(spec)
        probe = numeric_limit_probe(flux_closed_form(spec), flux_probe_ladder(spec))
        assert probe.tag is symbolic.tag
        if symbolic.tag is LimitTag.FINITE:
            assert symbolic.agrees_with(probe, rtol=1e-3)


class TestFluxInitialLimit:
    def test_m1_eta(self):
        lc = flux_initial_limit(monomial_spec(linear_shape(1.0), -3.0, 1))
        assert lc.tag is LimitTag.FINITE and lc.value == -3.0

    def test_m_gt1_zero_all_shapes(self):
        for shape in (linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)):
            assert flux_initial_limit(monomial_spec(shape, 1.0, 5)).tag is LimitTag.ZERO

    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)],
        ids=["phi1", "phi2", "phi3"],
    )
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_trajectory_probe_at_origin(self, shape, m):
        spec = monomial_spec(shape, 0.9, m)
        traj = flux_closed_form(spec)
        lc = flux_initial_limit(spec)
        v = float(traj(1e-8))
        if lc.tag is LimitTag.FINITE:
            assert v == pytest.approx(lc.value, abs=1e-6)
        else:
            assert abs(v) <= 1e-6


class TestControlClassification:
    def test_lim_in(self):
        spec = ProblemSpec(
            SourceShape(ShapeKind.CONSTANT_ONE),
            FluxLaw(FluxKind.CONSTANT, nu=1.0),
            InitialProfile(ProfileKind.QUADRATIC, a=0.0, nu=1.0),
        )
        cc = control_classification(spec, x=1.0)
        assert cc.u0_limit.tag is LimitTag.PLUS_INFINITY
        assert cc.u_limit.tag is LimitTag.FINITE and cc.u_limit.value == 0.5
        assert cc.ratio_limit.tag is LimitTag.ZERO

    def test_lim_sv_linear_grid(self):
        # sign(sigma - gamma) x sign(eta) drives the class of u
        for sigma, nu, eta, want in (
            (1.0, 1.0, 1.0, LimitTag.FINITE),        # gamma = sigma
            (1.0, -1.0, 1.0, LimitTag.PLUS_INFINITY),  # gamma < sigma
            (1.0, -1.0, -1.0, LimitTag.MINUS_INFINITY),
            (-1.0, 1.0, 2.0, LimitTag.ZERO),          # gamma > sigma
        ):
            spec = separated_spec(sigma, 1.0, 1.0, eta, linear_law(nu))
            assert control_classification(spec, x=1.0).u_limit.tag is want

    def test_lim_sv_ratio_rows(self):
        spec = separated_spec(1.0, 1.0, 1.0, 1.0, linear_law(-1.0))  # gamma < 0
        assert control_classification(spec, x=1.0).ratio_limit.tag is LimitTag.PLUS_INFINITY
        spec = separated_spec(-1.0, 1.0, 1.0, 1.0, linear_law(1.0))  # gamma > 0
        assert control_classification(spec, x=1.0).ratio_limit.tag is LimitTag.ZERO

    def test_power_law_equilibrium_constant(self):
        # the limit constant is the equilibrium of the T equation
        law = FluxLaw(FluxKind.POWER_LAW, n=0.0, f=TimeFunction.constant(1.0))
        spec = separated_spec(-1.0, 1.0, 1.0, 2.0, law)
        cc = control_classification(spec, x=1.0)
        theta1 = 1.0 / (-1.0 * 2.0)
        assert cc.u_limit.value == pytest.approx(theta1 * spec.h(1.0))
        assert any("theta_1" in note for note in cc.notes)
        field = separated_solution(spec)
        probe = numeric_limit_probe(lambda t: field.u(1.0, t))
        assert cc.u_limit.agrees_with(probe, rtol=1e-3)

    def test_power_law_supercritical_ratio(self):
        law = FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(0.25))
        spec = separated_spec(0.5, 1.0, 1.0, 1.0, law)
        cc = control_classification(spec, x=1.0)
        # (1 - scale*nu*delta^n/(sigma*eta^(1-n)))^(1/(1-n)) = 0.25
        assert cc.ratio_limit.tag is LimitTag.FINITE
        assert cc.ratio_limit.value == pytest.approx(0.25)
        field = separated_solution(spec)
        ratio = lambda t: field.u(1.0, t) / u0_separable_closed(spec.h, 1.0, t)  # noqa: E731
        probe = numeric_limit_probe(ratio)
        assert cc.ratio_limit.agrees_with(probe, rtol=1e-3)

    def test_power_law_subcritical_quenches(self):
        law = FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(10.0))
        spec = separated_spec(0.5, 1.0, 1.0, 1.0, law)  # eta far below T*
        cc = control_classification(spec, x=1.0)
        assert cc.u_limit.tag is LimitTag.ZERO
        assert any("quenches" in note for note in cc.notes)
        field = separated_solution(spec)
        assert field.u(1.0, 60.0) == 0.0

    def test_lim_ir_phi1_m3_converges(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        cc = control_classification(spec, x=1.0)
        assert cc.u_limit.tag is LimitTag.FINITE
        assert cc.u_limit.value == pytest.approx(1.0 + 6.0)
        assert cc.ratio_limit.tag is LimitTag.ZERO
        assert any("m = 3" in note for note in cc.notes)
        field = integral_rep_solution(spec)
        probe = numeric_limit_probe(lambda t: field.u(1.0, t), ALGEBRAIC_LADDER)
        assert cc.u_limit.agrees_with(probe, rtol=1e-3)

    def test_lim_ir_phi3_ratio_is_x_dependent(self):
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)  # delta = 1
        for x in (0.5, 1.0, 2.2):
            cc = control_classification(spec, x=x)
            want = 1.0 + math.sin(2 * x) / (2 * x)
            assert cc.ratio_limit.tag is LimitTag.FINITE
            assert cc.ratio_limit.value == pytest.approx(want, rel=1e-12)

    def test_lim_ir_phi2_double_growth(self):
        spec = monomial_spec(sinh_shape(0.5, 1.0), 1.0, 3)
        cc = control_classification(spec, x=1.0)
        assert cc.u_limit.tag is LimitTag.PLUS_INFINITY
        assert cc.ratio_limit.tag is LimitTag.PLUS_INFINITY

    def test_outside_settings_rejected(self):
        spec = separated_spec(1.0, 1.0, 1.0, 1.0, FluxLaw(FluxKind.ZERO))
        assert control_classification(spec) is None

    def test_integral_rep_shapes_outside_the_setting(self):
        # the setting needs the linear law and an odd monomial profile
        even = monomial_spec(linear_shape(1.0), 1.0, 2)
        zero_law = ProblemSpec(even.phi, FluxLaw(FluxKind.ZERO), monomial_spec(even.phi, 1.0, 1).h)
        assert control_classification(even) is None
        assert control_classification(zero_law) is None


class TestNumericProbe:
    def test_exponential_decay(self):
        assert numeric_limit_probe(lambda t: 2 * math.exp(-t)).tag is LimitTag.ZERO

    def test_finite_with_exponential_approach(self):
        probe = numeric_limit_probe(lambda t: 6.0 * (1 - math.exp(-t)))
        assert probe.tag is LimitTag.FINITE
        assert probe.value == pytest.approx(6.0, rel=1e-4)

    def test_polynomial_growth(self):
        assert numeric_limit_probe(lambda t: t * t).tag is LimitTag.PLUS_INFINITY
        assert numeric_limit_probe(lambda t: -t * t).tag is LimitTag.MINUS_INFINITY

    def test_algebraic_decay_needs_long_ladder(self):
        assert numeric_limit_probe(lambda t: 1 / math.sqrt(t), ALGEBRAIC_LADDER).tag is LimitTag.ZERO

    def test_oscillation_unclassified(self):
        probe = numeric_limit_probe(lambda t: math.sin(t) + 2.0, (10.0, 11.0, 12.0, 13.0))
        assert probe.tag is LimitTag.UNCLASSIFIED

    def test_overflow_reads_as_infinity(self):
        probe = numeric_limit_probe(lambda t: math.exp(t), (600.0, 800.0, 1000.0, 1200.0))
        assert probe.tag is LimitTag.PLUS_INFINITY

    def test_slow_linear_growth_on_short_ladder_unclassified(self):
        probe = numeric_limit_probe(lambda t: t + 50.0, DEFAULT_LADDER)
        assert probe.tag is LimitTag.UNCLASSIFIED

    def test_class_equality_helper(self):
        a = LimitClass.finite(2.0)
        b = LimitClass.finite(2.0005)
        assert a.agrees_with(b, rtol=1e-3)
        assert not a.agrees_with(LimitClass.zero())
