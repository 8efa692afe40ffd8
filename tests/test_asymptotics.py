import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    constant_law,
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
    ControlClassification,
    LimitClass,
    LimitTag,
    control_classification,
    control_probe_ladders,
    flux_initial_limit,
    flux_limit,
    flux_probe_ladder,
    numeric_limit_probe,
)
from fluxheat import bench
from fluxheat.catalog import case_ids, load_case
from fluxheat.closed_form import flux_closed_form, integral_rep_solution, separated_solution
from fluxheat.green import u0_separable_closed
from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    SchemaError,
    ShapeKind,
    SourceShape,
    TimeFunction,
    Variant,
    spec_from_dict,
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
        # sigma < 0 cannot occur for admissible mu, nu, lambda > 0; the rule
        # still reads b = lambda*sigma < 0 and the finite value c*rho/b
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
            constant_law(1.0),
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

    def test_lim_sv_ratio_reads_the_rounded_rate(self):
        # gamma = scale*nu*delta = 1e-18 is below half an ulp of sigma = 1, so
        # b = sigma - gamma = sigma and u/u0 = exp((b - sigma) t) is exactly 1
        spec = separated_spec(1.0, 1.0, 1e-9, 1.0, linear_law(1e-9))
        cc = control_classification(spec, x=1.0)
        assert cc.ratio_limit == LimitClass.finite(1.0)
        assert cc.u_limit.tag is LimitTag.PLUS_INFINITY
        result = bench.run_case(spec, case_id="tiny-gamma", extra_checks=("control",))
        ratio = next(r for r in result.records if r.name == "control_ratio")
        assert result.passed and (ratio.lhs, ratio.rhs) == (0.5, 0.5)

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

    @pytest.mark.parametrize(
        "sigma, nu, n, delta, scale, u_tag, ratio_tag",
        [
            (1.0, -0.25, 0.05, 1.0, 1.0, LimitTag.PLUS_INFINITY, LimitTag.FINITE),
            (0.0, -0.25, 0.5, 1.0, 1.0, LimitTag.PLUS_INFINITY, LimitTag.PLUS_INFINITY),
            (-1.0, -0.25, 0.5, 1.0, 1.0, LimitTag.FINITE, LimitTag.PLUS_INFINITY),
            (0.0, 0.25, 0.0, 1.0, 1.0, LimitTag.MINUS_INFINITY, LimitTag.MINUS_INFINITY),
            (1.0, -0.25, 0.5, 1.0, 1.0, LimitTag.PLUS_INFINITY, LimitTag.FINITE),
            (-1.0, -0.25, 0.0, 1.0, 1.0, LimitTag.FINITE, LimitTag.PLUS_INFINITY),
            # delta, scale and sigma off +-1 tell k = scale nu delta^n and
            # T* = (k/sigma)^(1/(1-n)) from their reciprocals
            (-0.6, -0.4, 0.5, 2.0, 0.7, LimitTag.FINITE, LimitTag.PLUS_INFINITY),
            (0.8, -0.25, 0.05, 1.7, 1.3, LimitTag.PLUS_INFINITY, LimitTag.FINITE),
            # nu > 0 and sigma off 1: eta = 1 lies below T* = (k/sigma)^2 = 4
            # but above (k*sigma)^2 = 0.25, so T quenches only at the true T*
            (0.5, 1.0, 0.5, 1.0, 1.0, LimitTag.ZERO, LimitTag.ZERO),
        ],
        ids=[
            "growth", "sigma0-growth", "settles-on-T*", "sigma0-n0-falls", "growth-n-half",
            "n0-settles", "settles-delta-scale", "growth-delta-scale", "quenches-below-T*",
        ],
    )
    def test_power_law_classes_agree_with_the_probe(
        self, sigma, nu, n, delta, scale, u_tag, ratio_tag
    ):
        # nu < 0 feeds T, which never quenches; at sigma = n = 0, T = eta - nu t
        case = {
            "phi": {"kind": "scaled_separable", "sigma": sigma, "delta": delta, "scale": scale},
            "flux": {"kind": "power_law", "nu": nu, "n": n},
            "h": {"kind": "scaled_separable", "eta": 1.0},
        }
        cc = control_classification(spec_from_dict(case), x=1.0)
        assert (cc.u_limit.tag, cc.ratio_limit.tag) == (u_tag, ratio_tag)
        result = bench.run_case(case, extra_checks=("control",))
        names = {r.name for r in result.records if r.passed}
        assert result.passed and {"control_u", "control_ratio"} <= names

    def test_power_law_n0_below_the_unstable_equilibrium_falls(self):
        # separated-power-nhalf at n = 0, nu = 1: T* = 2 > eta = 1, and
        # T = (eta - T*) e^{t/2} + T* falls through zero to -infinity
        config = load_case("separated-power-nhalf")
        config["case"]["flux"] = {"kind": "power_law", "nu": 1.0, "n": 0.0}
        cc = control_classification(spec_from_dict(config["case"]), x=1.0)
        assert cc.u_limit.tag is LimitTag.MINUS_INFINITY
        assert cc.ratio_limit == LimitClass.finite(1.0 - 1.0 / (0.5 * 1.0))  # 1 - k/(sigma eta)
        result = bench.run_case(config["case"], extra_checks=tuple(config["checks"]))
        names = {r.name for r in result.records if r.passed}
        assert result.passed and {"control_u", "control_ratio"} <= names

    def test_power_law_with_a_time_dependent_f_is_outside_the_settings(self):
        # the classes assume a constant f; f(t) = 0.25 + 0.05 t is not one
        law = FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.polynomial([0.25, 0.05]))
        spec = separated_spec(0.5, 1.0, 1.0, 1.0, law)
        assert control_classification(spec) is None
        assert bench.run_case(spec).passed
        with pytest.raises(SchemaError, match="outside the control settings"):
            bench.run_case(spec, extra_checks=("control",))

    @pytest.mark.parametrize(
        "nu, n, eta",
        [
            (-0.25, 0.0, 1.0),
            (-0.25, -1.0, 1.0),
            (-1.0, 0.0, 0.1),
            (0.25, 0.5, 1.0),
            (-0.25, 0.5, 1.0),
            (0.25, 0.0, 1.0),
            (-2.0, 0.9, 1.0),
        ],
        ids=["n0-grows", "n-1-grows", "n0-small-eta", "quenches", "n-half-grows", "n0-falls", "n0.9"],
    )
    def test_sigma0_power_law_probes_on_the_algebraic_ladder(self, nu, n, eta):
        # at sigma = 0, T grows or falls algebraically: by less than 2x per
        # step of the default ladder, too little for the probe to read
        case = {
            "phi": {"kind": "scaled_separable", "sigma": 0.0, "delta": 1.0, "scale": 1.0},
            "flux": {"kind": "power_law", "nu": nu, "n": n},
            "h": {"kind": "scaled_separable", "eta": eta},
        }
        assert control_probe_ladders(spec_from_dict(case)) == (DEFAULT_LADDER, ALGEBRAIC_LADDER)
        result = bench.run_case(case, extra_checks=("control",))
        names = {r.name for r in result.records if r.passed}
        assert result.passed and {"control_u", "control_ratio"} <= names

    def test_sigma0_power_law_that_ceases_keeps_its_reason(self):
        case = {
            "phi": {"kind": "scaled_separable", "sigma": 0.0, "delta": 1.0, "scale": 1.0},
            "flux": {"kind": "power_law", "nu": 0.25, "n": -1.0},
            "h": {"kind": "scaled_separable", "eta": 1.0},
        }
        result = bench.run_case(case, extra_checks=("control",))
        assert not result.passed
        assert result.reason == "separated power-law solution ceased before t=2.5"

    def test_power_law_feeding_source_limits(self):
        def classes(sigma, n):
            law = FluxLaw(FluxKind.POWER_LAW, n=n, f=TimeFunction.constant(-0.25))
            return control_classification(separated_spec(sigma, 1.0, 1.0, 1.0, law), x=1.0)

        # (1 - scale*nu*delta^n/(sigma*eta^(1-n)))^(1/(1-n)) at nu = -0.25
        assert classes(1.0, 0.05).ratio_limit.value == pytest.approx(1.25 ** (1.0 / 0.95), rel=1e-14)
        # T* = (scale*nu*delta^n/sigma)^(1/(1-n)) = 0.0625, times X(1) = sin 1
        assert classes(-1.0, 0.5).u_limit.value == pytest.approx(0.0625 * math.sin(1.0), rel=1e-14)

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

    def test_companion_specs_outside_the_settings(self):
        # the control classes are problem P's; a P~ spec of a setting has none
        assert control_classification(monomial_spec(linear_shape(1.0), 1.0, 3)) is not None
        tilde = monomial_spec(linear_shape(1.0), 1.0, 3, variant=Variant.P_TILDE)
        assert control_classification(tilde) is None


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


# ---------------------------------------------------------------------------
# Oracle: the per-shape limit tables that the transfer-function rule replaced


def oracle_flux_limit(spec):
    eta, m = spec.h.eta, int(spec.h.m)
    lam, mu, nu = spec.phi.lam, spec.phi.mu, spec.flux.nu
    if spec.phi.kind is ShapeKind.LINEAR_X:
        if m == 1:
            return LimitClass.zero()
        if m == 3:
            return LimitClass.finite(6.0 * eta / (nu * lam))
        return LimitClass.infinity(eta)
    if spec.phi.kind is ShapeKind.NEG_SINH:
        sigma = lam + nu * mu
        if sigma == 0.0:
            return LimitClass.infinity(-eta)
        if m == 1:
            if sigma < 0.0:
                return LimitClass.finite(eta * lam / sigma)
            return LimitClass.infinity(eta)
        return LimitClass.infinity(sigma * eta)
    delta = lam - nu * mu
    if delta == 0.0:
        return LimitClass.infinity(eta)
    if m == 1 and delta > 0.0:
        return LimitClass.finite(eta * lam / delta)
    return LimitClass.infinity(eta)


def oracle_ir_classes(spec, x):
    phi, h = spec.phi, spec.h
    eta, m = h.eta, int(h.m)
    lam, mu, nu = phi.lam, phi.mu, spec.flux.nu
    hx = h(x)
    notes = []
    if m == 1:
        u0 = LimitClass.finite(hx)
    else:
        u0 = LimitClass.infinity(eta * x) if x != 0.0 else LimitClass.zero()
    if phi.kind is ShapeKind.LINEAR_X:
        ratio = LimitClass.zero()
        if m == 1:
            u = LimitClass.zero()
        elif m == 3:
            u = LimitClass.finite(eta * x ** 3 + 6.0 * eta * x / (nu * lam))
            notes.append(
                "the top t-powers of the baseline and the source integral cancel "
                "exactly, so the m = 3 solution converges to "
                "eta*x^3 + 6*eta*x/(nu*lambda)"
            )
        else:
            u = LimitClass.infinity(eta)
            notes.append(
                "the controlled solution grows one power of t slower than the "
                "baseline (top-power cancellation), so the ratio vanishes"
            )
    elif phi.kind is ShapeKind.NEG_SINH:
        u = LimitClass.infinity(eta)
        ratio = LimitClass.infinity(+1.0)
    else:
        delta = lam - nu * mu
        sin_term = math.sin(lam * x)
        if delta > 0.0:
            coeff = 1.0 + nu * mu * sin_term / (lam * delta * x) if x != 0 else 1.0
            if m == 1:
                u = LimitClass.finite(eta * x + nu * mu * eta * sin_term / (lam * delta))
                notes.append(
                    "for m = 1 and delta > 0 the source integral saturates and the "
                    "solution converges"
                )
            else:
                growth = eta * (x + nu * mu * sin_term / (lam * delta))
                u = LimitClass.infinity(growth) if growth != 0.0 else LimitClass.zero()
            ratio = LimitClass.finite(coeff)
        else:
            sign = eta * sin_term
            u = LimitClass.infinity(sign) if sign != 0.0 else LimitClass.zero()
            ratio = LimitClass.infinity(sign / (eta * x)) if sign != 0.0 else LimitClass.zero()
    return ControlClassification(u0, u, ratio, x, tuple(notes))


def same_class(got, want):
    if got.tag is not want.tag:
        return False
    if got.tag is LimitTag.FINITE:
        return abs(got.value - want.value) <= 1e-12 * max(abs(got.value), abs(want.value))
    return True


CATALOG_IR = [cid for cid in case_ids() if cid.startswith("ir-")]
OBSERVATION_XS = (0.3, 1.0, 1.7, 3.0, 5.0)
WIDE = st.floats(min_value=1e-3, max_value=3.0)


@st.composite
def wide_ir_specs(draw):
    """The admissible box, wider than perfbench's sweep: negative eta, lambda,
    mu, nu down to 1e-3, m up to 9, and the exact resonant sine line
    lambda = fl(nu*mu) on a third of the sine draws."""
    kind = draw(st.sampled_from(["linear", "sinh", "sin"]))
    lam, mu, nu = draw(WIDE), draw(WIDE), draw(WIDE)
    if kind == "sin" and draw(st.integers(0, 2)) == 0:
        lam = nu * mu
    eta = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(min_value=0.01, max_value=3.0))
    m = draw(st.sampled_from([1, 3, 5, 7, 9]))
    if kind == "linear":
        shape = linear_shape(lam)
    else:
        shape = (sinh_shape if kind == "sinh" else sin_shape)(lam, mu)
    return monomial_spec(shape, eta, m, nu=nu)


class TestTransferFunctionRule:
    @pytest.mark.parametrize("case_id", CATALOG_IR)
    def test_equals_the_per_shape_tables_on_the_catalog(self, case_id):
        spec = spec_from_dict(load_case(case_id)["case"])
        assert flux_limit(spec) == oracle_flux_limit(spec)
        assert control_classification(spec, x=1.0) == oracle_ir_classes(spec, 1.0)

    @settings(max_examples=400, deadline=None)
    @given(wide_ir_specs())
    def test_agrees_with_the_per_shape_tables(self, spec):
        assert same_class(flux_limit(spec), oracle_flux_limit(spec))
        for x in OBSERVATION_XS:
            got, want = control_classification(spec, x=x), oracle_ir_classes(spec, x)
            assert got.notes == want.notes
            assert same_class(got.u0_limit, want.u0_limit)
            assert same_class(got.u_limit, want.u_limit)
            assert same_class(got.ratio_limit, want.ratio_limit)

    @settings(max_examples=200, deadline=None)
    @given(wide_ir_specs())
    def test_face_reads_zero_and_the_ratio_its_limit(self, spec):
        # at x = 0, where u0 = u = 0 for every t, u reads zero and u/u0 the
        # x -> 0+ limit of the tables' ratio; the tables' own x = 0 rows
        # differ by shape (sinh +inf, sine zero or 1.0)
        got, want = control_classification(spec, x=0.0), oracle_ir_classes(spec, 0.0)
        assert got.notes == want.notes
        assert same_class(got.u0_limit, want.u0_limit)
        u = got.u_limit
        assert u.tag is LimitTag.ZERO or (u.tag is LimitTag.FINITE and u.value == 0.0)
        near = oracle_ir_classes(spec, 1e-9).ratio_limit
        assert got.ratio_limit.tag is near.tag
        if near.tag is LimitTag.FINITE:
            assert got.ratio_limit.value == pytest.approx(near.value, rel=1e-9)

    @pytest.mark.parametrize(
        "shape, m", [(sinh_shape(0.5, 1.0), 3), (linear_shape(1.0), 5)], ids=["sinh", "linear"]
    )
    def test_solution_vanishes_on_the_face(self, shape, m):
        # the tables read +inf here; the Dirichlet face holds u(0, t) = 0
        spec = monomial_spec(shape, 1.0, m)
        assert oracle_ir_classes(spec, 0.0).u_limit.tag is LimitTag.PLUS_INFINITY
        assert control_classification(spec, x=0.0).u_limit.tag is LimitTag.ZERO
        field = integral_rep_solution(spec)
        assert all(field.u(0.0, t) == 0.0 for t in (1.0, 10.0, 40.0))

    def test_sine_ratio_on_the_face_is_its_limit(self):
        # delta = 1 > 0: u/u0 -> 1 + nu*kappa/b = lambda/delta = 2 as x -> 0+,
        # where the table read 1.0 at x = 0
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)
        assert oracle_ir_classes(spec, 0.0).ratio_limit == LimitClass.finite(1.0)
        got = control_classification(spec, x=0.0).ratio_limit
        assert got.tag is LimitTag.FINITE and got.value == pytest.approx(2.0)
        field = integral_rep_solution(spec)
        x, t = 1e-4, 1e5
        assert field.u(x, t) / field.u0(x, t) == pytest.approx(2.0, rel=1e-4)
