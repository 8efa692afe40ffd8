"""One (kappa, rho) parameterisation drives the three integral-representation shapes.

lambda*x, -mu*sinh(lambda*x) and -mu*sin(lambda*x) are eigenfunctions of the
Dirichlet heat semigroup, so the kernel, the Green weight, the time factor and
the flux rate all follow from ``SourceShape.semigroup`` and
``problem.flux_rate``.  The per-shape formulas the library used before are
kept here as oracles over the admissible box lambda, mu, nu in [0.01, 3],
m in {1, 3, 5, 7}, including the resonant lines.  The shared code reproduces
them bit for bit, except the flux coefficients: the one transfer-function
formula rounds differently, so off the catalog they agree to a few ulp.
"""

import math
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fluxheat
from conftest import (
    linear_law,
    linear_shape,
    monomial,
    monomial_spec,
    separated_spec,
    sin_shape,
    sinh_shape,
)
from fluxheat import asymptotics, bench, closed_form, fd, green, problem, volterra
from fluxheat.asymptotics import ALGEBRAIC_LADDER, DEFAULT_LADDER, LimitClass
from fluxheat.catalog import case_ids, load_case
from fluxheat.closed_form import _separated_T, flux_closed_form, separated_solution
from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    ProblemSpec,
    ShapeKind,
    SourceShape,
    Variant,
    flux_rate,
    spec_from_dict,
)
from fluxheat.specfun import exp_moment_parts
from reference import flux_reference

EPS = 2.0 ** -52

# ---------------------------------------------------------------------------
# Oracles: the per-shape formulas, one branch per shape


def oracle_exp_parts(shape):
    if shape.kind is ShapeKind.LINEAR_X:
        return shape.lam, 0.0
    if shape.kind is ShapeKind.NEG_SINH:
        return -shape.lam * shape.mu, shape.lam ** 2
    return -shape.lam * shape.mu, -(shape.lam ** 2)


def oracle_green_phi_factor(shape, dt):
    if shape.kind is ShapeKind.LINEAR_X:
        return 1.0
    if shape.kind is ShapeKind.NEG_SINH:
        return math.exp(shape.lam ** 2 * dt)
    return math.exp(-(shape.lam ** 2) * dt)


def oracle_weighted_flux_integral(kind, lam, V, t):
    if t == 0.0:
        return 0.0
    if kind is ShapeKind.LINEAR_X:
        return V.weighted_integral(0.0, t)
    rate = lam ** 2
    if kind is ShapeKind.NEG_SINH:
        return math.exp(rate * t) * V.weighted_integral(-rate, t)
    if rate * t > 30.0:
        return oracle_decay_weighted_integral(V, rate, t)
    return math.exp(-rate * t) * V.weighted_integral(rate, t)


def oracle_decay_weighted_integral(V, b, t):
    """exp(-b t) int_0^t V exp(b tau) dtau for a closed-form V, summed per
    term in pre-scaled form so that it stays finite for large b t."""
    total = 0.0
    for j, coef in enumerate(V.poly):
        if coef != 0.0:
            q, const = exp_moment_parts(j, b)
            val = 0.0
            for k in range(len(q) - 1, -1, -1):
                val = val * t + q[k]
            total += coef * (val + const * math.exp(-b * t))
    for amp, r in V.exps:
        s = b + r
        if s == 0.0:
            total += amp * t * math.exp(-b * t)
        else:
            total += amp * (math.exp(r * t) - math.exp(-b * t)) / s
    return total


def oracle_convolution(shape, V, t):
    kappa, rho = oracle_exp_parts(shape)
    return kappa * math.exp(rho * t) * V.weighted_integral(-rho, t)


def _poly_sum(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[j] if j < len(a) else 0.0) + (b[j] if j < len(b) else 0.0) for j in range(n)
    )


def _oracle_resonant(c, p, lam, m, sign, eta):
    if p == 0:
        return (eta, sign * eta * lam ** 2), ()
    poly = [0.0] * (p + 2)
    poly[p] = c
    poly[p + 1] = sign * 2.0 * c * lam ** 2 / (m + 1)
    return tuple(poly), ()


def oracle_flux_parts(spec):
    """(poly, exps) of the closed-form flux, one branch per shape."""
    phi, h, nu = spec.phi, spec.h, spec.flux.nu
    lam, mu = phi.lam, phi.mu
    forcing = volterra.forcing_for(h)
    c, p, m, eta = forcing.c, int(forcing.exponent), int(h.m), h.eta
    if phi.kind is ShapeKind.LINEAR_X:
        a = nu * lam
        if p == 0:
            return (0.0,), ((eta, -a),)
        q, const = exp_moment_parts(p - 1, a)
        cp = c * p
        return tuple(cp * coef for coef in q), ((cp * const, -a),)
    if phi.kind is ShapeKind.NEG_SINH:
        sigma = lam + nu * mu
        if sigma == 0.0:
            return _oracle_resonant(c, p, lam, m, -1.0, eta)
        b = lam * sigma
        if p == 0:
            return (eta * lam / sigma,), ((eta * nu * mu / sigma, b),)
        q, const = exp_moment_parts(p - 1, -b)
        amp = c * p * nu * mu / sigma
        lead = (0.0,) * p + (c * lam / sigma,)
        return _poly_sum(lead, tuple(amp * coef for coef in q)), ((amp * const, b),)
    delta = lam - nu * mu
    if delta == 0.0:
        return _oracle_resonant(c, p, lam, m, +1.0, eta)
    b = lam * delta
    if p == 0:
        return (eta * lam / delta,), ((-eta * nu * mu / delta, -b),)
    q, const = exp_moment_parts(p - 1, b)
    amp = -c * p * nu * mu / delta
    lead = (0.0,) * p + (c * lam / delta,)
    return _poly_sum(lead, tuple(amp * coef for coef in q)), ((amp * const, -b),)


def oracle_flux_probe_ladder(spec):
    if spec.phi.kind is ShapeKind.NEG_SINH:
        return DEFAULT_LADDER
    if spec.phi.kind is ShapeKind.LINEAR_X:
        return DEFAULT_LADDER if int(spec.h.m) <= 3 else ALGEBRAIC_LADDER
    delta = spec.phi.lam - spec.flux.nu * spec.phi.mu
    if delta < 0.0:
        return DEFAULT_LADDER
    if delta > 0.0 and int(spec.h.m) == 1:
        return DEFAULT_LADDER
    return ALGEBRAIC_LADDER


def oracle_solution_grows(spec):
    phi, flux, h = spec.phi, spec.flux, spec.h
    if flux.kind is FluxKind.ZERO:
        return h.kind.value == "monomial" and h.m > 1.0
    if phi.kind is ShapeKind.SCALED_SEPARABLE:
        if flux.kind is FluxKind.LINEAR:
            return phi.sigma - phi.scale * flux.nu * phi.delta > 0.0
        return phi.sigma > 0.0
    if phi.kind is ShapeKind.NEG_SINH:
        return True
    if h.kind.value == "monomial" and h.m > 1.0:
        return True
    if phi.kind is ShapeKind.NEG_SIN and flux.kind is FluxKind.LINEAR:
        return phi.lam - flux.nu * phi.mu <= 0.0
    return False


def oracle_control_ladder(spec):
    """The ladder of the control_u and control_ratio probes."""
    exponential = spec.phi.kind in (ShapeKind.SCALED_SEPARABLE, ShapeKind.NEG_SINH)
    if spec.phi.kind is ShapeKind.NEG_SIN:
        exponential = spec.phi.lam - spec.flux.nu * spec.phi.mu < 0.0
    return DEFAULT_LADDER if exponential else ALGEBRAIC_LADDER


# ---------------------------------------------------------------------------
# Bitwise comparison


def bits(value):
    """float.hex of every float in a nested tuple: equal iff bit-identical."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return float(value).hex()


def outcome(fn, *args):
    """bits of fn(*args), or the name of the exception it raises."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def flux_parts(spec):
    """(poly, exps) of the library's closed-form flux."""
    traj = flux_closed_form(spec, check=False)
    return traj.poly, traj.exps


def within_ulps(a, b, n):
    a, b = float.fromhex(a), float.fromhex(b)
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# The admissible box

SHAPES = {"linear": linear_shape, "sinh": sinh_shape, "sin": sin_shape}
BOX = st.floats(min_value=0.01, max_value=3.0)


@st.composite
def ir_specs(draw):
    """Linear-law integral-representation specs; a third of the draws put
    nu = lambda/mu (delta = 0 up to one rounding) and a third lambda = fl(nu mu)
    (delta = 0 exactly)."""
    kind = draw(st.sampled_from(sorted(SHAPES)))
    lam, mu, nu = draw(BOX), draw(BOX), draw(BOX)
    line = draw(st.sampled_from(["off", "nu = lam/mu", "lam = nu*mu"]))
    if line == "nu = lam/mu":
        nu = lam / mu
    elif line == "lam = nu*mu":
        lam = nu * mu
    m = draw(st.sampled_from([1, 3, 5, 7]))
    eta = draw(st.sampled_from([1.0, -0.7, 2.5]))
    shape = linear_shape(lam) if kind == "linear" else SHAPES[kind](lam, mu)
    return monomial_spec(shape, eta, m, nu=nu)


SWEEP = settings(max_examples=300, deadline=None)
CATALOG_IR = [cid for cid in case_ids() if cid.startswith("ir-")]


class TestAgainstPerShapeFormulas:
    @SWEEP
    @given(ir_specs())
    def test_semigroup_parts_and_green_weight(self, spec):
        shape = spec.phi
        assert bits(volterra.kernel_for(shape).exp_parts) == bits(oracle_exp_parts(shape))
        assert bits(shape.semigroup) == bits(oracle_exp_parts(shape))
        # the Green weight exp(rho dt) that verify_identity_phi takes over rho
        _, rho = shape.semigroup
        for dt in (0.0, 0.25, 1.0, 3.0, 40.0):
            assert outcome(lambda d: math.exp(rho * d), dt) == outcome(
                oracle_green_phi_factor, shape, dt
            )

    @pytest.mark.parametrize("case_id", CATALOG_IR)
    def test_green_identity_weight_on_the_catalog(self, case_id):
        shape = spec_from_dict(load_case(case_id)["case"]).phi
        for x, t, tau in ((1.0, 1.0, 0.25), (0.4, 2.0, 0.5)):
            _, rhs, _ = green.verify_identity_phi(shape, x, t, tau)
            assert bits(rhs) == bits(oracle_green_phi_factor(shape, t - tau) * shape(x))

    @pytest.mark.parametrize("case_id", CATALOG_IR)
    def test_flux_poly_and_exps_on_the_catalog(self, case_id):
        spec = spec_from_dict(load_case(case_id)["case"])
        assert bits(flux_parts(spec)) == bits(oracle_flux_parts(spec))

    @SWEEP
    @given(ir_specs())
    def test_flux_poly_and_exps(self, spec):
        # one formula over (kappa, rho, b, p, c) rounds differently from the
        # per-shape branches; it moves a coefficient by at most a few ulp
        got = outcome(flux_parts, spec)
        want = outcome(oracle_flux_parts, spec)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
            return
        (poly, exps), (want_poly, want_exps) = got, want
        assert len(poly) == len(want_poly) and len(exps) == len(want_exps)
        for (amp, rate), (want_amp, want_rate) in zip(exps, want_exps):
            assert rate == want_rate
            assert within_ulps(amp, want_amp, 8)
        for coef, want_coef in zip(poly, want_poly):
            assert within_ulps(coef, want_coef, 8)

    @SWEEP
    @given(ir_specs())
    def test_time_factor_and_convolution(self, spec):
        shape = spec.phi
        traj = flux_closed_form(spec, check=False)
        kernel = volterra.kernel_for(shape)
        kappa, rho = oracle_exp_parts(shape)
        # t = 12 and 60 take the pre-scaled branch of the sine shape for
        # lambda^2 t > 30; the sinh shape may overflow there, on both sides
        for t in (0.0, 0.4, 1.7, 5.0, 12.0, 60.0):
            assert outcome(traj.weighted_flux_integral, rho, t) == outcome(
                oracle_weighted_flux_integral, shape.kind, shape.lam, traj, t
            )
            if t > 0.0 and -rho * t <= 30.0:
                assert outcome(volterra._convolution(kernel, traj), t) == outcome(
                    oracle_convolution, shape, traj, t
                )

    @SWEEP
    @given(ir_specs())
    def test_rate_driven_choices(self, spec):
        assert asymptotics.flux_probe_ladder(spec) == oracle_flux_probe_ladder(spec)
        assert fd.solution_grows(spec) == oracle_solution_grows(spec)
        assert control_ladder(spec) == oracle_control_ladder(spec)

    @SWEEP
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0).filter(lambda d: d != 0.0),
        st.floats(min_value=-3.0, max_value=3.0).filter(lambda s: s != 0.0),
        st.floats(min_value=-3.0, max_value=3.0).filter(lambda n: n != 0.0),
    )
    def test_separated_rate(self, sigma, delta, scale, nu):
        spec = separated_spec(sigma, delta, scale, 1.5, linear_law(nu))
        rate = sigma - scale * nu * delta
        assert bits(flux_rate(spec)) == bits(rate)
        assert bits(separated_solution(spec).V.exps) == bits(((delta * 1.5, rate),))
        for t in (0.3, 2.0):
            assert outcome(_separated_T(spec), t) == outcome(
                lambda s: 1.5 * math.exp(rate * s), t
            )
        assert fd.solution_grows(spec) == oracle_solution_grows(spec)
        assert control_ladder(spec) == DEFAULT_LADDER


class TestAgainstTheMpmathReference:
    @SWEEP
    @given(ir_specs())
    def test_flux_within_its_round_off_bound(self, spec):
        # the expanded form cancels near the resonant lines, so its error is
        # bounded by the size of its terms, not of V
        traj = flux_closed_form(spec, check=False)
        b = flux_rate(spec)
        for t in (0.5, 1.0, 2.0, 5.0):
            value = traj(t)
            if math.isinf(value):
                continue  # the sinh shape at lambda = nu*mu near 9 leaves the double range
            terms = sum(abs(coef) * t ** j for j, coef in enumerate(traj.poly))
            terms += sum(abs(amp) * mpmath.exp(rate * t) for amp, rate in traj.exps)
            err = abs(mpmath.mpf(value) - flux_reference(spec, t))
            # the floor covers V = eta exp(b t) underflowing at nu = lam/mu, mu -> 0.01
            assert err <= 256 * (EPS * (1.0 + abs(b) * t) * terms + math.ulp(0.0))


def control_ladder(spec):
    """The ladder ``bench._control_checks`` hands the control_u probe."""
    ladders = []

    def probe(fn, ladder):
        ladders.append(ladder)
        return LimitClass.zero()

    field = SimpleNamespace(u=lambda x, t: 0.0)
    with mock.patch.object(asymptotics, "numeric_limit_probe", probe):
        list(bench._control_checks(spec, field, asymptotics.control_classification(spec)))
    u0_ladder, u_ladder, ratio_ladder = ladders
    assert ratio_ladder == u_ladder
    return u_ladder


@pytest.mark.parametrize("kind", sorted(SHAPES))
@pytest.mark.parametrize(
    "flux",
    [FluxLaw(FluxKind.POWER_LAW, n=0.5), FluxLaw(FluxKind.AFFINE), linear_law(-0.5)],
    ids=["power_law", "affine", "negative_nu"],
)
@pytest.mark.parametrize("m", [1, 3])
def test_solution_grows_off_the_closed_form_family(kind, flux, m):
    spec = ProblemSpec(SHAPES[kind](), flux, monomial(1.0, m))
    grows = fd.solution_grows(spec)
    if flux.kind is FluxKind.LINEAR and kind == "linear" and m == 1:
        # V = eta exp(-nu lambda t) grows for nu < 0, where the oracle says no
        assert grows and not oracle_solution_grows(spec)
    else:
        assert grows == oracle_solution_grows(spec)


def test_solution_grows_for_a_companion_datum_m0():
    # h = eta x^0 has no forcing constant (Gamma(0)); the rate needs none
    spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 0, variant=Variant.P_TILDE)
    with pytest.raises(ValueError):
        volterra.forcing_for(spec.h).c
    assert fd.solution_grows(spec) is False
    assert fd.solution_grows(monomial_spec(sinh_shape(), 1.0, 0, variant=Variant.P_TILDE))


def test_semigroup_only_for_the_three_shapes():
    for kind in (ShapeKind.SCALED_SEPARABLE, ShapeKind.CONSTANT_ONE):
        shape = SourceShape(kind)
        with pytest.raises(ValueError):
            shape.semigroup
        with pytest.raises(ValueError):
            volterra.kernel_for(shape)
        with pytest.raises(ValueError):
            green.verify_identity_phi(shape, 1.0, 1.0, 0.25)
        assert volterra.kernel_for(shape, quadrature=True).quadrature


@pytest.mark.parametrize(
    "shape",
    [linear_shape(1.3), sinh_shape(0.7, 2.0), sin_shape(2.0, 0.4)],
    ids=["linear", "sinh", "sin"],
)
def test_quadrature_kernel_meets_the_solvability_bound(shape):
    # int_0^dt R >= f(dt), the per-shape comparison function of the
    # solvability hypothesis, with equality for the sinh and sin kernels;
    # R is integrated from its defining Green-function quadrature
    lam, mu = shape.lam, shape.mu
    per_shape = {
        ShapeKind.LINEAR_X: lambda dt: -lam * dt,
        ShapeKind.NEG_SINH: lambda dt: -mu / lam * (math.exp(lam ** 2 * dt) - 1.0),
        ShapeKind.NEG_SIN: lambda dt: -mu / lam * (1.0 - math.exp(-(lam ** 2) * dt)),
    }[shape.kind]
    kernel = volterra.kernel_for(shape, quadrature=True)
    for dt in (1e-3, 0.1, 1.0, 4.0):
        integral, _ = quad(lambda s: volterra.kernel_eval(kernel, s), 0.0, dt, epsabs=0.0, epsrel=1e-12)
        if shape.kind is ShapeKind.LINEAR_X:
            assert integral == pytest.approx(lam * dt, rel=1e-12) and integral > per_shape(dt)
        else:
            assert integral == pytest.approx(per_shape(dt), rel=1e-12)


def test_only_problem_names_the_three_shapes():
    # every other module reaches them through (kappa, rho) or flux_rate
    pattern = re.compile(r"ShapeKind\.(LINEAR_X|NEG_SINH|NEG_SIN)\b")
    package = Path(fluxheat.__file__).resolve().parent
    naming = {p.name for p in package.glob("*.py") if pattern.search(p.read_text())}
    assert naming <= {"problem.py"}
    assert not hasattr(closed_form, "_resonant_flux")
    assert not any(
        hasattr(fluxheat, name) or hasattr(problem, name) or hasattr(volterra, name)
        for name in ("DerivedParams", "derive_parameters", "ForcingKind")
    )
    assert not hasattr(fluxheat, "KernelKind") and not hasattr(volterra, "KernelKind")
    assert not hasattr(closed_form, "_PHI_PROVENANCE")
    # one provenance for the three shapes; the shape stays on field.spec.phi
    field = closed_form.solution_for(monomial_spec(sin_shape(2.0, 1.0), 1.0, 3))
    assert field.provenance is closed_form.Provenance.INTEGRAL_REP
