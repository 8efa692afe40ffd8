"""Exact solution families of the flux-coupled heat problem.

Three families admit closed forms: stationary solutions u = h(x), separated
solutions u = X(x) T(t), and the integral-representation solutions built from
the explicit boundary fluxes for the linear coupling law with Phi among
lambda*x, -mu*sinh(lambda*x), -mu*sin(lambda*x).  Each problem-P field also
carries its x-derivative, and the companion problem's field for v = u_x is
that derivative of the problem-P field for the same data, not a fourth
construction.

The flux polynomials and exponential amplitudes for every odd monomial
exponent come out of one coefficient-generation routine based on the
antiderivative of tau^n exp(a tau); the expanded low-degree forms serve as
test vectors in the suite.  :func:`flux_closed_form` re-checks each trajectory
against the governing Volterra equation (exact convolution, unless
``check=False``), which guards against sign mistakes in the coefficients, and
is memoised per value of the spec and ``check``, so a repeated spec builds and
checks its flux once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .green import quad_interval, u0_quadratic_closed, u0_separable_closed
from .problem import (
    INTEGRAL_REP_SHAPES,
    FluxKind,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    Variant,
    flux_rate,
    separated_evaluators,
    validate,
)
from .specfun import SQRT_PI, exp_moment, exp_moment_parts, gamma_half
from .trajectory import ClosedFormTrajectory
from . import volterra as _volterra

__all__ = [
    "Provenance",
    "SolutionField",
    "SeparatedComponents",
    "ConstructionError",
    "stationary_solution",
    "separated_solution",
    "baseline_u0_polynomial",
    "flux_closed_form",
    "integral_rep_kind_violations",
    "integral_rep_solution",
    "tilde_solution",
    "solution_for",
]


class Provenance(Enum):
    STATIONARY = "stationary"
    SEPARATED = "separated"
    INTEGRAL_REP = "integral_rep"


class ConstructionError(ValueError):
    """The spec is ill-posed or outside the admissible pairings of the requested family."""


def _require_well_posed(spec: ProblemSpec) -> None:
    """ConstructionError naming every well-posedness rule ``spec`` breaks."""
    violations = validate(spec)
    if violations:
        raise ConstructionError("; ".join(violations))


@dataclass(frozen=True)
class SolutionField:
    """An exact solution evaluator with its boundary trajectory.

    For problem P the trajectory is the boundary flux u_x(0,t); for the
    companion problem it is the boundary value v(0,t) (the variable the
    coupling law sees in either case, so both are the same trajectory).  A
    problem-P field carries its x-derivative ``ux(x, t)``, and a field of a
    control family also its source-free baseline ``u0(x, t)``: the erf form,
    h(x) exp(sigma t), or :func:`baseline_u0_polynomial` with its
    coefficients bound once; other fields have ``u0 = None``.  A companion
    field is the ``ux`` view of its problem-P field, kept as ``base``.
    """

    u: Callable[[float, float], float]
    V: Callable[[float], float]
    provenance: Provenance
    spec: ProblemSpec
    u0: Callable[[float, float], float] | None = None
    ux: Callable[[float, float], float] | None = None
    base: SolutionField | None = None


@dataclass(frozen=True)
class SeparatedComponents:
    """The X and T factors of a separated solution."""

    sigma: float
    delta: float
    scale: float
    eta: float
    X: Callable[[float], float]
    T: Callable[[float], float]


# ---------------------------------------------------------------------------
# Stationary family


def stationary_solution(spec: ProblemSpec) -> SolutionField:
    """Time-independent solution u(x,t) = h(x).

    Admissible pairings: F identically zero with h = eta*x (eta > 0), or a
    constant F = nu (``FluxLaw.constant_value``) with h'' = nu*Phi and h(0) = 0,
    the built-in instance being Phi == 1 with the quadratic profile.
    """
    _require_well_posed(spec)
    flux, h = spec.flux, spec.h
    if flux.kind is FluxKind.ZERO:
        if not (h.kind is ProfileKind.MONOMIAL and h.m == 1.0 and h.eta > 0.0):
            raise ConstructionError("F == 0 requires h = eta*x with eta > 0")
        slope, u0 = h.eta, None
    elif flux.constant_value is not None:
        if not (
            h.kind is ProfileKind.QUADRATIC
            and spec.phi.kind is ShapeKind.CONSTANT_ONE
            and h.nu == flux.constant_value
        ):
            raise ConstructionError("constant law requires Phi == 1 and h'' = nu")
        slope, u0 = h.a, functools.partial(u0_quadratic_closed, h.nu, h.a)
    else:
        raise ConstructionError("stationary family requires F == 0 or F == nu")

    traj = ClosedFormTrajectory(poly=(slope,))
    h_at, hp = h.evaluators()
    return SolutionField(
        u=lambda x, t: h_at(x),
        V=traj,
        provenance=Provenance.STATIONARY,
        spec=spec,
        u0=u0,
        ux=lambda x, t: hp(x),
    )


# ---------------------------------------------------------------------------
# Separated family


def _separated_T(spec: ProblemSpec) -> Callable[[float], float]:
    phi, flux, h = spec.phi, spec.flux, spec.h
    sigma, delta, scale, eta = phi.sigma, phi.delta, phi.scale, h.eta

    if flux.kind is FluxKind.LINEAR:
        rate = flux_rate(spec)
        return lambda t: eta * math.exp(rate * t)

    if flux.kind is FluxKind.AFFINE:
        f1, f2 = flux.f1, flux.f2

        def g2(t: float) -> float:
            return sigma * t - scale * delta * f2.antiderivative(t)

        def g1(t: float) -> float:
            if t == 0.0:
                return eta
            integrand = lambda tau: f1(tau) * math.exp(  # noqa: E731
                scale * delta * f2.antiderivative(tau) - sigma * tau
            )
            return eta - scale * quad_interval(integrand, 0.0, t, 1e-12)

        return lambda t: g1(t) * math.exp(g2(t))

    if flux.kind is FluxKind.POWER_LAW:
        n, f = flux.n, flux.f
        beta = sigma * (n - 1.0)
        coef = scale * delta ** n * (n - 1.0)

        def weighted_f_integral(t: float) -> float:
            if t == 0.0:
                return 0.0
            if beta == 0.0:
                return f.antiderivative(t)
            if f.constant_value is not None:
                return f.constant_value * exp_moment(0, beta, t)
            return quad_interval(lambda tau: f(tau) * math.exp(beta * tau), 0.0, t, 1e-12)

        def T(t: float) -> float:
            inner = eta ** (1.0 - n) + coef * weighted_f_integral(t)
            if inner <= 0.0 and n != 0.0:  # T^0 = 1 at either sign of T
                if 0.0 < n < 1.0:
                    # quenched: T reached zero in finite time and stays there
                    return 0.0
                raise ArithmeticError(
                    f"separated power-law solution ceased before t={t}"
                )
            return inner ** (1.0 / (1.0 - n)) * math.exp(sigma * t)

        return T

    raise ConstructionError("separated family requires a linear, affine or power law")


def separated_components(spec: ProblemSpec) -> SeparatedComponents:
    _require_well_posed(spec)
    phi, h = spec.phi, spec.h
    if phi.kind is not ShapeKind.SCALED_SEPARABLE or h.kind is not ProfileKind.SCALED_SEPARABLE:
        raise ConstructionError("separated family requires Phi = scale*X and h = eta*X")
    T = _separated_T(spec)
    X = separated_evaluators(phi.sigma, phi.delta)[0]
    return SeparatedComponents(
        sigma=phi.sigma, delta=phi.delta, scale=phi.scale, eta=h.eta, X=X, T=T
    )


def separated_solution(spec: ProblemSpec) -> SolutionField:
    """u(x,t) = X(x) T(t); the flux is V(t) = X'(0) T(t) = delta T(t)."""
    comps = separated_components(spec)
    delta = comps.delta
    X_tilde = separated_evaluators(comps.sigma, delta)[1]
    if spec.flux.kind is FluxKind.LINEAR:
        traj: Callable[[float], float] = ClosedFormTrajectory(
            poly=(0.0,), exps=((delta * comps.eta, flux_rate(spec)),)
        )
    else:
        traj = lambda t: delta * comps.T(t)  # noqa: E731
    return SolutionField(
        u=lambda x, t: comps.X(x) * comps.T(t),
        V=traj,
        provenance=Provenance.SEPARATED,
        spec=spec,
        u0=functools.partial(u0_separable_closed, spec.h),
        ux=lambda x, t: X_tilde(x) * comps.T(t),
    )


# ---------------------------------------------------------------------------
# Integral-representation family


def _u0_coeffs(h: InitialProfile) -> list[tuple[float, int, int]]:
    # terms (coef, k, power): u0 = sum coef * (4t)^k x^power
    if not h.is_odd_monomial:
        raise ValueError("polynomial baseline requires an odd monomial profile")
    eta, m = h.eta, int(h.m)
    out = []
    for k in range((m - 1) // 2 + 1):
        coef = eta / SQRT_PI * math.comb(m, 2 * k) * gamma_half(k + 0.5)
        out.append((coef, k, m - 2 * k))
    return out


def _u0_sum(coeffs, x: float, t: float) -> float:
    total = 0.0
    for coef, k, power in coeffs:
        total += coef * (4.0 * t) ** k * x ** power
    return total


def _u0_dx_sum(coeffs, x: float, t: float) -> float:
    total = 0.0
    for coef, k, power in coeffs:
        if power >= 1:
            total += coef * (4.0 * t) ** k * power * x ** (power - 1)
    return total


def baseline_u0_polynomial(h: InitialProfile, x: float, t: float) -> float:
    """Source-free baseline for odd monomials, as a finite polynomial.

    Equals h(x) at t = 0 and vanishes at x = 0 (every term keeps at least one
    power of x).
    """
    return _u0_sum(_u0_coeffs(h), x, t)


def integral_rep_kind_violations(spec: ProblemSpec) -> list[str]:
    """The kind rules of the integral-representation family that ``spec``
    breaks: Phi is one of the three shapes, F is the linear law and h an odd
    monomial.  An empty list means the spec is of the family's kind; its one
    parameter rule, nu > 0, is :func:`flux_closed_form`'s."""
    phi, flux, h = spec.phi, spec.flux, spec.h
    v = []
    if phi.kind not in INTEGRAL_REP_SHAPES:
        v.append("closed-form flux requires Phi in {lambda*x, -mu*sinh, -mu*sin}")
    if flux.kind is not FluxKind.LINEAR:
        v.append("closed-form flux requires the linear law F = nu*V")
    if h.kind is not ProfileKind.MONOMIAL:
        v.append("closed-form flux requires a monomial profile")
    elif not h.is_odd_monomial:
        v.append("m must be odd for polynomial flux")
    return v


def flux_closed_form(spec: ProblemSpec, check: bool = True) -> ClosedFormTrajectory:
    """Exact boundary flux for the linear law and odd monomial profiles.

    One formula for the three shapes, over (kappa, rho) = ``phi.semigroup``,
    b = ``flux_rate(spec)`` and the forcing V0 = c t^p, p = (m-1)/2 (c = eta
    for m = 1): the transfer function V^(s) = c p! (s - rho) / (s^{p+1} (s - b)).
    Its partial fractions give c rho/b t^p, the polynomial of the antiderivative
    of tau^(p-1) exp(-b tau) and one exp(b t); at b == 0, the resonant test
    the limit classes use, V = c t^p - rho c t^{p+1}/(p+1).  With
    ``check=True`` the trajectory is verified against the Volterra equation
    before being returned; a residual above the tolerance, nan, or out of
    double range at a sample t raises ``ConstructionError``.  Memoised per
    value of (spec, check) (:func:`_flux_closed_form_of`).
    """
    return _flux_closed_form_of(spec, check)


# flux_closed_form memoised per value of (spec, check), the idiom of
# ``specfun._exp_moment_of``: a hit returns the trajectory the call built, and
# a refused spec or a failed check raises and stores nothing, so the next call
# checks it again.  The key is the frozen spec, its Phi, flux law, h and the
# variant the well-posedness guard reads; a law holding closures (a power law)
# hashes them by identity, misses and is refused.  No zero's sign reaches a
# built flux: lambda, mu, nu and eta are nonzero there and no other float of
# the spec is read.  One catalog pass builds 15 distinct fluxes; 64 leaves
# room for the specs of a sweep between passes.
@functools.lru_cache(maxsize=64)
def _flux_closed_form_of(spec: ProblemSpec, check: bool) -> ClosedFormTrajectory:
    """The checked (or, ``check=False``, unchecked) closed-form flux of ``spec``."""
    _require_well_posed(spec)
    violations = integral_rep_kind_violations(spec)
    if spec.flux.kind is FluxKind.LINEAR and spec.flux.nu <= 0.0:
        violations.append("closed-form flux requires nu > 0")
    if violations:
        raise ConstructionError("; ".join(violations))
    nu = spec.flux.nu
    kappa, rho = spec.phi.semigroup
    forcing = _volterra.forcing_for(spec.h)
    b, p = flux_rate(spec), int(forcing.exponent)
    c = spec.h.eta if p == 0 else forcing.c

    if b == 0.0:
        traj = ClosedFormTrajectory(poly=(0.0,) * p + (c, -rho * c / (p + 1)))
    else:
        gain = -nu * kappa
        top = (c * rho / b,) if rho else ()
        if p == 0:
            traj = ClosedFormTrajectory(poly=top or (0.0,), exps=((c * gain / b, b),))
        else:
            q, const = exp_moment_parts(p - 1, -b)
            amp = c * p * gain / b
            traj = ClosedFormTrajectory(
                poly=(*(amp * k for k in q), *top), exps=((amp * const, b),)
            )

    if check:
        kernel = _volterra.kernel_for(spec.phi)
        samples = (0.5, 1.0, 2.0)
        scale = 1.0 + max(abs(traj(t)) for t in samples)
        try:
            res = _volterra.volterra_residual(traj, kernel, forcing, nu, samples)
        except OverflowError as exc:
            raise ConstructionError(f"closed-form flux check: {exc}") from exc
        if math.isinf(scale):
            t_inf = next(t for t in samples if math.isinf(traj(t)))
            raise ConstructionError(f"closed-form flux check: V(t) overflows at t = {t_inf:.6g}")
        if not res <= 1e-9 * scale:
            raise ConstructionError(
                f"closed-form flux fails its Volterra residual check: {res:.3e}"
            )
    return traj


def integral_rep_solution(spec: ProblemSpec) -> SolutionField:
    """Explicit solution u = u0 - nu Phi(x) * (weighted time integral of V).

    The weight of the time integral is the Green weight exp(rho (t-tau)) of
    the shape (rho = 0, lambda^2 or -lambda^2), evaluated in closed form by
    the flux's time factor ``W = traj.time_factor(rho)``.  The field binds
    W once, for both ``u`` and ``ux``; W memoises its values per t, and the
    binding is shared by every field of that flux, so each distinct t costs
    one evaluation.  The field also binds the baseline's polynomial
    coefficients once; the baseline is the field's ``u0``, and ``ux``
    shares them.
    """
    traj = flux_closed_form(spec)
    phi, nu = spec.phi, spec.flux.nu
    coeffs = _u0_coeffs(spec.h)
    _, rho = phi.semigroup
    W = traj.time_factor(rho)
    phi_at, dphi = phi.evaluators()

    def u(x: float, t: float) -> float:
        return _u0_sum(coeffs, x, t) - nu * phi_at(x) * W(t)

    def ux(x: float, t: float) -> float:
        return _u0_dx_sum(coeffs, x, t) - nu * dphi(x) * W(t)

    return SolutionField(
        u=u,
        V=traj,
        provenance=Provenance.INTEGRAL_REP,
        spec=spec,
        u0=functools.partial(_u0_sum, coeffs),
        ux=ux,
    )


# ---------------------------------------------------------------------------
# Companion problem


def tilde_solution(spec: ProblemSpec) -> SolutionField:
    """Explicit solution of the companion problem satisfied by v = u_x.

    The companion field is the x-derivative view of the problem-P field for
    the same data, built once and kept as ``base``: v = ``base.ux``, and the
    boundary trajectory v(0,t) is the problem-P flux ``base.V``.  Each family
    of problem P thus gives one: constant in time (v = h'(x), Neumann datum
    g = Phi(0)*F), the separated family with the cosh/cos/constant X
    branches, and the integral-representation family.
    """
    if spec.variant is not Variant.P_TILDE:
        raise ConstructionError("tilde_solution expects a companion-problem spec")
    if spec.h.kind is ProfileKind.MONOMIAL and spec.h.m == 0.0:
        raise ConstructionError("companion closed forms require m > 0: h = eta has no problem-P twin")
    base = solution_for(spec.as_p())
    return SolutionField(
        u=base.ux, V=base.V, provenance=base.provenance, spec=spec, base=base
    )


def solution_for(spec: ProblemSpec) -> SolutionField:
    """The closed-form family of the spec, routed by the mathematics, not the
    law's spelling: F == 0 -> stationary; a separated shape -> separated; a
    constant F = nu (``FluxLaw.constant_value``) -> stationary; else integral rep."""
    if spec.variant is Variant.P_TILDE:
        return tilde_solution(spec)
    if spec.flux.kind is FluxKind.ZERO:
        return stationary_solution(spec)
    if spec.phi.kind is ShapeKind.SCALED_SEPARABLE:
        return separated_solution(spec)
    if spec.flux.constant_value is not None:
        return stationary_solution(spec)
    return integral_rep_solution(spec)
