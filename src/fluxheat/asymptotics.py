"""Long-time and short-time behaviour of fluxes, solutions and ratios.

Classification is computed symbolically from the problem parameters (never
from floating-point trends); the numeric t-ladder probe is an independent
confirmation path.  Rows whose outcome is easy to mis-read (sign conventions,
quenching, cancellation between the baseline and the source integral) carry
explanatory ``notes`` stating why the class is what it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .problem import (
    INTEGRAL_REP_SHAPES,
    FluxKind,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    derive_parameters,
    separated_x,
)

__all__ = [
    "LimitTag",
    "LimitClass",
    "ControlClassification",
    "flux_limit",
    "flux_initial_limit",
    "control_classification",
    "numeric_limit_probe",
    "flux_probe_ladder",
    "control_probe_ladders",
    "DEFAULT_LADDER",
    "ALGEBRAIC_LADDER",
]


class LimitTag(Enum):
    ZERO = "zero"
    FINITE = "finite"
    PLUS_INFINITY = "plus_infinity"
    MINUS_INFINITY = "minus_infinity"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class LimitClass:
    tag: LimitTag
    value: float | None = None

    @staticmethod
    def zero() -> "LimitClass":
        return LimitClass(LimitTag.ZERO)

    @staticmethod
    def finite(value: float) -> "LimitClass":
        return LimitClass(LimitTag.FINITE, value)

    @staticmethod
    def infinity(sign: float) -> "LimitClass":
        return LimitClass(LimitTag.PLUS_INFINITY if sign > 0 else LimitTag.MINUS_INFINITY)

    @property
    def is_infinite(self) -> bool:
        return self.tag in (LimitTag.PLUS_INFINITY, LimitTag.MINUS_INFINITY)

    def agrees_with(self, other: "LimitClass", rtol: float = 1e-3) -> bool:
        if self.tag is not other.tag:
            return False
        if self.tag is LimitTag.FINITE:
            a, b = self.value, other.value
            return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))
        return True


def _require_integral_rep(spec: ProblemSpec):
    if spec.phi.kind not in INTEGRAL_REP_SHAPES:
        raise ValueError("flux limits require an integral-representation spec")
    if spec.flux.kind is not FluxKind.LINEAR:
        raise ValueError("flux limits require the linear coupling law")
    if not spec.h.is_odd_monomial:
        raise ValueError("flux limits require an odd monomial profile")


def flux_limit(spec: ProblemSpec) -> LimitClass:
    """t -> +infinity class of the boundary flux for the closed-form family.

    The sinh shape keeps sigma = lambda + nu*mu > 0 for admissible data, so
    its finite row (sigma < 0) is implemented as written but unreachable.
    For the sine shape with m >= 3 the class follows the closed form: the
    sign of eta alone decides, for either sign of delta.
    """
    _require_integral_rep(spec)
    eta, m = spec.h.eta, int(spec.h.m)
    lam, nu = spec.phi.lam, spec.flux.nu
    params = derive_parameters(spec)

    if spec.phi.kind is ShapeKind.LINEAR_X:
        if m == 1:
            return LimitClass.zero()
        if m == 3:
            return LimitClass.finite(6.0 * eta / (nu * lam))
        return LimitClass.infinity(eta)

    if spec.phi.kind is ShapeKind.NEG_SINH:
        sigma = params.sigma
        if sigma == 0.0:
            return LimitClass.infinity(-eta)
        if m == 1:
            if sigma < 0.0:  # unreachable for admissible mu, nu, lambda > 0
                return LimitClass.finite(eta * lam / sigma)
            return LimitClass.infinity(eta)
        return LimitClass.infinity(sigma * eta)

    delta = params.delta
    if delta == 0.0:
        return LimitClass.infinity(eta)
    if m == 1:
        if delta > 0.0:
            return LimitClass.finite(eta * lam / delta)
        return LimitClass.infinity(eta)
    return LimitClass.infinity(eta)


def flux_initial_limit(spec: ProblemSpec) -> LimitClass:
    """t -> 0+ flux limit: eta for m = 1, zero for m > 1, any built-in shape."""
    _require_integral_rep(spec)
    if int(spec.h.m) == 1:
        return LimitClass.finite(spec.h.eta)
    return LimitClass.zero()


@dataclass(frozen=True)
class ControlClassification:
    """Long-time classes of the baseline, the controlled solution and their
    ratio, evaluated for a given observation point x."""

    u0_limit: LimitClass
    u_limit: LimitClass
    ratio_limit: LimitClass
    x: float
    notes: tuple[str, ...] = ()


def _sv_u0_class(sigma: float, hx: float) -> LimitClass:
    """Class of the separated baseline u0 = h(x) exp(sigma t)."""
    if sigma == 0.0:
        return LimitClass.finite(hx)
    if sigma > 0.0:
        return LimitClass.infinity(hx) if hx != 0.0 else LimitClass.zero()
    return LimitClass.zero()


def _sv_linear_classes(spec: ProblemSpec, x: float) -> ControlClassification:
    sigma, gamma = spec.phi.sigma, derive_parameters(spec).gamma
    hx = spec.h(x)
    u0 = _sv_u0_class(sigma, hx)

    if gamma == sigma:
        u = LimitClass.finite(hx)
    elif gamma < sigma:
        u = LimitClass.infinity(hx) if hx != 0.0 else LimitClass.zero()
    else:
        u = LimitClass.zero()

    # u/u0 = exp(-gamma t) regardless of the branch
    ratio = LimitClass.infinity(+1.0) if gamma < 0.0 else (
        LimitClass.finite(1.0) if gamma == 0.0 else LimitClass.zero()
    )
    return ControlClassification(u0, u, ratio, x)


def _sv_power_classes(spec: ProblemSpec, x: float) -> ControlClassification:
    phi, h, flux = spec.phi, spec.h, spec.flux
    sigma, delta, scale, eta = phi.sigma, phi.delta, phi.scale, h.eta
    n = flux.n
    nu_f = flux.f(0.0)  # constant time factor of the power law
    hx = h(x)
    notes: list[str] = []
    u0 = _sv_u0_class(sigma, hx)

    if sigma > 0.0:
        # unstable equilibrium T* = (scale*nu*delta^n / sigma)^(1/(1-n));
        # growth happens only above it
        t_star = (scale * nu_f * delta ** n / sigma) ** (1.0 / (1.0 - n))
        if eta > t_star:
            u = LimitClass.infinity(hx) if hx != 0.0 else LimitClass.zero()
            ratio_val = (1.0 - scale * nu_f * delta ** n / (sigma * eta ** (1.0 - n))) ** (
                1.0 / (1.0 - n)
            )
            ratio = LimitClass.finite(ratio_val)
            notes.append(
                "the limiting ratio carries the 1/(1-n) exponent: "
                "(1 - scale*nu*delta^n/(sigma*eta^(1-n)))^(1/(1-n))"
            )
        elif eta == t_star:
            u = LimitClass.finite(t_star * separated_x(sigma, delta, x))
            ratio = LimitClass.zero()
        else:
            u = LimitClass.zero()
            ratio = LimitClass.zero()
            notes.append(
                "eta below the unstable equilibrium: the solution quenches "
                "despite sigma >= 0"
            )
    elif sigma == 0.0:
        u = LimitClass.zero()
        ratio = LimitClass.zero()
        notes.append("sigma = 0 with a positive power law quenches in finite time")
    else:
        if n == 0.0:
            theta1 = scale * nu_f / (sigma * eta)
            u = LimitClass.finite(theta1 * hx)
            # ratio = T(t)/(eta e^{sigma t}) -> sign(theta1) * infinity
            ratio = LimitClass.infinity(theta1)
            notes.append(
                "the limit constant theta_1 = scale*nu/(sigma*eta) is the "
                "equilibrium of the T equation scaled by eta"
            )
        else:
            u = LimitClass.zero()
            ratio = LimitClass.zero()
            if 0.0 < n < 1.0:
                notes.append(
                    "the solution quenches in finite time, so the ratio to the "
                    "decaying baseline vanishes rather than diverging"
                )
    return ControlClassification(u0, u, ratio, x, tuple(notes))


def _ir_classes(spec: ProblemSpec, x: float) -> ControlClassification:
    phi, h = spec.phi, spec.h
    eta, m = h.eta, int(h.m)
    lam, mu, nu = phi.lam, phi.mu, spec.flux.nu
    hx = h(x)
    notes: list[str] = []

    if m == 1:
        u0 = LimitClass.finite(hx)
    else:
        u0 = LimitClass.infinity(eta * x) if x != 0.0 else LimitClass.zero()

    if phi.kind is ShapeKind.LINEAR_X:
        if m == 1:
            u = LimitClass.zero()
            ratio = LimitClass.zero()
        elif m == 3:
            u = LimitClass.finite(eta * x ** 3 + 6.0 * eta * x / (nu * lam))
            ratio = LimitClass.zero()
            notes.append(
                "the top t-powers of the baseline and the source integral cancel "
                "exactly, so the m = 3 solution converges to "
                "eta*x^3 + 6*eta*x/(nu*lambda)"
            )
        else:
            u = LimitClass.infinity(eta)
            ratio = LimitClass.zero()
            notes.append(
                "the controlled solution grows one power of t slower than the "
                "baseline (top-power cancellation), so the ratio vanishes"
            )
    elif phi.kind is ShapeKind.NEG_SINH:
        u = LimitClass.infinity(eta)   # sinh(lambda x) > 0 for x > 0
        ratio = LimitClass.infinity(+1.0)
    else:
        delta = derive_parameters(spec).delta
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


def control_classification(spec: ProblemSpec, x: float = 1.0) -> ControlClassification | None:
    """Long-time classes of u0, u and u/u0 for the three control settings.

    The settings are: constant law with the quadratic profile (Phi == 1),
    the separated family with a linear or power law, and the linear-law
    integral-representation family with an odd monomial profile.  Any other
    spec is outside them and gets ``None``.  x-dependent limits are returned
    as finite classes evaluated at the supplied observation point.
    """
    phi, flux, h = spec.phi, spec.flux, spec.h

    if (
        phi.kind is ShapeKind.CONSTANT_ONE
        and flux.kind is FluxKind.CONSTANT
        and h.kind is ProfileKind.QUADRATIC
    ):
        # u0 ~ 2 nu x sqrt(t/pi) -> signed infinity; u = h(x) forever
        u0 = LimitClass.infinity(flux.nu)
        u = LimitClass.finite(h(x))
        return ControlClassification(u0, u, LimitClass.zero(), x)

    if phi.kind is ShapeKind.SCALED_SEPARABLE:
        if flux.kind is FluxKind.LINEAR:
            return _sv_linear_classes(spec, x)
        if flux.kind is FluxKind.POWER_LAW:
            return _sv_power_classes(spec, x)

    if phi.kind in INTEGRAL_REP_SHAPES and flux.kind is FluxKind.LINEAR and h.is_odd_monomial:
        return _ir_classes(spec, x)

    return None


DEFAULT_LADDER = (10.0, 20.0, 40.0, 80.0)
# For limits approached at algebraic (1/t or 1/sqrt(t)) rate.
ALGEBRAIC_LADDER = (1e5, 1.6e6, 2.56e7, 4.096e8)


def flux_probe_ladder(spec: ProblemSpec) -> tuple[float, ...]:
    """Probe times suited to the flux's approach to its limit.

    Fluxes growing at an exponential rate (``DerivedParams.rate`` > 0) or
    settling on a finite limit or zero take the default ladder; the
    polynomially growing ones (linear shape with m >= 5, sine shape with
    delta >= 0 and m > 1, and the resonant lines) need geometric times.
    """
    if derive_parameters(spec).rate > 0.0 or not flux_limit(spec).is_infinite:
        return DEFAULT_LADDER
    return ALGEBRAIC_LADDER


def control_probe_ladders(spec: ProblemSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Probe times of the control checks: (u0 ladder, u and u/u0 ladder).

    Exponentially dominated solutions (the separated family, or a flux
    growing at a positive ``DerivedParams.rate``) settle on the default
    ladder; the algebraically approached limits (polynomial growth, 1/t or
    1/sqrt(t) drifts) need geometrically much larger times.  Outside the
    separated family the baseline grows at most polynomially, so its probe
    takes the long ladder (an exponential baseline merely overflows there,
    which the probe reads as the correct infinity).
    """
    separated = spec.phi.kind is ShapeKind.SCALED_SEPARABLE
    rate = derive_parameters(spec).rate
    exponential = separated or (rate is not None and rate > 0.0)
    return (
        DEFAULT_LADDER if separated else ALGEBRAIC_LADDER,
        DEFAULT_LADDER if exponential else ALGEBRAIC_LADDER,
    )


def numeric_limit_probe(fn, t_ladder=DEFAULT_LADDER, rtol: float = 1e-4) -> LimitClass:
    """Empirical t -> infinity class of a scalar function of time.

    Successive values agreeing to ``rtol`` give Finite; consistent growth by
    a factor >= 2 gives a signed infinity; consistent decay gives Zero.
    Anything else (oscillation without decay) is Unclassified and never
    asserted equal to a symbolic class.
    """
    vals = []
    for t in t_ladder:
        try:
            vals.append(float(fn(t)))
        except OverflowError:
            vals.append(math.inf if not vals or vals[-1] >= 0 else -math.inf)

    finite_vals = [v for v in vals if math.isfinite(v)]
    if len(finite_vals) < len(vals):
        # overflowed along the ladder: treat as infinity, signed by the last
        # finite value (or by the sign of the infinity itself)
        bad = next(v for v in vals if not math.isfinite(v))
        if math.isnan(bad):
            return LimitClass(LimitTag.UNCLASSIFIED)
        sign = bad if math.isinf(bad) else (finite_vals[-1] if finite_vals else 1.0)
        return LimitClass.infinity(sign)

    tiny = 1e-300
    if all(abs(v) < 1e-12 for v in vals):
        return LimitClass.zero()
    rel_steps = [
        abs(b - a) / max(abs(a), abs(b), tiny) for a, b in zip(vals, vals[1:])
    ]
    # Finite: the tail has settled and the drift is shrinking, so the first
    # (largest) step does not disqualify an exponentially converging ladder.
    settling = all(s2 <= 1.5 * s1 + rtol for s1, s2 in zip(rel_steps, rel_steps[1:]))
    if rel_steps[-1] <= rtol and settling:
        return LimitClass.finite(vals[-1])
    if all(abs(b) >= 2.0 * abs(a) for a, b in zip(vals, vals[1:])):
        return LimitClass.infinity(vals[-1])
    if all(abs(b) <= 0.5 * abs(a) for a, b in zip(vals, vals[1:])):
        return LimitClass.zero()
    return LimitClass(LimitTag.UNCLASSIFIED)
