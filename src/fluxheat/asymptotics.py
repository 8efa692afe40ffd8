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

from .closed_form import integral_rep_kind_violations
from .problem import (
    FluxKind,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    Variant,
    flux_rate,
    separated_evaluators,
    validate,
)
from .volterra import forcing_for

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
    violations = integral_rep_kind_violations(spec)
    if violations:
        raise ValueError("flux limits: " + "; ".join(violations))


def _transfer(spec: ProblemSpec) -> tuple[float, float, float, int, float]:
    """(kappa, rho, b, p, c) of the flux's transfer function
    V^(s) = c p! (s - rho) / (s^{p+1} (s - b)); the time factor W^(s) is
    V^(s) / (s - rho).  ``b`` is ``flux_rate``, whose operation order keeps an
    exactly resonant sine spec at b = 0, p is the exponent of the forcing
    V0 = c t^p, and c = eta * (m!/p!) exactly.
    """
    kappa, rho = spec.phi.semigroup
    p = int(forcing_for(spec.h).exponent)
    c = spec.h.eta * (math.factorial(int(spec.h.m)) // math.factorial(p))
    return kappa, rho, flux_rate(spec), p, c


def flux_limit(spec: ProblemSpec) -> LimitClass:
    """t -> +infinity class of the boundary flux for the closed-form family.

    A pole b > 0 dominates (residue -nu kappa c p!/b^{p+1}); at b = 0 the flux
    is c t^p - rho c t^{p+1}/(p+1).  For b < 0 the first nonzero term of
    (s - rho)/(s - b) = rho/b + sum_k (rho/b - 1) s^k / b^k decides.
    """
    _require_integral_rep(spec)
    kappa, rho, b, p, c = _transfer(spec)
    if b > 0.0:
        return LimitClass.infinity(-kappa * c)
    if b == 0.0:
        return LimitClass.infinity(-rho * c)
    lead, degree = (c * rho / b, p) if rho != 0.0 else (-c * p / b, p - 1)
    if degree < 0:
        return LimitClass.zero()
    if degree == 0:
        return LimitClass.finite(lead)
    return LimitClass.infinity(lead)


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
    sigma, b = spec.phi.sigma, flux_rate(spec)
    hx = spec.h(x)
    u0 = _sv_u0_class(sigma, hx)

    # u = h(x) exp(b t)
    if b == 0.0:
        u = LimitClass.finite(hx)
    elif b > 0.0:
        u = LimitClass.infinity(hx) if hx != 0.0 else LimitClass.zero()
    else:
        u = LimitClass.zero()

    # u/u0 = exp((b - sigma) t) regardless of the branch
    ratio = LimitClass.infinity(+1.0) if b > sigma else (
        LimitClass.finite(1.0) if b == sigma else LimitClass.zero()
    )
    return ControlClassification(u0, u, ratio, x)


def _sv_power_classes(spec: ProblemSpec, x: float) -> ControlClassification:
    phi, h, flux = spec.phi, spec.h, spec.flux
    sigma, delta, scale, eta = phi.sigma, phi.delta, phi.scale, h.eta
    n = flux.n
    nu_f = flux.f(0.0)  # constant time factor of the power law
    hx, X = h(x), separated_evaluators(sigma, delta)[0]
    notes: list[str] = []
    u0 = _sv_u0_class(sigma, hx)
    k = scale * nu_f * delta ** n  # T' = sigma T - k T^n

    if sigma > 0.0:
        # unstable equilibrium T* = (scale*nu*delta^n / sigma)^(1/(1-n));
        # growth happens only above it, and always when the source feeds T (k < 0)
        t_star = (k / sigma) ** (1.0 / (1.0 - n)) if k >= 0.0 else -math.inf
        if eta > t_star:
            u = LimitClass.infinity(hx) if hx != 0.0 else LimitClass.zero()
            ratio_val = (1.0 - k / (sigma * eta ** (1.0 - n))) ** (1.0 / (1.0 - n))
            ratio = LimitClass.finite(ratio_val)
            notes.append(
                "the limiting ratio carries the 1/(1-n) exponent: "
                "(1 - scale*nu*delta^n/(sigma*eta^(1-n)))^(1/(1-n))"
            )
        elif eta == t_star:
            u = LimitClass.finite(t_star * X(x))
            ratio = LimitClass.zero()
        else:
            u = LimitClass.zero()
            ratio = LimitClass.zero()
            notes.append(
                "eta below the unstable equilibrium: the solution quenches "
                "despite sigma >= 0"
            )
    elif sigma == 0.0 and (k < 0.0 or (n == 0.0 and k > 0.0)):
        # T^(1-n) = eta^(1-n) - (1-n) k t grows without bound (k < 0), and at
        # n = 0 T = eta - k t crosses zero and keeps falling (k > 0)
        u = LimitClass.infinity(-k * hx) if hx != 0.0 else LimitClass.zero()
        ratio = LimitClass.infinity(-k)
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
        elif k < 0.0:
            # the source feeds T, which settles on T* = (k/sigma)^(1/(1-n))
            u = LimitClass.finite((k / sigma) ** (1.0 / (1.0 - n)) * X(x))
            ratio = LimitClass.infinity(1.0)
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
    """u0 ~ c x t^p and u = u0 - nu Phi(x) W(t), classed by :func:`_transfer`.

    At x = 0 both vanish for every t (the Dirichlet face), so u reads zero
    there, and u/u0, 0/0 at every t, takes its x -> 0+ limit, in which
    Phi(x)/x -> Phi'(0) = kappa.
    """
    kappa, rho, b, p, c = _transfer(spec)
    eta, nu = spec.h.eta, spec.flux.nu
    hx, phix = spec.h(x), spec.phi(x)
    notes: list[str] = []
    if p == 0:
        u0 = LimitClass.finite(hx)
    else:
        u0 = LimitClass.infinity(eta * x) if x != 0.0 else LimitClass.zero()

    if b >= 0.0:  # W outgrows every t^p: the source term's sign decides
        s = -phix * eta
        u = LimitClass.infinity(s) if s != 0.0 else LimitClass.zero()
        slope = s / (eta * x) if x != 0.0 else -kappa  # -Phi(x)/x
        ratio = LimitClass.infinity(slope) if slope != 0.0 else LimitClass.zero()
    elif rho == 0.0:  # nu Phi(x) W = c x t^p + ...: the top t-powers cancel
        ratio = LimitClass.zero()
        if p == 0:
            u = LimitClass.zero()
        elif p == 1:
            u = LimitClass.finite(hx + c * x / (nu * kappa))
            notes.append(
                "the top t-powers of the baseline and the source integral cancel "
                "exactly, so the m = 3 solution converges to "
                "eta*x^3 + 6*eta*x/(nu*lambda)"
            )
        else:  # u ~ eta t^{p-1} P(x), P odd with positive coefficients
            u = LimitClass.infinity(eta * x) if x != 0.0 else LimitClass.zero()
            notes.append(
                "the controlled solution grows one power of t slower than the "
                "baseline (top-power cancellation), so the ratio vanishes"
            )
    else:  # W -> -c t^p / b, so u ~ c (x + nu Phi(x)/b) t^p
        top = x + nu * phix / b
        if p == 0:
            u = LimitClass.finite(c * top)
            notes.append(
                "for m = 1 and delta > 0 the source integral saturates and the "
                "solution converges"
            )
        else:
            u = LimitClass.infinity(c * top) if top != 0.0 else LimitClass.zero()
        ratio = LimitClass.finite(
            1.0 + nu * phix / (b * x) if x != 0.0 else 1.0 + nu * kappa / b
        )
    return ControlClassification(u0, u, ratio, x, tuple(notes))


def control_classification(spec: ProblemSpec, x: float = 1.0) -> ControlClassification | None:
    """Long-time classes of u0, u and u/u0 for the three control settings.

    The settings are: constant law with the quadratic profile (Phi == 1),
    the separated family with a linear or power law, and the linear-law
    integral-representation family with an odd monomial profile, all three
    for problem P.  Any other spec, every companion (P~) spec and every spec
    ``validate`` refuses included, is outside them and gets ``None``.
    x-dependent limits are returned as finite classes evaluated at the
    supplied observation point.
    """
    phi, flux, h = spec.phi, spec.flux, spec.h
    if spec.variant is Variant.P_TILDE or validate(spec):
        return None

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

    if not integral_rep_kind_violations(spec):
        return _ir_classes(spec, x)

    return None


DEFAULT_LADDER = (10.0, 20.0, 40.0, 80.0)
# For limits approached at algebraic (1/t or 1/sqrt(t)) rate.
ALGEBRAIC_LADDER = (1e5, 1.6e6, 2.56e7, 4.096e8)
# Relative step between successive probe values below which they have settled.
_PROBE_RTOL = 1e-4


def flux_probe_ladder(spec: ProblemSpec) -> tuple[float, ...]:
    """Probe times suited to the flux's approach to its limit.

    Fluxes growing at an exponential rate (``flux_rate`` > 0) or
    settling on a finite limit or zero take the default ladder; the
    polynomially growing ones (linear shape with m >= 5, sine shape with
    delta >= 0 and m > 1, and the resonant lines) need geometric times.
    """
    if flux_rate(spec) > 0.0 or not flux_limit(spec).is_infinite:
        return DEFAULT_LADDER
    return ALGEBRAIC_LADDER


def control_probe_ladders(spec: ProblemSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Probe times of the control checks: (u0 ladder, u and u/u0 ladder).

    Exponentially dominated solutions (the separated family, or a flux
    growing at a positive ``flux_rate``) settle on the default
    ladder; the algebraically approached limits (polynomial growth, 1/t or
    1/sqrt(t) drifts) need geometrically much larger times.  So does a
    separated power law at sigma = 0, whose T grows or falls algebraically.
    Outside the separated family the baseline grows at most polynomially,
    so its probe takes the long ladder (an exponential baseline merely
    overflows there, which the probe reads as the correct infinity).
    """
    separated = spec.phi.kind is ShapeKind.SCALED_SEPARABLE
    rate = flux_rate(spec)
    algebraic_t = spec.flux.kind is FluxKind.POWER_LAW and spec.phi.sigma == 0.0
    exponential = (separated and not algebraic_t) or (rate is not None and rate > 0.0)
    return (
        DEFAULT_LADDER if separated else ALGEBRAIC_LADDER,
        DEFAULT_LADDER if exponential else ALGEBRAIC_LADDER,
    )


def numeric_limit_probe(fn, t_ladder=DEFAULT_LADDER) -> LimitClass:
    """Empirical t -> infinity class of a scalar function of time.

    Successive values agreeing to ``_PROBE_RTOL`` give Finite; consistent
    growth by a factor >= 2 gives a signed infinity; consistent decay gives Zero.
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
    settling = all(s2 <= 1.5 * s1 + _PROBE_RTOL for s1, s2 in zip(rel_steps, rel_steps[1:]))
    if rel_steps[-1] <= _PROBE_RTOL and settling:
        return LimitClass.finite(vals[-1])
    if all(abs(b) >= 2.0 * abs(a) for a, b in zip(vals, vals[1:])):
        return LimitClass.infinity(vals[-1])
    if all(abs(b) <= 0.5 * abs(a) for a, b in zip(vals, vals[1:])):
        return LimitClass.zero()
    return LimitClass(LimitTag.UNCLASSIFIED)
