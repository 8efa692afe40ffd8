"""Problem descriptions: source shape, flux law, initial profile.

A :class:`ProblemSpec` bundles the data of one half-line heat problem whose
source couples to the boundary heat flux,

    u_t - u_xx = -Phi(x) * F(u_x(0,t), t),   u(x,0) = h(x),   u(0,t) = 0,

or of the companion problem satisfied by v = u_x (``Variant.P_TILDE``), whose
data are the derivatives of the stored shapes and whose boundary condition is
Neumann, v_x(0,t) = g(t).

Validation judges well-posedness only, not which family solves the problem,
and returns a list of violated-hypothesis descriptors instead of raising, so
callers can report everything at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .specfun import SQRT_PI, gamma_half

__all__ = [
    "ShapeKind",
    "INTEGRAL_REP_SHAPES",
    "FluxKind",
    "ProfileKind",
    "Variant",
    "SourceShape",
    "FluxLaw",
    "InitialProfile",
    "ProblemSpec",
    "TimeFunction",
    "validate",
    "flux_rate",
    "separated_evaluators",
    "spec_from_dict",
]


class ShapeKind(Enum):
    LINEAR_X = "linear_x"
    NEG_SINH = "neg_sinh"
    NEG_SIN = "neg_sin"
    SCALED_SEPARABLE = "scaled_separable"
    CONSTANT_ONE = "constant_one"


class FluxKind(Enum):
    ZERO = "zero"
    CONSTANT = "constant"
    LINEAR = "linear"
    AFFINE = "affine"
    POWER_LAW = "power_law"


class ProfileKind(Enum):
    MONOMIAL = "monomial"
    QUADRATIC = "quadratic"
    SCALED_SEPARABLE = "scaled_separable"


class Variant(Enum):
    P = "P"
    P_TILDE = "PTilde"


@dataclass(frozen=True)
class TimeFunction:
    """A time-dependent coefficient with an exact antiderivative.

    Presets cover polynomials and exponentials; arbitrary callables may be
    supplied as long as a matching antiderivative is given.
    """

    fn: Callable[[float], float]
    antiderivative: Callable[[float], float]
    locally_integrable: bool = True
    constant_value: float | None = None  # set by constant() only

    def __call__(self, t: float) -> float:
        return self.fn(t)

    @staticmethod
    def constant(value: float) -> "TimeFunction":
        return TimeFunction(lambda t: value, lambda t: value * t, constant_value=value)

    @staticmethod
    def polynomial(coeffs: list[float]) -> "TimeFunction":
        cs = [float(c) for c in coeffs]

        def fn(t: float) -> float:
            return sum(c * t ** j for j, c in enumerate(cs))

        def anti(t: float) -> float:
            return sum(c * t ** (j + 1) / (j + 1) for j, c in enumerate(cs))

        return TimeFunction(fn, anti)

    @staticmethod
    def exponential(amplitude: float, rate: float) -> "TimeFunction":
        if rate == 0.0:
            return TimeFunction.constant(amplitude)
        return TimeFunction(
            lambda t: amplitude * math.exp(rate * t),
            lambda t: amplitude * (math.exp(rate * t) - 1.0) / rate,
        )


# The library a data function is written over: ``math`` for a scalar, where a
# constant stays a Python float, and ``numpy`` elementwise for an array, where
# a constant broadcasts to the array's shape.
_SCALAR_MATH = SimpleNamespace(
    sinh=math.sinh, cosh=math.cosh, sin=math.sin, cos=math.cos, const=lambda value, x: value
)
_ARRAY_MATH = SimpleNamespace(
    sinh=np.sinh, cosh=np.cosh, sin=np.sin, cos=np.cos,
    const=lambda value, x: np.full(x.shape, value),
)


def _lib(x):
    return _ARRAY_MATH if isinstance(x, np.ndarray) else _SCALAR_MATH


def _separated_pair(factor: float, sigma: float, delta: float, lib):
    """(factor*X, factor*X') over ``lib``, the branch of sigma chosen once.

    X solves X'' = sigma*X, X(0) = 0, X'(0) = delta: delta/r sinh(r x) for
    sigma = r^2 > 0, delta/r sin(r x) for sigma = -r^2 < 0, delta*x at 0.
    """
    if sigma > 0.0:
        r, fn, dfn = math.sqrt(sigma), lib.sinh, lib.cosh
    elif sigma < 0.0:
        r, fn, dfn = math.sqrt(-sigma), lib.sin, lib.cos
    else:
        const = lib.const
        return (lambda x: factor * (delta * x)), (lambda x: factor * const(delta, x))
    c = delta / r
    return (lambda x: factor * (c * fn(r * x))), (lambda x: factor * (delta * dfn(r * x)))


def separated_evaluators(sigma: float, delta: float):
    """(X, X') at a scalar x, the branch of sigma chosen once: X solves
    X'' = sigma*X, X(0) = 0, X'(0) = delta."""
    return _separated_pair(1.0, sigma, delta, _SCALAR_MATH)


def _shape_pair(shape: "SourceShape", lib):
    """(Phi, Phi') of ``shape`` over ``lib``, the kind dispatched once."""
    k = shape.kind
    const = lib.const
    if k is ShapeKind.LINEAR_X:
        lam = shape.lam
        return (lambda x: lam * x), (lambda x: const(lam, x))
    if k is ShapeKind.NEG_SINH or k is ShapeKind.NEG_SIN:
        neg_mu, lam = -shape.mu, shape.lam
        slope = neg_mu * lam
        fn, dfn = (lib.sinh, lib.cosh) if k is ShapeKind.NEG_SINH else (lib.sin, lib.cos)
        return (lambda x: neg_mu * fn(lam * x)), (lambda x: slope * dfn(lam * x))
    if k is ShapeKind.SCALED_SEPARABLE:
        return _separated_pair(shape.scale, shape.sigma, shape.delta, lib)
    return (lambda x: const(1.0, x)), (lambda x: const(0.0, x))


def _profile_pair(h: "InitialProfile", lib):
    """(h, h') of ``h`` over ``lib``, the kind dispatched once."""
    eta = h.eta
    if h.kind is ProfileKind.MONOMIAL:
        m = h.m
        eta_m, m1 = eta * m, m - 1.0
        return (lambda x: eta * x ** m), (lambda x: eta_m * x ** m1)
    if h.kind is ProfileKind.QUADRATIC:
        half_nu, nu, a = 0.5 * h.nu, h.nu, h.a
        return (lambda x: half_nu * x * x + a * x), (lambda x: nu * x + a)
    return _separated_pair(eta, h.sigma, h.delta, lib)


@dataclass(frozen=True)
class SourceShape:
    """Spatial factor Phi of the source term."""

    kind: ShapeKind
    lam: float = 1.0          # rate of the linear/sinh/sin shapes
    mu: float = 1.0           # amplitude, neg_sinh / neg_sin only
    sigma: float = 0.0        # separated branch selector
    delta: float = 1.0        # separated slope at 0
    scale: float = 1.0        # multiplier of X for the separated shape

    def __call__(self, x):
        """Phi(x); elementwise on arrays."""
        return _shape_pair(self, _lib(x))[0](x)

    def derivative(self, x):
        """Phi'(x); elementwise on arrays."""
        return _shape_pair(self, _lib(x))[1](x)

    def evaluators(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """(Phi, Phi') at a scalar x, the kind dispatched once; the expressions
        of ``__call__`` and ``derivative``, bit for bit."""
        return _shape_pair(self, _SCALAR_MATH)

    @property
    def semigroup(self) -> tuple[float, float]:
        """(kappa, rho) = (Phi'(0), 0 or +-lambda^2) of the integral-representation
        shapes: int_0^inf G(x,t,xi,tau) Phi(xi) dxi = exp(rho (t-tau)) Phi(x),
        and the memory kernel is R(t) = kappa * exp(rho * t)."""
        k = self.kind
        if k is ShapeKind.LINEAR_X:
            return self.lam, 0.0
        if k is ShapeKind.NEG_SINH or k is ShapeKind.NEG_SIN:
            try:
                lam2 = self.lam ** 2
            except OverflowError:
                raise OverflowError(f"rho = +-lambda^2 at lambda = {self.lam!r}") from None
            return -self.lam * self.mu, lam2 if k is ShapeKind.NEG_SINH else -lam2
        raise ValueError(f"shape {k} is not a heat-semigroup eigenfunction")

    @property
    def growth_rate(self) -> float:
        """Exponential growth rate of |Phi|, used to truncate quadratures."""
        if self.kind is ShapeKind.NEG_SINH:
            return self.lam
        if self.kind is ShapeKind.SCALED_SEPARABLE and self.sigma > 0.0:
            return math.sqrt(self.sigma)
        return 0.0


@dataclass(frozen=True)
class FluxLaw:
    """Coupling law F(V, t) of the source term to the boundary flux V."""

    kind: FluxKind
    nu: float = 1.0
    n: float = 0.0
    f1: TimeFunction | None = None
    f2: TimeFunction | None = None
    f: TimeFunction | None = None

    def __call__(self, V: float, t: float) -> float:
        k = self.kind
        if k is FluxKind.ZERO:
            return 0.0
        if k is FluxKind.CONSTANT:
            return self.nu
        if k is FluxKind.LINEAR:
            return self.nu * V
        if k is FluxKind.AFFINE:
            return self.f1(t) + self.f2(t) * V
        # power law V^n f(t); n = 0 means F independent of V
        if self.n == 0.0:
            return self.f(t)
        return V ** self.n * self.f(t)


@dataclass(frozen=True)
class InitialProfile:
    """Initial temperature h(x)."""

    kind: ProfileKind
    eta: float = 1.0          # monomial / separated amplitude
    m: float = 1.0            # monomial exponent
    a: float = 0.0            # linear coefficient of the quadratic profile
    nu: float = 1.0           # quadratic leading coefficient is nu/2
    sigma: float = 0.0        # separated branch (must match the source shape)
    delta: float = 1.0

    def __call__(self, x):
        """h(x); elementwise on arrays."""
        return _profile_pair(self, _lib(x))[0](x)

    def derivative(self, x):
        """h'(x); elementwise on arrays."""
        return _profile_pair(self, _lib(x))[1](x)

    def evaluators(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """(h, h') at a scalar x, the kind dispatched once; the expressions of
        ``__call__`` and ``derivative``, bit for bit."""
        return _profile_pair(self, _SCALAR_MATH)

    @property
    def growth_rate(self) -> float:
        if self.kind is ProfileKind.SCALED_SEPARABLE and self.sigma > 0.0:
            return math.sqrt(self.sigma)
        return 0.0

    @property
    def is_odd_monomial(self) -> bool:
        return (
            self.kind is ProfileKind.MONOMIAL
            and self.m == int(self.m)
            and int(self.m) % 2 == 1
            and self.m >= 1.0
        )


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark case: (Phi, F, h) plus the problem variant.

    For ``Variant.P_TILDE`` the stored fields describe the underlying problem
    whose x-derivative is taken: the effective data are Phi' and h', the flux
    law is unchanged, and the Neumann datum is g(t) = Phi(0) F(u_x(0,t), t).
    """

    phi: SourceShape
    flux: FluxLaw
    h: InitialProfile
    variant: Variant = Variant.P

    def evaluators(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """The scalar (Phi, h) this variant's equation reads, each bound once:
        (Phi', h') for the companion problem."""
        (phi, dphi), (h, dh) = self.phi.evaluators(), self.h.evaluators()
        if self.variant is Variant.P_TILDE:
            return dphi, dh
        return phi, h

    def as_p(self) -> "ProblemSpec":
        return ProblemSpec(self.phi, self.flux, self.h, Variant.P)


# The shapes of the integral-representation family: lambda*x, -mu*sinh, -mu*sin.
INTEGRAL_REP_SHAPES = (ShapeKind.LINEAR_X, ShapeKind.NEG_SINH, ShapeKind.NEG_SIN)


def monomial_forcing_constant(eta: float, m: float) -> float:
    """c = 2^{m-1} m eta Gamma(m/2) / sqrt(pi); equals eta at m = 1."""
    if float(m) == int(m):
        gam = gamma_half(int(m) / 2) if (int(m) % 2 == 1) else gamma_half(int(m) // 2)
    else:
        gam = math.gamma(m / 2.0)
    return 2.0 ** (m - 1.0) * m * eta * gam / SQRT_PI


def flux_rate(spec: ProblemSpec) -> float | None:
    """b, the exponential rate of the flux under the linear law F = nu*V:
    rho - nu*kappa for the integral-representation shapes, sigma - gamma with
    gamma = scale*nu*delta for the separated one; None off the linear law and
    for Phi = 1.  Each shape keeps its own operation order, which holds an
    exactly resonant sine spec (lambda = nu*mu) at b = 0."""
    phi, nu = spec.phi, spec.flux.nu
    if spec.flux.kind is not FluxKind.LINEAR:
        return None
    if phi.kind is ShapeKind.LINEAR_X:
        return -(nu * phi.lam)
    if phi.kind is ShapeKind.NEG_SINH:
        return phi.lam * (phi.lam + nu * phi.mu)
    if phi.kind is ShapeKind.NEG_SIN:
        return -(phi.lam * (phi.lam - nu * phi.mu))
    if phi.kind is ShapeKind.SCALED_SEPARABLE:
        return phi.sigma - phi.scale * nu * phi.delta
    return None


def validate(spec: ProblemSpec) -> list[str]:
    """Check that the problem is well-posed: h(0+) = 0 and admissible parameters.

    Returns a list of violation descriptors; an empty list means the spec is
    admissible.  Which closed-form family, if any, solves an admissible spec
    is not decided here: each family's constructor in ``closed_form`` checks
    its own rules and names the one a spec breaks.
    """
    v: list[str] = []
    phi, flux, h = spec.phi, spec.flux, spec.h

    if phi.kind in INTEGRAL_REP_SHAPES:
        if phi.lam <= 0.0:
            v.append("lambda must be positive for the built-in source shapes")
    if phi.kind in (ShapeKind.NEG_SINH, ShapeKind.NEG_SIN) and phi.mu <= 0.0:
        v.append("mu must be positive for the sinh/sin source shapes")
    if phi.kind is ShapeKind.SCALED_SEPARABLE:
        if phi.scale == 0.0:
            v.append("separated source scale must be nonzero")
        if phi.delta == 0.0:
            v.append("separated slope delta must be nonzero")

    # Compatibility condition: h must vanish at the face (problem P only;
    # the companion problem has no Dirichlet condition).  A profile that
    # overflows at the face (a monomial with m < 0) does not vanish there.
    if spec.variant is Variant.P:
        try:
            h0 = h(1e-300)
        except OverflowError:
            h0 = math.inf
        if not math.isclose(h0, 0.0, abs_tol=1e-200):
            v.append("compatibility violated: h(0+) must be 0")
        if h.kind is ProfileKind.MONOMIAL and h.m < 1.0:
            v.append("monomial exponent m must be >= 1")
    else:
        if h.kind is ProfileKind.MONOMIAL and h.m < 1.0 and h.m != 0.0:
            v.append("companion-problem profile exponent must be 0 or >= 1")

    if h.kind is ProfileKind.MONOMIAL and h.eta == 0.0:
        v.append("monomial amplitude eta must be nonzero")
    if h.kind is ProfileKind.SCALED_SEPARABLE:
        if h.eta == 0.0:
            v.append("separated amplitude eta must be nonzero")
        if phi.kind is ShapeKind.SCALED_SEPARABLE and (
            h.sigma != phi.sigma or h.delta != phi.delta
        ):
            v.append("separated h and Phi must share (sigma, delta)")

    if flux.kind is FluxKind.CONSTANT and flux.nu == 0.0:
        v.append("constant flux law requires nu != 0")
    if flux.kind is FluxKind.LINEAR and flux.nu == 0.0:
        v.append("linear flux law requires nu != 0")
    if flux.kind is FluxKind.AFFINE:
        for name, fpart in (("f1", flux.f1), ("f2", flux.f2)):
            if fpart is None:
                v.append(f"affine flux law requires {name}")
            elif not fpart.locally_integrable:
                v.append(f"affine flux law requires locally integrable {name}")
    if flux.kind is FluxKind.POWER_LAW:
        if flux.nu == 0.0 or (flux.f is not None and flux.f.constant_value == 0.0):
            v.append("power-law flux law requires nu != 0")
        if flux.n >= 1.0:
            v.append("power-law exponent must satisfy n < 1")
        if flux.f is None:
            v.append("power-law flux law requires the time factor f")
        elif not flux.f.locally_integrable:
            v.append("power-law flux law requires locally integrable f")
        # the separated flux V = delta*T keeps V^n real (delta**n, T**n) only
        # for delta, eta > 0, so this rule stays with well-posedness
        if phi.kind is ShapeKind.SCALED_SEPARABLE:
            if phi.scale <= 0.0 or phi.delta <= 0.0 or h.eta <= 0.0:
                v.append("power-law separated family requires scale, delta, eta > 0")

    return v


# ---------------------------------------------------------------------------
# JSON case schema (consumed by the benchmark CLI).

_CASE_FIELDS = frozenset({"phi", "flux", "h", "variant"})
_PHI_FIELDS = frozenset({"kind", "lambda", "mu", "sigma", "delta", "scale"})
_FLUX_FIELDS = frozenset({"kind", "nu", "n"})
_H_FIELDS = frozenset({"kind", "eta", "m", "a"})


class SchemaError(ValueError):
    """Raised when a JSON case does not conform to the schema."""


def read_object(obj, where: str, fields: set | frozenset | None = None, required=()) -> dict:
    """``obj``, the JSON object ``where`` of a config: a SchemaError unless it is
    one, with no field outside ``fields`` (any when None) and all of ``required``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if fields is not None and not fields.issuperset(obj):
        raise SchemaError(f"unknown fields in {where}: {sorted(set(obj) - fields)}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing '{key}' in {where}")
    return obj


def config_id(config: dict, default: str) -> str:
    """``config['id']``, or ``default`` when absent: a non-empty string that
    names a plain file (no path separator, not '.' or '..')."""
    if "id" not in config:
        return default
    value = config["id"]
    if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise SchemaError(f"config 'id' must be a plain file name, got {value!r}")
    return value


def number_field(obj: dict, key: str, default: float, where: str) -> float:
    """``obj[key]``, or ``default`` when absent, as a float; a non-number,
    NaN or an infinity is a SchemaError."""
    try:
        value = float(obj.get(key, default))
    except (TypeError, ValueError):
        raise SchemaError(f"{where} '{key}' must be a number, got {obj[key]!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where} '{key}' must be finite, got {obj[key]!r}")
    return value


def _enum_field(obj: dict, key: str, enum: type[Enum], where: str, default=None) -> Enum:
    """``obj[key]``, or ``default`` when absent, as a member of ``enum``."""
    try:
        return enum(obj.get(key, default))
    except ValueError:
        names = [m.value for m in enum]
        raise SchemaError(f"{where} '{key}' must be one of {names}, got {obj[key]!r}") from None


def spec_from_dict(data: dict) -> ProblemSpec:
    """Build a ProblemSpec from the JSON case schema; unknown fields rejected."""
    read_object(data, "case", _CASE_FIELDS, ("phi", "flux", "h"))
    pd = read_object(data["phi"], "phi", _PHI_FIELDS, ("kind",))
    fd = read_object(data["flux"], "flux", _FLUX_FIELDS, ("kind",))
    hd = read_object(data["h"], "h", _H_FIELDS, ("kind",))

    phi_kind = _enum_field(pd, "kind", ShapeKind, "phi")
    flux_kind = _enum_field(fd, "kind", FluxKind, "flux")
    h_kind = _enum_field(hd, "kind", ProfileKind, "h")
    if flux_kind is FluxKind.AFFINE:
        raise SchemaError("affine flux laws are library-level only (no JSON form)")

    phi = SourceShape(
        kind=phi_kind,
        lam=number_field(pd, "lambda", 1.0, "phi"),
        mu=number_field(pd, "mu", 1.0, "phi"),
        sigma=number_field(pd, "sigma", 0.0, "phi"),
        delta=number_field(pd, "delta", 1.0, "phi"),
        scale=number_field(pd, "scale", 1.0, "phi"),
    )
    nu = number_field(fd, "nu", 1.0, "flux")
    flux_kwargs = {"nu": nu, "n": number_field(fd, "n", 0.0, "flux")}
    if flux_kind is FluxKind.POWER_LAW:
        # JSON power law carries a constant time factor f == nu.
        flux_kwargs["f"] = TimeFunction.constant(nu)
    flux = FluxLaw(kind=flux_kind, **flux_kwargs)
    h = InitialProfile(
        kind=h_kind,
        eta=number_field(hd, "eta", 1.0, "h"),
        m=number_field(hd, "m", 1.0, "h"),
        a=number_field(hd, "a", 0.0, "h"),
        nu=nu if h_kind is ProfileKind.QUADRATIC else 1.0,
        sigma=phi.sigma if h_kind is ProfileKind.SCALED_SEPARABLE else 0.0,
        delta=phi.delta if h_kind is ProfileKind.SCALED_SEPARABLE else 1.0,
    )
    variant = _enum_field(data, "variant", Variant, "case", "P")
    return ProblemSpec(phi=phi, flux=flux, h=h, variant=variant)
