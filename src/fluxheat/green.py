"""Heat kernel and Green function of the Dirichlet half-line, plus quadrature.

The Green function is the image difference

    G(x,t,xi,tau) = K(x,t,xi,tau) - K(-x,t,xi,tau),

with K the fundamental solution of the heat equation.  All the semi-infinite
integrals of the explicit-solution machinery (baseline solution, Volterra
kernel and forcing, the inner integrals of the solution representation) are
evaluated here by adaptive quadrature on a truncated interval.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.integrate import quad, quad_vec

from . import specfun
from .problem import (
    InitialProfile,
    ProblemSpec,
    ShapeKind,
    SourceShape,
)

__all__ = [
    "heat_kernel",
    "green_eval",
    "QuadratureError",
    "quad_semiinfinite",
    "quad_semiinfinite_nodes",
    "baseline_u0",
    "u0_quadratic_closed",
    "u0_separable_closed",
    "verify_identity_phi",
    "green_phi_factor",
    "assemble_integral_representation",
]

# Truncation width: the discarded Gaussian tail beyond W standard half-widths
# is below exp(-W^2) ~ 1.6e-28 of the local mass.
_TRUNCATION_W = 8.0

# Points of the fixed Gauss-Legendre pilot of quad_semiinfinite_nodes.
_PILOT_POINTS = 64


def heat_kernel(x: float, t: float, xi: float, tau: float = 0.0) -> float:
    """Fundamental solution K evaluated at ((x,t),(xi,tau)), tau < t."""
    dt = t - tau
    if dt <= 0.0:
        raise ValueError("heat_kernel requires tau < t")
    return math.exp(-((x - xi) ** 2) / (4.0 * dt)) / (2.0 * math.sqrt(math.pi * dt))


def green_eval(x: float, t: float, xi: float, tau: float = 0.0) -> float:
    """Dirichlet half-line Green function; vanishes at x = 0, symmetric in (x, xi)."""
    if tau >= t:
        raise ValueError("green_eval requires tau < t")
    if x < 0.0 or xi < 0.0:
        raise ValueError("green_eval requires x, xi >= 0")
    return heat_kernel(x, t, xi, tau) - heat_kernel(-x, t, xi, tau)


class QuadratureError(RuntimeError):
    """Requested tolerance not reached; carries the achieved error estimate."""

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


def quad_semiinfinite(
    integrand: Callable[[float], float],
    center: float,
    tvar: float,
    growth: float = 0.0,
    tol: float = 1e-10,
) -> float:
    """Integrate over xi in (0, inf) a Gaussian-enveloped integrand.

    The envelope is exp(-(xi-center)^2 / (4*tvar)); factors growing at most
    like exp(growth*xi) shift the effective center by 2*growth*tvar
    (completing the square), so the integral is truncated at

        max(center, 0) + 2*growth*tvar + 2*W*sqrt(tvar)

    with W = 8, which keeps the discarded tail below 1e-16 of the mass.
    Adaptive Gauss-Kronrod refinement to absolute-plus-relative tolerance
    ``tol``; raises :class:`QuadratureError` when the estimate stays above it.
    """
    if tvar <= 0.0:
        raise ValueError("quad_semiinfinite requires tvar > 0")
    upper = max(center, 0.0) + 2.0 * max(growth, 0.0) * tvar
    upper += 2.0 * _TRUNCATION_W * math.sqrt(tvar)
    points = [center] if 0.0 < center < upper else None
    value, estimate = quad(
        integrand, 0.0, upper, epsabs=tol, epsrel=tol, limit=400, points=points
    )
    if estimate > 50.0 * tol * (1.0 + abs(value)):
        raise QuadratureError(
            f"semi-infinite quadrature reached {estimate:.3e}, wanted {tol:.3e}",
            value,
            estimate,
        )
    return value


@functools.cache
def _pilot_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_PILOT_POINTS)


def quad_semiinfinite_nodes(
    integrand: Callable[[np.ndarray], np.ndarray],
    tvars,
    growth: float = 0.0,
    tol: float = 1e-10,
) -> np.ndarray:
    """int_0^inf exp(-xi^2 / (4 t)) integrand(xi) dxi at every t of ``tvars`` at once.

    The node-vector form of :func:`quad_semiinfinite` with center 0; the
    Gaussian envelope is applied here, and ``integrand`` maps an array of xi
    elementwise.  Substituting xi = 2 sqrt(t) s gives every node the same
    weight e^{-s^2} on one s interval,

        2 sqrt(t) int_0^S e^{-s^2} integrand(2 sqrt(t) s) ds,
        S = W + growth * sqrt(max t),   W = 8 as in quad_semiinfinite,

    which is no shorter than any node's own truncation (its xi limit
    2*growth*t + 2*W*sqrt(t) is W + growth*sqrt(t) in s).  One adaptive GK21
    quadrature (``quad_vec``) over s then returns the whole vector.

    Each node keeps the error bound of the scalar routine, estimate <=
    50 tol (1 + |value|): a fixed Gauss-Legendre pilot gives each node a
    magnitude P, the quadrature runs on value / (1 + |P|) to max-norm
    tolerance ``tol``, and its estimate E must satisfy
    E (1 + |P|) <= 50 tol (1 + |value|) at every node, or
    :class:`QuadratureError` is raised.
    """
    t = np.asarray(tvars, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("quad_semiinfinite_nodes requires every tvar > 0")
    root = 2.0 * np.sqrt(t.ravel())  # d xi / d s at each node
    upper = _TRUNCATION_W + max(growth, 0.0) * math.sqrt(float(t.max()))

    def nodes(s):
        return np.exp(-s * s) * integrand(root * s)

    x, w = _pilot_rule()
    half = 0.5 * upper
    size = 1.0 + np.abs(root * half * (w @ nodes(half * (x[:, None] + 1.0))))  # 1 + |P|
    scale = root / size
    scaled, estimate = quad_vec(
        lambda s: scale * nodes(s), 0.0, upper, epsabs=tol, epsrel=tol, norm="max", limit=400
    )
    value = scaled * size
    met = estimate * size <= 50.0 * tol * (1.0 + np.abs(value))
    if not np.all(met):
        first = int(np.argmin(met))  # first node that misses its bound
        raise QuadratureError(
            f"semi-infinite node quadrature reached {estimate * size[first]:.3e} "
            f"at t = {t.ravel()[first]:.6g}, wanted {tol:.3e}",
            value,
            estimate,
        )
    return value.reshape(t.shape)


def baseline_u0(h: InitialProfile, x: float, t: float, tol: float = 1e-11) -> float:
    """Source-free baseline u0(x,t) = int_0^inf G(x,t,xi,0) h(xi) dxi.

    At t = 0 the integral degenerates to h(x).
    """
    if t < 0.0:
        raise ValueError("baseline_u0 requires t >= 0")
    if t == 0.0:
        return h(x)
    return quad_semiinfinite(
        lambda xi: green_eval(x, t, xi, 0.0) * h(xi),
        center=x,
        tvar=t,
        growth=h.growth_rate,
        tol=tol,
    )


def u0_quadratic_closed(nu: float, a: float, x: float, t: float) -> float:
    """Closed baseline for h = (nu/2)x^2 + a*x, in conventional-erf form."""
    if t == 0.0:
        return 0.5 * nu * x * x + a * x
    s = x / (2.0 * math.sqrt(t))
    return (
        (0.5 * nu * x * x + nu * t) * specfun.erf(s)
        + nu / specfun.SQRT_PI * x * math.sqrt(t) * math.exp(-s * s)
        + a * x
    )


def u0_separable_closed(h: InitialProfile, x: float, t: float) -> float:
    """Closed baseline for h = eta*X: h(x) exp(sigma*t).

    The exponent carries the sign of sigma, per the heat semigroup: the sine
    branch (sigma < 0) decays, the sinh branch grows.
    """
    return h(x) * math.exp(h.sigma * t)


def green_phi_factor(shape: SourceShape, dt: float) -> float:
    """Exact weight w with int_0^inf G(x,t,xi,tau) Phi(xi) dxi = w * Phi(x).

    The weight is 1 for the linear shape and exp(+-lambda^2 (t-tau)) for the
    sinh / sin shapes; dt = t - tau.
    """
    if shape.kind is ShapeKind.LINEAR_X:
        return 1.0
    if shape.kind is ShapeKind.NEG_SINH:
        return math.exp(shape.lam ** 2 * dt)
    if shape.kind is ShapeKind.NEG_SIN:
        return math.exp(-(shape.lam ** 2) * dt)
    raise ValueError(f"no closed Green weight for shape {shape.kind}")


def verify_identity_phi(
    shape: SourceShape, x: float, t: float, tau: float, tol: float = 1e-12
) -> tuple[float, float, float]:
    """Compare quadrature of G*Phi against its closed form.

    Returns (lhs, rhs, |lhs - rhs|) with lhs the semi-infinite quadrature and
    rhs = w(t-tau) * Phi(x).
    """
    if not (0.0 <= tau < t):
        raise ValueError("verify_identity_phi requires 0 <= tau < t")
    lhs = quad_semiinfinite(
        lambda xi: green_eval(x, t, xi, tau) * shape(xi),
        center=x,
        tvar=t - tau,
        growth=shape.growth_rate,
        tol=tol,
    )
    rhs = green_phi_factor(shape, t - tau) * shape(x)
    return lhs, rhs, abs(lhs - rhs)


def assemble_integral_representation(
    spec: ProblemSpec,
    x: float,
    t: float,
    V,
    slow: bool = False,
    tol: float = 1e-10,
) -> float:
    """Evaluate the solution representation

        u(x,t) = int_0^inf G(x,t,xi,0) h(xi) dxi
                 - nu int_0^t ( int_0^inf G(x,t,xi,tau) Phi(xi) dxi ) V(tau) dtau.

    The fast path replaces the inner integral by its closed Green weight; the
    slow oracle path (``slow=True``) performs the raw double quadrature.
    """
    nu = spec.flux.nu
    if t == 0.0:
        return spec.h(x)
    u0 = baseline_u0(spec.h, x, t, tol=tol)
    if nu == 0.0:
        return u0

    if not slow:
        if spec.phi.kind is ShapeKind.LINEAR_X:
            time_int = V.weighted_integral(0.0, t)
        elif spec.phi.kind is ShapeKind.NEG_SINH:
            rate = spec.phi.lam ** 2
            time_int = math.exp(rate * t) * V.weighted_integral(-rate, t)
        else:
            rate = spec.phi.lam ** 2
            time_int = math.exp(-rate * t) * V.weighted_integral(rate, t)
        return u0 - nu * spec.phi(x) * time_int

    def inner(tau: float) -> float:
        if tau >= t:
            return spec.phi(x) * float(V(t))
        return (
            quad_semiinfinite(
                lambda xi: green_eval(x, t, xi, tau) * spec.phi(xi),
                center=x,
                tvar=t - tau,
                growth=spec.phi.growth_rate,
                tol=tol,
            )
            * float(V(tau))
        )

    time_int, _ = quad(inner, 0.0, t, epsabs=tol * 10, epsrel=tol * 10, limit=200)
    return u0 - nu * time_int
