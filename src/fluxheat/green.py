"""Heat kernel and Green function of the Dirichlet half-line, plus quadrature.

The Green function is the image difference

    G(x,t,xi,tau) = K(x,t,xi,tau) - K(-x,t,xi,tau),

with K the fundamental solution of the heat equation.  All the semi-infinite
integrals of the explicit-solution machinery (baseline solution, Volterra
kernel and forcing, the inner integrals of the solution representation) are
evaluated here by adaptive quadrature on a truncated interval:
``quad_semiinfinite`` for one integral, through ``quad_interval``, the one
entry to QUADPACK (the Python port in :mod:`quadpack`, which returns scipy's
bits without loading scipy), and ``quad_semiinfinite_nodes`` for a whole node
vector of Gaussian-weighted integrals, an adaptive GK21 rule batched over
panels and nodes that makes one vectorised integrand call per refinement
round.  Both hold every estimate to one bound, 50 tol (1 + |value|).  The
Green quadrature of a profile's or a source shape's own function at a point,
which the baseline and the G Phi identity check take, is memoised per value
of its arguments.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from . import quadpack, specfun
from .problem import (
    InitialProfile,
    ProblemSpec,
    SourceShape,
)

__all__ = [
    "heat_kernel",
    "green_eval",
    "green_integrand",
    "QuadratureError",
    "quad_interval",
    "quad_semiinfinite",
    "quad_semiinfinite_nodes",
    "baseline_u0",
    "u0_quadratic_closed",
    "u0_separable_closed",
    "verify_identity_phi",
    "assemble_integral_representation",
]

# Truncation width: the discarded Gaussian tail beyond W standard half-widths
# is below exp(-W^2) ~ 1.6e-28 of the local mass.
_TRUNCATION_W = 8.0


def _mirror(half: np.ndarray) -> np.ndarray:
    """Values at the 21 nodes, -x_0 ... 0 ... x_0, from those at x_0 > ... > 0."""
    return np.concatenate([half, half[-2::-1]])


# QUADPACK's 21-point Gauss-Kronrod rule (qk21) on [-1, 1] as the batched
# engine reads it: the nodes, their Kronrod weights, and those minus the
# weights of the embedded 10-point Gauss rule (0 at the Kronrod-only nodes).
_G10_HALF = np.zeros(11)
_G10_HALF[1::2] = quadpack.GK21_WG
_GK21_X = _mirror(np.array(quadpack.GK21_X)) * np.repeat([-1.0, 1.0], [11, 10])
_GK21_X_PLUS_1 = _GK21_X + 1.0  # the nodes as offsets from a panel's left end, in half-widths
_GK21_K = _mirror(np.array(quadpack.GK21_WK))
_GK21_K_MINUS_G = _GK21_K - _mirror(_G10_HALF)
_GK21_ROUNDOFF = 50.0 * np.finfo(float).eps  # QUADPACK's round-off floor per unit |f|

# Equal panels that quad_semiinfinite_nodes starts from, their left ends in
# panel widths (times upper / panels, np.linspace(0, upper, panels + 1)[:-1]
# to the bit), and its panel limit (the subinterval limit quad_interval
# passes to quad).
_FIRST_PANELS = 4
_FIRST_LEFT = np.arange(_FIRST_PANELS)
_MAX_PANELS = 400


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


def green_integrand(
    x: float, t: float, tau: float, weight: Callable[[float], float]
) -> Callable[[float], float]:
    """The quadrature integrand xi -> G(x, t, xi, tau) * weight(xi), xi >= 0.

    Bit-identical to ``green_eval(x, t, xi, tau) * weight(xi)``: the same
    expressions, with 4 (t - tau) and 2 sqrt(pi (t - tau)) computed once
    instead of at every point.  Raises as ``green_eval`` does for tau >= t
    or x < 0.
    """
    if tau >= t:
        raise ValueError("green_eval requires tau < t")
    if x < 0.0:
        raise ValueError("green_eval requires x, xi >= 0")
    x, dt = float(x), float(t - tau)  # numpy scalars in, the same values as Python floats
    four_dt = 4.0 * dt
    norm = 2.0 * math.sqrt(math.pi * dt)
    mirror = -x

    def integrand(xi: float) -> float:
        return (
            math.exp(-((x - xi) ** 2) / four_dt) / norm
            - math.exp(-((mirror - xi) ** 2) / four_dt) / norm
        ) * weight(xi)

    return integrand


class QuadratureError(RuntimeError):
    """Requested tolerance not reached; carries the achieved error estimate."""

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


def _within_bound(estimate, value, tol):
    """The one estimate bound of both engines; elementwise, false for a nan."""
    return estimate <= 50.0 * tol * (1.0 + abs(value))


def quad_interval(
    integrand: Callable[[float], float], a: float, b: float, tol: float, points=None
) -> float:
    """int_a^b integrand by QUADPACK's adaptive Gauss-Kronrod rule.

    :func:`quadpack.quad`, which returns ``scipy.integrate.quad``'s value and
    estimate to the bit: absolute-plus-relative tolerance ``tol``, at most
    400 subintervals, breakpoints ``points`` inside (a, b).  Raises
    :class:`QuadratureError` when the error estimate misses the bound
    50 tol (1 + |value|).
    """
    value, estimate, _, _ = quadpack.quad(integrand, a, b, tol, tol, _MAX_PANELS, points)
    if not _within_bound(estimate, value, tol):
        message = f"quadrature over [{a:.6g}, {b:.6g}] reached {estimate:.3e}, wanted {tol:.3e}"
        raise QuadratureError(message, value, estimate)
    return value


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

    with W = 8, which keeps the discarded tail below 1e-16 of the mass, and
    taken by :func:`quad_interval` with a breakpoint at an inner center.
    """
    if tvar <= 0.0:
        raise ValueError("quad_semiinfinite requires tvar > 0")
    upper = max(center, 0.0) + 2.0 * max(growth, 0.0) * tvar
    upper += 2.0 * _TRUNCATION_W * math.sqrt(tvar)
    points = [center] if 0.0 < center < upper else None
    return quad_interval(integrand, 0.0, upper, tol, points=points)


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
    2*growth*t + 2*W*sqrt(t) is W + growth*sqrt(t) in s).

    Adaptive GK21 with the QUADPACK error estimate, batched over panels and
    nodes: [0, S] starts as a few equal panels, and each refinement round
    makes one vectorised ``integrand`` call on the 21 Kronrod points of every
    open panel (an xi array of shape (panels * 21, nodes)).  A panel is
    bisected while its error exceeds its length share of some node's target
    tol * max(1, |value|), the target of the scalar routine, up to 400
    panels.  Each node keeps the scalar routine's bound, estimate <=
    50 tol (1 + |value|), or :class:`QuadratureError` is raised.
    """
    t = np.asarray(tvars, dtype=float)
    if not t.min() > 0.0:  # also false for a nan
        raise ValueError("quad_semiinfinite_nodes requires every tvar > 0")
    root = 2.0 * np.sqrt(t.ravel())  # d xi / d s at each node
    upper = _TRUNCATION_W + max(growth, 0.0) * math.sqrt(float(t.max()))

    left = _FIRST_LEFT * (upper / _FIRST_PANELS)  # open panels [left, left + 2 half]
    half = np.full(_FIRST_PANELS, 0.5 * upper / _FIRST_PANELS)
    value = np.zeros(root.size)  # sums over the closed panels
    estimate = np.zeros(root.size)
    panels = _FIRST_PANELS
    while True:
        s = (left[:, None] + half[:, None] * _GK21_X_PLUS_1).ravel()
        f = integrand(s[:, None] * root) * np.exp(-s * s)[:, None]
        if f.shape != (len(s), root.size):  # an integrand constant in xi
            f = np.broadcast_to(f, (len(s), root.size))
        f = f.reshape(len(left), 21, root.size)
        part, error = _gk21(f, half[:, None] * root)
        total = part.sum(axis=0)
        target = tol * np.maximum(1.0, np.abs(value + total))
        excess = (error / (half[:, None] * (2.0 / upper) * target)).max(axis=1)
        split = excess > 1.0
        room = _MAX_PANELS - panels
        if np.count_nonzero(split) > room:  # bisect only the worst panels that fit
            split[np.argsort(excess)[: len(left) - room]] = False
        if not split.any():  # every panel closes
            value += total
            estimate += error.sum(axis=0)
            break
        keep = ~split
        value += part[keep].sum(axis=0)
        estimate += error[keep].sum(axis=0)
        panels += np.count_nonzero(split)
        left, half = left[split], half[split]
        left = np.concatenate([left, left + half])  # the two halves of each split panel
        half = 0.5 * np.concatenate([half, half])

    met = _within_bound(estimate, value, tol)
    if not met.all():
        first = int(np.argmin(met))  # first node that misses its bound
        raise QuadratureError(
            f"semi-infinite node quadrature reached {estimate[first]:.3e} "
            f"at t = {t.ravel()[first]:.6g}, wanted {tol:.3e}",
            value,
            estimate,
        )
    return value.reshape(t.shape)


def _gk21(f: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK21 integral and QUADPACK error estimate of each panel at each node.

    ``f`` holds the integrand at the 21 Kronrod points, shape (panels, 21,
    nodes); ``scale`` is the half-width of each panel times any node factor,
    shape (panels, nodes).
    """
    kronrod = _GK21_K @ f
    gap = np.abs(_GK21_K_MINUS_G @ f)
    work = f - 0.5 * kronrod[:, None, :]  # one buffer of f's size
    spread = _GK21_K @ np.abs(work, out=work)  # of |f - mean|
    roundoff = _GK21_ROUNDOFF * (_GK21_K @ np.abs(f, out=work))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(spread > 0.0, spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5), gap)
    return scale * kronrod, scale * np.maximum(gap, roundoff)


def baseline_u0(h: InitialProfile, x: float, t: float, tol: float = 1e-11) -> float:
    """Source-free baseline u0(x,t) = int_0^inf G(x,t,xi,0) h(xi) dxi.

    At t = 0 the integral degenerates to h(x).  For t > 0 the quadrature is
    memoised per value of (h, x, t, tol) (:func:`_green_quad_of`): it depends
    on no other part of a spec, so a profile that recurs at the same point,
    in another case or at another nu, costs one lookup.
    """
    if t < 0.0:
        raise ValueError("baseline_u0 requires t >= 0")
    if t == 0.0:
        return h(x)
    return _green_quad_of(h, x, t, 0.0, tol)


def _green_quad(
    x: float, t: float, tau: float, weight: Callable[[float], float], growth: float, tol: float
) -> float:
    """int_0^inf G(x, t, xi, tau) weight(xi) dxi, for a weight growing at
    most like exp(growth xi)."""
    return quad_semiinfinite(
        green_integrand(x, t, tau, weight), center=x, tvar=t - tau, growth=growth, tol=tol
    )


# The Green quadrature of a profile's or a shape's own function, memoised per
# value of (data, x, t, tau, tol) as ``volterra._kernel_table`` is: a hit
# returns the float the same call returned, and a raising call stores
# nothing.  ``typed`` keeps a float and a numpy scalar apart (the checks of
# ``bench`` pass floats only; a library caller may pass either), and callers
# pass every argument by position, so one value has one key.  One catalog
# pass asks for 58 distinct keys; an LRU cache smaller than a cyclic working
# set never hits, hence 256.  The slow oracle's inner per-tau quadrature is
# not memoised: its hundreds of tau per call do not recur and would evict
# the keys that do.
@functools.lru_cache(maxsize=256, typed=True)
def _green_quad_of(
    data: InitialProfile | SourceShape, x: float, t: float, tau: float, tol: float
) -> float:
    """int_0^inf G(x, t, xi, tau) f(xi) dxi for the function f of ``data``."""
    return _green_quad(x, t, tau, data.evaluators()[0], data.growth_rate, tol)


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


def verify_identity_phi(
    shape: SourceShape, x: float, t: float, tau: float, tol: float = 1e-12
) -> tuple[float, float, float]:
    """Compare quadrature of G*Phi against its closed form.

    Returns (lhs, rhs, |lhs - rhs|) with lhs the semi-infinite quadrature and
    rhs = exp(rho (t-tau)) * Phi(x), the Green weight of the shape's
    ``semigroup`` (ValueError for a shape without one).  The quadrature is
    memoised per value of (shape, x, t, tau, tol), as the baseline's is
    (:func:`_green_quad_of`); rhs is computed at every call.
    """
    if not (0.0 <= tau < t):
        raise ValueError("verify_identity_phi requires 0 <= tau < t")
    _, rho = shape.semigroup
    lhs = _green_quad_of(shape, x, t, tau, tol)
    rhs = math.exp(rho * (t - tau)) * shape.evaluators()[0](x)
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

    The fast path replaces the inner integral by its closed Green weight and
    takes the time factor the integral-representation field uses
    (``V.weighted_flux_integral``); the slow oracle path (``slow=True``)
    performs the raw double quadrature.
    """
    nu = spec.flux.nu
    if t == 0.0:
        return spec.h(x)
    u0 = baseline_u0(spec.h, x, t, tol=tol)
    if nu == 0.0:
        return u0

    if not slow:
        time_int = V.weighted_flux_integral(spec.phi.semigroup[1], t)
        return u0 - nu * spec.phi(x) * time_int

    phi = spec.phi.evaluators()[0]

    def inner(tau: float) -> float:
        if tau >= t:
            return phi(x) * float(V(t))
        return _green_quad(x, t, tau, phi, spec.phi.growth_rate, tol) * float(V(tau))

    return u0 - nu * quad_interval(inner, 0.0, t, tol * 10)
