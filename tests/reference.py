"""High-precision reference for the closed-form boundary flux (mpmath).

For the three integral-representation shapes under the linear law F = nu*V
and an odd monomial profile eta*x^m, the flux is

    V(t) = c t^p - nu kappa c E_p(b, t),    b = rho - nu kappa,

with p = (m-1)/2, c = eta m!/p!, and the phi-function form of the
exponential moment (Hochbruck & Ostermann, Acta Numerica 2010)

    E_p(b, t) = int_0^t exp(b (t-tau)) tau^p dtau = t^{p+1} p! phi_{p+1}(b t),
    phi_k(z) = sum_{j >= 0} z^j / (j + k)!.

(kappa, rho) and b are computed exactly from the spec's double inputs, so
the reference is the flux of the spec as given, resonant or not.  The series
alternates for b t < 0 and loses about 0.43 |b t| digits there; at rho = 0
and m = 1, eta + b eta E_0 cancels down to eta exp(b t), which loses as many
again.  The whole expression is therefore evaluated at 80 + 0.9 |b t| digits.
"""

from __future__ import annotations

import math

import mpmath

from fluxheat.problem import ShapeKind

__all__ = ["flux_reference", "phi_series"]


def phi_series(k: int, z):
    """phi_k(z) = sum_j z^j / (j + k)! at the working precision."""
    term = mpmath.mpf(1) / math.factorial(k)
    total = term
    j = 0
    tiny = mpmath.eps
    while True:
        j += 1
        term = term * z / (j + k)
        total += term
        # past the peak (j + k > |z|) the terms fall geometrically
        if j + k > abs(z) and abs(term) <= tiny * abs(total):
            return total


def _semigroup(phi):
    """(kappa, rho) from the shape's inputs, exact at the working precision."""
    lam, mu = mpmath.mpf(phi.lam), mpmath.mpf(phi.mu)
    if phi.kind is ShapeKind.LINEAR_X:
        return lam, mpmath.mpf(0)
    if phi.kind is ShapeKind.NEG_SINH:
        return -lam * mu, lam * lam
    if phi.kind is ShapeKind.NEG_SIN:
        return -lam * mu, -lam * lam
    raise ValueError(f"no reference flux for shape {phi.kind}")


def flux_reference(spec, t: float):
    """V(t) of a linear-law, odd-monomial integral-representation spec, as an mpf."""
    m = int(spec.h.m)
    p = (m - 1) // 2
    with mpmath.workdps(80):
        kappa, rho = _semigroup(spec.phi)
        bt = abs((rho - mpmath.mpf(spec.flux.nu) * kappa) * t)
    with mpmath.workdps(80 + int(0.9 * bt) + 1):
        nu, tm = mpmath.mpf(spec.flux.nu), mpmath.mpf(t)
        kappa, rho = _semigroup(spec.phi)
        b = rho - nu * kappa
        c = mpmath.mpf(spec.h.eta) * (math.factorial(m) // math.factorial(p))
        moment = tm ** (p + 1) * math.factorial(p) * phi_series(p + 1, b * tm)
        return +(c * tm ** p - nu * kappa * c * moment)
