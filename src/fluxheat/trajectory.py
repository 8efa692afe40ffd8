"""Boundary-flux trajectories V(t) = u_x(0,t).

Closed-form trajectories carry exactly the polynomial-plus-exponential
structure of the explicit flux formulas, so time integrals weighted by
exponentials evaluate exactly through :func:`fluxheat.specfun.exp_moment`.
Sampled trajectories come out of the numeric solvers.  Each kind binds its
own time factor t -> factor * W(t) with the Green weight,
``V.time_factor(rho, factor)``; ``V.weighted_flux_integral(rho, t, factor)``
is one value of it.  A closed-form flux is a pure function of its values:
its binding is memoised per value of (flux, rho, factor) and holds its own
memo keyed by t alone (``_time_factor_of``), and a scalar V(t) is memoised
per value of (flux, t) (``_scalar_value_of``), so a warm catalog pass
evaluates no W and no scalar V.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import exp_moment, exp_moment_parts, time_factor

__all__ = ["ClosedFormTrajectory", "SampledTrajectory"]

_SCALARS = (float, int, np.floating, np.integer)

# Below this exponent np.exp cannot overflow, so it needs no errstate.
_EXP_SAFE = 709.0


def _np_exp(x: float) -> float:
    """np.exp at a Python float, as a Python float; inf past the overflow threshold."""
    if x <= _EXP_SAFE:
        return float(np.exp(x))
    with np.errstate(over="ignore"):
        return float(np.exp(x))


@dataclass(frozen=True)
class ClosedFormTrajectory:
    """V(t) = poly(t) + sum_i amp_i * exp(rate_i * t).

    ``poly`` holds ascending coefficients.  ``initial_value`` is the t -> 0+
    limit, which is eta for m = 1 profiles and 0 for m > 1.
    """

    poly: tuple[float, ...] = (0.0,)
    exps: tuple[tuple[float, float], ...] = ()   # (amplitude, rate) pairs

    def __post_init__(self):
        # equality stays by value; the hash of the nested tuples is taken once
        object.__setattr__(self, "_hash", hash((self.poly, self.exps)))

    def __hash__(self):
        return self._hash

    def __call__(self, t):
        """V at a scalar t (a float) or elementwise on an array.

        A Python or numpy scalar takes a Python-float path
        (:func:`_scalar_value_of`, memoised per value of the flux and
        ``float(t)``; a NaN t is computed and not stored), bit-identical to
        the 0-d array evaluation.  An exponent above the overflow threshold
        gives inf with no warning, on either path.
        """
        if isinstance(t, _SCALARS):
            t = float(t)
            if t != t:  # NaN: its key would never hit, so it is not stored
                return _scalar_value_of.__wrapped__(self, t, 1.0)
            return _scalar_value_of(self, t, math.copysign(1.0, t))
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for j in range(len(self.poly) - 1, -1, -1):
            out = out * t + self.poly[j]
        with np.errstate(over="ignore"):
            for amp, rate in self.exps:
                out = out + amp * np.exp(rate * t)
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def initial_value(self) -> float:
        return self.poly[0] + sum(amp for amp, _ in self.exps)

    def weighted_integral(self, rate: float, t: float) -> float:
        """Exact int_0^t V(tau) exp(rate*tau) dtau."""
        if t == 0.0:
            return 0.0
        total = 0.0
        for j, coef in enumerate(self.poly):
            if coef != 0.0:
                total += coef * exp_moment(j, rate, t)
        for amp, r in self.exps:
            total += amp * exp_moment(0, rate + r, t)
        return total

    def time_factor(self, rho: float, factor: float = 1.0):
        """t -> factor * W(t), W(t) = int_0^t exp(rho (t - tau)) V(tau) dtau, exact.

        nu Phi(x) W(t) is the source part of u (``factor`` = 1), kappa W(t) the
        memory term of the flux equation (``factor`` = kappa).  Where -rho t >
        30 the plain (factor * exp(rho t)) * int_0^t exp(-rho tau) V dtau would
        overflow, so the sum is pre-scaled.  ``OverflowError`` names the time
        factor and t where exp(rho t), or in the pre-scaled sum the flux's own
        exp(r t), leaves the double range.  A NaN t gives factor * nan.  The
        binding is memoised per value of the flux, rho and factor, and
        memoises its values per t (:func:`_time_factor_of`), so a caller that
        evaluates many points binds it once.
        """
        return _time_factor_of(self, rho, factor, math.copysign(1.0, factor))

    def weighted_flux_integral(self, rho: float, t: float, factor: float = 1.0) -> float:
        """factor * W(t): one value of :meth:`time_factor`."""
        return self.time_factor(rho, factor)(t)


# ClosedFormTrajectory.__call__ at a scalar, memoised per value of (flux,
# float(t)), the idiom of ``specfun._exp_moment_of``.  The scalar path always
# returns a float, so the key needs no type.  Of equal floats only 0.0 and
# -0.0 differ in bits, and a zero t's sign reaches V through Horner's
# 0.0 * t + c where c is a signed zero, so ``t_sign`` keys it apart.  NaN
# equals no NaN, so a NaN key never hits and would only push out the values
# that do; ``__call__`` computes a NaN t past the memo.  A
# warm catalog pass asks for 490 distinct values in 522 calls, and only 30
# calls repeat a value within their own op, so the memo serves repeated
# specs; an LRU cache
# smaller than a cyclic working set never hits, hence 1024.
@functools.lru_cache(maxsize=1024)
def _scalar_value_of(traj: ClosedFormTrajectory, t: float, t_sign: float) -> float:
    """V(t) in Python floats: Horner on the polynomial, then ``np.exp`` for
    each exponential, the function the array path uses, so the result is
    bit-identical to the 0-d array evaluation.  An exponent above the
    overflow threshold runs under ``errstate(over="ignore")`` and gives inf
    with no warning, as the array path does."""
    out = 0.0
    for j in range(len(traj.poly) - 1, -1, -1):
        out = out * t + traj.poly[j]
    for amp, rate in traj.exps:
        out = out + amp * _np_exp(rate * t)
    return out


# ClosedFormTrajectory.time_factor memoised per value of (poly, exps, rho,
# factor): a bound t -> factor * W(t) with its own memo keyed by t alone, so
# a repeated value costs one lookup of t, not a hash of the flux and four
# more arguments.  The idiom is ``specfun._exp_moment_of``'s: a hit
# returns the float the call computed, and a call that raises OverflowError
# stores nothing.  ``typed`` keeps a float and a numpy scalar apart, so a hit
# has the type the call would return; the checks of ``bench`` pass floats
# only, but a library caller may pass either.  Of equal floats only 0.0 and
# -0.0 differ in bits; a zero factor's sign reaches factor * W, so
# ``factor_sign`` keys it apart.  No other zero's sign reaches W: t == 0
# returns 0.0, rho = +-0 gives exp(rho t) = 1 and exp_moment's a == 0 branch,
# and a zero coefficient is skipped or adds to a sum that starts at +0.  A
# miss looks up ``weighted_integral`` on the trajectory by attribute, so a
# patch of the method on the class (perfbench's tracer) sees every
# evaluation.  A NaN t is answered factor * nan before the memo of t: it
# would never hit (NaN equals no NaN), and the series of ``exp_moment`` do
# not converge on it.  A warm catalog pass binds 27 (flux, rho, factor) and
# asks for 948 distinct values in 2184 calls (a cold one, with its flux
# checks, 984 in 2229), at most 74 on one binding, and an LRU cache smaller
# than a cyclic working set never hits, hence 64 bindings of at most 256
# values each.
@functools.lru_cache(maxsize=64, typed=True)
def _time_factor_of(traj: ClosedFormTrajectory, rho: float, factor: float, factor_sign: float):
    """t -> factor * int_0^t exp(rho (t - tau)) V(tau) dtau for the closed-form V
    ``traj``; the binding carries its memo's ``cache_info`` and
    ``cache_clear``, and ``__wrapped__``, the unmemoised value."""

    @functools.lru_cache(maxsize=256, typed=True)
    def time_factor_at(t: float) -> float:
        if t == 0.0:
            return 0.0
        if -rho * t > 30.0:
            b = -rho
            total = 0.0
            for j, coef in enumerate(traj.poly):
                if coef != 0.0:
                    q, const = exp_moment_parts(j, b)
                    val = 0.0
                    for k in range(len(q) - 1, -1, -1):
                        val = val * t + q[k]
                    total += coef * (val + const * math.exp(-b * t))
            for amp, r in traj.exps:
                s = b + r
                if s == 0.0:
                    total += amp * t * math.exp(-b * t)
                else:
                    total += amp * (time_factor(r, t) - math.exp(-b * t)) / s
            return factor * total
        return factor * time_factor(rho, t) * traj.weighted_integral(-rho, t)

    def W(t):
        if t != t:
            return factor * math.nan
        return time_factor_at(t)

    W.cache_info, W.cache_clear = time_factor_at.cache_info, time_factor_at.cache_clear
    W.__wrapped__ = time_factor_at.__wrapped__
    return W


@dataclass(frozen=True)
class SampledTrajectory:
    """Flux samples V_i at uniform times t_i, interpolated linearly."""

    t: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.t) != len(self.values):
            raise ValueError("sample times and values must have equal length")
        if len(self.t) < 2:
            raise ValueError("a sampled trajectory needs at least two samples")

    def __call__(self, t):
        scalar = np.isscalar(t)
        out = np.interp(np.asarray(t, dtype=float), self.t, self.values)
        return float(out) if scalar else out

    @property
    def initial_value(self) -> float:
        return float(self.values[0])

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])

    def _trapezoid_to(self, t: float, weight) -> float:
        """Trapezoidal int_0^t weight(tau) V(tau) dtau over the sample times up
        to t, with t itself appended and V interpolated there; ``weight`` maps
        those times to the weights at them."""
        mask = self.t <= t + 1e-15
        ts = self.t[mask]
        vs = self.values[mask]
        if ts[-1] < t - 1e-12:
            ts = np.append(ts, t)
            vs = np.append(vs, self(t))
        return float(np.trapezoid(vs * weight(ts), ts))

    def time_factor(self, rho: float, factor: float = 1.0):
        """t -> :meth:`weighted_flux_integral` (rho, t, factor), unmemoised."""
        return functools.partial(self.weighted_flux_integral, rho, factor=factor)

    def weighted_flux_integral(self, rho: float, t: float, factor: float = 1.0) -> float:
        """factor * the trapezoid of exp(rho (t - tau)) V(tau) over the samples
        up to t, for either sign of rho."""
        time_factor(rho, t)  # the largest weight: OverflowError past the double range
        return factor * self._trapezoid_to(t, lambda ts: np.exp(rho * (t - ts)))
