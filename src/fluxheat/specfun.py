"""Special functions used throughout the library.

Gamma at integer and half-integer arguments (exact by recurrence), the error
function, and the exponential moment integral

    int_0^t tau^n exp(a*tau) dtau

in closed form.  Everything here is a pure function of its arguments, so
:func:`exp_moment` is memoised per value of (n, a, t) (``_exp_moment_of``):
a repeated call returns the float the first one did.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "gamma_half",
    "erf",
    "exp_moment",
    "exp_moment_parts",
    "time_factor",
]

SQRT_PI = math.sqrt(math.pi)

_MAX_SERIES_TERMS = 600


def _as_twice_integer(z) -> int:
    """Return 2*z as an int, or raise if z is not an integer or half-integer."""
    twice = 2.0 * float(z)
    if twice != round(twice):
        raise ValueError(f"gamma_half requires an integer or half-integer, got {z}")
    return int(round(twice))


def gamma_half(z) -> float:
    """Gamma(z) for positive integer or half-integer z, via recurrence.

    Built up from Gamma(1/2) = sqrt(pi) and Gamma(1) = 1 by repeated
    Gamma(w+1) = w*Gamma(w), with one float multiply per step, so the
    recurrence holds bitwise between neighbouring representable arguments.
    ``z`` is read as ``float(z)``.
    """
    twice = _as_twice_integer(z)
    if twice <= 0:
        raise ValueError(f"gamma_half requires z > 0, got {z}")
    value = 1.0 if twice % 2 == 0 else SQRT_PI
    k = 2 if twice % 2 == 0 else 1
    while k + 2 <= twice:
        value *= k / 2.0
        k += 2
    return value


def erf(x: float) -> float:
    """Error function with the conventional 2/sqrt(pi) normalization.

    Backed by the platform libm rational approximation; the wrapper pins the
    odd symmetry erf(-x) = -erf(x) exactly.  Validated against a power-series
    quadrature oracle in the test suite.
    """
    x = float(x)
    if x < 0.0:
        return -math.erf(-x)
    return math.erf(x)


def _exp_moment_series(n: int, z: float) -> float:
    """phi(n, z) = int_0^1 s^n e^{z s} ds = sum_j z^j / (j! (n+j+1)), z >= -1.

    Positive-term for z >= 0, so that loop stops on ``contrib <= total *
    1e-17`` with no ``abs``: the same test, the same arithmetic and the same
    stopping index as the signed loop, which keeps the immediately
    decreasing, alternating terms of -1 <= z < 0.
    """
    term = 1.0
    total = 1.0 / (n + 1)
    if z >= 0.0:
        for j in range(1, _MAX_SERIES_TERMS):
            term *= z / j
            contrib = term / (n + j + 1)
            total += contrib
            if contrib <= total * 1e-17:
                return total
    else:
        for j in range(1, _MAX_SERIES_TERMS):
            term *= z / j
            contrib = term / (n + j + 1)
            total += contrib
            if abs(contrib) <= abs(total) * 1e-17:
                return total
    raise ArithmeticError(f"exp_moment series did not converge for n={n}, z={z}")


def _exp_moment_tail_neg(n: int, w: float) -> float:
    # int_0^t tau^n e^{-b tau} dtau = (n!/b^{n+1}) e^{-w} sum_{k>n} w^k/k!,
    # with w = b*t > 0.  Returns the scaled tail sum S = sum_{k>n} w^k/k!,
    # again all positive terms.
    term = 1.0
    for k in range(1, n + 2):
        term *= w / k
    total = term
    for k in range(n + 2, n + 2 + _MAX_SERIES_TERMS):
        term *= w / k
        total += term
        if term <= total * 1e-17:
            return total
    raise ArithmeticError(f"exp_moment tail series did not converge for n={n}, w={w}")


def _partial_exp_sum(n: int, z: float) -> float:
    # E_n(z) = sum_{k=0}^{n} z^k / k!, by Horner.
    total = 1.0
    for k in range(n, 0, -1):
        total = 1.0 + total * z / k
    return total


def exp_moment(n: int, a: float, t: float) -> float:
    """Closed form of int_0^t tau^n exp(a*tau) dtau for integer n >= 0.

    For moderate |a|*t the value comes from positive-term series on either
    side of a = 0, which avoids the catastrophic cancellation the textbook
    alternating closed form suffers near zero.  For large |a|*t the closed
    form

        n!/(-a)^{n+1} * (1 - exp(a*t) * E_n(-a*t))

    takes over; it is stable there because the top term of E_n dominates.
    Exact t^{n+1}/(n+1) at a = 0.
    """
    if t <= 0.0:
        raise ValueError(f"exp_moment requires t > 0, got t={t}")
    if n < 0 or n != int(n):
        raise ValueError(f"exp_moment requires integer n >= 0, got n={n}")
    return _exp_moment_of(int(n), float(a), float(t))


# exp_moment memoised per value of (n, a, t).  The caller validates and
# normalises first, so a raising call stores nothing and an int, a numpy
# scalar or a 0-d array share one key.  The only equal floats with different
# bits are 0.0 and -0.0, which share a key and take the a == 0 branch, which
# does not read a's sign.  One catalog pass asks for about 1500 distinct
# keys, and an LRU cache smaller than a cyclic working set never hits, hence
# 4096.
@functools.lru_cache(maxsize=4096)
def _exp_moment_of(n: int, a: float, t: float) -> float:
    """int_0^t tau^n exp(a*tau) dtau for int n >= 0, float a and float t > 0."""
    if a == 0.0:
        return t ** (n + 1) / (n + 1)
    z = a * t
    crossover = max(30.0, 2.0 * n + 4.0)
    if abs(z) > crossover:
        if z >= 700.0:
            return math.inf  # the integral exceeds the overflow threshold
        bracket = 1.0 - math.exp(z) * _partial_exp_sum(n, -z)
        return math.factorial(n) / (-a) ** (n + 1) * bracket
    if z >= -1.0:
        # directly convergent for small |z| of either sign (first neglected
        # term already below the leading one), positive-term for z > 0
        return t ** (n + 1) * _exp_moment_series(n, z)
    b = -a
    w = b * t
    scale = math.factorial(n) / b ** (n + 1)
    return scale * math.exp(-w) * _exp_moment_tail_neg(n, w)


def exp_moment_parts(n: int, a: float) -> tuple[list[float], float]:
    """Coefficients of the antiderivative of tau^n exp(a*tau), a != 0.

    Returns (poly, const) with

        int_0^t tau^n exp(a*tau) dtau = exp(a*t) * poly(t) + const,

    poly given as ascending coefficients.  Built by the integration-by-parts
    recurrence poly_n = t^n/a - (n/a) poly_{n-1}; const = -poly(0).
    """
    if a == 0.0:
        raise ValueError("exp_moment_parts requires a != 0")
    if n < 0 or n != int(n):
        raise ValueError(f"exp_moment_parts requires integer n >= 0, got n={n}")
    poly = [1.0 / a]
    for k in range(1, int(n) + 1):
        nxt = [-(k / a) * c for c in poly]
        nxt.append(0.0)
        nxt[k] += 1.0 / a
        poly = nxt
    return poly, -poly[0]


def time_factor(rate: float, t: float) -> float:
    """exp(rate t); an OverflowError past the double range names the factor and t."""
    try:
        return math.exp(rate * t)
    except OverflowError:
        raise OverflowError(f"time factor exp({rate:.6g} t) overflows at t = {t:.6g}") from None
