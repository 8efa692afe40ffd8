"""The Volterra layer governing the boundary flux.

The flux V(t) = u_x(0,t) of the linear-law problem satisfies the second-kind
Volterra equation

    V(t) = V0(t) - nu * int_0^t R(t - tau) V(tau) dtau,

with the memory kernel R and forcing V0 determined by the source shape and
the initial profile.  The analytic kernel of every built-in shape is
R(t) = kappa * exp(rho * t) with (kappa, rho) = ``SourceShape.semigroup``.
This module provides those kernels and their quadrature twins, a
product-trapezoidal solver, the resolvent form (its convolution with the
polynomial V0' taken by nested prefix sums, O(p n) and accurate node by
node), and residual evaluation of the equation itself (the primary guard
against sign errors in the closed forms).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import green
from .problem import (
    InitialProfile,
    ProfileKind,
    SourceShape,
    monomial_forcing_constant,
)
from .specfun import exp_moment
from .trajectory import SampledTrajectory

__all__ = [
    "Kernel",
    "Forcing",
    "kernel_for",
    "forcing_for",
    "kernel_values",
    "kernel_eval",
    "forcing_values",
    "forcing_eval",
    "solve_volterra",
    "solve_resolvent",
    "volterra_residual",
]


@dataclass(frozen=True)
class Kernel:
    """Memory kernel R(t) = kappa * exp(rho * t), (kappa, rho) = ``shape.semigroup``;
    a ``quadrature`` kernel integrates the defining formula instead."""

    shape: SourceShape
    quadrature: bool = False

    @property
    def exp_parts(self) -> tuple[float, float]:
        """(kappa, rho) with R(t) = kappa * exp(rho * t), analytic kernels only."""
        if self.quadrature:
            raise ValueError("quadrature kernels have no exponential form")
        return self.shape.semigroup


def kernel_for(shape: SourceShape, quadrature: bool = False) -> Kernel:
    """The kernel of a built-in source shape (ValueError for an analytic one
    of a shape that has no semigroup form)."""
    if not quadrature:
        shape.semigroup  # raises for a shape without one
    return Kernel(shape, quadrature)


# The quadrature kernel takes its t -> 0+ limit R(0+) at this offset.
_LIMIT_T = 1e-12


def kernel_values(k: Kernel, t):
    """R at every t >= 0 of an array (or at one t); t = 0 gives the t -> 0+ limit.

    The quadrature kind integrates the defining formula

        R(t) = (2 sqrt(pi) t^{3/2})^{-1} int_0^inf xi e^{-xi^2/(4t)} Phi(xi) dxi

    at all the nodes in one vector quadrature.
    """
    if k.quadrature:
        shape = k.shape
        t = np.where(t > 0.0, t, _LIMIT_T)
        integral = green.quad_semiinfinite_nodes(
            lambda xi: xi * shape(xi), t, growth=shape.growth_rate, tol=1e-12
        )
        return integral / (2.0 * math.sqrt(math.pi) * t ** 1.5)
    kappa, rho = k.exp_parts
    return kappa * np.exp(rho * t)


def kernel_eval(k: Kernel, t: float) -> float:
    """R(t) for t > 0."""
    if t <= 0.0:
        raise ValueError("kernel_eval requires t > 0")
    return float(kernel_values(k, t))


@dataclass(frozen=True)
class Forcing:
    """Forcing V0(t) = c * t^exponent of the flux equation, (c, exponent) read
    off a monomial profile; a ``quadrature`` forcing integrates the defining
    Gaussian integral of h' instead."""

    profile: InitialProfile
    quadrature: bool = False

    @functools.cached_property
    def c(self) -> float:
        """The constant of V0 = c t^p, computed on the first read only; the
        frozen dataclass refuses to set or delete it."""
        return monomial_forcing_constant(self.profile.eta, self.profile.m)

    @property
    def exponent(self) -> float:
        """(m-1)/2."""
        return (self.profile.m - 1.0) / 2.0

    @property
    def initial_value(self) -> float:
        """Limit of V0 (and of V) as t -> 0+."""
        if self.quadrature:
            return self.profile.derivative(1e-300)
        return self.c if self.exponent == 0.0 else 0.0


def forcing_for(h: InitialProfile, quadrature: bool = False) -> Forcing:
    """The forcing of an initial profile; a quadrature one unless h is a monomial."""
    return Forcing(h, quadrature or h.kind is not ProfileKind.MONOMIAL)


# V0 = 1: eta = m = 1 gives c = 1.0 exactly.
_UNIT_FORCING = forcing_for(InitialProfile(ProfileKind.MONOMIAL))


def forcing_values(f: Forcing, t):
    """V0 at every t > 0 of an array (or at one t).

    The quadrature kind integrates the defining Gaussian integral

        V0(t) = (pi t)^{-1/2} int_0^inf e^{-xi^2/(4t)} h'(xi) dxi

    at all the nodes in one vector quadrature.
    """
    if not f.quadrature:
        return f.c * t ** f.exponent
    h = f.profile
    integral = green.quad_semiinfinite_nodes(h.derivative, t, growth=h.growth_rate, tol=1e-12)
    return integral / np.sqrt(math.pi * t)


def forcing_eval(f: Forcing, t: float) -> float:
    """V0(t) for t > 0."""
    if t <= 0.0:
        raise ValueError("forcing_eval requires t > 0")
    return float(forcing_values(f, t))


def solve_volterra(
    k: Kernel, f: Forcing, nu: float, t_end: float, n_steps: int
) -> SampledTrajectory:
    """Product-trapezoidal solution of the flux equation on a uniform grid.

    Second-order accurate in the step size for smooth forcing (odd-m
    profiles).  The first node takes the known t -> 0+ limit of the flux
    rather than evaluating V0 at 0.

    Each step integrates R(t_i - tau) exactly against the hat basis of the
    grid for the analytic kernels and by the trapezoid rule for the
    quadrature kernel.  Cost: O(n) for the analytic kernels, whose
    separable form kappa * exp(rho * t) turns the history sum into a
    one-term linear recurrence, scanned as array code in blocks of 64 steps;
    for the quadrature kernel, one vector quadrature for R on the n + 1 grid
    offsets (the first column of a Toeplitz system) plus one lower-triangular
    Toeplitz solve by blocked forward substitution in numpy, O(n^2) flops.  The
    forcing is tabulated on all n nodes before the steps: one array
    expression for the power law, one vector quadrature for the quadrature
    kind.  A vector quadrature makes one vectorised integrand call per GK21
    refinement round (see ``green.quad_semiinfinite_nodes``).

    Neither quadrature table depends on nu, so each is memoised per value of
    (kernel or forcing, t_end, n_steps) in a bounded cache: a repeated
    quadrature table costs one hash and one lookup instead of
    O(n * panels * 21) integrand evaluations, whatever nu or the other half
    of the equation.  A repeated quadrature-kernel solve is then the O(n^2)
    substitution alone.

    Raises ``ValueError`` unless nu and t_end are finite and positive and
    n_steps is an integer >= 2.
    """
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise ValueError(f"solve_volterra requires an integer n_steps, not {n_steps!r}") from None
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"solve_volterra requires finite nu > 0, not {nu!r}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"solve_volterra requires finite t_end > 0, not {t_end!r}")
    if n_steps < 2:
        raise ValueError("solve_volterra requires n_steps >= 2")
    t = _grid(t_end, n_steps)
    dt = t_end / n_steps
    if f.quadrature:
        forcing = _forcing_table(f, t_end, n_steps)
    else:
        forcing = forcing_values(f, t[1:])
    if k.quadrature:
        v = _solve_tabulated(_kernel_table(k, t_end, n_steps), f.initial_value, forcing, nu, dt)
    else:
        v = _solve_separable(k, f.initial_value, forcing, nu, t, dt)
    return SampledTrajectory(t=t, values=v)


def _grid(t_end: float, n_steps: int) -> np.ndarray:
    """The n + 1 nodes t_i = i * t_end / n, the last exactly t_end: a fresh array."""
    t = np.arange(n_steps + 1) * (t_end / n_steps)  # np.linspace(0, t_end, n_steps + 1) to the bit
    t[-1] = t_end
    return t


# The quadrature tables of a grid, memoised per value of the kernel or
# forcing and the grid, the idiom of ``specfun._exp_moment_of``: at most 32
# tables of 8(n + 1) bytes each per cache.  Each table is read-only, since
# every later solve on that grid shares it.
@functools.lru_cache(maxsize=32, typed=True)
def _kernel_table(k: Kernel, t_end: float, n_steps: int) -> np.ndarray:
    """R on the n + 1 grid offsets t_0 ... t_n of a quadrature kernel."""
    r = kernel_values(k, _grid(t_end, n_steps))
    r.setflags(write=False)
    return r


@functools.lru_cache(maxsize=32, typed=True)
def _forcing_table(f: Forcing, t_end: float, n_steps: int) -> np.ndarray:
    """V0 on the grid nodes t_1 ... t_n of a quadrature forcing."""
    forcing = forcing_values(f, _grid(t_end, n_steps)[1:])
    forcing.setflags(write=False)
    return forcing


# Steps per block of the recurrence scan of _solve_separable (and rows per
# block of the forward substitution of _solve_tabulated), the exponents
# 0 ... B of the scan's multiplier, and the lag |i - j| and lower-triangle
# mask j <= i of one block's Toeplitz matrix (a^{i-j} of the scan, the
# leading block of the substitution; sliced for a shorter block).
_SCAN_BLOCK = 64
_SCAN_STEPS = np.arange(_SCAN_BLOCK + 1)
_SCAN_LAG = np.abs(np.subtract.outer(_SCAN_STEPS[:-1], _SCAN_STEPS[:-1]))
_SCAN_LOWER = np.tri(_SCAN_BLOCK, dtype=bool)


def _solve_separable(
    k: Kernel, v0: float, forcing: np.ndarray, nu: float, t: np.ndarray, dt: float
) -> np.ndarray:
    """Steps for R = kappa * exp(rho * t): O(n) array work in all.

    With hat-basis moments m0 = int_0^dt e^{-rho u} du and
    m1 = int_0^dt (u/dt) e^{-rho u} du and g = e^{rho dt}, step i needs only
    A_i = sum_{0<j<i} e^{rho (t_i - t_j)} v_j, updated as
    A_{i+1} = g (A_i + v_i); the v_0 term e^{rho t_i} v_0 is kept apart so
    that no history sum is differenced.  As v_i is linear in A_i, the update
    is a first-order linear recurrence for A alone, computed by
    :func:`_linear_scan` in C-level blocks; v follows from A in one array
    expression.
    """
    kappa, rho = k.exp_parts
    if rho == 0.0:
        m0, m1, g = dt, 0.5 * dt, 1.0
    else:
        m0 = exp_moment(0, -rho, dt)
        m1 = exp_moment(1, -rho, dt) / dt
        g = math.exp(rho * dt)
    w_left = kappa * (m0 - m1)       # weight of e^{rho (t_i - t_j)} v_j, j < i
    w_right = kappa * g * m1         # weight of e^{rho (t_i - t_j)} v_j, 0 < j <= i
    denom = 1.0 + nu * w_right
    v = np.empty(len(t))
    v[0] = v0
    # v_i = (V0(t_i) - nu * w_left * e^{rho t_i} v_0 - nu * (w_left + w_right) * A_i) / denom
    if v0 == 0.0:  # every profile but m = 1: no v_0 term to subtract
        known = forcing / denom
    else:
        known = (forcing - nu * w_left * v0 * np.exp(rho * t[1:])) / denom
    damp = nu * (w_left + w_right) / denom
    # A_{i+1} = g (A_i + v_i) = a A_i + g known_i with a = g (1 - damp).  The
    # powers of a come from its logarithm: a rounded to a double would carry
    # its rounding error n-fold into a^n, which the per-step update does not
    if damp < 1.0:
        a_powers = np.exp(_SCAN_STEPS * (math.log(g) + math.log1p(-damp)))
    else:  # a <= 0: a grid too coarse to resolve the kernel
        a_powers = (g * (1.0 - damp)) ** _SCAN_STEPS
    hist = _linear_scan(a_powers, g * known)
    v[1] = known[0]
    v[2:] = known[1:] - damp * hist[:-1]
    return v


def _linear_scan(a_powers: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y_i = a y_{i-1} + b_i with y_{-1} = 0, in O(n) array work.

    ``a_powers`` holds a^0 ... a^B for the block length B.  Blocks of up to B
    steps are scanned at once by one matmul against the lower-triangular
    Toeplitz matrix of the powers a^{i-j}; the n / B block ends are then
    carried in a loop.  No power of a beyond a^B is formed, so a long
    horizon cannot overflow where the recurrence itself does not.  B is at
    most ``_SCAN_BLOCK``, whose lag table is built once.
    """
    n = len(b)
    block = min(len(a_powers) - 1, n)
    lag, lower = _SCAN_LAG[:block, :block], _SCAN_LOWER[:block, :block]
    powers = np.where(lower, a_powers[lag], 0.0)  # a^{i-j}, j <= i
    rows = -(-n // block)
    padded = np.zeros(rows * block)
    padded[:n] = b
    y = padded.reshape(rows, block) @ powers.T  # each block from a zero start
    carry = a_powers[1 : block + 1]  # a^{i+1}: how the value before a block reaches step i
    a_block = float(carry[-1])
    ends, last = [], 0.0  # the value at the end of each block but the last
    for end in y[:-1, -1].tolist():
        last = end + a_block * last
        ends.append(last)
    y[1:] += np.array(ends)[:, None] * carry
    return y.ravel()[:n]


def _solve_tabulated(
    r: np.ndarray, v0: float, forcing: np.ndarray, nu: float, dt: float
) -> np.ndarray:
    """Trapezoid steps for a kernel tabulated on the grid offsets t_k, R_k = r[k].

    Step i of the trapezoid rule reads

        (1 + nu dt R_0 / 2) v_i + nu dt sum_{0<j<i} R_{i-j} v_j
            = V0(t_i) - nu dt R_i v_0 / 2,

    so v_1 ... v_n solve one lower-triangular Toeplitz system, taken by
    :func:`_toeplitz_forward_substitution` from its first column: O(n^2)
    flops and no per-step loop.
    """
    column = nu * dt * r[:-1]
    column[0] = 1.0 + nu * 0.5 * dt * float(r[0])
    v = np.empty(len(r))
    v[0] = v0
    v[1:] = _toeplitz_forward_substitution(column, forcing - nu * 0.5 * dt * r[1:] * v0)
    return v


def _toeplitz_forward_substitution(column: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``T @ x = b``, T lower-triangular Toeplitz with first column ``column``.

    Blocked forward substitution in blocks of ``_SCAN_BLOCK`` rows.  Every
    diagonal block of T is its leading block, so each block of x is one small
    dense ``numpy.linalg.solve`` against that block, after its history
    sum_{j<start} T[i, j] x_j, one ``valid`` convolution of the column with
    the rows already solved, comes off its right side: O(n^2) flops in the
    convolutions, O(n B^2) in the block solves.
    """
    n = len(b)
    block = min(_SCAN_BLOCK, n)
    lead = np.where(_SCAN_LOWER[:block, :block], column[_SCAN_LAG[:block, :block]], 0.0)
    x = np.empty(n)
    for start in range(0, n, block):
        end = min(start + block, n)
        rhs = b[start:end]
        if start:
            rhs = rhs - np.convolve(column[1:end], x[:start], "valid")
        x[start:end] = np.linalg.solve(lead[: end - start, : end - start], rhs)
    return x


def solve_resolvent(
    k: Kernel, f: Forcing, nu: float, t_end: float, n_steps: int
) -> SampledTrajectory:
    """Resolvent-form solution: solve the kernel-only equation for r, then

        V(t) = V0(0) r(t) + int_0^t V0'(t - tau) r(tau) dtau.

    Requires a power-law forcing with integer exponent p, so that
    V0'(t) = c p t^q, q = p - 1, is a polynomial.  The convolution is the
    trapezoid rule at every node at once, its sum

        sum_{j<=i} (i - j)^q r_j = sum_{k<=q} a_{q,k} P_k[i]

    taken from q + 1 nested prefix sums P_0 = cumsum(r),
    P_k = cumsum(P_{k-1}) (see :func:`_prefix_sum_weights`): O(p n) on top
    of the ``solve_volterra`` cost for r (O(n) for an analytic kernel; one
    vector kernel quadrature plus one O(n^2) blocked forward substitution in
    numpy for the quadrature kernel).  Each node's sum keeps its error relative to its own
    terms, about 1e-15 even where V is many decades below its maximum, where
    a transform-based convolution errs relative to the whole vector.
    """
    if f.quadrature:
        raise ValueError("solve_resolvent requires a power-law forcing")
    p = f.exponent
    if p != int(p) or p < 0:
        raise ValueError(
            "solve_resolvent requires integer (m-1)/2; use solve_volterra instead"
        )
    r = solve_volterra(k, _UNIT_FORCING, nu, t_end, n_steps)
    t = r.t
    v = f.initial_value * r.values
    if p >= 1:
        dt, c = r.step, f.c
        q = int(p) - 1
        d = c * p * t ** (p - 1.0)
        # sum_j d(t_i - t_j) r_j dt, less half of the j = 0 and j = i end terms
        sums, conv = r.values, 0.0
        for weight in _prefix_sum_weights(q):
            sums = np.cumsum(sums)
            conv = conv + weight * sums
        conv *= c * p * dt ** q
        ends = d * r.values[0] + d[0] * r.values
        v[1:] += dt * (conv[1:] - 0.5 * ends[1:])
    return SampledTrajectory(t=t, values=v)


def _prefix_sum_weights(q: int) -> list[int]:
    """a_{q,k} = (-1)^(q-k) k! S(q+1, k+1), k = 0 ... q, with S the Stirling
    numbers of the second kind.

    With P_k[i] = sum_{j<=i} C(i-j+k, k) r_j, the k-fold prefix sum of r,
    these give sum_{j<=i} (i-j)^q r_j = sum_k a_{q,k} P_k[i]: x^q in the
    basis C(x+k, k).  For example P_0 for q = 0, P_1 - P_0 for q = 1 and
    2 P_2 - 3 P_1 + P_0 for q = 2.
    """
    row = [1]  # S(n+1, k+1) for k = 0 ... n, from n = 0 up to n = q
    for _ in range(q):  # S(n+2, k+1) = (k+1) S(n+1, k+1) + S(n+1, k)
        row = [(k + 1) * s + prev for k, (s, prev) in enumerate(zip(row + [0], [0] + row))]
    return [(-1) ** (q - k) * math.factorial(k) * s for k, s in enumerate(row)]


def _convolution(k: Kernel, traj):
    """t -> int_0^t R(t - tau) V(tau) dtau: the flux's time factor
    ``traj.time_factor(rho, kappa)`` for an analytic kernel, the trapezoid
    rule over a sampled flux up to t for a quadrature kernel."""
    if k.quadrature and isinstance(traj, SampledTrajectory):
        return lambda t: traj._trapezoid_to(t, lambda ts: kernel_values(k, t - ts))
    kappa, rho = k.exp_parts  # ValueError for a quadrature kernel of a closed-form flux
    return traj.time_factor(rho, kappa)


def volterra_residual(traj, k: Kernel, f: Forcing, nu: float, t_samples) -> float:
    """Max over the samples of |V(t) - V0(t) + nu int_0^t R(t-tau)V(tau)dtau|,
    nan if any sample's residual is nan (so that a tolerance check fails).

    The memory term is bound once per call (:func:`_convolution`).  Raises
    ``OverflowError`` naming the first sample t where a term leaves the
    double range.
    """
    memory = _convolution(k, traj)
    worst = 0.0
    for t in t_samples:
        try:
            res = float(traj(t)) - forcing_eval(f, t) + nu * memory(t)
        except OverflowError as exc:
            raise OverflowError(
                f"Volterra residual overflows ({exc}) at t = {float(t):.6g}"
            ) from exc
        if math.isnan(res):
            return math.nan
        worst = max(worst, abs(res))
    return worst
