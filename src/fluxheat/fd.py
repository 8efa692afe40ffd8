"""Finite-difference solver on a truncated domain.

theta-weighted time stepping of the diffusion term with the nonlocal source
evaluated at the lagged boundary variable.  The tridiagonal matrix is constant,
so it is factored once per run and each step costs one forward and back
substitution.  The companion problem's Neumann datum Phi(0) F comes from the
spec, lagged like the source.  The solver doubles as an independent oracle against the closed forms
(manufactured far-field data) and as the benchmark target the explicit
solutions are meant to test.

Domain truncation is the dominant modelling decision on the half-line; the
far-field policy is therefore explicit: ``manufactured`` Dirichlet data taken
from a reference solution (default for verification), or ``homogeneous``
zero data, refused for growing solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import (
    INTEGRAL_REP_SHAPES,
    FluxKind,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    Variant,
    flux_rate,
)

__all__ = [
    "Grid1D",
    "DiscreteField",
    "FDSolver",
    "solve",
    "convergence_order",
    "pde_residual",
    "richardson",
    "solution_grows",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time mesh on [0, L] x [0, t_end]."""

    L: float
    nx: int
    t_end: float
    nt: int
    theta: float = 0.5

    def __post_init__(self):
        if self.L <= 0 or self.t_end <= 0:
            raise ValueError("grid extents must be positive")
        if self.nx < 8:
            raise ValueError("need at least 8 spatial intervals")
        if self.nt < 1:
            raise ValueError("need at least 1 time step")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    @property
    def dx(self) -> float:
        return self.L / self.nx

    @property
    def dt(self) -> float:
        return self.t_end / self.nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 1)

    def stability_limit(self) -> float:
        """Largest stable dt for theta < 1/2; inf otherwise."""
        if self.theta >= 0.5:
            return math.inf
        return self.dx ** 2 / (2.0 * (1.0 - 2.0 * self.theta))


@dataclass
class DiscreteField:
    """Grid values at one time level plus the recorded boundary variable."""

    values: np.ndarray
    time: float
    boundary_var: float = 0.0


def solution_grows(spec: ProblemSpec) -> bool:
    """Whether the closed-form solution grows in time (heuristic, exact for
    the built-in families); used to refuse homogeneous far-field data."""
    phi, flux, h = spec.phi, spec.flux, spec.h
    if flux.kind is FluxKind.ZERO:
        return h.kind is ProfileKind.MONOMIAL and h.m > 1.0
    rate = flux_rate(spec)
    if phi.kind is ShapeKind.SCALED_SEPARABLE:
        return phi.sigma > 0.0 if rate is None else rate > 0.0
    if h.kind is ProfileKind.MONOMIAL and h.m > 1.0:
        return True
    if phi.kind not in INTEGRAL_REP_SHAPES:
        return False
    # the time factor int_0^t exp(rho (t-tau)) V dtau grows with the Green weight
    # (rho > 0) or with a flux that does not decay (rate = 0: polynomial resonance)
    _, rho = phi.semigroup
    return rho > 0.0 or (rate is not None and rate >= 0.0)


class FDSolver:
    """Owns the state of one run; one thread of control per instance."""

    def __init__(
        self,
        spec: ProblemSpec,
        grid: Grid1D,
        far_field: str = "manufactured",
        reference=None,
    ):
        if far_field not in ("manufactured", "homogeneous"):
            raise ValueError(f"unknown far-field policy {far_field!r}")
        if far_field == "manufactured" and reference is None:
            raise ValueError("manufactured far field needs a reference solution")
        if far_field == "homogeneous" and solution_grows(spec):
            raise ValueError(
                "homogeneous far-field data is invalid for a growing solution; "
                "use the manufactured policy"
            )
        if grid.dt > grid.stability_limit() * (1.0 + 1e-12):
            raise ValueError(
                f"stability bound violated: dt={grid.dt:.3e} exceeds "
                f"{grid.stability_limit():.3e}; refine the time grid"
            )
        self.spec = spec
        self.grid = grid
        self.far_field = far_field
        self.reference = reference
        self.tilde = spec.variant is Variant.P_TILDE
        self._phi0 = float(spec.phi(0.0))  # companion Neumann datum g = Phi(0) F

        x = grid.x.tolist()
        phi, h = spec.evaluators()
        self.phi_vals = np.array([phi(xi) for xi in x])
        self.state = DiscreteField(values=np.array([h(xi) for xi in x]), time=0.0)
        if not self.tilde:
            self.state.values[0] = 0.0
        self.state.boundary_var = self._boundary_var(self.state.values)
        self._factorize()
        self.history = [self.state.values.copy()]
        self.boundary_series = [self.state.boundary_var]

    # -- scheme assembly ---------------------------------------------------

    def _factorize(self):
        """Eliminate the constant tridiagonal matrix once: the Thomas
        multipliers ``cp`` and pivots, kept as Python floats for the
        per-step substitution."""
        g = self.grid
        r = g.dt / g.dx ** 2
        n = g.nx + 1
        th = g.theta
        # interior rows: (I - theta*dt*D) u^{n+1}
        lower = [0.0] + [-th * r] * (n - 2) + [0.0]
        diag = [1.0] + [1.0 + 2.0 * th * r] * (n - 2) + [1.0]
        upper = list(lower)
        if self.tilde:
            # ghost-node Neumann row at x = 0 (second order):
            # u_-1 = u_1 - 2*dx*g  =>  D u_0 = (2u_1 - 2u_0 - 2*dx*g)/dx^2
            diag[0] = 1.0 + 2.0 * th * r
            upper[0] = -2.0 * th * r
        # row 0 (Dirichlet, problem P) and row nx (far field) stay identity
        cp = [upper[0] / diag[0]]
        pivots = [diag[0]]
        for i in range(1, n):
            pivots.append(diag[i] - lower[i] * cp[i - 1])
            cp.append(upper[i] / pivots[i])
        self._lower, self._pivots, self._cp = lower, pivots, cp
        self._r = r

    def _substitute(self, rhs: np.ndarray) -> np.ndarray:
        """Forward and back substitution against the factored matrix."""
        lower, pivots, cp = self._lower, self._pivots, self._cp
        d = rhs.tolist()
        n = len(d)
        d[0] = d[0] / pivots[0]
        for i in range(1, n):
            d[i] = (d[i] - lower[i] * d[i - 1]) / pivots[i]
        for i in range(n - 2, -1, -1):
            d[i] = d[i] - cp[i] * d[i + 1]
        return np.array(d)

    def _boundary_var(self, u: np.ndarray) -> float:
        u0, u1, u2 = u[:3].tolist()
        if self.tilde:
            return u0
        return (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * self.grid.dx)

    def _far_value(self, t: float) -> float:
        if self.far_field == "homogeneous":
            return 0.0
        return float(self.reference.u(self.grid.L, t))

    # -- time stepping -----------------------------------------------------

    def step(self) -> DiscreteField:
        """Advance one theta-scheme step with the lagged-source coupling."""
        g = self.grid
        u = self.state.values
        t_now = self.state.time
        t_next = t_now + g.dt
        r = self._r
        th = g.theta

        V = self.state.boundary_var
        Fv = self.spec.flux(V, t_now if t_now > 0 else g.dt * 1e-9)
        if isinstance(Fv, complex):  # V ** n of a negative V: no real source
            raise ArithmeticError(f"flux law is complex at V = {V:.6g}, t = {t_now:.6g}")
        source = -self.phi_vals * Fv

        rhs = np.empty_like(u)
        lap = u[:-2] - 2.0 * u[1:-1] + u[2:]
        rhs[1:-1] = u[1:-1] + (1.0 - th) * r * lap + g.dt * source[1:-1]
        if self.tilde:
            gt = self._phi0 * Fv  # Neumann datum, lagged like the source
            lap0 = 2.0 * u[1] - 2.0 * u[0] - 2.0 * g.dx * gt
            rhs[0] = u[0] + (1.0 - th) * r * lap0 + g.dt * source[0] - th * r * 2.0 * g.dx * gt
        else:
            rhs[0] = 0.0
        rhs[-1] = self._far_value(t_next)

        new = self._substitute(rhs)
        self.state = DiscreteField(values=new, time=t_next)
        self.state.boundary_var = self._boundary_var(new)
        self.history.append(new.copy())
        self.boundary_series.append(self.state.boundary_var)
        return self.state

    def run(self) -> DiscreteField:
        for _ in range(self.grid.nt):
            self.step()
        return self.state


def solve(spec: ProblemSpec, grid: Grid1D, **options):
    """Run the full time loop with :class:`FDSolver` ``options``; returns
    (solver, final DiscreteField)."""
    solver = FDSolver(spec, grid, **options)
    final = solver.run()
    return solver, final


@dataclass
class ConvergenceResult:
    dxs: list[float]
    dts: list[float]
    errors_max: list[float]
    errors_l2: list[float]
    order_max: float
    order_l2: float
    degraded: bool = False


def _ladder_orders(dxs, errors) -> float:
    logs_x = np.log(np.asarray(dxs))
    logs_e = np.log(np.asarray(errors))
    slope, _ = np.polyfit(logs_x, logs_e, 1)
    return float(slope)


def convergence_order(
    spec: ProblemSpec,
    grids: list[Grid1D],
    reference,
    far_field: str = "manufactured",
) -> ConvergenceResult:
    """Least-squares order of the final-time error against a reference.

    The reference is any object with ``u(x, t)``, or the string ``"self"``
    for self-convergence against the finest ladder member (grids must nest).
    Non-monotone errors set the degraded-confidence flag.  A ladder whose
    every max error is round-off, at most 1e-12 (1 + max |reference|), is
    exact: it has no order (nan) and is not degraded.  The L2 error is
    sqrt(dx) |diff|, taken as max |diff| sqrt(dx) |diff / max |diff|| where
    the squares overflow.
    """
    if len(grids) < 3:
        raise ValueError("need at least 3 grids to estimate an order")
    self_ref = isinstance(reference, str) and reference == "self"
    ff = "homogeneous" if self_ref else far_field
    fields = []
    for g in grids:
        _, final = solve(spec, g, far_field=ff, reference=None if self_ref else reference)
        fields.append((g, final.values))

    errors_max, errors_l2, dxs, dts = [], [], [], []
    ref_max = 0.0
    if self_ref:
        g_fine, u_fine = fields[-1]
        compare = fields[:-1]
    else:
        compare = fields
    for g, u in compare:
        if self_ref:
            ratio = g_fine.nx // g.nx
            exact = u_fine[::ratio]
        else:
            exact = np.array([reference.u(xi, g.t_end) for xi in g.x.tolist()])
        ref_max = max(ref_max, float(np.max(np.abs(exact))))
        diff = u - exact
        peak = float(np.max(np.abs(diff)))
        errors_max.append(peak)
        with np.errstate(over="ignore"):
            l2 = float(math.sqrt(g.dx) * np.linalg.norm(diff))
        if math.isinf(l2) and math.isfinite(peak):  # the squares overflow: scale by the peak
            l2 = peak * float(math.sqrt(g.dx) * np.linalg.norm(diff / peak))
        errors_l2.append(l2)
        dxs.append(g.dx)
        dts.append(g.dt)

    round_off = 1e-12 * (1.0 + ref_max)
    if math.isfinite(round_off) and all(e <= round_off for e in errors_max):
        return ConvergenceResult(dxs, dts, errors_max, errors_l2, math.nan, math.nan)
    mono = all(e1 > e2 for e1, e2 in zip(errors_max, errors_max[1:]))
    return ConvergenceResult(
        dxs=dxs,
        dts=dts,
        errors_max=errors_max,
        errors_l2=errors_l2,
        order_max=_ladder_orders(dxs, errors_max),
        order_l2=_ladder_orders(dxs, errors_l2),
        degraded=not mono,
    )


def richardson(difference: Callable[[float], float], h: float) -> float:
    """(4 D(h/2) - D(h)) / 3 for a second-order difference D of step h.

    One Richardson step: the h^2 error terms cancel, leaving O(h^4).
    """
    return (4.0 * difference(h / 2.0) - difference(h)) / 3.0


def pde_residual(field, spec: ProblemSpec, x: float, t: float, delta: float = 1e-3):
    """Centered finite-difference residual of the governing equation.

    Returns the Richardson-extrapolated residual of

        u_t - u_xx + Phi(x) F(V(t), t)

    at (x, t), scaled by the local solution magnitude 1 + |u| + |u_xx| (u_xx
    the difference at step delta).  For closed forms the extrapolated value
    tends to round-off as delta shrinks.  u(x, t), V(t) and the source term
    are evaluated once per call, and the scale reuses the difference at
    delta: 9 evaluations of u in all.
    """
    u = field.u
    u_c = u(x, t)
    phi = spec.phi.evaluators()[1 if spec.variant is Variant.P_TILDE else 0]
    source = phi(x) * spec.flux(float(field.V(t)), t)
    u_xx = {}

    def resid(d: float) -> float:
        u_t = (u(x, t + d) - u(x, t - d)) / (2.0 * d)
        u_xx[d] = (u(x + d, t) - 2.0 * u_c + u(x - d, t)) / (d * d)
        return u_t - u_xx[d] + source

    extrap = richardson(resid, delta)
    return extrap / (1.0 + abs(u_c) + abs(u_xx[delta]))
