"""The QUADPACK and RK45 ports against scipy, their reference, bit for bit.

``quadpack.quad`` must return ``scipy.integrate.quad``'s value, error
estimate, evaluation count and subinterval count, and ``ode.rk45`` the dense
output of ``solve_ivp(method="RK45", dense_output=True)``, with ``==`` on
the floats: the catalog CSV pins their bits.
"""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad, solve_ivp

from fluxheat import bench, ode, quadpack
from fluxheat.problem import FluxKind, FluxLaw, TimeFunction

# Integrands by kind, each of (x, p): smooth, oscillatory, singular at the
# left end (integrable power and log), singular inside at x = p, a narrow
# spike at x = p (abserr == resasc on a wide first interval), and a jump.
INTEGRANDS = {
    "gauss": lambda x, p: math.exp(-p * p * x * x),
    "oscillatory": lambda x, p: math.cos(20.0 * p * x) * math.exp(-0.1 * x),
    "end-power": lambda x, p: x ** (p / 4.0 - 1.0) if x > 0.0 else 0.0,
    "end-log": lambda x, p: math.log(x) * p if x > 0.0 else 0.0,
    "inner-power": lambda x, p: abs(x - p) ** -0.5 if x != p else 0.0,
    "inner-log": lambda x, p: math.log(abs(x - p)) if x != p else 0.0,
    "spike": lambda x, p: math.exp(-5000.0 * (x - p) ** 2),
    "jump": lambda x, p: 1.0 if x < p else -0.5,
}


def bits(value, estimate, neval, last):
    return value.hex(), estimate.hex(), neval, last


def scipy_quad(f, a, b, tol, limit, points):
    """(value, estimate, neval, last) of scipy's quad, floats as hex."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, estimate, info = quad(
            f, a, b, epsabs=tol, epsrel=tol, limit=limit, points=points, full_output=1
        )[:3]
    return bits(value, estimate, info["neval"], info["last"])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(INTEGRANDS)),
    p=st.floats(0.05, 3.5),
    width=st.floats(0.25, 4.0),
    tol=st.floats(-14.0, -4.0).map(lambda e: 10.0 ** e),
    limit=st.sampled_from([50, 400]),
    breaks=st.sampled_from([None, 0, 1, 2]),
    at_p=st.booleans(),
    spread=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
)
@example(kind="end-power", p=2.0, width=1.0, tol=1e-10, limit=50, breaks=None, at_p=False,
         spread=[0.5, 0.5])  # x^-1/2: the epsilon algorithm extrapolates
@example(kind="spike", p=0.3, width=10.0, tol=1e-4, limit=50, breaks=None, at_p=False,
         spread=[0.5, 0.5])  # abserr == resasc below the tolerance: dqagse bisects
def test_quad_matches_scipy_bit_for_bit(kind, p, width, tol, limit, breaks, at_p, spread):
    a, b = 0.0, width
    points = None if breaks is None else [a + s * width for s in spread[:breaks]]
    if points and at_p:
        points[0] = p  # a breakpoint on the inner singularity, spike or jump
    f = lambda x: INTEGRANDS[kind](x, p)  # noqa: E731
    got = quadpack.quad(f, a, b, tol, tol, limit, points)
    assert bits(*got) == scipy_quad(f, a, b, tol, limit, points)


def test_quad_runs_the_epsilon_algorithm(monkeypatch):
    calls = []
    real = quadpack.qelg
    monkeypatch.setattr(quadpack, "qelg", lambda *args: calls.append(args[0]) or real(*args))
    f = lambda x: INTEGRANDS["end-power"](x, 2.0)  # noqa: E731
    got = quadpack.quad(f, 0.0, 1.0, 1e-10, 1e-10, 50)
    assert calls and bits(*got) == scipy_quad(f, 0.0, 1.0, 1e-10, 50, None)


def test_qagse_bisects_where_the_first_estimate_is_resasc():
    # a spike between the nodes: the first estimate is below the tolerance
    # but equals resasc, so dqagse bisects where dqagpe (points given, none
    # inside) accepts the first rule
    f = lambda x: INTEGRANDS["spike"](x, 0.3)  # noqa: E731
    _, abserr, _, resasc = quadpack.qk21(f, 0.0, 10.0)
    assert abserr == resasc < 1e-4
    plain = quadpack.quad(f, 0.0, 10.0, 1e-4, 1e-4, 50)
    empty = quadpack.quad(f, 0.0, 10.0, 1e-4, 1e-4, 50, [])
    assert plain[3] > 1 and empty[3] == 1
    assert bits(*plain) == scipy_quad(f, 0.0, 10.0, 1e-4, 50, None)
    assert bits(*empty) == scipy_quad(f, 0.0, 10.0, 1e-4, 50, [])


def test_quad_handles_scipy_edge_inputs():
    f = math.exp
    assert quadpack.quad(f, 1.0, 1.0, 1e-10, 1e-10, 50) == (0.0, 0.0, 0, 0)
    got = quadpack.quad(f, 2.0, 0.0, 1e-10, 1e-10, 50, [1.0, 1.0, 5.0])
    assert bits(*got) == scipy_quad(f, 2.0, 0.0, 1e-10, 50, [1.0, 1.0, 5.0])
    with pytest.raises(ValueError):
        quadpack.quad(f, 0.0, 1.0, 0.0, 0.0, 50)


def scipy_t_samples(comps, flux):
    """The T cross-check as scipy alone runs it: RK45, BDF where RK45 fails;
    the samples, or the reason where both fail."""
    def rhs(t, y):
        if next(evals) == bench._ODE_EVALS:
            raise ArithmeticError(f"more than {bench._ODE_EVALS} evaluations")
        return [comps.sigma * y[0] - comps.scale * flux(comps.delta * y[0], max(t, 1e-12))]

    for method in ("RK45", "BDF"):
        evals = itertools.count()
        try:
            with np.errstate(all="ignore"):
                sol = solve_ivp(rhs, (0.0, 2.0), [comps.eta], method=method,
                                rtol=1e-10, atol=1e-12, dense_output=True)
        except (ArithmeticError, ValueError) as exc:
            failure = f"T cross-check: {method} fails on the T equation: {exc}"
            continue
        if sol.success:
            return tuple(float(sol.sol(t)[0]) for t in bench._T_SAMPLES)
        failure = f"T cross-check: {method} fails on the T equation: {sol.message}"
    return failure


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    sigma=st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0),
    delta=st.floats(0.1, 3.0),
    scale=st.floats(0.1, 3.0),
    eta=st.floats(0.1, 3.0),
    nu=st.floats(-2.0, 2.0).filter(lambda v: v != 0.0),
    n=st.sampled_from([None, 0.0, 0.25, 0.5, 0.75]),
)
@example(sigma=0.5, delta=1.0, scale=1.0, eta=1.0, nu=1e4, n=0.5)  # RK45 stops short
def test_rk45_matches_solve_ivp_bit_for_bit(sigma, delta, scale, eta, nu, n):
    if n is None:
        flux = FluxLaw(FluxKind.LINEAR, nu=nu)
    else:
        flux = FluxLaw(FluxKind.POWER_LAW, nu=nu, n=n, f=TimeFunction.constant(nu))
    comps = SimpleNamespace(sigma=sigma, delta=delta, scale=scale, eta=eta)
    want = scipy_t_samples(comps, flux)
    try:
        got = bench._t_ode_solution(comps, flux)
    except ArithmeticError as exc:
        got = str(exc)
    if isinstance(want, tuple):
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        assert got == want

    # the port's own dense output, step by step, where scipy's RK45 finishes
    def rhs(t, y):
        return [sigma * y[0] - scale * flux(delta * y[0], max(t, 1e-12))]

    with np.errstate(all="ignore"):
        sol = solve_ivp(rhs, (0.0, 2.0), [eta], rtol=1e-10, atol=1e-12, dense_output=True)
        if not sol.success:
            with pytest.raises(ArithmeticError):
                ode.rk45(rhs, (0.0, 2.0), [eta], rtol=1e-10, atol=1e-12)
            return
        mine = ode.rk45(rhs, (0.0, 2.0), [eta], rtol=1e-10, atol=1e-12)
    assert np.array_equal(mine.ts, sol.t)
    times = list(sol.t) + [float(t) for t in np.linspace(0.0, 2.2, 12)]
    assert [float(mine(t)[0]).hex() for t in times] == [float(sol.sol(t)[0]).hex() for t in times]
