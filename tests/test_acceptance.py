"""Acceptance suite: one test per exit criterion, at its pinned tolerance.

Each test prints a single ``ACCEPTANCE <n>: PASS`` line when its criterion
holds (run with ``pytest -s`` to see them stream).  Tolerances are fixed
here, not calibrated.
"""

import math
import time

import numpy as np

from conftest import linear_shape, monomial, monomial_spec, sin_shape, sinh_shape
from fluxheat import bench
from fluxheat.asymptotics import (
    LimitTag,
    control_classification,
    flux_probe_ladder,
    numeric_limit_probe,
)
from fluxheat.catalog import case_ids, load_case
from fluxheat.closed_form import (
    baseline_u0_polynomial,
    flux_closed_form,
    integral_rep_solution,
    solution_for,
    tilde_solution,
)
from fluxheat.fd import Grid1D, convergence_order, pde_residual, solve
from fluxheat.green import baseline_u0, u0_quadratic_closed, verify_identity_phi
from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    Variant,
    spec_from_dict,
)
from fluxheat.volterra import forcing_for, kernel_for, solve_volterra, volterra_residual

M_GRID = (1, 3, 5, 7)
SHAPES = {
    "phi1": linear_shape(1.0),
    "phi2": sinh_shape(0.5, 1.0),
    "phi3-dpos": sin_shape(2.0, 1.0),
    "phi3-dneg": sin_shape(1.0, 1.5),
    "phi3-d0": sin_shape(1.0, 1.0),
}


def report(n: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_flux_closed_forms_satisfy_volterra():
    """Closed-form fluxes satisfy the governing equation to 1e-8."""
    t_samples = np.linspace(0.1, 5.0, 15)
    start = time.perf_counter()
    worst = 0.0
    for label, shape in SHAPES.items():
        for m in M_GRID:
            spec = monomial_spec(shape, 0.7, m)
            traj = flux_closed_form(spec)
            res = volterra_residual(
                traj, kernel_for(spec.phi), forcing_for(spec.h), 1.0, t_samples
            )
            worst = max(worst, res)
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-8 and elapsed < 1.0, f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_volterra_solver_second_order():
    """Numeric flux solver converges at order 2.0 +- 0.3."""
    start = time.perf_counter()
    k = kernel_for(linear_shape(1.0))
    f = forcing_for(monomial(1.0, 1))
    errors = []
    for n in (250, 500, 1000, 2000):
        traj = solve_volterra(k, f, 1.0, 2.0, n)
        errors.append(abs(traj(2.0) - math.exp(-2.0)))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - start
    ok = all(abs(o - 2.0) <= 0.3 for o in orders) and elapsed < 5.0
    report(2, ok, f"orders {['%.2f' % o for o in orders]}, {elapsed:.2f}s")


def test_criterion_3_known_limits_via_probe():
    """The t-ladder probe reproduces the known finite flux limits."""
    start = time.perf_counter()
    spec = monomial_spec(linear_shape(1.0), 1.0, 3)
    probe = numeric_limit_probe(flux_closed_form(spec), flux_probe_ladder(spec))
    ok1 = probe.tag is LimitTag.FINITE and abs(probe.value - 6.0) <= 1e-3 * 6.0

    spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 1)  # delta = 1
    probe = numeric_limit_probe(flux_closed_form(spec), flux_probe_ladder(spec))
    ok2 = probe.tag is LimitTag.FINITE and abs(probe.value - 2.0) <= 1e-3 * 2.0
    elapsed = time.perf_counter() - start
    report(3, ok1 and ok2 and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_4_initial_flux_limits():
    """Flux at t = 1e-8 equals eta (m = 1) or is below 1e-6 (m > 1)."""
    worst = 0.0
    for shape in SHAPES.values():
        for m in M_GRID:
            eta = 0.9
            traj = flux_closed_form(monomial_spec(shape, eta, m))
            v = float(traj(1e-8))
            target = eta if m == 1 else 0.0
            worst = max(worst, abs(v - target))
    report(4, worst <= 1e-6, f"worst deviation {worst:.2e}")


def test_criterion_5_green_identities(rng):
    """Green-function weight identities hold to 1e-8 on the stated grid."""
    start = time.perf_counter()
    worst_phi = 0.0
    for shape in (linear_shape(2.0), sinh_shape(1.0, 1.0), sin_shape(1.0, 1.0)):
        for x in (0.25, 1.0, 4.0):
            for dt in (0.25, 1.0, 4.0):
                for tau in (0.0, 0.3):
                    _, _, diff = verify_identity_phi(shape, x, tau + dt, tau)
                    worst_phi = max(worst_phi, diff)
    worst_h = 0.0
    for m in M_GRID:
        h = monomial(0.8, m)
        xs = 0.2 + 1.8 * rng.random(10)
        ts = 0.05 + 0.95 * rng.random(10)
        for x, t in zip(xs, ts):
            diff = abs(baseline_u0(h, x, t) - baseline_u0_polynomial(h, x, t))
            worst_h = max(worst_h, diff)
    elapsed = time.perf_counter() - start
    ok = worst_phi <= 1e-8 and worst_h <= 1e-8 and elapsed < 30.0
    report(5, ok, f"phi {worst_phi:.2e}, h {worst_h:.2e}, {elapsed:.1f}s")


def test_criterion_6_baseline_cross_checks(rng):
    """Quadrature baseline equals the polynomial and erf closed forms."""
    worst = 0.0
    for m in (1, 3, 5, 7):
        h = monomial(1.1, m)
        xs = 0.2 + 1.8 * rng.random(10)
        ts = 0.05 + 0.95 * rng.random(10)
        for x, t in zip(xs, ts):
            worst = max(worst, abs(baseline_u0(h, x, t) - baseline_u0_polynomial(h, x, t)))
    hq = InitialProfile(ProfileKind.QUADRATIC, a=0.3, nu=1.0)
    xs = 0.2 + 1.8 * rng.random(10)
    ts = 0.05 + 0.95 * rng.random(10)
    for x, t in zip(xs, ts):
        worst = max(worst, abs(baseline_u0(hq, x, t) - u0_quadratic_closed(1.0, 0.3, x, t)))
    report(6, worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_7_pde_residuals_over_catalog(rng):
    """Every catalog solution has scaled FD residual below 1e-6 at delta 1e-3."""
    worst = 0.0
    worst_case = ""
    for cid in case_ids():
        cfg = load_case(cid)
        spec = spec_from_dict(cfg["case"])
        if spec.variant is not Variant.P:
            continue
        field = solution_for(spec)
        xs = 0.2 + 1.8 * rng.random(20)
        ts = 0.1 + 1.4 * rng.random(20)
        for x, t in zip(xs, ts):
            r = abs(pde_residual(field, spec, x, t, delta=1e-3))
            if r > worst:
                worst, worst_case = r, cid
    report(7, worst <= 1e-6, f"worst {worst:.2e} ({worst_case})")


def test_criterion_8_fd_vs_exact():
    """FD with manufactured far field matches the closed forms."""
    start = time.perf_counter()
    details = []
    ok = True
    for spec in (
        monomial_spec(linear_shape(1.0), 1.0, 1),
        monomial_spec(sin_shape(2.0, 1.0), 1.0, 1),
    ):
        ref = integral_rep_solution(spec)
        grid = Grid1D(L=8.0, nx=512, t_end=1.0, nt=512, theta=0.5)
        _, final = solve(spec, grid, reference=ref)
        exact = np.array([ref.u(x, 1.0) for x in grid.x])
        err = float(np.max(np.abs(final.values - exact)))
        grids = [Grid1D(L=8.0, nx=n, t_end=1.0, nt=n, theta=0.5) for n in (128, 256, 512)]
        res = convergence_order(spec, grids, ref)
        ok &= err <= 5e-3 and res.order_max >= 1.0
        details.append(f"err {err:.2e} order {res.order_max:.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(8, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_control_classifications():
    """Symbolic control classes match the probes on every control entry."""
    checked = 0
    for cid in case_ids():
        cfg = load_case(cid)
        if "control" not in cfg.get("checks", ()):
            continue
        spec = spec_from_dict(cfg["case"])
        classes = control_classification(spec)
        for name, lhs, rhs in bench._control_checks(spec, solution_for(spec), classes):
            r = bench.CheckRecord(name, lhs, rhs, bench.TOLERANCES[name])
            assert r.passed, (cid, r.name, r.abs_diff)
        checked += 1
    report(9, checked >= 10, f"{checked} control configurations confirmed")


def test_criterion_10_companion_problem():
    """v = u_x for the companion families; constants survive the FD solver."""
    spec = monomial_spec(linear_shape(1.0), 1.0, 1, variant=Variant.P_TILDE)
    field = tilde_solution(spec)
    base = integral_rep_solution(spec.as_p())
    rng = np.random.default_rng(4242)
    worst = 0.0
    for x, t in zip(0.2 + 1.8 * rng.random(10), 0.1 + 1.4 * rng.random(10)):
        d = 1e-4
        central = lambda h: (base.u(x + h, t) - base.u(x - h, t)) / (2 * h)  # noqa: E731
        extrap = (4 * central(d / 2) - central(d)) / 3
        worst = max(worst, abs(field.u(x, t) - extrap))

    const_spec = ProblemSpec(
        linear_shape(1.0), FluxLaw(FluxKind.ZERO), monomial(2.0, 1), Variant.P_TILDE
    )
    const_field = tilde_solution(const_spec)
    grid = Grid1D(L=4.0, nx=32, t_end=0.5, nt=25, theta=0.5)
    _, final = solve(const_spec, grid, reference=const_field)
    dev = float(np.max(np.abs(final.values - 2.0)))
    report(10, worst <= 1e-8 and dev <= 1e-12, f"v-u_x {worst:.2e}, const dev {dev:.2e}")
