import math
import warnings

import numpy as np
import pytest

from conftest import (
    constant_law,
    linear_law,
    linear_shape,
    monomial,
    monomial_spec,
    separated_spec,
    sin_shape,
    sinh_shape,
)
from fluxheat import bench
from fluxheat.catalog import load_case
from fluxheat.closed_form import integral_rep_solution, solution_for, tilde_solution
from fluxheat.fd import DiscreteField, FDSolver, Grid1D, convergence_order, pde_residual, solution_grows, solve
from fluxheat.problem import FluxKind, FluxLaw, ProblemSpec, Variant, spec_from_dict


class TestGrid:
    def test_spacing(self):
        g = Grid1D(L=8.0, nx=64, t_end=2.0, nt=100)
        assert g.dx == 0.125
        assert g.dt == 0.02

    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid1D(L=0.0, nx=64, t_end=1.0, nt=10)
        with pytest.raises(ValueError):
            Grid1D(L=1.0, nx=4, t_end=1.0, nt=10)
        with pytest.raises(ValueError):
            Grid1D(L=1.0, nx=64, t_end=1.0, nt=10, theta=1.5)

    def test_stability_limit(self):
        g = Grid1D(L=1.0, nx=100, t_end=1.0, nt=10, theta=0.0)
        assert g.stability_limit() == pytest.approx(g.dx ** 2 / 2)
        assert Grid1D(L=1.0, nx=100, t_end=1.0, nt=10, theta=0.5).stability_limit() == math.inf


class TestSolverBasics:
    def zero_spec(self):
        return ProblemSpec(linear_shape(), FluxLaw(FluxKind.ZERO), monomial(1.0, 1))

    def test_explicit_scheme_stability_refused(self):
        g = Grid1D(L=1.0, nx=64, t_end=1.0, nt=10, theta=0.0)
        with pytest.raises(ValueError, match="stability"):
            FDSolver(self.zero_spec(), g, far_field="homogeneous")

    def test_growth_refusal_with_reason(self):
        g = Grid1D(L=4.0, nx=32, t_end=0.5, nt=16)
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        with pytest.raises(ValueError, match="manufactured"):
            FDSolver(spec, g, far_field="homogeneous")

    def test_growth_classifier(self):
        assert solution_grows(monomial_spec(sinh_shape(0.5, 1.0), 1.0, 1))
        assert solution_grows(monomial_spec(linear_shape(1.0), 1.0, 5))
        assert not solution_grows(monomial_spec(linear_shape(1.0), 1.0, 1))
        assert solution_grows(separated_spec(1.0, 1.0, 1.0, 1.0, linear_law(-1.0)))
        assert not solution_grows(separated_spec(-1.0, 1.0, 1.0, 1.0, linear_law(1.0)))

    def test_complex_flux_raises_naming_v_and_t(self):
        # F = V^(1/2) f(t) of a negative discrete flux is complex: no real source
        spec = spec_from_dict(load_case("separated-power-nhalf")["case"])
        g = Grid1D(L=30.0, nx=16, t_end=0.5, nt=16)
        solver = FDSolver(spec, g, reference=solution_for(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(ArithmeticError, match=r"^flux law is complex at V = -0\.0203747, t = 0$"):
                solver.run()
        assert len(solver.history) == 1  # the initial level's one-sided V < 0

    def test_zero_is_fixed_point(self):
        spec = ProblemSpec(linear_shape(), linear_law(1.0), monomial(0.0, 1))
        g = Grid1D(L=4.0, nx=32, t_end=0.2, nt=8)
        solver, final = solve(spec, g, far_field="homogeneous")
        assert np.all(final.values == 0.0)

    def test_dirichlet_row_exact(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        ref = integral_rep_solution(spec)
        g = Grid1D(L=6.0, nx=48, t_end=0.5, nt=32)
        solver, _ = solve(spec, g, reference=ref)
        assert all(h[0] == 0.0 for h in solver.history)

    def test_pure_diffusion_max_norm_decay(self):
        # sine initial data under pure diffusion decays monotonically
        spec = separated_spec(-1.0, 1.0, 1.0, 1.0, linear_law(1e-14))
        g = Grid1D(L=float(np.pi), nx=32, t_end=0.5, nt=32)
        solver, _ = solve(spec, g, far_field="homogeneous")
        norms = [np.max(np.abs(h)) for h in solver.history]
        assert all(a >= b - 1e-14 for a, b in zip(norms, norms[1:]))


class TestAccuracy:
    def test_phi1_m1_tracks_flux(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        ref = integral_rep_solution(spec)
        g = Grid1D(L=8.0, nx=256, t_end=1.0, nt=256)
        solver, _ = solve(spec, g, reference=ref)
        levels = np.linspace(0.0, g.t_end, g.nt + 1)
        for t in (0.25, 0.5, 1.0):
            V = np.interp(t, levels, solver.boundary_series)
            assert abs(V - math.exp(-t)) <= 2e-3

    def test_dt_halving_improves_flux(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        ref = integral_rep_solution(spec)

        def err(nt):
            g = Grid1D(L=8.0, nx=128, t_end=1.0, nt=nt)
            solver, _ = solve(spec, g, reference=ref)
            V = np.interp(1.0, np.linspace(0.0, g.t_end, g.nt + 1), solver.boundary_series)
            return abs(V - math.exp(-1.0))

        assert err(16) / err(32) >= 1.8

    def test_zero_source_reduction_to_baseline(self):
        # source-free diffusion of the quadratic profile vs the erf baseline
        from fluxheat.green import u0_quadratic_closed
        from fluxheat.problem import InitialProfile, ProfileKind, ShapeKind, SourceShape

        spec = ProblemSpec(
            SourceShape(ShapeKind.CONSTANT_ONE),
            constant_law(0.0),
            InitialProfile(ProfileKind.QUADRATIC, a=0.0, nu=1.0),
        )

        class Ref:
            def u(self, x, t):
                return u0_quadratic_closed(1.0, 0.0, x, t)

        g = Grid1D(L=8.0, nx=512, t_end=1.0, nt=512)
        solver, final = solve(spec, g, reference=Ref())
        exact = np.array([Ref().u(x, 1.0) for x in g.x])
        assert np.max(np.abs(final.values - exact)) <= 1e-4

    def test_manufactured_convergence_order(self):
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 1)
        ref = integral_rep_solution(spec)
        grids = [Grid1D(L=8.0, nx=n, t_end=1.0, nt=n) for n in (64, 128, 256)]
        res = convergence_order(spec, grids, ref)
        assert res.order_max >= 1.0
        assert not res.degraded

    def test_self_convergence_power_law(self):
        from fluxheat.problem import FluxKind, FluxLaw, TimeFunction

        law = FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(1.0))
        spec = separated_spec(-1.0, 1.0, 1.0, 1.0, law)
        grids = [Grid1D(L=6.0, nx=n, t_end=0.5, nt=n) for n in (32, 64, 128, 256)]
        res = convergence_order(spec, grids, "self")
        assert res.order_max >= 1.0

    @pytest.mark.parametrize(
        "case_id", ["tilde-constant", "tilde-stationary-quadratic", "stationary-linear-h"]
    )
    def test_exact_ladder_has_no_order_and_is_not_degraded(self, case_id):
        # the scheme reproduces these fields to round-off on every grid
        cfg = load_case(case_id)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log of a zero error
            lines, ok = bench.convergence({**cfg, "ladder": {"nx": [64, 128, 256]}})
        assert ok
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row["error_max"]) <= 1e-12
            assert row["degraded"] == "0"
            assert math.isnan(float(row["order_max"])) and math.isnan(float(row["order_l2"]))

    def test_overflowing_l2_error_is_scaled_by_the_peak(self):
        # errors near 1e291 square past the double range; the plain norm read inf
        cfg = load_case("stationary-quadratic")
        case = {**cfg["case"], "flux": {"kind": "constant", "nu": 1e306}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in the norm
            lines, ok = bench.convergence({"case": case, "ladder": {"nx": [16, 32, 64]}})
        assert ok
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for row in rows:
            error_max, error_l2 = float(row["error_max"]), float(row["error_l2"])
            assert math.isfinite(error_l2)
            # sqrt(dx) |diff| lies between sqrt(dx) max|diff| and sqrt(L + dx) max|diff|
            assert math.sqrt(float(row["dx"])) * error_max <= error_l2 <= 3.0 * error_max

    def test_needs_three_grids(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        ref = integral_rep_solution(spec)
        with pytest.raises(ValueError):
            convergence_order(spec, [Grid1D(L=8.0, nx=64, t_end=1.0, nt=64)], ref)

    def test_flux_extraction_exact_on_a_quadratic(self):
        # On problem-P solutions with Phi(0) = 0 the boundary curvature
        # vanishes, masking the extraction order; the Phi == 1 stationary
        # case has u_xx(0) = nu, where a two-point difference misses V = nu
        # by nu dx / 2 and the three-point stencil is exact.
        from fluxheat.closed_form import stationary_solution
        from fluxheat.problem import InitialProfile, ProfileKind, ShapeKind, SourceShape

        spec = ProblemSpec(
            SourceShape(ShapeKind.CONSTANT_ONE),
            constant_law(1.0),
            InitialProfile(ProfileKind.QUADRATIC, a=1.0, nu=1.0),
        )
        g = Grid1D(L=8.0, nx=128, t_end=0.25, nt=64)
        solver, _ = solve(spec, g, reference=stationary_solution(spec))
        assert len(solver.boundary_series) == g.nt + 1
        assert max(abs(V - 1.0) for V in solver.boundary_series) <= 1e-12 * g.dx


class TestTildeSolver:
    def test_constant_preserved_to_roundoff(self):
        spec = ProblemSpec(
            linear_shape(), FluxLaw(FluxKind.ZERO), monomial(2.0, 1), Variant.P_TILDE
        )
        field = tilde_solution(spec)
        g = Grid1D(L=4.0, nx=32, t_end=0.5, nt=25)
        solver, final = solve(spec, g, reference=field)
        assert np.max(np.abs(final.values - 2.0)) <= 1e-12

    def test_separated_tilde_tracked(self):
        spec = separated_spec(-1.0, 1.0, 1.0, 1.0, linear_law(1.0), variant=Variant.P_TILDE)
        field = tilde_solution(spec)
        g = Grid1D(L=6.0, nx=256, t_end=0.5, nt=256)
        solver, final = solve(spec, g, reference=field)
        exact = np.array([field.u(x, 0.5) for x in g.x])
        assert np.max(np.abs(final.values - exact)) <= 5e-3


class PerStepElimination(FDSolver):
    """The stepper as it was before the matrix was factored once per run: the
    bands are eliminated again at every step, and the companion problem's
    Neumann datum is zero."""

    def _thomas(self, rhs):
        th, r, n = self.grid.theta, self._r, len(rhs)
        lower = np.zeros(n)
        diag = np.ones(n)
        upper = np.zeros(n)
        lower[1:-1] = -th * r
        diag[1:-1] = 1.0 + 2.0 * th * r
        upper[1:-1] = -th * r
        if self.tilde:
            diag[0] = 1.0 + 2.0 * th * r
            upper[0] = -2.0 * th * r
        cp = np.empty(n)
        dp = np.empty(n)
        cp[0] = upper[0] / diag[0]
        dp[0] = rhs[0] / diag[0]
        for i in range(1, n):
            denom = diag[i] - lower[i] * cp[i - 1]
            cp[i] = upper[i] / denom
            dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
        out = np.empty(n)
        out[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            out[i] = dp[i] - cp[i] * out[i + 1]
        return out

    def step(self):
        g = self.grid
        u = self.state.values
        t_now = self.state.time
        t_next = t_now + g.dt
        r = self._r
        th = g.theta

        Fv = self.spec.flux(self.state.boundary_var, t_now if t_now > 0 else g.dt * 1e-9)
        source = -self.phi_vals * Fv

        rhs = np.empty_like(u)
        lap = np.zeros_like(u)
        lap[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
        rhs[1:-1] = u[1:-1] + (1.0 - th) * r * lap[1:-1] + g.dt * source[1:-1]
        if self.tilde:
            gt_now = gt_next = float(self.spec.phi(0.0)) * Fv
            lap0 = 2.0 * u[1] - 2.0 * u[0] - 2.0 * g.dx * gt_now
            rhs[0] = (
                u[0]
                + (1.0 - th) * r * lap0
                + g.dt * source[0]
                - th * r * 2.0 * g.dx * gt_next
            )
        else:
            rhs[0] = 0.0
        rhs[-1] = self._far_value(t_next)

        new = self._thomas(rhs)
        self.state = DiscreteField(values=new, time=t_next)
        self.state.boundary_var = self._boundary_var(new)
        self.history.append(new.copy())
        self.boundary_series.append(self.state.boundary_var)
        return self.state


class TestFactoredStepper:
    @pytest.mark.parametrize("theta, nt", [(0.0, 80), (0.5, 32), (1.0, 32)])
    @pytest.mark.parametrize(
        "case_id",
        [
            "ir-phi1-m3",
            "separated-sin-decay",
            "tilde-ir-phi1-m1",
            "tilde-separated",
            "tilde-constant",
            "tilde-stationary-quadratic",
        ],
    )
    def test_bitwise_equal_to_per_step_elimination(self, case_id, theta, nt):
        # Phi(0) = 0 on all but the last shape; Phi == 1 there, so the
        # companion datum Phi(0) F enters the Neumann row
        spec = spec_from_dict(load_case(case_id)["case"])
        field = solution_for(spec)
        g = Grid1D(L=8.0, nx=64, t_end=0.5, nt=nt, theta=theta)
        solver, final = solve(spec, g, reference=field)
        ref = PerStepElimination(spec, g, reference=field)
        ref_final = ref.run()
        assert final.values.tobytes() == ref_final.values.tobytes()
        assert np.array(solver.boundary_series).tobytes() == np.array(ref.boundary_series).tobytes()

    def test_companion_neumann_datum_from_spec(self):
        # Phi == 1 and F = nu: v_x(0, t) = nu, and v = nu x + a is stationary
        cfg = load_case("tilde-stationary-quadratic")
        spec = spec_from_dict(cfg["case"])
        for theta in (0.5, 1.0):
            g = Grid1D(L=8.0, nx=64, t_end=1.0, nt=64, theta=theta)
            solver, _ = solve(spec, g, reference=solution_for(spec))
            exact = spec.flux.nu * g.x + spec.h.a
            assert max(np.max(np.abs(level - exact)) for level in solver.history) <= 1e-12
        lines, ok = bench.convergence({**cfg, "ladder": {"nx": [64, 128, 256]}})
        assert ok
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 3 and all(float(row["error_max"]) <= 1e-12 for row in rows)

    def test_solve_steps_nt_times_and_keeps_every_level(self, monkeypatch):
        # the per-layer FD metrics count FDSolver.step calls and read solver.history
        calls = []
        real_step = FDSolver.step

        def counted(self):
            calls.append(self)
            return real_step(self)

        monkeypatch.setattr(FDSolver, "step", counted)
        spec = monomial_spec(linear_shape(1.0), 1.0, 1)
        g = Grid1D(L=6.0, nx=48, t_end=0.5, nt=20)
        solver, final = solve(spec, g, reference=integral_rep_solution(spec))
        assert len(calls) == g.nt and all(s is solver for s in calls)
        assert len(solver.history) == g.nt + 1
        assert all(level.shape == (g.nx + 1,) and level.dtype == np.float64 for level in solver.history)
        assert sum(level.nbytes for level in solver.history) == (g.nt + 1) * (g.nx + 1) * 8
        assert solver.history[-1].tobytes() == final.values.tobytes()


def per_term_residual(field, spec, x, t, delta):
    """The residual formula that re-evaluates u(x, t), V(t) and the source per difference."""
    u = field.u

    def resid(d):
        u_t = (u(x, t + d) - u(x, t - d)) / (2.0 * d)
        u_xx = (u(x + d, t) - 2.0 * u(x, t) + u(x - d, t)) / (d * d)
        V = float(field.V(t))
        phi = spec.phi.derivative if spec.variant is Variant.P_TILDE else spec.phi
        return u_t - u_xx + phi(x) * spec.flux(V, t)

    extrap = (4.0 * resid(delta / 2.0) - resid(delta)) / 3.0
    d = delta
    scale = 1.0 + abs(u(x, t)) + abs((u(x + d, t) - 2.0 * u(x, t) + u(x - d, t)) / (d * d))
    return extrap / scale


class TestPdeResidual:
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(0.5, 1.0), sin_shape(2.0, 1.0)],
        ids=["phi1", "phi2", "phi3"],
    )
    def test_bitwise_per_term_formula(self, shape):
        spec = monomial_spec(shape, 0.8, 3)
        field = integral_rep_solution(spec)
        calls = []

        class Counted:
            V = field.V

            @staticmethod
            def u(x, t):
                calls.append((x, t))
                return field.u(x, t)

        for x, t in ((0.5, 0.4), (1.5, 1.0), (np.float64(0.7), np.float64(0.9))):
            for delta in (1e-3, 0.1):
                calls.clear()
                got = pde_residual(Counted, spec, x, t, delta=delta)
                assert got.hex() == per_term_residual(field, spec, x, t, delta).hex()
                assert len(calls) == 9

    def test_closed_form_residuals_small(self):
        for spec in (
            monomial_spec(linear_shape(1.0), 1.0, 3),
            monomial_spec(sinh_shape(0.5, 1.0), 1.0, 1),
            separated_spec(-1.0, 1.0, 1.0, 1.0, linear_law(1.0)),
        ):
            from fluxheat.closed_form import solution_for

            field = solution_for(spec)
            for x, t in ((0.5, 0.4), (1.5, 1.0)):
                assert abs(pde_residual(field, spec, x, t, delta=1e-3)) <= 1e-6

    def test_residual_shrinks_under_refinement(self):
        # truncation-dominated range; below delta ~ 1e-2 the 1/delta^2
        # round-off floor takes over while staying far under tolerance
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        field = integral_rep_solution(spec)
        r = [abs(pde_residual(field, spec, 1.0, 0.7, delta=d)) for d in (0.3, 0.1, 0.03)]
        assert r[0] > r[1] > r[2]
        assert abs(pde_residual(field, spec, 1.0, 0.7, delta=1e-3)) <= 1e-6

    def test_detects_wrong_solution(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        field = integral_rep_solution(spec)

        class Wrong:
            u = staticmethod(lambda x, t: field.u(x, t) + 0.05 * x * x * t)
            V = field.V

        assert abs(pde_residual(Wrong(), spec, 1.0, 0.7, delta=1e-3)) > 1e-3
