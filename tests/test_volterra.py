import dataclasses
import functools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    linear_shape,
    monomial,
    monomial_spec,
    separable_profile,
    sin_shape,
    sinh_shape,
)
from fluxheat import catalog, closed_form, green, volterra
from fluxheat.bench import CheckRecord
from fluxheat.closed_form import ConstructionError, flux_closed_form
from fluxheat.problem import (
    InitialProfile,
    ProfileKind,
    ShapeKind,
    SourceShape,
    monomial_forcing_constant,
    spec_from_dict,
)
from fluxheat.specfun import exp_moment
from fluxheat.trajectory import ClosedFormTrajectory, SampledTrajectory
from fluxheat.volterra import (
    Forcing,
    Kernel,
    forcing_eval,
    forcing_for,
    forcing_values,
    kernel_eval,
    kernel_for,
    kernel_values,
    solve_resolvent,
    solve_volterra,
    volterra_residual,
)


class TestKernels:
    def test_constant(self):
        k = kernel_for(linear_shape(3.0))
        for t in (0.1, 2.0, 50.0):
            assert kernel_eval(k, t) == 3.0

    def test_decaying_limit(self):
        k = Kernel(sin_shape(1.0, 2.0))
        assert kernel_eval(k, 1e-12) == pytest.approx(-2.0, rel=1e-10)

    def test_growing(self):
        k = kernel_for(sinh_shape(1.0, 1.0))
        assert kernel_eval(k, 0.5) == pytest.approx(-math.exp(0.5), rel=1e-14)

    @pytest.mark.parametrize(
        "shape",
        [linear_shape(3.0), sinh_shape(1.0, 1.0), sin_shape(1.0, 2.0)],
        ids=["phi1", "phi2", "phi3"],
    )
    def test_quadrature_matches_analytic(self, shape):
        ka, kq = kernel_for(shape), kernel_for(shape, quadrature=True)
        for t in (0.01, 0.1, 0.5, 2.0, 5.0):
            assert abs(kernel_eval(kq, t) - kernel_eval(ka, t)) <= 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kernel_eval(kernel_for(linear_shape()), 0.0)


class TestForcing:
    def test_m1_constant(self):
        f = forcing_for(monomial(1.0, 1))
        for t in (0.2, 3.0):
            assert forcing_eval(f, t) == 1.0

    def test_m3_slope(self):
        f = forcing_for(monomial(1.0, 3))
        assert forcing_eval(f, 0.7) == pytest.approx(4.2, rel=1e-13)

    def test_quadrature_matches_power_law(self):
        fq = forcing_for(monomial(1.0, 3), quadrature=True)
        for t in (0.2, 1.0, 4.0):
            assert forcing_eval(fq, t) == pytest.approx(6.0 * t, abs=1e-8)

    def test_quadrature_zero_slope(self):
        # h' == 0 gives a vanishing forcing
        from fluxheat.problem import InitialProfile, ProfileKind

        flat = InitialProfile(ProfileKind.MONOMIAL, eta=0.0, m=1.0)
        f = forcing_for(flat, quadrature=True)
        assert forcing_eval(f, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            forcing_eval(forcing_for(monomial(1.0, 1)), -1.0)

    @pytest.mark.parametrize("m", [1, 3, 2.5])
    @pytest.mark.parametrize("eta", [0.7, -2.5])
    def test_constant_and_exponent_read_off_the_profile(self, eta, m):
        f = forcing_for(monomial(eta, m))
        assert f == Forcing(monomial(eta, m)) and not f.quadrature
        assert f.c.hex() == monomial_forcing_constant(eta, m).hex()
        assert f.exponent == (m - 1.0) / 2.0

    def test_unit_forcing_is_exactly_one(self):
        assert volterra._UNIT_FORCING.c == 1.0 and volterra._UNIT_FORCING.exponent == 0.0

    def test_non_monomial_profile_takes_the_quadrature(self):
        h = InitialProfile(ProfileKind.QUADRATIC, a=1.0)
        assert forcing_for(h) == Forcing(h, quadrature=True)
        with pytest.raises(ValueError, match="power-law forcing"):
            solve_resolvent(kernel_for(linear_shape()), forcing_for(h), 1.0, 1.0, 8)


class TestSolver:
    def test_m1_phi1_accuracy(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 1))
        traj = solve_volterra(k, f, 1.0, 2.0, 1000)
        err = max(abs(traj(t) - math.exp(-t)) for t in (0.5, 1.0, 2.0))
        assert err <= 1e-4

    def test_second_order(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 1))
        errs = []
        for n in (250, 500, 1000):
            traj = solve_volterra(k, f, 1.0, 2.0, n)
            errs.append(abs(traj(2.0) - math.exp(-2.0)))
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.5 <= e1 / e2 <= 4.5

    def test_unperturbed_limit(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 1))
        traj = solve_volterra(k, f, 1e-12, 1.0, 100)
        assert np.max(np.abs(traj.values - 1.0)) <= 1e-10

    def test_growing_kernel_m1(self):
        k = kernel_for(sinh_shape(1.0, 1.0))  # sigma = 2
        f = forcing_for(monomial(1.0, 1))
        traj = solve_volterra(k, f, 1.0, 1.0, 2000)
        err = max(abs(traj(t) - 0.5 * (1 + math.exp(2 * t))) for t in (0.5, 1.0))
        assert err <= 1e-3

    def test_initial_node_uses_limit(self):
        k = kernel_for(linear_shape(1.0))
        for m, want in ((1, 0.7), (3, 0.0)):
            f = forcing_for(monomial(0.7, m))
            traj = solve_volterra(k, f, 1.0, 1.0, 10)
            assert traj.values[0] == want

    def test_even_m_numeric_route(self):
        # no closed form exists; the solver still satisfies the equation
        spec = monomial_spec(linear_shape(1.0), 1.0, 2)
        k = kernel_for(spec.phi)
        f = forcing_for(spec.h)
        traj = solve_volterra(k, f, 1.0, 1.0, 800)
        res = volterra_residual(traj, k, f, 1.0, [0.25, 0.5, 1.0])
        assert res <= 5e-4

    @pytest.mark.parametrize("solve", [solve_volterra, solve_resolvent])
    @pytest.mark.parametrize(
        "nu, t_end, n_steps",
        [
            (-1.0, 1.0, 100),
            (math.nan, 1.0, 100),  # nan <= 0 is false: an all-nan flux unchecked
            (math.inf, 1.0, 100),
            (1.0, -1.0, 100),
            (1.0, math.inf, 100),
            (1.0, math.nan, 100),
            (1.0, 1.0, 1),
            (1.0, 2.0, 8.5),  # unchecked: 10 nodes, the last step short, a finite wrong flux
            (1.0, 2.0, 8.0),
            (1.0, 2.0, "8"),
        ],
        ids=["nu-neg", "nu-nan", "nu-inf", "t-neg", "t-inf", "t-nan", "n-one",
             "n-fraction", "n-float", "n-str"],
    )
    def test_domain_errors(self, solve, nu, t_end, n_steps):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 1))
        with pytest.raises(ValueError):
            solve(k, f, nu, t_end, n_steps)

    def test_integer_like_n_steps(self):
        k, f = kernel_for(linear_shape(1.0)), forcing_for(monomial(1.0, 3))
        want = solve_volterra(k, f, 1.0, 2.0, 8)
        got = solve_volterra(k, f, 1.0, 2.0, np.int64(8))
        assert got.t.tobytes() == want.t.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


class TestResolvent:
    def test_resolvent_kernel_phi1(self):
        k = kernel_for(linear_shape(1.0))
        ones = Forcing(monomial(1.0, 1))
        r = solve_volterra(k, ones, 1.0, 2.0, 1000)
        assert np.max(np.abs(r.values - np.exp(-r.t))) <= 1e-6

    def test_m1_reduces_to_scaled_resolvent(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(2.0, 1))
        v = solve_resolvent(k, f, 1.0, 2.0, 500)
        assert max(abs(v(t) - 2.0 * math.exp(-t)) for t in (0.5, 2.0)) <= 1e-4

    def test_m3_matches_closed_form(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 3))
        v = solve_resolvent(k, f, 1.0, 2.0, 1000)
        err = max(abs(v(t) - 6 * (1 - math.exp(-t))) for t in (0.5, 1.0, 2.0))
        assert err <= 1e-4

    def test_agrees_with_direct_solver(self):
        k = kernel_for(sin_shape(2.0, 1.0))
        f = forcing_for(monomial(1.0, 3))
        n = 500
        v1 = solve_resolvent(k, f, 1.0, 1.5, n)
        v2 = solve_volterra(k, f, 1.0, 1.5, n)
        direct_err = 1e-4  # discretization scale at n = 500
        assert np.max(np.abs(v1.values - v2.values)) <= 5 * direct_err

    def test_fractional_exponent_rejected(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 2))  # exponent 1/2
        with pytest.raises(ValueError):
            solve_resolvent(k, f, 1.0, 1.0, 100)


@functools.cache
def _kernel_at(k, s):
    """``kernel_eval`` remembered by offset: later steps meet the same offsets again."""
    return kernel_eval(k, s)


def _reference_moments(k, dt, offsets):
    """Per-step product-trapezoid weights, rebuilt for every step."""
    if k.quadrature:
        limit = _kernel_at(k, 1e-12)
        r_right = np.array([_kernel_at(k, s) if s > 0 else limit for s in offsets])
        r_left = np.array([_kernel_at(k, s + dt) for s in offsets])
        return 0.5 * dt * r_left, 0.5 * dt * r_right
    kappa, rho = k.exp_parts
    if rho == 0.0:
        w = 0.5 * dt * kappa * np.ones_like(offsets)
        return w, w
    m0 = exp_moment(0, -rho, dt)
    m1 = exp_moment(1, -rho, dt) / dt
    base = kappa * np.exp(rho * (offsets + dt))
    return base * (m0 - m1), base * m1


def reference_solve(k, f, nu, t_end, n):
    """The O(n^2) product-trapezoid loop the fast solver must reproduce."""
    dt = t_end / n
    t = np.linspace(0.0, t_end, n + 1)
    v = np.zeros(n + 1)
    v[0] = f.initial_value
    for i in range(1, n + 1):
        w_left, w_right = _reference_moments(k, dt, t[i] - t[1 : i + 1])
        conv = float(np.dot(w_left, v[:i])) + float(np.dot(w_right[:-1], v[1:i]))
        v[i] = (forcing_eval(f, t[i]) - nu * conv) / (1.0 + nu * float(w_right[-1]))
    return v


def reference_resolvent(k, f, nu, t_end, n):
    """Resolvent form with one trapezoid rule per node."""
    ones = Forcing(monomial(1.0, 1))
    r = reference_solve(k, ones, nu, t_end, n)
    t = np.linspace(0.0, t_end, n + 1)
    v = f.initial_value * r
    p = f.exponent
    if p >= 1:
        for i in range(1, n + 1):
            kern = f.c * p * (t[i] - t[: i + 1]) ** (p - 1.0) * r[: i + 1]
            v[i] += float(np.trapezoid(kern, dx=t_end / n))
    return v


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture
def cold_tables():
    """Both quadrature-table caches emptied, so the test sees every table built."""
    volterra._kernel_table.cache_clear()
    volterra._forcing_table.cache_clear()


def counting_quadrature(monkeypatch):
    """The node count of every vector quadrature from now on, in call order."""
    sizes = []
    vector = green.quad_semiinfinite_nodes

    def counting(integrand, tvars, **kwargs):
        sizes.append(np.size(tvars))
        return vector(integrand, tvars, **kwargs)

    monkeypatch.setattr(green, "quad_semiinfinite_nodes", counting)
    return sizes


class TestFastPathsMatchReference:
    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.5), sinh_shape(2.0, 1.0), sin_shape(1.5, 0.5)],
        ids=["phi1", "phi2-lam2", "phi3"],
    )
    def test_analytic_kernels(self, shape, m):
        # t_end = 2 with lambda = 2 spans the largest e^{rho t} growth, e^8
        k, f = kernel_for(shape), forcing_for(monomial(0.8, m))
        got = solve_volterra(k, f, 0.7, 2.0, 400).values
        assert rel_diff(got, reference_solve(k, f, 0.7, 2.0, 400)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 3])
    def test_quadrature_kernel(self, m):
        k, f = kernel_for(sin_shape(1.0, 2.0), quadrature=True), forcing_for(monomial(1.0, m))
        got = solve_volterra(k, f, 1.0, 1.5, 16).values
        assert rel_diff(got, reference_solve(k, f, 1.0, 1.5, 16)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(2.0, 1.0), sin_shape(1.5, 0.5)],
        ids=["phi1", "phi2-lam2", "phi3"],
    )
    def test_resolvent(self, shape, m):
        # m = 1, 3, 5, 7 give the forcing exponents p = 0, 1, 2, 3
        k, f = kernel_for(shape), forcing_for(monomial(0.8, m))
        got = solve_resolvent(k, f, 1.0, 2.0, 300).values
        assert rel_diff(got, reference_resolvent(k, f, 1.0, 2.0, 300)) <= 1e-12

    def test_resolvent_quadrature_kernel(self):
        # n = 200 spans four blocks of the tabulated solve's forward substitution
        k, f = kernel_for(sin_shape(1.0, 2.0), quadrature=True), forcing_for(monomial(0.8, 5))
        got = solve_resolvent(k, f, 1.0, 2.0, 200).values
        assert rel_diff(got, reference_resolvent(k, f, 1.0, 2.0, 200)) <= 1e-12

    def test_quadrature_kernel_tabulated_once(self, monkeypatch, cold_tables):
        # one vector quadrature per table, and no per-node quadrature at all
        def per_node(*args, **kwargs):
            raise AssertionError("per-node quadrature inside a solve")

        sizes = []
        vector = green.quad_semiinfinite_nodes

        def counting(integrand, tvars, **kwargs):
            sizes.append(np.size(tvars))
            return vector(integrand, tvars, **kwargs)

        monkeypatch.setattr(green, "quad_semiinfinite", per_node)
        monkeypatch.setattr(volterra, "kernel_eval", per_node)
        monkeypatch.setattr(volterra, "forcing_eval", per_node)
        monkeypatch.setattr(green, "quad_semiinfinite_nodes", counting)
        k = kernel_for(sin_shape(1.0, 2.0), quadrature=True)
        f = forcing_for(monomial(1.0, 3), quadrature=True)
        solve_volterra(k, f, 1.0, 1.5, 16)
        assert sorted(sizes) == [16, 16 + 1]  # forcing nodes, kernel offsets


class TestTableMemo:
    """The quadrature tables are memoised per value of (kernel or forcing, t_end, n_steps)."""

    def quad_pair(self, lam=1.0):
        return (
            kernel_for(sin_shape(lam, 2.0), quadrature=True),
            forcing_for(monomial(1.0, 3), quadrature=True),
        )

    def test_repeat_with_equal_objects_does_no_quadrature(self, monkeypatch, cold_tables):
        k, f = self.quad_pair()
        first = solve_volterra(k, f, 1.0, 1.5, 16)
        sizes = counting_quadrature(monkeypatch)
        k2, f2 = self.quad_pair()
        assert k2 is not k and f2 is not f
        again = solve_volterra(k2, f2, 0.3, 1.5, 16)  # nu is no part of a table
        assert sizes == []
        assert again.values.tobytes() != first.values.tobytes()
        assert solve_volterra(k2, f2, 1.0, 1.5, 16).values.tobytes() == first.values.tobytes()
        assert sizes == []

    def test_forcing_table_shared_across_kernels(self, monkeypatch, cold_tables):
        k, f = self.quad_pair()
        solve_volterra(k, f, 1.0, 1.5, 16)
        sizes = counting_quadrature(monkeypatch)
        solve_volterra(kernel_for(linear_shape(2.0), quadrature=True), f, 1.0, 1.5, 16)
        assert sizes == [16 + 1]  # the new kernel's offsets only
        solve_volterra(kernel_for(linear_shape(2.0)), f, 1.0, 1.5, 16)
        assert sizes == [16 + 1]

    def test_resolvent_shares_the_kernel_table(self, monkeypatch, cold_tables):
        k, _ = self.quad_pair()
        solve_resolvent(k, forcing_for(monomial(1.0, 3)), 1.0, 1.5, 16)
        sizes = counting_quadrature(monkeypatch)
        solve_resolvent(k, forcing_for(monomial(0.5, 5)), 2.0, 1.5, 16)
        assert sizes == []

    @pytest.mark.parametrize(
        "lam, t_end, n, want",
        [(1.0, 1.25, 16, [16, 17]), (1.0, 1.5, 20, [20, 21]), (1.5, 1.5, 16, [17])],
        ids=["t_end", "n_steps", "shape"],
    )
    def test_other_key_misses(self, monkeypatch, cold_tables, lam, t_end, n, want):
        k, f = self.quad_pair()
        solve_volterra(k, f, 1.0, 1.5, 16)
        sizes = counting_quadrature(monkeypatch)
        solve_volterra(self.quad_pair(lam)[0], f, 1.0, t_end, n)
        assert sorted(sizes) == want

    def test_tables_are_read_only(self):
        k, f = self.quad_pair()
        for table in (volterra._kernel_table(k, 1.5, 16), volterra._forcing_table(f, 1.5, 16)):
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_mutating_a_trajectory_leaves_later_solves(self):
        k, f = self.quad_pair()
        first = solve_volterra(k, f, 1.0, 1.5, 16)
        t_bytes, v_bytes = first.t.tobytes(), first.values.tobytes()
        first.t[:] = math.nan
        first.values[:] = math.nan
        again = solve_volterra(k, f, 1.0, 1.5, 16)
        assert again.t.flags.writeable and again.values.flags.writeable
        assert (again.t.tobytes(), again.values.tobytes()) == (t_bytes, v_bytes)

    def test_solved_objects_still_pickle(self):
        # the memo lives in the module, keyed by value: nothing is stored on k or f
        k, f = self.quad_pair()
        solve_volterra(k, f, 1.0, 1.5, 16)
        assert pickle.loads(pickle.dumps((k, f))) == (k, f)

    def test_caches_are_bounded(self):
        for table, make in (
            (volterra._kernel_table, lambda i: kernel_for(linear_shape(1.0 + i), quadrature=True)),
            (volterra._forcing_table, lambda i: forcing_for(monomial(1.0 + i, 3), quadrature=True)),
        ):
            maxsize = table.cache_parameters()["maxsize"]
            for i in range(maxsize + 5):
                table(make(i), 1.0, 2)
            assert table.cache_info().currsize <= maxsize


# Fields a table may read, drawn with both signed zeros where the admissible
# box holds 0 (separated sigma, quadratic nu and a, the companion's m = 0, and
# every field the kind ignores), and with whole numbers that a twin holds as int.
_signed_zeros = st.sampled_from([0.0, -0.0])
_whole = st.integers(1, 3).map(float)


def _rate(lo, hi):
    return st.floats(lo, hi) | _whole


def _free():
    return _signed_zeros | st.floats(-2.0, 2.0)


def _nonzero():
    return st.floats(0.25, 2.0) | st.floats(-2.0, -0.25) | _whole


@st.composite
def quadrature_kernels(draw):
    kind = draw(st.sampled_from(list(ShapeKind)))
    fields = dict(lam=draw(_free()), mu=draw(_free()), sigma=draw(_free()),
                  delta=draw(_free()), scale=draw(_free()))
    if kind in (ShapeKind.LINEAR_X, ShapeKind.NEG_SINH, ShapeKind.NEG_SIN):
        fields["lam"] = draw(_rate(0.25, 1.5))
    if kind in (ShapeKind.NEG_SINH, ShapeKind.NEG_SIN):
        fields["mu"] = draw(_rate(0.25, 2.0))
    if kind is ShapeKind.SCALED_SEPARABLE:
        fields.update(delta=draw(_nonzero()), scale=draw(_nonzero()))
    return Kernel(SourceShape(kind, **fields), quadrature=True)


@st.composite
def quadrature_forcings(draw):
    kind = draw(st.sampled_from(list(ProfileKind)))
    fields = dict(eta=draw(_free()), m=draw(_free()), a=draw(_free()), nu=draw(_free()),
                  sigma=draw(_free()), delta=draw(_free()))
    if kind is ProfileKind.MONOMIAL:
        fields.update(eta=draw(_nonzero()), m=draw(_signed_zeros | _rate(1.0, 5.0)))
    if kind is ProfileKind.SCALED_SEPARABLE:
        fields.update(eta=draw(_nonzero()), delta=draw(_nonzero()))
    return Forcing(InitialProfile(kind, **fields), quadrature=True)


def _twin(obj):
    """An equal copy of a kernel or forcing with every zero field's sign flipped
    and every whole-number field held as an int."""
    data = obj.shape if isinstance(obj, Kernel) else obj.profile
    flipped = {}
    for field in dataclasses.fields(data):
        value = getattr(data, field.name)
        if isinstance(value, float) and value == 0.0:
            flipped[field.name] = -value
        elif isinstance(value, float) and value.is_integer():
            flipped[field.name] = int(value)
    data = dataclasses.replace(data, **flipped)
    twin = Kernel(data, quadrature=True) if isinstance(obj, Kernel) else Forcing(data, quadrature=True)
    assert twin == obj and twin is not obj
    return twin


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(st.just("kernel"), quadrature_kernels()),
        st.tuples(st.just("forcing"), quadrature_forcings()),
    ),
    st.floats(0.25, 2.0),
    st.integers(2, 24),
)
def test_warm_table_equals_cold_bit_for_bit(drawn, t_end, n):
    which, obj = drawn
    table = volterra._kernel_table if which == "kernel" else volterra._forcing_table
    twin = _twin(obj)
    table.cache_clear()
    table(obj, t_end, n)
    warm = table(twin, t_end, n)  # a hit on the entry obj made
    assert table.cache_info().hits == 1
    table.cache_clear()
    cold = table(twin, t_end, n)
    assert warm.tobytes() == cold.tobytes()


def per_step_solve(k, f, nu, t_end, n):
    """The per-step recurrence loop that _solve_separable's blocked scan replaces."""
    kappa, rho = k.exp_parts
    dt = t_end / n
    t = np.linspace(0.0, t_end, n + 1)
    if rho == 0.0:
        m0, m1, g = dt, 0.5 * dt, 1.0
    else:
        m0, m1, g = exp_moment(0, -rho, dt), exp_moment(1, -rho, dt) / dt, math.exp(rho * dt)
    w_left, w_right = kappa * (m0 - m1), kappa * g * m1
    denom = 1.0 + nu * w_right
    v = np.empty(n + 1)
    v[0] = f.initial_value
    known = (forcing_values(f, t[1:]) - nu * w_left * v[0] * np.exp(rho * t[1:])) / denom
    damp = nu * (w_left + w_right) / denom
    hist = 0.0
    for i, x in enumerate(known.tolist(), 1):
        v[i] = x - damp * hist
        hist = g * (hist + v[i])
    return v


def convolve_resolvent(k, f, nu, t_end, n):
    """solve_resolvent with its convolution done by a direct np.convolve."""
    ones = Forcing(monomial(1.0, 1))
    r = solve_volterra(k, ones, nu, t_end, n).values
    t = np.linspace(0.0, t_end, n + 1)
    p = f.exponent
    d = f.c * p * t ** (p - 1.0)
    conv = np.convolve(d, r)[: n + 1]
    ends = d * r[0] + d[0] * r
    v = f.initial_value * r
    v[1:] += (t_end / n) * (conv[1:] - 0.5 * ends[1:])
    return v


def per_step_tabulated(k, f, nu, t_end, n):
    """The per-step dot-product loop that _solve_tabulated's triangular solve replaces."""
    dt = t_end / n
    t = np.linspace(0.0, t_end, n + 1)
    forcing = forcing_values(f, t[1:])
    r = kernel_values(k, t)
    v = np.zeros(n + 1)
    v[0] = f.initial_value
    denom = 1.0 + nu * 0.5 * dt * float(r[0])
    for i in range(1, n + 1):
        # 0.5 dt R(t_i - t_j) against v_j for j < i, and against v_{j+1} for j < i - 1
        conv = 0.5 * dt * (
            float(np.dot(r[i:0:-1], v[:i])) + float(np.dot(r[i - 1 : 0 : -1], v[1:i]))
        )
        v[i] = (forcing[i - 1] - nu * conv) / denom
    return v


class TestArrayKernels:
    @pytest.mark.parametrize("n", [16, 32, 63, 64, 65, 129, 400, 1000])
    @pytest.mark.parametrize(
        "shape, m",
        [(linear_shape(1.0), 3), (sinh_shape(1.0, 1.0), 1), (sin_shape(1.0, 2.0), 1)],
        ids=["phi1-m3", "phi2-m1", "phi3-m1"],
    )
    def test_triangular_solve_matches_per_step_loop(self, shape, m, n):
        # m = 1 starts from V(0+) = eta, which enters every row's right side;
        # n = 63, 64, 65 and 129 sit at the edges of the 64-row substitution
        # blocks; n = 1000 carries 15 blocks of history through the convolution
        k, f = kernel_for(shape, quadrature=True), forcing_for(monomial(1.0, m))
        got = solve_volterra(k, f, 1.0, 1.5, n).values
        assert rel_diff(got, per_step_tabulated(k, f, 1.0, 1.5, n)) <= 1e-13

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize(
        "shape", [linear_shape(1.5), sinh_shape(2.0, 1.0)], ids=["phi1", "phi2-lam2"]
    )
    def test_scan_matches_per_step_loop(self, shape, m):
        # t_end = 2 with lambda = 2 grows like e^8 over 8000 steps, 125 blocks;
        # 1e-13 is below the 8e-13 that powers of a rounded multiplier reach
        k, f = kernel_for(shape), forcing_for(monomial(0.8, m))
        got = solve_volterra(k, f, 0.7, 2.0, 8000).values
        assert rel_diff(got, per_step_solve(k, f, 0.7, 2.0, 8000)) <= 1e-13

    @pytest.mark.parametrize("t_end, n", [(10.0, 4), (1000.0, 200)])
    def test_scan_on_coarse_grid(self, t_end, n):
        # nu * kappa * dt > 2 makes the step multiplier g (1 - damp) negative
        k, f = kernel_for(linear_shape(1.0)), forcing_for(monomial(1.0, 3))
        got = solve_volterra(k, f, 1.0, t_end, n).values
        assert rel_diff(got, per_step_solve(k, f, 1.0, t_end, n)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("a", [0.5, -1.1, 1.0])
    def test_linear_scan_block_edges(self, a, n):
        b = np.cos(np.arange(n))
        want, y = [], 0.0
        for x in b.tolist():
            y = a * y + x
            want.append(y)
        got = volterra._linear_scan(a ** np.arange(65.0), b)
        assert got.shape == (n,)
        assert rel_diff(got, np.array(want)) <= 1e-13

    @pytest.mark.parametrize("m", [3, 5, 7])
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(2.0, 1.0), sin_shape(1.5, 0.5)],
        ids=["phi1", "phi2-lam2", "phi3"],
    )
    def test_fft_resolvent_matches_convolve(self, shape, m):
        k, f = kernel_for(shape), forcing_for(monomial(0.8, m))
        got = solve_resolvent(k, f, 1.0, 2.0, 4000).values
        assert rel_diff(got, convolve_resolvent(k, f, 1.0, 2.0, 4000)) <= 1e-12

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.0), sinh_shape(2.0, 1.0), sin_shape(1.5, 0.5)],
        ids=["phi1", "phi2-lam2", "phi3"],
    )
    def test_resolvent_convolution_pointwise(self, shape, m):
        # every entry down to 1e-8 of the largest, not only the largest: a
        # convolution by FFT errs relative to the whole vector and reaches
        # 3e-13 (phi1, m = 3) to 3e-4 (phi2, m = 11) on these entries
        k, f = kernel_for(shape), forcing_for(monomial(0.8, m))
        for nu in (0.3, 1.0, 5.0):
            for n in (300, 4000):
                got = solve_resolvent(k, f, nu, 2.0, n).values
                want = convolve_resolvent(k, f, nu, 2.0, n)
                big = np.abs(want) > 1e-8 * np.max(np.abs(want))
                assert elementwise_rel(got[big], want[big]) <= 1e-13, (nu, n)

    @pytest.mark.parametrize("q", range(6))
    def test_prefix_sum_weights(self, q):
        # sum_{j<=i} (i-j)^q r_j from nested prefix sums, against the direct sum
        r = np.cos(np.arange(40.0))
        sums, got = r, 0.0
        for weight in volterra._prefix_sum_weights(q):
            sums = np.cumsum(sums)
            got = got + weight * sums
        want = [sum((i - j) ** q * r[j] for j in range(i + 1)) for i in range(len(r))]
        assert rel_diff(got, np.array(want)) <= 1e-14

    def test_sinh_kernel_table_to_t50(self):
        # e^{rho t} up to e^{200}; the Gaussian peak at s = 2 sqrt(t) lambda
        # needs bisected panels, so a second round runs
        calls = []

        def integrand(xi):
            calls.append(xi.shape)
            return xi * shape(xi)

        shape = sinh_shape(2.0, 1.0)
        t = np.linspace(0.0, 50.0, 33)[1:]
        got = green.quad_semiinfinite_nodes(integrand, t, growth=shape.growth_rate, tol=1e-12)
        got /= 2.0 * math.sqrt(math.pi) * t ** 1.5
        kappa, rho = kernel_for(shape).exp_parts
        assert elementwise_rel(got, kappa * np.exp(rho * t)) <= 1e-13
        assert len(calls) >= 2

    @pytest.mark.parametrize(
        "case", ["ir-phi1-m3", "ir-phi2-m3", "ir-phi3-m3-dpos", "ir-phi3-m5-d0"]
    )
    def test_one_integrand_call_per_round(self, case, monkeypatch):
        # the quadrature tables of the benchmark's Volterra op, t_end = 2:
        # every call evaluates all open panels at every node, and one or two
        # rounds suffice
        shapes = []
        vector = green.quad_semiinfinite_nodes

        def counting(integrand, tvars, **kwargs):
            def counted(xi):
                shapes.append(xi.shape)
                return integrand(xi)

            return vector(counted, tvars, **kwargs)

        monkeypatch.setattr(green, "quad_semiinfinite_nodes", counting)
        spec = spec_from_dict(catalog.load_case(case)["case"])
        k, f = kernel_for(spec.phi, quadrature=True), forcing_for(spec.h, quadrature=True)
        for values, nodes in (
            (lambda: kernel_values(k, np.linspace(0.0, 2.0, 33)), 33),
            (lambda: forcing_values(f, np.linspace(0.0, 2.0, 401)[1:]), 400),
        ):
            shapes.clear()
            values()
            assert 1 <= len(shapes) <= 2
            assert all(rows % 21 == 0 and cols == nodes for rows, cols in shapes)


def per_node_kernel(k, t):
    """R by one scalar quad_semiinfinite per node, as the tables were built before."""
    shape = k.shape
    return np.array(
        [
            green.quad_semiinfinite(
                lambda xi: xi * math.exp(-xi * xi / (4.0 * s)) * shape(xi),
                center=0.0,
                tvar=s,
                growth=shape.growth_rate,
                tol=1e-12,
            )
            / (2.0 * math.sqrt(math.pi) * s ** 1.5)
            for s in t.tolist()
        ]
    )


def per_node_forcing(f, t):
    """V0 by one scalar quad_semiinfinite per node, as the tables were built before."""
    h = f.profile
    return np.array(
        [
            green.quad_semiinfinite(
                lambda xi: math.exp(-xi * xi / (4.0 * s)) * h.derivative(xi),
                center=0.0,
                tvar=s,
                growth=h.growth_rate,
                tol=1e-12,
            )
            / math.sqrt(math.pi * s)
            for s in t.tolist()
        ]
    )


def elementwise_rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


class TestVectorTablesMatchPerNode:
    @pytest.mark.parametrize(
        "shape",
        [linear_shape(1.5), sinh_shape(2.0, 1.0), sin_shape(1.5, 0.5)],
        ids=["phi1", "phi2-lam2", "phi3"],
    )
    def test_kernel_table(self, shape):
        k = kernel_for(shape, quadrature=True)
        t = np.linspace(0.0, 2.0, 33)
        got = kernel_values(k, t)
        assert elementwise_rel(got[1:], per_node_kernel(k, t[1:])) <= 1e-12
        # the zero offset is R at 1e-12, here against the analytic kernel
        kappa, rho = kernel_for(shape).exp_parts
        assert got[0] == pytest.approx(kappa * math.exp(rho * 1e-12), rel=1e-12)

    @pytest.mark.parametrize(
        "h",
        [
            monomial(0.8, 1),
            monomial(0.8, 3),
            monomial(0.8, 5),
            InitialProfile(ProfileKind.QUADRATIC, nu=1.5, a=0.5),
            separable_profile(0.7, 2.0, 1.3),
            separable_profile(0.7, -2.0, 1.3),
        ],
        ids=["m1", "m3", "m5", "quadratic", "sep-sigma-pos", "sep-sigma-neg"],
    )
    def test_forcing_table(self, h):
        f = forcing_for(h, quadrature=True)
        t = np.linspace(0.0, 2.0, 401)[1:]
        got = forcing_values(f, t)
        assert got.shape == t.shape
        assert elementwise_rel(got, per_node_forcing(f, t)) <= 1e-12

    def test_scalar_wrappers_return_floats(self):
        k = kernel_for(sin_shape(1.5, 0.5), quadrature=True)
        f = forcing_for(monomial(0.8, 1), quadrature=True)
        assert type(kernel_eval(k, 0.5)) is float
        assert type(forcing_eval(f, 0.5)) is float
        assert kernel_eval(k, 0.5) == pytest.approx(per_node_kernel(k, np.array([0.5]))[0], rel=1e-12)
        assert forcing_eval(f, 0.5) == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 5])
    def test_power_law_table(self, m):
        # m = 1 is the constant forcing, which must broadcast to the nodes
        f = forcing_for(monomial(0.8, m))
        t = np.linspace(0.0, 2.0, 9)[1:]
        got = forcing_values(f, t)
        assert got.shape == t.shape
        assert got.tolist() == pytest.approx([forcing_eval(f, s) for s in t.tolist()], rel=1e-15)


class TestResidual:
    def test_exact_trajectory(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        traj = flux_closed_form(spec)
        res = volterra_residual(
            traj, kernel_for(spec.phi), forcing_for(spec.h), 1.0, np.linspace(0.1, 5, 10)
        )
        assert res <= 1e-10

    def test_detects_perturbation(self):
        spec = monomial_spec(linear_shape(1.0), 1.0, 3)
        traj = flux_closed_form(spec)
        bumped = ClosedFormTrajectory(
            poly=(traj.poly[0] + 0.1, *traj.poly[1:]), exps=traj.exps
        )
        res = volterra_residual(
            bumped, kernel_for(spec.phi), forcing_for(spec.h), 1.0, np.linspace(0.1, 1, 5)
        )
        assert res >= 0.05

    def test_zero_trajectory(self):
        zero = ClosedFormTrajectory(poly=(0.0,))
        f = Forcing(monomial(0.0, 1))
        res = volterra_residual(zero, kernel_for(linear_shape(1.0)), f, 1.0, [0.5, 1.0])
        assert res == 0.0

    def test_nan_residual_is_reported(self):
        # a nan at any sample makes the residual nan, so its check fails
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)
        k, f = kernel_for(spec.phi), forcing_for(spec.h)
        res = volterra_residual(ClosedFormTrajectory(poly=(math.nan,)), k, f, 1.0, [0.5, 1.0])
        assert math.isnan(res)
        assert not CheckRecord("volterra_residual", res, 0.0, 1e-8).passed
        # finite at t = 0.5, inf - inf = nan at t = 2
        late_nan = ClosedFormTrajectory(poly=(0.0,), exps=((1.0, 400.0), (-1.0, 400.0)))
        assert math.isfinite(volterra_residual(late_nan, k, f, 1.0, [0.5]))
        assert math.isnan(volterra_residual(late_nan, k, f, 1.0, [0.5, 2.0]))

    def test_construction_refuses_a_nan_residual(self, monkeypatch):
        # a memo hit would return the flux without running the patched check
        closed_form._flux_closed_form_of.cache_clear()
        monkeypatch.setattr(volterra, "volterra_residual", lambda *args: math.nan)
        with pytest.raises(ConstructionError, match="Volterra residual"):
            flux_closed_form(monomial_spec(sin_shape(2.0, 1.0), 1.0, 3))

    def test_closed_form_convolution_at_large_t(self):
        # lambda^2 t = 800 for the sine kernel: the pre-scaled time factor,
        # where exp(-800) times the unscaled weighted integral was nan
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 3)
        traj = flux_closed_form(spec)
        k, f = kernel_for(spec.phi), forcing_for(spec.h)
        conv = volterra._convolution(k, traj)(200.0)
        assert math.isfinite(conv)
        assert conv == pytest.approx(forcing_eval(f, 200.0) - traj(200.0), rel=1e-12)
        scale = 1.0 + abs(traj(200.0))
        assert volterra_residual(traj, k, f, 1.0, [170.0, 200.0]) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "lam, mu, nu, m, t",
        [
            (2.0, 1.0, 1.0, 3, 200.0),
            (0.9, 2.5, 0.2, 1, 60.0),
            (1.7, 1.6, 1.8, 5, 224.0),
            (3.0, 0.3, 2.0, 7, 40.0),
            (2.2, 0.8, 1.3, 3, 100.0),
        ],
    )
    def test_closed_form_convolution_against_mpmath(self, lam, mu, nu, m, t):
        # lambda^2 t from 36 to 810, against a 50-digit sum of exact integrals
        import mpmath

        mpmath.mp.dps = 50
        spec = monomial_spec(sin_shape(lam, mu), 1.0, m, nu=nu)
        traj = flux_closed_form(spec)
        kappa, rho = kernel_for(spec.phi).exp_parts
        a, tm = -mpmath.mpf(rho), mpmath.mpf(t)
        moment, total = (mpmath.exp(a * tm) - 1) / a, mpmath.mpf(0)
        for j, coef in enumerate(traj.poly):  # int_0^t tau^j e^{a tau}, by parts
            if j > 0:
                moment = tm ** j * mpmath.exp(a * tm) / a - j / a * moment
            total += coef * moment
        for amp, r in traj.exps:
            total += amp * (mpmath.exp((r + a) * tm) - 1) / (r + a)
        want = kappa * mpmath.exp(-a * tm) * total
        got = volterra._convolution(kernel_for(spec.phi), traj)(t)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_sampled_trajectory_residual(self):
        k = kernel_for(linear_shape(1.0))
        f = forcing_for(monomial(1.0, 1))
        traj = solve_volterra(k, f, 1.0, 2.0, 800)
        res = volterra_residual(traj, k, f, 1.0, [0.5, 1.0, 2.0])
        assert res <= 5e-6

    def test_sampled_residual_quadrature_kernel_matches_per_node(self):
        # a trajectory off the solution, so the residual is O(1), not roundoff;
        # s = 0.5 and 1.0 fall between nodes, where the integral runs on from
        # the last node to s itself
        k = kernel_for(sin_shape(1.0, 2.0), quadrature=True)
        f = forcing_for(monomial(1.0, 3))
        t = np.linspace(0.0, 1.5, 17)
        traj = SampledTrajectory(t=t, values=np.cos(t))
        for s in [0.5, 1.0, 1.5]:
            ts = np.append(t[t < s - 1e-12], s)
            vs = np.append(np.cos(ts[:-1]), traj(s))
            kern = [kernel_eval(k, s - u) if s - u > 0 else kernel_eval(k, 1e-12) for u in ts]
            conv = float(np.trapezoid(np.array(kern) * vs, ts))
            want = abs(float(traj(s)) - forcing_eval(f, s) + conv)
            assert volterra_residual(traj, k, f, 1.0, [s]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("case", ["ir-phi1-m3", "ir-phi2-m3", "ir-phi3-m3-dpos"])
    def test_sampled_residual_between_nodes(self, case):
        # the convolution runs up to t itself, not to the node before it:
        # stopping at the node left 1.2e-2 to 7.5e-2 at these midpoints
        spec = spec_from_dict(catalog.load_case(case)["case"])
        k, f, nu = kernel_for(spec.phi), forcing_for(spec.h), spec.flux.nu
        traj = solve_volterra(k, f, nu, 2.0, 400)
        nodes = (100, 200, 300)
        midpoints = [float(traj.t[i]) + 0.5 * traj.step for i in nodes]
        assert volterra_residual(traj, k, f, nu, midpoints) <= 5e-4
        # at a node, the trapezoid of kappa e^{rho (t - tau)} V over the nodes
        kappa, rho = k.exp_parts
        scale = float(np.max(np.abs(traj.values)))
        for i in nodes + (400,):
            s, ts, vs = float(traj.t[i]), traj.t[: i + 1], traj.values[: i + 1]
            conv = float(np.trapezoid(kappa * np.exp(rho * (s - ts)) * vs, ts))
            want = abs(float(traj.values[i]) - forcing_eval(f, s) + nu * conv)
            assert abs(volterra_residual(traj, k, f, nu, [s]) - want) <= 1e-12 * scale

    def test_quadrature_kernel_of_a_closed_form_flux_is_refused(self):
        spec = monomial_spec(sin_shape(1.0, 2.0), 1.0, 3)
        k = kernel_for(spec.phi, quadrature=True)
        with pytest.raises(ValueError, match="no exponential form"):
            volterra_residual(flux_closed_form(spec), k, forcing_for(spec.h), 1.0, [0.5])


class TestSampledTrajectory:
    def test_interpolation(self):
        traj = SampledTrajectory(t=np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 2.0, 4.0]))
        assert traj(0.5) == 1.0
        assert traj.initial_value == 0.0

    def test_weighted_integral_matches_closed(self):
        t = np.linspace(0, 2, 4001)
        traj = SampledTrajectory(t=t, values=np.exp(-t))
        closed = ClosedFormTrajectory(poly=(0.0,), exps=((1.0, -1.0),))
        # rho = -20 takes the closed form's pre-scaled branch at t = 2 (-rho t = 40)
        for rho in (0.5, 0.0, -1.0, -20.0):
            for t_end, factor in ((2.0, 1.0), (1.3, -0.7)):
                a = traj.weighted_flux_integral(rho, t_end, factor=factor)
                b = closed.weighted_flux_integral(rho, t_end, factor=factor)
                assert a == pytest.approx(b, abs=5e-7)

    def test_weighted_integral_overflow_names_the_time_factor(self):
        t = np.linspace(0, 2, 401)
        traj = SampledTrajectory(t=t, values=np.exp(-t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"time factor exp\(400 t\) overflows at t = 2"):
                traj.weighted_flux_integral(400.0, 2.0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            SampledTrajectory(t=np.array([0.0]), values=np.array([1.0]))


# The benchmark's volterra op: its four solves and its error bounds against
# the closed-form flux, copied from perfbench/workloads.py
# (VOLTERRA_CASES, VOLTERRA_T_END, VOLTERRA_REL_ERR_BOUNDS), not imported, so
# the suite guards the op on its own.
BENCH_VOLTERRA_T_END = 2.0
BENCH_VOLTERRA_BOUNDS = {
    "analytic": 1e-7,
    "resolvent": 1e-6,
    "quad_kernel": 5e-2,
    "quad_forcing": 1e-4,
}


@pytest.mark.parametrize("case", ["ir-phi1-m3", "ir-phi2-m3", "ir-phi3-m3-dpos", "ir-phi3-m5-d0"])
def test_benchmark_volterra_solves_meet_their_bounds(case):
    spec = spec_from_dict(catalog.load_case(case)["case"])
    nu, t_end = spec.flux.nu, BENCH_VOLTERRA_T_END
    kernel, forcing = kernel_for(spec.phi), forcing_for(spec.h)
    solves = {
        "analytic": solve_volterra(kernel, forcing, nu, t_end, 8000),
        "resolvent": solve_resolvent(kernel, forcing, nu, t_end, 4000),
        "quad_kernel": solve_volterra(
            kernel_for(spec.phi, quadrature=True), forcing, nu, t_end, 32
        ),
        "quad_forcing": solve_volterra(
            kernel, forcing_for(spec.h, quadrature=True), nu, t_end, 400
        ),
    }
    reference = flux_closed_form(spec)
    for solver, traj in solves.items():
        assert rel_diff(traj.values, reference(traj.t)) <= BENCH_VOLTERRA_BOUNDS[solver], solver
