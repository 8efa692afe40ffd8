"""The value memos of the closed-form flux, its time factor W(t) and its
scalar values V(t).

``flux_closed_form`` is memoised per value of (spec, check).
``ClosedFormTrajectory.time_factor`` is memoised per value of (flux, rho,
factor), and each binding memoises its values per t.  A scalar V(t) is
memoised per value of (flux, t).  A hit must return the bits and the type a
fresh computation returns, and a call that raises must store nothing.
"""

import collections
import dataclasses
import math
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import linear_law, monomial, sin_shape
from fluxheat import bench, catalog, closed_form, green, specfun, trajectory, volterra
from fluxheat.closed_form import ConstructionError, Provenance, flux_closed_form, solution_for
from fluxheat.problem import ProblemSpec, spec_from_dict
from fluxheat.trajectory import ClosedFormTrajectory

TF_MEMO = trajectory._time_factor_of
V_MEMO = trajectory._scalar_value_of
FLUX_MEMO = closed_form._flux_closed_form_of

# Every value memo of the package (``test_ownership`` lists them all).
ALL_MEMOS = (
    bench._t_ode_samples_of,
    FLUX_MEMO,
    green._green_quad_of,
    specfun._exp_moment_of,
    TF_MEMO,  # its bindings' memos go with it
    V_MEMO,
    volterra._forcing_table,
    volterra._kernel_table,
)


def clear_all_memos():
    for memo in ALL_MEMOS:
        memo.cache_clear()


def same(a, b) -> bool:
    """Equal bits and equal type: a hit must be indistinguishable from a miss."""
    return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)


def integral_rep_specs():
    """The problem-P spec of every distinct integral-representation flux of
    the catalog, the companion cases' base problems among them."""
    first = {}
    for cid, cfg in catalog.iter_cases():
        spec = spec_from_dict(cfg["case"]).as_p()
        if solution_for(spec).provenance is Provenance.INTEGRAL_REP:
            first.setdefault(spec, cid)
    return [pytest.param(spec, id=cid) for spec, cid in first.items()]


INTEGRAL_REP_SPECS = integral_rep_specs()


def outcome(V, rho, t, factor):
    """W's value, or the type of what it raised."""
    try:
        return V.weighted_flux_integral(rho, t, factor)
    except OverflowError as exc:
        return type(exc)


def w_keys(spec):
    """(rho, t, factor) keys over float and numpy t, t = 0, factor 1 and
    kappa, and for a decaying Green weight (rho < 0) t past -rho t = 30,
    where the pre-scaled sum takes over."""
    kappa, rho = spec.phi.semigroup
    times = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
    if rho < 0.0:
        times += [31.0 / -rho, 40.0 / -rho]
    times += [np.float64(t) for t in times]
    factors = (1.0,) if kappa == 1.0 else (1.0, kappa)
    return [(rho, t, factor) for t in times for factor in factors]


def test_the_catalog_has_fifteen_integral_rep_fluxes():
    assert len(INTEGRAL_REP_SPECS) == 15
    assert sum(spec.phi.semigroup[1] < 0.0 for spec in (p.values[0] for p in INTEGRAL_REP_SPECS)) > 0


def fresh_w(V, rho, t, factor):
    """factor * W(t) computed afresh, past both levels of the memo."""
    return TF_MEMO.__wrapped__(V, rho, factor, math.copysign(1.0, factor)).__wrapped__(t)


def inner_info(bindings):
    """(hits, misses, currsize) summed over the bindings' memos of t."""
    infos = [W.cache_info() for W in bindings]
    return tuple(sum(getattr(i, name) for i in infos) for name in ("hits", "misses", "currsize"))


class TestTimeFactorMemo:
    @pytest.mark.parametrize("spec", INTEGRAL_REP_SPECS)
    def test_a_warm_time_factor_is_the_cold_one(self, spec):
        V = flux_closed_form(spec)
        keys = w_keys(spec)
        TF_MEMO.cache_clear()
        cold = [outcome(V, *key) for key in keys]
        bindings = [V.time_factor(rho, factor) for rho, factor in {(k[0], k[2]) for k in keys}]
        assert TF_MEMO.cache_info().currsize == len(bindings)
        assert inner_info(bindings)[0] == 0
        warm = [outcome(V, *key) for key in keys]
        assert inner_info(bindings)[0] == sum(isinstance(c, float) for c in cold)
        fresh = [fresh_w(V, *key) for key in keys]
        for key, c, w, f in zip(keys, cold, warm, fresh):
            assert same(c, w) and same(c, f), (key, c, w, f)

    def test_an_overflowing_time_factor_raises_on_every_call(self):
        V = ClosedFormTrajectory(poly=(0.0,), exps=((1.0, -1.0),))
        TF_MEMO.cache_clear()
        for _ in range(2):
            with pytest.raises(OverflowError, match=r"time factor exp\(400 t\) overflows at t = 2"):
                V.weighted_flux_integral(400.0, 2.0)
        # the binding is kept, and stores no value
        assert TF_MEMO.cache_info().currsize == 1
        assert inner_info([V.time_factor(400.0)])[1:] == (2, 0)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_a_zero_factor_keeps_its_sign(self, first):
        V = ClosedFormTrajectory(poly=(1.0,))  # W > 0
        TF_MEMO.cache_clear()
        for factor in (first, -first):
            got = V.weighted_flux_integral(-1.0, 2.0, factor)
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, factor)
        assert TF_MEMO.cache_info().currsize == 2
        assert V.time_factor(-1.0, 0.0) is not V.time_factor(-1.0, -0.0)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_keys_equal_but_for_a_zero_sign_agree_with_a_fresh_computation(self, first):
        # rho = +-0 and t = +-0 share a key: W reads neither zero's sign
        V = ClosedFormTrajectory(poly=(0.0, 1.5), exps=((-0.0, 0.0), (2.0, -0.0)))
        keys = [(rho, t) for rho in (first, -first) for t in (first, -first, 1.25)]
        TF_MEMO.cache_clear()
        for rho, t in keys:
            for factor in (1.0, first, -first):
                fresh = fresh_w(V, rho, t, factor)
                assert same(V.weighted_flux_integral(rho, t, factor), fresh), (rho, t, factor)

    def test_int_and_float_arguments_are_kept_apart(self):
        V = ClosedFormTrajectory(poly=(1.0,))
        TF_MEMO.cache_clear()
        W = V.time_factor(0.5)
        for t in (2.0, 2, np.float64(2.0)):
            V.weighted_flux_integral(0.5, t)
        assert W.cache_info().misses == 3 and W.cache_info().currsize == 3
        for rho in (0.5, 0, np.float64(0.5)):
            V.time_factor(rho)
        assert TF_MEMO.cache_info().currsize == 3

    def test_an_evicted_binding_bound_again_gives_the_same_bits(self):
        spec = INTEGRAL_REP_SPECS[-1].values[0]
        V = flux_closed_form(spec)
        kappa, rho = spec.phi.semigroup
        times = [0.1, 0.5, 1.0, 2.0, 5.0, 31.0 / abs(rho)]
        TF_MEMO.cache_clear()
        first = V.time_factor(rho, kappa)
        before = [outcome(V, rho, t, kappa) for t in times]
        for i in range(TF_MEMO.cache_info().maxsize):  # evict it
            V.time_factor(rho + 1.0 + i, kappa)
        again = V.time_factor(rho, kappa)
        assert again is not first and again.cache_info().currsize == 0
        after = [outcome(V, rho, t, kappa) for t in times]
        assert again.cache_info().misses == len(times)
        for t, b, a in zip(times, before, after):
            assert same(b, a) and same(a, first(t)), (t, b, a)


def catalog_fluxes():
    return [flux_closed_form(p.values[0]) for p in INTEGRAL_REP_SPECS]


class TestScalarValueMemo:
    TIMES = [0.0, -0.0, 0.1, 0.7, 2.0, 5.0, 40.0, math.nan, np.float64(0.7), np.float64(-0.0)]

    def test_a_warm_value_is_the_cold_one(self):
        # past the overflow threshold the exponential gives inf with no warning
        overflowing = ClosedFormTrajectory(poly=(1.0, -0.0), exps=((1.0, 2.0),))
        fluxes = catalog_fluxes() + [overflowing]
        times = self.TIMES + [400.0]
        V_MEMO.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = [[V(t) for t in times] for V in fluxes]
            # the two numpy scalars repeat a float key (math.nan is one
            # object, so it hits too, though NaN equals no NaN)
            assert V_MEMO.cache_info().hits == 2 * len(fluxes)
            warm = [[V(t) for t in times] for V in fluxes]
        assert cold[-1][-1] == math.inf
        assert V_MEMO.cache_info().hits == (2 + len(times)) * len(fluxes)
        for V, c_row, w_row in zip(fluxes, cold, warm):
            for t, c, w in zip(times, c_row, w_row):
                fresh = V_MEMO.__wrapped__(V, float(t), math.copysign(1.0, t))
                assert same(c, w) and same(c, fresh) and same(c, V(np.asarray(t))), (V, t)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_a_zero_time_keeps_its_sign(self, first):
        # Horner's 0.0 * t + c with c = -0.0 is +0.0 at t = 0.0, -0.0 at t = -0.0
        V = ClosedFormTrajectory(poly=(-0.0, 1.0))
        V_MEMO.cache_clear()
        for t in (first, -first, first, -first):
            got = V(t)
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, t)
        assert V_MEMO.cache_info().currsize == 2 and V_MEMO.cache_info().hits == 2

    def test_the_array_path_is_not_memoised(self):
        ts = np.array([0.0, 0.1, 0.7, 2.0, 5.0, 40.0])
        for V in catalog_fluxes():
            V_MEMO.cache_clear()
            values = V(ts)
            info = V_MEMO.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
            for t, got in zip(ts.tolist(), values.tolist()):
                assert same(got, V(t)), (V, t)


def near_resonant_spec():
    """Sine shape at delta = nu mu - lambda = 1e-4, m = 7: the expanded flux
    fails its Volterra check (residual about 1e4)."""
    return ProblemSpec(sin_shape(1.0, 1.0), linear_law(1.0 + 1e-4), monomial(1.0, 7))


class TestFluxMemo:
    @pytest.mark.parametrize("spec", INTEGRAL_REP_SPECS)
    def test_a_warm_flux_is_the_cold_one(self, spec):
        FLUX_MEMO.cache_clear()
        cold = flux_closed_form(spec)
        assert flux_closed_form(spec) is cold
        assert FLUX_MEMO.cache_info().hits == 1
        fresh = FLUX_MEMO.__wrapped__(spec, True)
        assert cold == fresh
        assert [struct.pack("<d", c) for c in cold.poly] == [struct.pack("<d", c) for c in fresh.poly]
        for (a, r), (fa, fr) in zip(cold.exps, fresh.exps):
            assert same(a, fa) and same(r, fr)

    def test_a_failing_check_runs_and_raises_on_every_call(self, monkeypatch):
        checks, real = [], volterra.volterra_residual

        def counting(*args):
            checks.append(args)
            return real(*args)

        monkeypatch.setattr(volterra, "volterra_residual", counting)
        spec = near_resonant_spec()
        FLUX_MEMO.cache_clear()
        for calls in (1, 2, 3):
            with pytest.raises(ConstructionError, match="Volterra residual"):
                flux_closed_form(spec)
            assert len(checks) == calls
        assert FLUX_MEMO.cache_info().currsize == 0
        # the unchecked flux is its own key and does not excuse the checked one
        assert isinstance(flux_closed_form(spec, check=False), ClosedFormTrajectory)
        with pytest.raises(ConstructionError, match="Volterra residual"):
            flux_closed_form(spec)
        assert len(checks) == 4

    def test_a_refused_spec_stores_nothing(self):
        spec = spec_from_dict(
            {
                "phi": {"kind": "linear_x"},
                "flux": {"kind": "power_law", "nu": 1.0, "n": 0.5},
                "h": {"kind": "monomial", "m": 3},
            }
        )
        FLUX_MEMO.cache_clear()
        for _ in range(2):
            with pytest.raises(ConstructionError, match="linear law"):
                flux_closed_form(spec)
        assert FLUX_MEMO.cache_info().currsize == 0


def test_a_forcing_computes_its_constant_once(monkeypatch):
    calls, real = [], volterra.monomial_forcing_constant
    monkeypatch.setattr(volterra, "monomial_forcing_constant", lambda *a: calls.append(a) or real(*a))
    f = volterra.forcing_for(monomial(0.7, 5))
    first = f.c
    assert f.c is first and len(calls) == 1
    assert first.hex() == real(0.7, 5.0).hex()
    for change in (lambda: setattr(f, "c", 1.0), lambda: delattr(f, "c")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    # the constant is no field: a forcing still equals and hashes as its data
    other = volterra.forcing_for(monomial(0.7, 5))
    assert f == other and hash(f) == hash(other)


# The first specs of perfbench's seed-1 sweep stream (``sweep_specs`` in
# perfbench/workloads.py), copied here, not imported, so the suite draws them
# on its own: uniform over the integral-representation box.
SWEEP_SHAPES = ("linear_x", "neg_sinh", "neg_sin")
SWEEP_MS = (1, 3, 5, 7)
SWEEP_CHUNK = 1024


def sweep_slice(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    shape = rng.integers(len(SWEEP_SHAPES), size=SWEEP_CHUNK)
    lam, mu, nu = rng.uniform(0.2, 2.0, size=(3, SWEEP_CHUNK))
    m = rng.integers(len(SWEEP_MS), size=SWEEP_CHUNK)
    eta = rng.uniform(0.25, 2.0, size=SWEEP_CHUNK)
    out = []
    for j in range(count):
        kind = SWEEP_SHAPES[shape[j]]
        phi = {"kind": kind, "lambda": float(lam[j])}
        if kind != "linear_x":
            phi["mu"] = float(mu[j])
        out.append(
            {
                "phi": phi,
                "flux": {"kind": "linear", "nu": float(nu[j])},
                "h": {"kind": "monomial", "eta": float(eta[j]), "m": SWEEP_MS[m[j]]},
                "variant": "P",
            }
        )
    return out


def test_sweep_records_do_not_depend_on_what_the_memos_hold():
    # 40 sweep specs with the control checks: on memos emptied before every
    # spec, and after a full catalog pass has filled them
    specs = sweep_slice(1, 40)

    def records(cold: bool):
        out = []
        for i, case in enumerate(specs):
            if cold:
                clear_all_memos()
            result = bench.run_case(case, case_id=f"sweep-1-{i}", extra_checks=("control",))
            out.append((result.csv_rows(), result.reason, result.violations))
        return out

    cold = records(cold=True)
    clear_all_memos()
    for cid, cfg in catalog.iter_cases():
        bench.run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))
    assert TF_MEMO.cache_info().currsize > 0 and V_MEMO.cache_info().currsize > 0 and FLUX_MEMO.cache_info().currsize == 15
    warm = records(cold=False)
    assert warm == cold
    assert sum(len(rows) for rows, _, _ in cold) > 40 * 10


def test_no_numpy_scalar_reaches_the_package_in_a_catalog_pass():
    # The checks sample their points as Python floats, so the closed forms
    # run in float arithmetic.  A numpy scalar gives the same bits at a higher
    # cost per operation, and ``typed`` memos key it apart.  Trace a warm
    # catalog pass and 40 sweep specs with the control checks: no function of
    # the package is called with a numpy scalar positional argument.
    cases = list(catalog.iter_cases())
    specs = sweep_slice(1, 40)

    def catalog_pass():
        for cid, cfg in cases:
            bench.run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))

    clear_all_memos()
    catalog_pass()
    package = str(Path(bench.__file__).parent)
    calls, numpy_calls = [0], collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(package):
            return
        calls[0] += 1
        args = [frame.f_locals[name] for name in code.co_varnames[: code.co_argcount]]
        if any(isinstance(a, np.generic) for a in args):
            numpy_calls[f"{Path(code.co_filename).name}:{code.co_name}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        catalog_pass()
        for i, case in enumerate(specs):
            bench.run_case(case, case_id=f"sweep-1-{i}", extra_checks=("control",))
    finally:
        sys.setprofile(previous)
    assert calls[0] > 50_000
    assert not numpy_calls, numpy_calls.most_common(10)
