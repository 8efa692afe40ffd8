"""The value memos of the closed-form flux and of its time factor W(t).

``flux_closed_form`` is memoised per value of (spec, check) and
``ClosedFormTrajectory.weighted_flux_integral`` per value of (flux, rho, t,
factor).  A hit must return the bits and the type a fresh computation
returns, and a call that raises must store nothing.
"""

import collections
import dataclasses
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import linear_law, monomial, sin_shape
from fluxheat import bench, catalog, closed_form, green, specfun, trajectory, volterra
from fluxheat.closed_form import ConstructionError, Provenance, flux_closed_form, solution_for
from fluxheat.problem import ProblemSpec, spec_from_dict
from fluxheat.trajectory import ClosedFormTrajectory

W_MEMO = trajectory._weighted_flux_integral_of
FLUX_MEMO = closed_form._flux_closed_form_of

# Every value memo of the package (``test_ownership`` lists them all).
ALL_MEMOS = (
    bench._t_ode_samples_of,
    FLUX_MEMO,
    green._green_quad_of,
    specfun._exp_moment_of,
    W_MEMO,
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


class TestTimeFactorMemo:
    @pytest.mark.parametrize("spec", INTEGRAL_REP_SPECS)
    def test_a_warm_time_factor_is_the_cold_one(self, spec):
        V = flux_closed_form(spec)
        keys = w_keys(spec)
        W_MEMO.cache_clear()
        cold = [outcome(V, *key) for key in keys]
        assert W_MEMO.cache_info().hits == 0
        warm = [outcome(V, *key) for key in keys]
        assert W_MEMO.cache_info().hits == sum(isinstance(c, float) for c in cold)
        fresh = [W_MEMO.__wrapped__(V, rho, t, f, math.copysign(1.0, f)) for rho, t, f in keys]
        for key, c, w, f in zip(keys, cold, warm, fresh):
            assert same(c, w) and same(c, f), (key, c, w, f)

    def test_an_overflowing_time_factor_raises_on_every_call(self):
        V = ClosedFormTrajectory(poly=(0.0,), exps=((1.0, -1.0),))
        W_MEMO.cache_clear()
        for _ in range(2):
            with pytest.raises(OverflowError, match=r"time factor exp\(400 t\) overflows at t = 2"):
                V.weighted_flux_integral(400.0, 2.0)
        assert W_MEMO.cache_info().currsize == 0 and W_MEMO.cache_info().misses == 2

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_a_zero_factor_keeps_its_sign(self, first):
        V = ClosedFormTrajectory(poly=(1.0,))  # W > 0
        W_MEMO.cache_clear()
        for factor in (first, -first):
            got = V.weighted_flux_integral(-1.0, 2.0, factor)
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, factor)
        assert W_MEMO.cache_info().currsize == 2

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_keys_equal_but_for_a_zero_sign_agree_with_a_fresh_computation(self, first):
        # rho = +-0 and t = +-0 share a key: W reads neither zero's sign
        V = ClosedFormTrajectory(poly=(0.0, 1.5), exps=((-0.0, 0.0), (2.0, -0.0)))
        keys = [(rho, t) for rho in (first, -first) for t in (first, -first, 1.25)]
        W_MEMO.cache_clear()
        for rho, t in keys:
            for factor in (1.0, first, -first):
                fresh = W_MEMO.__wrapped__(V, rho, t, factor, math.copysign(1.0, factor))
                assert same(V.weighted_flux_integral(rho, t, factor), fresh), (rho, t, factor)

    def test_int_and_float_arguments_are_kept_apart(self):
        V = ClosedFormTrajectory(poly=(1.0,))
        W_MEMO.cache_clear()
        V.weighted_flux_integral(0.5, 2.0)
        V.weighted_flux_integral(0.5, 2)
        V.weighted_flux_integral(0.5, np.float64(2.0))
        assert W_MEMO.cache_info().misses == 3


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
    assert W_MEMO.cache_info().currsize > 0 and FLUX_MEMO.cache_info().currsize == 15
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
