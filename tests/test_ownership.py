"""One owner per family decision.

``closed_form`` owns each control family's baseline ``u0`` (the field carries
it) and each companion field's problem-P ``base``, ``asymptotics`` owns the
probe ladders and the control setting, the field's provenance owns the
integral-representation predicate, ``problem.flux_rate`` owns the flux rate b
and the Volterra forcing V0 = c t^p owns c and p; ``bench`` reads them and
re-derives none.  Within ``bench``, ``run_case``
alone owns the tolerances and builds the check records.  ``problem.validate``
owns the well-posedness rules and each ``closed_form`` family its own rules.
"""

import ast
import inspect
import re
from pathlib import Path
from unittest import mock

import pytest

import fluxheat
from fluxheat import asymptotics, bench, closed_form, green
from fluxheat.asymptotics import ALGEBRAIC_LADDER, DEFAULT_LADDER, LimitClass
from fluxheat.catalog import case_ids, load_case
from fluxheat.problem import (
    INTEGRAL_REP_SHAPES,
    FluxKind,
    ShapeKind,
    Variant,
    spec_from_dict,
    validate,
)

PACKAGE = Path(fluxheat.__file__).resolve().parent


def catalog_spec(case_id):
    return spec_from_dict(load_case(case_id)["case"])


def closed_baseline(spec):
    """The closed-form baseline the bench checks used to call themselves."""
    h = spec.h
    if spec.phi.kind is ShapeKind.CONSTANT_ONE:
        return lambda x, t: green.u0_quadratic_closed(h.nu, h.a, x, t)
    return lambda x, t: green.u0_separable_closed(h, x, t)


def probe_points():
    """The (x, t) points of the u0 checks and the control probes."""
    points = [(float(x), float(t)) for seed in (5, 9)
              for x, t in zip(*bench._sample_points(n=3, t_hi=1.0, seed=seed))]
    points += [(1.0, t) for t in DEFAULT_LADDER + ALGEBRAIC_LADDER]
    return points


@pytest.mark.parametrize(
    "case_id",
    ["stationary-quadratic", "separated-growth", "separated-sin-decay", "separated-power-nhalf"],
)
def test_field_u0_is_the_closed_baseline_bit_for_bit(case_id):
    spec = catalog_spec(case_id)
    field = closed_form.solution_for(spec)
    want = closed_baseline(spec)
    for x, t in probe_points():
        try:
            expected = want(x, t)
        except OverflowError:
            with pytest.raises(OverflowError):
                field.u0(x, t)
            continue
        assert field.u0(x, t).hex() == expected.hex()


@pytest.mark.parametrize("case_id", [c for c in case_ids() if c.startswith("tilde-")])
def test_companion_fields_carry_no_baseline(case_id):
    spec = catalog_spec(case_id)
    assert spec.variant is Variant.P_TILDE
    assert closed_form.solution_for(spec).u0 is None


def test_zero_law_stationary_field_carries_no_baseline():
    spec = catalog_spec("stationary-linear-h")
    assert spec.flux.kind is FluxKind.ZERO
    assert closed_form.solution_for(spec).u0 is None


@pytest.mark.parametrize(
    "case_id", [c for c in case_ids() if "control" in load_case(c).get("checks", ())]
)
def test_every_control_case_field_carries_its_baseline(case_id):
    assert closed_form.solution_for(catalog_spec(case_id)).u0 is not None


@pytest.mark.parametrize("case_id", [c for c in case_ids() if not c.startswith("tilde-")])
def test_provenance_is_the_old_integral_rep_predicate(case_id):
    spec = catalog_spec(case_id)
    old = (
        spec.phi.kind in INTEGRAL_REP_SHAPES
        and spec.flux.kind is FluxKind.LINEAR
        and spec.h.is_odd_monomial
    )
    field = closed_form.solution_for(spec)
    assert (field.provenance is closed_form.Provenance.INTEGRAL_REP) == old


@pytest.mark.parametrize(
    "case_id", [c for c in case_ids() if "control" in load_case(c).get("checks", ())]
)
def test_control_checks_probe_on_the_asymptotics_ladders(case_id):
    spec = catalog_spec(case_id)
    ladders = []

    def probe(fn, ladder):
        ladders.append(ladder)
        return LimitClass.zero()

    field = closed_form.solution_for(spec)
    with mock.patch.object(asymptotics, "numeric_limit_probe", probe):
        list(bench._control_checks(spec, field, asymptotics.control_classification(spec)))
    lad_u0, lad_u = asymptotics.control_probe_ladders(spec)
    assert ladders == [lad_u0, lad_u, lad_u]
    separated = spec.phi.kind is ShapeKind.SCALED_SEPARABLE
    assert lad_u0 == (DEFAULT_LADDER if separated else ALGEBRAIC_LADDER)


@pytest.mark.parametrize("lam", [12.0, 13.0, 14.0, 20.0])
def test_overflowing_time_factor_names_the_overflow(lam):
    # e^{lambda^2 t} leaves the double range within the checks' samples
    case = {
        "phi": {"kind": "neg_sinh", "lambda": lam, "mu": 1.0},
        "flux": {"kind": "linear", "nu": 1.0},
        "h": {"kind": "monomial", "eta": 1.0, "m": 1},
        "variant": "P",
    }
    result = bench.run_case(case, case_id="overflow")
    assert not result.passed
    assert "overflows" in result.reason and "t = " in result.reason
    assert "time factor exp(" in result.reason


def test_each_family_decision_has_one_owner():
    ladder = re.compile(r"\b(DEFAULT_LADDER|ALGEBRAIC_LADDER)\b")
    naming = {p.name for p in PACKAGE.glob("*.py") if ladder.search(p.read_text())}
    assert naming == {"asymptotics.py"}
    bench_src = (PACKAGE / "bench.py").read_text()
    assert not re.search(r"\bu0_(separable|quadratic)_closed\b", bench_src)
    assert "flux_rate" not in bench_src
    assert not hasattr(bench, "_control_evaluators") and not hasattr(bench, "_is_integral_rep")
    # delta and gamma come from flux_rate, not from a second formula
    asym_src = (PACKAGE / "asymptotics.py").read_text()
    assert not re.search(r"lam\s*-\s*nu\s*\*\s*mu", asym_src)
    assert not re.search(r"nu\s*\*\s*phi\.delta", asym_src)


def test_scipy_has_one_quadrature_entry_and_one_bound():
    # QUADPACK (the quadpack port) through green.quad_interval alone, RK45 (the
    # ode port) through the T cross-check alone; scipy is imported by nothing
    # but that cross-check's BDF fallback; every quadrature estimate meets one bound
    importers, imported, methods = set(), set(), []
    callers = {"quadpack.quad": set(), "ode.rk45": set()}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
                    if isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                        if names[0].startswith("scipy"):
                            imported.update(f"{node.module}.{a.name}" for a in node.names)
                    if any(n == "scipy" or n.startswith("scipy.") for n in names):
                        importers.add(f"{path.stem}.{fn.name}")
                    if isinstance(node, ast.Call):
                        callers.get(ast.unparse(node.func), set()).add(f"{path.stem}.{fn.name}")
                        if ast.unparse(node.func) == "solve_ivp":
                            methods += [ast.literal_eval(k.value) for k in node.keywords if k.arg == "method"]
        top = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert not any("scipy" in ast.unparse(n) for n in top), path.name
    assert importers == {"bench._t_ode_solution"}
    assert imported == {"scipy.integrate.solve_ivp"} and methods == ["BDF"]
    assert callers == {"quadpack.quad": {"green.quad_interval"}, "ode.rk45": {"bench._t_ode_solution"}}
    green_src = (PACKAGE / "green.py").read_text()
    assert len(re.findall(r"50(\.0)?\s*\*\s*tol", green_src)) == 1
    assert "scipy" not in (PACKAGE / "closed_form.py").read_text()


def test_every_memo_is_bounded():
    # each functools.lru_cache in the package states an integer maxsize: no
    # bare @lru_cache, no maxsize=None, and no unbounded functools.cache
    def is_lru_cache(node):
        return (isinstance(node, ast.Attribute) and node.attr == "lru_cache") or (
            isinstance(node, ast.Name) and node.id == "lru_cache"
        )

    memos = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_lru_cache(node.func):
                called.add(node.func)
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                assert len(sizes) == 1, (path.name, ast.unparse(node))
                size = sizes[0]
                assert isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0, (
                    path.name, ast.unparse(node)
                )
            if isinstance(node, ast.FunctionDef) and any(
                is_lru_cache(getattr(d, "func", d)) for d in node.decorator_list
            ):
                memos.add(f"{path.stem}.{node.name}")
        for node in ast.walk(tree):
            assert not (is_lru_cache(node) and node not in called), (path.name, node.lineno)
            unbounded = isinstance(node, ast.Attribute) and node.attr == "cache"
            assert not (unbounded and getattr(node.value, "id", None) == "functools"), (path.name, node.lineno)
    assert memos == {
        "bench._sample_points",
        "bench._t_ode_samples_of",
        "closed_form._flux_closed_form_of",
        "green._green_quad_of",
        "specfun._exp_moment_of",
        "trajectory._scalar_value_of",
        "trajectory._time_factor_of",
        "trajectory.time_factor_at",  # the memo of t inside each binding
        "volterra._forcing_table",
        "volterra._kernel_table",
    }


def test_bench_builds_a_field_only_per_case_and_per_reference():
    # a companion case's checks read the field's base instead of building it again
    tree = ast.parse((PACKAGE / "bench.py").read_text())
    callers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "solution_for"
                ):
                    callers.add(fn.name)
    assert callers == {"run_case", "_reference_for"}


def test_only_run_case_builds_records_and_reads_tolerances():
    # the family checks yield bare values; run_case attaches the tolerances
    tree = ast.parse((PACKAGE / "bench.py").read_text())
    callers = {"CheckRecord": set(), "_tol": set()}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.get(node.func.id, set()).add(fn.name)
    assert callers == {"CheckRecord": {"run_case"}, "_tol": {"run_case"}}


def test_asymptotics_alone_picks_the_control_setting():
    tree = ast.parse((PACKAGE / "bench.py").read_text())
    named = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ShapeKind"
    }
    assert not named & {"CONSTANT_ONE", "SCALED_SEPARABLE"}
    assert not hasattr(bench, "_is_control_setting")


# The rules of each closed-form family, each spelt by that family's constructor.
FAMILY_RULES = (
    "F == 0 requires h = eta*x with eta > 0",
    "constant law requires Phi == 1 and h'' = nu",
    "stationary family requires F == 0 or F == nu",
    "separated family requires Phi = scale*X and h = eta*X",
    "separated family requires a linear, affine or power law",
    "closed-form flux requires Phi in {lambda*x, -mu*sinh, -mu*sin}",
    "closed-form flux requires the linear law F = nu*V",
    "closed-form flux requires nu > 0",
    "closed-form flux requires a monomial profile",
    "m must be odd for polynomial flux",
)


def test_validate_judges_well_posedness_only():
    assert list(inspect.signature(validate).parameters) == ["spec"]
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    for rule in FAMILY_RULES:
        assert [name for name, src in sources.items() if rule in src] == ["closed_form.py"], rule
    # the constructors read validate instead of spelling its rules again
    for copy in ("nu != 0", "share (sigma, delta)", "scale, delta, eta > 0", "locally integrable"):
        assert copy not in sources["closed_form.py"], copy
    # the integral-representation kind test is closed_form's alone
    for name in ("bench.py", "asymptotics.py"):
        assert "INTEGRAL_REP_SHAPES" not in sources[name], name
