"""Benchmark engine behind the CLI.

``run_case`` executes the cross-validation triangle applicable to a case's
family: closed form against the Volterra equation, against finite
differences, and against Green-function quadrature, plus the limit-class
checks.  The family checks yield their values; ``run_case`` alone gives each its
pinned tolerance and builds the record, and a case passes iff all of its
records do.  Output formatting is deterministic (17 significant digits,
fixed ordering, no timestamps inside data rows) so repeated runs produce
byte-identical CSV files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import asymptotics, closed_form, fd, green, ode, volterra
from .asymptotics import LimitTag
from .problem import (
    FluxKind,
    FluxLaw,
    ProblemSpec,
    ProfileKind,
    SchemaError,
    TimeFunction,
    Variant,
    config_id,
    number_field,
    read_object,
    spec_from_dict,
    validate,
)

__all__ = [
    "CheckRecord",
    "CaseResult",
    "run_case",
    "sweep",
    "convergence",
    "format_float",
]

CSV_HEADER = "case_id,check,lhs,rhs,abs_diff,tolerance,pass"

# Pinned tolerances, one per check; --tol-scale multiplies all of them.
TOLERANCES = {
    "validate": 0.0,
    "boundary_condition": 1e-12,
    "initial_condition": 1e-10,
    "pde_residual": 1e-6,
    "volterra_residual": 1e-8,
    "flux_consistency": 1e-6,
    "flux_initial_limit": 1e-6,
    "flux_limit_probe": 1e-3,
    "x_ode_residual": 1e-10,
    "flux_is_delta_T": 1e-12,
    "T_ode_crosscheck": 1e-7,
    "u0_separable": 1e-8,
    "u0_polynomial": 1e-8,
    "u0_quadratic": 1e-8,
    "green_identity": 1e-8,
    "assemble_consistency": 1e-8,
    "assemble_slow_oracle": 1e-7,
    "control_u0": 1e-3,
    "control_u": 1e-3,
    "control_ratio": 1e-3,
    "tilde_matches_ux": 1e-8,
    "tilde_neumann": 1e-6,
    "tilde_constant_preserved": 1e-12,
}


def format_float(x: float) -> str:
    """Round-trip-safe fixed formatting (17 significant digits)."""
    return f"{x:.17g}"


@dataclass(frozen=True, slots=True)
class CheckRecord:
    """One check's values: ``lhs`` and ``rhs`` against ``tolerance``, each
    coerced to float.

    ``abs_diff`` = abs(lhs - rhs) and ``passed`` (abs_diff <= tolerance) are
    computed once, on construction; the CSV fields are formatted on their
    first use (:meth:`csv_fields`) and kept.  Records compare and hash by
    the four inputs alone, and their ``repr`` shows only those.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    abs_diff: float = dataclasses.field(init=False, repr=False, compare=False)
    passed: bool = dataclasses.field(init=False, repr=False, compare=False)
    _csv: str | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        lhs, rhs, tolerance = float(self.lhs), float(self.rhs), float(self.tolerance)
        abs_diff = abs(lhs - rhs)
        setter = object.__setattr__
        setter(self, "lhs", lhs)
        setter(self, "rhs", rhs)
        setter(self, "tolerance", tolerance)
        setter(self, "abs_diff", abs_diff)
        setter(self, "passed", abs_diff <= tolerance)  # a bool: both are floats

    def csv_fields(self) -> str:
        """check,lhs,rhs,abs_diff,tolerance,pass: the record's CSV row after
        its case id, formatted once."""
        if self._csv is None:
            values = map(format_float, (self.lhs, self.rhs, self.abs_diff, self.tolerance))
            cells = [self.name, *values, "1" if self.passed else "0"]
            object.__setattr__(self, "_csv", ",".join(cells))
        return self._csv

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_diff": self.abs_diff,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class CaseResult:
    case_id: str
    records: list[CheckRecord]
    elapsed_s: float = 0.0
    violations: list[str] | None = None
    reason: str | None = None  # the numerical failure that ended the case early

    @property
    def passed(self) -> bool:
        return self.reason is None and all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        out = {
            "case_id": self.case_id,
            "pass": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": [r.as_dict() for r in self.records],
        }
        if self.violations:
            out["violations"] = list(self.violations)
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    def csv_rows(self) -> list[str]:
        return [f"{self.case_id},{r.csv_fields()}" for r in self.records]


def _tol(name: str, scale: float) -> float:
    return TOLERANCES[name] * scale


# The checks ask for six argument tuples; 16 bounds the memo with room to spare.
@functools.lru_cache(maxsize=16)
def _sample_points(n: int = 8, x_hi: float = 2.0, t_hi: float = 1.5, seed: int = 1234):
    """n sample points (xs, ts) in [0.2, x_hi) x [0.1, t_hi), drawn from ``seed``.

    Constants of the arguments alone, so they are drawn once per argument
    tuple and returned as two tuples of Python floats: every check then
    evaluates its closed forms in float arithmetic, which gives the bits
    numpy scalars would at less cost per operation.
    """
    rng = np.random.default_rng(seed)
    xs = 0.2 + (x_hi - 0.2) * rng.random(n)
    ts = 0.1 + (t_hi - 0.1) * rng.random(n)
    return tuple(xs.tolist()), tuple(ts.tolist())


_LIMIT_VALUES = {
    LimitTag.ZERO: 0.0,
    LimitTag.PLUS_INFINITY: 2.0,
    LimitTag.MINUS_INFINITY: -2.0,
    LimitTag.UNCLASSIFIED: 5.0,
}


def _class_check(symbolic, probe) -> tuple[float, float]:
    """Encode class agreement numerically: tags match and finite values agree."""
    if symbolic.tag is LimitTag.FINITE and probe.tag is LimitTag.FINITE:
        denom = 1.0 + max(abs(symbolic.value), abs(probe.value))
        return probe.value / denom, symbolic.value / denom
    return _LIMIT_VALUES.get(probe.tag, 1.0), _LIMIT_VALUES.get(symbolic.tag, 1.0)


# Every family check below is a generator of (name, lhs) or (name, lhs, rhs),
# rhs defaulting to 0; run_case attaches the tolerances and builds the records.


def _common_field_checks(spec, field):
    xs, ts = _sample_points()
    _, h = spec.evaluators()
    if spec.variant is Variant.P:
        yield "boundary_condition", max(abs(field.u(0.0, t)) for t in ts)
    yield "initial_condition", max(
        abs(field.u(x, 0.0) - hx) / (1.0 + abs(hx)) for x, hx in zip(xs, map(h, xs))
    )
    yield "pde_residual", max(
        abs(fd.pde_residual(field, spec, x, t, delta=1e-3)) for x, t in zip(xs, ts)
    )


def _dx_at_zero(u, t: float) -> float:
    """u_x(0, t): the one-sided second-order difference at step 1e-4,
    Richardson extrapolated."""
    return fd.richardson(
        lambda d: (-3.0 * u(0.0, t) + 4.0 * u(d, t) - u(2.0 * d, t)) / (2.0 * d), 1e-4
    )


def _u0_quadrature_gap(spec, field, seed: int) -> float:
    """Worst relative gap between the quadrature baseline and the field's u0."""
    worst = 0.0
    for x, t in zip(*_sample_points(n=3, t_hi=1.0, seed=seed)):
        quadrature = green.baseline_u0(spec.h, x, t)
        exact = field.u0(x, t)
        worst = max(worst, abs(quadrature - exact) / (1.0 + abs(exact)))
    return worst


# The sample times of the volterra_residual check, built once as Python
# floats, like the points of ``_sample_points``.
_VOLTERRA_T_SAMPLES = tuple(np.linspace(0.1, 5.0, 12).tolist())


def _integral_rep_checks(spec, field, slow):
    kernel = volterra.kernel_for(spec.phi)
    forcing = volterra.forcing_for(spec.h)
    yield "volterra_residual", volterra.volterra_residual(
        field.V, kernel, forcing, spec.flux.nu, _VOLTERRA_T_SAMPLES
    )

    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        v = float(field.V(t))
        worst = max(worst, abs(_dx_at_zero(field.u, t) - v) / (1.0 + abs(v)))
    yield "flux_consistency", worst

    init = asymptotics.flux_initial_limit(spec)
    v0 = float(field.V(1e-8))
    yield "flux_initial_limit", v0, init.value if init.tag is LimitTag.FINITE else 0.0

    limit = asymptotics.flux_limit(spec)
    probe = asymptotics.numeric_limit_probe(field.V, asymptotics.flux_probe_ladder(spec))
    yield "flux_limit_probe", *_class_check(limit, probe)

    xs, ts = _sample_points(n=4)
    yield "u0_polynomial", max(
        abs(green.baseline_u0(spec.h, x, t) - field.u0(x, t)) for x, t in zip(xs, ts)
    )

    yield "green_identity", green.verify_identity_phi(spec.phi, 1.0, 1.0, 0.25)[2]

    worst = 0.0
    for x, t in zip(*_sample_points(n=3, seed=77)):
        ua = green.assemble_integral_representation(spec, x, t, field.V)
        worst = max(worst, abs(ua - field.u(x, t)) / (1.0 + abs(ua)))
    yield "assemble_consistency", worst

    if slow:
        x, t = 1.0, 0.5
        fast = green.assemble_integral_representation(spec, x, t, field.V, slow=False)
        slow_val = green.assemble_integral_representation(spec, x, t, field.V, slow=True)
        yield "assemble_slow_oracle", slow_val / (1.0 + abs(fast)), fast / (1.0 + abs(fast))


# Evaluations of the T equation after which a solver gives up on it: RK45
# takes at most 650 on the catalog's separated cases, BDF about 1100 where a
# stiff T equation exhausts RK45.
_ODE_EVALS = 5000

# The times at which the T cross-check compares the closed form with the solver.
_T_SAMPLES = (0.5, 1.0, 2.0)


def _t_ode_solution(comps, flux):
    """The solution of T' = sigma T - scale F(delta T, t), T(0) = eta, on
    [0, 2], read off its dense output at _T_SAMPLES as floats: by
    ``ode.rk45``, scipy's RK45 to the bit without scipy, or by scipy's
    implicit BDF, imported only then, where RK45 raises, stops short of t = 2
    or runs past ``_ODE_EVALS`` evaluations (a stiff T equation);
    ArithmeticError naming the failure where BDF fails too.  The T
    cross-check calls it through the memo ``_t_ode_samples_of``, so a
    repeated T equation is solved once."""

    def rhs(t, y):
        if next(evals) == _ODE_EVALS:
            raise ArithmeticError(f"more than {_ODE_EVALS} evaluations")
        return [comps.sigma * y[0] - comps.scale * flux(comps.delta * y[0], max(t, 1e-12))]

    evals = itertools.count()
    try:
        with np.errstate(all="ignore"):
            sol = ode.rk45(rhs, (0.0, 2.0), [comps.eta], rtol=1e-10, atol=1e-12)
    except (ArithmeticError, ValueError):
        pass  # on to BDF
    else:
        return tuple(float(sol(t)[0]) for t in _T_SAMPLES)

    from scipy.integrate import solve_ivp

    evals = itertools.count()
    failure = "T cross-check: BDF fails on the T equation: "
    try:
        with np.errstate(all="ignore"):
            sol = solve_ivp(
                rhs, (0.0, 2.0), [comps.eta], method="BDF",
                rtol=1e-10, atol=1e-12, dense_output=True,
            )
    except (ArithmeticError, ValueError) as exc:  # ValueError: an inf in BDF's algebra
        raise ArithmeticError(failure + str(exc)) from None
    if not sol.success:
        # past the point where the solve stopped, its dense output extrapolates
        raise ArithmeticError(failure + sol.message)
    return tuple(float(sol.sol(t)[0]) for t in _T_SAMPLES)


# The solver's samples of T at _T_SAMPLES, memoised per value of the T
# equation, the idiom of ``green._green_quad_of``: a JSON power law parsed
# twice has two sets of closures but one key, and the law is rebuilt from its
# constants, so a hit returns the floats a fresh solve would.  A failing solve
# stores nothing and raises its reason again on every call.  0.0 and -0.0
# are equal keys, but a zero's sign can reach F (V = delta T under V ** n),
# so ``signs`` holds the sign of every zero in the key and keeps them apart.
# One catalog pass asks for 6 keys, and a repeated pass for the same 6; 64
# leaves room for the separated specs of a sweep at three floats per key.
@functools.lru_cache(maxsize=64, typed=True)
def _t_ode_samples_of(sigma, delta, scale, eta, kind, nu, n, f1, f2, f, signs):
    """T_ode(t) at each of _T_SAMPLES for the T equation of these values."""
    parts = (None if c is None else TimeFunction.constant(c) for c in (f1, f2, f))
    law = FluxLaw(kind, nu, n, *parts)
    comps = SimpleNamespace(sigma=sigma, delta=delta, scale=scale, eta=eta)
    return _t_ode_solution(comps, law)


def _t_ode_samples(comps, flux) -> tuple[float, ...]:
    """T_ode(t) at each of _T_SAMPLES: from the memo where every time function
    of F is a constant, from a fresh solve where one is not (an affine or
    polynomial law of the library API, a set of closures rather than a value)."""
    parts = (flux.f1, flux.f2, flux.f)
    if any(part is not None and part.constant_value is None for part in parts):
        return _t_ode_solution(comps, flux)
    key = (
        comps.sigma, comps.delta, comps.scale, comps.eta, flux.kind, flux.nu, flux.n,
        *(None if part is None else part.constant_value for part in parts),
    )
    return _t_ode_samples_of(*key, tuple(math.copysign(1.0, v) for v in key if v == 0.0))


def _separated_checks(spec, field):
    comps = closed_form.separated_components(spec)

    def x_residual(x):
        def second(dd):
            return (comps.X(x + dd) - 2 * comps.X(x) + comps.X(x - dd)) / dd ** 2

        # d = 1e-2 is large enough to keep the 1/d^2 round-off term below 1e-10
        extrap = fd.richardson(second, 1e-2)
        return abs(extrap - comps.sigma * comps.X(x)) / (1.0 + abs(comps.X(x)))

    yield "x_ode_residual", max(x_residual(x) for x in (0.3, 0.9, 1.7))

    yield "flux_is_delta_T", max(
        abs(float(field.V(t)) - comps.delta * comps.T(t))
        / (1.0 + abs(comps.delta * comps.T(t)))
        for t in (0.2, 1.0, 2.5)
    )

    samples = _t_ode_samples(comps, spec.flux)
    yield "T_ode_crosscheck", max(
        abs(comps.T(t) - s) / (1.0 + abs(s)) for t, s in zip(_T_SAMPLES, samples)
    )

    yield "u0_separable", _u0_quadrature_gap(spec, field, seed=5)


def _stationary_checks(spec, field):
    if spec.h.kind is ProfileKind.QUADRATIC:
        yield "u0_quadratic", _u0_quadrature_gap(spec, field, seed=9)


def _control_checks(spec, field, classes):
    """Probe the long-time classes of u0, u and u/u0 at ``classes.x`` against
    the symbolic classification ``classes``, on the ladders ``asymptotics``
    picks; u0 and u are the case's own field's, so the control checks build
    no second field.
    """
    x_obs = classes.x
    lad_u0, ladder = asymptotics.control_probe_ladders(spec)
    u0_fn = lambda t: field.u0(x_obs, t)  # noqa: E731
    u_fn = lambda t: field.u(x_obs, t)  # noqa: E731
    probe = asymptotics.numeric_limit_probe
    yield "control_u0", *_class_check(classes.u0_limit, probe(u0_fn, lad_u0))
    yield "control_u", *_class_check(classes.u_limit, probe(u_fn, ladder))
    ratio_fn = lambda t: u_fn(t) / u0_fn(t)  # noqa: E731
    yield "control_ratio", *_class_check(classes.ratio_limit, probe(ratio_fn, ladder))


def _tilde_checks(spec, field):
    base = field.base
    _, h_tilde = spec.evaluators()

    xs, ts = _sample_points(n=10, seed=21)
    yield "initial_condition", max(
        abs(field.u(x, 0.0) - hx) / (1.0 + abs(hx)) for x, hx in zip(xs, map(h_tilde, xs))
    )

    # v must equal the x-derivative of the underlying solution
    def ux(x, t):
        u = base.u
        return fd.richardson(lambda d: (u(x + d, t) - u(x - d, t)) / (2.0 * d), 1e-4)

    yield "tilde_matches_ux", max(
        abs(field.u(x, t) - ux(x, t)) / (1.0 + abs(field.u(x, t)))
        for x, t in zip(xs, ts)
    )

    # Neumann datum: v_x(0,t) = Phi(0) F(V(t), t)
    worst, phi0 = 0.0, spec.phi(0.0)
    for t in (0.3, 1.0, 2.0):
        g_t = phi0 * spec.flux(float(base.V(t)), t)
        worst = max(worst, abs(_dx_at_zero(field.u, t) - g_t) / (1.0 + abs(g_t)))
    yield "tilde_neumann", worst

    # constant family: the companion FD solver preserves it to round-off
    if spec.flux.kind is FluxKind.ZERO:
        grid = fd.Grid1D(L=4.0, nx=32, t_end=0.5, nt=20, theta=0.5)
        solver, final = fd.solve(spec, grid, far_field="manufactured", reference=field)
        yield "tilde_constant_preserved", float(np.max(np.abs(final.values - field.u(0.0, 0.0))))


def _case_checks(spec, field, slow, controls):
    """Every check of the case's family after ``validate``, in report order;
    the control checks too when ``controls`` holds the spec's classification."""
    if spec.variant is Variant.P_TILDE:
        yield from _tilde_checks(spec, field)
        return
    yield from _common_field_checks(spec, field)
    if field.provenance is closed_form.Provenance.SEPARATED:
        yield from _separated_checks(spec, field)
    elif field.provenance is closed_form.Provenance.STATIONARY:
        yield from _stationary_checks(spec, field)
    else:
        yield from _integral_rep_checks(spec, field, slow)
    if controls is not None:
        yield from _control_checks(spec, field, controls)


@contextlib.contextmanager
def _overflow_named(step: str):
    """Re-raise an OverflowError of the block with ``step`` named in its text."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(f"{step} overflows: {exc}") from exc


def _control_classes(spec):
    """The control classification of ``spec``; SchemaError outside the control settings."""
    with _overflow_named("control classification"):
        controls = asymptotics.control_classification(spec)
    if controls is None:
        raise SchemaError(
            "control checks requested for a case outside the control settings: "
            f"variant {spec.variant.value}, phi {spec.phi.kind.value}, "
            f"flux {spec.flux.kind.value}, h {spec.h.kind.value}"
        )
    return controls


# Numerical failures of a case, recorded as its failing reason.
_NUMERICAL_ERRORS = (closed_form.ConstructionError, green.QuadratureError, ArithmeticError)


def run_case(
    case: dict | ProblemSpec,
    case_id: str = "case",
    tol_scale: float = 1.0,
    slow_oracles: bool = False,
    extra_checks: tuple[str, ...] = (),
) -> CaseResult:
    """Execute every check applicable to the case family.

    ``case`` is a JSON-schema dict or an already-built spec.  The checks
    yield their values and this is where each gets its pinned tolerance,
    scaled by ``tol_scale``, and becomes a record.  A spec ``validate``
    finds ill-posed ends with its ``violations``.  Check failures are
    recorded, not raised; so is a numerical failure (a closed form that
    cannot be built, a well-posed spec that no family covers included, a
    quadrature short of its tolerance, an arithmetic error), which ends the
    case as failing with its ``reason`` and the records made before it.
    Schema errors raise :class:`SchemaError`: an unknown name among
    ``extra_checks`` included, and ``"control"`` for a valid spec outside
    the control settings that ``asymptotics`` decides.
    """
    start = time.perf_counter()
    if not isinstance(extra_checks, (list, tuple)) or any(c != "control" for c in extra_checks):
        raise SchemaError(f"checks must be a list of names from ['control'], got {extra_checks!r}")
    spec = case if isinstance(case, ProblemSpec) else spec_from_dict(case)
    violations = validate(spec)
    records = [CheckRecord("validate", len(violations), 0.0, _tol("validate", tol_scale))]
    if violations:
        return CaseResult(case_id, records, time.perf_counter() - start, violations)

    try:
        controls = _control_classes(spec) if "control" in extra_checks else None
        with _overflow_named("closed-form construction"):
            field = closed_form.solution_for(spec)
        for name, lhs, *rhs in _case_checks(spec, field, slow_oracles, controls):
            records.append(CheckRecord(name, lhs, rhs[0] if rhs else 0.0, _tol(name, tol_scale)))
    except _NUMERICAL_ERRORS as exc:
        return CaseResult(case_id, records, time.perf_counter() - start, reason=str(exc))

    return CaseResult(case_id, records, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# sweep


def _set_path(cfg: dict, dotted: str, value):
    *parents, leaf = dotted.split(".")
    node = cfg
    try:
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    except (AttributeError, TypeError):  # a number, string or list on the path
        raise SchemaError(f"grid key {dotted!r} does not name a field of the case") from None


def _sweep_task(args):
    base, combo, keys, case_id, tol_scale, slow = args
    case = json.loads(json.dumps(base))
    for key, value in zip(keys, combo):
        _set_path(case, key, value)
    # a case that fails to configure or fails numerically is a failing row
    # (no checks, infinite margin) instead of aborting the sweep
    try:
        result = run_case(case, case_id=case_id, tol_scale=tol_scale, slow_oracles=slow)
    except SchemaError as exc:
        return (case_id, combo, False, 0, math.inf, str(exc))
    if result.reason is not None:
        return (case_id, combo, False, 0, math.inf, result.reason)
    n_checks = len(result.records)
    worst = max((r.abs_diff - r.tolerance for r in result.records), default=0.0)
    return (case_id, combo, result.passed, n_checks, worst, None)


def _worker_count(jobs: int) -> int:
    """Sweep worker processes for ``jobs`` requested: at least 1, at most the CPUs."""
    if jobs < 1:
        raise SchemaError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def sweep(
    config: dict, tol_scale: float = 1.0, slow_oracles: bool = False, jobs: int = 1
) -> tuple[list[str], bool, list[tuple[str, str]]]:
    """Run a cartesian parameter grid; returns (CSV lines, all passed, reasons).

    Rows are ordered lexicographically in the parameter values regardless of
    execution order, so concurrent runs stay deterministic.  ``reasons`` holds
    the (case_id, reason) of every case that ended on a configuration or
    numerical failure, in row order: the cause its row (no checks, infinite
    margin) does not carry.  ``jobs`` is capped at the CPU count; a value
    below 1 is a configuration error.
    """
    workers = _worker_count(jobs)
    read_object(config, "config", {"id", "base", "grid"}, ("base",))
    base = read_object(config["base"], "base")
    grid = read_object(config.get("grid", {}), "grid")
    stem = config_id(config, "sweep")
    if not all(isinstance(values, list) for values in grid.values()):
        raise SchemaError("sweep 'grid' values must be lists")

    keys = sorted(grid.keys())
    header = ",".join(["case_id", *keys, "pass", "n_checks", "worst_margin"])
    if not keys or any(len(grid[k]) == 0 for k in keys):
        return [header], True, []

    n_cases = math.prod(len(grid[k]) for k in keys)
    if n_cases > 10_000:
        raise SchemaError(f"sweep grid of {n_cases} cases exceeds the 10^4 limit")
    combos = sorted(itertools.product(*(grid[k] for k in keys)), key=lambda c: [str(v) for v in c])
    tasks = []
    for combo in combos:
        case_id = stem + "".join(
            f"-{k.split('.')[-1]}={v}" for k, v in zip(keys, combo)
        )
        tasks.append((base, combo, keys, case_id, tol_scale, slow_oracles))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]

    lines = [header]
    all_pass = True
    reasons = []
    for case_id, combo, passed, n_checks, worst, err in outcomes:
        all_pass &= passed
        cells = [case_id]
        cells += [str(v) for v in combo]
        cells += ["1" if passed else "0", str(n_checks), format_float(worst)]
        lines.append(",".join(cells))
        if err is not None:
            reasons.append((case_id, err))
    return lines, all_pass, reasons


# ---------------------------------------------------------------------------
# convergence


def _reference_for(spec: ProblemSpec, kind: str):
    if kind == "self":
        return "self"
    if kind != "closed_form":
        raise SchemaError(f"unknown reference kind {kind!r}")
    if spec.flux.kind is FluxKind.ZERO and spec.h.is_odd_monomial and spec.h.m > 1.0:
        # source-free diffusion of an odd monomial profile
        return SimpleNamespace(u=functools.partial(closed_form.baseline_u0_polynomial, spec.h))
    return closed_form.solution_for(spec)


_LADDER_FIELDS = frozenset({"L", "t_end", "theta", "nx", "nt0", "far_field", "reference"})

# Grid values (nx + 1)(nt + 1) of one ladder rung at most; the ladders of the
# tests and the benchmarks reach 1025 x 1025.
_MAX_GRID_VALUES = 10 ** 7


def _rung_steps(nx: int, nx0: int, nt0: int, theta: float) -> int:
    """Time steps of the rung ``nx`` of a ladder that starts at ``(nx0, nt0)``;
    SchemaError for a rung of more than ``_MAX_GRID_VALUES`` grid values."""
    try:
        factor = nx / nx0
        nt = max(int(round(nt0 * (factor if theta >= 0.5 else factor ** 2))), 1)
    except OverflowError:
        nt = math.inf
    if (nx + 1) * (nt + 1) > _MAX_GRID_VALUES:
        raise SchemaError(f"ladder rung nx={nx} exceeds the 10^7 limit on (nx+1)(nt+1)")
    return nt


def convergence(config: dict) -> tuple[list[str], bool]:
    """Refinement-ladder study; returns (CSV lines, succeeded).

    The time grid keeps the scheme balance along the ladder: dt scales with
    dx for theta >= 1/2 and with dx^2 otherwise.  Every rung is sized before
    the first one runs.
    """
    read_object(config, "config", {"id", "case", "ladder"}, ("case", "ladder"))
    ladder = read_object(config["ladder"], "ladder", _LADDER_FIELDS)
    spec = spec_from_dict(config["case"])
    nxs = ladder.get("nx", [])
    if not isinstance(nxs, list) or not all(type(nx) is int and nx > 0 for nx in nxs):
        raise SchemaError(f"ladder 'nx' must be a list of positive integers, got {nxs!r}")
    if len(nxs) < 3:
        raise SchemaError("need at least 3 ladder grids")
    L = number_field(ladder, "L", 8.0, "ladder")
    t_end = number_field(ladder, "t_end", 1.0, "ladder")
    theta = number_field(ladder, "theta", 0.5, "ladder")
    nt0 = int(number_field(ladder, "nt0", nxs[0], "ladder"))
    far_field = ladder.get("far_field", "manufactured")
    grids = [
        fd.Grid1D(L=L, nx=nx, t_end=t_end, nt=_rung_steps(nx, nxs[0], nt0, theta), theta=theta)
        for nx in nxs
    ]
    reference = _reference_for(spec, ladder.get("reference", "closed_form"))
    loose = [nx for nx in nxs[:-1] if nxs[-1] % nx]
    if reference == "self" and loose:
        # each rung is compared with the finest at its own nodes
        raise SchemaError(
            f"a 'self' ladder needs every rung to divide the finest, nx={nxs[-1]}; {loose} do not"
        )

    result = fd.convergence_order(spec, grids, reference, far_field=far_field)

    header = "nx,dx,dt,error_max,error_l2,order_max,order_l2,degraded"
    lines = [header]
    n_rows = len(result.dxs)
    for i in range(n_rows):
        lines.append(
            ",".join(
                [
                    str(grids[i].nx),
                    format_float(result.dxs[i]),
                    format_float(result.dts[i]),
                    format_float(result.errors_max[i]),
                    format_float(result.errors_l2[i]),
                    format_float(result.order_max),
                    format_float(result.order_l2),
                    "1" if result.degraded else "0",
                ]
            )
        )
    return lines, not result.degraded
