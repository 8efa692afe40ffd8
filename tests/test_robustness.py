"""run_case ends every case: a CaseResult or a SchemaError, in bounded time.

The property draws catalog cases of every family and both variants and
mutates them: numbers scaled or replaced by edge values (zero, tiny, large,
negative, +-1e300, NaN, +-inf), fields of the wrong type, kinds swapped and
the variant flipped.  The examples are specs that once escaped: a control
classification that overflows (it ran outside ``run_case``'s numerical guard,
so ``fluxheat run`` printed a traceback), T equations too stiff for RK45,
on which the separated family's ODE cross-check never ended, and an invalid
variant, which raised a bare ValueError.

The CLI properties draw sweep and convergence configs the same way, with
their ids, grids, ladders and parts mutated as well, and require exit code
0, 1 or 2 from ``fluxheat sweep`` and ``fluxheat convergence``.
"""

import collections
import contextlib
import copy
import itertools
import json
import math
import signal
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxheat import asymptotics, bench, cli
from fluxheat.bench import CaseResult, run_case
from fluxheat.catalog import iter_cases, load_case
from fluxheat.problem import SchemaError, spec_from_dict, validate

# Wall-clock budget of one case; the slowest mutated case takes well under 1 s.
CASE_BUDGET_S = 10.0


@contextlib.contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"case ran past its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cold_t_memo():
    """Empty the T cross-check's memo, so the solver path under test runs
    instead of a sample an earlier test left."""
    bench._t_ode_samples_of.cache_clear()


def separated_growth(**flux):
    case = copy.deepcopy(load_case("separated-growth")["case"])
    case["flux"].update(flux)
    return case


# lambda^2 of the sinh shape's semigroup, and sinh(sqrt(sigma) x) in the
# separated h(x), leave the double range inside the control classification
OVERFLOWING_CONTROLS = {
    "sinh-lambda": {
        "phi": {"kind": "neg_sinh", "lambda": 1e300, "mu": 1.0},
        "flux": {"kind": "linear", "nu": 1.0},
        "h": {"kind": "monomial", "eta": 1.0, "m": 3},
        "variant": "P",
    },
    "separated-sigma": {
        "phi": {"kind": "scaled_separable", "sigma": 1e300, "delta": 1.0, "scale": 1.0},
        "flux": {"kind": "linear", "nu": -1e-300},
        "h": {"kind": "scaled_separable", "eta": 1.0},
        "variant": "P",
    },
}


class TestOverflowingControlClassification:
    @pytest.mark.parametrize("case", OVERFLOWING_CONTROLS.values(), ids=OVERFLOWING_CONTROLS)
    def test_is_a_failing_case_with_its_reason(self, case):
        result = run_case(case, case_id="ovf", extra_checks=("control",))
        assert not result.passed
        assert result.reason.startswith("control classification overflows: ")
        assert [r.name for r in result.records] == ["validate"]

    @pytest.mark.parametrize("case", OVERFLOWING_CONTROLS.values(), ids=OVERFLOWING_CONTROLS)
    def test_run_exits_one_without_a_traceback(self, case, tmp_path, capsys):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"id": "ovf", "case": case, "checks": ["control"]}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "ovf.json").read_text())
        assert report["reason"].startswith("control classification overflows: ")
        captured = capsys.readouterr()
        assert f"[FAIL] ovf: {report['reason']}" in captured.out
        assert "configuration error" not in captured.err and "Traceback" not in captured.err


@pytest.mark.usefixtures("cold_t_memo")
class TestStiffTEquation:
    def test_stiff_but_finite_is_verified(self):
        # T' = (1 - 1e6) T: past RK45's evaluation budget, BDF integrates it
        with time_budget(CASE_BUDGET_S):
            start = time.perf_counter()
            result = run_case(separated_growth(nu=1e6), case_id="stiff")
            elapsed = time.perf_counter() - start
        assert elapsed < CASE_BUDGET_S
        assert result.passed
        assert [r.passed for r in result.records if r.name == "T_ode_crosscheck"] == [True]

    def test_beyond_the_solvers_ends_with_its_reason(self):
        # T' = (1 - 1e300) T: BDF's linear algebra meets an inf as well
        with time_budget(CASE_BUDGET_S):
            start = time.perf_counter()
            result = run_case(separated_growth(nu=1e300), case_id="stiff")
            elapsed = time.perf_counter() - start
        assert elapsed < CASE_BUDGET_S
        assert not result.passed
        assert result.reason.startswith("T cross-check: BDF fails on the T equation")
        assert "T_ode_crosscheck" not in [r.name for r in result.records]


class TestNamedNumericalFailures:
    def test_construction_overflow_names_its_step_and_quantity(self):
        # lambda^2 of the sinh shape's semigroup leaves the double range
        case = copy.deepcopy(OVERFLOWING_CONTROLS["sinh-lambda"])
        result = run_case(case, case_id="ovf")
        assert result.reason == "closed-form construction overflows: rho = +-lambda^2 at lambda = 1e+300"
        assert [r.name for r in result.records] == ["validate"]

    @pytest.mark.usefixtures("cold_t_memo")
    @pytest.mark.parametrize("part, key, value", [("flux", "nu", 1e4), ("phi", "scale", 1e6)])
    def test_a_stopped_t_solve_is_a_reason_not_a_check(self, part, key, value):
        # RK45 stops at t = 2e-4 once the power law reads a negative T; its
        # dense output far past that point once made a failing check
        case = copy.deepcopy(load_case("separated-power-nhalf")["case"])
        case[part][key] = value
        with time_budget(CASE_BUDGET_S):
            result = run_case(case, case_id="stopped")
        assert result.reason.startswith("T cross-check: ")
        assert "T_ode_crosscheck" not in [r.name for r in result.records]


CATALOG = list(iter_cases())
FIELDS = {"phi": ("lambda", "mu", "sigma", "delta", "scale"), "flux": ("nu", "n"), "h": ("eta", "m", "a")}
KINDS = {
    "phi": ("linear_x", "neg_sinh", "neg_sin", "scaled_separable", "constant_one"),
    "flux": ("zero", "constant", "linear", "power_law"),
    "h": ("monomial", "quadratic", "scaled_separable"),
}
SCALES = (0.1, 0.5, 2.0, 5.0, -1.0)
EDGE_VALUES = (0.0, 1e-6, 30.0, -3.0, 1e300, -1e300, math.nan, math.inf, -math.inf)
WRONG_TYPES = ("1.0", None, [1.0], {"value": 1.0})
INVALID_VARIANTS = ("Q", "p", "", 1, None, ["P"])


@st.composite
def mutation(draw, case):
    """Apply one mutation to ``case`` in place."""
    part = draw(st.sampled_from(("phi", "flux", "h")))
    how = draw(st.sampled_from(("scale", "set", "wrong_type", "kind", "variant")))
    if how == "kind":
        case[part]["kind"] = draw(st.sampled_from(KINDS[part]))
    elif how == "variant":
        flipped = "PTilde" if case.get("variant", "P") == "P" else "P"
        case["variant"] = draw(st.one_of(st.just(flipped), st.sampled_from(INVALID_VARIANTS)))
    else:
        key = draw(st.sampled_from(FIELDS[part] + (("kind",) if how == "wrong_type" else ())))
        if how == "scale":
            value = case[part].get(key, 1.0)
            if isinstance(value, (int, float)):
                case[part][key] = value * draw(st.sampled_from(SCALES))
        elif how == "set":
            case[part][key] = draw(st.sampled_from(EDGE_VALUES))
        else:
            case[part][key] = draw(st.sampled_from(WRONG_TYPES))


@st.composite
def mutated_cases(draw, mutations=(1, 3)):
    """(case, checks): a catalog case under ``mutations`` (fewest, most)
    mutations, with its own checks, the control checks or none."""
    _, config = draw(st.sampled_from(CATALOG))
    case = copy.deepcopy(config["case"])
    for _ in range(draw(st.integers(*mutations))):
        draw(mutation(case))
    checks = draw(st.sampled_from((tuple(config.get("checks", ())), ("control",), ())))
    return case, checks


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutated_cases())
@example((OVERFLOWING_CONTROLS["sinh-lambda"], ("control",)))
@example((OVERFLOWING_CONTROLS["separated-sigma"], ("control",)))
@example((separated_growth(nu=1e6), ()))
@example((separated_growth(nu=1e300), ("control",)))
@example(({**OVERFLOWING_CONTROLS["sinh-lambda"], "variant": "Q"}, ()))
def test_every_case_ends_as_a_result_or_a_schema_error(drawn):
    case, checks = drawn
    with time_budget(CASE_BUDGET_S):
        try:
            result = run_case(case, case_id="fuzz", extra_checks=checks)
        except SchemaError:
            return
    assert isinstance(result, CaseResult)


# ---------------------------------------------------------------------------
# Every JSON kind combination at one parameter point, 300 specs: each is
# verified, refused by validate as ill-posed, or ends with reasons from this
# list, each naming a family or a closed-form requirement the library lacks.  A change
# that verifies a family takes its reasons off the list; a reason not on it
# fails the test.  The list only shrinks.

MISSING_FAMILY_REASONS = {
    "F == 0 requires h = eta*x with eta > 0",
    "constant law requires Phi == 1 and h'' = nu",
    "separated family requires Phi = scale*X and h = eta*X",
    "closed-form flux requires Phi in {lambda*x, -mu*sinh, -mu*sin}",
    "closed-form flux requires the linear law F = nu*V",
    "closed-form flux requires a monomial profile",
    "m must be odd for polynomial flux",
    "companion closed forms require m > 0: h = eta has no problem-P twin",
}
ILL_POSED = {"compatibility violated: h(0+) must be 0", "monomial exponent m must be >= 1"}
FLUX_SETTINGS = (
    {"kind": "zero"},
    {"kind": "constant"},
    {"kind": "linear"},
    {"kind": "power_law", "n": 0.5},
    {"kind": "power_law", "n": 0.0},
)
PROFILES = tuple({"kind": "monomial", "m": m} for m in (0, 1, 2, 3)) + (
    {"kind": "quadratic"},
    {"kind": "scaled_separable"},
)


def test_every_kind_combination_is_verified_refused_or_a_listed_reason():
    tally, reasons = collections.Counter(), set()
    for phi, flux, h, variant in itertools.product(
        KINDS["phi"], FLUX_SETTINGS, PROFILES, ("P", "PTilde")
    ):
        case = {"phi": {"kind": phi}, "flux": flux, "h": h, "variant": variant}
        result = run_case(case, case_id="kinds")
        if result.violations:
            # validate refuses ill-posed specs only: h(0+) != 0 or m < 1
            assert set(result.violations) <= ILL_POSED, (case, result.violations)
            tally["refused"] += 1
        elif result.reason is None:
            assert result.passed, (case, [r for r in result.records if not r.passed])
            tally["verified"] += 1
        else:
            parts = set(result.reason.split("; "))
            assert parts <= MISSING_FAMILY_REASONS, (case, result.reason)
            reasons |= parts
            tally["reason"] += 1
    assert reasons == MISSING_FAMILY_REASONS  # a reason no spec gives leaves the list
    assert tally == {"refused": 25, "verified": 34, "reason": 241}, tally


def bits_of(case, checks):
    """run_case's records, reason and violations, or its SchemaError's text;
    each float by its bits, so a nan record equals itself."""
    try:
        result = run_case(case, case_id="spelling", extra_checks=checks)
    except SchemaError as exc:
        return str(exc)
    records = [(r.name, r.lhs.hex(), r.rhs.hex(), r.tolerance.hex()) for r in result.records]
    return records, result.reason, result.violations


# F = nu is the power law F = V^n f(t) at n = 0 with f == nu: JSON spells it
# ``constant`` or ``power_law`` with n = 0, and both spellings end alike.
@pytest.mark.parametrize("checks", [(), ("control",)])
def test_constant_and_power_law_n0_are_one_law(checks):
    for phi, h, variant, nu in itertools.product(KINDS["phi"], PROFILES, ("P", "PTilde"), (1.0, 2.5)):
        constant, power = (
            {"phi": {"kind": phi}, "flux": flux, "h": h, "variant": variant}
            for flux in ({"kind": "constant", "nu": nu}, {"kind": "power_law", "nu": nu, "n": 0.0})
        )
        assert bits_of(constant, checks) == bits_of(power, checks), constant


# The separated power law at every sign of delta, eta and scale: V^n is real
# only for delta, eta > 0, and a refused spec must not reach the complex
# delta**n of the control classification (an uncaught TypeError once).
SEPARATED_POWER_SIGNS = [
    {
        "phi": {"kind": "scaled_separable", "sigma": sigma, "delta": delta, "scale": scale},
        "flux": {"kind": "power_law", "n": n},
        "h": {"kind": "scaled_separable", "eta": eta},
    }
    for delta, eta, scale in itertools.product((-1.0, 1.0), repeat=3)
    for n in (0.0, 0.5)
    for sigma in (-1.0, 0.0, 1.0)
]


def signs_positive(case):
    return min(case["phi"]["delta"], case["phi"]["scale"], case["h"]["eta"]) > 0.0


@pytest.mark.parametrize("checks", [(), ("control",)])
def test_separated_power_law_sign_grid_ends_without_raising(checks):
    for case in SEPARATED_POWER_SIGNS:
        result = run_case(case, case_id="signs", extra_checks=checks)
        if signs_positive(case):
            assert result.violations is None, case
        else:
            rule = "power-law separated family requires scale, delta, eta > 0"
            assert result.violations == [rule], case
            assert not result.passed and result.reason is None


def test_control_classification_of_the_sign_grid_answers_without_raising():
    for case in SEPARATED_POWER_SIGNS:
        spec = spec_from_dict(case)
        classes = asymptotics.control_classification(spec)
        assert (classes is None) == bool(validate(spec)) == (not signs_positive(case)), case


# ---------------------------------------------------------------------------
# The CLI ends every sweep and convergence config with exit code 0, 1 or 2.

IDS = ("fz", 5, 1.5, None, True, ["fz"], {"id": "fz"}, "", ".", "..", "a/b", "../fz", "a\\b")
NON_OBJECTS = ([], ["x"], "x", 3, None)
GRID_KEYS = ("phi.lambda", "phi.mu", "phi.kind", "flux.nu", "flux.kind", "h.m", "h.eta", "h.kind",
             "variant", "h.m.x", "phi")
GRID_VALUES = EDGE_VALUES + WRONG_TYPES + INVALID_VARIANTS + (1, 3, 0.5, "P", "PTilde",
                                                              "linear_x", "neg_sin", "monomial")
# small ladders: every rung solves in milliseconds
LADDER = {"L": 4.0, "t_end": 0.5, "theta": 0.5, "nx": [16, 32, 64], "nt0": 16}
LADDER_NUMBERS = ("L", "t_end", "theta", "nt0")
LADDER_NAMES = ("manufactured", "homogeneous", "self", "closed_form", "bogus", None, 1)


def sometimes(one_in):
    """True once in ``one_in`` draws."""
    return st.sampled_from((False,) * (one_in - 1) + (True,))


@st.composite
def config_faults(draw, config, case_key, part_key):
    """``config``, sometimes with an id drawn from valid, wrongly typed and
    path ids, with one part replaced by a non-object, or itself replaced."""
    if draw(sometimes(4)):
        config["id"] = draw(st.sampled_from(IDS))
    if draw(sometimes(6)):
        path = draw(st.sampled_from([(case_key,), (part_key,)]
                                    + [(case_key, part) for part in ("phi", "flux", "h")]))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(NON_OBJECTS))
    if draw(sometimes(20)):
        return draw(st.sampled_from(NON_OBJECTS))
    return config


@st.composite
def mutated_sweep_configs(draw):
    """A sweep over a mutated catalog case along one grid key of one or two values."""
    case, _ = draw(mutated_cases(mutations=(0, 2)))
    key = draw(st.sampled_from(GRID_KEYS))
    grid = {key: draw(st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=2))}
    return draw(config_faults({"base": case, "grid": grid}, "base", "grid"))


@st.composite
def mutated_convergence_configs(draw):
    """A small ladder over a mutated catalog case, its numbers and names mutated too."""
    case, _ = draw(mutated_cases(mutations=(0, 2)))
    ladder = copy.deepcopy(LADDER)
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(("scale", "set", "wrong_type", "name", "nx")))
        key = draw(st.sampled_from(LADDER_NUMBERS))
        if how == "scale":
            if isinstance(ladder[key], (int, float)):
                ladder[key] *= draw(st.sampled_from(SCALES))
        elif how == "set":
            ladder[key] = draw(st.sampled_from(EDGE_VALUES))
        elif how == "wrong_type":
            ladder[key] = draw(st.sampled_from(WRONG_TYPES))
        elif how == "name":
            ladder[draw(st.sampled_from(("far_field", "reference")))] = draw(st.sampled_from(LADDER_NAMES))
        else:
            i = draw(st.integers(0, 2))
            ladder["nx"][i] = draw(st.sampled_from((4, 8, 48, 10 ** 7, 10 ** 400) + EDGE_VALUES + WRONG_TYPES))
    return draw(config_faults({"case": case, "ladder": ladder}, "case", "ladder"))


def exit_code_of(command, config):
    """``fluxheat <command>`` on ``config`` within the case budget: its exit code,
    with nothing written outside the output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, out = root / "cfg" / "fuzz.json", root / "cfg" / "out"
        cfg.parent.mkdir()
        cfg.write_text(json.dumps(config), encoding="utf-8")
        with time_budget(CASE_BUDGET_S):
            code = cli.main([command, str(cfg), "--out", str(out)])
        assert sorted(p.name for p in root.iterdir()) == ["cfg"]
        assert sorted(p.name for p in cfg.parent.iterdir()) in (["fuzz.json"], ["fuzz.json", "out"])
    return code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_sweep_configs())
@example({"id": 5, "base": load_case("ir-phi1-m3")["case"], "grid": {"h.m": [1, 3]}})
@example({"id": "fz", "base": load_case("ir-phi1-m3")["case"], "grid": {"variant": ["P", "Q"]}})
def test_every_sweep_config_exits_zero_one_or_two(config):
    assert exit_code_of("sweep", config) in (0, 1, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_convergence_configs())
@example({"id": 5, "case": load_case("ir-phi1-m3")["case"], "ladder": LADDER})
@example({"case": load_case("ir-phi1-m3")["case"], "ladder": {**LADDER, "nt0": 1e300}})
@example({"case": load_case("separated-growth")["case"], "ladder": {**LADDER, "t_end": 1e300}})
@example({"case": load_case("stationary-quadratic")["case"], "ladder": {**LADDER, "L": 1e300}})
def test_every_convergence_config_exits_zero_one_or_two(config):
    with warnings.catch_warnings():
        # FDSolver reads its grid data and boundary variable as Python
        # floats, so no config makes a numpy scalar overflow or go invalid
        warnings.simplefilter("error", RuntimeWarning)
        assert exit_code_of("convergence", config) in (0, 1, 2)
