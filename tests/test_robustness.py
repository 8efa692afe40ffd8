"""run_case ends every case: a CaseResult or a SchemaError, in bounded time.

The property draws catalog cases of every family and both variants and
mutates them: numbers scaled or replaced by edge values (zero, tiny, large,
negative, +-1e300, NaN, +-inf), fields of the wrong type, kinds swapped and
the variant flipped.  The examples are specs that once escaped: a control
classification that overflows (it ran outside ``run_case``'s numerical guard,
so ``fluxheat run`` printed a traceback) and T equations too stiff for RK45,
on which the separated family's ODE cross-check never ended.
"""

import contextlib
import copy
import json
import math
import signal
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxheat import cli
from fluxheat.bench import CaseResult, run_case
from fluxheat.catalog import iter_cases, load_case
from fluxheat.problem import SchemaError

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


@st.composite
def mutation(draw, case):
    """Apply one mutation to ``case`` in place."""
    part = draw(st.sampled_from(("phi", "flux", "h")))
    how = draw(st.sampled_from(("scale", "set", "wrong_type", "kind", "variant")))
    if how == "kind":
        case[part]["kind"] = draw(st.sampled_from(KINDS[part]))
    elif how == "variant":
        case["variant"] = "PTilde" if case.get("variant", "P") == "P" else "P"
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
def mutated_cases(draw):
    """(case, checks): a catalog case under one to three mutations, with its
    own checks, the control checks or none."""
    _, config = draw(st.sampled_from(CATALOG))
    case = copy.deepcopy(config["case"])
    for _ in range(draw(st.integers(1, 3))):
        draw(mutation(case))
    checks = draw(st.sampled_from((tuple(config.get("checks", ())), ("control",), ())))
    return case, checks


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutated_cases())
@example((OVERFLOWING_CONTROLS["sinh-lambda"], ("control",)))
@example((OVERFLOWING_CONTROLS["separated-sigma"], ("control",)))
@example((separated_growth(nu=1e6), ()))
@example((separated_growth(nu=1e300), ("control",)))
def test_every_case_ends_as_a_result_or_a_schema_error(drawn):
    case, checks = drawn
    with time_budget(CASE_BUDGET_S):
        try:
            result = run_case(case, case_id="fuzz", extra_checks=checks)
        except SchemaError:
            return
    assert isinstance(result, CaseResult)
