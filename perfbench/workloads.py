"""The four benchmark workloads: their inputs, one op each, and its check.

Every workload is a closed loop with one client.  The harness in ``run.py``
asks a workload for the input of op ``i`` (untimed), times ``call`` on it, and
then hands the result to ``check``, which compares it with a reference and
returns an :class:`Outcome`.

Why these four (each stresses different layers):

- ``catalog``: the paper's headline use, every shipped case with its own
  checks, pass after pass.  Loads closed forms, trajectories and ``specfun``,
  Green quadrature, asymptotics and the ``bench`` checks.  The 27 specs repeat
  every pass, so a per-spec cache would hit here.
- ``sweep``: the same layers on fresh specs drawn from the seed over the
  whole admissible integral-representation box, never filtered.  No spec
  repeats, so a per-spec cache misses; it also reaches the near-resonant and
  fast-growing regions where some specs fail today.
- ``fd_ladder``: finite-difference convergence ladders, where the tridiagonal
  time stepper dominates.  FD is negligible in the other workloads.
- ``volterra``: the numeric flux solvers, which no CLI path runs, and small-t
  kernel quadratures centred at 0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from fluxheat import bench, catalog, closed_form, volterra
from fluxheat.green import QuadratureError
from fluxheat.problem import spec_from_dict

# Fixed error bounds against the closed forms.  Each sits well above the
# error the solver shows on these inputs (about 10x or more), so a bound is
# crossed only when accuracy really degrades.
FD_REL_ERR_BOUND = 2e-2
VOLTERRA_REL_ERR_BOUNDS = {
    "analytic": 1e-7,
    "resolvent": 1e-6,
    "quad_kernel": 5e-2,
    "quad_forcing": 1e-4,
}

# sha256 of the CSV rows (``CaseResult.csv_rows``) of one catalog pass, all 27
# cases in sorted order, as the seed commit writes them.  Every pass must
# reproduce it byte for byte: the catalog CSV contract.
CATALOG_CSV_SHA256 = "8420f7859a03141ccc0eb8aa78e2ed8e429d6ec3036816e731bf09933962d849"

# Exception types the library raises on purpose.  Anything else reaching the
# op boundary is a programming error, not a recorded numerical failure.
EXPECTED_ERRORS = (closed_form.ConstructionError, QuadratureError, ArithmeticError)


@dataclass
class Outcome:
    """Verdict on one op.

    ``passed`` is False when the op raised, a check failed or an output is
    off its reference.  ``reason`` names the failure (exception type or the
    failing checks).  ``contradicts_reference`` marks a failure on an input
    whose expected verdict is known, which makes the whole run incorrect.
    """

    passed: bool
    reason: str | None = None
    contradicts_reference: bool = False
    rel_err: float | None = None
    check_ratio: float | None = None


def _check_ratio(result) -> float | None:
    """Max abs_diff/tolerance over passing checks with nonzero tolerance."""
    ratios = [r.abs_diff / r.tolerance for r in result.records if r.passed and r.tolerance > 0]
    return max(ratios) if ratios else None


def _case_result_outcome(result, case_id: str, reference_pass: bool) -> Outcome:
    """Check a ``CaseResult``: well formed, and passing where that is known."""
    well_formed = (
        result.case_id == case_id
        and result.records
        and result.records[0].name == "validate"
        and len(result.csv_rows()) == len(result.records)
    )
    if not well_formed:
        return Outcome(False, "malformed_result", contradicts_reference=True)
    ratio = _check_ratio(result)
    if result.passed:
        return Outcome(True, check_ratio=ratio)
    failing = "+".join(sorted({r.name for r in result.records if not r.passed}))
    return Outcome(False, f"check:{failing}", contradicts_reference=reference_pass, check_ratio=ratio)


class Workload:
    """Inputs and op of one workload.  Subclasses set the class attributes."""

    name = ""
    pass_len: int | None = None   # ops per pass; None for an endless stream
    trace_ops = 0                  # fixed op count of the traced run
    reference_known = True         # every input has a known passing verdict

    def input(self, i: int):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> Outcome:
        raise NotImplementedError

    def raised(self, inp, exc: Exception) -> Outcome:
        """Verdict on an op that raised ``exc`` instead of returning."""
        expected = isinstance(exc, EXPECTED_ERRORS)
        return Outcome(
            False,
            type(exc).__name__,
            contradicts_reference=self.reference_known or not expected,
        )

    def report(self) -> list[str]:
        """Extra lines (input digests, output hashes) for the text output."""
        return []

    def consistent(self) -> bool:
        """Run-level output checks beyond the per-op ones."""
        return True


class Catalog(Workload):
    name = "catalog"
    trace_ops = 3 * 27

    def __init__(self, seed: int):
        self.cases = list(catalog.iter_cases())
        self.pass_len = len(self.cases)
        self._inputs_sha = hashlib.sha256(
            json.dumps(self.cases, sort_keys=True).encode()
        ).hexdigest()
        self._rows = hashlib.sha256()
        self._pass_digests: list[str] = []
        self._in_pass = 0

    def input(self, i: int):
        case_id, cfg = self.cases[i % self.pass_len]
        return case_id, cfg["case"], tuple(cfg.get("checks", ()))

    def call(self, inp):
        case_id, case, checks = inp
        return bench.run_case(case, case_id=case_id, extra_checks=checks)

    def _add_rows(self, text: str):
        # every pass must hash to CATALOG_CSV_SHA256
        self._rows.update(text.encode())
        self._in_pass += 1
        if self._in_pass == self.pass_len:
            self._pass_digests.append(self._rows.hexdigest())
            self._rows = hashlib.sha256()
            self._in_pass = 0

    def check(self, inp, result) -> Outcome:
        self._add_rows("\n".join(result.csv_rows()) + "\n")
        return _case_result_outcome(result, inp[0], reference_pass=True)

    def raised(self, inp, exc: Exception) -> Outcome:
        self._add_rows(f"{inp[0]} raised {type(exc).__name__}\n")
        return super().raised(inp, exc)

    def consistent(self) -> bool:
        return set(self._pass_digests) == {CATALOG_CSV_SHA256}

    def report(self) -> list[str]:
        csv = self._pass_digests[0] if self._pass_digests else "none"
        return [
            f"inputs: {self.pass_len} catalog cases sha256={self._inputs_sha}",
            f"csv_rows sha256={csv} over {len(self._pass_digests)} passes, "
            f"all equal to the seed's={self.consistent()}",
        ]


SWEEP_SHAPES = ("linear_x", "neg_sinh", "neg_sin")
SWEEP_MS = (1, 3, 5, 7)
SWEEP_CHUNK = 1024


def sweep_specs(seed: int):
    """Endless deterministic stream of case dicts for ``seed``.

    Draws uniformly over the admissible integral-representation box: the
    three shapes, lambda, mu, nu in [0.2, 2], m in {1, 3, 5, 7} and eta in
    [0.25, 2], under the linear law.  Nothing is rejected.
    """
    rng = np.random.default_rng(seed)
    while True:
        shape = rng.integers(len(SWEEP_SHAPES), size=SWEEP_CHUNK)
        lam, mu, nu = rng.uniform(0.2, 2.0, size=(3, SWEEP_CHUNK))
        m = rng.integers(len(SWEEP_MS), size=SWEEP_CHUNK)
        eta = rng.uniform(0.25, 2.0, size=SWEEP_CHUNK)
        for j in range(SWEEP_CHUNK):
            kind = SWEEP_SHAPES[shape[j]]
            phi = {"kind": kind, "lambda": float(lam[j])}
            if kind != "linear_x":
                phi["mu"] = float(mu[j])
            yield {
                "phi": phi,
                "flux": {"kind": "linear", "nu": float(nu[j])},
                "h": {"kind": "monomial", "eta": float(eta[j]), "m": SWEEP_MS[m[j]]},
                "variant": "P",
            }


def specs_digest(specs) -> str:
    h = hashlib.sha256()
    for case in specs:
        h.update(json.dumps(case, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


class Sweep(Workload):
    name = "sweep"
    trace_ops = 200
    reference_known = False

    def __init__(self, seed: int):
        self.seed = seed
        self._stream = sweep_specs(seed)
        self._drawn: list[dict] = []

    def input(self, i: int):
        while len(self._drawn) <= i:
            self._drawn.append(next(self._stream))
        return f"sweep-{self.seed}-{i}", self._drawn[i]

    def call(self, inp):
        case_id, case = inp
        return bench.run_case(case, case_id=case_id, extra_checks=("control",))

    def check(self, inp, result) -> Outcome:
        # a random spec has no known verdict: a failing check is a recorded
        # failure, not a contradiction
        return _case_result_outcome(result, inp[0], reference_pass=False)

    def report(self) -> list[str]:
        return [
            f"inputs: {len(self._drawn)} sweep specs seed={self.seed} "
            f"sha256={specs_digest(self._drawn)}"
        ]


FD_CASES = ("ir-phi1-m3", "separated-sin-decay", "tilde-ir-phi1-m1")
FD_LADDER = {
    "L": 8.0,
    "t_end": 1.0,
    "theta": 0.5,
    "nx": [256, 512, 1024],
    "nt0": 256,
    "far_field": "manufactured",
    "reference": "closed_form",
}


class FdLadder(Workload):
    name = "fd_ladder"
    pass_len = len(FD_CASES)
    trace_ops = len(FD_CASES)

    def __init__(self, seed: int):
        self.configs = []
        self.scales = []
        x = np.linspace(0.0, FD_LADDER["L"], max(FD_LADDER["nx"]) + 1)
        for case_id in FD_CASES:
            case = catalog.load_case(case_id)["case"]
            self.configs.append({"id": case_id, "case": case, "ladder": dict(FD_LADDER)})
            field = closed_form.solution_for(spec_from_dict(case))
            self.scales.append(max(abs(field.u(xi, FD_LADDER["t_end"])) for xi in x))

    def input(self, i: int):
        return i % self.pass_len

    def call(self, inp):
        return bench.convergence(self.configs[inp])

    def check(self, inp, result) -> Outcome:
        lines, ok = result
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != len(FD_LADDER["nx"]):
            return Outcome(False, "malformed_result", contradicts_reference=True)
        rel = max(float(r["error_max"]) for r in rows) / self.scales[inp]
        if not ok or any(r["degraded"] != "0" for r in rows):
            return Outcome(False, "degraded", contradicts_reference=True, rel_err=rel)
        if not rel <= FD_REL_ERR_BOUND:
            return Outcome(False, "error_bound", contradicts_reference=True, rel_err=rel)
        return Outcome(True, rel_err=rel)

    def report(self) -> list[str]:
        return [f"inputs: fd ladders over {', '.join(FD_CASES)} nx={FD_LADDER['nx']}"]


VOLTERRA_CASES = ("ir-phi1-m3", "ir-phi2-m3", "ir-phi3-m3-dpos", "ir-phi3-m5-d0")
VOLTERRA_T_END = 2.0


class Volterra(Workload):
    name = "volterra"
    pass_len = len(VOLTERRA_CASES)
    trace_ops = len(VOLTERRA_CASES)

    def __init__(self, seed: int):
        self.specs = [spec_from_dict(catalog.load_case(c)["case"]) for c in VOLTERRA_CASES]
        self.references = [closed_form.flux_closed_form(s) for s in self.specs]

    def input(self, i: int):
        return i % self.pass_len

    def call(self, inp):
        spec = self.specs[inp]
        nu, t_end = spec.flux.nu, VOLTERRA_T_END
        kernel = volterra.kernel_for(spec.phi)
        forcing = volterra.forcing_for(spec.h)
        return {
            "analytic": volterra.solve_volterra(kernel, forcing, nu, t_end, 8000),
            "resolvent": volterra.solve_resolvent(kernel, forcing, nu, t_end, 4000),
            "quad_kernel": volterra.solve_volterra(
                volterra.kernel_for(spec.phi, quadrature=True), forcing, nu, t_end, 32
            ),
            "quad_forcing": volterra.solve_volterra(
                kernel, volterra.forcing_for(spec.h, quadrature=True), nu, t_end, 400
            ),
        }

    def check(self, inp, result) -> Outcome:
        reference = self.references[inp]
        worst, failing = 0.0, []
        for solver, traj in result.items():
            exact = reference(traj.t)
            rel = float(np.max(np.abs(traj.values - exact)) / np.max(np.abs(exact)))
            if not math.isfinite(rel) or rel > VOLTERRA_REL_ERR_BOUNDS[solver]:
                failing.append(solver)
            worst = max(worst, rel) if math.isfinite(rel) else math.inf
        if failing:
            return Outcome(
                False, "error_bound:" + "+".join(failing), contradicts_reference=True, rel_err=worst
            )
        return Outcome(True, rel_err=worst)

    def report(self) -> list[str]:
        return [f"inputs: volterra solves over {', '.join(VOLTERRA_CASES)} t_end={VOLTERRA_T_END}"]


WORKLOADS = {w.name: w for w in (Catalog, Sweep, FdLadder, Volterra)}
