"""Spans and counts around the calls into each fluxheat module.

Tracing wraps public functions from outside the library.  A function
imported by name into another module (``exp_moment`` lives in ``specfun`` but
is also bound in ``closed_form``, ``trajectory`` and ``volterra``) is replaced
at every module that binds it, so no call escapes; methods are replaced on
their class.  Each wrapped call records one span (name, start, end, parent)
in memory.  Self time is a span's duration minus the durations of its direct
children, which nest strictly because the loop has one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from fluxheat import asymptotics, bench, closed_form, fd, green, problem, specfun, trajectory, volterra


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """A span-recording stand-in for ``fn``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` sees each successful call.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        errors_key = f"{name}.errors"

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, **hooks):
        """Replace ``module.attr`` at every fluxheat module that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fluxheat" or mod_name.startswith("fluxheat.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, **hooks):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def unpatch(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def note_max(self, key: str, value: int):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]

    def per_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in ms), self time from span nesting."""
        if not self.spans:
            return {}
        nid, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        self_total = np.bincount(nid, weights=self_ns, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_total[i]) / 1e6) for i, name in enumerate(self.names)
        }

    def write(self, path: Path):
        """Write every span as JSON: names plus [name, start_ns, end_ns, parent] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer):
    """Wrap the layer boundaries named in PER_LAYER."""
    counts = tracer.counts

    def count_integrand(args, kwargs):
        integrand = _arg(args, kwargs, 0, "integrand")

        def counted(xi):
            counts["green.quad_semiinfinite.integrand_evals"] += 1
            return integrand(xi)

        if args:
            return (counted, *args[1:]), kwargs
        return args, {**kwargs, "integrand": counted}

    def count_probe_evals(args, kwargs):
        fn = _arg(args, kwargs, 0, "fn")

        def counted(t):
            counts["asymptotics.numeric_limit_probe.fn_evals"] += 1
            return fn(t)

        if args:
            return (counted, *args[1:]), kwargs
        return args, {**kwargs, "fn": counted}

    def count_volterra_steps(args, kwargs, result):
        counts["volterra.solve.steps"] += int(_arg(args, kwargs, 4, "n_steps"))

    def count_cells(args, kwargs, result):
        counts["fd.cell_steps"] += args[0].grid.nx + 1

    def history_bytes(args, kwargs, result):
        solver, _final = result
        tracer.note_max("fd.history_bytes", sum(a.nbytes for a in solver.history))

    def count_records(args, kwargs, result):
        counts["bench.records"] += len(result.records)

    tracer.patch_function(specfun, "exp_moment", "specfun.exp_moment")
    tracer.patch_method(
        trajectory.ClosedFormTrajectory, "weighted_integral", "trajectory.weighted_integral"
    )
    tracer.patch_function(closed_form, "solution_for", "closed_form.solution_for")
    tracer.patch_function(green, "quad_semiinfinite", "green.quad_semiinfinite", before=count_integrand)
    tracer.patch_function(volterra, "solve_volterra", "volterra.solve", after=count_volterra_steps)
    tracer.patch_function(volterra, "solve_resolvent", "volterra.solve_resolvent")
    tracer.patch_function(volterra, "kernel_eval", "volterra.kernel_eval")
    tracer.patch_function(volterra, "volterra_residual", "volterra.volterra_residual")
    tracer.patch_method(fd.FDSolver, "step", "fd.step", after=count_cells)
    tracer.patch_function(fd, "solve", "fd.solve", after=history_bytes)
    tracer.patch_function(fd, "pde_residual", "fd.pde_residual")
    tracer.patch_function(
        asymptotics, "numeric_limit_probe", "asymptotics.numeric_limit_probe",
        before=count_probe_evals,
    )
    tracer.patch_function(asymptotics, "control_classification", "asymptotics.control_classification")
    tracer.patch_function(problem, "spec_from_dict", "problem.spec_from_dict")
    tracer.patch_function(problem, "validate", "problem.validate")
    tracer.patch_function(bench, "run_case", "bench.run_case", after=count_records)
    tracer.patch_function(bench, "convergence", "bench.convergence")


# (metric, unit): the per-layer metrics of a traced run, as BENCHMARK.json lists them.
PER_LAYER = [
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
        "per_layer"
    ]
]

# Metrics that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "bytes")]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Values of every PER_LAYER metric except ``trace.slowdown``."""
    by_name = tracer.per_name()
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric == "problem.self_ms":
            out[metric] = sum(
                by_name.get(n, (0, 0.0))[1] for n in ("problem.spec_from_dict", "problem.validate")
            )
        elif field == "calls":
            out[metric] = by_name.get(span, (0, 0.0))[0]
        elif field == "self_ms":
            out[metric] = by_name.get(span, (0, 0.0))[1]
        elif metric == "fd.history_bytes":
            out[metric] = tracer.maxima.get(metric, 0)
        elif metric != "trace.slowdown":
            out[metric] = tracer.counts.get(metric, 0)
    return out
