"""fluxheat benchmark: one command, four workloads, an untraced and a traced mode.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 50 --trace 0

The library is imported from ``src/`` of the checkout; nothing is installed.
One process drives the public functions as a closed loop with one client, one
op at a time, with BLAS pinned to one thread.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics:
set-up time (median of several cold starts, each in a fresh interpreter:
import, input load or generation, one warm-up op), ops per second, the median
op time and peak RSS.  It also prints the 99th percentile, the highest
percentile with at least 10 samples beyond it (``op_tail_ms``), and the
failure and accuracy figures.

Timings are scaled to a reference CPU speed.  A fixed reference kernel of
numpy and scipy work, which runs no fluxheat code, is timed between ops about
every ``CAL_EVERY_S`` seconds; each op's time is multiplied by
``CAL_REF_MS`` over the kernel's time around it.  Each set-up time is scaled
the same way by a pure-Python kernel timed just before and just after it.
On a shared host whose CPU speed swings by half over seconds to minutes this
removes most of the swing, which raw wall-clock times cannot average out.
Raw wall-clock figures are printed beside the scaled ones.
``--trace 1`` runs a fixed op list twice, untraced and then traced, and
reports the per-layer metrics of ``tracing.PER_LAYER``; its spans are written
to ``perfbench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit code 0 once a result is printed; 2 when the checkout holds no library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path



def python_kernel() -> float:
    """Fixed pure-Python work, the yardstick of set-up speed: ms, the faster of two runs.

    Set-up is mostly imports, interpreter work that this tracks better than
    the numpy and scipy kernel.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter_ns()
        s, d = 0.0, {}
        for i in range(1, 15000):
            s += math.sqrt(i) / i
        for i in range(3000):
            d[str(i)] = i
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


_PY_CAL_START = python_kernel()
_T0 = time.perf_counter()
_LOADAVG = os.getloadavg()

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
# Cold starts measured in child interpreters, on top of this process's own.
SETUP_CHILDREN = 10
# Seconds of ops between two timings of the reference kernel.
CAL_EVERY_S = 0.25
# Nominal kernel times: scaled timings read as on a CPU that runs the
# reference kernel, and the Python kernel, in this many ms (about their
# medians on a 2-vCPU x86-64 cloud VM).
CAL_REF_MS = 2.0
PY_CAL_REF_MS = 2.0
# Spelled out here because arguments are parsed before the library is imported.
WORKLOAD_NAMES = ("catalog", "sweep", "fd_ladder", "volterra")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe", action="store_true",
        help="measure one cold set-up, print it and exit (used by the parent run)",
    )
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_library():
    if not (SRC / "fluxheat" / "__init__.py").is_file():
        print(f"perfbench: no fluxheat sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for key, value in BLAS_PIN.items():
        os.environ[key] = value
    sys.path.insert(0, str(SRC))
    import fluxheat

    if Path(fluxheat.__file__).resolve().parent != (SRC / "fluxheat").resolve():
        print(f"perfbench: imported fluxheat from {fluxheat.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def reference_kernel() -> float:
    """Fixed numpy and scipy work, the yardstick of CPU speed.

    Small-array numpy calls, long-array numpy calls and scipy quadrature of a
    Python integrand: the mix the fluxheat ops spend their time in.
    """
    import numpy as np
    from scipy import integrate

    s = 0.0
    x = np.linspace(0.0, 1.0, 200)
    for i in range(100):
        s += float(np.sum(np.exp(-i * x) * np.sin(x)))
    y = np.linspace(0.0, 1.0, 8000)
    for i in range(10):
        s += float(np.sum(np.exp(-i * y) * np.sin(y)))
    for a in (0.5, 1.0, 1.5, 2.0):
        s += integrate.quad(lambda t: math.exp(-a * t) * math.cos(t), 0.0, math.inf)[0]
    return s


def calibrate() -> float:
    """Reference-kernel time in ms: the faster of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter_ns()
        reference_kernel()
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def set_up(name: str, seed: int):
    """Import, build the inputs and run one warm-up op; returns the workload."""
    _import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    inp = wl.input(0)
    wl.call(inp)
    return wl


# -- measurement ---------------------------------------------------------------


class Tally:
    """Op times and outcomes of one measured loop."""

    def __init__(self):
        self.times_ns: list[int] = []   # each op's call
        self.busy_ns: list[int] = []    # each op's input, call and check
        self.scale: list[float] = []    # each op's factor to reference speed
        self.cal_ms: list[float] = []   # reference-kernel times of the loop
        self.failures: dict[str, int] = {}
        self.contradictions = 0
        self.max_rel_err: float | None = None
        self.worst_check_ratio: float | None = None

    def add(self, elapsed_ns: int, busy_ns: int, outcome):
        self.times_ns.append(elapsed_ns)
        self.busy_ns.append(busy_ns)
        if not outcome.passed:
            self.failures[outcome.reason] = self.failures.get(outcome.reason, 0) + 1
            self.contradictions += outcome.contradicts_reference
        if outcome.rel_err is not None:
            self.max_rel_err = max(self.max_rel_err or 0.0, outcome.rel_err)
        if outcome.check_ratio is not None:
            self.worst_check_ratio = max(self.worst_check_ratio or 0.0, outcome.check_ratio)

    def scaled_ms(self) -> list[float]:
        """Op times in ms at reference speed."""
        return [t * f / 1e6 for t, f in zip(self.times_ns, self.scale)]

    def rate(self, scaled: bool = True) -> float:
        """Ops per second of busy time (calibration excluded)."""
        if scaled:
            return self.attempted / (sum(b * f for b, f in zip(self.busy_ns, self.scale)) / 1e9)
        return self.attempted / (sum(self.busy_ns) / 1e9)

    @property
    def attempted(self) -> int:
        return len(self.times_ns)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(wl, first: int, seconds: float | None = None, count: int | None = None):
    """Closed loop: ops ``first, first+1, ...`` for ``seconds`` or ``count`` ops.

    A timed loop ends at a pass boundary so every input of a rotation is
    equally represented.  The reference kernel is timed before the first op,
    after the last and about every ``CAL_EVERY_S`` between; an op's scale is
    ``CAL_REF_MS`` over the mean of the kernel times just before and after it.
    Returns the tally.
    """
    tally = Tally()
    clock = time.perf_counter_ns
    cals = [calibrate()]
    op_cal: list[int] = []
    last_cal = clock()
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    i = first
    while True:
        if count is not None and i - first >= count:
            break
        if deadline is not None and clock() >= deadline:
            if wl.pass_len is None or (i - first) % wl.pass_len == 0:
                break
        if clock() - last_cal >= CAL_EVERY_S * 1e9:
            cals.append(calibrate())
            last_cal = clock()
        b0 = clock()
        inp = wl.input(i)
        t0 = clock()
        try:
            result = wl.call(inp)
        except Exception as exc:  # the op boundary: record the failure, keep going
            t1 = clock()
            outcome = wl.raised(inp, exc)
        else:
            t1 = clock()
            outcome = wl.check(inp, result)
        tally.add(t1 - t0, clock() - b0, outcome)
        op_cal.append(len(cals) - 1)
        i += 1
    cals.append(calibrate())
    tally.scale = [2.0 * CAL_REF_MS / (cals[k] + cals[k + 1]) for k in op_cal]
    tally.cal_ms = cals
    return tally


def first_op(wl) -> int:
    """Index of the first measured op.

    The warm-up ran op 0.  A rotation starts over at 0 so its passes follow
    the input order; a stream moves on so that no spec repeats.
    """
    return 0 if wl.pass_len else 1


def percentile(s: list[float], q: float) -> float:
    """The ``q``-th percentile of sorted ``s``: the smallest value with q% at or below."""
    return s[max(math.ceil(q / 100.0 * len(s)) - 1, 0)]


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 or fewer samples the
    maximum is returned with 0 beyond.
    """
    s = sorted(times_ms)
    n = len(s)
    k = n - 11 if n >= 11 else n - 1
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def setup_samples(name: str, seed: int, own: tuple[float, float]) -> list[tuple[float, float]]:
    """(set-up seconds, Python-kernel ms) of this process and of each probe."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds, cal_ms = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(cal_ms)))
    return samples


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha(SRC / "fluxheat"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(_LOADAVG),
        "seed": seed,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


# -- the two modes -----------------------------------------------------------


def _metrics(section: str, values: dict) -> dict:
    """The JSON metrics: every metric BENCHMARK.json lists in ``section``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


def untraced(args, wl, own_setup: tuple[float, float], out: list[str]) -> dict:
    samples = setup_samples(args.workload, args.seed, own_setup)
    tally = run_ops(wl, first_op(wl), seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scaled = sorted(tally.scaled_ms())
    raw = sorted(t / 1e6 for t in tally.times_ns)
    tail_ms, tail_pct, beyond = tail(scaled)
    raw_tail = tail(raw)[0]
    n = tally.attempted
    setups = sorted(sec * PY_CAL_REF_MS / cal for sec, cal in samples)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.rate(),
        "op_p50_ms": statistics.median(scaled),
        "op_p99_ms": percentile(scaled, 99.0),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    cals = tally.cal_ms
    out.append(f"timings at reference speed: kernel {CAL_REF_MS} ms; measured "
               f"{len(cals)} times, median {statistics.median(cals):.4f} ms, "
               f"range {min(cals):.4f}-{max(cals):.4f} ms")
    out.append(f"setup_s = {values['setup_s']:.4f} s (median of {len(samples)} cold starts; "
               f"wall s / Python kernel ms: {', '.join(f'{sec:.4f}/{cal:.3f}' for sec, cal in samples)})")
    out.append(f"ops_per_s = {values['ops_per_s']:.4f} 1/s ({n} ops; wall {tally.rate(False):.4f})")
    out.append(f"op_p50_ms = {values['op_p50_ms']:.4f} ms (n={n}; wall {statistics.median(raw):.4f})")
    out.append(f"op_p99_ms = {values['op_p99_ms']:.4f} ms (n={n}; wall {percentile(raw, 99.0):.4f})")
    out.append(f"op_tail_ms = {tail_ms:.4f} ms (p{tail_pct:.2f}, {beyond} samples beyond, "
               f"n={n}; wall {raw_tail:.4f})")
    out.append(f"fail_frac = {tally.failed / n:.6f} ({tally.failed}/{n}) by reason: "
               f"{json.dumps(dict(sorted(tally.failures.items())))}")
    if args.workload in ("fd_ladder", "volterra"):
        out.append(f"max_rel_err = {tally.max_rel_err!r} 1 (worst over the run, against the closed form)")
    else:
        out.append(f"worst_check_ratio = {tally.worst_check_ratio!r} 1 "
                   "(max abs_diff/tolerance over passing checks)")
    out.append(f"peak_rss_mb = {peak_rss_mb:.2f} MB")
    return {"tally": tally, "metrics": _metrics("end_to_end", values)}


def traced(args, wl, out: list[str]) -> dict:
    import tracing

    count, first = wl.trace_ops, first_op(wl)
    # a stream measures its untraced rate on the next specs, so that neither
    # pass sees a spec twice
    plain_first = first if wl.pass_len else first + count
    plain = run_ops(wl, plain_first, count=count)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tally = run_ops(wl, first, count=count)
    finally:
        tracer.unpatch()
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(span_file)

    values = tracing.layer_metrics(tracer)
    values["trace.slowdown"] = plain.rate() / tally.rate()
    out.append(f"traced op list: {count} ops; untraced {plain.rate():.4f} ops/s, "
               f"traced {tally.rate():.4f} ops/s (at reference speed); {len(tracer.spans)} "
               f"spans -> {span_file.relative_to(ROOT)}")
    metrics = _metrics("per_layer", values)
    for name, m in metrics.items():
        out.append(f"{name} = {m['value']!r} {m['unit']}")
    out.append(f"fail_frac = {tally.failed / count:.6f} ({tally.failed}/{count})")
    return {"tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    wl = set_up(args.workload, args.seed)
    # set-up time and the Python kernel's mean time before and after it
    own_setup = (time.perf_counter() - _T0, (_PY_CAL_START + python_kernel()) / 2.0)
    if args.setup_probe:
        print(f"{own_setup[0]!r} {own_setup[1]!r}")
        return 0

    out = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        "provenance " + json.dumps(provenance(args.seed), sort_keys=True),
    ]
    result = traced(args, wl, out) if args.trace else untraced(args, wl, own_setup, out)
    tally = result["tally"]
    out.extend(wl.report())
    correct = tally.contradictions == 0 and wl.consistent() and all(
        math.isfinite(m["value"]) for m in result["metrics"].values()
    )
    print("\n".join(out))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
