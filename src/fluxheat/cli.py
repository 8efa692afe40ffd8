"""Command-line benchmark driver.

    fluxheat run <config.json>          single case, all applicable checks
    fluxheat sweep <config.json>        cartesian parameter grid -> CSV
    fluxheat convergence <config.json>  refinement-ladder study -> CSV

Every subcommand takes --out DIR (default benchmark_out).  ``run`` and
``sweep``, which run checks, also take --tol-scale FLOAT (multiply every
tolerance) and --slow-oracles (enable raw double-quadrature paths); ``sweep``
alone takes --jobs N (parallel cases, capped at the CPU count).

Exit codes: 0 all checks passed, 1 check failure (including a numerical
failure, whose reason is printed and, for ``run``, goes in the report;
``convergence`` then writes no CSV), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import CSV_HEADER, convergence, run_case, sweep
from .green import QuadratureError
from .problem import SchemaError, config_id, read_object

__all__ = ["main"]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    return read_object(config, "config")


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text, encoding="utf-8")
    return target


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if "phi" in config:
        # bare case object without the {id, case, checks} envelope
        case, case_id, extra = config, Path(args.config).stem, ()
    else:
        read_object(config, "config", {"id", "case", "checks"}, ("case",))
        case = config["case"]
        case_id = config_id(config, Path(args.config).stem)
        extra = config.get("checks", ())

    result = run_case(
        case,
        case_id=case_id,
        tol_scale=args.tol_scale,
        slow_oracles=args.slow_oracles,
        extra_checks=extra,
    )
    out = Path(args.out)
    _write(out, f"{case_id}.json", json.dumps(result.as_dict(), indent=2) + "\n")
    _write(out, f"{case_id}.csv", "\n".join([CSV_HEADER, *result.csv_rows()]) + "\n")
    for record in result.records:
        mark = "PASS" if record.passed else "FAIL"
        print(
            f"[{mark}] {case_id}:{record.name} |diff|={record.abs_diff:.3e} "
            f"tol={record.tolerance:.3e}"
        )
    for violation in result.violations or ():
        print(f"  violated hypothesis: {violation}")
    if result.reason is not None:
        print(f"[FAIL] {case_id}: {result.reason}")
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    stem = config_id(config, Path(args.config).stem)
    lines, all_pass, reasons = sweep(
        config,
        tol_scale=args.tol_scale,
        slow_oracles=args.slow_oracles,
        jobs=args.jobs,
    )
    target = _write(Path(args.out), f"{stem}.csv", "\n".join(lines) + "\n")
    print(f"wrote {target} ({len(lines) - 1} rows)")
    for case_id, reason in reasons:
        print(f"[FAIL] {case_id}: {reason}")
    return 0 if all_pass else 1


def _cmd_convergence(args) -> int:
    config = _load_config(args.config)
    stem = config_id(config, Path(args.config).stem)
    try:
        lines, ok = convergence(config)
    except (ArithmeticError, QuadratureError) as exc:  # a numerical failure: no CSV
        print(f"[FAIL] {stem}: convergence study fails numerically: {exc}")
        return 1
    target = _write(Path(args.out), f"{stem}-convergence.csv", "\n".join(lines) + "\n")
    print(f"wrote {target}")
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="benchmark_out", help="output directory")
    parser = argparse.ArgumentParser(
        prog="fluxheat",
        description="Verification benchmarks for the flux-coupled half-line heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("sweep", _cmd_sweep), ("convergence", _cmd_convergence)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("config", help="JSON config path")
        p.set_defaults(fn=fn)
        if name != "convergence":
            p.add_argument(
                "--tol-scale", type=float, default=1.0, help="multiply all check tolerances"
            )
            p.add_argument(
                "--slow-oracles",
                action="store_true",
                help="enable the raw double-quadrature oracle paths",
            )
        if name == "sweep":
            p.add_argument(
                "--jobs", type=int, default=1, help="parallel cases (capped at the CPU count)"
            )

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # SchemaError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
