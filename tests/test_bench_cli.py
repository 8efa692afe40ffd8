import hashlib
import json

import pytest

from fluxheat import bench, cli
from fluxheat.bench import _worker_count, convergence, run_case, sweep
from fluxheat.catalog import case_ids, iter_cases, load_case
from fluxheat.problem import SchemaError

# sha256 of the CSV rows of one catalog pass (every case in sorted order, each
# case's rows joined by newlines with a trailing newline), as the seed commit
# writes them: the catalog CSV contract.  Copied from perfbench/workloads.py
# (CATALOG_CSV_SHA256), not imported, so the suite pins it on its own.
CATALOG_CSV_SHA256 = "8420f7859a03141ccc0eb8aa78e2ed8e429d6ec3036816e731bf09933962d849"


def base_case(m=1, kind="linear_x"):
    return {
        "phi": {"kind": kind, "lambda": 1.0, "mu": 1.0} if kind != "linear_x" else {"kind": kind, "lambda": 1.0},
        "flux": {"kind": "linear", "nu": 1.0},
        "h": {"kind": "monomial", "eta": 1.0, "m": m},
        "variant": "P",
    }


class TestRunCase:
    def test_catalog_case_passes(self):
        cfg = load_case("ir-phi1-m3")
        result = run_case(cfg["case"], case_id="ir-phi1-m3", extra_checks=tuple(cfg.get("checks", ())))
        assert result.passed
        names = {r.name for r in result.records}
        assert "volterra_residual" in names and "pde_residual" in names

    def test_whole_catalog_passes(self):
        for cid in case_ids():
            cfg = load_case(cid)
            result = run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))
            failing = [r.name for r in result.records if not r.passed]
            assert result.passed, (cid, failing)

    def test_catalog_csv_rows_are_pinned(self):
        digest = hashlib.sha256()
        for cid, cfg in iter_cases():
            result = run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))
            digest.update(("\n".join(result.csv_rows()) + "\n").encode())
        assert digest.hexdigest() == CATALOG_CSV_SHA256

    def test_control_checks_reuse_the_case_field(self, monkeypatch):
        from fluxheat import closed_form

        calls = []
        real = closed_form.flux_closed_form

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(closed_form, "flux_closed_form", counting)
        cfg = load_case("ir-phi2-m3")
        assert "control" in cfg["checks"]
        result = run_case(cfg["case"], case_id="ir-phi2-m3", extra_checks=("control",))
        assert result.passed and {"control_u", "control_ratio"} <= {r.name for r in result.records}
        assert len(calls) == 1

    def test_companion_checks_reuse_the_base_field(self, monkeypatch):
        from fluxheat import closed_form

        calls = []
        real = closed_form.flux_closed_form

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(closed_form, "flux_closed_form", counting)
        cfg = load_case("tilde-ir-phi1-m1")
        result = run_case(cfg["case"], case_id="tilde-ir-phi1-m1")
        assert result.passed and "tilde_matches_ux" in {r.name for r in result.records}
        assert len(calls) == 1

    def test_baseline_coefficients_built_once_per_case(self, monkeypatch):
        # the u0_polynomial check and the control u0 probe read the field's baseline
        from fluxheat import closed_form

        builds = []
        real = closed_form._u0_coeffs

        def counting(h):
            builds.append(h)
            return real(h)

        monkeypatch.setattr(closed_form, "_u0_coeffs", counting)
        for cid, cfg in iter_cases():
            if not cid.startswith("ir-"):
                continue
            builds.clear()
            result = run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))
            assert result.passed and "u0_polynomial" in {r.name for r in result.records}
            assert len(builds) == 1, cid

    def test_overflowing_flux_names_the_overflow(self):
        # e^{rho t} with rho = lambda^2 = 400 leaves the double range at t = 2
        case = base_case(m=1, kind="neg_sinh")
        case["phi"]["lambda"] = 20.0
        result = run_case(case, case_id="overflow")
        assert not result.passed
        assert "overflows" in result.reason and "at t = 2" in result.reason
        assert result.reason.startswith("closed-form flux check")
        assert [r.name for r in result.records] == ["validate"]

    @pytest.mark.parametrize(
        "mu, reason",
        [
            # the flux rate r = -lambda delta = 291 overflows exp(r t) in the
            # pre-scaled time factor of u at the last flux-consistency time
            (100.0, "time factor exp(291 t) overflows at t = 5"),
            # V(t) itself is inf at the construction check's samples
            (150.0, "closed-form flux check: V(t) overflows at t = 2"),
            (200.0, "closed-form flux check: V(t) overflows at t = 2"),
            (400.0, "closed-form flux check: V(t) overflows at t = 1"),
        ],
    )
    def test_overflowing_sine_flux_names_the_overflow(self, mu, reason):
        case = base_case(m=1, kind="neg_sin")
        case["phi"].update({"lambda": 3.0, "mu": mu})
        result = run_case(case, case_id="overflow")
        assert not result.passed
        assert result.reason == reason

    def test_failure_partway_keeps_the_earlier_records(self):
        # the flux-consistency check overflows: the records made before it stay, in order
        case = base_case(m=1, kind="neg_sin")
        case["phi"].update({"lambda": 3.0, "mu": 100.0})
        result = run_case(case, case_id="overflow")
        assert [r.name for r in result.records] == [
            "validate",
            "boundary_condition",
            "initial_condition",
            "pde_residual",
            "volterra_residual",
        ]
        assert result.reason == "time factor exp(291 t) overflows at t = 5"

    def test_sample_points_are_read_only_constants(self):
        xs, ts = bench._sample_points(n=4)
        assert bench._sample_points(n=4)[0] is xs
        with pytest.raises(ValueError):
            xs[0] = 0.0
        with pytest.raises(ValueError):
            ts[:] = 1.0

    def test_even_m_closed_form_is_validation_failure(self):
        result = run_case(base_case(m=2), case_id="even")
        assert not result.passed
        assert result.violations and any("odd" in v for v in result.violations)

    def test_stationary_runs_reduced_checks(self):
        case = {
            "phi": {"kind": "linear_x", "lambda": 1.0},
            "flux": {"kind": "zero"},
            "h": {"kind": "monomial", "eta": 2.0, "m": 1},
            "variant": "P",
        }
        result = run_case(case, case_id="stat")
        assert result.passed
        assert "volterra_residual" not in {r.name for r in result.records}

    def test_every_record_carries_tolerance(self):
        result = run_case(base_case(m=3), case_id="t")
        assert all(r.tolerance >= 0.0 for r in result.records)

    def test_tol_scale_loosens(self):
        result = run_case(base_case(m=3), case_id="t", tol_scale=100.0)
        base = run_case(base_case(m=3), case_id="t")
        for loose, tight in zip(result.records, base.records):
            if tight.tolerance > 0:
                assert loose.tolerance == pytest.approx(100.0 * tight.tolerance)

    def test_schema_error_raised(self):
        bad = base_case()
        bad["bogus"] = 1
        with pytest.raises(SchemaError):
            run_case(bad)

    @pytest.mark.parametrize("checks", [("controls",), "control", ("control", "volterra")])
    def test_unknown_check_name_raised(self, checks):
        with pytest.raises(SchemaError, match="checks must be a list of names"):
            run_case(base_case(m=3), extra_checks=checks)


class TestSweep:
    def sweep_config(self):
        return {"id": "s", "base": base_case(), "grid": {"h.m": [1, 3, 5, 7], "phi.kind": ["linear_x", "neg_sinh", "neg_sin"]}}

    def test_cartesian_count(self):
        lines, ok, _ = sweep(self.sweep_config())
        assert ok
        assert len(lines) == 1 + 12

    def test_deterministic_output(self):
        a, _, _ = sweep(self.sweep_config())
        b, _, _ = sweep(self.sweep_config())
        assert a == b

    def test_parallel_matches_serial(self):
        a, _, _ = sweep(self.sweep_config())
        b, _, _ = sweep(self.sweep_config(), jobs=3)
        assert a == b

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        assert _worker_count(1) == 1
        assert _worker_count(2) == 2
        assert _worker_count(10**6) == 2
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
        assert _worker_count(4) == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(SchemaError):
            _worker_count(jobs)

    def test_numerical_failure_is_a_failing_row(self, tmp_path, capsys):
        # near the resonant line delta = lambda - nu*mu = 0.01 the m = 7 closed
        # form raises ConstructionError; that case becomes a row, not an abort,
        # and the CLI prints its reason
        base = base_case(kind="neg_sin")
        base["flux"]["nu"] = 0.99
        config = {"id": "ns", "base": base, "grid": {"h.m": [1, 3, 5, 7]}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 1
        text = (tmp_path / "out" / "ns.csv").read_text()
        rows = text.splitlines()[1:]
        assert len(rows) == 4
        assert rows[-1] == "ns-m=7,7,0,0,inf"
        out = capsys.readouterr().out.splitlines()
        fails = [line for line in out if line.startswith("[FAIL]")]
        assert len(fails) == 1
        assert fails[0].startswith("[FAIL] ns-m=7: closed-form flux fails its Volterra residual")
        lines, ok, _ = sweep(config)
        assert not ok and "\n".join(lines) + "\n" == text

    def test_empty_grid_header_only(self):
        lines, ok, _ = sweep({"id": "s", "base": base_case(), "grid": {}})
        assert ok and len(lines) == 1

    def test_delta_zero_row_routes_to_resonant_form(self):
        # a lambda sweep through delta = 0 for the sine shape
        cfg = {
            "id": "dz",
            "base": base_case(kind="neg_sin"),
            "grid": {"phi.lambda": [0.5, 1.0, 2.0]},
        }
        lines, ok, _ = sweep(cfg)
        assert ok  # the lambda = 1 row (delta = 0) passes via its own branch

    def test_failure_sets_flag(self):
        cfg = {"id": "f", "base": base_case(), "grid": {"h.m": [2]}}
        lines, ok, _ = sweep(cfg)
        assert not ok
        assert lines[1].split(",")[2] == "0"


class TestConvergence:
    def conv_config(self, nxs=(64, 128, 256)):
        return {
            "id": "c",
            "case": base_case(),
            "ladder": {"L": 8.0, "t_end": 1.0, "theta": 0.5, "nx": list(nxs), "nt0": 64},
        }

    def test_ladder_runs(self):
        lines, ok = convergence(self.conv_config())
        assert ok
        assert len(lines) == 4
        header = lines[0].split(",")
        assert "order_max" in header and "error_l2" in header

    def test_short_ladder_rejected(self):
        with pytest.raises(SchemaError):
            convergence(self.conv_config(nxs=(64,)))

    def test_diffusion_smoke_order_two(self):
        # m = 5 keeps a live fourth x-derivative (the m = 3 baseline is cubic
        # in x and linear in t, which Crank-Nicolson reproduces exactly)
        cfg = {
            "id": "diff",
            "case": {
                "phi": {"kind": "linear_x", "lambda": 1.0},
                "flux": {"kind": "zero"},
                "h": {"kind": "monomial", "eta": 1.0, "m": 5},
                "variant": "P",
            },
            "ladder": {"L": 8.0, "t_end": 0.5, "theta": 0.5, "nx": [32, 64, 128], "nt0": 32},
        }
        lines, ok = convergence(cfg)
        order = float(lines[-1].split(",")[5])
        assert ok
        assert order == pytest.approx(2.0, abs=0.3)


class TestCli:
    def write(self, tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)

    def test_run_exit_zero_and_outputs(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "case.json", {"id": "ok", "case": base_case(m=3)})
        code = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "ok.json").exists()
        assert (tmp_path / "out" / "ok.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_run_check_failure_exit_one(self, tmp_path):
        cfg = self.write(tmp_path, "case.json", {"id": "bad", "case": base_case(m=2)})
        code = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "bad.json").read_text())
        assert report["violations"]

    def test_run_numerical_failure_exit_one(self, tmp_path, capsys):
        # near the resonant line the m = 7 closed form fails its Volterra
        # residual check: a failing case with its reason, not a config error
        case = base_case(m=7, kind="neg_sin")
        case["flux"]["nu"] = 0.99
        cfg = self.write(tmp_path, "case.json", {"id": "ns7", "case": case})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "ns7.json").read_text())
        assert report["pass"] is False
        assert report["reason"].startswith("closed-form flux fails its Volterra residual check")
        captured = capsys.readouterr()
        assert "configuration error" not in captured.err
        assert f"[FAIL] ns7: {report['reason']}" in captured.out

    def test_config_error_exit_two(self, tmp_path, capsys):
        case = base_case()
        case["mystery"] = True
        cfg = self.write(tmp_path, "case.json", {"id": "x", "case": case})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write(
            tmp_path,
            "sweep.json",
            {"id": "sw", "base": base_case(), "grid": {"h.m": [1, 3]}},
        )
        cli.main(["sweep", cfg, "--out", str(tmp_path / "a")])
        cli.main(["sweep", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "sw.csv").read_bytes()
        b = (tmp_path / "b" / "sw.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_bad_jobs_exit_two(self, tmp_path, capsys, jobs):
        payload = {"id": "sw", "base": base_case(), "grid": {"h.m": [1]}}
        cfg = self.write(tmp_path, "sweep.json", payload)
        assert cli.main(["sweep", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_jobs_only_on_sweep(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "case.json", {"id": "ok", "case": base_case(m=3)})
        with pytest.raises(SystemExit) as info:
            cli.main(["run", cfg, "--out", str(tmp_path / "out"), "--jobs", "0"])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_convergence_command(self, tmp_path):
        cfg = self.write(
            tmp_path,
            "conv.json",
            {
                "id": "c",
                "case": base_case(),
                "ladder": {"L": 8.0, "t_end": 1.0, "nx": [64, 128, 256], "nt0": 64},
            },
        )
        assert cli.main(["convergence", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "c-convergence.csv").exists()

    @pytest.mark.parametrize("checks", [["controls"], "control", 1, [{"control": True}]])
    def test_run_unknown_check_exit_two(self, tmp_path, capsys, checks):
        payload = {"id": "ck", "case": base_case(m=3), "checks": checks}
        cfg = self.write(tmp_path, "case.json", payload)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "configuration error: checks must be a list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--tol-scale", "10"], ["--slow-oracles"]])
    def test_check_flags_not_on_convergence(self, tmp_path, capsys, flag):
        cfg = self.write(tmp_path, "conv.json", {"id": "c", "case": base_case(), "ladder": {}})
        with pytest.raises(SystemExit) as info:
            cli.main(["convergence", cfg, "--out", str(tmp_path / "out"), *flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tol_scale_flag(self, tmp_path):
        cfg = self.write(tmp_path, "case.json", {"id": "ok", "case": base_case(m=3)})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out"), "--tol-scale", "10"]) == 0
