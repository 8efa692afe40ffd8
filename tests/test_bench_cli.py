import copy
import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from fluxheat import bench, cli, closed_form, fd, specfun
from fluxheat.bench import _worker_count, convergence, run_case, sweep
from fluxheat.catalog import case_ids, iter_cases, load_case
from fluxheat.problem import FluxKind, FluxLaw, SchemaError, TimeFunction, spec_from_dict

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
        # with the exp_moment memo cold and warm: pass 0 empties it before
        # every case, pass 1 starts from pass 0's last case, and pass 2 finds
        # every key of pass 1
        memo = specfun._exp_moment_of
        memo.cache_clear()
        digests, evaluations = [], [0, 0, 0]
        for i, emptied in enumerate((True, False, False)):
            digest = hashlib.sha256()
            for cid, cfg in iter_cases():
                if emptied:
                    memo.cache_clear()  # which zeroes its counters too
                misses = memo.cache_info().misses
                result = run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))
                evaluations[i] += memo.cache_info().misses - misses
                digest.update(("\n".join(result.csv_rows()) + "\n").encode())
            digests.append(digest.hexdigest())
        assert digests == [CATALOG_CSV_SHA256] * 3
        assert evaluations[0] >= evaluations[1] > evaluations[2] == 0

    def test_catalog_csv_rows_keep_their_bits_with_the_t_memo_cold_and_warm(self, monkeypatch):
        # the separated family's T cross-check: pass 0 empties its memo before
        # every case, so each of the six separated cases runs the solver; pass
        # 1 starts from pass 0's last case, and pass 2 runs no solver at all
        solves, real = [0, 0, 0], bench._t_ode_solution

        def counting(*args):
            solves[i] += 1
            return real(*args)

        monkeypatch.setattr(bench, "_t_ode_solution", counting)
        memo = bench._t_ode_samples_of
        memo.cache_clear()
        digests = []
        for i, emptied in enumerate((True, False, False)):
            digest = hashlib.sha256()
            for cid, cfg in iter_cases():
                if emptied:
                    memo.cache_clear()
                result = run_case(cfg["case"], case_id=cid, extra_checks=tuple(cfg.get("checks", ())))
                digest.update(("\n".join(result.csv_rows()) + "\n").encode())
            digests.append(digest.hexdigest())
        assert digests == [CATALOG_CSV_SHA256] * 3
        assert solves[0] == 6 and solves[1] <= 6 and solves[2] == 0

    @pytest.mark.parametrize("case_id", ["ir-phi1-m1", "ir-phi2-m1", "ir-phi3-m1-d0"])
    def test_slow_oracle_passes_on_each_shape(self, case_id):
        cfg = load_case(case_id)
        result = run_case(cfg["case"], case_id=case_id, slow_oracles=True)
        slow = [r for r in result.records if r.name == "assemble_slow_oracle"]
        assert len(slow) == 1 and slow[0].passed, slow
        assert result.passed

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
        with pytest.raises(TypeError):
            xs[0] = 0.0
        with pytest.raises(TypeError):
            ts[:] = (1.0,) * 4
        # every argument tuple the checks ask for: tuples of Python floats,
        # the generator's draws bit for bit
        for n, t_hi, seed in ((8, 1.5, 1234), (4, 1.5, 1234), (3, 1.5, 77), (10, 1.5, 21),
                              (3, 1.0, 5), (3, 1.0, 9)):
            rng = np.random.default_rng(seed)
            want_xs = 0.2 + (2.0 - 0.2) * rng.random(n)
            want_ts = 0.1 + (t_hi - 0.1) * rng.random(n)
            got = bench._sample_points(n=n, t_hi=t_hi, seed=seed)
            for values, want in zip(got, (want_xs, want_ts)):
                assert type(values) is tuple and all(type(v) is float for v in values)
                assert [v.hex() for v in values] == [float(w).hex() for w in want]

    def test_even_m_closed_form_is_validation_failure(self):
        # well-posed, so validate passes; no family covers even m, and the
        # case fails with the integral-representation family's reason
        result = run_case(base_case(m=2), case_id="even")
        assert not result.passed
        assert result.violations is None
        assert result.reason == "m must be odd for polynomial flux"
        assert [(r.name, r.passed) for r in result.records] == [("validate", True)]

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

    @pytest.mark.parametrize(
        "case_id, family",
        [
            ("tilde-ir-phi1-m1", "variant PTilde, phi linear_x, flux linear, h monomial"),
            ("stationary-linear-h", "variant P, phi linear_x, flux zero, h monomial"),
        ],
    )
    def test_control_outside_the_settings_raised(self, case_id, family):
        # a valid spec with no control classification cannot run the checks
        # it asks for; the error names the case family
        case = load_case(case_id)["case"]
        assert run_case(case, case_id=case_id).passed
        with pytest.raises(SchemaError, match="outside the control settings: " + family):
            run_case(case, case_id=case_id, extra_checks=("control",))


class TestTCrossCheckMemo:
    """The T cross-check's samples are memoised per value of the T equation."""

    @pytest.fixture(autouse=True)
    def cold(self):
        bench._t_ode_samples_of.cache_clear()

    @staticmethod
    def samples(spec):
        return bench._t_ode_samples(closed_form.separated_components(spec), spec.flux)

    @staticmethod
    def counts():
        info = bench._t_ode_samples_of.cache_info()
        return info.hits, info.misses, info.currsize

    def test_two_parses_share_one_entry(self):
        # each parse builds its own TimeFunction.constant closures, so the two
        # laws are unequal objects with one value
        case = load_case("separated-power-n0")["case"]
        first, second = spec_from_dict(case), spec_from_dict(case)
        assert first.flux != second.flux
        assert self.samples(first) == self.samples(second)
        assert self.counts() == (1, 1, 1)

    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("phi", "sigma", 1.0),
            ("phi", "delta", 2.0),
            ("phi", "scale", 0.5),
            ("h", "eta", 2.0),
            ("flux", "nu", 0.5),
            ("flux", "n", 0.25),
        ],
    )
    def test_each_value_of_the_t_equation_has_its_own_entry(self, part, key, value):
        case = load_case("separated-power-nhalf")["case"]
        changed = copy.deepcopy(case)
        changed[part][key] = value
        self.samples(spec_from_dict(case))
        self.samples(spec_from_dict(changed))
        assert self.counts() == (0, 2, 2)

    def test_a_signed_zero_has_its_own_entry(self):
        # 0.0 == -0.0, but a zero's sign can reach F, so the two key apart
        case = load_case("separated-sigma0")["case"]
        changed = copy.deepcopy(case)
        changed["phi"]["sigma"] = -0.0
        self.samples(spec_from_dict(case))
        self.samples(spec_from_dict(changed))
        assert self.counts() == (0, 2, 2)

    def test_a_time_function_that_is_not_a_constant_bypasses_the_memo(self):
        spec = spec_from_dict(load_case("separated-power-n0")["case"])
        law = FluxLaw(FluxKind.POWER_LAW, nu=1.0, n=0.0, f=TimeFunction.polynomial([1.0]))
        assert self.samples(dataclasses.replace(spec, flux=law)) == self.samples(spec)
        assert self.counts() == (0, 1, 1)

    def test_a_failing_solve_stores_nothing_and_fails_alike_again(self):
        # the stopped solve of test_a_stopped_t_solve_is_a_reason_not_a_check
        case = copy.deepcopy(load_case("separated-power-nhalf")["case"])
        case["flux"]["nu"] = 1e4
        reasons = [run_case(case, case_id="stopped").reason for _ in range(2)]
        assert reasons[0].startswith("T cross-check: ") and reasons[0] == reasons[1]
        assert self.counts() == (0, 2, 0)


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

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("variant", "Q", "case 'variant' must be one of ['P', 'PTilde'], got 'Q'"),
            ("phi.kind", "sinh", "phi 'kind' must be one of"),
        ],
    )
    def test_bad_enum_value_in_grid_is_a_failing_row(self, key, value, reason):
        good = "P" if key == "variant" else "linear_x"
        lines, ok, reasons = sweep({"id": "v", "base": base_case(m=3), "grid": {key: [good, value]}})
        assert not ok
        name = key.split(".")[-1]
        assert lines[1].startswith(f"v-{name}={good},{good},1,")
        assert lines[2] == f"v-{name}={value},{value},0,0,inf"
        assert [case_id for case_id, _ in reasons] == [f"v-{name}={value}"]
        assert reasons[0][1].startswith(reason)

    @pytest.mark.parametrize("stem", [5, "", "..", "a/b"])
    def test_bad_id_rejected_before_any_case_runs(self, monkeypatch, stem):
        monkeypatch.setattr(bench, "run_case", lambda *a, **k: pytest.fail("a case ran"))
        with pytest.raises(SchemaError, match="config 'id' must be a plain file name"):
            sweep({"id": stem, "base": base_case(), "grid": {"h.m": [1, 3]}})

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

    def test_negative_m_is_a_failing_row(self):
        lines, ok, _ = sweep({"id": "s", "base": base_case(), "grid": {"h.m": [-3, 1, 3]}})
        assert not ok
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "1", "1"]

    def test_non_finite_grid_value_is_a_failing_row(self):
        # a NaN from the grid fails the schema in its own row; the rest run
        lines, ok, _ = sweep({"id": "s", "base": base_case(), "grid": {"flux.nu": [float("nan"), 1.0]}})
        assert not ok
        rows = dict(line.split(",", 2)[::2] for line in lines[1:])
        assert rows == {"s-nu=1.0": "1,11,0", "s-nu=nan": "0,0,inf"}

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

    @pytest.mark.parametrize(
        "ladder",
        [{"nt0": 1e300}, {"nx": [64, 128, 10**7]}, {"nx": [8, 10**200, 10**400], "theta": 0.0}],
        ids=["nt0-1e300", "nx-1e7", "nx-past-the-float-range"],
    )
    def test_rung_over_the_cap_refused_before_any_rung_runs(self, monkeypatch, ladder):
        monkeypatch.setattr(fd, "convergence_order", lambda *a, **k: pytest.fail("a rung ran"))
        cfg = self.conv_config()
        cfg["ladder"].update(ladder)
        with pytest.raises(SchemaError, match=r"exceeds the 10\^7 limit on \(nx\+1\)\(nt\+1\)"):
            convergence(cfg)

    def test_rung_cap_is_ten_million_grid_values(self):
        # the largest ladder of the tests and benchmarks, then the cap itself
        assert bench._rung_steps(1024, 256, 256, 0.5) == 1024
        assert bench._rung_steps(3999, 3999, 2499, 0.5) == 2499  # 4000 x 2500 values
        with pytest.raises(SchemaError):
            bench._rung_steps(4000, 4000, 2499, 0.5)
        with pytest.raises(SchemaError):
            bench._rung_steps(3999, 3999, 2500, 0.5)

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
        assert report["reason"] == "m must be odd for polynomial flux"
        assert "violations" not in report

    @pytest.mark.parametrize("m", [-3, -1.5, 0.5])
    def test_run_m_below_one_is_a_failing_validate_row(self, tmp_path, capsys, m):
        # h = x^m overflows at the face probe h(1e-300) for m <= -2; every
        # m < 1 is a validate row, not a configuration error
        cfg = self.write(tmp_path, "case.json", {"id": "neg", "case": base_case(m=m)})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "neg.json").read_text())
        assert "monomial exponent m must be >= 1" in report["violations"]
        assert (tmp_path / "out" / "neg.csv").read_text().splitlines()[1].startswith("neg,validate,")
        assert "configuration error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sigma, n", [(0.0, 0.0), (0.0, 0.5), (-1.0, 0.0), (-1.0, 0.5), (1.0, 0.0)]
    )
    def test_run_power_law_nu_zero_is_a_failing_validate_row(self, tmp_path, capsys, sigma, n):
        # F = 0 * V^n leaves T = eta e^{sigma t}, which the power-law classes do not describe
        case = {
            "phi": {"kind": "scaled_separable", "sigma": sigma, "delta": 1.0, "scale": 1.0},
            "flux": {"kind": "power_law", "nu": 0.0, "n": n},
            "h": {"kind": "scaled_separable", "eta": 1.0},
        }
        cfg = self.write(tmp_path, "case.json", {"id": "nu0", "case": case, "checks": ["control"]})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "nu0.json").read_text())
        assert report["violations"] == ["power-law flux law requires nu != 0"]
        assert (tmp_path / "out" / "nu0.csv").read_text().splitlines()[1].startswith("nu0,validate,")
        err = capsys.readouterr().err
        assert "configuration error" not in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (
                "sweep",
                {"id": "sw", "base": base_case(), "grid": {"h.m": 3}},
                "sweep 'grid' values must be lists",
            ),
            (
                "sweep",
                {"id": "sw", "base": base_case(), "grid": {"h.m.x": [1]}},
                "grid key 'h.m.x' does not name a field of the case",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [None, 64, 128]}},
                "ladder 'nx' must be a list of positive integers",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [32.5, 64, 128]}},
                "ladder 'nx' must be a list of positive integers",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [0, 64, 128]}},
                "ladder 'nx' must be a list of positive integers",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [64, 128, 256], "L": [8]}},
                "ladder 'L' must be a number",
            ),
            ("sweep", ["an", "not", "object"], "config must be a JSON object, got list"),
            ("convergence", ["an", "not", "object"], "config must be a JSON object, got list"),
            ("run", ["an", "not", "object"], "config must be a JSON object, got list"),
            ("run", {**base_case(), "h": "oops"}, "h must be a JSON object, got str"),
            (
                "run",
                {**base_case(), "phi": {"kind": "linear_x", "lambda": [1.0]}},
                "phi 'lambda' must be a number",
            ),
            (
                "run",
                {**base_case(), "phi": {"kind": "linear_x", "lambda": float("nan")}},
                "phi 'lambda' must be finite, got nan",
            ),
            (
                "run",
                {**base_case(), "flux": {"kind": "linear", "nu": float("-inf")}},
                "flux 'nu' must be finite, got -inf",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [64, 128, 256], "nt0": float("inf")}},
                "ladder 'nt0' must be finite, got inf",
            ),
            (
                "run",
                {**base_case(), "h": {"kind": "monomial", "eta": float("inf"), "m": 1}},
                "h 'eta' must be finite, got inf",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [64, 128, 256], "t_end": float("inf")}},
                "ladder 't_end' must be finite, got inf",
            ),
            (
                "convergence",
                {"id": "c", "case": base_case(), "ladder": {"nx": [64, 128, 256], "L": float("nan")}},
                "ladder 'L' must be finite, got nan",
            ),
            ("run", {"id": 5, "case": base_case(m=3)}, "config 'id' must be a plain file name, got 5"),
            ("run", {"id": "sub/dir", "case": base_case(m=3)}, "config 'id' must be a plain file name"),
            ("run", {"id": "../x", "case": base_case(m=3)}, "config 'id' must be a plain file name"),
            ("run", {"id": "..", "case": base_case(m=3)}, "config 'id' must be a plain file name"),
            ("run", {"id": "", "case": base_case(m=3)}, "config 'id' must be a plain file name"),
            ("sweep", {"id": 5, "base": base_case(), "grid": {"h.m": [1]}}, "config 'id' must be a plain"),
            ("sweep", {"id": "../x", "base": base_case(), "grid": {"h.m": [1]}}, "config 'id' must be"),
            ("convergence", {"id": 5, "case": base_case(), "ladder": {}}, "config 'id' must be a plain"),
            (
                "run",
                {"id": "q", "case": {**base_case(m=3), "variant": "Q"}},
                "case 'variant' must be one of ['P', 'PTilde'], got 'Q'",
            ),
            ("run", {**base_case(m=3), "variant": "Q"}, "case 'variant' must be one of"),
            ("run", {**base_case(), "h": {"kind": "cubic"}}, "h 'kind' must be one of"),
            ("run", {**base_case(), "h": {"m": 3}}, "missing 'kind' in h"),
            ("run", {"id": "x"}, "missing 'case' in config"),
            ("run", {"id": "x", "case": [1]}, "case must be a JSON object, got list"),
            ("run", {"case": base_case(), "cheks": []}, "unknown fields in config: ['cheks']"),
            ("sweep", {"id": "s", "grid": {"h.m": [1]}}, "missing 'base' in config"),
            ("sweep", {"base": [1], "grid": {}}, "base must be a JSON object, got list"),
            ("sweep", {"base": base_case(), "grid": [1]}, "grid must be a JSON object, got list"),
            ("sweep", {"base": base_case(), "extra": 1}, "unknown fields in config: ['extra']"),
            ("convergence", {"case": base_case()}, "missing 'ladder' in config"),
            ("convergence", {"ladder": {}}, "missing 'case' in config"),
            ("convergence", {"case": base_case(), "ladder": 3}, "ladder must be a JSON object, got int"),
            ("convergence", {"case": base_case(), "ladder": {"dx": 1}}, "unknown fields in ladder: ['dx']"),
            (
                "convergence",
                {"case": base_case(), "ladder": {"nx": [64, 128, 256], "nt0": 1e300}},
                "ladder rung nx=64 exceeds the 10^7 limit",
            ),
            (
                "convergence",
                {"case": base_case(), "ladder": {"nx": [8, 16, 33], "reference": "self"}},
                "a 'self' ladder needs every rung to divide the finest, nx=33; [8, 16] do not",
            ),
        ],
        ids=[
            "grid-value-not-a-list",
            "grid-key-through-a-number",
            "ladder-nx-null",
            "ladder-nx-fraction",
            "ladder-nx-zero",
            "ladder-L-list",
            "sweep-array",
            "convergence-array",
            "run-array",
            "h-string",
            "lambda-list",
            "lambda-nan",
            "nu-minus-infinity",
            "ladder-nt0-infinity",
            "eta-infinity",
            "ladder-t_end-infinity",
            "ladder-L-nan",
            "run-id-number", "run-id-subdir", "run-id-parent", "run-id-dotdot", "run-id-empty",
            "sweep-id-number", "sweep-id-parent", "convergence-id-number", "run-variant",
            "bare-case-variant", "h-kind", "h-no-kind", "run-no-case", "run-case-list",
            "run-unknown", "sweep-no-base", "sweep-base-list", "sweep-grid-list", "sweep-unknown",
            "convergence-no-ladder", "convergence-no-case", "convergence-ladder-number",
            "ladder-unknown", "ladder-over-the-cap", "ladder-not-nested",
        ],
    )
    def test_malformed_config_exit_two(self, tmp_path, capsys, monkeypatch, command, payload, message):
        monkeypatch.setattr(fd, "convergence_order", lambda *a, **k: pytest.fail("a rung ran"))
        cfg = self.write(tmp_path, "config.json", payload)
        assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err
        assert "Traceback" not in err
        # nothing written, inside --out or, through a path id, outside it
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_convergence_numerical_failure_exits_one_writes_nothing(self, tmp_path, capsys):
        # the closed-form reference overflows at t_end = 1e300
        case = load_case("separated-growth")["case"]
        cfg = self.write(tmp_path, "config.json", {"id": "c", "case": case, "ladder": {"nx": [16, 32, 64], "t_end": 1e300}})
        assert cli.main(["convergence", cfg, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] c: convergence study fails numerically: " in captured.out
        assert captured.err == ""
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_convergence_complex_flux_exits_one_writes_nothing(self, tmp_path, capsys):
        # under F = V^(1/2) f(t) the first step's discrete flux is negative on
        # this coarse, wide grid, so the flux law turns complex
        case = load_case("separated-power-nhalf")["case"]
        ladder = {"L": 30.0, "t_end": 0.5, "nx": [16, 32, 64], "nt0": 16}
        cfg = self.write(tmp_path, "config.json", {"id": "c", "case": case, "ladder": ladder})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning
            assert cli.main(["convergence", cfg, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "[FAIL] c: convergence study fails numerically: "
            "flux law is complex at V = -0.0203747, t = 0\n"
        )
        assert captured.err == ""
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

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

    @pytest.mark.parametrize("case_id", ["tilde-ir-phi1-m1", "stationary-linear-h"])
    def test_run_control_outside_the_settings_exit_two(self, tmp_path, capsys, case_id):
        payload = {"id": case_id, "case": load_case(case_id)["case"], "checks": ["control"]}
        cfg = self.write(tmp_path, "case.json", payload)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: control checks requested for a case outside" in err
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
