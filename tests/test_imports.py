import os
import subprocess
import sys
from pathlib import Path

import fluxheat


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's fluxheat."""
    src = str(Path(fluxheat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_no_module_imports_scipy_signal():
    # scipy.signal would add about 0.7 s of import time and 23 MB of memory
    # to every process that loads the library; a fresh interpreter sees
    # exactly what importing every fluxheat module pulls in
    code = (
        "import importlib, pkgutil, sys, fluxheat\n"
        "for m in pkgutil.iter_modules(fluxheat.__path__):\n"
        "    importlib.import_module('fluxheat.' + m.name)\n"
        "assert 'fluxheat.volterra' in sys.modules\n"
        "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr


def test_volterra_and_fd_paths_load_no_scipy():
    # the QUADPACK and RK45 ports stand in for scipy's, which only a stiff T
    # equation's BDF fallback imports, and process pools load only for a
    # parallel sweep: a cold start of every catalog case (with and without
    # the slow oracles), the Volterra solvers and an FD ladder pays for neither
    code = """
import sys
import fluxheat, fluxheat.bench, fluxheat.cli
from fluxheat import bench, catalog, closed_form, fd, green, volterra
from fluxheat.problem import spec_from_dict

def heavy():
    return sorted(m for m in sys.modules
                  if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')

assert heavy() == [], heavy()
for case_id, config in catalog.iter_cases():
    for slow in (False, True):
        result = bench.run_case(config['case'], case_id, slow_oracles=slow,
                                extra_checks=tuple(config.get('checks', ())))
        assert result.passed, (case_id, slow, result.reason)
assert heavy() == [], heavy()
spec = spec_from_dict(catalog.load_case('ir-phi1-m3')['case'])
nu = spec.flux.nu
kernel, forcing = volterra.kernel_for(spec.phi), volterra.forcing_for(spec.h)
volterra.solve_volterra(kernel, forcing, nu, 2.0, 80)
volterra.solve_resolvent(kernel, forcing, nu, 2.0, 40)
volterra.solve_volterra(volterra.kernel_for(spec.phi, quadrature=True), forcing, nu, 2.0, 8)
volterra.solve_volterra(kernel, volterra.forcing_for(spec.h, quadrature=True), nu, 2.0, 8)
tilde = spec_from_dict(catalog.load_case('tilde-ir-phi1-m1')['case'])
grids = [fd.Grid1D(L=4.0, nx=nx, t_end=0.2, nt=nx // 2, theta=0.5) for nx in (16, 32, 64)]
fd.convergence_order(tilde, grids, closed_form.solution_for(tilde))
green.quad_semiinfinite(lambda xi: 1.0, center=0.0, tvar=1.0)
assert heavy() == [], heavy()
"""
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
