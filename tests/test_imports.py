import os
import subprocess
import sys
from pathlib import Path

import fluxheat


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
    src = str(Path(fluxheat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
