"""Guard test: the library runs on its declared runtime dependencies only.

networkx is a test-only dependency (the route oracle in
``tests/test_topology.py``); importing any ``repro`` module must not pull
it in.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
assert "networkx" not in sys.modules, "networkx imported at runtime"
"""


def test_no_repro_module_imports_networkx():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=SRC,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 50  # every module was imported
