import os
import subprocess
import sys
from pathlib import Path

import gaitadapt

# each submodule imported into an interpreter that holds no gaitadapt module,
# so an import cycle or a dependence on import order fails here
SCRIPT = """
import importlib, pkgutil, sys
import gaitadapt
names = sorted(m.name for m in pkgutil.iter_modules(gaitadapt.__path__))
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "gaitadapt"]:
        del sys.modules[loaded]
    importlib.import_module("gaitadapt." + name)
print(" ".join(names))
"""


def test_each_submodule_imports_on_its_own():
    src = str(Path(gaitadapt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["cli", "config", "data", "discovery", "encoder",
                                   "evaluation", "files", "losses", "numerics", "pipeline"]
