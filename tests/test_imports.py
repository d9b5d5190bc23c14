import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# file I/O stays in files, data and cli; these modules compute
COMPUTE_MODULES = ("discovery", "encoder", "evaluation", "losses", "numerics", "pipeline")
FILE_CALLS = {"open", "write_text", "write_bytes"}


def _file_io(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "csv"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv":
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append(f"{name}() at line {node.lineno}")
    return found


@pytest.mark.parametrize("name", COMPUTE_MODULES)
def test_compute_modules_do_no_file_io(name):
    path = Path(gaitadapt.__file__).with_name(f"{name}.py")
    assert _file_io(ast.parse(path.read_text())) == []


def test_file_io_check_sees_each_form():
    tree = ast.parse("import csv\nfrom csv import writer\nopen(p)\n"
                     "p.write_text(t)\nPath(p).write_bytes(b)\n")
    assert _file_io(tree) == ["import csv", "from csv import", "open() at line 3",
                              "write_text() at line 4", "write_bytes() at line 5"]


def _calls_to(tree: ast.AST, name: str) -> list[int]:
    """Lines that call name, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_evaluation_builds_a_rank1_result():
    # rank1 alone decides what an unscorable variant reports
    package = Path(gaitadapt.__file__).parent
    builders = [p.stem for p in sorted(package.glob("*.py"))
                if _calls_to(ast.parse(p.read_text()), "Rank1Result")]
    assert builders == ["evaluation"]


def test_call_check_sees_each_form():
    tree = ast.parse("Rank1Result(a)\nevaluation.Rank1Result(b)\nRank1Result\nf(Rank1Result)\n")
    assert _calls_to(tree, "Rank1Result") == [1, 2]
