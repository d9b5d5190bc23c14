import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaitadapt

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_encode_and_inspect", "02_discovery_and_curriculum",
                                  "03_end_to_end_adaptation"])
def test_demo_runs_and_leaves_no_files(demo, tmp_path):
    # TMPDIR puts the demo's temporary directory inside tmp_path
    src = str(Path(gaitadapt.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
