import os
import pathlib
import subprocess
import sys

import pytest

import eaqecc

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the demo imports the same eaqecc package as the tests
    paths = [str(pathlib.Path(eaqecc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
