import pathlib
import subprocess
import sys

import pytest
from helpers import package_env

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=package_env()
    )
    assert proc.returncode == 0, proc.stderr
