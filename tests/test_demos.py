"""Each script under demos/ runs to completion and prints something: they
import library names directly, so a rename that misses one shows here."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    r = subprocess.run([sys.executable, str(script)], capture_output=True,
                       text=True, env=cli_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
