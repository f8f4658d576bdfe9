import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pretense.cli import _table_chunks
from pretense.core import build_sieve

# one pass/fail line per acceptance criterion, printed at session end
ACCEPTANCE_LINES = []

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a
    child `python -m pretense.cli`: pytest's pythonpath setting reaches only
    its own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def table_csv(table) -> str:
    """The CSV of a value table, rows n = 1..limit, as `pretense eval` writes it."""
    return "".join(_table_chunks(table))


def record_acceptance(number: int, name: str, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:02d} {name}: {mark} - {detail}")


@pytest.fixture(scope="session")
def sieve_100():
    return build_sieve(100)


@pytest.fixture(scope="session")
def sieve_1e4():
    return build_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_1e6():
    return build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve_1e7():
    return build_sieve(10**7)


@pytest.fixture(scope="session")
def bundle_results():
    """Run each named verify bundle at most once per session."""
    from pretense.verify import run_bundle

    cache = {}
    times = {}

    def get(name: str):
        if name not in cache:
            import time

            t0 = time.time()
            cache[name] = run_bundle(name, seed=1729)
            times[name] = time.time() - t0
        return cache[name], times[name]

    return get


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
