import math

import pytest

from fel import tables
from fel.precision import PrecisionContext
from fel.search import SearchConfig, optimize_lower

# acceptance criteria outcomes, printed as one line each at session end
_ACCEPTANCE: list = []


def record_criterion(name: str, passed: bool, detail: str = ""):
    _ACCEPTANCE.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, passed, detail in _ACCEPTANCE:
        status = "PASS" if passed else "FAIL"
        line = "%s  criterion %s" % (status, name)
        if detail:
            line += "  [%s]" % detail
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ctx40():
    return PrecisionContext(40)


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(30)


@pytest.fixture(scope="session")
def seeded_lower_polish(ctx40):
    """(params, reward) of the lower search at penalty 1 started from the
    shipped reference: seed 2, one restart, budget 20 000."""
    _, p = tables.lower_reference()["1"]
    x0 = [float(x) for x in p.b] + [math.log(float(p.a)), float(p.c)]
    cfg = SearchConfig(seed=2, restarts=1, budget=20_000)
    return optimize_lower("1", len(p.b), cfg, ctx40, x0=x0)
