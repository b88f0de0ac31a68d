import contextlib

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

_CRITERIA: list[tuple[int, str, str]] = []


def record_criterion(number: int, title: str, outcome: str) -> None:
    _CRITERIA.append((number, title, outcome))


@contextlib.contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except pytest.skip.Exception:
        record_criterion(number, title, "SKIP")
        raise
    except BaseException:
        record_criterion(number, title, "FAIL")
        raise
    record_criterion(number, title, "PASS")


@pytest.fixture
def criterion():
    """``with criterion(number, title):`` records that acceptance criterion's
    pass/fail/skip outcome for the terminal summary."""
    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, outcome in sorted(_CRITERIA):
        terminalreporter.write_line(f"criterion {number} ({title}): {outcome}")
