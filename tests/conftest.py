import contextlib
import tracemalloc

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


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` is ``(fn(*args, **kwargs), peak)``:
    the most bytes ``tracemalloc`` saw allocated at once during the call,
    above what was allocated when it began. numpy reports its array buffers
    to ``tracemalloc``, so for fixed inputs the peak is deterministic."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return result, peak
    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, outcome in sorted(_CRITERIA):
        terminalreporter.write_line(f"criterion {number} ({title}): {outcome}")
