"""Shared pytest hooks.

The acceptance tests register one human-readable PASS/FAIL line per
criterion; the hook below reprints them after the run summary so they
are visible regardless of capture mode.  The fixture below keeps a
monkeypatched spectrum from filling the process-wide zero-scan table.
"""

import pytest

from zetalab import spectrum

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def _fresh_scan_table(request):
    # A test that monkeypatches (say, spectrum.critical_line_real_form)
    # starts and ends with an empty find_zeros table, so the patched
    # function neither reads another test's table nor leaves its own.
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    spectrum._grid_scan.cache_clear()
    yield
    spectrum._grid_scan.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
