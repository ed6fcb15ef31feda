"""Shared pytest hooks.

The acceptance tests register one human-readable PASS/FAIL line per
criterion; the hook below reprints them after the run summary so they
are visible regardless of capture mode.  The fixture below keeps a
monkeypatched spectrum from filling the process-wide zero-scan table.

Property tests are pinned: each carries its own @seed, and the default
run draws them from an empty pool of local constants (see
pytest_collection_modifyitems), so a test draws the same examples alone,
in the full suite and after an edit elsewhere.  The opt-in exploratory
run, ``pytest --hypothesis-profile=explore``, drops the seeds and draws
ten times the examples afresh on each run.
"""

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers

from zetalab import spectrum

ACCEPTANCE_LINES = []
_EXPLORE_FACTOR = 10

settings.register_profile("explore", derandomize=False,
                          max_examples=_EXPLORE_FACTOR * 100)


def pytest_collection_modifyitems(items):
    if settings.get_current_profile_name() != "explore":
        # Hypothesis mixes the literals of every local non-test module
        # imported so far into about one draw in twenty, so a seeded
        # test's examples would move with a literal edited in src/ or
        # with the tests run before it.  Pinned runs draw from none.
        providers._get_local_constants = providers.Constants
        return
    for item in items:
        test = getattr(item, "obj", None)
        if hasattr(test, "hypothesis"):
            pinned = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_seed = None
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=_EXPLORE_FACTOR * pinned.max_examples)


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
