"""Shared pytest hooks.

The acceptance tests register one human-readable PASS/FAIL line per
criterion; the hook below reprints them after the run summary so they
are visible regardless of capture mode.  The fixtures below keep a
monkeypatched spectrum from filling the process-wide zero-scan tables
and zero census, and give every test an empty cache of psi's series
plans and of gram's row plans.

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

from zetalab import spectrum, states

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
    # A test that monkeypatches (say, spectrum.critical_line_real_form or
    # spectrum._hurwitz) starts and ends with empty find_zeros tables (the
    # grid's signs, and its brackets with their finished zero records) and
    # an empty count_zeros census, which reads the grid and _hurwitz, so
    # the patched function neither reads another test's tables nor leaves
    # its own.
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    tables = (spectrum._grid_scan, spectrum._zero_table, spectrum._census)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_series_plans():
    # A plan holds Gamma(s) and the coefficients, so a test that
    # monkeypatches states._gamma or _one_minus_eta would otherwise read
    # one built before the patch.
    states._series_plan.cache_clear()
    yield
    states._series_plan.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_gram_rows():
    # A row holds its zero checks, its inner CumulativeIntegral, the
    # queries made of it, gamma(1 - rho*) eta(1 - rho*) and each column's
    # entry at f = g = 1 (its outer run), so a test that monkeypatches
    # states.zeta, CumulativeIntegral (or its _query), integrate_finite,
    # gamma or eta sees a cold build.
    states._gram_row.cache_clear()
    yield
    states._gram_row.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
