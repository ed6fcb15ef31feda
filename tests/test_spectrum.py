import cmath
import math
import random
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import oracles
from zetalab import spectrum
from zetalab.errors import (CapabilityError, ConvergenceError, DomainError,
                            PreconditionError)
from zetalab.spectrum import (StripRectangle, count_zeros,
                              critical_line_real_form, eigenvalue_of,
                              find_zeros, xi_bc)
from zetalab.special import gamma, zeta


def test_boundary_function_routes_agree():
    # Gamma(s) eta(s) against the product (1 - 2^{1-s}) Gamma(s) zeta(s).
    for s in (2.0, 0.5 + 14j, 0.3 + 3j, 4.5):
        s = complex(s)
        a = xi_bc(s)
        b = (1 - cmath.exp((1 - s) * math.log(2))) * gamma(s) * zeta(s)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_boundary_function_refuses_past_gammas_normal_range():
    # Gamma(0.5+500i) ~ 1e-330 is below the normal doubles; xi_bc used
    # to return 0j there.
    with pytest.raises(CapabilityError, match="double precision"):
        xi_bc(0.5 + 500j)


def test_boundary_function_vanishes_at_zero():
    assert abs(xi_bc(oracles.RHO1)) < 1e-13
    assert abs(xi_bc(oracles.RHO2)) < 1e-13


def test_boundary_function_domain():
    with pytest.raises(DomainError):
        xi_bc(-0.5 + 3j)


def test_completed_form_is_real_detector():
    assert abs(critical_line_real_form(0.0) - oracles.XI_HALF) < 1e-13
    # Sign change brackets the first ordinate.
    assert critical_line_real_form(14.0) * critical_line_real_form(14.3) < 0
    with pytest.raises(DomainError):
        critical_line_real_form(-0.1)


def test_find_zeros_to_30():
    zeros = find_zeros(30.0)
    assert len(zeros) == 3
    for k, z in enumerate(zeros):
        assert z.index == k + 1
        assert abs(z.tau - oracles.ZERO_TAUS[k]) < 1e-10
        assert z.rho == complex(0.5, z.tau)
        assert z.bracket[0] <= z.tau <= z.bracket[1]
        assert abs(z.residual) < 1e-10


def test_find_zeros_to_50():
    zeros = find_zeros(50.0)
    assert len(zeros) == 10
    worst = max(abs(z.tau - t) for z, t in zip(zeros, oracles.ZERO_TAUS))
    assert worst < 1e-9


def test_find_zeros_capability_cap():
    with pytest.raises(CapabilityError):
        find_zeros(60.5)


@pytest.mark.parametrize("kwargs", [{"tau_max": math.nan},
                                    {"tau_max": 30.0, "tol": -1.0},
                                    {"tau_max": 30.0, "tol": math.inf},
                                    {"tau_max": 30.0, "tol": math.nan},
                                    {"tau_max": 60.0, "tol": 0.01},
                                    {"tau_max": 60.0, "tol": 0.02}],
                         ids=["nan-tau_max", "negative-tol", "inf-tol",
                              "nan-tol", "scan-step-tol", "loose-tol"])
def test_find_zeros_refuses_nan_tau_max_and_bad_tol(kwargs):
    # A NaN tau_max used to reach int(nan), a negative tol to run every
    # bracket to brentq's iteration cap, and a tol of the 0.01 scan step
    # or more to return bare bracket ends as roots (residual 3.7e-3 at
    # tol 0.02).  tol = 0 leaves rtol in charge.
    with pytest.raises(DomainError, match="tau_max" if len(kwargs) == 1
                       else r"tol < 0\.01"):
        find_zeros(**kwargs)
    assert len(find_zeros(15.0, tol=0.0)) == 1
    assert len(find_zeros(60.0, tol=0.0099)) == 13


def _root_and_calls(solver, f, a, b, xtol, rtol=8.9e-16):
    """(root or "no convergence", number of calls to f)."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    try:
        root = solver(counted, a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:
        root = "no convergence"
    return root, calls[0]


def test_brentq_port_matches_scipy_on_zero_brackets():
    zeros = find_zeros(60.0)
    assert len(zeros) == 13
    for z in zeros:
        a, b = z.bracket
        for xtol in (1e-10, 1e-12):
            got = _root_and_calls(spectrum.brentq, critical_line_real_form,
                                  a, b, xtol)
            want = _root_and_calls(scipy_brentq, critical_line_real_form,
                                   a, b, xtol)
            assert got == want


_FAMILIES = (
    lambda c: lambda x: math.sin(x) - c,
    lambda c: lambda x: x**3 - c,
    lambda c: lambda x: math.expm1(x) - c,
    lambda c: lambda x: math.atan(x - c) ** 3,
    lambda c: lambda x: (x - c) * abs(x - c) ** 0.2,
)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, len(_FAMILIES) - 1), st.floats(-0.9, 0.9),
       st.floats(-1.5, 0.0), st.floats(0.0, 1.5),
       st.sampled_from((1e-12, 1e-10, 1e-6, 0.1)))
# A coarse xtol makes delta count in the short-step test
# 2|stry| < min(|spre|, 3|sbis| - delta); these two brackets take a
# different path if "- delta" is dropped.
@example(2, 0.45, -1.37, 1.04, 0.1)
@example(1, -0.72, -1.25, 1.02, 0.1)
def test_brentq_port_matches_scipy_on_random_brackets(family, c, a, b, xtol):
    f = _FAMILIES[family](c)
    assume(f(a) * f(b) < 0)
    assert (_root_and_calls(spectrum.brentq, f, a, b, xtol)
            == _root_and_calls(scipy_brentq, f, a, b, xtol))


def test_brentq_budget_error_names_the_bracket():
    a, b = find_zeros(15.0)[0].bracket
    with pytest.raises(ConvergenceError, match=rf"\[{a}, {b}\]"):
        spectrum.brentq(critical_line_real_form, a, b, xtol=1e-10,
                        rtol=8.9e-16, maxiter=2)
    with pytest.raises(DomainError):
        spectrum.brentq(critical_line_real_form, 1.0, 2.0, xtol=1e-10,
                        rtol=8.9e-16)


def _line_rows(taus):
    return critical_line_real_form(np.array(taus)).tolist()


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 0.0])
def test_lockstep_roots_equal_scalar_brentq(tol):
    # find_zeros refines all brackets together; each root keeps the bits
    # of the scalar brentq, and so of scipy's, on its bracket.
    zeros = find_zeros(60.0, tol=tol)
    assert len(zeros) == 13
    for z in zeros:
        want = spectrum.brentq(critical_line_real_form, *z.bracket,
                               xtol=tol, rtol=8.9e-16)
        assert z.tau.hex() == want.hex()


def test_find_zeros_calls_once_per_block_and_round(monkeypatch):
    # A cold call builds the scan table: exact calls on the 241 cell ends
    # and the 24 inner points of each of the 13 cells that hold a zero
    # (tau_max = 60 is a grid point, so its value is the table's).  It
    # then refines every bracket of the grid to 60 in lockstep, one call
    # per round, each bracket seeded with the scan's end values, so there
    # are at most (largest single-bracket brentq call count - 2) rounds.
    # A warm call with tau_max on the grid reads every root from the
    # zero table: no exact call and no round.  A warm call whose last
    # bracket is clipped at tau_max, just past a zero, evaluates tau_max
    # alone and refines that bracket alone, in rounds of one point.
    line = critical_line_real_form
    lockstep = spectrum._lockstep
    sizes, rounds = [], []

    def recording(tau):
        sizes.append(np.size(tau) if np.ndim(tau) else None)
        return line(tau)

    def counting(f, steps):
        return lockstep(lambda x: rounds.append(len(x)) or f(x), steps)

    spectrum._grid_scan.cache_clear()
    monkeypatch.setattr(spectrum, "critical_line_real_form", recording)
    monkeypatch.setattr(spectrum, "_lockstep", counting)
    zeros = find_zeros(60.0)
    cold_sizes, cold_rounds = sizes[:], rounds[:]
    sizes.clear()
    rounds.clear()
    warm = find_zeros(60.0)
    warm_sizes, warm_rounds = sizes[:], rounds[:]
    sizes.clear()
    rounds.clear()
    first = zeros[0]
    clipped = find_zeros((first.tau + first.bracket[1]) / 2)
    monkeypatch.undo()
    assert None not in cold_sizes
    assert cold_sizes[-len(cold_rounds):] == cold_rounds
    assert sum(cold_sizes[:-len(cold_rounds)]) == 241 + 13 * 24
    most = max(_root_and_calls(spectrum.brentq, line, *z.bracket, 1e-10)[1]
               for z in zeros)
    assert 0 < len(cold_rounds) <= most - 2
    assert max(cold_rounds) == len(zeros)
    assert warm == zeros
    assert warm_sizes == warm_rounds == []
    assert len(clipped) == 1 and clipped[0].bracket[0] == first.bracket[0]
    assert 0 < len(rounds) <= most - 2 and set(rounds) == {1}
    assert sizes == [1] + rounds


def test_scan_table_signs_are_the_exact_signs():
    # The table infers the signs inside a cell whose ends agree; at every
    # one of the 6001 grid points its sign is that of the exact value.
    t, _, sign = spectrum._grid_scan()
    exact = np.concatenate([critical_line_real_form(t[i:i + 256])
                            for i in range(0, len(t), 256)])
    assert np.array_equal(sign, np.sign(exact))


def test_zero_gap_exceeds_the_scan_cell():
    # A scan cell holds at most one zero: the smallest gap between the
    # tabulated ordinates below tau = 60 (rho_9 to rho_10) is far wider
    # than a cell, and the table holds every zero below 60.
    taus = np.array(oracles.ZERO_TAUS)
    assert len(taus) == len(find_zeros(60.0)) == 13
    gap = np.diff(taus).min()
    assert round(gap, 3) == 1.769
    assert gap > 4 * spectrum._SCAN_CELL * spectrum._SCAN_STEP


@lru_cache(maxsize=1)
def _exact_grid():
    """critical_line_real_form at every point of the 0.01 grid to 60."""
    t = np.arange(6001) * spectrum._SCAN_STEP
    return np.concatenate([critical_line_real_form(t[i:i + 256])
                           for i in range(0, len(t), 256)])


@lru_cache(maxsize=None)
def _exact_root(a, b, tol):
    """Scalar brentq's root on [a, b] and |zeta| there."""
    root = spectrum.brentq(critical_line_real_form, a, b, xtol=tol,
                           rtol=8.9e-16)
    return root, abs(zeta(complex(0.5, root)))


def _exact_scan(tau_max, tol=1e-10):
    """find_zeros as an all-exact scan: critical_line_real_form at every
    grid point (tau_max where it moves one), scalar brentq on every
    bracket, zeta for the residual."""
    last = int(math.ceil(max(tau_max, 0) / spectrum._SCAN_STEP))
    grid = np.arange(last + 1) * spectrum._SCAN_STEP
    t = np.minimum(grid, tau_max)
    v = _exact_grid()[:last + 1].copy()
    moved = t != grid
    if moved.any():
        v[moved] = critical_line_real_form(t[moved])
    records = []
    for k in np.flatnonzero((v[1:] == 0) | (v[:-1] * v[1:] < 0)):
        bracket = (float(t[k]), float(t[k + 1]))
        root, residual = _exact_root(*bracket, tol)
        records.append(spectrum.ZeroRecord(len(records) + 1, root,
                                           complex(0.5, root), residual,
                                           bracket))
    return records


def test_find_zeros_equals_an_all_exact_scan():
    # Seeded tau_max on and off the 0.01 grid, up to the cap: the records equal the all-exact scan's,
    # from a cold scan table (built by that call) and from a warm one.
    rng = random.Random(20261019)
    sweep = [0.0, 5.0, 9.99, 9.995, 10.0, 10.005, 12.57, 14.2, 45.5,
             59.345, 60.0]
    # A cell boundary, one ulp either side of it, and inside the cell
    # [48, 48.25] on either side of its zero rho_9.
    sweep += [25.0, math.nextafter(25.0, 0.0), math.nextafter(25.0, 60.0),
              48.003, 48.01]
    sweep += [round(rng.uniform(0.0, 60.0), 2) for _ in range(6)]
    sweep += [rng.uniform(0.0, 60.0) for _ in range(6)]
    for tau_max in sweep:
        want = _exact_scan(tau_max)
        spectrum._grid_scan.cache_clear()
        spectrum._zero_table.cache_clear()
        assert find_zeros(tau_max) == want, ("cold", tau_max)
        assert find_zeros(tau_max) == want, ("warm", tau_max)


@pytest.mark.parametrize("tol", [1e-10, 0.0, 1e-6])
def test_warm_find_zeros_equals_a_cold_call(tol):
    # A warm call reads the root of every bracket of the whole grid from
    # the zero table and refines only a bracket clipped at tau_max.  At
    # every tau_max of the 0.01 grid to 60 (k * 0.01, and the decimal
    # round(k * 0.01, 2), an ulp off it at 820 points) and just past
    # each zero (its bracket clipped, holding the zero) it equals the
    # all-exact scan bit for bit, and so does a cold call, which builds
    # both tables, just past each zero and at each bracket's upper end.
    spectrum._grid_scan.cache_clear()
    spectrum._zero_table.cache_clear()
    zeros = find_zeros(60.0, tol)
    assert len(zeros) == 13
    past = [z.tau + d for z in zeros
            for d in (1e-9, 2e-6, (z.bracket[1] - z.tau) / 2)]
    ends = [z.bracket[1] for z in zeros]
    for tau_max in past + ends:
        spectrum._grid_scan.cache_clear()
        spectrum._zero_table.cache_clear()
        assert find_zeros(tau_max, tol) == _exact_scan(tau_max, tol), (
            "cold", tau_max)
    grid = np.arange(6001) * spectrum._SCAN_STEP
    sweep = set(grid.tolist()) | {round(t, 2) for t in grid.tolist()}
    for tau_max in sorted(sweep) + past:
        assert find_zeros(tau_max, tol) == _exact_scan(tau_max, tol), (
            "warm", tau_max)
    # A root within tol 1e-6 of a zero may lie past it by more than 1e-9.
    held = [find_zeros(tau_max, tol)[-1].bracket[1] == tau_max
            for tau_max in past]
    assert all(held[1::3]) and all(held[2::3])


def _prefix_path(tau_max, tol, found):
    """find_zeros as it ran before its records were held: the grid table
    sliced to tau_max, grid points moved to tau_max settled exactly, each
    bracket's zero from found (_refine on every bracket of the grid) and
    a bracket clipped at tau_max refined anew."""
    last = int(math.ceil(max(tau_max, 0) / spectrum._SCAN_STEP))
    if last == 0:
        return []
    grid, grid_v, grid_sign = (a[:last + 1] for a in spectrum._grid_scan())
    t = np.minimum(grid, tau_max)
    on = t == grid
    v = np.where(on, grid_v, np.nan)
    ks = spectrum._settle(t, v, np.where(on, grid_sign, 0.0))
    found = {**found, **spectrum._refine(
        t, v, [k for k in ks if not on[k + 1]], tol)}
    return [spectrum.ZeroRecord(i + 1, *found[k],
                                (float(t[k]), float(t[k + 1])))
            for i, k in enumerate(ks)]


def _record_bits(records):
    """Every field of each record, floats as their hex strings."""
    return [(r.index, r.tau.hex(), r.rho.real.hex(), r.rho.imag.hex(),
             r.residual.hex(), r.bracket[0].hex(), r.bracket[1].hex())
            for r in records]


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 0.0])
def test_held_records_equal_the_prefix_path(tol):
    # find_zeros answers from the held records by bisection and settles
    # only a last step clipped at tau_max.  On seeded tau_max draws it
    # equals the full-prefix path bit for bit: two-decimal values (about
    # one in seven is not k * 0.01 bit for bit), uniform ones, each zero
    # +- 1e-9 and +- 1e-3, every bracket end and the edges of the range.
    t, v, sign = (a.copy() for a in spectrum._grid_scan())
    ks = spectrum._settle(t, v, sign)
    found = spectrum._refine(t, v, ks, tol)
    rng = random.Random(20261020)
    draws = [round(rng.uniform(0.0, 60.0), 2) for _ in range(150)]
    draws += [rng.uniform(0.0, 60.0) for _ in range(80)]
    draws += [root + d for root, _, _ in found.values()
              for d in (-1e-3, -1e-9, 1e-9, 1e-3)]
    draws += [float(t[j]) for k in ks for j in (k, k + 1)]
    draws += [0.0, 0.005, 0.01, 59.995, 60.0, -1.0]
    assert len(draws) >= 300
    off = sum(x != t[round(x * 100)] for x in draws[:150])
    assert 10 <= off <= 40
    for tau_max in draws:
        want = _record_bits(_prefix_path(tau_max, tol, found))
        assert _record_bits(find_zeros(tau_max, tol)) == want, tau_max


def test_returned_zero_lists_are_the_callers_own():
    # Each call returns a new list: what a caller does to it leaves the
    # held records, and so the next call's result, as they were.
    for tau_max in (60.0, 30.005, 30.305):
        want = _record_bits(find_zeros(tau_max))
        for mutate in (list.pop, lambda z: z.append(None), list.clear):
            mutate(find_zeros(tau_max))
            assert _record_bits(find_zeros(tau_max)) == want


def test_warm_find_zeros_cost_guard(monkeypatch):
    # A warm call on the grid, or off it in a cell that holds no zero,
    # reads its records and evaluates nothing: no _settle, no line
    # evaluation and no Brent round.  Off the grid in a cell that holds a
    # zero, clear of its bracket, it evaluates tau_max alone and runs no
    # round.
    find_zeros(60.0)
    calls = {"_settle": [], "critical_line_real_form": [], "_lockstep": []}

    def recording(name):
        fn, seen = getattr(spectrum, name), calls[name]
        return lambda *a: seen.append(np.size(a[0])) or fn(*a)

    for name in calls:
        monkeypatch.setattr(spectrum, name, recording(name))
    for tau_max in (60.0, 45.5, 14.13, 0.01, 30.005, 45.505, 59.995):
        assert len(find_zeros(tau_max)) == sum(
            t <= tau_max for t in oracles.ZERO_TAUS)
    assert calls == {name: [] for name in calls}
    assert len(find_zeros(30.305)) == 3
    assert calls["critical_line_real_form"] == [1]
    assert calls["_settle"] == [2] and calls["_lockstep"] == []


def test_scan_table_is_read_only():
    # find_zeros copies what it changes; the process-wide table refuses
    # writes, so no caller can corrupt a later scan.
    for array in spectrum._grid_scan():
        with pytest.raises(ValueError):
            array[0] = 1.0
    t, v, sign = spectrum._grid_scan()
    assert len(t) == 6001 and t[-1] == spectrum._TAU_CAP
    assert not np.isnan(v[::spectrum._SCAN_CELL]).any()


def test_lockstep_budget_error_names_its_bracket():
    (a, b), (c, d) = [z.bracket for z in find_zeros(30.0)[:2]]
    steps = [spectrum._brent(a, b, *_line_rows([a, b]), 1e-10, 8.9e-16, 100),
             spectrum._brent(c, d, *_line_rows([c, d]), 1e-10, 8.9e-16, 2)]
    with pytest.raises(ConvergenceError, match=rf"\[{c}, {d}\]"):
        spectrum._lockstep(_line_rows, steps)


def test_eigenvalue_map():
    lam = eigenvalue_of(oracles.RHO1)
    assert lam.real == pytest.approx(oracles.ZERO_TAUS[0], abs=0)
    assert lam.imag == 0.0
    assert eigenvalue_of(0.5 + 3j) == 3.0 + 0j
    # Off the line the eigenvalue picks up an imaginary part.
    assert abs(eigenvalue_of(0.6 + 3j).imag + 0.1) < 1e-15


def test_count_zeros_boxes():
    assert count_zeros(StripRectangle(0.05, 0.95, 0.0, 30.0)) == 3
    assert count_zeros(StripRectangle(0.4, 0.6, 2.0, 12.0)) == 0
    assert count_zeros(StripRectangle(0.05, 0.95, 31.0, 35.0)) == 1
    assert count_zeros(StripRectangle(0.05, 0.95, 0.0, 50.0)) == 10


def test_count_matches_scan():
    for tau_max in (30.0, 40.0):
        n_line = len(find_zeros(tau_max))
        n_box = count_zeros(StripRectangle(0.05, 0.95, 0.0, tau_max))
        assert n_line == n_box


def test_contour_through_zero_rejected():
    # The top edge passes through the first zero: the tracker's samples
    # close in on it until one's |zeta| no longer exceeds its own bound,
    # and the refusal names that point, on the top edge, and its |zeta|.
    rect = StripRectangle(0.05, 0.95, 5.0, oracles.ZERO_TAUS[0])
    with pytest.raises(PreconditionError, match=r"point .* has \|zeta\| =") as info:
        count_zeros(rect)
    point = complex(str(info.value).split()[2])
    assert point.imag == rect.tau_hi and abs(point.real - 0.5) < 1e-12
    assert "within its bound" in str(info.value)


def _clearance(rect, taus):
    """Distance from the rectangle's boundary to the nearest 1/2 + i tau."""
    def gaps(tau):  # each negative inside the rectangle's span
        return (max(rect.sigma_lo - 0.5, 0.5 - rect.sigma_hi),
                max(rect.tau_lo - tau, tau - rect.tau_hi))

    return min(-max(dx, dy) if dx <= 0 and dy <= 0
               else math.hypot(max(dx, 0.0), max(dy, 0.0))
               for dx, dy in map(gaps, taus))


def test_count_zeros_matches_scan_on_a_seeded_table():
    # 150 seeded rectangles in (0, 1) x [0, 60], every edge at least 0.05
    # from every tabulated zero.  Each returns the scan's count: the zeros
    # between its edges when it straddles the line, else none.  An edge
    # started from two panels whatever its length refused about one in
    # ten of these, its driver stopping at a rounding floor before the
    # panels resolved zeta'/zeta, far from any zero.
    taus = [z.tau for z in find_zeros(60.0)]
    rng = random.Random(20261020)
    rects = []
    while len(rects) < 150:
        sigma_lo, sigma_hi = sorted(rng.uniform(0.0, 1.0) for _ in "ab")
        tau_lo, tau_hi = sorted(rng.uniform(0.0, 60.0) for _ in "ab")
        if 0 < sigma_lo < sigma_hi < 1 and tau_lo < tau_hi:
            rect = StripRectangle(sigma_lo, sigma_hi, tau_lo, tau_hi)
            if _clearance(rect, oracles.ZERO_TAUS) >= 0.05:
                rects.append(rect)
    # count_zeros answers most from the census, and the tracker's own
    # count of each rectangle agrees with it.
    for rect in rects:
        expected = (sum(rect.tau_lo < t < rect.tau_hi for t in taus)
                    if rect.sigma_lo < 0.5 < rect.sigma_hi else 0)
        assert count_zeros(rect) == _tracked(rect) == expected, rect


def _corners(rect):
    return spectrum._corners(rect.sigma_lo, rect.sigma_hi, rect.tau_lo,
                             rect.tau_hi)


def _tracked(rect):
    """The one-polygon tracker's count of the rectangle, bypassing the
    census."""
    return spectrum._windings([_corners(rect)])[0]


# A rectangle that the quadrature count refused: its left edge passes
# 0.0011 right of rho_1 ... rho_11.
NEAR_LINE = StripRectangle(0.5010568574712526, 0.526128397299826,
                           8.925389938254995, 54.86508014506357)


def test_second_derivative_bound_holds_against_mpmath():
    # _zeta2_bound bounds |zeta''| on a step: at 300 seeded points on
    # seeded axis-parallel steps in 0 < sigma < 1, |tau| <= 60, one in
    # five within 0.1 of s = 1 (where the pole term takes over), it is
    # at least mpmath's |zeta''|.  So it is on 0.9+0.05i -> 1.1+0.05i,
    # where the pole distance taken as hypot(1 - max sigma, tau) read
    # M2 = 2,917 against a true 16,000, and at 100 seeded points on steps
    # across sigma = 1 clear of the pole, or right of it.
    rng = random.Random(20261020)
    z0, z1, points = [], [], []
    for k in range(300):
        near = k % 5 == 0
        s = complex(rng.uniform(0.9 if near else 1e-3, 0.999),
                    rng.uniform(-0.2, 0.2) if near else rng.uniform(-60, 60))
        h = rng.choice((-1, 1)) * rng.uniform(0, 0.1 if near else 2.0)
        t = (complex(min(max(s.real + h, 1e-3), 0.999), s.imag)
             if k % 2 else complex(s.real, min(max(s.imag + h, -60), 60)))
        z0.append(s)
        z1.append(t)
        points.append(s + (t - s) * rng.random())
    z0.append(0.9 + 0.05j)
    z1.append(1.1 + 0.05j)
    points.append(1 + 0.05j)
    for k in range(100):
        tau = (rng.choice((-1, 1)) * rng.uniform(0.02, 0.3) if k % 2
               else rng.uniform(-60, 60))
        if k % 3:  # along sigma, ending right of 1
            lo = rng.uniform(0.8, 1.2)
            hi = max(lo, 1) + rng.uniform(0.01, 0.3)
            s, t = complex(lo, tau), complex(hi, tau)
        else:  # along tau, right of 1 (across tau = 0 near the pole)
            sigma = rng.uniform(1.01, 1.2)
            s, t = (complex(sigma, tau),
                    complex(sigma, tau + rng.uniform(-0.5, 0.5)))
        s, t = (s, t) if rng.random() < 0.5 else (t, s)
        z0.append(s)
        z1.append(t)
        points.append(s + (t - s) * rng.random())
    bound = spectrum._zeta2_bound(np.array(z0), np.array(z1))
    for m2, p in zip(bound, points):
        assert m2 >= abs(mpmath.zeta(p, derivative=2)), p


@pytest.mark.parametrize("rect, seeded", [
    (StripRectangle(0.05, 0.95, 31.0, 35.0), 0.0), (NEAR_LINE, 0.0),
    (StripRectangle(0.2, 0.8, 42.0, 47.0), 0.5)],
    ids=["box-31-35", "near-line", "scan-42-47"])
def test_every_accepted_step_stays_in_its_disc(rect, seeded, monkeypatch):
    # The certificate: on every accepted step mpmath's zeta stays inside
    # the disc |w - zeta(z_k)| < |zeta(z_k)| about the certifying end, so
    # zeta does not wind around 0 there and Arg zeta(z_j)/zeta(z_i) is
    # the step's change of arg; 8 points along each step.  The first
    # engine call takes every edge cut into pieces: on the benchmark-like
    # rectangle across the line, at least half of those pieces are
    # accepted from that call as they are.
    sizes, hurwitz = [], spectrum._hurwitz
    monkeypatch.setattr(spectrum, "_hurwitz", lambda s, *a, **k: (
        sizes.append(len(s)) or hurwitz(s, *a, **k)))
    z, val, steps = spectrum._track([_corners(rect)])
    assert sorted(steps[:, 0]) == list(range(len(z)))  # a closed chain
    assert (steps[:, 3] == 0).all()
    assert (steps[:, :2] < sizes[0]).all(axis=1).sum() >= seeded * sizes[0]
    for i, j, k, _ in steps:
        for t in np.linspace(0.0, 1.0, 8):
            w = complex(mpmath.zeta(z[i] + (z[j] - z[i]) * t))
            assert abs(w - val[k]) < abs(val[k]), (z[i], z[j], t)


def _chain(steps, start):
    """The points of the closed chain of steps i -> j from start, in
    order; fails unless each point has one step out and the chain
    returns to start through every step."""
    out = dict(zip(steps[:, 0].tolist(), steps[:, 1].tolist()))
    assert len(out) == len(steps)
    chain = [start]
    while (nxt := out[chain[-1]]) != start:
        chain.append(nxt)
    assert len(chain) == len(steps)
    return chain


def test_track_runs_several_polygons_in_one_set_of_rounds(monkeypatch):
    # Two rectangles, one across the line holding one zero and one beside
    # it, tracked together: each polygon's steps form its own closed chain
    # through its four corners, and each winding equals the polygon's
    # one-polygon run, in as many engine calls as the longer of the two.
    rects = [StripRectangle(0.05, 0.95, 31.0, 35.0),
             StripRectangle(0.55, 0.8, 20.0, 26.0)]
    calls, hurwitz = [], spectrum._hurwitz
    monkeypatch.setattr(spectrum, "_hurwitz", lambda s, *a, **k: (
        calls.append(len(s)) or hurwitz(s, *a, **k)))
    _, _, steps = spectrum._track([_corners(r) for r in rects])
    together, rounds, alone = len(calls), [], []
    for p, rect in enumerate(rects):
        chain = _chain(steps[steps[:, 3] == p], 4 * p)
        assert set(range(4 * p, 4 * p + 4)) <= set(chain)
        calls.clear()
        alone.append(_tracked(rect))
        rounds.append(len(calls))
    assert together == max(rounds)
    assert alone == [1, 0]
    assert spectrum._windings([_corners(r) for r in rects]) == alone


def test_track_refuses_a_round_past_its_cap(monkeypatch):
    # With M2 so large that no step is accepted, every step splits into
    # _SPLIT pieces a round.  The round that would pass _ROUND_CAP points
    # is refused by name before any point of it is built: the engine never
    # sees more than the cap.  The census takes that refusal as unproven,
    # and count_zeros' tracker refuses the same way.
    hurwitz = spectrum._hurwitz

    def capped(s, *args, **kwargs):
        assert len(s) <= spectrum._ROUND_CAP
        return hurwitz(s, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_hurwitz", capped)
    monkeypatch.setattr(spectrum, "_zeta2_bound", lambda z0, z1: np.full(
        np.broadcast(z0, z1).shape, 1e300))
    rect = StripRectangle(0.2, 0.8, 42.0, 47.0)
    cap = f"past its cap {spectrum._ROUND_CAP}"
    with pytest.raises(CapabilityError, match=cap):
        _tracked(rect)
    assert spectrum._census() is None
    with pytest.raises(CapabilityError, match=cap):
        count_zeros(rect)


def test_count_zeros_answers_next_to_zeros():
    # The quadrature count refused a vertical edge within about 0.01 of
    # a zero on the line; the tracker answers edges 1e-8 from one.
    assert count_zeros(NEAR_LINE) == 0
    tau1, eps = oracles.ZERO_TAUS[0], 1e-8
    scan = [z.tau for z in find_zeros(30.0)]
    for sigma_lo, sigma_hi in ((0.5 - eps, 0.9), (0.5 + eps, 0.9),
                               (0.1, 0.5 - eps), (0.1, 0.5 + eps)):
        rect = StripRectangle(sigma_lo, sigma_hi, 10.0, 30.0)
        assert count_zeros(rect) == (len(scan) if sigma_lo < 0.5 < sigma_hi
                                     else 0), rect
    for tau_lo, tau_hi in ((tau1 - eps, 30.0), (tau1 + eps, 30.0),
                           (5.0, tau1 - eps), (5.0, tau1 + eps)):
        rect = StripRectangle(0.1, 0.9, tau_lo, tau_hi)
        assert count_zeros(rect) == sum(tau_lo < t < tau_hi for t in scan)


def test_count_zeros_and_warm_find_zeros_cost_guard(monkeypatch):
    # Deterministic counts, so that a cost regression shows in tier-1: a
    # warm find_zeros(60) evaluates nothing, and the tracker's engine
    # calls and points (count_zeros' route past the census) stay bounded
    # on verify's boxes.  The tracker takes 3 calls and 1190 points, and
    # 3 and 680; from the corners alone it took 4 and 1099, and 5 and
    # 632; the quadrature count took 1660 and 924 points.
    points, line_calls = [], []
    hurwitz, line = spectrum._hurwitz, spectrum.critical_line_real_form
    find_zeros(60.0)
    monkeypatch.setattr(spectrum, "_hurwitz", lambda s, *a, **k: (
        points.append(np.size(s)) or hurwitz(s, *a, **k)))
    monkeypatch.setattr(spectrum, "critical_line_real_form", lambda t: (
        line_calls.append(t) or line(t)))
    assert len(find_zeros(60.0)) == 13 and line_calls == []
    for tau_hi, most in ((60.0, 1200), (30.0, 700)):
        points.clear()
        _tracked(StripRectangle(0.05, 0.95, 0.0, tau_hi))
        assert sum(points) <= most and len(points) <= 3, (tau_hi, points)


def _scan_rectangles():
    """100 seeded rectangles drawn as the benchmark's zeros-scan draws
    them, each with the scan's count of the zeros inside it."""
    taus = [z.tau for z in find_zeros(60.0)]

    def clear(tau):
        return tau + 0.6 if any(abs(tau - t) < 0.3 for t in taus) else tau

    rng, rects = random.Random(20261021), []
    for k in range(100):
        height = rng.uniform(3.0, 10.0)
        tau_lo = clear(rng.uniform(10.0, 58.8 - height))
        tau_hi = clear(tau_lo + height)
        if k % 4 != 3:
            sigmas = 0.1 + 0.3 * rng.random(), 0.6 + 0.3 * rng.random()
            expected = sum(tau_lo < t < tau_hi for t in taus)
        else:
            sigma_lo = 0.55 + 0.15 * rng.random()
            sigmas = sigma_lo, sigma_lo + 0.1 + 0.2 * rng.random()
            expected = 0
        rects.append((StripRectangle(*sigmas, tau_lo, tau_hi), expected))
    return rects


def test_count_zeros_takes_two_rounds_on_scan_rectangles(monkeypatch):
    # 100 seeded rectangles drawn as the benchmark's zeros-scan draws
    # them: heights 3 to 10 in tau 10 to 60, an edge within 0.3 of a
    # scanned zero moved 0.6 up, every fourth rectangle right of the line.
    # Each tracker count equals the scan's; the first engine call seeds
    # every edge, so a count takes about 2 calls (a round costs about
    # 0.3 ms, a point 4 us).  count_zeros answers these from the census.
    calls, hurwitz = [], spectrum._hurwitz
    monkeypatch.setattr(spectrum, "_hurwitz", lambda s, *a, **k: (
        calls.append(len(s)) or hurwitz(s, *a, **k)))
    per_count = []
    for rect, expected in _scan_rectangles():
        calls.clear()
        assert _tracked(rect) == expected, rect
        per_count.append(len(calls))
    assert max(per_count) <= 4 and sum(per_count) <= 230, per_count


@pytest.mark.parametrize("tamper", [
    lambda ks: np.delete(ks, 4),
    lambda ks: np.sort(np.append(ks, round(20.0 / spectrum._SCAN_STEP)))],
    ids=["dropped", "spurious-at-20"])
def test_census_declines_a_tampered_bracket_list(tamper, monkeypatch):
    # The scan's brackets only place the thin boxes; the tracker proves
    # the census.  With rho_5's bracket dropped the box winds 13 around 12
    # thin boxes, and a thin box about tau = 20 winds 0: either way the
    # census declines, and every count, taken by the tracker, stays right.
    taus = [z.tau for z in find_zeros(60.0)]
    settle, calls, hurwitz = spectrum._settle, [], spectrum._hurwitz
    monkeypatch.setattr(spectrum, "_settle", lambda *a: tamper(settle(*a)))
    assert spectrum._census() is None
    monkeypatch.setattr(spectrum, "_hurwitz", lambda s, *a, **k: (
        calls.append(len(s)) or hurwitz(s, *a, **k)))
    for rect in (StripRectangle(0.05, 0.95, 0.0, 30.0),
                 StripRectangle(0.4, 0.6, 2.0, 12.0),
                 StripRectangle(0.05, 0.95, 31.0, 35.0),
                 StripRectangle(0.2, 0.8, 19.0, 21.5),
                 StripRectangle(0.05, 0.95, 0.0, 60.0)):
        calls.clear()
        expected = sum(rect.tau_lo < t < rect.tau_hi for t in taus)
        assert count_zeros(rect) == expected, rect
        assert calls, rect


def test_census_answers_scan_rectangles_without_the_engine(monkeypatch):
    # Once the census is built, a count of a zeros-scan rectangle (edges
    # clear of the thin boxes, inside the census box) is bookkeeping: no
    # engine call and no line evaluation.  The census proves all 13 zeros
    # below 60 in one tracker run of one engine call a round.
    taus, rects = [z.tau for z in find_zeros(60.0)], _scan_rectangles()
    calls, hurwitz = [], spectrum._hurwitz
    line, line_calls = spectrum.critical_line_real_form, []
    monkeypatch.setattr(spectrum, "_hurwitz", lambda s, *a, **k: (
        calls.append(len(s)) or hurwitz(s, *a, **k)))
    lo, hi = spectrum._census()
    assert len(lo) == 13 and all(a < t < b for a, b, t in zip(lo, hi, taus))
    assert 0 < len(calls) <= 5
    monkeypatch.setattr(spectrum, "critical_line_real_form", lambda t: (
        line_calls.append(t) or line(t)))
    calls.clear()
    for rect, expected in rects:
        assert count_zeros(rect) == expected, rect
    assert calls == line_calls == []


def test_count_zeros_range_guard():
    # Past zeta's calibrated |tau| <= 60 the count is refused up front,
    # naming the limit, instead of answering from zeta outside its range.
    for taus in ((200.2, 210.0), (60.5, 80.0), (-70.0, -65.0)):
        with pytest.raises(CapabilityError, match="60"):
            count_zeros(StripRectangle(0.05, 0.95, *taus))


def test_count_zeros_matches_scan_on_random_rectangles():
    # Twelve seeded rectangles with tau in [10, 60], edges at least 0.3
    # from every scanned ordinate: one straddling the line holds exactly
    # the scanned zeros between its edges, one right of the line none.
    taus = [z.tau for z in find_zeros(60.0)]
    rng = random.Random(20261018)
    for k in range(12):
        tau_lo = 10.0 + 4.0 * (k + rng.random())
        tau_hi = min(tau_lo + rng.uniform(2.0, 10.0), 60.0)
        while any(abs(tau_lo - t) < 0.3 for t in taus):
            tau_lo -= 0.3
        while any(abs(tau_hi - t) < 0.3 for t in taus):
            tau_hi -= 0.3
        if k % 3:
            rect = StripRectangle(rng.uniform(0.05, 0.45),
                                  rng.uniform(0.55, 0.95), tau_lo, tau_hi)
            expected = sum(tau_lo < t < tau_hi for t in taus)
        else:
            sigma_lo = rng.uniform(0.55, 0.8)
            rect = StripRectangle(sigma_lo, sigma_lo + rng.uniform(0.05, 0.15),
                                  tau_lo, tau_hi)
            expected = 0
        assert count_zeros(rect) == expected, rect


def test_rectangle_validation():
    with pytest.raises(DomainError):
        StripRectangle(0.0, 0.95, 0.0, 30.0)
    with pytest.raises(DomainError):
        StripRectangle(0.05, 1.0, 0.0, 30.0)
    with pytest.raises(DomainError):
        StripRectangle(0.6, 0.4, 0.0, 30.0)
    with pytest.raises(DomainError):
        StripRectangle(0.05, 0.95, 20.0, 10.0)


def test_residual_is_zeta_magnitude_at_root():
    # find_zeros takes every residual from one engine call; each equals
    # the one-point zeta call at its zero bit for bit.
    from zetalab.special import zeta

    zeros = find_zeros(60.0)
    assert len(zeros) == 13
    for z in zeros:
        assert z.residual == abs(zeta(z.rho))
        assert z.residual < 1e-10
