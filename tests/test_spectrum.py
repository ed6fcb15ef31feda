import cmath
import math
import random

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
    # A cold call builds the scan table: exact calls of at most
    # _SCAN_BLOCK rows each, on the 241 cell ends and the 24 inner points
    # of each of the 13 cells that hold a zero, then tau_max.  Refinement
    # takes one call per round, and it seeds each bracket with the scan's
    # end values, so there are at most (largest single-bracket brentq
    # call count - 2) rounds.  A warm call makes one scan call, tau_max
    # alone (no bracket ends at 59.99), then the same rounds.
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
    monkeypatch.undo()
    assert None not in cold_sizes
    assert max(cold_sizes) <= spectrum._SCAN_BLOCK
    assert cold_sizes[-len(cold_rounds):] == cold_rounds
    assert sum(cold_sizes[:-len(cold_rounds)]) == 241 + 13 * 24 + 1
    most = max(_root_and_calls(spectrum.brentq, line, *z.bracket, 1e-10)[1]
               for z in zeros)
    assert 0 < len(cold_rounds) <= most - 2
    assert max(cold_rounds) == len(zeros)
    assert warm == zeros
    assert rounds == cold_rounds
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


def _exact_scan(tau_max):
    """find_zeros as an all-exact scan: critical_line_real_form at every
    grid point, scalar brentq on every bracket, zeta for the residual."""
    last = int(math.ceil(max(tau_max, 0) / spectrum._SCAN_STEP))
    t = np.minimum(np.arange(last + 1) * spectrum._SCAN_STEP, tau_max)
    v = np.concatenate([critical_line_real_form(t[i:i + 256])
                        for i in range(0, last + 1, 256)]) if last else t
    records = []
    for k in np.flatnonzero((v[1:] == 0) | (v[:-1] * v[1:] < 0)):
        bracket = (float(t[k]), float(t[k + 1]))
        root = spectrum.brentq(critical_line_real_form, *bracket,
                               xtol=1e-10, rtol=8.9e-16)
        rho = complex(0.5, root)
        records.append(spectrum.ZeroRecord(len(records) + 1, root, rho,
                                           abs(zeta(rho)), bracket))
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
        assert find_zeros(tau_max) == want, ("cold", tau_max)
        assert find_zeros(tau_max) == want, ("warm", tau_max)


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
    # Top edge passes through the first zero; its quadrature stalls at
    # the rounding floor (the nearest node has |zeta| about 8e-6, so the
    # 1e-6 rule alone would not fire) and the count names the cause.
    rect = StripRectangle(0.05, 0.95, 5.0, oracles.ZERO_TAUS[0])
    with pytest.raises(PreconditionError, match=r"point .* has \|zeta\| ="):
        count_zeros(rect)


def test_count_zeros_range_guard():
    # Past zeta's calibrated |tau| <= 60 the count is refused up front,
    # naming the limit, instead of recursing to a ResolutionError or
    # answering from zeta outside its range.
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
