import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
                                    {"tau_max": 30.0, "tol": math.nan}],
                         ids=["nan-tau_max", "negative-tol", "inf-tol",
                              "nan-tol"])
def test_find_zeros_refuses_nan_tau_max_and_bad_tol(kwargs):
    # A NaN tau_max used to reach int(nan), a negative tol to run every
    # bracket to brentq's iteration cap.  tol = 0 leaves rtol in charge.
    with pytest.raises(DomainError, match="tau_max" if len(kwargs) == 1
                       else "tol"):
        find_zeros(**kwargs)
    assert len(find_zeros(15.0, tol=0.0)) == 1


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


@settings(derandomize=True, max_examples=300, deadline=None)
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
    # The scan takes one call per block; refinement takes one per round,
    # and it seeds each bracket with the scan's end values, so there are
    # at most (largest single-bracket brentq call count - 2) rounds.
    line = critical_line_real_form
    sizes = []

    def recording(tau):
        sizes.append(np.size(tau) if np.ndim(tau) else None)
        return line(tau)

    monkeypatch.setattr(spectrum, "critical_line_real_form", recording)
    zeros = find_zeros(60.0)
    assert None not in sizes
    rounds = len(sizes) - len(range(0, 6000, spectrum._SCAN_BLOCK))
    most = max(_root_and_calls(spectrum.brentq, line, *z.bracket, 1e-10)[1]
               for z in zeros)
    assert 0 < rounds <= most - 2
    assert max(sizes[-rounds:]) == len(zeros)


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
