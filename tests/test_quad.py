import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.errors import CapabilityError, ConvergenceError, DomainError
from zetalab.quad import (CumulativeIntegral, IntegrandSpec, gauss_legendre,
                          integrate_finite, integrate_nested,
                          integrate_semi_infinite, truncation_point)


def test_gauss_rule_against_library_rule():
    for n in (8, 16, 64):
        x, w = gauss_legendre(n)
        xr, wr = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(np.asarray(x, dtype=float) - xr)) < 1e-14
        assert np.max(np.abs(np.asarray(w, dtype=float) - wr)) < 1e-14


def test_gauss_rule_polynomial_exactness():
    x, w = gauss_legendre(12)
    # Exact through degree 2n-1 = 23.
    for deg in (2, 10, 23):
        got = float(x**deg @ w)
        want = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(got - want) < 1e-14


def test_gauss_rule_domain():
    with pytest.raises(CapabilityError):
        gauss_legendre(0)
    with pytest.raises(CapabilityError):
        gauss_legendre(513)


def test_finite_smooth_integrals():
    r = integrate_finite(np.sin, 0.0, math.pi, 1e-13)
    assert abs(r.value - 2.0) < 1e-13
    assert abs(r.value - 2.0) <= r.abs_err + 1e-15
    r = integrate_finite(lambda t: np.exp(t), 0.0, 1.0, 1e-13)
    assert abs(r.value - (math.e - 1)) < 1e-13


def test_finite_endpoint_singularities():
    spec = IntegrandSpec(endpoint_exponent=0.5, decay="none")
    r = integrate_finite(lambda t: 1 / np.sqrt(t), 0.0, 1.0, 1e-12,
                         spec=spec)
    assert abs(r.value - 2.0) < 1e-12
    spec = IntegrandSpec(endpoint_exponent=0.25, decay="none")
    r = integrate_finite(lambda t: t**np.longdouble(-0.75) * np.cos(t),
                         0.0, 1.0, 1e-11, spec=spec)
    # Reference from 50-digit quadrature of the smooth substituted form
    # 4 int_0^1 cos(u^4) du.
    assert abs(r.value - 3.7873624566616202) < 1e-11
    r = integrate_finite(np.log, 0.0, 1.0, 1e-10)
    assert abs(r.value - (-1.0)) < 1e-10


def test_finite_complex_integrand():
    r = integrate_finite(lambda t: np.exp(1j * t), 0.0, 1.0, 1e-13)
    want = (np.exp(1j) - 1) / 1j
    assert abs(r.value - want) < 1e-13


def test_semi_infinite_families():
    spec = IntegrandSpec(endpoint_exponent=1.0)
    r = integrate_semi_infinite(lambda t: np.exp(-t), spec, 1e-13)
    assert abs(r.value - 1.0) < 1e-13
    spec = IntegrandSpec(endpoint_exponent=0.7)
    r = integrate_semi_infinite(
        lambda t: t**np.longdouble(-0.3) * np.exp(-t), spec, 1e-12)
    assert abs(r.value - 1.2980553326475577) < 1e-12  # Gamma(0.7)
    spec = IntegrandSpec(endpoint_exponent=1.0)
    r = integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(t), spec,
                                1e-12)
    assert abs(r.value - 0.5) < 1e-12


def test_stacked_single_row_matches_scalar_bit_for_bit():
    # A one-row stacked integrand runs the scalar arithmetic exactly.
    ld = np.longdouble
    cases = [
        (lambda f: integrate_finite(f, 0.0, 2.0, 1e-14),
         lambda t: np.exp(1j * t) * np.cos(3 * t)),
        (lambda f: integrate_finite(f, 0.0, 1.0, 1e-12,
                                    spec=IntegrandSpec(0.25, "none")),
         lambda t: t**ld(-0.75) * np.cos(t)),
        (lambda f: integrate_semi_infinite(f, IntegrandSpec(0.7), 1e-13),
         lambda t: t**ld(-0.3) * np.exp(-t) * np.exp(2j * t)),
    ]
    for run, f in cases:
        scalar = run(f)
        stacked = run(lambda t, f=f: f(t)[None, :])
        assert stacked.value.shape == (1,)
        assert stacked.value[0] == scalar.value
        assert stacked.abs_err == scalar.abs_err
        assert stacked.evals == scalar.evals


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(1, 8), st.floats(1e-12, 1e-8))
def test_stacked_rows_meet_reported_error(m, tol):
    # Rows t^k e^{-t}, k < m, share one subdivision; abs_err bounds each.
    k = np.arange(m)[:, None]
    r = integrate_semi_infinite(lambda t: t**k * np.exp(-t),
                                IntegrandSpec(endpoint_exponent=1.0), tol)
    assert r.value.shape == (m,)
    for j, v in enumerate(r.value):
        exact = math.factorial(j)
        # value is returned in double precision; its last-place rounding
        # is not part of abs_err.
        assert abs(v - exact) <= r.abs_err + 2 * math.ulp(exact)


def test_stacked_run_returns_only_within_tol():
    # Initial panel errors 1e16 times tol leave a running sum of panel
    # errors meaningless near tol; a stacked run sums them exactly, so it
    # returns only once the error it reports meets tol.
    a = np.array([50.0, 120.0])[:, None]
    r = integrate_finite(lambda t: np.exp(-t) * np.cos(a * t), 0.0, 20.0,
                         1e-18)
    assert r.abs_err <= 1e-18
    for v, w in zip(r.value, (50.0, 120.0)):
        exact = (1 + math.exp(-20) * (w * math.sin(20 * w)
                                      - math.cos(20 * w))) / (1 + w * w)
        assert abs(v - exact) <= r.abs_err + 2 * math.ulp(exact)


def test_stacked_run_stops_at_its_rounding_floor():
    # Rows evaluated in single precision carry noise near 1e-8 that no
    # refinement removes: the run stops once doubling the panel count no
    # longer halves the error, long before its budget, with an estimate
    # its error bound still covers.
    def f(t):
        y = np.exp(-t.astype(np.float32)).astype(np.float64)
        return np.stack([y, 2 * y])

    with pytest.raises(ConvergenceError, match="rounding floor") as info:
        integrate_finite(f, 0.0, 1.0, 1e-12)
    best = info.value.best
    assert best.evals < 10_000
    for v, exact in zip(best.value, (1 - math.exp(-1), 2 - 2 * math.exp(-1))):
        assert abs(v - exact) <= best.abs_err


def test_stacked_error_covers_the_hardest_row():
    # A panel's error is the maximum over rows, so a smooth first row
    # cannot stop the refinement an oscillatory second row needs.
    r = integrate_semi_infinite(
        lambda t: np.exp(-t) * np.stack([np.ones_like(t), np.cos(40 * t)]),
        IntegrandSpec(endpoint_exponent=1.0), 1e-12)
    for v, exact in zip(r.value, (1.0, 1 / 1601)):
        assert abs(v - exact) <= r.abs_err + 2 * math.ulp(exact)


def test_truncation_point_tail_bound():
    spec = IntegrandSpec(endpoint_exponent=1.0)
    T, tail, evals = truncation_point(lambda t: np.exp(-t), spec, 1e-9)
    assert math.exp(-float(T)) <= 1e-9 * 1.01 + tail
    assert evals > 0


def test_cumulative_queries_match_closed_form():
    cum = CumulativeIntegral(lambda t: np.exp(-t), 0.0, 50.0, 1e-13)
    xs = [0.1, 0.5, 1.7, 12.0, 49.5]
    lo_vals, lo_errs = cum.query_lo_many(xs)
    hi_vals, hi_errs = cum.query_hi_many(xs)
    for x, vl, el, vh, eh in zip(xs, lo_vals, lo_errs, hi_vals, hi_errs):
        assert abs(complex(vl) - (1 - math.exp(-x))) <= float(el) + 1e-13
        assert abs(complex(vh) - math.exp(-x)) <= float(eh) + 1e-13


def test_cumulative_vectorized_queries():
    cum = CumulativeIntegral(lambda t: np.exp(-t), 0.0, 40.0, 1e-12)
    xs = np.array([0.3, 1.0, 2.5, 7.0])
    vals, errs = cum.query_lo_many(xs)
    for x, v in zip(xs, vals):
        assert abs(complex(v) - (1 - math.exp(-x))) < 1e-11
    assert np.all(errs >= 0)
    # One batched query equals the same queries made one point at a
    # time, bit for bit, including zero-width partial panels: lo, hi and
    # a stored panel edge.
    edge = cum._lefts[len(cum._lefts) // 2]
    xs = np.array([0.0, 0.3, edge, 7.0, 40.0], dtype=np.longdouble)
    for query in (cum.query_lo_many, cum.query_hi_many):
        vals, errs = query(xs)
        for x, v, e in zip(xs, vals, errs):
            v1, e1 = query(np.array([x]))
            assert v1[0] == v and e1[0] == e


def test_cumulative_tail_bound_propagates():
    cum = CumulativeIntegral(lambda t: np.exp(-t), 0.0, 30.0, 1e-12,
                             tail_bound=1e-8)
    _, e = cum.query_hi_many([1.0])
    assert float(e[0]) >= 1e-8


def test_nested_triangle_and_coupling():
    tri = CumulativeIntegral(lambda u: u, 0.0, 1.0, 1e-13)
    r = integrate_nested(lambda t: t, tri.query_lo_many, 1e-12, 0.0, 1.0)
    assert abs(r.value - 0.125) <= max(r.abs_err, 1e-12)
    # outer e^{-t} against inner cumulative of e^{-u}:
    # int_0^inf e^{-t}(1-e^{-t}) dt = 1/2, truncated at 40.
    cum = CumulativeIntegral(lambda u: np.exp(-u), 0.0, 40.0, 1e-11)
    r = integrate_nested(lambda t: np.exp(-t), cum.query_lo_many, 1e-10,
                         0.0, 40.0)
    assert abs(r.value - 0.5) <= max(r.abs_err, 1e-10)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.floats(0.5, 3.0))
def test_nested_polynomial_meets_reported_error(m, k, b):
    # int_0^b t^m int_0^t u^k du dt = b^{m+k+2} / ((k+1)(m+k+2)).
    exact = float(Fraction(b) ** (m + k + 2) / ((k + 1) * (m + k + 2)))
    cum = CumulativeIntegral(lambda u: u**k, 0.0, b, 1e-13)
    r = integrate_nested(lambda t: t**m, cum.query_lo_many, 1e-12, 0.0, b)
    # value is returned in double precision; its last-place rounding is
    # not part of abs_err.
    assert abs(r.value - exact) <= r.abs_err + 2 * math.ulp(exact)
    xs = np.linspace(0.0, b, 7)
    lo, e_lo = cum.query_lo_many(xs)
    hi, e_hi = cum.query_hi_many(xs)
    total = cum.total()
    for vl, el, vh, eh in zip(lo, e_lo, hi, e_hi):
        miss = abs(complex(vl + vh) - total.value)
        assert miss <= el + eh + total.abs_err + 2 * math.ulp(abs(total.value))


def test_budget_exhaustion_attaches_best():
    with pytest.raises(ConvergenceError) as info:
        integrate_finite(lambda t: np.cos(1e4 * t), 0.0, 1.0, 1e-30,
                         max_evals=2000)
    best = info.value.best
    assert best is not None and best.evals <= 2000


def test_extended_precision_available():
    # The engine accumulates in longdouble; on x86 that is the 80-bit
    # format with eps ~ 1.08e-19.
    assert float(np.finfo(np.longdouble).eps) < 1.2e-18


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegrandSpec(endpoint_exponent=0.0)
    with pytest.raises(DomainError):
        IntegrandSpec(endpoint_exponent=1.0, decay="polynomial")
