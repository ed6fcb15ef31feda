import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from zetalab.errors import CapabilityError, ConvergenceError, DomainError
from zetalab.quad import (CumulativeIntegral, gauss_legendre,
                          integrate_finite, integrate_semi_infinite,
                          _adaptive_panels, _EPS_LD, _HI_MAP, _LO_MAP,
                          _W31, _X31, _X46, _legendre_pn,
                          _result_value, _running_sum, _truncation_point)


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
    r = integrate_finite(lambda t: 1 / np.sqrt(t), 0.0, 1.0, 1e-12, 0.5)
    assert abs(r.value - 2.0) < 1e-12
    r = integrate_finite(lambda t: t**np.longdouble(-0.75) * np.cos(t),
                         0.0, 1.0, 1e-11, 0.25)
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
    r = integrate_semi_infinite(lambda t: np.exp(-t), 1.0, 1e-13)
    assert abs(r.value - 1.0) < 1e-13
    r = integrate_semi_infinite(
        lambda t: t**np.longdouble(-0.3) * np.exp(-t), 0.7, 1e-12)
    assert abs(r.value - 1.2980553326475577) < 1e-12  # Gamma(0.7)
    r = integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(t), 1.0,
                                1e-12)
    assert abs(r.value - 0.5) < 1e-12


def test_stacked_single_row_matches_scalar_bit_for_bit():
    # Scalar and stacked runs share one exit rule, so a one-row stacked
    # integrand gives the scalar result bit for bit.
    ld = np.longdouble
    cases = [
        (lambda f: integrate_finite(f, 0.0, 2.0, 1e-14),
         lambda t: np.exp(1j * t) * np.cos(3 * t)),
        (lambda f: integrate_finite(f, 0.0, 1.0, 1e-12, 0.25),
         lambda t: t**ld(-0.75) * np.cos(t)),
        (lambda f: integrate_semi_infinite(f, 0.7, 1e-13),
         lambda t: t**ld(-0.3) * np.exp(-t) * np.exp(2j * t)),
    ]
    for run, f in cases:
        scalar = run(f)
        stacked = run(lambda t, f=f: f(t)[None, :])
        assert stacked.value.shape == (1,)
        assert stacked.value[0] == scalar.value
        assert stacked.abs_err == scalar.abs_err
        assert stacked.evals == scalar.evals


@seed(20261019)
@settings(max_examples=10, deadline=None, database=None)
@given(st.integers(1, 8), st.floats(1e-12, 1e-8))
def test_stacked_rows_meet_reported_error(m, tol):
    # Rows t^k e^{-t}, k < m, share one subdivision; abs_err bounds each.
    k = np.arange(m)[:, None]
    r = integrate_semi_infinite(lambda t: t**k * np.exp(-t), 1.0, tol)
    assert r.value.shape == (m,)
    for j, v in enumerate(r.value):
        exact = math.factorial(j)
        # value is returned in double precision; its last-place rounding
        # is not part of abs_err.
        assert abs(v - exact) <= r.abs_err + 2 * math.ulp(exact)


def test_stacked_run_returns_only_within_tol():
    # Initial panel errors 1e16 times tol leave a running sum of panel
    # errors meaningless near tol; it only proposes an exit, which an
    # exact re-sum confirms, so a run returns only once the error it
    # reports meets tol, stacked or scalar.
    ws = (50.0, 120.0)
    a = np.array(ws)[:, None]
    r = integrate_finite(lambda t: np.exp(-t) * np.cos(a * t), 0.0, 20.0,
                         1e-18)
    assert r.abs_err <= 1e-18
    for j, w in enumerate(ws):
        exact = (1 + math.exp(-20) * (w * math.sin(20 * w)
                                      - math.cos(20 * w))) / (1 + w * w)
        assert abs(r.value[j] - exact) <= r.abs_err + 2 * math.ulp(exact)
        one = integrate_finite(lambda t: np.exp(-t) * np.cos(w * t), 0.0,
                               20.0, 1e-18)
        assert one.abs_err <= 1e-18
        assert abs(one.value - exact) <= one.abs_err + 2 * math.ulp(exact)


def test_stacked_run_stops_at_its_rounding_floor():
    # Rows evaluated in single precision carry noise near 1e-8 that no
    # refinement removes: the run stops once doubling the panel count no
    # longer halves the error, long before its budget, with an estimate
    # its error bound still covers.  One such row alone stops the same way.
    def noisy(t):
        return np.exp(-t.astype(np.float32)).astype(np.float64)

    def f(t):
        y = noisy(t)
        return np.stack([y, 2 * y])

    exact = 1 - math.exp(-1)
    for g, wants in ((f, (exact, 2 * exact)), (noisy, (exact,))):
        with pytest.raises(ConvergenceError, match="rounding floor") as info:
            integrate_finite(g, 0.0, 1.0, 1e-12)
        best = info.value.best
        assert best.evals < 10_000
        for v, want in zip(np.atleast_1d(best.value), wants):
            assert abs(v - want) <= best.abs_err


def test_stacked_error_covers_the_hardest_row():
    # A panel's error is the maximum over rows, so a smooth first row
    # cannot stop the refinement an oscillatory second row needs.
    r = integrate_semi_infinite(
        lambda t: np.exp(-t) * np.stack([np.ones_like(t), np.cos(40 * t)]),
        1.0, 1e-12)
    for v, exact in zip(r.value, (1.0, 1 / 1601)):
        assert abs(v - exact) <= r.abs_err + 2 * math.ulp(exact)


def _recording(f, shapes):
    # f, recording the shape of the nodes of every call.
    def g(t):
        shapes.append(np.shape(t))
        return f(t)
    return g


def test_integrand_calls_cover_at_most_two_panels():
    # Initial panels go two per call and a split's two children share
    # one call, so every call gets 92 nodes and evals is 46 x panels.
    k = np.arange(3)[:, None]
    for run, initial in (
            (lambda f: integrate_finite(f, 0.0, 20.0, 1e-14), 8),
            (lambda f: integrate_finite(f, 0.0, 1.0, 1e-12, 0.25), 8),
            (lambda f: integrate_semi_infinite(f, 1.0, 1e-12), 16)):
        for f in (lambda t: np.exp(-t) * np.cos(40 * t),
                  lambda t: np.exp(-t) * np.cos((40 + k) * t)):
            shapes = []
            r = run(_recording(f, shapes))
            # every panel call gets one flat array of 92 nodes; the
            # semi-infinite run adds one call at its 8 envelope samples
            calls = [n for n in shapes if n != (8,)]
            assert set(calls) == {(92,)}
            panels = initial + 2 * (len(calls) - initial // 2)
            assert r.evals == 46 * panels + 8 * (len(shapes) - len(calls))


def _nested(coef, inner, tol, a, b):
    # The nested form: one integrate_finite of the rows [c W, |c| e_in],
    # W and e_in queried at the outer nodes.  Returns the value and its
    # bound: twice the run's error (row 0's, and row 1's against the true
    # integral of |c| e_in) plus row 1.
    def rows(t):
        w, e_in = inner(t)
        c = np.asarray(coef(t))
        return np.stack([c * w, np.abs(c) * e_in])

    r = integrate_finite(rows, a, b, tol)
    return r.value[0], 2 * r.abs_err + r.value[1].real, r.evals


def test_nested_queries_cover_at_most_two_panels():
    # The outer integrand and its inner queries see at most two panels'
    # nodes per call, and the inner error rides along as the second row
    # of the same calls.  The build makes the refinement's calls only:
    # no final call on the final panels' 31 G31 nodes.
    build, outer, queries = [], [], []
    cum = CumulativeIntegral(_recording(lambda u: np.exp(-u), build),
                             0.0, 40.0, 1e-11)
    assert set(build) == {(92,)}
    assert cum.evals == 92 * len(build)

    def inner(t):
        queries.append(np.size(t))
        return cum.query_lo_many(t)

    value, bound, evals = _nested(
        _recording(lambda t: np.exp(-t), outer), inner, 1e-10, 0.0, 40.0)
    assert abs(value - 0.5) <= max(bound, 1e-10)
    assert set(outer) == {(92,)} and set(queries) == {92}
    assert evals == 92 * len(outer) == 92 * len(queries)


def _same_bits(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    parts = (lambda z: (z.real, z.imag)) if a.dtype.kind == "c" else (
        lambda z: (z,))
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x),
                                                       np.signbit(y))
               for x, y in zip(parts(a), parts(b)))


def test_running_sum_is_exact_on_adversarial_terms():
    # 1e20 + 1 is not representable in long double (ulp 8), so a plain
    # running sum loses the small term; the compensated one keeps it,
    # also when the large term comes after the small one.
    cols = ([1e20, 1 + 1j, -1e20], [1 + 1j, 1e20, -1e20],
            [-1e20, 1e20, 1 + 1j])
    vals = np.array(cols, dtype=np.clongdouble).T
    assert np.cumsum(vals, axis=0)[-1, 1].real == 0
    out = _running_sum(vals)
    assert out.shape == (4, 3)
    assert np.all(out[0] == 0)
    assert np.all(out[-1] == 1 + 1j)
    for i in range(1, 4):
        assert _same_bits(out[i], oracles.neumaier(vals[:i]))
    real = _running_sum(np.array([1.0, 1e20, -1e20], dtype=np.longdouble))
    assert list(real) == [0, 1, 1e20, 1]


def test_run_values_equal_scalar_neumaier_bit_for_bit():
    # Every run's value is the last entry of the vectorized running
    # sum, which must equal the engine's former scalar loop bit for bit,
    # scalar or stacked, real or complex, for every prefix.
    k = np.arange(1, 4)[:, None]
    for f in (lambda t: np.exp(-t) * np.cos(9 * t),
              lambda t: np.exp(1j * t) * np.cos(5 * t),
              lambda t: np.exp(-k * t) * np.cos(k * t),
              lambda t: np.exp((1j - k) * t) / (1 + t)):
        _, _, vals, _, _, _, _ = _adaptive_panels(f, 0.0, 6.0, 1e-15,
                                                  400_000, 8)
        prefix = _running_sum(vals)
        assert _same_bits(prefix[-1], oracles.neumaier(vals))
        for i in range(1, len(vals), 7):
            assert _same_bits(prefix[i], oracles.neumaier(vals[:i]))
        r = integrate_finite(f, 0.0, 6.0, 1e-15)
        want = _result_value(oracles.neumaier(vals))
        assert np.array_equal(r.value, want)


def test_truncation_point_tail_bound():
    T, tail = _truncation_point(lambda t: np.exp(-t), 1.0, 1e-9)
    assert math.exp(-float(T)) <= 1e-9 * 1.01 + tail


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


def test_cumulative_queries_do_not_depend_on_their_batch():
    # gram holds a row's query values per outer node array and reads
    # them for every column, so a point's value and bound must not depend
    # on the batch it comes in: a node array's query equals the
    # concatenation of its halves' queries, and its permutation's, bit
    # for bit.  The array is the driver's 46 nodes on 4 panels, stored
    # edges and both ends included.
    cum = CumulativeIntegral(lambda t: np.exp(1j * t) / (1 + t), 0.0, 30.0,
                             1e-13)
    edges = np.linspace(np.longdouble(0), np.longdouble(30), 5)
    h = (edges[1:] - edges[:-1]) / 2
    nodes = ((edges[1:] + edges[:-1]) / 2)[:, None] + h[:, None] * _X46
    xs = np.concatenate([nodes.ravel(), edges, cum._lefts[1:4]])
    perm = np.random.default_rng(7).permutation(len(xs))
    half = len(xs) // 2
    for query in (cum.query_lo_many, cum.query_hi_many):
        whole = query(xs)
        halves = [np.concatenate(p) for p in
                  zip(query(xs[:half]), query(xs[half:]))]
        permuted = query(xs[perm])
        for got, split, shuffled in zip(whole, halves, permuted):
            assert _same_bits(got, split)
            assert _same_bits(got[perm], shuffled)


def test_cumulative_stored_edges_answer_prefix_and_suffix_bit_for_bit():
    # A query on a stored edge takes the side where its partial panel is
    # empty, so it returns the compensated prefix or suffix sum itself.
    cum = CumulativeIntegral(lambda t: np.exp(1j * t) / (1 + t), 0.0, 30.0,
                             1e-13)
    lo, _ = cum.query_lo_many(cum._lefts)
    hi, _ = cum.query_hi_many(cum._rights)
    assert _same_bits(lo, cum._prefix[:-1])
    assert _same_bits(hi, cum._suffix[1:])


def test_antiderivative_maps_reproduce_legendre_antiderivatives():
    # Fed P_n at the 31 G31 nodes, the frozen maps give the Chebyshev
    # coefficients of int_{-1}^y P_n and int_y^1 P_n.  Summed exactly at
    # random y, they match (P_{n+1} - P_{n-1}) / (2n + 1) to 4 eps.
    eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
    rng = np.random.default_rng(5)
    for yv in rng.uniform(-1, 1, 4).astype(np.longdouble):
        y = Fraction(*yv.as_integer_ratio())
        cheb, leg = [Fraction(1), y], [Fraction(1), y]
        for k in range(1, 31):
            cheb.append(2 * y * cheb[k] - cheb[k - 1])
            leg.append(((2 * k + 1) * y * leg[k] - k * leg[k - 1]) / (k + 1))
        for n in range(31):
            values = _legendre_pn(n, _X31)[0] if n else np.ones_like(_X31)
            lo = (leg[n + 1] - leg[n - 1]) / (2 * n + 1) if n else 1 + y
            hi = -lo if n else 1 - y
            for fmap, want in ((_LO_MAP, lo), (_HI_MAP, hi)):
                got = sum(Fraction(*d.as_integer_ratio()) * t
                          for d, t in zip(fmap @ values, cheb))
                assert abs(got - want) <= 4 * eps


def test_cumulative_evals_count_query_points():
    # evals covers every integrand point, all of them at build, where
    # the refinement is the only caller: evals equals integrate_finite's
    # for the same f, interval and tol.  Queries evaluate no integrand.
    points = [0]

    def f(t):
        points[0] += np.size(t)
        return np.exp(-t)

    cum = CumulativeIntegral(f, 0.0, 40.0, 1e-12)
    built = points[0]
    refined = integrate_finite(lambda t: np.exp(-t), 0.0, 40.0, 1e-12).evals
    assert cum.evals == built == refined
    cum.query_lo_many(np.array([0.0, 0.3, 7.0]))
    cum.query_hi_many(np.array([2.5, cum._lefts[3], 40.0]))
    assert cum.evals == points[0] == built


def test_cumulative_build_equals_a_fresh_evaluation_bit_for_bit():
    # The build reuses the refinement's G31-node values.  For an
    # elementwise integrand they equal a fresh evaluation of the final
    # panels' 31 G31 nodes, and so do the coefficients and the rounding
    # charge built from them.
    for f in (lambda t: np.exp(-t) * np.cos(9 * t),
              lambda t: np.exp(1j * t) / (1 + t)):
        cum = CumulativeIntegral(f, 0.0, 12.0, 1e-13)
        a, b = cum._lefts, cum._rights
        h = (b - a) / 2
        y = f(((a + b) / 2)[:, None] + h[:, None] * _X31)
        _, _, _, errs, ys, _, _ = _adaptive_panels(f, 0.0, 12.0, 1e-13,
                                                   400_000, 8)
        assert _same_bits(ys, y)
        coefs = [h[:, None] * (y @ m.T) for m in (_LO_MAP, _HI_MAP)]
        assert all(_same_bits(c, d) for c, d in zip(cum._coefs, coefs))
        part = (errs + 4 * _EPS_LD
                * (h * (np.abs(y) @ _W31)).astype(float)
                + abs(coefs[0][:, 30:]).sum(axis=1).astype(float))
        assert _same_bits(cum._part_err, part)


def test_nested_triangle_and_coupling():
    tri = CumulativeIntegral(lambda u: u, 0.0, 1.0, 1e-13)
    value, bound, _ = _nested(lambda t: t, tri.query_lo_many, 1e-12, 0.0,
                              1.0)
    assert abs(value - 0.125) <= max(bound, 1e-12)
    # outer e^{-t} against inner cumulative of e^{-u}:
    # int_0^inf e^{-t}(1-e^{-t}) dt = 1/2, truncated at 40.
    cum = CumulativeIntegral(lambda u: np.exp(-u), 0.0, 40.0, 1e-11)
    value, bound, _ = _nested(lambda t: np.exp(-t), cum.query_lo_many,
                              1e-10, 0.0, 40.0)
    assert abs(value - 0.5) <= max(bound, 1e-10)


@seed(20261019)
@settings(max_examples=12, deadline=None, database=None)
@given(st.integers(0, 6), st.integers(0, 6), st.floats(0.5, 3.0))
def test_nested_polynomial_meets_reported_error(m, k, b):
    # int_0^b t^m int_0^t u^k du dt = b^{m+k+2} / ((k+1)(m+k+2)).
    exact = float(Fraction(b) ** (m + k + 2) / ((k + 1) * (m + k + 2)))
    cum = CumulativeIntegral(lambda u: u**k, 0.0, b, 1e-13)
    value, bound, _ = _nested(lambda t: t**m, cum.query_lo_many, 1e-12,
                              0.0, b)
    # value is returned in double precision; its last-place rounding is
    # not part of the bound.
    assert abs(value - exact) <= bound + 2 * math.ulp(exact)
    xs = np.linspace(0.0, b, 7)
    lo, e_lo = cum.query_lo_many(xs)
    hi, e_hi = cum.query_hi_many(xs)
    (total,), (total_err,) = cum.query_lo_many([b])
    total = complex(total)
    for vl, el, vh, eh in zip(lo, e_lo, hi, e_hi):
        miss = abs(complex(vl + vh) - total)
        assert miss <= el + eh + total_err + 2 * math.ulp(abs(total))


def test_budget_exhaustion_attaches_best():
    with pytest.raises(ConvergenceError) as info:
        integrate_finite(lambda t: np.cos(1e4 * t), 0.0, 1.0, 1e-30,
                         max_evals=2000)
    best = info.value.best
    assert best is not None and best.evals <= 2000


def test_semi_infinite_refusal_counts_its_samples_and_tail():
    # Gamma(14) eta(14)'s integrand stalls at its rounding floor at tol
    # 1e-10.  As an answer does, the refusal's best counts the envelope
    # samples among the integrand's points, its bound adds the truncation
    # tail to the finite part's, and its message states that count and
    # that bound.
    def f(t):
        return t**13 / (1 + np.exp(t))

    points = []

    def counting(t):
        points.append(np.size(t))
        return f(t)

    with pytest.raises(ConvergenceError) as info:
        integrate_semi_infinite(counting, 14.0, 1e-10)
    best = info.value.best
    assert best.evals == sum(points) > 8
    assert f" {best.evals} evaluations (err {best.abs_err:.3e} " in str(
        info.value)
    T, tail = _truncation_point(f, 14.0, 1e-10)
    with pytest.raises(ConvergenceError) as finite:
        integrate_finite(f, 0.0, T, 1e-10, 14.0, max_evals=600_000,
                         initial=16)
    assert best.value == finite.value.best.value
    assert best.abs_err == finite.value.best.abs_err + tail > 0


def test_nan_error_estimate_raises_instead_of_returning():
    # err > tol is False for NaN, so the exit test is `not err <= tol`.
    with pytest.raises(ConvergenceError) as info:
        integrate_finite(lambda t: np.where(t > 0.5, np.nan, t), 0.0, 1.0,
                         1e-10, max_evals=2000)
    assert info.value.best.evals <= 2000


def test_nan_error_estimate_stops_before_refining():
    # The run stops once its running error is NaN, after the initial
    # panels, instead of spending its whole budget first.
    with pytest.raises(ConvergenceError, match="NaN error estimate") as info:
        integrate_finite(lambda t: np.where(t > 0.5, np.nan, t), 0.0, 1.0,
                         1e-10)
    assert info.value.best.evals <= 46 * 8


def test_every_driver_refuses_a_bad_interval():
    # Reversed, empty, infinite and NaN bounds are refused by the one
    # guard in the panel driver, not integrated over a mirrored interval.
    bad = ((1.0, 0.0), (0.5, 0.5), (0.0, math.inf), (math.nan, 1.0))
    for a, b in bad:
        for sigma in (1.0, 0.5):
            with pytest.raises(DomainError, match="bad interval"):
                integrate_finite(lambda t: t, a, b, 1e-10, sigma)
        with pytest.raises(DomainError, match="bad interval"):
            CumulativeIntegral(lambda t: t, a, b, 1e-10)


def test_extended_precision_available():
    # The engine accumulates in longdouble; on x86 that is the 80-bit
    # format with eps ~ 1.08e-19.
    assert float(np.finfo(np.longdouble).eps) < 1.2e-18


def test_import_refuses_float64_long_double():
    # A fresh interpreter whose np.finfo reports a float64-sized eps
    # for longdouble must fail to import the engine.
    code = (
        "import numpy as np\n"
        "real = np.finfo\n"
        "class Narrow:\n"
        "    eps = np.float64(2.220446049250313e-16)\n"
        "np.finfo = lambda t: Narrow if t is np.longdouble else real(t)\n"
        "try:\n"
        "    import zetalab.quad\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "else:\n"
        "    print('imported')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("CapabilityError"), out
    assert "80-bit" in out


def test_spec_validation():
    # An endpoint exponent that is not positive, NaN included, is
    # refused by both entries, the semi-infinite one before it samples
    # the integrand's envelope.
    def never(t):
        raise AssertionError("integrand sampled before the check")

    for sigma in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="endpoint_exponent"):
            integrate_finite(np.exp, 0.0, 1.0, 1e-10, sigma)
        with pytest.raises(DomainError, match="endpoint_exponent"):
            integrate_semi_infinite(never, sigma, 1e-10)
