import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import oracles
from zetalab.errors import (CapabilityError, ConvergenceError, DomainError,
                            ZetalabError)
from zetalab.operators import (TruncatedOperator, build_H, build_H_tilde,
                               build_composites, build_ladder,
                               eigen_residual, fermi_of_T,
                               fermi_series_partial, laguerre_coefficients,
                               tridiag_eigh)
from zetalab.quad import integrate_semi_infinite
from zetalab.special import bessel_j0, laguerre
from zetalab.states import StateParams

RHO1 = oracles.RHO1


def test_ladder_entries_exact():
    N, Np, Nm = build_ladder(6)
    for n in range(6):
        assert N.entries[n, n] == Fraction(2 * n + 1, 2)
    for n in range(5):
        assert Nm.entries[n, n + 1] == n + 1
        assert Np.entries[n + 1, n] == n + 1


@seed(20261019)
@settings(max_examples=8, deadline=None, database=None)
@given(st.integers(2, 40))
@example(6)
def test_ladder_commutators_exact(K):
    N, Np, Nm = build_ladder(K)
    cm = N.entries @ Nm.entries - Nm.entries @ N.entries
    assert np.array_equal(cm, -Nm.entries)
    cp = N.entries @ Np.entries - Np.entries @ N.entries
    assert np.array_equal(cp, Np.entries)
    # [N_plus, N_minus] = -2N holds on the leading (K-1) block; the
    # last row and column feel the truncation.
    pm = Np.entries @ Nm.entries - Nm.entries @ Np.entries
    want = -2 * N.entries
    assert all(pm[i, j] == want[i, j]
               for i in range(K - 1) for j in range(K - 1))
    assert pm[K - 1, K - 1] != want[K - 1, K - 1]


def test_composites_assembled_from_ladder():
    N, Np, Nm = build_ladder(6)
    x_op, d_op, t_op = build_composites(6)
    assert np.array_equal(x_op.entries,
                          2 * N.entries - Np.entries - Nm.entries)
    assert np.array_equal(t_op.entries, N.entries - x_op.entries / 4)
    dm = 0.5j * (np.asarray(Nm.entries, dtype=complex)
                 - np.asarray(Np.entries, dtype=complex))
    assert np.array_equal(d_op.entries, dm)
    assert np.array_equal(d_op.entries, d_op.entries.conj().T)


def test_composite_tridiagonal_values():
    _, _, t_op = build_composites(5)
    assert t_op.entries.dtype == np.float64
    for n in range(5):
        assert t_op.entries[n, n] == Fraction(2 * n + 1, 4)
    for n in range(4):
        assert t_op.entries[n, n + 1] == Fraction(n + 1, 4)
        assert t_op.entries[n + 1, n] == Fraction(n + 1, 4)


# Expected nonzero pattern of each builder's output, as a predicate on
# (row, col).
_PATTERNS = {
    "N": lambda i, j: j == i,
    "Nplus": lambda i, j: j == i - 1,
    "Nminus": lambda i, j: j == i + 1,
    "x": lambda i, j: abs(i - j) <= 1,
    "D": lambda i, j: abs(i - j) == 1,
    "T": lambda i, j: abs(i - j) <= 1,
    "Htilde": lambda i, j: j >= i,
}


@pytest.mark.parametrize("K", [2, 7, 64])
def test_builder_nonzero_patterns(K):
    ops = dict(zip(("N", "Nplus", "Nminus"), build_ladder(K)))
    ops.update(zip(("x", "D", "T"), build_composites(K)))
    ops["Htilde"] = build_H_tilde(K)
    for name, in_band in _PATTERNS.items():
        op = ops[name]
        assert op.dim == K and op.entries.shape == (K, K)
        i, j = np.indices((K, K))
        want = np.vectorize(in_band)(i, j)
        # Outside the band every entry is zero; inside it, none is, except
        # H~'s odd orders m >= 3, which vanish with B_m.
        assert not np.any(op.entries[~want]), name
        if name != "Htilde":
            assert np.all(op.entries[want] != 0), name
    assert np.all(np.diag(ops["Htilde"].entries) != 0)


def test_spectrum_small_truncations():
    one = TruncatedOperator(1, np.array([[0.25]]))
    assert tridiag_eigh(one)[0][0] == 0.25
    _, _, t2 = build_composites(2)
    vals, _ = tridiag_eigh(t2)
    assert abs(vals[0] - (0.5 - math.sqrt(2) / 4)) < 1e-12
    assert abs(vals[1] - (0.5 + math.sqrt(2) / 4)) < 1e-12


def test_spectrum_k64_decomposition_quality():
    _, _, t64 = build_composites(64)
    vals, vecs = tridiag_eigh(t64)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(64))) < 1e-13
    rec = (vecs * vals) @ vecs.T
    assert np.max(np.abs(rec - t64.entries)) < 1e-12
    assert np.all(np.diff(vals) > 0)


def test_spectrum_positive_at_k256():
    _, _, t256 = build_composites(256)
    lam_min = float(np.min(tridiag_eigh(t256)[0]))
    assert 0 < lam_min < 0.01


@pytest.mark.parametrize("K", [2, 16, 64, 256, 512])
def test_eigh_matches_scipy_tridiagonal_solver(K):
    _, _, t_op = build_composites(K)
    m = t_op.entries
    vals, vecs = tridiag_eigh(t_op)
    norm = float(np.max(np.abs(m)))
    want = eigh_tridiagonal(np.diag(m), np.diag(m, 1), eigvals_only=True)
    assert np.max(np.abs(vals - want)) <= 1e-13 * norm
    resid = np.max(np.abs(m @ vecs - vecs * vals))
    assert resid <= 1e-11 * norm


def test_eigh_guards():
    bad = TruncatedOperator(2, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        tridiag_eigh(bad)
    asym = TruncatedOperator(2, np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ZetalabError):
        tridiag_eigh(asym)


def test_fermi_matches_series_inside_disc():
    # Spectral radius of T at K = 2 is below pi, so the coefficient
    # series converges to the spectral value.
    _, _, t2 = build_composites(2)
    f2 = fermi_of_T(t2)
    s2 = fermi_series_partial(t2, 80)
    assert np.max(np.abs(f2.entries - s2)) < 1e-10
    assert np.max(np.abs(f2.entries - f2.entries.T)) < 1e-14


def test_fermi_series_diverges_outside_disc():
    _, _, t64 = build_composites(64)
    f64 = fermi_of_T(t64)
    assert np.max(np.abs(f64.entries)) < 1e3
    assert np.max(np.abs(f64.entries - f64.entries.T)) < 1e-12
    m40 = np.max(np.abs(fermi_series_partial(t64, 40)))
    m80 = np.max(np.abs(fermi_series_partial(t64, 80)))
    assert m80 > 1e10 * m40


def test_fermi_series_bounds():
    _, _, t2 = build_composites(2)
    with pytest.raises(DomainError):
        fermi_series_partial(t2, 0)
    with pytest.raises(DomainError):
        fermi_series_partial(t2, 257)


def test_uppertri_operator_bands():
    ht = build_H_tilde(12)
    assert np.all(np.tril(ht.entries, -1) == 0)
    assert np.array_equal(np.diag(ht.entries),
                          1j * (np.arange(12) + 0.5))
    assert np.array_equal(np.diag(ht.entries, 1),
                          -1.5j * np.arange(1, 12))
    band2 = np.diag(ht.entries, 2)
    want2 = np.array([-0.5j * math.comb(n + 2, 2) for n in range(10)])
    assert np.array_equal(band2, want2)
    assert np.all(np.diag(ht.entries, 3) == 0)


def test_uppertri_entries_from_bernoulli():
    # Off-diagonal (n, n+m) entries are -i B_m (2^m - 1) C(n+m, m) plus
    # the shift term -i(n+1) on the first band.
    K = 10
    ht = build_H_tilde(K)
    for n in range(K):
        for j in range(K):
            m = j - n
            if m < 0:
                want = 0j
            elif m == 0:
                want = 1j * (n + 0.5)
            else:
                cm = oracles.BERNOULLI.get(m, Fraction(0)) * (2**m - 1)
                want = -1j * float(cm * math.comb(n + m, m))
                if m == 1:
                    want += -1j * (n + 1)
            assert ht.entries[n, j] == want


def test_uppertri_capability_guard():
    with pytest.raises(CapabilityError):
        build_H_tilde(193)
    # Every entry at the largest supported K, real parts included (so a
    # -0 would show), bit for bit against an oracle built from mpmath's
    # Bernoulli numbers and Fraction arithmetic.
    ht = build_H_tilde(192)
    assert ht.entries.tobytes() == oracles.h_tilde_oracle(192).tobytes()


@pytest.mark.parametrize("K", [2, 3, 36, 65, 124, 191])
def test_uppertri_truncations_match_oracle(K):
    # Each truncation is a block of one table built at the cap; every
    # size must still equal its own exact construction bit for bit.
    assert build_H_tilde(K).entries.tobytes() == \
        oracles.h_tilde_oracle(K).tobytes()


def test_uppertri_entries_are_fresh_and_read_only():
    a, b = build_H_tilde(65), build_H_tilde(65)
    assert not np.shares_memory(a.entries, b.entries)
    with pytest.raises(ValueError):
        a.entries[0, 2] = 0
    # A caller that forces its copy writable cannot reach the table that
    # later calls are cut from.
    b.entries.setflags(write=True)
    b.entries[:] = 0
    assert build_H_tilde(192).entries.tobytes() == \
        oracles.h_tilde_oracle(192).tobytes()


def test_dense_operator_assembly():
    _, d_op, t_op = build_composites(12)
    h = build_H(12)
    want = -np.asarray(d_op.entries) - 1j * fermi_of_T(t_op).entries
    assert np.array_equal(h.entries, want)
    assert np.all(np.isfinite(h.entries))


def test_coefficient_closed_forms_at_s1():
    a = laguerre_coefficients(StateParams(1.0), 2, which="psi_tilde")
    assert abs(a[0] - (1 - math.log(2.0))) < 1e-12
    b = laguerre_coefficients(StateParams(1.0), 2, which="psi")
    assert abs(b[0] - (2 * math.log(2.0) - 1.0)) < 1e-10


def test_coefficients_match_high_precision_oracle():
    a = laguerre_coefficients(StateParams(RHO1), 8, which="psi_tilde")
    for n in (0, 5):
        want = oracles.laguerre_coefficient_oracle(RHO1, n)
        assert abs(a[n] - want) < 1e-18


def test_psi_coefficients_match_closed_form_oracle():
    # Every degree comes out of one stacked quadrature asked for
    # tol * 2^-20; RHO1 at K = 64 stops at its rounding floor above that,
    # and its estimate is kept.
    for s, K in ((RHO1, 16), (complex(0.5, oracles.ZERO_TAUS[5]), 16),
                 (2.0, 8), (RHO1, 64)):
        b = laguerre_coefficients(StateParams(s), K, which="psi")
        degrees = range(K) if K <= 16 else (0, K // 2, K - 1)
        for n in degrees:
            assert abs(b[n] - oracles.psi_coefficient_oracle(s, n)) <= 1e-16


def test_psi_coefficients_at_small_re_s_keep_their_rounding_floor():
    # At small Re s the rows' rounding noise sits far above tol * 2^-20
    # and, at K = 128, above tol * 2^-14: the run stops at that floor
    # instead of spending its budget, and the estimate is kept.
    s = 0.1 + 3j
    b = laguerre_coefficients(StateParams(s), 128, which="psi")
    for n in (0, 64):
        assert abs(b[n] - oracles.psi_coefficient_oracle(s, n)) <= 1e-16


def test_psi_coefficients_below_rounding_floor_raise_with_scaled_best(
        monkeypatch):
    # A tol under the rows' rounding floor cannot be met; the error
    # carries the estimate in coefficient units, f_const included.
    import zetalab.operators as operators

    p = StateParams(RHO1, f_const=2.0)
    monkeypatch.setattr(operators, "_COEFF_TOL", 1e-24)
    with pytest.raises(ConvergenceError, match="rounding floor") as info:
        laguerre_coefficients(p, 8, which="psi")
    monkeypatch.undo()
    best = info.value.best
    want = laguerre_coefficients(p, 8, which="psi")
    assert np.max(np.abs(best.value - want)) <= best.abs_err + 1e-15


@pytest.mark.filterwarnings("error")
def test_psi_coefficients_with_nan_estimate_raise():
    # At Re s = 1e-3 the stacked quadrature's error estimate is NaN;
    # `err > tol` is False for NaN, so the exit test is `not err <= tol`
    # and the H residual raises instead of returning NaN coefficients.
    with pytest.raises(ConvergenceError, match="NaN"):
        eigen_residual(StateParams(1e-3), 4, "H")


def test_coefficient_kernel_vs_quadrature():
    a = laguerre_coefficients(StateParams(RHO1), 16, which="psi_tilde")
    for n in (0, 10):
        def f(t, n=n):
            t = np.asarray(t, dtype=np.longdouble)
            return (np.exp(np.clongdouble(RHO1 - 1) * np.log(t) - t)
                    / (1.0 + np.exp(t)) * t**n / math.factorial(n))
        q = integrate_semi_infinite(f, 0.5 + n, 1e-15)
        assert abs(a[n] - q.value) < 1e-15


def test_kernel_closed_forms_match_direct_quadrature():
    # The closed-form t-kernels of both weights against direct
    # x-quadrature of e^{-x w} L_n(x) J0(2 sqrt(x t)).

    def direct(n, t, half_weight):
        def f(x):
            x = np.asarray(x, dtype=np.longdouble)
            if half_weight:
                # substitute x = 2y for a unit decay rate
                y = 2.0 * x
                return 2.0 * np.exp(-x) * laguerre(n, y) * bessel_j0(
                    2.0 * np.sqrt(t * np.asarray(y, dtype=np.float64)))
            return np.exp(-x) * laguerre(n, x) * bessel_j0(
                2.0 * np.sqrt(t * np.asarray(x, dtype=np.float64)))

        return integrate_semi_infinite(f, 1.0, 1e-11).value

    for n, t in ((0, 0.7), (1, 1.3), (3, 2.0)):
        want = math.exp(-t) * t**n / math.factorial(n)
        assert abs(direct(n, t, half_weight=False) - want) <= 1e-9
        want = 2.0 * (-1.0) ** n * math.exp(-2 * t) * float(
            laguerre(n, np.float64(4 * t)))
        assert abs(direct(n, t, half_weight=True) - want) <= 1e-9


def test_coefficient_tail_decay():
    a = laguerre_coefficients(StateParams(RHO1), 64, which="psi_tilde")
    mags = np.abs(a)
    assert mags[63] < 1e-18
    assert np.all(np.diff(mags[16:]) < 0)


def test_coefficient_guards():
    p = StateParams(1.0)
    with pytest.raises(DomainError):
        laguerre_coefficients(p, 0)
    with pytest.raises(DomainError):
        laguerre_coefficients(p, 4, which="phi")


def test_direct_route_cross_validates_kernels():
    # Each x-sample of the direct route is its own quadrature, so keep
    # the truncations tiny; agreement at real s is near machine level.
    p = StateParams(1.0)
    d_psi = oracles.coefficients_direct(p, 2, "psi", 1e-7)
    k_psi = laguerre_coefficients(p, 2, which="psi")
    assert np.max(np.abs(d_psi - k_psi)) < 1e-10
    d_til = oracles.coefficients_direct(p, 1, "psi_tilde", 1e-7)
    k_til = laguerre_coefficients(p, 1, which="psi_tilde")
    assert abs(d_til[0] - k_til[0]) < 1e-10


def test_residual_calibrates_and_separates_control():
    r16 = eigen_residual(StateParams(RHO1), 16, "H_tilde")
    ctrl = eigen_residual(StateParams(0.5 + 10j), 16, "H_tilde")
    z = max(r16.per_component[:16])
    c = max(ctrl.per_component[:16])
    assert z < 0.01
    assert c > 5 * z


def test_residual_grows_with_truncation_order():
    # The operator entries at the cut grow like c_{K-n} K!/n!, so the
    # first-16 residual explodes rather than decreasing as K doubles;
    # the trusted prefix honestly collapses to zero.
    r64 = eigen_residual(StateParams(RHO1), 64, "H_tilde")
    r128 = eigen_residual(StateParams(RHO1), 128, "H_tilde")
    g64 = max(r64.per_component[:16])
    g128 = max(r128.per_component[:16])
    assert g128 > 1e10 * g64
    assert r64.trusted_prefix == 0
    assert r128.trusted_prefix == 0


def test_residual_trusted_prefix_at_small_truncation():
    r16 = eigen_residual(StateParams(RHO1), 16, "H_tilde")
    assert r16.trusted_prefix == 0
    assert len(r16.per_component) == 16
    assert all(math.isfinite(v) for v in r16.per_component)


def test_residual_scales_linearly_with_state():
    base = eigen_residual(StateParams(RHO1), 16, "H_tilde")
    doubled = eigen_residual(StateParams(RHO1, f_const=2.0), 16, "H_tilde")
    assert np.allclose(np.asarray(doubled.per_component),
                       2 * np.asarray(base.per_component),
                       rtol=1e-12, atol=0.0)


def test_residual_dense_route_runs():
    r = eigen_residual(StateParams(RHO1), 12, "H")
    assert len(r.per_component) == 12
    assert all(math.isfinite(v) for v in r.per_component)
    assert r.trusted_prefix >= 0
    with pytest.raises(DomainError):
        eigen_residual(StateParams(RHO1), 8, "J")


def test_bessel_kernel_satisfies_operator_ode():
    # -x u'' - u' = t u for u(x) = J0(2 sqrt(x t)).
    worst = 0.0
    h = 1e-4
    for t in (0.5, 2.0):
        for x in np.linspace(0.1, 20.0, 40):
            um = bessel_j0(2 * math.sqrt((x - h) * t))
            u0 = bessel_j0(2 * math.sqrt(x * t))
            up = bessel_j0(2 * math.sqrt((x + h) * t))
            upp = (up - 2 * u0 + um) / h**2
            upr = (up - um) / (2 * h)
            worst = max(worst, abs(-x * upp - upr - t * u0))
    assert worst < 1e-6


def test_truncation_size_guards():
    with pytest.raises(DomainError):
        build_ladder(1)
    with pytest.raises(CapabilityError):
        build_ladder(513)
    with pytest.raises(DomainError):
        build_H_tilde(1)


def test_truncated_operator_guards():
    with pytest.raises(DomainError):
        TruncatedOperator(0, np.zeros((0, 0)))
    with pytest.raises(DomainError):
        TruncatedOperator(2, np.eye(3))
    op = TruncatedOperator(2, np.eye(2))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0
