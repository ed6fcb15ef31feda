"""End-to-end acceptance criteria.

Each test evaluates one numbered criterion, prints a single PASS/FAIL
line (reprinted in the terminal summary by conftest), and then asserts.
Two clauses are expected to fail, and the failures are genuine measured
behavior, not bugs in this suite:

* criterion 04b: the coefficient series at x = 3 does not reach 1e-8
  accuracy by M = 80.  The radius of convergence is pi, so the error
  decays like (3/pi)^M ~ e^{-0.0465 M}; the measured best error over
  M <= 80 is 2.38e-2 (attained at M = 80), and e^{-0.0465 M} < 1e-8
  first happens near M = 420.

* criterion 08b: the first-16 eigen-residual of the truncated
  upper-triangular operator does not decrease from K = 64 to K = 128.
  The last column of the truncation carries entries ~ c_{K-n} K!/n!,
  which grow factorially in K; the measured first-16 max at the first
  zero is 1.94e36 at K = 64 and 3.80e111 at K = 128 (ratio 1.96e75).
  The control state at s = 0.5 + 10i grows by the same mechanism
  (4.24e36 -> 5.62e111), so clause (c) "control shows no decrease"
  does hold.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import oracles
from conftest import ACCEPTANCE_LINES
from zetalab.cli import main
from zetalab.operators import (build_composites, build_ladder,
                               eigen_residual, fermi_of_T,
                               fermi_series_partial, tridiag_eigh)
from zetalab.quad import integrate_semi_infinite
from zetalab.special import (bessel_j0, eta, gamma, zeta, zeta_prime,
                             _series_coeff_exact, series_coeff)
from zetalab.spectrum import (StripRectangle, count_zeros, eigenvalue_of,
                              find_zeros)
from zetalab.states import (StateParams, amplitude_G_rewritten,
                            amplitude_G_tail, gram_diagonal_by_parts,
                            gram_diagonal_closed_form, gram_matrix,
                            norm_integral, norm_series_oracle,
                            paper_norm_closed_form, psi)

RHO1 = oracles.RHO1
RHO2 = oracles.RHO2


def conclude(tag, ok, detail, wall):
    line = "[criterion %s] %s - %s (%.1fs)" % (
        tag, "PASS" if ok else "FAIL", detail, wall)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_zero_spectrum(capsys):
    t0 = time.perf_counter()
    code = main(["zeros", "--tau-max", "30"])
    out = capsys.readouterr().out.splitlines()
    taus = [float(row.split(",")[1]) for row in out[1:]]
    # Independent scan oracle: sign changes of the real completed form
    # along the line, counted on a coarse grid at 25 digits.
    from mpmath import mp
    grid = [0.1 + 0.2 * k for k in range(150)]
    with mp.workdps(25):
        vals = [mp.siegelz(t) for t in grid]
    scan_count = sum(1 for a, b in zip(vals, vals[1:])
                     if (a < 0) != (b < 0))
    wall = time.perf_counter() - t0
    worst = max(abs(t - ref) for t, ref in zip(taus, oracles.ZERO_TAUS))
    ok = (code == 0 and len(taus) == 3 and scan_count == 3
          and worst < 1e-8 and wall < 10.0)
    conclude("01", ok,
             "3 ordinates to 1e-8 vs scan oracle (max dev %.1e)" % worst,
             wall)


def test_criterion_02_eigenvalues_real():
    t0 = time.perf_counter()
    n30 = count_zeros(StripRectangle(0.05, 0.95, 0.0, 30.0))
    zeros30 = find_zeros(30.0)
    zeros50 = find_zeros(50.0)
    n50 = count_zeros(StripRectangle(0.05, 0.95, 0.0, 50.0))
    worst_im = max(abs(eigenvalue_of(z.rho).imag)
                   for z in zeros50)
    wall = time.perf_counter() - t0
    ok = (n30 == len(zeros30) == 3 and n50 == len(zeros50) == 10
          and worst_im < 1e-9 and wall < 60.0)
    conclude("02", ok,
             "count[0,30]=%d count[0,50]=%d max|Im lambda|=%.1e"
             % (n30, n50, worst_im), wall)


def test_criterion_03_boundary_condition():
    t0 = time.perf_counter()
    worst_zero = 0.0
    for tau in oracles.ZERO_TAUS[:5]:
        v = psi(StateParams(complex(0.5, tau)), 0.0).value
        worst_zero = max(worst_zero, abs(v))
    worst_grid = 0.0
    for sig in (0.3, 0.5, 0.8, 1.5, 2.5):
        for tau in (0.0, 1.0, 5.0, 11.0, 20.0):
            s = complex(sig, tau)
            got = psi(StateParams(s), 0.0).value
            worst_grid = max(worst_grid, abs(got - gamma(s) * eta(s)))
    wall = time.perf_counter() - t0
    ok = worst_zero < 1e-7 and worst_grid < 1e-9
    conclude("03", ok,
             "|psi(rho_k,0)|<=%.1e, grid dev %.1e" % (worst_zero, worst_grid),
             wall)


def test_criterion_04a_series_coefficients_exact():
    t0 = time.perf_counter()
    oracle = oracles.taylor_coefficients(20)
    worst = 0.0
    exact_ok = True
    for m in range(21):
        exact_ok = exact_ok and _series_coeff_exact(m) == oracle[m]
        worst = max(worst, abs(series_coeff(m) - float(oracle[m])))
    wall = time.perf_counter() - t0
    ok = exact_ok and worst < 1e-12
    conclude("04a", ok,
             "c_m matches Taylor division m<=20 (float dev %.1e)" % worst,
             wall)


def test_criterion_04b_convergence_at_x3():
    # Expected to FAIL: see the module docstring for the measured
    # convergence rate.  The assertion states the criterion as written.
    t0 = time.perf_counter()
    x = Fraction(3)
    target = 6.0 / (1 - math.exp(-6.0)) - 3.0 / (1 - math.exp(-3.0))
    acc = Fraction(0)
    best = math.inf
    for m in range(81):
        acc += _series_coeff_exact(m) * x**m
        best = min(best, abs(float(acc) - target))
    wall = time.perf_counter() - t0
    ok = best < 1e-8
    conclude("04b", ok,
             "best partial-sum error at x=3 over M<=80 is %.2e" % best,
             wall)


def test_criterion_04c_divergence_at_x4():
    t0 = time.perf_counter()
    mags = [abs(float(_series_coeff_exact(m) * Fraction(4) ** m))
            for m in (20, 40, 60, 80)]
    wall = time.perf_counter() - t0
    ok = mags[0] < mags[1] < mags[2] < mags[3] and mags[3] > 1e8
    conclude("04c", ok,
             "term magnitudes at x=4 grow %.1e -> %.1e" % (mags[0], mags[3]),
             wall)


def test_criterion_05_norm_identity(capsys):
    t0 = time.perf_counter()
    worst_rel = 0.0
    for c in (2.0, 2.5, 4.0):
        got = norm_integral(c).value
        want = norm_series_oracle(c - 1.0)
        worst_rel = max(worst_rel, abs(got - want) / abs(want))
    # Printed closed-form value reproduced to evaluation precision
    # (the literal itself carries 15 digits).
    verbatim = abs(paper_norm_closed_form(2.0) - 0.158151287891165) < 1e-13
    # The exponent-shift report must be emitted and must not gate.
    code = main(["norm-check"])
    lines = capsys.readouterr().out.splitlines()
    names = [json.loads(ln)["name"] for ln in lines[:-1]]
    disc = next(json.loads(ln) for ln in lines[:-1]
                if json.loads(ln)["name"] == "norm-exponent-discrepancy")
    emitted = (code == 0 and "norm-exponent-shift" in names
               and disc["tol"] == 1e300)
    wall = time.perf_counter() - t0
    ok = worst_rel < 1e-9 and verbatim and emitted
    conclude("05", ok,
             "route agreement rel %.1e, closed form verbatim, "
             "shift report emitted" % worst_rel, wall)


def test_criterion_06_bi_orthogonality():
    t0 = time.perf_counter()
    m = gram_matrix([RHO1, RHO2])
    g11, g22 = m[0][0].value, m[1][1].value
    off = max(abs(m[0][1].value), abs(m[1][0].value))
    dmin = min(abs(g11), abs(g22))
    # Single global sign: the closed form carries sigma = -1 for both
    # diagonals; the opposite sign must fail both.
    c11 = gram_diagonal_closed_form(RHO1)
    c22 = gram_diagonal_closed_form(RHO2)
    rel1 = abs(g11 - c11) / abs(c11)
    rel2 = abs(g22 - c22) / abs(c22)
    flipped = max(abs(g11 + c11) / abs(c11), abs(g22 + c22) / abs(c22))
    bp_rel = abs(gram_diagonal_by_parts(RHO1) - g11) / abs(g11)
    wall = time.perf_counter() - t0
    ok = (off <= 1e-4 * dmin and rel1 < 1e-4 and rel2 < 1e-4
          and flipped > 1.0 and bp_rel < 1e-6 and wall < 120.0)
    conclude("06", ok,
             "off/diag %.1e, diag rel %.1e/%.1e, by-parts rel %.1e"
             % (off / dmin, rel1, rel2, bp_rel), wall)


def test_criterion_07_adjoint_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        tail = amplitude_G_tail(StateParams(RHO1), t, tol=1e-12)
        rew = amplitude_G_rewritten(RHO1, t)
        worst = max(worst,
                    abs(rew.value - tail.value) / (1 + abs(tail.value)))
    refl = abs(zeta(1 - RHO1.conjugate()))
    wall = time.perf_counter() - t0
    ok = worst < 1e-6 and refl < 1e-7
    conclude("07", ok,
             "form agreement %.1e, reflection |zeta| %.1e" % (worst, refl),
             wall)


def test_criterion_08a_operator_layer():
    t0 = time.perf_counter()
    N, Np, Nm = build_ladder(8)
    cm = N.entries @ Nm.entries - Nm.entries @ N.entries
    cp = N.entries @ Np.entries - Np.entries @ N.entries
    pm = Np.entries @ Nm.entries - Nm.entries @ Np.entries
    want = -2 * N.entries
    ladder_ok = (np.array_equal(cm, -Nm.entries)
                 and np.array_equal(cp, Np.entries)
                 and all(pm[i, j] == want[i, j]
                         for i in range(7) for j in range(7)))
    _, _, t2 = build_composites(2)
    vals, _ = tridiag_eigh(t2)
    k2_ok = (abs(vals[0] - (0.5 - math.sqrt(2) / 4)) < 1e-12
             and abs(vals[1] - (0.5 + math.sqrt(2) / 4)) < 1e-12)
    in_disc = np.max(np.abs(fermi_of_T(t2).entries
                            - fermi_series_partial(t2, 80)))
    _, _, t64 = build_composites(64)
    bounded = float(np.max(np.abs(fermi_of_T(t64).entries)))
    wall = time.perf_counter() - t0
    ok = ladder_ok and k2_ok and in_disc < 1e-8 and bounded < 1e3
    conclude("08a", ok,
             "ladder exact, K=2 spectrum, disc dev %.1e, bound %.1f"
             % (in_disc, bounded), wall)


def test_criterion_08b_residual_decrease():
    # Expected to FAIL: the truncation residual grows factorially in K
    # (see module docstring for the measured values).
    t0 = time.perf_counter()
    g64 = max(eigen_residual(StateParams(RHO1), 64,
                             "H_tilde").per_component[:16])
    g128 = max(eigen_residual(StateParams(RHO1), 128,
                              "H_tilde").per_component[:16])
    wall = time.perf_counter() - t0
    ok = g128 < g64
    conclude("08b", ok,
             "first-16 max %.2e (K=64) -> %.2e (K=128)" % (g64, g128),
             wall)


def test_criterion_08c_control_no_decrease():
    t0 = time.perf_counter()
    c64 = max(eigen_residual(StateParams(0.5 + 10j), 64,
                             "H_tilde").per_component[:16])
    c128 = max(eigen_residual(StateParams(0.5 + 10j), 128,
                              "H_tilde").per_component[:16])
    wall = time.perf_counter() - t0
    ok = c128 >= c64
    conclude("08c", ok,
             "control %.2e (K=64) -> %.2e (K=128), no decrease"
             % (c64, c128), wall)


def test_criterion_09_hankel_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.linspace(0.0, 10.0, 51):
        x64 = float(x)

        def f(t):
            t = np.asarray(t, dtype=np.float64)
            return np.exp(-t) * bessel_j0(2.0 * np.sqrt(x64 * t))

        got = integrate_semi_infinite(f, 1.0, 1e-11).value
        worst = max(worst, abs(got - math.exp(-x64)))
    wall = time.perf_counter() - t0
    ok = worst < 1e-9
    conclude("09", ok, "51-point identity dev %.1e" % worst, wall)


def test_criterion_10_special_values():
    t0 = time.perf_counter()
    d_zeta = abs(zeta(2.0) - math.pi**2 / 6)
    d_gamma = abs(gamma(0.5) ** 2 - math.pi)
    d_eta = abs(eta(1.0) - math.log(2.0))
    # First positive root of the kernel by bisection on the package
    # evaluator, against the printed 2.404825558.
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j0(lo) * bessel_j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    d_root = abs(0.5 * (lo + hi) - 2.404825558)
    # Series oracle for zeta'(2): -sum ln n / n^2 with a midpoint tail.
    n = np.arange(2, 2_000_001, dtype=np.float64)
    series = -np.sum(np.log(n) / n**2)
    a = 2_000_000 + 0.5
    series -= (np.log(a) + 1.0) / a
    d_zp = abs(zeta_prime(2.0) - series)
    wall = time.perf_counter() - t0
    ok = (d_zeta < 1e-12 and d_gamma < 1e-12 and d_eta < 1e-12
          and d_root < 1e-9 and d_zp < 1e-8)
    conclude("10", ok,
             "zeta/gamma/eta %.1e/%.1e/%.1e, root %.1e, zeta' %.1e"
             % (d_zeta, d_gamma, d_eta, d_root, d_zp), wall)
