"""Independent mpmath references and the check of each op's output.

Nothing here imports zetalab.  Every reference is computed at 30 to 60
significant digits from formulas that share no code with the package:

* zeros-scan: mpmath.zetazero ordinates, and mpmath.nzeros strip counts.
* eigen-table: the Laguerre series psi_tilde(x) = sum_n a_n e^{-x/2} L_n(x),
  a_n = Gamma(n+s)(1 - eta(n+s))/n!, with a rigorous tail bound, and
  psi = e^{x/2} psi_tilde.
* gram-pairs: the closed-form diagonal
  -(1 - 2^{1-rho}) Gamma(rho) zeta'(rho) conj(g) f, and 0 off the diagonal.
* residual-sweep: the exact H~ entries with mpmath coefficients for
  H_tilde ops; for H ops the psi coefficients in closed form and the
  operator function t/(1+e^{-t}) of T through mpmath.eigsy.

An op passes when its value is within its reported abs_err (or, where it
reports none, the accuracy it documents) plus the reference's own error.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from workloads import ROOT_TOL, ZERO_TAUS, requested_tol

_DPS = 30
_SERIES_TAIL = 1e-22
# Relative accuracy the benchmark grants zetalab's closed-form psi_tilde
# coefficients: special.gamma documents 1e-13 and special.eta 1e-12.
_COEFF_REL = 1e-11
# eigen_residual calls laguerre_coefficients(which="psi") at its default
# tol = 1e-12; each coefficient's quadrature asks for at most that
# absolute error (tol times a running scale <= 1).
_PSI_COEFF_TOL = 1e-12
# Entry accuracy granted to the float64 spectral evaluation of
# t/(1+e^{-t}) of T; tridiag_eigh enforces eigenpairs to 1e-11 ||T||.
_H_ENTRY_REL = 1e-11
_EPS64 = 2.0 ** -53


def _mpc(pair) -> mp.mpc:
    return mp.mpc(pair[0], pair[1])


def one_minus_eta(z: mp.mpc) -> mp.mpc:
    """1 - eta(z) = sum_{k>=2} (-1)^k k^{-z} to the working precision,
    relative to its own size even where it is ~2^{-Re z}."""
    x = float(z.real)
    if x < 30:
        with mp.workdps(mp.mp.dps + 12):
            return 1 - mp.altzeta(z)
    # Direct sum; the tail past k_max is below 10^-dps * 2^-x.
    k_max = int((2.0 ** x * 10.0 ** mp.mp.dps / (x - 1)) ** (1.0 / (x - 1))) + 2
    return mp.fsum((-1) ** k * mp.power(k, -z) for k in range(2, k_max + 1))


class References:
    """Lazily built references, cached per s for the run."""

    def __init__(self):
        mp.mp.dps = _DPS
        self._ordinates = None
        self._series = {}
        self._rows = {}

    # -- zeros ----------------------------------------------------------

    def ordinates(self) -> list:
        if self._ordinates is None:
            with mp.workdps(30):
                # zetazero(14) = 60.83..., past every scan end.
                self._ordinates = [mp.zetazero(k).imag for k in range(1, 15)]
            for k, tau in enumerate(ZERO_TAUS):
                if float(self._ordinates[k]) != tau:
                    raise RuntimeError(
                        f"input ordinate {tau!r} is not zetazero({k + 1}) "
                        f"rounded to double ({self._ordinates[k]})")
        return self._ordinates

    def check_scan(self, op, out):
        ords = self.ordinates()
        tau_max = op["tau_max"]
        want = [float(t) for t in ords if t <= tau_max]
        taus = out["taus"]
        if len(taus) != len(want):
            return False, f"scan found {len(taus)} zeros, reference {len(want)}"
        for got, ref in zip(taus, want):
            # find_zeros refines to xtol = tol, rtol = 8.9e-16.
            allow = ROOT_TOL + 4 * 8.9e-16 * abs(ref)
            if abs(got - ref) > allow:
                return False, f"zero {got!r} misses {ref!r} by {abs(got - ref):.3e}"
        s_lo, s_hi, t_lo, t_hi = op["rect"]
        on_line = sum(1 for t in ords if t_lo < t < t_hi)
        with mp.workdps(30):
            in_strip = mp.nzeros(t_hi) - mp.nzeros(t_lo)
        if in_strip != on_line:
            raise RuntimeError(f"strip zeros off the line in [{t_lo}, {t_hi}]")
        crossing = s_lo < 0.5 < s_hi
        ref_count = on_line if crossing else 0
        scan_count = sum(1 for t in taus if t_lo < t < t_hi) if crossing else 0
        if out["count"] != ref_count or out["count"] != scan_count:
            return False, (f"count_zeros {out['count']}, reference {ref_count}, "
                           f"scan {scan_count}")
        return True, ""

    # -- eigen-table ----------------------------------------------------

    def _laguerre_series(self, s_pair):
        """(a_n for n < N, bound on sum_{n>=N} |a_n|) at s, with N the
        first index past 40 where the bound falls below 1e-22."""
        key = tuple(s_pair)
        if key not in self._series:
            s = _mpc(s_pair)
            sigma, tau = s.real, abs(s.imag)
            ratio = mp.gamma(s)        # Gamma(n+s)/n!
            coeffs = []
            while True:
                n = len(coeffs)
                # |1 - eta(z)| <= 2^{-x}(1 + 2/(x-1)) for x = Re z > 1, and
                # |Gamma(n+1+s)/(n+1)!| / |Gamma(n+s)/n!| <= (n+sigma+tau)/(n+1),
                # so past n the terms shrink at least by the factor r.
                x = n + sigma
                r = (n + sigma + tau) / (n + 1) / 2
                if n >= 40 and r < 1:
                    tail = abs(ratio) * mp.power(2, -x) * (1 + 2 / (x - 1)) / (1 - r)
                    if tail < _SERIES_TAIL:
                        break
                coeffs.append(ratio * one_minus_eta(n + s))
                ratio = ratio * (n + s) / (n + 1)
            self._series[key] = (coeffs, tail)
        return self._series[key]

    def psi_value(self, op):
        """(reference value, reference error) of psi or psi_tilde."""
        coeffs, tail = self._laguerre_series(op["s"])
        x = mp.mpf(op["x"])
        # Laguerre three-term recurrence at full working precision.
        l_prev, l_cur = mp.mpf(0), mp.mpf(1)
        total = mp.mpc(0)
        size = mp.mpf(0)
        for n, a in enumerate(coeffs):
            total += a * l_cur
            size += abs(a * l_cur)
            l_prev, l_cur = l_cur, ((2 * n + 1 - x) * l_cur - n * l_prev) / (n + 1)
        half = mp.exp(-x / 2)
        err = tail + size * mp.mpf(10) ** (5 - _DPS)
        if op["kind"] == "psi_tilde":
            return total * half, err * half
        # |L_n(x)| <= e^{x/2} for x >= 0 carries the tail bound over.
        return total, tail / half + size * mp.mpf(10) ** (5 - _DPS)

    def check_psi(self, op, out):
        ref, ref_err = self.psi_value(op)
        miss = abs(_mpc(out["value"]) - ref)
        if miss > out["abs_err"] + ref_err:
            return False, f"misses reference by {float(miss):.3e} > abs_err {out['abs_err']:.3e}"
        return True, ""

    # -- gram -----------------------------------------------------------

    def check_gram(self, op, out):
        self.ordinates()  # validates the input ordinates
        with mp.workdps(30):
            rr, rc = _mpc(op["rho_row"]), _mpc(op["rho_col"])
            gf = mp.conj(_mpc(op["g"])) * _mpc(op["f"])
            # The closed forms hold at exact zeros; the inputs are
            # double-rounded, so the terms that vanish there bound the
            # reference's own error.
            vanishing = (abs(mp.diff(mp.gamma, rr) * mp.altzeta(rr))
                         + abs(mp.gamma(rr) * mp.altzeta(rr))
                         + abs(mp.gamma(rc) * mp.altzeta(rc)))
            ref_err = 10 * abs(gf) * vanishing + mp.mpf(10) ** -28
            if op["i"] == op["j"]:
                ref = -(1 - mp.power(2, 1 - rr)) * mp.gamma(rr) \
                    * mp.zeta(rr, derivative=1) * gf
            else:
                ref = mp.mpc(0)
            miss = abs(_mpc(out["value"]) - ref)
        if miss > out["abs_err"] + ref_err:
            return False, f"misses reference by {float(miss):.3e} > abs_err {out['abs_err']:.3e}"
        return True, ""

    # -- residual-sweep -------------------------------------------------

    def residual_reference(self, op):
        """(reference |(M a)_n - lambda a_n|, allowed deviation) per n."""
        s = _mpc(op["s"])
        k_dim = op["K"]
        lam = mp.j * (mp.mpf(1) / 2 - s)
        if op["kind"] == "H_tilde":
            return self._h_tilde(s, k_dim, lam)
        return self._h(s, k_dim, lam)

    def _h_tilde_rows(self, k_dim):
        """Per row n: the columns m >= n and the real numbers r_nm with
        H~_nm = i r_nm, from H~ = iN - iN_minus - i sum_m c_m N_minus^m,
        where N_minus^m carries (n+m)!/n! at (n, n+m).  Exact rationals,
        rounded once to the working precision; cached per K."""
        if k_dim not in self._rows:
            # c_m, the Taylor coefficients of x/(1+e^{-x}), from mpmath's
            # exact Bernoulli numbers (B_1 = +1/2 in this convention).
            c = [Fraction(0)]
            for m in range(1, k_dim):
                b = Fraction(1, 2) if m == 1 else Fraction(*mp.bernfrac(m))
                c.append(b * (2 ** m - 1) / math.factorial(m))
            rows = []
            for n in range(k_dim):
                exact = {n: Fraction(2 * n + 1, 2)}
                falling = 1
                for m in range(1, k_dim - n):
                    falling *= n + m
                    exact[n + m] = -c[m] * falling - (n + 1 if m == 1 else 0)
                cols = sorted(exact)
                rows.append((cols, [mp.mpf(exact[j].numerator) / exact[j].denominator
                                    for j in cols]))
            self._rows[k_dim] = rows
        return self._rows[k_dim]

    def _h_tilde(self, s, k_dim, lam):
        a = []
        ratio = mp.gamma(s)
        for n in range(k_dim):
            a.append(ratio * one_minus_eta(n + s))
            ratio = ratio * (n + s) / (n + 1)
        a_re = [v.real for v in a]
        a_im = [v.imag for v in a]
        a_abs = [abs(v) for v in a]
        resid, allow = [], []
        delta = _COEFF_REL + k_dim * _EPS64 + mp.mpf(10) ** (5 - _DPS)
        for n, (cols, r) in enumerate(self._h_tilde_rows(k_dim)):
            # (H~ a)_n = i sum_m r_nm a_m
            acc = mp.j * mp.mpc(mp.fdot(r, [a_re[m] for m in cols]),
                                mp.fdot(r, [a_im[m] for m in cols])) - lam * a[n]
            size = mp.fdot([abs(x) for x in r], [a_abs[m] for m in cols]) \
                + abs(lam) * a_abs[n]
            resid.append(abs(acc))
            allow.append(delta * size)
        return resid, allow

    def _h(self, s, k_dim, lam):
        # b_n = 2(-1)^n sum_k C(n,k)(-4)^k/k! Gamma(s+k)(eta(s+k) - 1 + 2^{-s-k}),
        # the integral of t^{s-1}/(1+e^t) e^{-2t} L_n(4t) termwise.
        with mp.workdps(60):
            g = [mp.gamma(s + k) * (mp.power(2, -(s + k)) - one_minus_eta(s + k))
                 for k in range(k_dim)]
            b = []
            for n in range(k_dim):
                tot = mp.fsum(mp.binomial(n, k) * (-4) ** k / mp.factorial(k) * g[k]
                              for k in range(n + 1))
                b.append(2 * (-1) ** n * tot)
        with mp.workdps(30):
            t_mat = mp.matrix(k_dim, k_dim)
            for n in range(k_dim):
                t_mat[n, n] = (2 * n + 1) / mp.mpf(4)
                if n + 1 < k_dim:
                    t_mat[n, n + 1] = t_mat[n + 1, n] = (n + 1) / mp.mpf(4)
            evals, evecs = mp.eigsy(t_mat)
            fermi = evecs * mp.diag([e / (1 + mp.exp(-e)) for e in evals]) * evecs.T
            h = -mp.j * fermi
            for n in range(k_dim - 1):
                # -D, D = i(N_minus - N_plus)/2.
                h[n, n + 1] += -mp.j * (n + 1) / 2
                h[n + 1, n] += mp.j * (n + 1) / 2
            resid, allow = [], []
            for n in range(k_dim):
                acc = -lam * b[n]
                size = abs(lam * b[n])
                spread = abs(lam) * _PSI_COEFF_TOL
                for m in range(k_dim):
                    acc += h[n, m] * b[m]
                    size += abs(h[n, m] * b[m])
                    spread += abs(h[n, m]) * _PSI_COEFF_TOL
                resid.append(abs(acc))
                allow.append(spread + (_H_ENTRY_REL + k_dim * _EPS64) * size)
        return resid, allow

    def check_residual(self, op, out):
        comps = out["per_component"]
        if len(comps) != op["K"]:
            return False, f"{len(comps)} components for K = {op['K']}"
        resid, allow = self.residual_reference(op)
        for n, (got, ref, tol) in enumerate(zip(comps, resid, allow)):
            if abs(got - ref) > tol:
                return False, (f"component {n}: {got!r} vs reference "
                               f"{mp.nstr(ref, 17)} (allowed {mp.nstr(tol, 3)})")
        return True, ""

    # -- dispatch -------------------------------------------------------

    def check(self, op, out):
        """(passed, reason) for one op's output."""
        kind = op["kind"]
        if kind == "scan+count":
            return self.check_scan(op, out)
        if kind in ("psi", "psi_tilde"):
            return self.check_psi(op, out)
        if kind == "gram":
            return self.check_gram(op, out)
        return self.check_residual(op, out)


def reported_error_ratio(op, out) -> float | None:
    """The op's reported error over the tolerance it asked for: abs_err
    for psi, psi_tilde and gram; |zeta(rho)| of each located zero for a
    scan.  None where the op reports no error measure."""
    tol = requested_tol(op)
    if tol is None:
        return None
    if op["kind"] == "scan+count":
        return max(out["residuals"]) / tol if out["residuals"] else None
    return out["abs_err"] / tol
