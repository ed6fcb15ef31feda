"""Truncated coefficient-space realizations of the ladder operators
and their composites, a tridiagonal eigensolver front end, the
spectral evaluation of t/(1+e^{-t}), the states' Laguerre coefficients
(psi's by one DFT, refused past a 1e-12 bound), eigen-residuals.

Convention: operators act on expansion coefficients in the
orthonormal basis <x|n> = e^{-x/2} L_n(x).  A ket action
A|m> = sum_n A_{nm}|n> transposes into the matrix acting on
coefficient columns, so the lowering action m|m-1> lands on the
upper shift (row n, column n+1) and the raising action on the lower
shift.  Mixing these two conventions is the main foreseeable bug
class; every builder in this module uses the coefficient-space one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ConvergenceError, DomainError
from .quad import QuadResult
from .special import (_ETA, PI_L, _bernoulli_any, _gamma, _hurwitz,
                      _series_coeff_exact, _stirling)
from .states import _EPS64, _EPS_LD, _psi_tilde_coefficients

__all__ = [
    "TruncatedOperator",
    "ResidualProfile",
    "build_ladder",
    "build_composites",
    "tridiag_eigh",
    "fermi_of_T",
    "fermi_series_partial",
    "build_H",
    "build_H_tilde",
    "laguerre_coefficients",
    "eigen_residual",
]

_K_CAP = 512
_H_TILDE_CAP = 192  # largest exact entry ~e^640 at K=192; float64 dies ~K=216
_COEFF_TOL, _ALIAS_TOL = 1e-12, 2.0**-56  # psi's b_n


@dataclass(frozen=True)
class TruncatedOperator:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("TruncatedOperator requires K >= 1")
        if self.entries.shape != (self.dim, self.dim):
            raise DomainError("entries shape must be (K, K)")
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class ResidualProfile:
    per_component: list
    trusted_prefix: int


def build_ladder(K: int):
    """(N, N_plus, N_minus) on a K-dimensional truncation, each a
    float64 TruncatedOperator.

    N is diag(n + 1/2); the lowering ket action m|m-1> appears as the
    upper shift with value n+1 at (n, n+1), the raising action as its
    transpose.  Every entry is a multiple of 1/2 below 2^9, exact in
    binary.  A product of two ladder or composite matrices
    (build_composites) sums at most three terms per entry, each a
    multiple of 1/16 below 2^21, so products and commutators are exact
    too and the algebra checks compare them with ==.
    """
    if K < 2:
        raise DomainError("build_ladder requires K >= 2")
    if K > _K_CAP:
        raise CapabilityError(f"K > {_K_CAP} out of scope")
    up = np.diag(np.arange(1.0, K), 1)
    return (
        TruncatedOperator(K, np.diag(np.arange(K) + 0.5)),
        TruncatedOperator(K, up.T),
        TruncatedOperator(K, up),
    )


def build_composites(K: int):
    """(x_op, D, T) assembled from the ladder:
    x = 2N - N_plus - N_minus, D = i(N_minus - N_plus)/2, T = N - x/4.
    The entries of x and T are multiples of 1/4 below 2^10 and those of
    D imaginary halves with real part +0, all exact in binary floating
    point."""
    n_op, n_plus, n_minus = build_ladder(K)
    n_mat, dn, up = n_op.entries, n_plus.entries, n_minus.entries
    x_mat = 2 * n_mat - dn - up
    t_mat = n_mat - x_mat / 4
    d_mat = np.zeros((K, K), dtype=np.complex128)
    d_mat.imag = (up - dn) / 2
    return (
        TruncatedOperator(K, x_mat),
        TruncatedOperator(K, d_mat),
        TruncatedOperator(K, t_mat),
    )


def tridiag_eigh(T: TruncatedOperator):
    """(values, vectors) of a real symmetric operator: eigenvalues
    ascending, orthonormal eigenvectors as the columns of vectors.
    The operator must be exactly symmetric, and every eigenpair's
    residual is enforced at 1e-11 ||T||."""
    m = np.asarray(T.entries, dtype=np.float64)
    if not np.array_equal(m, m.T):
        raise DomainError("tridiag_eigh requires exact symmetry")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    norm = float(np.max(np.abs(m))) or 1.0
    resid = float(np.max(np.abs(m @ vecs - vecs * vals)))
    if resid > 1e-11 * norm:
        raise ConvergenceError(
            f"eigenpair residual {resid:.3e} exceeds 1e-11 * ||T||"
        )
    return vals, vecs


def fermi_of_T(T: TruncatedOperator) -> TruncatedOperator:
    """The function t/(1 + e^{-t}) of T through its spectral
    decomposition: V diag(lam/(1+e^{-lam})) V^T.  This is the
    Borel-summed value of the coefficient series, which itself
    converges only inside spectral radius pi."""
    lam, vecs = tridiag_eigh(T)
    f = lam / (1.0 + np.exp(-lam))
    return TruncatedOperator(T.dim, (vecs * f) @ vecs.T)


def fermi_series_partial(T: TruncatedOperator, M: int) -> np.ndarray:
    """Partial sum over m <= M of c_m T^m with c_m = B_m(2^m - 1)/m!.
    Diverges (in M) once the spectral radius of T exceeds pi; kept as
    the in-disc oracle and the out-of-disc divergence exhibit."""
    if M < 1 or M > 256:
        raise DomainError("require 1 <= M <= 256")
    k = T.dim
    acc = np.zeros((k, k))
    power = np.eye(k)
    base = np.asarray(T.entries, dtype=np.float64)
    for m in range(1, M + 1):
        power = power @ base
        c = float(_series_coeff_exact(m))
        if c != 0.0:
            acc = acc + c * power
    return acc


def build_H(K: int) -> TruncatedOperator:
    """H = -D - i * fermi_of_T(T), dense complex."""
    _x, d_op, t_op = build_composites(K)
    m = -np.asarray(d_op.entries, dtype=np.complex128) \
        - 1j * fermi_of_T(t_op).entries
    return TruncatedOperator(K, m)


@lru_cache(maxsize=1)
def _h_tilde_band() -> np.ndarray:
    # Imaginary parts of H~ at K = _H_TILDE_CAP; see build_H_tilde.
    K = _H_TILDE_CAP
    n = np.arange(K)
    im = np.diag(n + 0.5) + np.diag(-1.5 * n[1:], 1)
    # C(n+m, m) over n as Python ints: at m = 0 all ones, and each step
    # in m is a running sum (Pascal's rule).
    binom = np.ones(K, dtype=object)
    for m in range(1, K):
        binom = np.cumsum(binom[:K - m])
        if m % 2 == 0:
            b = _bernoulli_any(m)
            p, q = b.numerator * (2**m - 1), b.denominator
            im[n[:-m], n[m:]] = -(p * binom) / q
    im.setflags(write=False)
    return im


def build_H_tilde(K: int) -> TruncatedOperator:
    """H~ = iN - iN_minus - i sum_m c_m (N_minus)^m.

    On the truncation (N_minus)^m is the m-step upper shift with
    entries (n+m)!/n!, zero for m >= K, so the series terminates and
    every entry is exact up to one rounding: the diagonal is i(n + 1/2)
    since c_0 = 0, the first band -1.5i(n+1) (the shift plus c_1 = 1/2),
    and the (n, n+m) entry for even m >= 2 is -i p C(n+m, m) / q with
    p/q = B_m (2^m - 1), one correctly rounded integer division.  The
    odd bands m >= 3 vanish with B_m.  Every real part is +0.

    No entry depends on K, so H~ at K is the leading K x K block of H~
    at the cap: the exact table is built once per process, at K = 192,
    and each call copies its block into fresh read-only entries.
    """
    if K < 2:
        raise DomainError("build_H_tilde requires K >= 2")
    if K > _H_TILDE_CAP:
        raise CapabilityError(
            f"exact entries overflow float64 beyond K = {_H_TILDE_CAP}"
        )
    entries = np.zeros((K, K), dtype=np.complex128)
    entries.imag = _h_tilde_band()[:K, :K]
    return TruncatedOperator(K, entries)


# ---------------------------------------------------------------------------
# Expansion coefficients in the Laguerre basis


def laguerre_coefficients(p, K: int, which: str = "psi_tilde"):
    """Expansion coefficients of psi_tilde (or psi) in the orthonormal
    Laguerre basis, for n < K.

    which="psi_tilde": the kernel e^{-t} t^n / n! against F gives
    Gamma(n+s)(1 - eta(n+s))/n!, by a forward recurrence that keeps the
    relative accuracy of a_n over the many decades they span.

    which="psi": b_n are the Cauchy coefficients of G(w) = sum b_n w^n =
    2 Gamma(s)/(1+w) h(s, (3-w)/(1+w)), h(s, a) = sum_j (-1)^j (j+a)^-s:
    one DFT of G on one circle |w| = r, in long double, times r^-n, each
    with a bound.  Where a bound less b_n's own complex128 rounding, which
    any route pays, exceeds _COEFF_TOL (Re s near 0 or past about 9),
    ConvergenceError carries every b_n and the bound.
    """
    s = complex(p.s)
    if s.real <= 0:
        raise DomainError("requires Re(s) > 0")
    if K < 1 or K > _K_CAP:
        raise DomainError(f"require 1 <= K <= {_K_CAP}")
    if which not in ("psi_tilde", "psi"):
        raise DomainError(f"unknown target {which!r}")
    fc = complex(p.f_const)

    if which == "psi_tilde":
        return _psi_tilde_coefficients(s, *_gamma(s), K, fc)[0]

    b, err, samples = _psi_coefficients(s, K)
    if not (err - _EPS64 / 2 * np.abs(b)).max() <= _COEFF_TOL:  # NaN too
        raise ConvergenceError(
            f"psi coefficients' bound {err.max():.3e} exceeds {_COEFF_TOL:g}",
            best=QuadResult(fc * b, abs(fc) * float(err.max()), samples))
    return fc * b


def _psi_coefficients(s: complex, K: int):
    """(b, bound, N) at f = 1, b real for real s.  Gain r^{1-K}: the most
    with eps_LD max|G| gain <= 2^-56 max(1, max|G|) and E gain <=
    _COEFF_TOL / 2 on 32 samples at gain 1024, else on max(32, K) at
    gain 2 (hopeless past 1000 _COEFF_TOL).  |b_n| <= 2 Gamma(sig) = e^lb,
    as |e^{-2t} L_n(4t)| <= 1, so N = 2^k with e^lb r^N <= _ALIAS_TOL."""
    (g,), (g_rel,), e, sig = *_stirling(s)[:2], -1 / max(K - 1, 1), s.real
    lb, lg1 = np.log(np.longdouble(2)) + math.lgamma(sig), math.lgamma(sig + 1)

    def circle(r, N, cut):
        # G at w = r e^{2 pi i k/N} in blocks, and E: sample bounds and DFT
        # rounding (Higham, Thm 24.2, twiddles within 2 eps_LD).  A node is
        # off by 9 eps_LD, a = 4/(1+w) - 1 by da = 24 eps_LD pre^2: Gamma h
        # moves by da |Gamma(s+1) h(s+1, .)| <= da Gamma(sig+1) / Re(a)^k,
        # k = sig + 1; past cut, by da (|Gamma(s+1) h(s+1, a)| + its engine
        # bound) plus that first bound times k da / Re(a).
        G, err, rows = [], 0.0, 1024 // math.ceil(max(1, abs(s.imag) / 60))
        for lo in range(0, N, rows):
            w = r * np.exp(2j * PI_L * np.arange(lo, min(lo + rows, N)) / N)
            a, pre, m = 4 / (1 + w) - 1, np.abs(2 / (1 + w)), len(w)
            da = 24 * _EPS_LD * pre * pre
            node = da * np.exp(lg1 - (sig + 1) * np.log(a.real))
            up = np.flatnonzero(pre * node > cut)
            x = np.stack([a / 2, a / 2 + 0.5], 1)[np.r_[:m, up]]
            h, h_err = _hurwitz((s + (np.arange(len(x)) >= m)).astype(
                np.clongdouble), x, *_ETA[1:])
            node[up] = da[up] * (abs(g * s) * (np.abs(h[m:]) + h_err[m:])
                                 + node[up] * (sig + 1) / a.real[up])
            G.append(2 * g / (1 + w) * h[:m])
            err += (pre * (abs(g) * h_err[:m] + 8 * _EPS_LD * np.abs(G[-1])
                           + node)).sum()
        mag = np.abs(G := np.concatenate(G))
        return G, float(err / N + 4 * _EPS_LD * mag.mean() + 8 * math.log2(N)
                        * _EPS_LD * np.hypot.reduce(mag) / math.sqrt(N))

    for least, size in ((1024, 32), (2, max(32, 2 * K))):
        G, E = circle(least ** e, size, 0.0)
        gain = min(128 / min(np.abs(G).max(), 1), _COEFF_TOL / 2 / E)
        if gain >= least:
            break
    if not E <= 1000 * _COEFF_TOL:  # best: 0, within 2 Gamma(sig)
        return np.zeros(K, complex), np.full(K, np.exp(lb)), size
    r = float(gain := max(gain, 2)) ** e
    N = max(K, math.ceil((lb - math.log(_ALIAS_TOL)) / -math.log(r)))
    G, E = circle(r, N := 1 << (N - 1).bit_length(), _COEFF_TOL / 8 / gain)
    scale = r ** -np.arange(K, dtype=np.longdouble)
    b = np.fft.fft(G)[:K] / N * scale
    err = (scale * E + math.exp(lb + N * math.log(r)) / (1 - r ** N)
           + (_EPS64 / 2 + 4 * _EPS_LD + g_rel) * np.abs(b))
    return (b.real if s.imag == 0 else b).astype(complex), err, N


def _tail_ratio(coeffs):
    k = len(coeffs)
    w = np.abs(coeffs)[max(1, k - max(4, k // 4)):]
    # np.median's sorted middle, without the numpy.ma import it costs.
    r = np.sort(w[1:][w[:-1] > 0] / w[:-1][w[:-1] > 0])
    if not r.size:
        return 0.5
    return float(min(max((r[(r.size - 1) // 2] + r[r.size // 2]) / 2, 0.1),
                     0.95))


def eigen_residual(p, K: int, which: str = "H_tilde") -> ResidualProfile:
    """Per-component |(M a)_n - i(1/2 - s) a_n| for the truncated
    operator acting on the state's coefficient vector.

    trusted_prefix counts leading components whose first omitted
    truncation term (operator entry at the cut column times the
    extrapolated coefficient magnitude there) stays below the fixed
    trust threshold 1e-8.
    Once the asymptotic operator series has blown past its optimal
    order, no leading component passes and the prefix is honestly 0.
    """
    s = complex(p.s)
    if which == "H_tilde":
        op = build_H_tilde(K)
        coeffs = laguerre_coefficients(p, K, which="psi_tilde")
    elif which == "H":
        op = build_H(K)
        coeffs = laguerre_coefficients(p, K, which="psi")
    else:
        raise DomainError(f"unknown operator {which!r}")
    lam = 1j * (0.5 - s)
    resid = np.abs(op.entries @ coeffs - lam * coeffs)

    ratio = _tail_ratio(coeffs)
    a_next = abs(coeffs[-1]) * ratio
    log_a_next = math.log(a_next) if a_next > 0 else -math.inf
    log_trust = math.log(1e-8)
    trusted = 0
    for n in range(K):
        if which == "H_tilde":
            m = K - n
            c = _series_coeff_exact(m)
            if c == 0:
                # odd orders vanish; the even neighbour is the envelope
                c = _series_coeff_exact(m + 1)
            log_entry = (
                math.log(float(abs(c)))
                + math.lgamma(K + 1)
                - math.lgamma(n + 1)
            )
        else:
            edge = abs(op.entries[n, K - 1])
            log_entry = math.log(edge) if edge > 0 else -math.inf
        if log_entry + log_a_next < log_trust:
            trusted = n + 1
        else:
            break
    return ResidualProfile([float(r) for r in resid], trusted)
