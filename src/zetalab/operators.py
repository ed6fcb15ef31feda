"""Truncated coefficient-space realizations of the ladder operators
and their composites, a tridiagonal eigensolver front end, the
spectral evaluation of t/(1+e^{-t}), and eigen-residual profiles.

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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CapabilityError, ConvergenceError, DomainError
from .quad import (
    IntegrandSpec,
    QuadResult,
    integrate_finite,
    integrate_semi_infinite,
)
from .special import _laguerre_table, _series_coeff_exact
from .states import _psi_quadrature, _psi_tilde_coefficients

__all__ = [
    "BASIS_TAG",
    "TruncatedOperator",
    "EigenDecomposition",
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

BASIS_TAG = "coefficient-space, orthonormal <x|n> = e^{-x/2} L_n(x)"

_K_CAP = 512
_H_TILDE_CAP = 192  # largest exact entry ~e^640 at K=192; float64 dies ~K=216
# Every psi coefficient is asked for tol * 2^-20 (just under 1e-6 * tol),
# so coefficients decades below 1 still carry digits under one shared
# absolute tolerance.
_COEFF_TOL_SHARE = 2.0**-20

_BANDS = ("diagonal", "lower-1", "upper-1", "tridiagonal",
          "upper-triangular", "dense")


def _band_violation(entries, band):
    k = entries.shape[0]
    idx = np.indices((k, k))
    off = idx[1] - idx[0]
    if band == "diagonal":
        bad = off != 0
    elif band == "lower-1":
        bad = off != -1
    elif band == "upper-1":
        bad = off != 1
    elif band == "tridiagonal":
        bad = np.abs(off) > 1
    elif band == "upper-triangular":
        bad = off < 0
    else:
        return None
    nz = np.array([[bool(v) for v in row] for row in entries]) \
        if entries.dtype == object else entries != 0
    if np.any(nz & bad):
        return np.argwhere(nz & bad)[0]
    return None


@dataclass(frozen=True)
class TruncatedOperator:
    dim: int
    entries: np.ndarray
    band: str
    basis_convention: str = BASIS_TAG

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("TruncatedOperator requires K >= 1")
        if self.band not in _BANDS:
            raise DomainError(f"unknown band tag {self.band!r}")
        if self.entries.shape != (self.dim, self.dim):
            raise DomainError("entries shape must be (K, K)")
        where = _band_violation(self.entries, self.band)
        if where is not None:
            raise DomainError(
                f"band tag {self.band!r} violated at entry {tuple(where)}"
            )
        if self.entries.dtype != object:
            self.entries.setflags(write=False)


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ResidualProfile:
    s: complex
    K: int
    per_component: list = field(default_factory=list)
    trusted_prefix: int = 0


def _ladder_arrays(k, exact):
    if exact:
        zero = Fraction(0)
        n_mat = np.full((k, k), zero, dtype=object)
        up = np.full((k, k), zero, dtype=object)
        dn = np.full((k, k), zero, dtype=object)
        for n in range(k):
            n_mat[n, n] = Fraction(2 * n + 1, 2)
        for n in range(k - 1):
            up[n, n + 1] = Fraction(n + 1)
            dn[n + 1, n] = Fraction(n + 1)
        return n_mat, up, dn
    n_mat = np.zeros((k, k))
    up = np.zeros((k, k))
    dn = np.zeros((k, k))
    idx = np.arange(k - 1)
    n_mat[np.arange(k), np.arange(k)] = np.arange(k) + 0.5
    up[idx, idx + 1] = idx + 1.0
    dn[idx + 1, idx] = idx + 1.0
    return n_mat, up, dn


def build_ladder(K: int, exact: bool = False):
    """(N, N_plus, N_minus) on a K-dimensional truncation.

    N is diag(n + 1/2); the lowering ket action m|m-1> appears as the
    upper shift with value n+1 at (n, n+1), the raising action as the
    mirrored lower shift.  exact=True returns Fraction entries for
    entrywise-exact algebra checks.
    """
    if K < 2:
        raise DomainError("build_ladder requires K >= 2")
    if K > _K_CAP:
        raise CapabilityError(f"K > {_K_CAP} out of scope")
    n_mat, up, dn = _ladder_arrays(K, exact)
    return (
        TruncatedOperator(K, n_mat, "diagonal"),
        TruncatedOperator(K, dn, "lower-1"),
        TruncatedOperator(K, up, "upper-1"),
    )


def build_composites(K: int, exact: bool = False):
    """(x_op, D, T) assembled from the ladder:
    x = 2N - N_plus - N_minus, D = i(N_minus - N_plus)/2, T = N - x/4."""
    n_op, n_plus, n_minus = build_ladder(K, exact=exact)
    n_mat = n_op.entries
    up = n_minus.entries
    dn = n_plus.entries
    x_mat = 2 * n_mat - dn - up
    t_mat = n_mat - x_mat / 4
    # D's entries are imaginary half-integers, exact in binary floating
    # point, so the exact flag does not need Fraction storage here.
    d_mat = np.zeros((K, K), dtype=np.complex128)
    for n in range(K - 1):
        d_mat[n, n + 1] = 0.5j * (n + 1)
        d_mat[n + 1, n] = -0.5j * (n + 1)
    return (
        TruncatedOperator(K, x_mat, "tridiagonal"),
        TruncatedOperator(K, d_mat, "tridiagonal"),
        TruncatedOperator(K, t_mat, "tridiagonal"),
    )


def tridiag_eigh(T: TruncatedOperator) -> EigenDecomposition:
    """Full decomposition of a real symmetric tridiagonal operator,
    eigenvalues ascending; per-pair residual enforced at 1e-11 ||T||."""
    if T.band not in ("diagonal", "tridiagonal"):
        raise DomainError("tridiag_eigh requires a (tri)diagonal operator")
    m = np.asarray(T.entries, dtype=np.float64)
    if not np.array_equal(m, m.T):
        raise DomainError("tridiag_eigh requires exact symmetry")
    d = np.diag(m).copy()
    e = np.diag(m, 1).copy() if T.dim > 1 else np.zeros(0)
    try:
        vals, vecs = eigh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    norm = float(np.max(np.abs(m))) or 1.0
    resid = float(np.max(np.abs(m @ vecs - vecs * vals)))
    if resid > 1e-11 * norm:
        raise ConvergenceError(
            f"eigenpair residual {resid:.3e} exceeds 1e-11 * ||T||"
        )
    return EigenDecomposition(values=vals, vectors=vecs)


def fermi_of_T(T: TruncatedOperator) -> TruncatedOperator:
    """The function t/(1 + e^{-t}) of T through its spectral
    decomposition: V diag(lam/(1+e^{-lam})) V^T.  This is the
    Borel-summed value of the coefficient series, which itself
    converges only inside spectral radius pi."""
    dec = tridiag_eigh(T)
    lam = dec.values
    f = lam / (1.0 + np.exp(-lam))
    m = (dec.vectors * f) @ dec.vectors.T
    return TruncatedOperator(T.dim, m, "dense")


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
    return TruncatedOperator(K, m, "dense")


def build_H_tilde(K: int) -> TruncatedOperator:
    """H~ = iN - iN_minus - i sum_m c_m (N_minus)^m.

    On the truncation (N_minus)^m is the m-step upper shift with
    entries (n+m)!/n!, zero for m >= K, so the series terminates and
    every entry is exact: the (n, n+m) entry is
    -i B_m (2^m - 1) C(n+m, m) for m >= 1 (as a rounded rational),
    and the diagonal is i(n + 1/2) since c_0 = 0.
    """
    if K < 2:
        raise DomainError("build_H_tilde requires K >= 2")
    if K > _H_TILDE_CAP:
        raise CapabilityError(
            f"exact entries overflow float64 beyond K = {_H_TILDE_CAP}"
        )
    m = np.zeros((K, K), dtype=np.complex128)
    for n in range(K):
        m[n, n] = 1j * (n + 0.5)
    for n in range(K - 1):
        m[n, n + 1] = -1j * (n + 1)
    for step in range(1, K):
        c = _series_coeff_exact(step)
        if c == 0:
            continue
        cm = c * math.factorial(step)  # back to B_m (2^m - 1)
        for n in range(K - step):
            m[n, n + step] += -1j * float(cm * math.comb(n + step, step))
    return TruncatedOperator(K, m, "upper-triangular")


# ---------------------------------------------------------------------------
# Expansion coefficients in the Laguerre basis


def laguerre_coefficients(p, K: int, which: str = "psi_tilde",
                          tol: float = 1e-12, route: str = "kernel"):
    """Expansion coefficients of psi_tilde (or psi) in the orthonormal
    Laguerre basis, for n < K.

    which="psi_tilde": the t-side kernel for the e^{-x} weight is
    e^{-t} t^n / n!, and the t-integral of F against it evaluates in
    closed form to Gamma(n+s)(1 - eta(n+s))/n!, computed by a stable
    forward recurrence (relative accuracy is essential for the
    residual study, where |a_n| spans many decades).

    which="psi": the e^{-x/2}-weight kernel is 2(-1)^n e^{-2t} L_n(4t).
    All K t-integrals are one stacked quadrature whose row n is the
    kernel against F; one Laguerre recurrence at each node emits every
    degree, and every coefficient is asked for tol * 2^-20.  Where
    rounding in the rows stalls the quadrature above that (small Re s,
    large K or |Im s|), its estimate is returned if its error bound
    still meets tol, and ConvergenceError is raised otherwise.

    route="direct" falls back to x-side quadrature of the transform,
    itself evaluated by quadrature rather than by the series built on
    these coefficients (slow; meant for cross-validation at small K).
    """
    s = complex(p.s)
    if s.real <= 0:
        raise DomainError("requires Re(s) > 0")
    if K < 1 or K > _K_CAP:
        raise DomainError(f"require 1 <= K <= {_K_CAP}")
    if which not in ("psi_tilde", "psi"):
        raise DomainError(f"unknown target {which!r}")
    if route == "direct":
        return _coefficients_direct(p, K, which, tol)
    if route != "kernel":
        raise DomainError(f"unknown route {route!r}")
    fc = complex(p.f_const) if hasattr(p, "f_const") else 1.0

    if which == "psi_tilde":
        return _psi_tilde_coefficients(s, K, fc)[0]

    sm1 = np.clongdouble(s - 1)
    signs = 2.0 * (-1.0) ** np.arange(K)

    def f(t):
        t = np.asarray(t, dtype=np.longdouble)
        base = np.exp(sm1 * np.log(t) - 2.0 * t) / (1.0 + np.exp(t))
        return signs[:, None] * base * _laguerre_table(4.0 * t, K)

    spec = IntegrandSpec(endpoint_exponent=s.real, decay="exponential")
    try:
        r = integrate_semi_infinite(f, spec, tol * _COEFF_TOL_SHARE)
    except ConvergenceError as exc:
        r = exc.best
        if r.abs_err > tol:
            raise ConvergenceError(
                str(exc),
                best=QuadResult(fc * r.value, abs(fc) * r.abs_err, r.evals),
            ) from exc
    return fc * r.value


def _coefficients_direct(p, K, which, tol):
    # Every x-sample is itself a quadrature, so this route is slow by
    # construction; tolerances are capped to keep it usable for
    # small-K cross checks.  All K degrees are one stacked integral, so
    # each sample serves every n.  The samples come from the quadrature
    # psi, never the series, which is built on the kernel coefficients
    # this route is meant to check.
    inner_tol = min(tol, 1e-9)
    x_hi = 40.0

    def f(xs):
        xs = np.asarray(xs, dtype=np.float64)
        vals = np.array([_psi_quadrature(p, float(x), inner_tol).value
                         for x in xs], dtype=np.complex128)
        weight = np.exp(-xs / 2.0)
        if which == "psi_tilde":
            vals = vals * weight
        return vals * weight * _laguerre_table(xs, K)

    return integrate_finite(f, 0.0, x_hi, max(tol, 1e-7), initial=8).value


def _tail_ratio(coeffs):
    mags = np.abs(np.asarray(coeffs, dtype=np.complex128))
    k = len(mags)
    window = mags[max(1, k - max(4, k // 4)):]
    ratios = [
        window[i + 1] / window[i]
        for i in range(len(window) - 1)
        if window[i] > 0
    ]
    if not ratios:
        return 0.5
    return float(min(max(np.median(ratios), 0.1), 0.95))


def eigen_residual(p, K: int, which: str = "H_tilde",
                   trust_tol: float = 1e-8) -> ResidualProfile:
    """Per-component |(M a)_n - i(1/2 - s) a_n| for the truncated
    operator acting on the state's coefficient vector.

    trusted_prefix counts leading components whose first omitted
    truncation term (operator entry at the cut column times the
    extrapolated coefficient magnitude there) stays below trust_tol.
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
    a = np.asarray(coeffs, dtype=np.complex128)
    lam = 1j * (0.5 - s)
    resid = np.abs(op.entries @ a - lam * a)

    ratio = _tail_ratio(coeffs)
    a_next = abs(coeffs[-1]) * ratio
    log_a_next = math.log(a_next) if a_next > 0 else -math.inf
    log_trust = math.log(trust_tol)
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
    return ResidualProfile(
        s=s, K=K, per_component=[float(r) for r in resid],
        trusted_prefix=trusted,
    )
