"""Eigenfunction layer: the forward amplitude F, its Hankel transform
(the position-space eigenfunctions), the adjoint amplitude G in both
printed forms, norm integrals with their closed forms, and the
bilinear Gram pairing with a closed-form diagonal.

Conventions: principal-branch complex powers throughout; default
normalization constants f = g = 1; the Gram diagonal carries one
global sign GRAM_SIGN fixed by the tail-integral orientation of G.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import accumulate, islice

import numpy as np

from .errors import (CapabilityError, ConvergenceError, DivergenceError,
                     DomainError, PreconditionError)
from .quad import (
    CLD,
    _EPS_LD,
    LD,
    CumulativeIntegral,
    QuadResult,
    _restated,
    integrate_finite,
    integrate_semi_infinite,
)
from .special import (
    _EPS,
    EULER_GAMMA,
    _gamma,
    _laguerre_rows,
    _one_minus_eta,
    _series_coeff_exact,
    _stirling,
    bessel_j0,
    eta,
    eta_prime,
    gamma,
    zeta,
    zeta_prime,
)

__all__ = [
    "StateParams",
    "GRAM_SIGN",
    "amplitude_F",
    "psi",
    "psi_tilde",
    "amplitude_G_tail",
    "amplitude_G_rewritten",
    "norm_integral",
    "norm_series_oracle",
    "paper_norm_closed_form",
    "gram",
    "gram_matrix",
    "gram_diagonal_closed_form",
    "gram_diagonal_by_parts",
    "gram_diagonal_log_moment",
]

# Global orientation sign of the Gram diagonal relative to
# (1-2^{1-rho}) Gamma(rho) zeta'(rho); a consequence of pairing the
# tail-integral G against Psi.  Constant across zeros.
GRAM_SIGN = -1

_LN2 = math.log(2.0)

# Longest Laguerre series psi sums before it falls back to quadrature.
_SERIES_TERMS_MAX = 512
# Share of tol granted to the series truncation.
_SERIES_TAIL_SHARE = 1.0 / 256.0


@lru_cache(maxsize=1)
def _exp_ratio_series():
    """b_j, j < 63, of 2/(1+e^z) = sum_j b_j z^j, |z| < pi, rounded once:
    from x/(1+e^{-x}) = sum_m c_m x^m at x = -z, b_j = 2 (-1)^j c_{j+1},
    and |b_j| < 4 zeta(j+1) pi^{-j-1}."""
    return np.array([LD(str(Decimal(q.numerator) / q.denominator))
                     for q in (2 * (-1) ** j * _series_coeff_exact(j + 1)
                               for j in range(63))])


@dataclass(frozen=True)
class StateParams:
    """Spectral parameter and the normalization constant f."""

    s: complex
    f_const: complex = 1.0

    def __post_init__(self):
        s = complex(self.s)
        for name, v in (("s", s), ("f_const", complex(self.f_const))):
            if not cmath.isfinite(v):
                raise DomainError(f"StateParams requires a finite {name}, "
                                  f"got {v}")
        if s.real <= 0:
            raise DomainError("StateParams requires Re(s) > 0")


def amplitude_F(p: StateParams, t: float) -> complex:
    """f * t^{s-1} / (1 + e^t).

    t must be a finite number >= 0, and t = 0 is allowed only where
    the power has a limit: zero for Re(s) > 1, f/2 at s = 1 exactly.
    """
    s = complex(p.s)
    if not 0 <= t < math.inf:
        raise DomainError(f"amplitude_F requires a finite t >= 0, got {t}")
    if t == 0:
        if s == 1:
            return complex(p.f_const) * 0.5
        if s.real > 1:
            return 0j
        raise DomainError(
            "t = 0 is a singular point of F for Re(s) <= 1 "
            "(the phase of t^{s-1} has no limit off s = 1)"
        )
    if t > 690:
        return 0j
    return (
        complex(p.f_const)
        * cmath.exp((s - 1) * math.log(t))
        / (1.0 + math.exp(t))
    )


def _psi_tilde_coefficients(s: complex, g: complex, g_rel: float, K: int,
                            f_const: complex, bound: bool = True):
    """(a, a_err) for n < K: a_n = f Gamma(n+s)(1 - eta(n+s))/n!, the
    coefficients of psi_tilde in the orthonormal basis e^{-x/2} L_n(x), and
    a bound on each, given Gamma(s) = g within relative error g_rel.  One
    engine call gives every 1 - eta(n+s) with its bound; the bound adds
    g_rel and a few roundings per recurrence step.  CapabilityError where
    one is not finite in double precision (past n + Re s ~ 171 or sooner).
    bound=False asks the engine for values only and returns (a, None),
    a with the same bits; the guard then reads a alone."""
    n = np.arange(K)
    ome, ome_err = _one_minus_eta(s + n, bound)
    with np.errstate(over="ignore", invalid="ignore"):
        fq = f_const * np.fromiter(accumulate(
            range(K - 1), lambda q, k: q * (k + s) / (k + 1), initial=g),
            complex, K)
        a = fq * ome
        a_err = None if ome_err is None else np.abs(fq) * (
            np.abs(ome) * (g_rel + 8 * (n + 2) * _EPS) + ome_err)
    if not (np.isfinite(a).all()
            and (a_err is None or np.isfinite(a_err).all())):
        raise CapabilityError(f"psi_tilde's coefficients at s = {s} leave "
                              f"double precision before n = {K}")
    return a, a_err


class _SeriesPlan:
    """What _psi_series needs of (s, f) alone, built once: Gamma(s), the
    tails by K and a prefix of the a_n, keyed on the four float64 parts
    (0.5+0i and 0.5-0i differ).  Rows equal a cold call's: the recurrence
    is sequential, and an engine row hangs on s + n and on Im s only."""

    def __init__(self, key: bytes):
        sr, si, fr, fi = struct.unpack("4d", key)
        self.s, self.fc, self.tails = complex(sr, si), complex(fr, fi), []
        self.a = self.a_err = np.zeros(0)
        try:
            self.g, self.g_rel = _gamma(self.s)
            self.q = self.g
        except CapabilityError:  # no K will do
            self.tails = [math.nan] * (_SERIES_TERMS_MAX + 1)

    def terms(self, need: float):
        """(tail, a, a_err) for the first K <= _SERIES_TERMS_MAX whose
        a-priori tail is <= need, or None.  A miss builds max(K, 2 held)
        coefficients, at most _SERIES_TERMS_MAX, or K where those refuse."""
        s, tails = self.s, self.tails
        for K in range(1, _SERIES_TERMS_MAX + 1):
            while len(tails) <= K:  # NaN where the bound does not hold yet
                n, q = len(tails), self.q
                xk = n + s.real
                r = max(xk + abs(s.imag), n + 1) / (2 * n + 2)
                tails.append(abs(self.fc * q) * 2.0 ** -xk * (1 + 2 / (xk - 1))
                             / (1 - r) if xk > 1 and r < 1 else math.nan)
                self.q = q * (n + s) / (n + 1)
            if tails[K] <= need:
                break
        else:
            return None
        rows = max(K, min(2 * len(self.a), _SERIES_TERMS_MAX))
        while len(self.a) < K:
            try:
                self.a, self.a_err = _psi_tilde_coefficients(
                    s, self.g, self.g_rel, rows, self.fc)
            except CapabilityError:
                if rows == K:
                    return None
                rows = K
        return tails[K], self.a[:K], self.a_err[:K]


_series_plan = lru_cache(maxsize=16)(_SeriesPlan)  # plans kept at once


def _psi_series(p: StateParams, x: float, tol: float):
    """psi(x) = sum_{n<K} a_n L_n(x) with an error bound, or None where
    Gamma(s) or a coefficient refuses double precision or no K up to
    _SERIES_TERMS_MAX brings the a-priori tail below
    tol * _SERIES_TAIL_SHARE.

    Szegő's bound |e^{-x/2} L_n(x)| <= 1 for x >= 0 (Orthogonal
    Polynomials (7.21.3)) turns the coefficient tail into a pointwise
    bound on psi_tilde, so the truncation error of psi is at most
    tail * e^{x/2}.  The L_n(x) and the sum are in extended precision;
    the recurrence's error in L_n is relative to max_{k<=n} |L_k(x)|,
    not to |L_n(x)|, which can sit near a root, so the rounding term
    weighs each |a_n| by that running maximum.

    The tail: |1 - eta(z)| <= 2^{-x}(1 + 2/(x-1)) at x = Re z > 1 at least
    halves per unit step in x, and |n+s|/(n+1) <= max(n+sigma+tau, n+1)/(n+1)
    does not grow with n, so from K on the terms shrink at least
    geometrically by r = max(K+sigma+tau, K+1)/(2(K+1)) once r < 1.
    """
    s, fc = complex(p.s), complex(p.f_const)
    plan = _series_plan(struct.pack("4d", s.real, s.imag, fc.real, fc.imag))
    weight = math.exp(-0.5 * x)
    if (terms := plan.terms(tol * _SERIES_TAIL_SHARE * weight)) is None:
        return None
    (tail, a, a_err), K = terms, len(terms[1])
    lag = np.array(list(islice(_laguerre_rows(LD(x)), K)))
    value = complex(np.sum(a.astype(CLD) * lag))
    mag = np.abs(lag).astype(np.float64)
    size = float(np.abs(a) @ np.maximum.accumulate(mag))
    err = (tail / weight + float(a_err @ mag)
           + 8 * K * _EPS_LD * size + _EPS * abs(value))
    return QuadResult(value, err, K)


def _psi_quadrature(p: StateParams, x: float, tol: float) -> QuadResult:
    """psi by adaptive quadrature of F_s(t) J0(2 sqrt(x t)) over t."""
    s = complex(p.s)
    sm1 = CLD(s - 1)
    fc = complex(p.f_const)
    x64 = float(x)

    def f(t):
        t = np.asarray(t, dtype=LD)
        base = np.exp(sm1 * np.log(t)) / (1.0 + np.exp(t))
        if x64 > 0:
            base = base * bessel_j0(
                2.0 * np.sqrt(x64 * np.asarray(t, dtype=np.float64))
            )
        return fc * base

    def rounded(r):  # the value's rounding to double joins abs_err
        return QuadResult(r.value, r.abs_err + _EPS * abs(r.value), r.evals)

    try:
        r = rounded(integrate_semi_infinite(f, s.real, tol))
    except ConvergenceError as exc:
        raise _restated(exc, rounded(exc.best)) from None
    if r.abs_err <= tol:
        return r
    raise ConvergenceError(f"psi quadrature bound {r.abs_err:.3e} exceeds "
                           f"tol {tol:.3e}", best=r)


def psi(p: StateParams, x: float, tol: float = 1e-10) -> QuadResult:
    """The Hankel-type transform of F: integral over t of
    F_s(t) J0(2 sqrt(x t)), as a QuadResult, for a finite x >= 0.

    The value is the Laguerre series psi(x) = sum_{n<K} a_n L_n(x) with
    the closed-form coefficients a_n = f Gamma(n+s)(1 - eta(n+s))/n!,
    K being the first index where the a-priori coefficient tail, times
    e^{x/2}, falls below tol/256; Gamma(s), the tails and the a_n are
    computed once per (s, f) and reused across x.  abs_err bounds the
    truncation (the tail times e^{x/2}), the coefficient errors carried
    through |L_n(x)|, and the rounding of the sum; evals counts the terms
    summed.  Where that bound exceeds tol (large x, very small tol), or
    Gamma(s) or a coefficient is not a finite double (Gamma past |Im s|
    ~ 450 at Re s <= 1), adaptive quadrature of the integral gives the
    value, and evals counts integrand evaluations; its abs_err, and the
    best of a refusal, add the value's rounding to double, and above tol
    it raises ConvergenceError."""
    if not 0 <= x < math.inf:
        raise DomainError(f"psi requires a finite x >= 0, got {x}")
    r = _psi_series(p, x, tol)
    if r is not None and r.abs_err <= tol:
        return r
    return _psi_quadrature(p, x, tol)


def psi_tilde(p: StateParams, x: float, tol: float = 1e-10) -> QuadResult:
    """e^{-x/2} psi(p, x); the weighted eigenfunction whose x = 0 value
    is the boundary function.  psi meets tol before the weight is
    applied, so abs_err here is at most tol e^{-x/2}."""
    r = psi(p, x, tol=tol)
    w = math.exp(-0.5 * x)
    return QuadResult(r.value * w, r.abs_err * w, r.evals)


def amplitude_G_tail(p: StateParams, t: float, tol: float = 1e-10) -> QuadResult:
    """The adjoint amplitude at g = 1,
    t^{s-1} (1 + e^t) * integral_t^inf tau^{-s}/(1+e^tau) dtau.

    The inner integral is evaluated on the shifted axis so the
    quadrature starts at the regular point u = 0.
    """
    if not t > 0:
        raise DomainError("amplitude_G_tail requires t > 0")
    if t > 690:
        raise DomainError("prefactor overflows for t > 690")
    s = complex(p.s)
    ms = CLD(-s)
    t_ld = LD(t)

    def f(u):
        tau = t_ld + np.asarray(u, dtype=LD)
        return np.exp(ms * np.log(tau)) / (1.0 + np.exp(tau))

    # Absolute inner tolerance scaled to the t^{-sigma} e^{-t} size of
    # the inner value, so the reported error tracks |G| itself.
    scale = math.exp(-t) * max(t, 1.0) ** (-s.real)
    inner = integrate_semi_infinite(f, 1.0, tol * scale)
    pref = cmath.exp((s - 1) * math.log(t)) * (1.0 + math.exp(t))
    return QuadResult(pref * inner.value, abs(pref) * inner.abs_err,
                      inner.evals)


def _require_zero(rho: complex, label: str):
    r = abs(zeta(rho))
    if not r < 1e-7:
        raise PreconditionError(
            f"{label} = {rho} is not a verified zero (|zeta| = {r:.3e})"
        )


def amplitude_G_rewritten(rho, t: float) -> QuadResult:
    """The rewritten adjoint amplitude at g = 1,
    -1 - t^{rho-1}(1+e^t) * integral_0^t tau^{-rho}/(1+e^tau)
    (rho + tau e^tau/(1+e^tau)) dtau,
    valid only at zeros (the rewrite uses the vanishing of zeta).
    The inner integral is asked for 1e-12 / max(|prefactor|, 1)."""
    rho = complex(rho)
    _require_zero(rho, "rho")
    if not t > 0:
        raise DomainError("amplitude_G_rewritten requires t > 0")
    if t > 690:
        raise DomainError("prefactor overflows for t > 690")
    mrho = CLD(-rho)
    rho_c = CLD(rho)

    def f(tau):
        tau = np.asarray(tau, dtype=LD)
        et = np.exp(tau)
        return (
            np.exp(mrho * np.log(tau))
            / (1.0 + et)
            * (rho_c + tau * et / (1.0 + et))
        )

    pref = cmath.exp((rho - 1) * math.log(t)) * (1.0 + math.exp(t))
    inner = integrate_finite(f, 0.0, t, 1e-12 / max(abs(pref), 1.0),
                             1.0 - rho.real)
    value = -1.0 - pref * inner.value
    err = abs(pref) * inner.abs_err + 64 * _EPS_LD * (1.0 + abs(value))
    return QuadResult(value, err, inner.evals)


def norm_integral(c) -> QuadResult:
    """integral_0^inf t^{c-2}/(1+e^t)^2 dt, to absolute tolerance 1e-12.

    Log-divergent at Re(c) = 1; the band Re(c) <= 1.01 is refused
    outright since the panel budget there grows without bound.
    """
    c = complex(c)
    if c.real <= 1.01:
        raise DivergenceError(
            "norm integral diverges at Re(c) <= 1; the band up to 1.01 "
            "is out of contract (endpoint exponent too close to -1)"
        )
    cm2 = CLD(c - 2)

    def f(t):
        t = np.asarray(t, dtype=LD)
        e = np.exp(-t)
        return np.exp(cm2 * np.log(t)) * (e / (1.0 + e)) ** 2

    # At huge c the envelope overflows; _truncation_point refuses it by name.
    with np.errstate(over="ignore", invalid="ignore"):
        return integrate_semi_infinite(f, c.real - 1.0, 1e-12)


def norm_series_oracle(s) -> complex:
    """Gamma(s)(eta(s) - eta(s-1)) = integral t^{s-1}/(1+e^t)^2 dt,
    from expanding the squared denominator into an alternating series."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("norm_series_oracle requires Re(s) > 0")
    return gamma(s) * (eta(s) - eta(s - 1))


def paper_norm_closed_form(c) -> complex:
    """2^{-c} Gamma(1+c) ((2^c - 1) zeta(1+c) - (2^c - 2) zeta(c)),
    with the removable point c = 1 handled by its limit
    (2^c - 2) zeta(c) -> 2 ln 2 (plus the first-order term in c - 1)."""
    c = complex(c)
    # Real powers of two round better than exp(c ln 2); at integer c
    # they are exact, which the printed reference digits rely on.
    p = 2.0**c.real if c.imag == 0 else cmath.exp(c * _LN2)
    if abs(c - 1) < 1e-6:
        delta = c - 1
        t2 = 2 * _LN2 * (1.0 + delta * (EULER_GAMMA + _LN2 / 2.0))
    else:
        t2 = (p - 2.0) * zeta(c)
    t1 = (p - 1.0) * zeta(1 + c)
    return gamma(1 + c) * (t1 - t2) / p


def gram_diagonal_closed_form(rho) -> complex:
    """GRAM_SIGN * (1 - 2^{1-rho}) Gamma(rho) zeta'(rho), the diagonal
    at f = g = 1."""
    rho = complex(rho)
    den = 1 - cmath.exp((1 - rho) * _LN2)
    return GRAM_SIGN * den * gamma(rho) * zeta_prime(rho)


def gram_diagonal_by_parts(rho) -> complex:
    """-d/drho [Gamma(rho) eta(rho)], the integration-by-parts value of
    the diagonal at f = g = 1: -Gamma(rho) (psi(rho) eta(rho) + eta'(rho)),
    with Gamma' = Gamma psi from the bounded digamma of special._stirling.
    Keeps the Gamma' eta term, which matters only off an exact zero."""
    rho = complex(rho)
    return -gamma(rho) * (complex(_stirling(rho)[2][0]) * eta(rho)
                          + eta_prime(rho))


def gram_diagonal_log_moment(rho) -> QuadResult:
    """The same by-parts diagonal as a quadrature:
    - integral_0^inf ln t * t^{rho-1}/(1+e^t) dt, to absolute
    tolerance 5e-16."""
    rho = complex(rho)
    rm1 = CLD(rho - 1)

    def f(t):
        t = np.asarray(t, dtype=LD)
        lt = np.log(t)
        return lt * np.exp(rm1 * lt) / (1.0 + np.exp(t))

    res = integrate_semi_infinite(f, rho.real, 5e-16)
    return QuadResult(-res.value, res.abs_err, res.evals)


class _GramRow:
    """What gram needs of (rho_row, tol) alone, keyed on their three
    float64 parts: the zero checks, U, the W series, the inner
    CumulativeIntegral, 80 |w0|, in held, its query at each outer node
    array, keyed on the nodes' 80-bit payloads (the 6 padding bytes of
    each vary), and, in cols, each column's entry at f = g = 1, keyed on
    rho_col's two float64 parts.  A build that raises is not kept."""

    def __init__(self, key: bytes):
        rr, ri, tol = struct.unpack("3d", key)
        rho, rs = complex(rr, ri), complex(rr, -ri)
        # On the line 1 - rs is rho_row: each distinct point is checked once.
        _require_zero(rho, "rho_row")
        if 1 - rs != rho:
            _require_zero(1 - rs, "1 - conj(rho_row)")
        self.upper = math.sqrt(-math.log(tol) + 8.0)
        self.ln_u, p = math.log(self.upper), CLD(2 - 2 * rs)

        def f_dlnv(ln_v):
            return 2.0 * np.exp(p * ln_v) / (1.0 + np.exp(np.exp(2.0 * ln_v)))

        self.w_terms = _exp_ratio_series() / (p + 2 * np.arange(63))
        self.w1 = self.w_terms.sum()
        self.d1 = 16 * _EPS_LD * float(np.abs(self.w_terms).sum())
        # tol/2 clears the inner's 80-bit floor.
        self.cum = CumulativeIntegral(f_dlnv, 0.0, self.ln_u, tol / 2.0)
        self.anchor = 80.0 * abs(gamma(1 - rs) * eta(1 - rs))
        self.held, self.cols = {}, {}


_gram_row = lru_cache(maxsize=16)(_GramRow)  # rows kept at once


def gram(rho_row, rho_col, f_const: complex = 1.0, g_const: complex = 1.0,
         tol: float = 1e-18) -> QuadResult:
    """The bilinear pairing
    conj(g) f * integral_0^inf t^{rho_row* + rho_col - 2}
                 (integral_0^t tau^{-rho_row*}/(1+e^tau) dtau) dt
    between an adjoint state at rho_row and a state at rho_col, both
    verified zeros, for 0 < tol < 1.  With t = x^2, tau = v^2,
    a = rho_row* + rho_col and p = 2 - 2 rho_row* it is
    integral_0^inf 2 x^{2a-3} W(x) dx, W(x) = integral_0^x f,
    f(v) = 2 v^{p-1}/(1+e^{v^2}).  W tends to the anchor
    w0 = Gamma(1-rho_row*) eta(1-rho_row*): zero at exact zeros, below
    1e-24 at the double-rounded rho1..rho4.  x is cut at
    U = sqrt(8 - ln tol): on the line |f| <= 1, and past t = U^2
    |W - w0| <= t^{-1/2} e^{-t} against |t^{a-2}| = 1/t, so the cut
    drops at most e^{-U^2}.

    For x <= 1, with 2/(1+e^z) = sum_j b_j z^j (_exp_ratio_series),
    W(x) = sum_j b_j x^{p+2j}/(p+2j) and the outer integral is
    S = sum_j 2 b_j/((p+2j)(2 rho_col+2j)).  On [1, U], one
    CumulativeIntegral on u = ln x to tol/2 gives W - W(1) and its bound
    e_in at the nodes of one integrate_finite of [c W, |c| (e_in + d1)],
    c = 2 x^{2a-2}, to tol; d1 bounds W(1)'s error.  abs_err adds twice
    that run's error (row 0's, and row 1's against the true integral),
    row 1, S's error, e^{-U^2} and 80 |w0| (where W is its tail, the
    outer integral carries w0 integral_1^{U^2} t^{a-2} dt, at most
    |w0| ln U^2 < 7 |w0|).  The sums stop at j = 62, past which their
    terms are below 1e-33.  Each kept term carries at most 10 roundings
    and numpy's pairwise sum 6 more, so a sum's error is charged 16 eps
    (long double) times the sum of its terms' moduli.

    Per row (_gram_row keeps the 16 last (rho_row, tol)): the checks of
    rho_row and 1 - rho_row*, U, the W series, the inner build, 80 |w0|,
    W - W(1) with e_in at each outer node array met so far (every outer
    run starts on the same 8 panels of [0, ln U], so a column queries
    only where its run refines), and each column's entry at f = g = 1:
    any other rho_col's check, S and the outer run.  Per entry: that
    entry times conj(g) f (abs_err times its modulus) and the finiteness
    check.  A warm entry equals a cold one bit for bit (a queried point
    does not depend on its batch); evals counts the outer run's and the
    row's inner build's integrand evaluations.
    """
    rho_row, rho_col = complex(rho_row), complex(rho_col)
    if not 0 < tol < 1:
        raise DomainError(f"gram requires 0 < tol < 1, got {tol}")
    row = _gram_row(struct.pack("3d", rho_row.real, rho_row.imag, tol))
    key = struct.pack("2d", rho_col.real, rho_col.imag)
    if (col := row.cols.get(key)) is None:
        col = row.cols[key] = _gram_column(row, rho_row, rho_col, tol)
    gf = complex(g_const).conjugate() * complex(f_const)
    value, abs_err = gf * col[0], abs(gf) * col[1]
    if not (math.isfinite(abs_err) and cmath.isfinite(value)):
        raise DomainError("gram requires finite value and error")
    return QuadResult(value, abs_err, col[2])


def _gram_column(row, rho_row, rho_col, tol):
    """gram's (value, abs_err, evals) at f = g = 1 on a built row: the
    check of rho_col, S and the outer run."""
    rs, cum, w1, d1 = rho_row.conjugate(), row.cum, row.w1, row.d1
    if rho_col not in (rho_row, 1 - rs):
        _require_zero(rho_col, "rho_col")
    k_exp = CLD(2 * (rs + rho_col) - 2)
    s_terms = 2.0 * row.w_terms / (CLD(2 * rho_col) + 2 * np.arange(63))

    def c_w_and_bound(u):
        key = u.view(np.uint8).reshape(len(u), -1)[:, :10].tobytes()
        if (held := row.held.get(key)) is None:
            held = row.held[key] = cum.query_lo_many(u)
        w, e_in = held
        c = 2.0 * np.exp(k_exp * u)
        return np.stack([c * (w1 + w), np.abs(c) * (e_in + d1)])

    res = integrate_finite(c_w_and_bound, 0.0, row.ln_u, tol)
    return (complex(s_terms.sum() + res.value[0]),
            2.0 * res.abs_err + float(res.value[1].real)
            + 16 * _EPS_LD * float(np.abs(s_terms).sum())
            + math.exp(-(row.upper * row.upper)) + row.anchor,
            res.evals + cum.evals)


def gram_matrix(rhos, tol: float = 1e-18):
    """All pairings of the given zeros at f = g = 1, row-major
    deterministic order: each row's inner integral is built once and
    serves every column; a held row keeps its columns' outer runs."""
    return [[gram(r, c, tol=tol) for c in rhos] for r in rhos]
