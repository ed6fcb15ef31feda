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
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError
from .quad import (
    CLD,
    LD,
    CumulativeIntegral,
    IntegrandSpec,
    QuadResult,
    integrate_finite,
    integrate_nested,
    integrate_semi_infinite,
)
from .special import (
    EULER_GAMMA,
    _laguerre_table,
    _one_minus_eta,
    bessel_j0,
    eta,
    gamma,
    zeta,
    zeta_prime,
)

__all__ = [
    "StateParams",
    "GramEntry",
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
_EPS64 = float(np.finfo(np.float64).eps)
_EPS_LD = float(np.finfo(LD).eps)

# eta() is documented for |Im s| <= 60; past that psi runs quadrature.
_SERIES_TAU_MAX = 60.0
# Longest Laguerre series psi sums before it falls back to quadrature.
_SERIES_TERMS_MAX = 512
# Share of tol granted to the series truncation.
_SERIES_TAIL_SHARE = 1.0 / 256.0


@dataclass(frozen=True)
class StateParams:
    """Spectral parameter and the two normalization constants."""

    s: complex
    f_const: complex = 1.0
    g_const: complex = 1.0

    def __post_init__(self):
        if complex(self.s).real <= 0:
            raise DomainError("StateParams requires Re(s) > 0")


@dataclass(frozen=True)
class GramEntry:
    rho_row: complex
    rho_col: complex
    value: complex
    abs_err: float

    def __post_init__(self):
        if not (math.isfinite(self.abs_err) and cmath.isfinite(self.value)):
            raise DomainError("GramEntry requires finite value and error")


def amplitude_F(p: StateParams, t: float) -> complex:
    """f * t^{s-1} / (1 + e^t).

    t = 0 is allowed only where the power has a limit: zero for
    Re(s) > 1, f/2 at s = 1 exactly.
    """
    s = complex(p.s)
    if t < 0:
        raise DomainError("amplitude_F requires t >= 0")
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


def _gamma_ratios(s: complex):
    """Gamma(n+s)/n! for n = 0, 1, 2, ... by the forward recurrence
    q_{n+1} = q_n (n+s)/(n+1), started from Gamma(s)."""
    q = gamma(s)
    n = 0
    while True:
        yield q
        q = q * (n + s) / (n + 1)
        n += 1


def _psi_tilde_coefficients(s: complex, K: int, f_const: complex):
    """(a, a_err) for n < K: a_n = f Gamma(n+s)(1 - eta(n+s))/n!, the
    coefficients of psi_tilde in the orthonormal basis e^{-x/2} L_n(x),
    and a bound on the absolute error of each.

    The bound carries Gamma's 1e-13 relative error, a few roundings per
    recurrence step, and the error of 1 - eta(n+s): eta's 1e-12
    relative error times |eta| below Re 4, the direct sum's 1e-13
    relative error from Re 4 up.
    """
    a = []
    a_err = []
    for n, q in zip(range(K), _gamma_ratios(s)):
        ome = _one_minus_eta(n + s)
        a.append(f_const * q * ome)
        fq = abs(f_const * q)
        err = fq * abs(ome) * (1e-13 + 8 * (n + 2) * _EPS64)
        if n + s.real < 4.0:
            err += fq * 1e-12 * abs(1.0 - ome)
        else:
            err += fq * abs(ome) * 1e-13
        a_err.append(err)
    return np.asarray(a, dtype=np.complex128), np.asarray(a_err)


def _series_tail(K: int, q_abs: float, sigma: float, tau: float) -> float:
    """Bound on sum_{n>=K} |Gamma(n+s)(1 - eta(n+s))/n!| given
    q_abs = |Gamma(K+s)/K!|; inf where the bound does not hold yet.

    |1 - eta(z)| <= 2^{-x}(1 + 2/(x-1)) for x = Re z > 1, a bound that
    at least halves per unit step in x, and each further index
    multiplies |Gamma(n+s)/n!| by |n+s|/(n+1) <= max(n+sigma+tau,
    n+1)/(n+1), which does not grow with n.  So the terms from K on
    shrink at least geometrically by r = max(K+sigma+tau, K+1)/(2(K+1)).
    """
    x = K + sigma
    r = max(K + sigma + tau, K + 1.0) / (2.0 * (K + 1))
    if x <= 1.0 or r >= 1.0:
        return math.inf
    return q_abs * 2.0 ** -x * (1.0 + 2.0 / (x - 1.0)) / (1.0 - r)


def _psi_series(p: StateParams, x: float, tol: float):
    """psi(x) = sum_{n<K} a_n L_n(x) with an error bound, or None when
    no K up to _SERIES_TERMS_MAX brings the a-priori tail below
    tol * _SERIES_TAIL_SHARE.

    Szegő's bound |e^{-x/2} L_n(x)| <= 1 for x >= 0 (Orthogonal
    Polynomials (7.21.3)) turns the coefficient tail into a pointwise
    bound on psi_tilde, so the truncation error of psi is at most
    tail * e^{x/2}.  The L_n(x) and the sum are in extended precision;
    the recurrence's error in L_n is relative to max_{k<=n} |L_k(x)|,
    not to |L_n(x)|, which can sit near a root, so the rounding term
    weighs each |a_n| by that running maximum.
    """
    s = complex(p.s)
    fc = complex(p.f_const)
    weight = math.exp(-0.5 * x)
    need = tol * _SERIES_TAIL_SHARE * weight
    for K, q in enumerate(_gamma_ratios(s)):
        if K > _SERIES_TERMS_MAX:
            return None
        tail = _series_tail(K, abs(fc * q), s.real, abs(s.imag))
        if K > 0 and tail <= need:
            break
    a, a_err = _psi_tilde_coefficients(s, K, fc)
    lag = _laguerre_table(np.full(1, x, dtype=LD), K)[:, 0]
    value = complex(np.sum(a.astype(CLD) * lag))
    mag = np.abs(lag).astype(np.float64)
    size = float(np.abs(a) @ np.maximum.accumulate(mag))
    err = (tail / weight + float(a_err @ mag)
           + 8 * K * _EPS_LD * size + _EPS64 * abs(value))
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

    spec = IntegrandSpec(endpoint_exponent=s.real, decay="exponential")
    return integrate_semi_infinite(f, spec, tol)


def psi(p: StateParams, x: float, tol: float = 1e-10) -> QuadResult:
    """The Hankel-type transform of F: integral over t of
    F_s(t) J0(2 sqrt(x t)), as a QuadResult.

    The value is the Laguerre series psi(x) = sum_{n<K} a_n L_n(x) with
    the closed-form coefficients a_n = f Gamma(n+s)(1 - eta(n+s))/n!,
    K being the first index where the a-priori coefficient tail, times
    e^{x/2}, falls below tol/256.  abs_err bounds the truncation (the
    tail times e^{x/2}), the coefficient errors carried through
    |L_n(x)|, and the rounding of the sum; evals counts the terms
    summed.  Where that bound exceeds tol, or |Im s| > 60 (outside
    eta's documented range), the value comes from adaptive quadrature
    of the integral instead, and evals counts integrand evaluations.
    """
    if x < 0:
        raise DomainError("psi requires x >= 0")
    if abs(complex(p.s).imag) <= _SERIES_TAU_MAX:
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
    """g * t^{s-1} (1 + e^t) * integral_t^inf tau^{-s}/(1+e^tau) dtau.

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
    spec = IntegrandSpec(endpoint_exponent=1.0, decay="exponential")
    inner = integrate_semi_infinite(f, spec, tol * scale)
    pref = (
        complex(p.g_const)
        * cmath.exp((s - 1) * math.log(t))
        * (1.0 + math.exp(t))
    )
    return QuadResult(pref * inner.value, abs(pref) * inner.abs_err,
                      inner.evals)


def _require_zero(rho: complex, label: str):
    r = abs(zeta(rho))
    if not r < 1e-7:
        raise PreconditionError(
            f"{label} = {rho} is not a verified zero (|zeta| = {r:.3e})"
        )


def amplitude_G_rewritten(rho, t: float, g_const: complex = 1.0,
                          tol: float = 1e-12) -> QuadResult:
    """The rewritten adjoint amplitude
    -g - g t^{rho-1}(1+e^t) * integral_0^t tau^{-rho}/(1+e^tau)
    (rho + tau e^tau/(1+e^tau)) dtau,
    valid only at zeros (the rewrite uses the vanishing of zeta)."""
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

    pref = (
        complex(g_const)
        * cmath.exp((rho - 1) * math.log(t))
        * (1.0 + math.exp(t))
    )
    spec = IntegrandSpec(endpoint_exponent=1.0 - rho.real)
    inner = integrate_finite(f, 0.0, t, tol / max(abs(pref), 1.0), spec=spec)
    value = -complex(g_const) - pref * inner.value
    err = abs(pref) * inner.abs_err + 64 * float(np.finfo(LD).eps) * (
        1.0 + abs(value)
    )
    return QuadResult(value, err, inner.evals)


def norm_integral(c, tol: float = 1e-12) -> QuadResult:
    """integral_0^inf t^{c-2}/(1+e^t)^2 dt.

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

    spec = IntegrandSpec(endpoint_exponent=c.real - 1.0, decay="exponential")
    return integrate_semi_infinite(f, spec, tol)


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


def gram_diagonal_closed_form(rho, f_const: complex = 1.0,
                              g_const: complex = 1.0) -> complex:
    """GRAM_SIGN * (1 - 2^{1-rho}) Gamma(rho) zeta'(rho) * conj(g) f."""
    rho = complex(rho)
    den = 1 - cmath.exp((1 - rho) * _LN2)
    return (
        GRAM_SIGN
        * den
        * gamma(rho)
        * zeta_prime(rho)
        * complex(g_const).conjugate()
        * complex(f_const)
    )


def gram_diagonal_by_parts(rho, f_const: complex = 1.0,
                           g_const: complex = 1.0) -> complex:
    """-d/drho [Gamma(rho) eta(rho)], the integration-by-parts value of
    the diagonal, assembled from Gamma' (central difference) and eta'
    (product rule through zeta and zeta').  Keeps the Gamma' eta term,
    which matters only off an exact zero."""
    rho = complex(rho)
    h = 1e-6
    gp = (gamma(rho + h) - gamma(rho - h)) / (2 * h)
    den = 1 - cmath.exp((1 - rho) * _LN2)
    z = zeta(rho)
    e = den * z
    ep = _LN2 * cmath.exp((1 - rho) * _LN2) * z + den * zeta_prime(rho)
    return (
        -(gp * e + gamma(rho) * ep)
        * complex(g_const).conjugate()
        * complex(f_const)
    )


def gram_diagonal_log_moment(rho, tol: float = 5e-16) -> QuadResult:
    """The same by-parts diagonal as a quadrature:
    - integral_0^inf ln t * t^{rho-1}/(1+e^t) dt."""
    rho = complex(rho)
    rm1 = CLD(rho - 1)

    def f(t):
        t = np.asarray(t, dtype=LD)
        lt = np.log(t)
        return lt * np.exp(rm1 * lt) / (1.0 + np.exp(t))

    spec = IntegrandSpec(endpoint_exponent=rho.real, decay="exponential")
    res = integrate_semi_infinite(f, spec, tol)
    return QuadResult(-res.value, res.abs_err, res.evals)


def gram(rho_row, rho_col, f_const: complex = 1.0, g_const: complex = 1.0,
         tol: float = 1e-18, route: str = "tail",
         max_evals: int = 2_000_000) -> GramEntry:
    """The bilinear pairing
    conj(g) f * integral_0^inf t^{rho_row* + rho_col - 2}
                 (integral_0^t tau^{-rho_row*}/(1+e^tau) dtau) dt
    between an adjoint state at rho_row and a state at rho_col, both
    verified zeros.

    route="tail" (default) replaces the inner factor by
    -integral_t^inf, valid at zeros since the full integral
    Gamma(1-rho*) eta(1-rho*) vanishes there; the outer integrand then
    decays exponentially instead of passing through cancelling O(1)
    terms.  route="naive" integrates the printed inner direction and
    serves as the loose-tolerance oracle.

    Both routes run on square-root axes (t = u^2, tau = v^2), where the
    integrands become bounded log-oscillations.  One CumulativeIntegral
    of the inner integrand serves as integrate_nested's inner query:
    the tail route queries it from the low end below u = 1 (anchored at
    the analytically known total, w0 - query_lo_many) and from the high
    end above (query_hi_many); the naive route queries query_lo_many at
    sqrt(t).  gram adds its own analytic truncation tails to the
    nested result's error.
    """
    rho_row = complex(rho_row)
    rho_col = complex(rho_col)
    _require_zero(rho_row, "rho_row")
    _require_zero(rho_col, "rho_col")
    rs = rho_row.conjugate()
    refl = 1 - rs
    _require_zero(refl, "1 - conj(rho_row)")
    if route not in ("tail", "naive"):
        raise DomainError(f"unknown route {route!r}")

    a = rs + rho_col
    upper = math.sqrt(-math.log(tol) + 8.0)
    vmax = math.sqrt(upper * upper + 12.0)
    tail_v = math.exp(-vmax * vmax)
    one_m2rs = CLD(1 - 2 * rs)

    def inner_f(v):
        v = np.asarray(v, dtype=LD)
        return 2.0 * np.exp(one_m2rs * np.log(v)) / (1.0 + np.exp(v * v))

    cum = CumulativeIntegral(inner_f, 0.0, vmax, tol / 200.0,
                             max_evals=max_evals // 2, tail_bound=tail_v,
                             initial=32)
    # Full inner integral = Gamma(1-rho*) eta(1-rho*); tiny at a zero
    # but kept as the exact low anchor.
    w0 = complex(gamma(refl) * eta(refl))
    gf = complex(g_const).conjugate() * complex(f_const)

    if route == "tail":
        coef_exp = CLD(2 * a - 3)

        def outer_coef(u):
            return -(2.0 * np.exp(coef_exp * np.log(u)))

        def w_tilde(u):
            w = np.empty(u.shape, dtype=CLD)
            errs = np.empty(u.shape)
            lo = u < 1.0
            pre, errs[lo] = cum.query_lo_many(u[lo])
            w[lo] = CLD(w0) - pre
            w[~lo], errs[~lo] = cum.query_hi_many(u[~lo])
            return w, errs

        res = integrate_nested(outer_coef, w_tilde, tol, 0.0, upper,
                               max_evals)
        tail_outer = math.exp(-(upper * upper))
    else:
        # The printed lower-anchored inner, outer on the t axis.
        t_hi = upper * upper
        coef_exp = CLD(a - 2)

        def outer_coef(t):
            return np.exp(coef_exp * np.log(t))

        def w_lo(t):
            return cum.query_lo_many(np.sqrt(t))

        res = integrate_nested(outer_coef, w_lo, tol, 0.0, t_hi, max_evals)
        # Truncation: the true inner tends to w0, so the discarded tail
        # is the exponential remnant plus the w0 log-moment out to t_hi.
        tail_outer = math.exp(-t_hi) + abs(w0) * 80.0
    return GramEntry(rho_row, rho_col, gf * res.value,
                     abs(gf) * (res.abs_err + tail_outer))


def gram_matrix(rhos, f_const: complex = 1.0, g_const: complex = 1.0,
                tol: float = 1e-18):
    """All pairings of the given zeros, row-major deterministic order."""
    return [
        [gram(r, c, f_const=f_const, g_const=g_const, tol=tol) for c in rhos]
        for r in rhos
    ]
