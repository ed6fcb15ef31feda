"""Special functions used everywhere else in the package.

Contents: exact Bernoulli numbers (B_1 = +1/2 convention), the Taylor
coefficients c_m of x/(1+e^{-x}), Laguerre polynomials, the Bessel
function J0, Gamma and digamma from one long-double Stirling kernel,
and one Hurwitz-zeta engine (_hurwitz) from which zeta, eta,
1 - eta, their derivatives and psi's generating function all come,
each with a proven error bound that covers rounding.

All functions are pure and deterministic.  zeta (Re(s) > 0) and eta
(Re(s) > -1) reach |Im(s)| <= 1000, with bounds that grow like |s| eps
past 60; each other docstring states its own range.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import CapabilityError, DomainError, PoleError
from .quad import _EPS_LD

__all__ = [
    "bernoulli",
    "series_coeff",
    "laguerre",
    "bessel_j0",
    "gamma",
    "eta",
    "eta_prime",
    "zeta",
    "zeta_prime",
]

# Extended-precision constants (parsed by strtold, full 80-bit on x86).
PI_L = np.longdouble("3.14159265358979323846264338327950288")
EULER_GAMMA = 0.5772156649015328606

_BERNOULLI_PUBLIC_CAP = 64
_BERNOULLI_HARD_CAP = 256


# ---------------------------------------------------------------------------
# Bernoulli numbers and the c_m coefficient table


@lru_cache(maxsize=1)
def _bernoulli_table() -> tuple[Fraction, ...]:
    # B_0 .. B_256 from the integer tangent numbers T_k by Brent &
    # Harvey, "Fast computation of Bernoulli, tangent and secant
    # numbers" (2011): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    n = _BERNOULLI_HARD_CAP // 2
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (2 * n - 1)
    for k in range(1, n + 1):
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k],
                              4**k * (4**k - 1))
    return tuple(out)


def _bernoulli_any(m: int) -> Fraction:
    if m < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if m > _BERNOULLI_HARD_CAP:
        raise CapabilityError(
            f"Bernoulli numbers supported up to m={_BERNOULLI_HARD_CAP}, got {m}"
        )
    return _bernoulli_table()[m]


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m under the B_1 = +1/2 convention.

    Supported for 0 <= m <= 64; larger indices raise CapabilityError.
    """
    if m < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if m > _BERNOULLI_PUBLIC_CAP:
        raise CapabilityError(
            f"bernoulli() supports m <= {_BERNOULLI_PUBLIC_CAP}, got {m}"
        )
    return _bernoulli_any(m)


@lru_cache(maxsize=None)  # m <= _BERNOULLI_HARD_CAP; past it, raises
def _series_coeff_exact(m: int) -> Fraction:
    # c_m = B_m (2^m - 1) / m!, the Taylor coefficient of x/(1+e^{-x}).
    return _bernoulli_any(m) * (2**m - 1) / Fraction(math.factorial(m))


def series_coeff(m: int) -> float:
    """Taylor coefficient c_m of x/(1+e^{-x}), rounded once from the
    exact rational B_m (2^m - 1)/m!.  Supported for 0 <= m <= 64."""
    if m < 0:
        raise DomainError("coefficient index must be nonnegative")
    if m > _BERNOULLI_PUBLIC_CAP:
        raise CapabilityError(
            f"series_coeff() supports m <= {_BERNOULLI_PUBLIC_CAP}, got {m}"
        )
    return float(_series_coeff_exact(m))


# ---------------------------------------------------------------------------
# Laguerre polynomials


def _laguerre_rows(x):
    """L_0(x), L_1(x), L_2(x), ... for a floating array x, by the
    three-term recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1};
    each degree is computed only when it is asked for."""
    prev = np.ones_like(x)
    yield prev
    cur = 1 - x
    k = 1
    while True:
        yield cur
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        k += 1


def laguerre(n: int, x):
    """L_n(x) by the three-term recurrence
    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}.

    Accepts scalars or arrays; preserves the input floating dtype, so
    extended-precision arguments stay extended.  n <= 10^4.
    """
    if n < 0:
        raise DomainError("Laguerre degree must be nonnegative")
    if n > 10_000:
        raise CapabilityError(f"laguerre() supports n <= 10000, got {n}")
    arr = np.asarray(x)
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr).astype(
        arr.dtype if arr.dtype.kind in "fc" else np.float64
    )
    out = next(islice(_laguerre_rows(work), n, None))
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Bessel J0

def _j0_size(zmax: float) -> int:
    """The smallest even N with (zmax/2)^2N / (2N)! <= 2^-66."""
    n = 2
    while zmax > 0 and (2 * n * math.log2(zmax / 2)
                        - math.lgamma(2 * n + 1) / math.log(2) > -66):
        n += 2
    return n


def bessel_j0(z):
    """J0(z) for 0 <= z <= 1600: the N-point trapezoid sum of
    J0(z) = (1/pi) int_0^pi cos(z sin theta) dtheta in extended
    precision, folded on j <-> N - j to N/2 + 1 cosines a point.

    By Jacobi-Anger (DLMF 10.12.3) the sum is exactly
    J0(z) + 2 sum_{m>=1} J_2mN(z).  N is the smallest even number with
    (z_max/2)^2N / (2N)! <= 2^-66 for the batch's largest z, so by
    |J_nu(z)| <= (z/2)^nu / nu! (DLMF 10.14.4) the truncation is below
    2^-65 + 2^-130 = 2.7e-20.  Rounding adds at most 2 (z + 32) eps_LD
    (eps_LD = 1.1e-19): about z eps_LD from the phase z sin theta, and
    under N eps_LD / 2 < z eps_LD / 2 + 8 eps_LD from the sum.  Then
    the result is rounded once to float64.  Accepts scalars or arrays.
    """
    arr = np.asarray(z, dtype=np.float64)
    if not np.all(arr >= 0):  # NaN too: it would set N for the batch
        raise DomainError("bessel_j0 requires z >= 0")
    if np.any(arr > 1600):
        raise CapabilityError("bessel_j0 supports z <= 1600")
    n = _j0_size(float(arr.max(initial=0.0)))
    c = np.cos(np.outer(arr.astype(np.longdouble),
                        np.sin(PI_L * np.arange(n // 2 + 1) / n)))
    out = (c[:, 0] + c[:, -1] + 2 * c[:, 1:-1].sum(axis=1)) / n
    out = out.astype(np.float64).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gamma and digamma from one Stirling kernel


@lru_cache(maxsize=1)
def _stirling_terms():
    # B_2i / (2i (2i - 1)) rounded once to long double, i = 1 .. 13, and
    # matmul weights that sum t_i from 0 in order of i, and (2i - 1) t_i.
    c = [_bernoulli_any(2 * i) / (2 * i * (2 * i - 1)) for i in range(1, 14)]
    return (np.array([np.longdouble(f.numerator) / f.denominator for f in c]),
            np.stack([np.ones(13), np.arange(1.0, 27.0, 2.0)], axis=1))


def _stirling(s):
    """(Gamma(s), relative bound, digamma(s), absolute bound) for an array
    s with Re(s) > 0, in long double, each row as its one-element call.
    z = s + k, the first of s, s + 1, ..., s + 10 with |z| >= 10, takes
    ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum_{i<=13} t_i,
    t_i = B_2i / (2i (2i-1) z^{2i-1}), and its derivative digamma(z), and
    Gamma(s) = Gamma(z) / (s ... (s+k-1)), digamma(s) = digamma(z) - sum_j
    1/(s+j), j < k.  As |z| >= 10, |ph z| < pi/2, the remainders are below
    6 and 42 eps_LD: sec^28(ph(z)/2) |B_28| / (756 |z|^27) (DLMF 5.11(ii))
    and, from the integral of (B_28 - B~_28(t)) / (28 (z+t)^28) over t > 0
    with |z+t| >= (|z|+t) cos(ph(z)/2), 2 |B_28| sec^29(ph(z)/2) / (28
    |z|^28).  Rounding costs the exponent 8 eps_LD (|z| (|ln z| + 1) + 1),
    Gamma 4 eps_LD (k + 2) more, digamma 16 eps_LD (|ln z| + 1/|s| + 4.2)."""
    s = np.atleast_1d(np.asarray(s, dtype=np.clongdouble))
    if (s.real <= 0).any():
        raise DomainError("the Stirling kernel requires Re(s) > 0")
    (c, w), z, k, prod, back = _stirling_terms(), s, 0, 1, 0
    if (np.abs(s) < 10).any():              # s + j by repeated + 1
        Z = np.cumsum(np.hstack((s[:, None], np.ones((len(s), 10)))), 1)
        k = (np.abs(Z) < 10).sum(axis=1)
        prev, on = (np.arange(len(s)), k - 1), k > 0
        z = Z[prev[0], k]
        prod = np.where(on, np.cumprod(Z, axis=1)[prev], 1)
        back = np.where(on, np.cumsum(1 / Z, axis=1)[prev], 0)
    lnz, (ser, wser) = np.log(z), (c / z[:, None] ** w[:, 1] @ w).T
    g = np.exp((z - 0.5) * lnz - z + np.log(2 * PI_L) / 2 + ser) / prod
    dg = lnz - (0.5 + wser) / z - back
    az, alz = np.abs(z).astype(float), np.abs(lnz).astype(float)
    rel = np.expm1(8 * _EPS_LD * (az * (alz + 1) + 2)) + 4 * _EPS_LD * (k + 2)
    return g, rel, dg, 16 * _EPS_LD * (alz + 1 / np.abs(s).astype(float) + 8)


def _gamma(s):
    """(gamma(s), its relative bound); see gamma."""
    z = np.atleast_1d(arr := np.asarray(s, dtype=complex)).ravel()
    zl, left = z.astype(np.clongdouble), z.real <= 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, rel = _stirling(np.where(left, 1 - zl, zl))[:2]
        if left.any():
            m = np.rint(z.real[left])
            u = PI_L * (zl[left] - m)
            if (u == 0).any():
                raise PoleError(f"gamma pole at s = {int(m[u == 0][0])}",
                                location=complex(m[u == 0][0]))
            g[left] = PI_L / (np.sin(u) * (1 - 2 * (m % 2)) * g[left])
            rel[left] += 2 * _EPS_LD * (np.abs(u).astype(float) + 7)
        out = g.astype(complex).reshape(arr.shape)
        ok = np.isfinite(mag := np.abs(out)) & (mag >= _TINY)
    if not ok.all():
        raise CapabilityError(f"|gamma(s)| at s = {arr[~ok].flat[0]} is not "
                              f"a finite normal number in double precision")
    rel = rel.reshape(arr.shape) + _EPS
    return (complex(out), float(rel)) if arr.ndim == 0 else (out, rel)


def gamma(s):
    """Complex Gamma at every s but its poles, within the relative bound
    _gamma returns; a scalar gives a complex, an array an array whose rows
    equal scalar calls bit for bit.  Re(s) > 0 takes _stirling; below, the
    long-double reflection pi / (sin(pi s) Gamma(1 - s)), sin(pi s) =
    (-1)^m sin(u), u = pi (s - m), m = round(Re s), s - m exact.  1 - s
    rounds inside the kernel's charge, u by 2 eps_LD |u|, moving sin(u) by
    (1 + |u|) times that (|u cot u| <= 1 + |u|), and sin, pi and the
    division cost 12 eps_LD; rounding to float64, at most eps/sqrt(2) of
    |Gamma| even with a subnormal part.  Nonpositive integers raise
    PoleError with the integer; CapabilityError where |Gamma(s)| is not a
    finite normal double: Re(s) past 171.6, |Im s| past 452 at Re 1/2."""
    return _gamma(s)[0]


# ---------------------------------------------------------------------------
# One Dirichlet-series engine: zeta, eta, 1 - eta and their derivatives

# Euler-Maclaurin summation with _EM_M Bernoulli corrections after n
# direct terms per shift.  n = 28 keeps Johansson's remainder below
# about 6e-14 up to |Im s| = 60; beyond, n grows in proportion to the
# batch's largest |Im s|, up to the cap.
_EM_M = 14
_EM_N = 28
_EM_TAU = 60.0
_EM_TAU_CAP = 1000.0
# Taylor terms of the combined pole term of a multi-shift sum.
_POLE_TERMS = 20
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# cumprod of s * mask + offs gives 1, (s+1), (s+1)(s+2), ...
_POCH_MASK = np.r_[0.0, np.ones(2 * _EM_M - 2)]
_POCH_OFFS = np.r_[1.0, np.arange(1.0, 2 * _EM_M - 1)]


@lru_cache(maxsize=2)
def _em_bernoulli(dtype):
    """B_2m/(2m)!, m = 1 .. _EM_M, each rounded once to dtype from a
    28-digit decimal, shared read-only by every plan of that dtype."""
    bern = np.array([str(Decimal(f.numerator) / f.denominator) for f in (
        _bernoulli_any(2 * i) / math.factorial(2 * i)
        for i in range(1, _EM_M + 1))], dtype)
    bern.setflags(write=False)
    return bern


@lru_cache(maxsize=16)
def _em_plan(a, coeffs, q, n):
    """Constants of one engine configuration per row of the shifts a (a
    tuple is one row), in a's precision: ln(q x) and the coefficient of
    each direct term x = a_j + k; per shift c_j, the tail start
    b_j = a_j + n, ln(q b_j), the Bernoulli factors B_2m/(2m)!
    b_j^{1-2m} and |d_j| = |ln(b_j/b_0)|; ln b_0; and the pole term's
    Taylor coefficients D_k = sum_j c_j d_j^k/k!, k = 1 .. K, with those
    of its derivative (K = 1 and D = 0 for one shift)."""
    a, c = np.array([a]) if isinstance(a, tuple) else a, np.array(coeffs)
    b = a + n
    m, bern = np.arange(1, _EM_M + 1), _em_bernoulli(a.real.dtype)
    d = np.log1p((b - b[:, :1]) / b[:, :1])
    k = np.arange(1, (_POLE_TERMS if a.shape[1] > 1 else 1) + 1)
    D = (c[:, None] * d[..., None] ** k).sum(axis=1) / np.array(
        [math.factorial(i) for i in k], dtype=float)
    return (np.log(q * (a[..., None] + np.arange(n))).reshape(len(a), -1),
            np.repeat(c, n), c, b, np.log(q * b),
            bern * b[..., None] ** (1.0 - 2 * m),
            np.abs(d), np.log(b[:, 0]), D, D[:, 1:] * k[:-1])


def _hurwitz(s, shifts, coeffs, q=1, deriv=False, bound=True):
    """q^{-s} sum_j c_j zeta(s, a_j) for a 1-D complex array s with
    Re(s) > -1, and a bound on its absolute error: (value, bound), or
    with deriv=True (value, bound, d/ds value, bound).  bound=False
    skips the bounds' block and returns None for each, same value bits.
    shifts is a tuple of real a_j, or a (rows, J) array of complex a_j,
    Re a_j > 0, one set per row of s (value and bound only).  Both run
    in s's dtype: float64 for zeta and eta, clongdouble for psi's b_n.

    Euler-Maclaurin summation: for each shift, n direct terms
    (q(a_j + k))^{-s}, then from b_j = a_j + n the terms
    (q b_j)^{-s}(1/2 + sum_m B_2m/(2m)! (s)_{2m-1} b_j^{1-2m}) and the
    pole term q^{-s} sum_j c_j b_j^{1-s}/(s-1).  That last is summed as
    -q^{-s} b_0^u (C/u + sum_k D_k u^{k-1}) with u = 1 - s and
    C = sum_j c_j, so where C = 0 (eta, 1 - eta) it has no pole and
    s = 1 needs no branch.  The bound adds Johansson's remainder
    |R_j| <= 4|(s)_2M|/(2 pi)^2M b_j^{-sigma-2M+1}/(sigma+2M-1)
    (Numer. Algorithms 69, 2015, Thm 1; at complex b_j, Re b_j and a
    factor e^{max(0, Im s arg b_j)}) times q^{-sigma}, for the
    derivative Cauchy's estimate of it on the circle of radius
    1/ln(q b_j), the Taylor truncation, and a rounding charge of
    4 eps (|s| |ln x| + 2M) per term x^{-s}, which covers the rounding
    of each term's argument (at complex shifts, n >= 12 and 4 eps (|s|
    (|ln x| + 1) + 8) per direct term).  A row depends on its own s and
    shifts and on n only: with n = 28 (all |Im s| <= 60) a row of a
    batch equals a one-element call bit for bit.

    With real shifts and one Im s = tau in every row (the rows s + n of
    psi_tilde's coefficients, a one-element call), -s ln x splits into
    -sigma ln x and -tau ln x, the very products the complex one rounds,
    and the second is shared: each direct term is w cexp(-sigma ln x +
    0i), which skips sincos, times one row of cexp(-i tau ln x).  As
    glibc's cexp is (e^x cos y, e^x sin y), the bits are those of the
    one-factor line other batches take, up to the sign of an underflowed
    term, which a row's nonzero sum drops.  Not the float64 np.exp: its
    SIMD kernel rounds some elements unlike glibc and follows numpy's
    CPU dispatch.
    """
    tau = float(np.abs(s.imag).max())
    if not tau <= _EM_TAU_CAP:
        raise CapabilityError(
            f"zeta and eta support |Im s| <= {_EM_TAU_CAP:g}, got {tau:g}")
    n = max(_EM_N if isinstance(shifts, tuple) else 12,
            math.ceil(_EM_N * tau / _EM_TAU))
    plan = _em_plan if isinstance(shifts, tuple) else _em_plan.__wrapped__
    lg, w, c, b, lqb, kap, d, lb0, D, dD = plan(shifts, coeffs, q, n)
    col, mm, K = s[:, None], 2 * _EM_M, D.shape[1]
    eps = _EPS_LD if s.dtype == np.clongdouble else _EPS
    u, C, l0 = 1 - s, float(c.sum()), lqb[:, 0]
    # (s)_{2m-1} = s Q_m with Q_m = (s+1) ... (s+2m-2).
    F = col * _POCH_MASK + _POCH_OFFS
    Q = np.cumprod(F, axis=1)[:, ::2]
    if isinstance(shifts, tuple) and (s.imag == s.imag[0]).all():
        t = w * (np.exp((-col.real * lg).astype(s.dtype))
                 * np.exp(1j * (-s.imag[0] * lg)))
    else:
        t = w * np.exp(-col * lg)
    corr = (col * Q)[:, None, :] * kap
    bsum = 0.5 + corr.sum(axis=2)
    bs = c * np.exp(-col * lqb)
    cu = C / u if C else 0
    upow = u[:, None] ** np.arange(K)
    pt, dpt = upow * D, upow[:, :-1] * dD
    inner = pt.sum(axis=1) + cu
    b0u = np.exp(lb0 - s * l0)              # q^{-s} b_0^u
    val = t.sum(axis=1) + (bs * bsum).sum(axis=1) - b0u * inner
    if deriv:
        cu2 = C / (u * u) if C else 0
        # d/ds (s)_{2m-1} = Q_m (1 + s sum_{1 <= i <= 2m-2} 1/(s+i)).
        hs = np.cumsum(_POCH_MASK / F, axis=1)[:, ::2]
        dcorr = (Q * (1 + col * hs))[:, None, :] * kap
        dt = -lg * t
        der = (dt.sum(axis=1)
               + (bs * (dcorr.sum(axis=2) - lqb * bsum)).sum(axis=1)
               + b0u * (l0 * inner + dpt.sum(axis=1) - cu2))
    if not bound:
        return (val, None, der, None) if deriv else (val, None)

    # Bound: rounding, Taylor truncation, Euler-Maclaurin remainder.
    sig, big, ab0u = s.real[:, None], np.abs(col), np.abs(b0u)
    if lg.dtype.kind == "c":  # Re b_j and e^{max(0, Im s arg b_j)} in R_j
        alg, mt, alqb, sl0 = np.abs(lg) + 1, 8, np.abs(lqb), col * lqb[:, :1]
        ex = np.maximum(col.imag * np.angle(b), 0) - sig * np.log(q * b.real)
    else:
        alg, mt, alqb, sl0 = np.abs(lg), mm, lqb, sig * lqb[:, :1]
        ex = -sig * lqb
    # |q^{-s} b_0^u| times the Taylor truncation; one exp avoids overflow.
    tr = dtr = 0  # d = 0 for one shift: the truncation terms are exactly 0
    if K > 1:
        x = np.abs(u)[:, None] * d
        trunc = (np.abs(c) * d * x ** (K - 1) * np.exp(
            x + lb0.real[:, None] - sl0.real) / math.factorial(K))
        tr = (x / (K + 1) * trunc).sum(axis=1)
        if deriv:
            dtr = ((lqb[:, :1] * x / (K + 1) + d) * trunc).sum(axis=1)

    def rounding(terms, tails, pole):
        return 4 * eps * (
            (np.abs(terms) * (big * alg + mt)).sum(axis=1)
            + (tails * (big * alqb + mm)).sum(axis=1)
            + ab0u * pole * (big[:, 0] * alqb[:, 0] + mm))

    pole_mag = np.abs(pt).sum(axis=1) + np.abs(cu)
    bmag = np.abs(bs) * (0.5 + np.abs(corr).sum(axis=2))
    rem = (4 / (2 * math.pi) ** mm * np.abs(c) * np.exp(ex)
           * b.real ** (1.0 - mm) / (sig + mm - 1))
    poch = (big * np.abs(Q[:, -1:] * (col + mm - 1)))[:, 0]  # |(s)_2M|
    err = rounding(t, bmag, pole_mag) + tr + poch * rem.sum(axis=1)
    if not deriv:
        return val, err
    r = 1 / lqb
    span = (np.abs(col + np.arange(mm))[:, None] + r[..., None]).prod(2)
    derr = (rounding(dt, np.abs(bs) * np.abs(dcorr).sum(axis=2) + lqb * bmag,
                     l0 * pole_mag + np.abs(dpt).sum(axis=1) + np.abs(cu2))
            + dtr
            + (math.e / r * span * rem * (sig + mm - 1)
               / (sig - r + mm - 1)).sum(axis=1))
    return val, err, der, derr


# zeta = zeta(s, 1), eta = 2^{-s}[zeta(s, 1/2) - zeta(s, 1)] (that is,
# (1 - 2^{1-s}) zeta) and 1 - eta = 2^{-s}[zeta(s, 1) - zeta(s, 3/2)].
_ZETA = ((1.0,), (1.0,), 1)
_ETA = ((0.5, 1.0), (1.0, -1.0), 2)
_ONE_MINUS_ETA = ((1.0, 1.5), (1.0, -1.0), 2)


def _batch(s, name: str, lowest: float = -1, pole: int = 0):
    """s as a 1-D complex array after the guards Re(s) > lowest and
    |s| <= 1e10 (past about 1e11, |(s)_2M| in _hurwitz's bound
    overflows), and |s - 1|^pole >= the smallest normal double, so that
    a pole term 1/(s-1)^pole stays finite."""
    z = np.atleast_1d(np.asarray(s, dtype=complex))
    if not np.all(z.real > lowest):
        raise DomainError(f"{name} requires Re(s) > {lowest:g}")
    if not np.all(np.abs(z) <= 1e10):
        raise CapabilityError(f"{name} supports |s| <= 1e10")
    if pole:
        gap = _TINY ** (1 / pole)
        near = complex(z[np.argmin(np.abs(z - 1))])
        if abs(near - 1) < gap:
            raise PoleError(f"{name} pole at s = 1: |s - 1| < {gap:.3g} at "
                            f"s = {near}", location=1 + 0j)
    return z


def eta(s) -> complex:
    """Dirichlet eta on Re(s) > -1, |Im(s)| <= 1000, from the Hurwitz
    engine; regular at s = 1.  On 0 < Re(s) <= 4, |Im(s)| <= 60 the
    engine's bound is below 1e-11 relative to max(|eta|, 1) (measured
    errors stay under 1e-13); beyond, it grows like |s| eps."""
    return complex(_hurwitz(_batch(s, "eta()"), *_ETA, bound=False)[0][0])


def eta_prime(s) -> complex:
    """Derivative of eta, the engine's sums differentiated term by term,
    with the same bound and accuracy as eta."""
    return complex(_hurwitz(_batch(s, "eta_prime()"), *_ETA, deriv=True,
                            bound=False)[2][0])


def _one_minus_eta(s, bound=True):
    """(1 - eta(s), bound) as arrays, the bound None where bound=False.
    The Hurwitz difference keeps its relative accuracy at large Re(s),
    where 1 - eta(s) ~ 2^{-s} lies far below the rounding floor of eta
    itself."""
    return _hurwitz(_batch(s, "1 - eta"), *_ONE_MINUS_ETA, bound=bound)


def zeta(s) -> complex:
    """Riemann zeta on Re(s) > 0, |Im(s)| <= 1000, |s - 1| >= 2.2e-308
    (the smallest normal double, so 1/(s-1) is finite): the Hurwitz
    zeta(s, 1) by Euler-Maclaurin summation with a proven remainder.
    On 0 < Re(s) <= 4, |Im(s)| <= 60 the engine's bound, rounding
    included, is below 1e-11 relative to max(|zeta|, 1) (measured
    errors stay under 1e-13); beyond, it grows like |s| eps."""
    return complex(_hurwitz(_batch(s, "zeta", 0, 1), *_ZETA,
                            bound=False)[0][0])


def zeta_prime(s) -> complex:
    """zeta'(s) on zeta's domain, |s - 1| >= 1.5e-154: the engine's sums
    differentiated term by term, with zeta's bound and accuracy."""
    return complex(_hurwitz(_batch(s, "zeta'", 0, 2), *_ZETA, deriv=True,
                            bound=False)[2][0])
