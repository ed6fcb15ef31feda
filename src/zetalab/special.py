"""Special functions used everywhere else in the package.

Contents: exact Bernoulli numbers (B_1 = +1/2 convention), the Taylor
coefficients c_m of x/(1+e^{-x}), Laguerre polynomials, the Bessel
function J0, the complex Gamma function, and one Hurwitz-zeta engine
(_hurwitz) from which the Riemann zeta function, the Dirichlet eta
function, 1 - eta and their derivatives all come, each with a proven
error bound that covers rounding.

All functions are pure and deterministic.  Working region is the strip
0 < Re(s), |Im(s)| <= 60 unless stated otherwise; zeta and eta reach
|Im(s)| <= 1000 with bounds that grow like |s| eps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import CapabilityError, DomainError, PoleError

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
    "eta_integral",
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


def _laguerre_table(x, K):
    """(K, len(x)) array of L_0(x) .. L_{K-1}(x) from one recurrence
    pass."""
    return np.array(list(islice(_laguerre_rows(x), K)))


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

_J0_SWITCH = 12.0  # ascending series below, cosine integral at and above


def _j0_series(z):
    # Ascending series in extended precision; cancellation near z = 12
    # amplifies terms by ~4e3, which 80-bit arithmetic absorbs.
    z = np.asarray(z, dtype=np.longdouble)
    q = -(z * z) / 4
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, 42):
        term = term * q / (k * k)
        total = total + term
    return total


@lru_cache(maxsize=16)
def _cosine_rule(n: int):
    # Gauss-Legendre nodes mapped to [0, pi/2], extended precision.
    from .quad import _gauss_rule_longdouble

    x, w = _gauss_rule_longdouble(n)
    theta = (x + 1) * (PI_L / 4)
    return np.sin(theta), w * (PI_L / 4)


def _j0_largez(z):
    # J0(z) = (2/pi) * integral of cos(z sin(theta)) over [0, pi/2].
    # The integrand is entire, so Gauss-Legendre converges
    # super-exponentially once the node count outpaces the bandwidth.
    z = np.asarray(z, dtype=np.longdouble)
    zmax = float(np.max(z))
    n = min(1024, int(0.6 * zmax) + 48)
    sin_theta, w = _cosine_rule(n)
    vals = np.cos(np.outer(z, sin_theta))
    return (vals @ w) * (2 / PI_L)


def bessel_j0(z):
    """J0(z) for z >= 0, absolute accuracy better than 1e-13.

    Ascending series for z < 12; at and above the switch point the
    cosine integral representation is integrated by a fixed
    Gauss-Legendre rule in extended precision.  The two branches are
    overlap-tested on [10, 14].  Accepts scalars or arrays; returns
    float64.  Supported up to z = 1600.
    """
    arr = np.asarray(z, dtype=np.float64)
    if np.any(arr < 0):
        raise DomainError("bessel_j0 requires z >= 0")
    if np.any(arr > 1600):
        raise CapabilityError("bessel_j0 supports z <= 1600")
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat < _J0_SWITCH
    if np.any(small):
        out[small] = _j0_series(flat[small]).astype(np.float64)
    if np.any(~small):
        out[~small] = _j0_largez(flat[~small]).astype(np.float64)
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Gamma

# Lanczos approximation, g = 607/128, 15 coefficients.
_LANCZOS_G = 4.7421875
_LANCZOS_C = np.array([
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 3.3994649984811888699e-5,
    4.6523628927048575665e-5, -9.8374475304879564677e-5,
    1.5808870322491248884e-4, -2.1026444172410488319e-4,
    2.1743961811521264320e-4, -1.6431810653676389022e-4,
    8.4418223983852743293e-5, -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
])


def _lanczos(z):
    # Valid for Re(z) >= 1/2; z is a complex array.
    terms = _LANCZOS_C[1:] / (z[:, None] + np.arange(14))
    acc = _LANCZOS_C[0] + terms.sum(axis=1)
    t = z + (_LANCZOS_G - 0.5)
    return math.sqrt(2 * math.pi) * np.exp((z - 0.5) * np.log(t) - t) * acc


def gamma(s):
    """Complex Gamma function, relative error at most
    max(1e-13, 3 eps |s| ln|s|): a few roundings of the Lanczos exponent
    (s - 1/2) ln t - t.  Against mpmath at 3,000 seeded points with
    0.01 <= Re(s) <= 4 and |Im s| up to where Gamma(s) underflows, the
    worst was 0.45 of that charge (7.4e-13, near |Im s| = 450).

    Lanczos approximation for Re(s) >= 1/2, reflection formula below.
    Accepts a scalar (returns complex) or an array; a row of an array
    equals the scalar call bit for bit.  Nonpositive integer input
    raises PoleError carrying the integer, and a result that is not
    finite in double precision raises CapabilityError, as where the
    reflection's sin(pi s) overflows (Re(s) < 1/2, |Im s| >~ 226).
    """
    arr = np.asarray(s, dtype=complex)
    z = np.atleast_1d(arr).ravel()
    poles = z[(z.imag == 0) & (z.real <= 0) & (z.real == np.floor(z.real))]
    if poles.size:
        raise PoleError(f"gamma pole at s = {int(poles[0].real)}",
                        location=complex(poles[0]))
    left = z.real < 0.5
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _lanczos(np.where(left, 1 - z, z))
        # Gamma(s) Gamma(1-s) = pi / sin(pi s)
        out[left] = math.pi / (np.sin(math.pi * z[left]) * out[left])
    if not np.isfinite(out).all():
        raise CapabilityError(
            "gamma's reflection formula overflows in double precision "
            "(Re(s) < 1/2, |Im s| >~ 226)" if not np.isfinite(out[left]).all()
            else "gamma is not finite in double precision")
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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


@lru_cache(maxsize=16)
def _em_plan(shifts, coeffs, q, n):
    """Constants of one engine configuration: ln(q x) and the
    coefficient of each direct term x = a_j + k; per shift c_j, the
    tail start b_j = a_j + n, ln(q b_j), the Bernoulli factors
    B_2m/(2m)! b_j^{1-2m} and |d_j| = |ln(b_j/b_0)|; ln b_0; and the
    pole term's Taylor coefficients D_k = sum_j c_j d_j^k/k!,
    k = 1 .. K, with those of its derivative (K = 1 and D = 0 for one
    shift)."""
    a, c = np.array(shifts), np.array(coeffs)
    b = a + n
    m = np.arange(1, _EM_M + 1)
    bern = np.array([float(_bernoulli_any(2 * i) / math.factorial(2 * i))
                     for i in m])
    d = np.log1p((b - b[0]) / b[0])
    k = np.arange(1, (_POLE_TERMS if len(a) > 1 else 1) + 1)
    D = (c[:, None] * d[:, None] ** k).sum(axis=0) / np.array(
        [math.factorial(i) for i in k], dtype=float)
    return (np.log(q * (a[:, None] + np.arange(n))).ravel(), np.repeat(c, n),
            c, b, np.log(q * b), bern * b[:, None] ** (1.0 - 2 * m),
            np.abs(d), math.log(b[0]), D, D[1:] * k[:-1])


def _hurwitz(s, shifts, coeffs, q=1, deriv=False, bound=True):
    """q^{-s} sum_j c_j zeta(s, a_j) for a 1-D complex array s with
    Re(s) > -1, and a bound on its absolute error: (value, bound), or
    with deriv=True (value, bound, d/ds value, bound).  bound=False
    skips the bounds' block and returns None for each, same value bits.

    Euler-Maclaurin summation: for each shift, n direct terms
    (q(a_j + k))^{-s}, then from b_j = a_j + n the terms
    (q b_j)^{-s}(1/2 + sum_m B_2m/(2m)! (s)_{2m-1} b_j^{1-2m}) and the
    pole term q^{-s} sum_j c_j b_j^{1-s}/(s-1).  That last is summed as
    -q^{-s} b_0^u (C/u + sum_k D_k u^{k-1}) with u = 1 - s and
    C = sum_j c_j, so where C = 0 (eta, 1 - eta) it has no pole and
    s = 1 needs no branch.  The bound adds Johansson's remainder
    |R_j| <= 4|(s)_2M|/(2 pi)^2M b_j^{-sigma-2M+1}/(sigma+2M-1)
    (Numer. Algorithms 69, 2015, Thm 1) times q^{-sigma}, for the
    derivative Cauchy's estimate of it on the circle of radius
    1/ln(q b_j), the Taylor truncation, and a rounding charge of
    4 eps (|s| |ln x| + 2M) per term x^{-s}, which covers the rounding
    of each term's argument.  Each row depends on its own s and on n
    only, so with n = 28 (all |Im s| <= 60) a row of a batch equals a
    one-element call bit for bit.
    """
    tau = float(np.abs(s.imag).max())
    if not tau <= _EM_TAU_CAP:
        raise CapabilityError(
            f"zeta and eta support |Im s| <= {_EM_TAU_CAP:g}, got {tau:g}")
    n = _EM_N if tau <= _EM_TAU else math.ceil(_EM_N * tau / _EM_TAU)
    lg, w, c, b, lqb, kap, d, lb0, D, dD = _em_plan(shifts, coeffs, q, n)
    col, mm, K = s[:, None], 2 * _EM_M, len(D)
    u, C = 1 - s, float(c.sum())
    # (s)_{2m-1} = s Q_m with Q_m = (s+1) ... (s+2m-2).
    F = col * _POCH_MASK + _POCH_OFFS
    Q = np.cumprod(F, axis=1)[:, ::2]
    t = w * np.exp(-col * lg)
    corr = (col * Q)[:, None, :] * kap
    bsum = 0.5 + corr.sum(axis=2)
    bs = c * np.exp(-col * lqb)
    cu = C / u if C else 0
    upow = u[:, None] ** np.arange(K)
    pt, dpt = upow * D, upow[:, :-1] * dD
    inner = pt.sum(axis=1) + cu
    b0u = np.exp(lb0 - s * lqb[0])          # q^{-s} b_0^u
    val = t.sum(axis=1) + (bs * bsum).sum(axis=1) - b0u * inner
    if deriv:
        cu2 = C / (u * u) if C else 0
        # d/ds (s)_{2m-1} = Q_m (1 + s sum_{1 <= i <= 2m-2} 1/(s+i)).
        hs = np.cumsum(_POCH_MASK / F, axis=1)[:, ::2]
        dcorr = (Q * (1 + col * hs))[:, None, :] * kap
        dt = -lg * t
        der = (dt.sum(axis=1)
               + (bs * (dcorr.sum(axis=2) - lqb * bsum)).sum(axis=1)
               + b0u * (lqb[0] * inner + dpt.sum(axis=1) - cu2))
    if not bound:
        return (val, None, der, None) if deriv else (val, None)

    # Bound: rounding, Taylor truncation, Euler-Maclaurin remainder.
    sig, big, ab0u = s.real[:, None], np.abs(col), np.abs(b0u)
    x = np.abs(u)[:, None] * d
    # |q^{-s} b_0^u| times the Taylor truncation; one exp avoids overflow.
    trunc = (np.abs(c) * d * x ** (K - 1) * np.exp(x + lb0 - sig * lqb[0])
             / math.factorial(K))

    def rounding(terms, tails, pole):
        return 4 * _EPS * (
            (np.abs(terms) * (big * np.abs(lg) + mm)).sum(axis=1)
            + (tails * (big * lqb + mm)).sum(axis=1)
            + ab0u * pole * (big[:, 0] * lqb[0] + mm))

    pole_mag = np.abs(pt).sum(axis=1) + np.abs(cu)
    bmag = np.abs(bs) * (0.5 + np.abs(corr).sum(axis=2))
    rem = (4 / (2 * math.pi) ** mm * np.abs(c) * np.exp(-sig * lqb)
           * b ** (1.0 - mm) / (sig + mm - 1))
    poch = (big * np.abs(Q[:, -1:] * (col + mm - 1)))[:, 0]  # |(s)_2M|
    err = (rounding(t, bmag, pole_mag) + (x / (K + 1) * trunc).sum(axis=1)
           + poch * rem.sum(axis=1))
    if not deriv:
        return val, err
    r = 1 / lqb
    span = (np.abs(col + np.arange(mm))[:, None, :] + r[:, None]).prod(axis=2)
    derr = (rounding(dt, np.abs(bs) * np.abs(dcorr).sum(axis=2) + lqb * bmag,
                     lqb[0] * pole_mag + np.abs(dpt).sum(axis=1) + np.abs(cu2))
            + ((lqb[0] * x / (K + 1) + d) * trunc).sum(axis=1)
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


def _one_minus_eta(s):
    """(1 - eta(s), bound) as arrays.  The Hurwitz difference keeps its
    relative accuracy at large Re(s), where 1 - eta(s) ~ 2^{-s} lies far
    below the rounding floor of eta itself."""
    return _hurwitz(_batch(s, "1 - eta"), *_ONE_MINUS_ETA)


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
    """zeta'(s) on the same domain, |s - 1| >= 1.5e-154: the derivative
    half of _zeta_pair, with the same bound and accuracy as zeta."""
    return complex(_zeta_pair(s)[1][0])


def _zeta_pair(s):
    """(zeta(s), zeta'(s)) as arrays from one engine call over the
    array s; count_zeros calls this once per integrand call."""
    val, _, der, _ = _hurwitz(_batch(s, "zeta'", 0, 2), *_ZETA, deriv=True,
                              bound=False)
    return val, der


def eta_integral(s):
    """The integral of t^{s-1}/(1+e^t) over (0, inf) by quadrature, to
    absolute tolerance 1e-11.

    Equals gamma(s)*eta(s); the quadrature route exists as an
    independent check of that identity.  Returns a QuadResult.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("eta_integral() requires Re(s) > 0")
    from .quad import integrate_semi_infinite

    sm1 = np.clongdouble(s - 1)

    def f(t):
        return np.exp(sm1 * np.log(t)) / (1 + np.exp(t))

    return integrate_semi_infinite(f, s.real, 1e-11)
