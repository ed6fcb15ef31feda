"""Scalar special functions used everywhere else in the package.

Contents: exact Bernoulli numbers (B_1 = +1/2 convention), the Taylor
coefficients c_m of x/(1+e^{-x}), Laguerre polynomials, the Bessel
function J0, the complex Gamma function, the Dirichlet eta function and
the Riemann zeta function with its derivative.

All functions are pure and deterministic.  Working region is the strip
0 < Re(s), |Im(s)| <= 60 unless stated otherwise.
"""

from __future__ import annotations

import cmath
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


@lru_cache(maxsize=8)
def _bernoulli_list(m_max: int) -> tuple[Fraction, ...]:
    # Akiyama-Tanigawa transform; yields the B_1 = +1/2 convention directly.
    acc = [Fraction(0)] * (m_max + 1)
    out = []
    for m in range(m_max + 1):
        acc[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            acc[j - 1] = j * (acc[j - 1] - acc[j])
        out.append(acc[0])
    return tuple(out)


def _bernoulli_any(m: int) -> Fraction:
    if m < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if m > _BERNOULLI_HARD_CAP:
        raise CapabilityError(
            f"Bernoulli numbers supported up to m={_BERNOULLI_HARD_CAP}, got {m}"
        )
    # Round the cache key up so repeated calls share one table.
    m_max = min(_BERNOULLI_HARD_CAP, ((m // 64) + 1) * 64)
    return _bernoulli_list(m_max)[m]


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


def _coefficient_table(m_max: int) -> np.ndarray:
    """c_0..c_{m_max} as float64, one rounding each.  Internal helper for
    the operator layer, which needs indices past the public cap."""
    return np.array([float(_series_coeff_exact(m)) for m in range(m_max + 1)])


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

_J0_SWITCH = 12.0  # ascending series below, Hankel asymptotics above


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
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def _lanczos(s: complex) -> complex:
    # Valid for Re(s) >= 1/2.
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (s - 1 + k)
    t = s + _LANCZOS_G - 0.5
    return math.sqrt(2 * math.pi) * t ** (s - 0.5) * cmath.exp(-t) * acc


def gamma(s) -> complex:
    """Complex Gamma function, relative error about 1e-13 on the strip.

    Lanczos approximation for Re(s) >= 1/2, reflection formula below.
    Nonpositive integer input raises PoleError carrying the integer.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleError(f"gamma pole at s = {int(s.real)}", location=s)
    if s.real >= 0.5:
        return _lanczos(s)
    # Gamma(s) Gamma(1-s) = pi / sin(pi s)
    return math.pi / (cmath.sin(math.pi * s) * _lanczos(1 - s))


# ---------------------------------------------------------------------------
# Dirichlet eta, Riemann zeta, and the zeta derivative


@lru_cache(maxsize=32)
def _borwein_weights(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Chebyshev-accelerated alternating-series weights.

    Returns (log(k+1) for k < n, w_k for k < n) with
    eta(s) ~ sum_k w_k (k+1)^{-s}.
    """
    d = [0] * (n + 1)
    acc = Fraction(0)
    for i in range(n + 1):
        if i == 0:
            term = Fraction(n, n)  # (n-1)! * n / n! = 1
        else:
            num = math.factorial(n + i - 1) * (4**i) * n
            den = math.factorial(n - i) * math.factorial(2 * i)
            term = Fraction(num, den)
        acc += term
        d[i] = acc
    dn = d[n]
    logs = tuple(math.log(k + 1) for k in range(n))
    weights = tuple(
        (-1.0 if k % 2 else 1.0) * float(Fraction(d[k], dn) - 1) * -1.0
        for k in range(n)
    )
    # w_k = (-1)^k (d_n - d_k)/d_n, folded into one sign above
    return logs, weights


def _borwein_terms(s: complex) -> int:
    # Calibrated so the truncation error stays below 1e-12 relative on
    # the strip sigma in (0, 4], |Im s| <= 60; worst measured 5.4e-13.
    sigma, t = s.real, abs(s.imag)
    penalty = max(0.0, 0.5 - sigma) * math.log(2 + t) * 1.5
    n = max(48, int((math.pi * t / 2 + penalty + 42) / 1.7627) + 12)
    return ((n // 16) + 1) * 16


def eta(s, terms: int | None = None) -> complex:
    """Dirichlet eta by accelerated alternating summation.

    Relative error <= 1e-12 for Re(s) > -1, |Im(s)| <= 60.
    """
    s = complex(s)
    if s.real <= -1:
        raise DomainError("eta() requires Re(s) > -1")
    n = terms if terms is not None else _borwein_terms(s)
    logs, weights = _borwein_weights(n)
    total = 0j
    for lg, w in zip(logs, weights):
        total += w * cmath.exp(-s * lg)
    return total


def eta_prime(s, terms: int | None = None) -> complex:
    """Derivative of eta, by term-by-term differentiation of the same
    accelerated sum used by eta()."""
    s = complex(s)
    if s.real <= -1:
        raise DomainError("eta_prime() requires Re(s) > -1")
    n = terms if terms is not None else _borwein_terms(s) + 16
    logs, weights = _borwein_weights(n)
    total = 0j
    for lg, w in zip(logs, weights):
        total += w * (-lg) * cmath.exp(-s * lg)
    return total


# The eta -> zeta division has spurious denominator zeros on the line
# Re(s) = 1 at s = 1 + 2 pi i k / ln 2; inside this guard band an
# Euler-Maclaurin evaluation takes over.
_FALLBACK_BAND = 0.05


def _em_zeta(s: complex, n_terms: int = 28, m_terms: int = 14) -> complex:
    # Euler-Maclaurin tail; truncation below 1e-14 for |Im s| <= 60.
    total = 0j
    for n in range(1, n_terms):
        total += cmath.exp(-s * math.log(n))
    big_n = float(n_terms)
    ln_n = math.log(big_n)
    total += cmath.exp((1 - s) * ln_n) / (s - 1)
    total += 0.5 * cmath.exp(-s * ln_n)
    poch = s  # (s)_1
    npow = cmath.exp((-s - 1) * ln_n)
    for j in range(1, m_terms + 1):
        b = float(_bernoulli_any(2 * j))
        total += b / math.factorial(2 * j) * poch * npow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        npow /= big_n * big_n
    return total


def _denom(s: complex) -> complex:
    return 1 - cmath.exp((1 - s) * math.log(2))


def zeta(s) -> complex:
    """Riemann zeta on Re(s) > 0, s != 1.

    Primary route eta(s)/(1 - 2^{1-s}); near the spurious denominator
    zeros s = 1 + 2 pi i k/ln 2 the Euler-Maclaurin fallback is used.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("zeta() requires Re(s) > 0")
    if s == 1:
        raise PoleError("zeta pole at s = 1", location=1 + 0j)
    den = _denom(s)
    if abs(den) < _FALLBACK_BAND:
        return _em_zeta(s)
    return eta(s) / den


def zeta_prime(s) -> complex:
    """zeta'(s) by the differentiated alternating series (primary) with
    an Euler-Maclaurin central-difference fallback near the spurious
    denominator zeros.  Relative error <= 1e-8 on the strip."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("zeta_prime() requires Re(s) > 0")
    if s == 1:
        raise PoleError("zeta pole at s = 1", location=1 + 0j)
    den = _denom(s)
    if abs(den) < _FALLBACK_BAND:
        h = 1e-5
        return (_em_zeta(s + h) - _em_zeta(s - h)) / (2 * h)
    dden = math.log(2) * cmath.exp((1 - s) * math.log(2))
    e = eta(s)
    ep = eta_prime(s)
    return ep / den - e * dden / (den * den)


def _one_minus_eta(s) -> complex:
    """1 - eta(s) without cancellation: for large Re(s) the difference
    is ~2^{-s}, far below the rounding floor of eta itself, so it is
    summed directly as sum_{k>=2} (-1)^k k^{-s}."""
    s = complex(s)
    if s.real < 4.0:
        return 1.0 - eta(s)
    kmax = int(2.0 * 10.0 ** (13.0 / s.real)) + 8
    k = np.arange(2, kmax + 2, dtype=np.float64)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    terms = signs * np.exp(-s * np.log(k))
    return complex(terms.sum())


def _zeta_pair(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) sharing one accelerated-series pass; the
    contour integrator calls this at thousands of points."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("requires Re(s) > 0")
    if s == 1:
        raise PoleError("zeta pole at s = 1", location=1 + 0j)
    den = _denom(s)
    if abs(den) < _FALLBACK_BAND:
        h = 1e-5
        return _em_zeta(s), (_em_zeta(s + h) - _em_zeta(s - h)) / (2 * h)
    n = _borwein_terms(s) + 16
    logs, weights = _borwein_weights(n)
    e = 0j
    ep = 0j
    for lg, w in zip(logs, weights):
        term = w * cmath.exp(-s * lg)
        e += term
        ep -= lg * term
    dden = math.log(2) * cmath.exp((1 - s) * math.log(2))
    return e / den, ep / den - e * dden / (den * den)


def eta_integral(s, tol: float = 1e-11):
    """The integral of t^{s-1}/(1+e^t) over (0, inf) by quadrature.

    Equals gamma(s)*eta(s); the quadrature route exists as an
    independent check of that identity.  Returns a QuadResult.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("eta_integral() requires Re(s) > 0")
    from .quad import IntegrandSpec, integrate_semi_infinite

    sm1 = np.clongdouble(s - 1)

    def f(t):
        return np.exp(sm1 * np.log(t)) / (1 + np.exp(t))

    spec = IntegrandSpec(endpoint_exponent=s.real, decay="exponential")
    return integrate_semi_infinite(f, spec, tol)
