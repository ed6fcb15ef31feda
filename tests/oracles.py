"""Independent references for the test suite.

Three kinds live here: frozen literals computed once with 40-digit
arithmetic (mpmath); small reimplementations that share no code with
the package (the Taylor-division coefficient oracle, the
alternating-series norm oracle, the scalar Borwein loops, the scalar
Neumaier sum); and one cross route assembled from package primitives
that bypasses the code it checks (the x-side Laguerre coefficients).
Tests compare package output against these, never against the package
itself.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import mpmath as mp
import numpy as np

mp.mp.dps = 40

# The thirteen nontrivial zero ordinates below 60, rounded from 30-digit
# values.
ZERO_TAUS = (
    14.134725141734695,
    21.022039638771555,
    25.010857580145688,
    30.424876125859513,
    32.935061587739190,
    37.586178158825671,
    40.918719012147495,
    43.327073280914999,
    48.005150881167159,
    49.773832477672302,
    52.970321477714464,
    56.446247697063395,
    59.347044002602353,
)

RHO1 = complex(0.5, ZERO_TAUS[0])
RHO2 = complex(0.5, ZERO_TAUS[1])

# Exact Bernoulli values in the B(1) = +1/2 convention.
BERNOULLI = {
    0: Fraction(1),
    1: Fraction(1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}

ZETA_HALF = -1.4603545088095868
ZETA_PRIME_2 = -0.93754825431584377
J0_10 = -0.24593576445134835
J0_ROOT1 = 2.4048255576957729
XI_HALF = 0.49712077818831346
PSI_S2_AT_1 = -0.044155938134083604
GTAIL_RHO1_30 = complex(0.027338700279743826, -0.012408186222923378)
PAPER_NORM_2 = 0.158151287891165
PAPER_NORM_1_LIMIT = 0.1293198528641679
NORM_INT = {2.0: 0.19314718055994531, 2.5: 0.14201643018300533,
            4.0: 0.158151287891165}
# sigma * (1 - 2^{1-rho}) Gamma(rho) zeta'(rho) at the first two zeros,
# with the measured global sign sigma = -1 applied.
GRAM_DIAG1 = complex(3.3482301137527432e-10, 1.0213177757552724e-09)
GRAM_DIAG2 = complex(-2.3066808807026984e-14, 1.3249566543350751e-14)


def taylor_coefficients(m_max: int):
    """Coefficients of 2x/(1-e^{-2x}) - x/(1-e^{-x}) by power-series
    division in exact rational arithmetic; index m from 0 to m_max."""

    def inverse_series(scale: int):
        # (1 - e^{-scale x})/(scale x) = sum_k (-scale)^k x^k/(k+1)!
        a = []
        fact = 1
        for k in range(m_max + 1):
            fact *= k + 1
            a.append(Fraction((-scale) ** k, fact))
        b = [Fraction(1)]
        for n in range(1, m_max + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += a[k] * b[n - k]
            b.append(-acc)
        return b

    one = inverse_series(1)
    two = inverse_series(2)
    return [t - o for t, o in zip(two, one)]


def h_tilde_oracle(K: int) -> np.ndarray:
    """The K x K truncation of H~ = iN - iN_minus - i sum_m c_m (N_minus)^m
    entry by entry from mpmath's exact Bernoulli numbers: the (n, n+m)
    entry is -i B_m (2^m - 1) C(n+m, m) for m >= 2, rounded once from
    the exact rational.  mpmath uses B_1 = -1/2, so the first band is
    written out: the shift -i(n+1) plus c_1 = +1/2 times (n+1)."""
    out = np.zeros((K, K), dtype=complex)
    for n in range(K):
        out[n, n] = complex(0.0, n + 0.5)
        if n + 1 < K:
            out[n, n + 1] = complex(0.0, -1.5 * (n + 1))
    for m in range(2, K):
        p, q = (int(v) for v in mp.bernfrac(m))
        for n in range(K - m):
            v = Fraction(p * (2**m - 1) * math.comb(n + m, m), q)
            if v:
                out[n, n + m] = complex(0.0, -float(v))
    return out


def mp_zeta(s) -> complex:
    return complex(mp.zeta(complex(s)))


def mp_zeta_prime(s) -> complex:
    return complex(mp.zeta(complex(s), derivative=1))


def mp_eta(s) -> complex:
    return complex(mp.altzeta(complex(s)))


def mp_one_minus_eta(s) -> complex:
    # Subtract at working precision; in double the difference cancels.
    # 1 - eta(s) ~ 2^{-s}, so the working precision grows with Re(s).
    s = complex(s)
    with mp.workdps(40 + int(0.31 * max(s.real, 0.0))):
        return complex(1 - mp.altzeta(s))


def mp_eta_derivative(s) -> complex:
    # mpmath's numerical derivative at the working precision.
    return complex(mp.diff(mp.altzeta, mp.mpc(complex(s))))


def mp_eta_prime(s, h: float = 1e-8) -> complex:
    return complex((mp.altzeta(complex(s) + h) - mp.altzeta(complex(s) - h))
                   / (2 * h))


def mp_gamma(s) -> complex:
    return complex(mp.gamma(complex(s)))


def mp_j0(x) -> float:
    return float(mp.besselj(0, x))


def mp_laguerre(n, x) -> float:
    return float(mp.laguerre(n, 0, x))


def norm_alternating_oracle(s) -> complex:
    """Gamma(s) sum_{k>=2} (-1)^k (k-1) k^{-s}, summed directly at
    high precision; the e^{-t}/(1+e^{-t})^2 weight expanded in powers
    of e^{-t} gives exactly this series."""
    s = complex(s)
    total = mp.nsum(lambda k: (-1) ** k * (k - 1) / mp.mpc(k) ** s,
                    [2, mp.inf], method="a")  # alternating acceleration
    return complex(mp.gamma(s) * total)


def laguerre_coefficient_oracle(s, n: int) -> complex:
    """Direct t-quadrature of the e^{-x} weight kernel e^{-t} t^n/n!
    against t^{s-1}/(1+e^t) at 40 digits."""
    s = mp.mpc(complex(s))
    f = lambda t: t ** (s - 1) / (1 + mp.e ** t) * mp.e ** (-t) \
        * t ** n / mp.factorial(n)
    return complex(mp.quad(f, [0, 1, 5, 20, 60]))


def psi_series_oracle(s, x, target: float = 1e-20, rounded: bool = True):
    """(psi(x), error bound) from the Laguerre series
    sum_n Gamma(n+s)(1 - eta(n+s))/n! L_n(x) summed at 40 digits; the
    value is rounded to a complex double unless rounded is False.

    Each 1 - eta(n+s) ~ 2^{-n-s} is taken at 40 + 0.31 (n + Re s)
    digits, as in mp_one_minus_eta, so it keeps 40 digits of its own.
    The tail past the last term is bounded through
    |1 - eta(z)| <= 2^{-Re z}(1 + 2/(Re z - 1)), the ratio
    |n+s|/(n+1) of consecutive Gamma(n+s)/n!, and Szegő's
    |L_n(x)| <= e^{x/2}; summing stops once that bound is below target.
    """
    s = mp.mpc(complex(s))
    x = mp.mpf(x)
    sigma, tau = s.real, abs(s.imag)
    grow = mp.exp(x / 2)
    q = mp.gamma(s)
    l_prev, l_cur = mp.mpf(0), mp.mpf(1)
    total = mp.mpc(0)
    size = mp.mpf(0)
    n = 0
    while True:
        re_z = n + sigma
        r = max(n + sigma + tau, n + 1) / (2 * (n + 1))
        if re_z > 1 and r < 1:
            tail = abs(q) * mp.power(2, -re_z) * (1 + 2 / (re_z - 1)) / (1 - r)
            if tail * grow < target:
                break
        with mp.workdps(40 + int(0.31 * re_z)):
            ome = 1 - mp.altzeta(n + s)
        term = q * ome * l_cur
        total += term
        size += abs(term)
        l_prev, l_cur = l_cur, ((2 * n + 1 - x) * l_cur - n * l_prev) / (n + 1)
        q = q * (n + s) / (n + 1)
        n += 1
    return (complex(total) if rounded else total,
            float(tail * grow + size * mp.mpf(10) ** -35))


def psi_coefficient_oracle(s, n: int) -> complex:
    """Coefficient b_n of psi in the orthonormal basis e^{-x/2} L_n(x),
    in closed form at 60 digits beyond the n digits the alternating sum
    can cancel:

        b_n = 2(-1)^n sum_{k<=n} C(n,k) (-4)^k/k! Gamma(s+k)
              (2^{-s-k} - (1 - eta(s+k))),

    from expanding L_n(4t) in powers of t and 1/(1+e^t) in powers of
    e^{-t} inside the t-integral of F against 2(-1)^n e^{-2t} L_n(4t).
    """
    with mp.workdps(60 + n):
        s = mp.mpc(complex(s))
        total = mp.mpc(0)
        for k in range(n + 1):
            z = s + k
            total += (mp.binomial(n, k) * mp.mpf(-4) ** k / mp.factorial(k)
                      * mp.gamma(z) * (mp.power(2, -z) - (1 - mp.altzeta(z))))
        return complex(2 * (-1) ** n * total)


def coefficients_direct(p, K: int, which: str, tol: float):
    """Laguerre coefficients of psi_tilde (or psi) for n < K by x-side
    quadrature of psi against the orthonormal basis e^{-x/2} L_n(x) on
    [0, 40].

    Every x-sample is itself a quadrature, so this route is slow by
    construction; tolerances are capped to keep it usable for small-K
    cross checks.  All K degrees are one stacked integral, so each
    sample serves every n.  The samples come from the quadrature psi,
    never the series, which is built on the kernel coefficients this
    route checks.
    """
    from zetalab.quad import integrate_finite
    from zetalab.special import _laguerre_rows
    from zetalab.states import _psi_quadrature

    inner_tol = min(tol, 1e-9)

    def f(xs):
        xs = np.asarray(xs, dtype=np.float64)
        vals = np.array([_psi_quadrature(p, float(x), inner_tol).value
                         for x in xs], dtype=np.complex128)
        weight = np.exp(-xs / 2.0)
        if which == "psi_tilde":
            vals = vals * weight
        table = np.array(list(islice(_laguerre_rows(xs), K)))
        return vals * weight * table

    return integrate_finite(f, 0.0, 40.0, max(tol, 1e-7)).value


# The scalar accelerated-series loops (P. Borwein, CMS Conf. Proc. 27,
# 2000) that computed eta, zeta and zeta' before the Hurwitz engine,
# kept verbatim as an independent route to them.

@lru_cache(maxsize=32)
def _borwein_weights(n: int):
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
    return logs, weights


def _borwein_terms(s: complex) -> int:
    sigma, t = s.real, abs(s.imag)
    penalty = max(0.0, 0.5 - sigma) * math.log(2 + t) * 1.5
    n = max(48, int((math.pi * t / 2 + penalty + 42) / 1.7627) + 12)
    return ((n // 16) + 1) * 16


def loop_eta(s) -> complex:
    s = complex(s)
    logs, weights = _borwein_weights(_borwein_terms(s))
    total = 0j
    for lg, w in zip(logs, weights):
        total += w * cmath.exp(-s * lg)
    return total


def loop_zeta_and_prime(s):
    """(zeta(s), zeta'(s)) by the accelerated loops, or None inside the
    band |1 - 2^{1-s}| < 0.05 where the division by that factor loses
    digits."""
    s = complex(s)
    den = 1 - cmath.exp((1 - s) * math.log(2))
    if abs(den) < 0.05:
        return None
    n = _borwein_terms(s) + 16
    logs, weights = _borwein_weights(n)
    e = 0j
    ep = 0j
    for lg, w in zip(logs, weights):
        term = w * cmath.exp(-s * lg)
        e += term
        ep -= lg * term
    dden = math.log(2) * cmath.exp((1 - s) * math.log(2))
    return loop_eta(s) / den, ep / den - e * dden / (den * den)


def neumaier(values):
    """The quadrature engine's former per-run compensated sum, kept
    verbatim: a scalar Neumaier loop in long double over real and
    imaginary parts separately; a stacked (panels, m) array is summed
    one component at a time."""
    LD = np.longdouble
    CLD = np.clongdouble

    def _sum1(v):
        total = LD(0)
        comp = LD(0)
        for x in v:
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        return total + comp

    arr = np.asarray(values)
    if arr.ndim == 2:
        return np.array([neumaier(col) for col in arr.T])
    if arr.dtype.kind == "c":
        return CLD(_sum1(arr.real.astype(LD))) + 1j * CLD(_sum1(arr.imag.astype(LD)))
    return _sum1(arr.astype(LD))
