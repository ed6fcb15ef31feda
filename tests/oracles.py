"""Independent references for the test suite.

Two kinds live here: frozen literals computed once with 40-digit
arithmetic (mpmath), and small reimplementations that share no code
with the package (the Taylor-division coefficient oracle, the
alternating-series norm oracle).  Tests compare package output against
these, never against the package itself.
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40

# First ten nontrivial zero ordinates, rounded from 30-digit values.
ZERO_TAUS = (
    14.134725141734693,
    21.022039638771555,
    25.010857580145688,
    30.424876125859513,
    32.935061587739190,
    37.586178158825671,
    40.918719012147495,
    43.327073280914999,
    48.005150881167159,
    49.773832477672302,
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


def series_closed_form(x: float) -> float:
    """The function the coefficient series represents, inside |x| < pi."""
    return float(2 * x / (1 - mp.e ** (-2 * x)) - x / (1 - mp.e ** (-x)))


def mp_zeta(s) -> complex:
    return complex(mp.zeta(complex(s)))


def mp_zeta_prime(s) -> complex:
    return complex(mp.zeta(complex(s), derivative=1))


def mp_eta(s) -> complex:
    return complex(mp.altzeta(complex(s)))


def mp_one_minus_eta(s) -> complex:
    # Subtract at working precision; in double the difference cancels.
    return complex(1 - mp.altzeta(complex(s)))


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


def psi_series_oracle(s, x, target: float = 1e-20):
    """(psi(x), error bound) from the Laguerre series
    sum_n Gamma(n+s)(1 - eta(n+s))/n! L_n(x) summed at 40 digits.

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
        term = q * (1 - mp.altzeta(n + s)) * l_cur
        total += term
        size += abs(term)
        l_prev, l_cur = l_cur, ((2 * n + 1 - x) * l_cur - n * l_prev) / (n + 1)
        q = q * (n + s) / (n + 1)
        n += 1
    return complex(total), float(tail * grow + size * mp.mpf(10) ** -35)
