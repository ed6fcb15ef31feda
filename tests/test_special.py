import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from zetalab.errors import CapabilityError, DomainError, PoleError
from zetalab.special import (bernoulli, bessel_j0, eta, eta_integral,
                             eta_prime, gamma, laguerre, series_coeff, zeta,
                             zeta_prime, _em_zeta, _one_minus_eta,
                             _series_coeff_exact)


def test_bernoulli_against_literals():
    for m, want in oracles.BERNOULLI.items():
        assert bernoulli(m) == want
    for m in range(3, 40, 2):
        assert bernoulli(m) == 0


def test_bernoulli_recurrence_identity():
    # In the +1/2 convention: sum_k C(m+1, k) B_k = m + 1.
    for m in range(0, 25):
        acc = sum(Fraction(math.comb(m + 1, k)) * bernoulli(k)
                  for k in range(m + 1))
        assert acc == m + 1


def test_series_coefficients_match_taylor_division():
    oracle = oracles.taylor_coefficients(20)
    for m in range(21):
        assert _series_coeff_exact(m) == oracle[m]
        assert abs(series_coeff(m) - float(oracle[m])) <= 1e-12


def test_series_coefficient_envelope():
    # |c_m| approaches 2/pi^m for even m; odd coefficients vanish.
    for m in (10, 20, 40, 60):
        ratio = abs(float(_series_coeff_exact(m))) * math.pi**m / 2.0
        assert abs(ratio - 1.0) < 0.01
    assert series_coeff(7) == 0.0
    assert series_coeff(63) == 0.0


def test_series_coefficient_domain():
    with pytest.raises(DomainError):
        series_coeff(-1)
    with pytest.raises(CapabilityError):
        series_coeff(65)


def test_zeta_on_real_axis():
    assert abs(zeta(2.0) - math.pi**2 / 6) < 1e-13
    assert abs(zeta(4.0) - math.pi**4 / 90) < 1e-13
    assert abs(zeta(0.5) - oracles.ZETA_HALF) < 1e-13
    # Through the fallback band around the pole.
    for s in (0.96, 0.98, 1.02, 1.04):
        want = oracles.mp_zeta(s)
        assert abs(zeta(s) - want) <= 1e-9 * abs(want)


def test_zeta_complex_grid():
    for sig in (0.3, 0.5, 1.5, 3.0):
        for tau in (0.0, 2.0, 14.0, 35.0):
            s = complex(sig, tau)
            want = oracles.mp_zeta(s)
            assert abs(zeta(s) - want) <= 1e-11 * max(1.0, abs(want))


def test_zeta_prime_matches_reference():
    assert abs(zeta_prime(2.0) - oracles.ZETA_PRIME_2) < 1e-10
    for s in (0.5 + 14j, 2.0 + 3j, 0.3 + 20j):
        want = oracles.mp_zeta_prime(s)
        assert abs(zeta_prime(s) - want) <= 1e-9 * max(1.0, abs(want))


def test_eta_values_and_identity():
    assert abs(eta(1.0) - math.log(2)) < 1e-13
    assert abs(eta(0.0) - 0.5) < 1e-13
    for s in (0.5, 2.0, 0.5 + 14.134725141734693j):
        want = (1 - 2 ** (1 - complex(s))) * oracles.mp_zeta(s)
        assert abs(eta(s) - want) < 1e-12


def test_eta_prime_against_difference_quotient():
    for s in (1.0, 2.0, 0.5 + 5j):
        want = oracles.mp_eta_prime(s)
        assert abs(eta_prime(s) - want) <= 1e-6 * max(1.0, abs(want))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(1e-6, 520.0), st.floats(-60.0, 60.0))
@example(6.0, 0.0)
@example(12.0, 0.0)
@example(30.0, 0.0)
@example(60.5, 0.0)
@example(30.0, 14.0)
@example(3.999, 0.0)         # either side of the old Re 4 route switch
@example(4.001, 0.3)
@example(511.5, 60.0)        # K = 512 terms of a psi series at Re s ~ 0
@example(1e-6, 60.0)
def test_one_minus_eta_cancellation(sigma, tau):
    # At large Re(s), 1 - eta(s) ~ 2^{-s}; naive subtraction loses all
    # digits, the shifted sum keeps full relative accuracy.  The error
    # stays inside the charge psi's coefficient bound carries for it.
    s = complex(sigma, tau)
    want = oracles.mp_one_minus_eta(s)
    got = _one_minus_eta(s)
    assert abs(got - want) <= 1e-12 * max(abs(want), 2.0 ** -sigma)


def _seeded_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = list(rng.uniform(1e-6, 4.0, n) + 1j * rng.uniform(-60.0, 60.0, n))
    # The real axis, where the sign of a zero imaginary part shows.
    pts += list(rng.uniform(1e-6, 4.0, 50) + 0j) + [0.5, 2.0, 3.0]
    # Points inside the Euler-Maclaurin band around s = 1 + 2 pi i k/ln 2.
    for k in range(-6, 7):
        centre = complex(1.0, 2 * math.pi * k / math.log(2))
        pts += [centre + complex(dx, dy)
                for dx, dy in rng.uniform(-0.05, 0.05, (8, 2))]
    return [complex(s) for s in pts if s != 1]


def test_eta_zeta_bit_identical_to_scalar_loops():
    # The array kernel sums its terms in the order of the scalar loops,
    # so eta, zeta and zeta' keep every bit, signed zeros included (repr
    # tells them apart); the zero finder's last brentq iterate depends
    # on them.
    band = 0
    for s in _seeded_points(1000, 20261018):
        assert repr(eta(s)) == repr(oracles.loop_eta(s))
        ref = oracles.loop_zeta_and_prime(s)
        if ref is None:
            band += 1
            ref = _em_zeta(s)
        assert repr(zeta(s)) == repr(ref[0])
        assert repr(zeta_prime(s)) == repr(ref[1])
    assert band >= 50


def test_gamma_basics():
    assert abs(gamma(0.5) ** 2 - math.pi) < 1e-14
    assert abs(gamma(5.0) - 24.0) < 1e-12
    assert abs(gamma(0.3) * gamma(0.7) - math.pi / math.sin(0.3 * math.pi)) \
        < 1e-13


def test_gamma_complex_strip():
    for sig in (0.3, 0.5, 1.0, 2.5):
        for tau in (0.0, 1.0, 14.134725141734693, 25.0):
            s = complex(sig, tau)
            want = oracles.mp_gamma(s)
            assert abs(gamma(s) - want) <= 1e-12 * abs(want)


def test_gamma_poles_raise():
    for s in (0.0, -1.0, -5.0):
        with pytest.raises(PoleError):
            gamma(s)


def test_bessel_j0_grid():
    for x in np.linspace(0.0, 60.0, 121):
        want = oracles.mp_j0(float(x))
        assert abs(bessel_j0(float(x)) - want) < 2e-12


def test_bessel_j0_route_seam_and_root():
    assert abs(bessel_j0(11.999999) - oracles.mp_j0(11.999999)) < 2e-12
    assert abs(bessel_j0(12.000001) - oracles.mp_j0(12.000001)) < 2e-12
    assert abs(bessel_j0(oracles.J0_ROOT1)) < 1e-12
    assert abs(bessel_j0(10.0) - oracles.J0_10) < 1e-13


def test_bessel_j0_vectorized():
    xs = np.linspace(0.1, 30.0, 7)
    vals = bessel_j0(xs)
    for x, v in zip(xs, vals):
        assert abs(v - bessel_j0(float(x))) == 0.0


def test_laguerre_explicit_forms():
    x = 1.9
    assert abs(laguerre(0, x) - 1.0) == 0.0
    assert abs(laguerre(1, x) - (1 - x)) < 1e-15
    assert abs(laguerre(2, x) - (x * x - 4 * x + 2) / 2) < 1e-14
    l3 = (-x**3 + 9 * x**2 - 18 * x + 6) / 6
    assert abs(laguerre(3, x) - l3) < 1e-14


def test_laguerre_against_reference():
    for n in (4, 9, 17):
        for x in (0.3, 2.0, 11.5):
            want = oracles.mp_laguerre(n, x)
            assert abs(laguerre(n, x) - want) <= 1e-11 * max(1.0, abs(want))


def test_laguerre_recurrence_consistency():
    # (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}
    x = 3.7
    for n in range(1, 30):
        lhs = (n + 1) * laguerre(n + 1, x)
        rhs = (2 * n + 1 - x) * laguerre(n, x) - n * laguerre(n - 1, x)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_eta_integral_closed_form():
    r = eta_integral(2.0)
    assert abs(r.value - math.pi**2 / 12) <= max(r.abs_err, 1e-10)
    r = eta_integral(1.0)
    assert abs(r.value - math.log(2)) <= max(r.abs_err, 1e-10)


# Property tests over the working strip sigma in (0, 4], |tau| <= 60,
# each against the 40-digit oracles within the documented relative
# bound, taken relative to max(|ref|, 1).
_SIGMA = st.floats(1e-6, 4.0)
_TAU = st.floats(-60.0, 60.0)


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_SIGMA, _TAU)
@example(1.0 + 1e-4, 0.0)      # the Euler-Maclaurin band at the pole
@example(1.0, 2 * math.pi / math.log(2) + 0.01)  # a spurious zero of 1 - 2^{1-s}
def test_zeta_and_zeta_prime_property(sigma, tau):
    s = complex(sigma, tau)
    assume(s != 1)
    assert _rel(zeta(s), oracles.mp_zeta(s)) <= 1e-12
    assert _rel(zeta_prime(s), oracles.mp_zeta_prime(s)) <= 1e-8


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_SIGMA, _TAU)
def test_eta_property(sigma, tau):
    s = complex(sigma, tau)
    got = eta(s)
    assert _rel(got, oracles.mp_eta(s)) <= 1e-12
    if s != 1:
        # eta = (1 - 2^{1-s}) zeta, with zeta on its own route near the
        # spurious zeros of the factor.
        assert _rel(got, (1 - 2 ** (1 - s)) * zeta(s)) <= 1e-12


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_SIGMA, _TAU)
def test_gamma_property(sigma, tau):
    s = complex(sigma, tau)
    g = gamma(s)
    assert _rel(g, oracles.mp_gamma(s)) <= 1e-13
    # Reflection Gamma(s) Gamma(1-s) sin(pi s) = pi, away from the
    # poles of Gamma(1-s) where sin(pi s) itself loses digits.
    sine = cmath.sin(math.pi * s)
    assume(abs(sine) > 0.1)
    assert abs(g * gamma(1 - s) * sine / math.pi - 1) <= 1e-12


# sigma = k / 2^30, so that 1 - s is exact in double precision: next to
# the pole of zeta(1 - s) a one-ulp shift of 1 - s alone moves
# chi(s) zeta(1 - s) by up to 1e-10.
_SIGMA_DYADIC = st.integers(1, 2**30 - 1).map(lambda k: k / 2**30)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_SIGMA_DYADIC, _TAU)
@example(2.0**-30, 0.0)        # zeta(1 - s) next to its pole
@example(0.5, 14.134725141734693)  # near the first zero
def test_functional_equation_property(sigma, tau):
    # zeta(s) = chi(s) zeta(1 - s), chi(s) = 2^s pi^{s-1} sin(pi s/2)
    # Gamma(1 - s), across the strip; |chi| grows like |tau|^{1/2 - sigma}.
    s = complex(sigma, tau)
    chi = (2 ** s * math.pi ** (s - 1) * cmath.sin(math.pi * s / 2)
           * gamma(1 - s))
    assert abs(zeta(s) - chi * zeta(1 - s)) <= 1e-11 * max(1.0, abs(chi))
