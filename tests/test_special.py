import cmath
import hashlib
import math
from fractions import Fraction
from itertools import islice

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import oracles
from zetalab.errors import CapabilityError, DomainError, PoleError
from zetalab import special, spectrum
from zetalab.special import (_ETA, _ONE_MINUS_ETA, _ZETA, bernoulli,
                             bessel_j0, eta, eta_prime, gamma,
                             laguerre, series_coeff, zeta, zeta_prime,
                             _bernoulli_any, _hurwitz, _laguerre_rows,
                             _one_minus_eta, _series_coeff_exact)
from zetalab.states import StateParams, _psi_quadrature


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


def test_bernoulli_table_matches_mpmath_to_the_cap():
    for m in range(257):
        want = Fraction(*(int(v) for v in mp.bernfrac(m)))
        assert _bernoulli_any(m) == (-want if m == 1 else want)
    with pytest.raises(CapabilityError):
        bernoulli(65)
    with pytest.raises(CapabilityError):
        _bernoulli_any(257)


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
    # Next to the pole.
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


def _gamma_table(count=300, seed=20261019):
    # Re s in [-5, 100], |Im s| up to 1.05 times the edge of Gamma's
    # normal range, found by bisection on Stirling's ln |Gamma(s)| ~
    # (sigma - 1/2) ln|s| - tau arg(s) - sigma + ln(2 pi)/2; points within
    # 1e-6 of the poles 0, -1 and -3; and points either side of the edges.
    def ln_abs_gamma(sigma, tau):
        return ((sigma - 0.5) * math.log(math.hypot(sigma, tau))
                - tau * math.atan2(tau, sigma) - sigma + 0.92)

    rng = np.random.default_rng(seed)
    pts = []
    for sigma in rng.uniform(-5.0, 100.0, count):
        lo, hi = 0.0, 3000.0
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = ((mid, hi) if ln_abs_gamma(sigma, mid) > -708.4
                      else (lo, mid))
        pts.append(complex(sigma, rng.choice([-1, 1])
                           * rng.uniform(0.0, 1.05 * lo)))
    return pts + [1e-7, -1e-7, 1e-7j, 3e-7 - 2e-7j, -1 + 1e-7, -1 - 3e-7j,
                  -1 - 5e-7 + 4e-7j, -3 + 5e-7, -3 - 1e-6, -3 + 2e-7j, 0.5,
                  1.0, 5.0, 0.3 + 300j, -0.3 + 300j, 0.5 + 451j, 0.5 + 452j,
                  0.5 + 460j, -4.5 + 420j, 171.5, 171.7, 200.0, 9.999, 10.0]


def test_gamma_kernel_meets_its_bounds_on_a_seeded_table():
    # Against 40-digit mpmath: gamma at every s within the relative bound
    # _gamma returns, or CapabilityError exactly where |Gamma(s)| is not
    # a normal double; for Re s > 0 the kernel's long-double Gamma within
    # its relative bound and its digamma within its absolute bound, also
    # past Gamma's double range.  Rows of a batch equal scalar calls bit
    # for bit.
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    answered, refused = [], 0
    right = [0.5 + 500j, 0.01 + 1000j, 100 - 1000j, 0.01]
    with mp.workdps(40):
        for s in _gamma_table():
            want = mp.gamma(mp.mpc(s))
            try:
                got, rel = special._gamma(s)
            except CapabilityError as exc:
                assert "double precision" in str(exc)
                assert not tiny * (1 + 1e-12) <= abs(want) <= huge, s
                refused += 1
            else:
                assert abs(mp.mpc(got) - want) <= rel * abs(want), (s, rel)
                assert rel <= 1e-13
                answered.append(s)
            if s.real > 0:
                right.append(s)
        g, rel, dg, err = special._stirling(np.array(right))
        for i, s in enumerate(right):
            want = mp.gamma(mp.mpc(s))
            got = mp.mpc(str(g[i].real), str(g[i].imag))
            assert abs(got - want) <= rel[i] * abs(want), (s, rel[i])
            want = mp.digamma(mp.mpc(s))
            got = mp.mpc(str(dg[i].real), str(dg[i].imag))
            assert abs(got - want) <= err[i], (s, err[i])
            assert rel[i] <= 1e-14 and err[i] <= 1e-16 * max(1, abs(want))
            one = special._stirling(s)
            assert one[0][0] == g[i] and one[2][0] == dg[i], s
            assert (one[1][0], one[3][0]) == (rel[i], err[i]), s
    assert refused > 10 and len(answered) > 250
    batch = gamma(np.array(answered))
    assert batch.tobytes() == np.array([gamma(s) for s in answered]).tobytes()
    with pytest.raises(DomainError):
        special._stirling(0.0)


@pytest.mark.filterwarnings("error")
def test_gamma_overflow_raises_capability_error_without_warnings():
    # One rule: CapabilityError wherever |Gamma(s)| is not a finite
    # normal double.  Gamma(0.5 + 460i) ~ 1e-314 is subnormal and
    # Gamma(200) overflows; Gamma(0.3 + 300i) ~ 1.8e-205 answers, in
    # long double, where a float64 reflection overflowed.
    for s in (0.5 + 460j, 200.0, -0.3 + 800j, 1 + 480j):
        with pytest.raises(CapabilityError, match="double precision"):
            gamma(s)
    want = complex(mp.gamma(mp.mpc(0.3, 300)))
    assert abs(gamma(0.3 + 300j) - want) <= 1e-13 * abs(want)
    assert abs(want) == pytest.approx(1.8e-205, rel=0.05)


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(st.floats(1e-6, 520.0), st.floats(-60.0, 60.0))
@example(1.0, 0.0)           # the removable point of the pole terms
@example(6.0, 0.0)
@example(12.0, 0.0)
@example(30.0, 0.0)
@example(60.5, 0.0)
@example(30.0, 14.0)
@example(3.999, 0.0)
@example(4.001, 0.3)
@example(511.5, 60.0)        # K = 512 terms of a psi series at Re s ~ 0
@example(1e-6, 60.0)
def test_one_minus_eta_cancellation(sigma, tau):
    # At large Re(s), 1 - eta(s) ~ 2^{-s}; naive subtraction loses all
    # digits, the Hurwitz difference 2^{-s}[zeta(s, 1) - zeta(s, 3/2)]
    # keeps full relative accuracy.  The error stays inside half the
    # bound the engine returns, which psi's coefficient bound carries.
    s = complex(sigma, tau)
    want = oracles.mp_one_minus_eta(s)
    got, bound = _one_minus_eta(s)
    assert abs(got[0] - want) <= 0.5 * bound[0]


def _seeded_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = list(rng.uniform(1e-6, 4.0, n) + 1j * rng.uniform(-60.0, 60.0, n))
    # The real axis.
    pts += list(rng.uniform(1e-6, 4.0, 50) + 0j) + [0.5, 2.0, 3.0]
    # Points inside the band |1 - 2^{1-s}| < 0.05 around the spurious
    # zeros s = 1 + 2 pi i k/ln 2 of the eta -> zeta factor.
    for k in range(-6, 7):
        centre = complex(1.0, 2 * math.pi * k / math.log(2))
        pts += [centre + complex(dx, dy)
                for dx, dy in rng.uniform(-0.05, 0.05, (8, 2))]
    return [complex(s) for s in pts if s != 1]


_STRIP = np.array(_seeded_points(100, 20261018)[::2]
                  + [0.96, 0.98, 1.02, 1.04])


def test_engine_meets_its_bound_on_the_strip():
    # zeta, zeta', eta and eta' against 40-digit mpmath on the strip,
    # near the spurious zeros of 1 - 2^{1-s}, and next to the pole:
    # every error within half the bound the engine returns.
    z, z_err, zp, zp_err = _hurwitz(_STRIP, *_ZETA, deriv=True)
    e, e_err, ep, ep_err = _hurwitz(_STRIP, *_ETA, deriv=True)
    for k, s in enumerate(_STRIP):
        assert abs(z[k] - oracles.mp_zeta(s)) <= 0.5 * z_err[k]
        assert abs(zp[k] - oracles.mp_zeta_prime(s)) <= 0.5 * zp_err[k]
        assert abs(e[k] - oracles.mp_eta(s)) <= 0.5 * e_err[k]
        assert abs(ep[k] - oracles.mp_eta_derivative(s)) <= 0.5 * ep_err[k]
    # The public functions are the same rows.
    assert zeta(_STRIP[3]) == z[3] and zeta_prime(_STRIP[3]) == zp[3]
    assert eta(_STRIP[3]) == e[3] and eta_prime(_STRIP[3]) == ep[3]


@pytest.mark.parametrize("cfg", [_ZETA, _ETA, _ONE_MINUS_ETA],
                         ids=["zeta", "eta", "one_minus_eta"])
def test_engine_without_bound_returns_the_same_bits(cfg):
    # bound=False skips only the bound block: values and derivatives,
    # batched and one point at a time, equal the bound=True call's bits.
    for s in (_STRIP, _STRIP[7:8]):
        val, _, der, _ = _hurwitz(s, *cfg, deriv=True)
        assert _hurwitz(s, *cfg, bound=False)[1] is None
        for deriv, want in ((False, [val]), (True, [val, der])):
            got = _hurwitz(s, *cfg, deriv=deriv, bound=False)[::2]
            assert [_bits(g) for g in got] == [_bits(w) for w in want]


def test_eta_and_one_minus_eta_at_one():
    # s = 1 is removable in eta, eta' and 1 - eta: the pole terms of the
    # two Hurwitz values are summed as one Taylor series in 1 - s.
    one = np.array([1.0 + 0j])
    e, e_err, ep, ep_err = _hurwitz(one, *_ETA, deriv=True)
    o, o_err = _one_minus_eta(1.0)
    assert abs(e[0] - oracles.mp_eta(1.0)) <= 0.5 * e_err[0]
    assert abs(ep[0] - oracles.mp_eta_derivative(1.0)) <= 0.5 * ep_err[0]
    assert abs(o[0] - oracles.mp_one_minus_eta(1.0)) <= 0.5 * o_err[0]
    with pytest.raises(PoleError):
        zeta(1.0)


@pytest.mark.filterwarnings("error")
def test_zeta_next_to_its_pole_is_finite_or_refused():
    # zeta(1 + i e) = gamma - i/e + O(e), with no numpy warning, while
    # 1/(s-1) is a finite double.  Naming the pole, zeta refuses once
    # |s - 1| falls below the smallest normal double, and zeta' below its
    # square root, where 1/(s-1)^2 leaves double range: one point each
    # side of each limit.
    z = zeta(1 + 1e-200j)
    assert z.real == pytest.approx(special.EULER_GAMMA, abs=1e-13)
    assert z.imag == pytest.approx(-1e200, rel=1e-15)
    tiny = np.finfo(float).tiny
    for fn, gap in ((zeta, tiny), (zeta_prime, math.sqrt(tiny))):
        assert cmath.isfinite(fn(1 + 1.01j * gap))
        with pytest.raises(PoleError) as err:
            fn(1 + 0.99j * gap)
        assert err.value.location == 1
    s = 1 + 1.01j * math.sqrt(tiny)
    assert zeta_prime(s) == pytest.approx(-1 / (s - 1) ** 2, rel=1e-12)
    with pytest.raises(PoleError, match="s = 1") as err:
        zeta_prime(1 + 1e-200j)
    assert err.value.location == 1


def test_engine_refuses_past_its_cap():
    with pytest.raises(CapabilityError, match="1000"):
        zeta(0.5 + 1001j)
    with pytest.raises(CapabilityError, match="1000"):
        _one_minus_eta(np.array([2.0, 0.5 + 2000j]))


def test_engine_refuses_huge_s_instead_of_a_nan_bound():
    # Past |s| of about 1e11 |(s)_2M| overflows while the remainder
    # factor underflows, and the bound (at 3e11 the value too) is NaN.
    # Up to 1e10 every bound stays finite; beyond, each entry refuses.
    for cfg in (_ZETA, _ETA):
        out = _hurwitz(np.array([1e10 + 0j, 1e10 + 50j]), *cfg, deriv=True)
        assert all(np.isfinite(part).all() for part in out)
    for fn in (zeta, zeta_prime, eta, eta_prime, _one_minus_eta):
        for s in (1e12, 1e12 + 3j, complex(math.inf, 0)):
            with pytest.raises(CapabilityError, match="1e10"):
                fn(s)


def test_engine_agrees_with_the_scalar_borwein_loops():
    # The accelerated-series loops that computed eta and zeta before the
    # Hurwitz engine, kept in oracles as an independent route, outside
    # the band where they were not used.
    for s in _seeded_points(300, 20261018):
        assert _rel(eta(s), oracles.loop_eta(s)) <= 1e-12
        ref = oracles.loop_zeta_and_prime(s)
        if ref is not None:
            assert _rel(zeta(s), ref[0]) <= 1e-12
            assert _rel(zeta_prime(s), ref[1]) <= 1e-12


def _bits(x):
    return np.asarray(x).tobytes()


def test_batched_rows_equal_single_calls_bit_for_bit(monkeypatch):
    # A row of a batch equals a one-element call bit for bit: on the
    # zero scan's grid blocks, on a K = 512 coefficient batch, and on
    # every engine batch of a tracker run (value, derivative and both
    # bounds), on which the count's determinism rests: verify's box to
    # tau = 30, whose tracking takes a seeded round and two split rounds.
    # (count_zeros answers that box from its census, with no batch.)
    grid = 0.5 + 1j * np.minimum(np.arange(6001) * 0.01, 60.0)
    for lo in range(0, 6001, 256):
        block = _hurwitz(grid[lo:lo + 256], *_ZETA)
        for k in range(0, len(block[0]), 5):
            single = _hurwitz(grid[lo + k:lo + k + 1], *_ZETA)
            assert _bits(block[0][k]) == _bits(single[0][0])
            assert _bits(block[1][k]) == _bits(single[1][0])
    s = complex(0.5, oracles.ZERO_TAUS[0])
    coeffs, bounds = _one_minus_eta(s + np.arange(512))
    for n in range(512):
        one, bound = _one_minus_eta(s + n)
        assert _bits(coeffs[n]) == _bits(one[0])
        assert _bits(bounds[n]) == _bits(bound[0])
    batches = []

    def recording(s, *args, **kwargs):
        batches.append(np.array(s))
        return _hurwitz(s, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_hurwitz", recording)
    spectrum._windings([spectrum._corners(0.05, 0.95, 0.0, 30.0)])
    assert len(batches) >= 3
    for z in batches:
        rows = _hurwitz(z, *_ZETA, deriv=True)
        for k in range(len(z)):
            one = _hurwitz(z[k:k + 1], *_ZETA, deriv=True)
            assert [_bits(r[k]) for r in rows] == [_bits(r[0]) for r in one]


def test_rows_sharing_im_s_equal_single_calls_bit_for_bit():
    # Rows s + n share Im s, so the engine takes one phase row for all
    # their direct terms (see _hurwitz).  On seeded batches each row
    # equals its one-element call in value, bound and derivative, with
    # and without each.  The same rows batched with their conjugates hold
    # two values of Im s (and the same largest |Im s|, so the same n) and
    # take the one-factor line: row by row they equal the same calls, so
    # the two lines give the same bits.
    rng = np.random.default_rng(20261020)
    cfgs = (_ZETA, _ETA, _ONE_MINUS_ETA)
    for case in range(8):
        K = int(rng.integers(1, 513))
        s = complex(rng.uniform(0.01, 171),
                    rng.uniform(-1000, 1000)) + np.arange(K)
        cfg, deriv, bound = cfgs[case % 3], bool(case & 1), bool(case & 2)
        rows = _hurwitz(s, *cfg, deriv=deriv, bound=bound)
        mixed = _hurwitz(np.concatenate([s, s.conj()]), *cfg, deriv=deriv,
                         bound=bound)
        for k in range(K):
            one = _hurwitz(s[k:k + 1], *cfg, deriv=deriv, bound=bound)
            want = [None if r is None else _bits(r[0]) for r in one]
            for out in (rows, mixed):
                assert [None if r is None else _bits(r[k])
                        for r in out] == want, (case, k)


def test_scan_signs_equal_single_point_calls(monkeypatch):
    # find_zeros evaluates every cell end of its grid, every point of a
    # cell that holds a zero, tau_max and both ends of every bracket by
    # array calls, then refines every bracket
    # in lockstep rounds, one array call each; every row of every call
    # equals the one-point call, so brackets and roots keep their bits.
    line = spectrum.critical_line_real_form
    calls = []

    def recording(tau):
        v = line(tau)
        if np.ndim(tau):
            calls.append((np.array(tau), v))
        return v

    spectrum._grid_scan.cache_clear()
    monkeypatch.setattr(spectrum, "critical_line_real_form", recording)
    zeros = spectrum.find_zeros(60.0)
    assert len(zeros) == 13
    seen = set(np.concatenate([t for t, _ in calls]).tolist())
    grid = np.arange(6001) * 0.01
    assert set(grid[::spectrum._SCAN_CELL].tolist()) | {60.0} <= seen
    assert {end for z in zeros for end in z.bracket} <= seen
    for taus, vals in calls:
        for t, v in zip(taus, vals):
            one = line(float(t))
            assert one == v and np.sign(one) == np.sign(v)


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


def test_bessel_j0_near_12_and_root():
    assert abs(bessel_j0(11.999999) - oracles.mp_j0(11.999999)) < 2e-12
    assert abs(bessel_j0(12.000001) - oracles.mp_j0(12.000001)) < 2e-12
    assert abs(bessel_j0(oracles.J0_ROOT1)) < 1e-12
    assert abs(bessel_j0(10.0) - oracles.J0_10) < 1e-13


def test_bessel_j0_refuses_outside_its_range():
    # A NaN in a batch would size N for every point, so it is refused.
    for bad in (-1e-300, math.nan, [1.0, math.nan], [1.0, -2.0]):
        with pytest.raises(DomainError):
            bessel_j0(bad)
    with pytest.raises(CapabilityError):
        bessel_j0([1.0, 1600.5])
    assert bessel_j0(1600.0) == bessel_j0(np.array([1600.0]))[0]


def test_bessel_j0_vectorized():
    xs = np.linspace(0.1, 30.0, 7)
    vals = bessel_j0(xs)
    for x, v in zip(xs, vals):
        assert abs(v - bessel_j0(float(x))) == 0.0


def _j0_bound(z, got):
    # bessel_j0's docstring: truncation, rounding in extended precision,
    # and the final rounding to float64.
    eps_ld = float(np.finfo(np.longdouble).eps)
    return (2.0**-65 + 2.0**-130 + 2 * (z + 32) * eps_ld
            + np.spacing(abs(got)) / 2)


def test_bessel_j0_meets_its_documented_bound():
    rng = np.random.default_rng(20261019)
    zs = np.r_[0.0, oracles.J0_ROOT1, 12.0, 1600.0,
               rng.uniform(0.0, 1600.0, 200), rng.uniform(0.0, 20.0, 40)]
    assert bessel_j0(0.0) == 1.0
    with mp.workdps(40):
        for z in zs:
            got = bessel_j0(float(z))
            err = abs(mp.mpf(got) - mp.besselj(0, mp.mpf(float(z))))
            assert err <= _j0_bound(z, got), (z, float(err))


def test_bessel_j0_size_rule_bounds_the_trapezoid_error():
    # The trapezoid error is 2 sum_m J_2mN(z), led by J_2N.  N is the
    # smallest even number whose bound (z/2)^2N/(2N)! is <= 2^-66.
    # 1.6845811 is the worst z on a fine scan: J_2N there is 0.95 of
    # 2^-66, so 2^-66 and not a tighter figure is what the rule holds.
    for zmax in (1e-3, 1.6845811452863213, 12.0, 155.0, 1600.0):
        n = special._j0_size(zmax)
        assert n % 2 == 0
        with mp.workdps(30):
            assert abs(mp.besselj(2 * n, zmax)) <= mp.mpf(2) ** -66
            prev = (mp.mpf(zmax) / 2) ** (2 * n - 4) / mp.factorial(2 * n - 4)
            assert n == 2 or prev > mp.mpf(2) ** -66
    assert special._j0_size(0.0) == 2


def test_engine_with_complex_shifts_meets_its_bound():
    # One set of complex shifts per row, in long double: zeta(s, a) and
    # the alternating h(s, a) = 2^-s (zeta(s, a/2) - zeta(s, (a+1)/2))
    # against 40-digit mpmath at seeded s and a, within the bound.
    rng = np.random.default_rng(20261019)
    n = 40
    s = (rng.uniform(0.05, 3.0, n)
         + 1j * rng.uniform(-60.0, 60.0, n)).astype(np.clongdouble)
    a = (rng.uniform(0.05, 40.0, n)
         + 1j * rng.uniform(-40.0, 40.0, n)).astype(np.clongdouble)
    one, one_err = _hurwitz(s, a[:, None], (1.0,), 1)
    alt, alt_err = _hurwitz(s, np.stack([a / 2, a / 2 + 0.5], 1), *_ETA[1:])
    assert one.dtype == np.clongdouble and alt_err.dtype == np.longdouble
    with mp.workdps(40):
        for k in range(n):
            sk, ak = (mp.mpc(str(v.real), str(v.imag)) for v in (s[k], a[k]))
            want = mp.zeta(sk, ak)
            got = mp.mpc(str(one[k].real), str(one[k].imag))
            assert abs(got - want) <= mp.mpf(str(one_err[k])), k
            want = mp.power(2, -sk) * (mp.zeta(sk, ak / 2)
                                       - mp.zeta(sk, ak / 2 + 0.5))
            got = mp.mpc(str(alt[k].real), str(alt[k].imag))
            assert abs(got - want) <= mp.mpf(str(alt_err[k])), k


# sha256 of zeta, zeta', eta, eta' and 1 - eta with their bounds on
# the batch below, as the float64 engine gave them before it took complex
# shifts.
_ENGINE_BATCH_SHA256 = (
    "e32cab437004c53971cef9b28b9bcb6a71e99d1805823ae0c82965c4dcac23c0")


def test_real_shift_engine_keeps_its_float64_bits():
    batch = np.concatenate([_STRIP, [0.5 + 300j, 2 - 999j, 30.0]])
    h = hashlib.sha256()
    for cfg in (_ZETA, _ETA, _ONE_MINUS_ETA):
        for out in (_hurwitz(batch, *cfg, deriv=True), _hurwitz(batch, *cfg)):
            for part in out:
                h.update(np.ascontiguousarray(part).tobytes())
    assert h.hexdigest() == _ENGINE_BATCH_SHA256


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


def test_scalar_laguerre_rows_equal_the_one_element_array_rows():
    # psi's series takes L_n(x) from a long-double scalar; the scalar
    # path runs the same 80-bit operations as a one-element array.  The
    # values are compared, not the bytes: numpy keeps each 80-bit value
    # in a 16-byte slot whose 6 padding bytes are arbitrary.
    rng = np.random.default_rng(20261019)
    for x in np.concatenate([[0.0, 1.0, 1000.0], rng.uniform(0, 1000, 40)]):
        scalar = np.array(list(islice(_laguerre_rows(np.longdouble(x)), 513)))
        array = np.concatenate(list(islice(
            _laguerre_rows(np.full(1, x, np.longdouble)), 513)))
        assert scalar.dtype == array.dtype == np.longdouble
        assert np.array_equal(scalar, array, equal_nan=True), x


def test_eta_integral_closed_form():
    r = _psi_quadrature(StateParams(2.0), 0.0, 1e-11)
    assert abs(r.value - math.pi**2 / 12) <= max(r.abs_err, 1e-10)
    r = _psi_quadrature(StateParams(1.0), 0.0, 1e-11)
    assert abs(r.value - math.log(2)) <= max(r.abs_err, 1e-10)


# Property tests over the working strip sigma in (0, 4], |tau| <= 60,
# each against the 40-digit oracles within the documented relative
# bound, taken relative to max(|ref|, 1).
_SIGMA = st.floats(1e-6, 4.0)
_TAU = st.floats(-60.0, 60.0)


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1.0)


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(_SIGMA, _TAU)
@example(1.0 + 1e-4, 0.0)      # next to the pole
@example(1.0, 2 * math.pi / math.log(2) + 0.01)  # a spurious zero of 1 - 2^{1-s}
def test_zeta_and_zeta_prime_property(sigma, tau):
    s = complex(sigma, tau)
    assume(abs(s - 1) >= math.sqrt(np.finfo(float).tiny))  # zeta' refuses
    assert _rel(zeta(s), oracles.mp_zeta(s)) <= 1e-12
    assert _rel(zeta_prime(s), oracles.mp_zeta_prime(s)) <= 1e-8


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(_SIGMA, _TAU)
def test_eta_property(sigma, tau):
    s = complex(sigma, tau)
    got = eta(s)
    assert _rel(got, oracles.mp_eta(s)) <= 1e-12
    if s != 1:
        # eta = (1 - 2^{1-s}) zeta, though the engine sums the two as
        # different Hurwitz combinations.  1 - 2^{1-s} is taken as
        # -2 sinh(w/2) e^{w/2}, w = (1-s) ln 2, without the cancellation
        # of 1 - 2^{1-s} next to s = 1 (at s = 1 - 2.9e-15 that form
        # is 0.1% off while eta and zeta are both exact to 1e-15).
        w = (1 - s) * math.log(2)
        factor = -2 * cmath.sinh(w / 2) * cmath.exp(w / 2)
        assert _rel(got, factor * zeta(s)) <= 1e-12


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(_SIGMA, _TAU)
def test_gamma_property(sigma, tau):
    s = complex(sigma, tau)
    g, rel = special._gamma(s)
    want = oracles.mp_gamma(s)
    assert abs(g - want) <= rel * abs(want)
    # Reflection Gamma(s) Gamma(1-s) sin(pi s) = pi, away from the
    # poles of Gamma(1-s) where sin(pi s) itself loses digits.
    sine = cmath.sin(math.pi * s)
    assume(abs(sine) > 0.1)
    assert abs(g * gamma(1 - s) * sine / math.pi - 1) <= 1e-12


# sigma = k / 2^30, so that 1 - s is exact in double precision: next to
# the pole of zeta(1 - s) a one-ulp shift of 1 - s alone moves
# chi(s) zeta(1 - s) by up to 1e-10.
_SIGMA_DYADIC = st.integers(1, 2**30 - 1).map(lambda k: k / 2**30)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
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
