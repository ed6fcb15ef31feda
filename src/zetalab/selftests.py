"""Built-in verification suites behind the `verify` and `selftest`
commands.

Each suite function returns a list of CheckReport at nominal
tolerances; the `verify` runner applies --tol-scale.  References fall in
three classes: closed forms evaluated inline, independently tabulated
constants (frozen literals below), and cross-route comparisons inside
the package.  Checks with tol = INFORMATIONAL record a measured number
without gating the exit code; the two divergence studies (power-series
partial sums at x = 3, eigen-residual growth in K) are reported that
way because the measured behavior is the finding.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import (CapabilityError, DivergenceError, DomainError,
                     PoleError, PreconditionError, ZetalabError)
from .reporting import INFORMATIONAL, check, flag

# First ten zero ordinates on the critical line, externally tabulated.
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
)

RHO1 = complex(0.5, ZERO_TAUS[0])
RHO2 = complex(0.5, ZERO_TAUS[1])

# Independently computed reference constants (40-digit arithmetic,
# rounded to double).
ZETA_HALF = -1.4603545088095868
ZETA_NEAR_ONE = 50.578670041015556      # zeta(1.02)
ZETA_PRIME_2 = -0.93754825431584377
ZETA_3 = 1.2020569031595942
ETA_PRIME_1 = 0.15986890374243098       # euler*ln2 - ln^2(2)/2
GAMMA_1_4J = complex(-0.0063050661474434453, 0.0069204489660699177)
J0_10 = -0.24593576445134835
J0_12 = 0.047689310796833535
J0_ROOT1 = 2.4048255576957729
XI_HALF = 0.49712077818831346           # completed xi at s = 1/2
PSI_S2_AT_1 = -0.044155938134083604     # transform of t/(1+e^t) at x=1
GTAIL_RHO1_30 = complex(0.027338700279743826, -0.012408186222923378)
NORM_INT_2 = 0.19314718055994531        # ln 2 - 1/2
NORM_INT_2P5 = 0.14201643018300533
NORM_INT_4 = 0.158151287891165
PAPER_NORM_2 = 0.158151287891165        # printed closed-form value
PAPER_NORM_1 = 0.1293198528641679       # c -> 1 limit


def _raises(exc_type, fn, *args):
    """The exc_type instance fn(*args) raises (always truthy), or None
    if it returns."""
    try:
        fn(*args)
    except exc_type as exc:
        return exc
    return None


def _partial_sum(x: float, m_max: int) -> float:
    from .special import _series_coeff_exact

    acc = Fraction(0)
    xf = Fraction(x)
    for m in range(1, m_max + 1):
        acc += _series_coeff_exact(m) * xf**m
    return float(acc)


def _series_target(x: float) -> float:
    # Closed form of the full sum inside the convergence disc.
    return 2 * x / (1 - math.exp(-2 * x)) - x / (1 - math.exp(-x))


def _exp_hankel(x: float) -> complex:
    """The integral of e^{-t} J0(2 sqrt(x t)) over t > 0; it is e^{-x}."""
    from .quad import integrate_semi_infinite
    from .special import bessel_j0

    return integrate_semi_infinite(lambda t: np.exp(-t) * bessel_j0(
        2.0 * np.sqrt(x * np.asarray(t, dtype=np.float64))), 1.0, 1e-10).value


def suite_special():
    from . import special as sp
    from . import states as st

    r = []
    r.append(flag("bernoulli-b0", sp.bernoulli(0) == Fraction(1), "trivial"))
    r.append(flag("bernoulli-b1-positive-convention",
                  sp.bernoulli(1) == Fraction(1, 2), "paper",
                  inputs={"m": 1}))
    r.append(flag("bernoulli-b2", sp.bernoulli(2) == Fraction(1, 6),
                  "trivial"))
    r.append(flag("bernoulli-odd-vanish",
                  all(sp.bernoulli(m) == 0 for m in range(3, 21, 2)),
                  "paper", inputs={"m": "3..19 odd"}))
    r.append(flag("bernoulli-b12",
                  sp.bernoulli(12) == Fraction(-691, 2730),
                  "derived-oracle"))

    r.append(check("series-coeff-c1", sp.series_coeff(1), 0.5,
                   1e-15, "paper", inputs={"m": 1}))
    r.append(check("series-coeff-c2", sp.series_coeff(2), 0.25,
                   1e-15, "derived-oracle", inputs={"m": 2}))
    r.append(check("series-coeff-c4", sp.series_coeff(4), -1.0 / 48,
                   1e-15, "derived-oracle", inputs={"m": 4}))
    r.append(check("series-coeff-odd-zero", sp.series_coeff(9), 0.0,
                   0.0, "paper", inputs={"m": 9}))
    r.append(check("series-coeff-asymptote",
                   abs(sp.series_coeff(20)), 2 / math.pi**20,
                   0.01, "derived-oracle", inputs={"m": 20}, mode="rel"))

    r.append(check("series-partial-sum-x2",
                   _partial_sum(2.0, 60), _series_target(2.0),
                   1e-8, "derived-oracle", inputs={"x": 2.0, "M": 60}))
    # Convergence at x = 3 is geometric with ratio 3/pi ~ 0.955; the
    # residual after 80 terms is ~2e-2, far above 1e-8.  Recorded, not
    # gated; the gating version is an acceptance check.
    r.append(check("series-partial-sum-x3-slow",
                   _partial_sum(3.0, 80), _series_target(3.0),
                   INFORMATIONAL, "paper", inputs={"x": 3.0, "M": 80}))
    t20 = abs(sp.series_coeff(20)) * 4.0**20
    t60 = abs(float(sp._series_coeff_exact(60))) * 4.0**60
    r.append(flag("series-term-divergence-x4", t60 / t20 > 1e3, "paper",
                  inputs={"x": 4.0, "terms": "20 vs 60"}))

    r.append(check("zeta-at-2", sp.zeta(2.0), math.pi**2 / 6, 1e-12, "paper"))
    r.append(check("zeta-at-3", sp.zeta(3.0), ZETA_3, 1e-12, "derived-oracle"))
    r.append(check("zeta-at-half", sp.zeta(0.5), ZETA_HALF, 1e-12,
                   "derived-oracle"))
    r.append(check("zeta-near-pole", sp.zeta(1.02), ZETA_NEAR_ONE,
                   1e-9, "derived-oracle", mode="rel", inputs={"s": 1.02}))
    r.append(check("zeta-prime-at-2", sp.zeta_prime(2.0), ZETA_PRIME_2,
                   1e-8, "derived-oracle"))
    r.append(check("eta-at-1", sp.eta(1.0), math.log(2.0), 1e-12, "paper"))
    r.append(check("eta-at-0", sp.eta(0.0), 0.5, 1e-12, "derived-oracle"))
    r.append(check("eta-prime-at-1", sp.eta_prime(1.0), ETA_PRIME_1,
                   1e-10, "derived-oracle"))
    r.append(check("eta-zeta-identity",
                   sp.eta(3.0), (1 - 2.0**-2) * sp.zeta(3.0),
                   1e-13, "paper", inputs={"s": 3.0}))

    r.append(check("gamma-half-squared", sp.gamma(0.5)**2, math.pi,
                   1e-12, "paper"))
    r.append(check("gamma-at-5", sp.gamma(5.0), 24.0, 1e-12,
                   "trivial", mode="rel"))
    r.append(check("gamma-reflection",
                   sp.gamma(0.3) * sp.gamma(0.7),
                   math.pi / math.sin(0.3 * math.pi),
                   1e-12, "derived-oracle", mode="rel"))
    r.append(check("gamma-complex-argument", sp.gamma(1 + 4j),
                   GAMMA_1_4J, 1e-12, "derived-oracle", mode="rel"))
    r.append(flag("gamma-pole-raises", _raises(PoleError, sp.gamma, -2.0),
                  "trivial", inputs={"s": -2.0}))

    r.append(check("j0-at-0", sp.bessel_j0(0.0), 1.0, 0.0, "trivial"))
    r.append(check("j0-at-10", sp.bessel_j0(10.0), J0_10, 1e-12,
                   "derived-oracle"))
    r.append(check("j0-at-12", sp.bessel_j0(12.0), J0_12, 1e-11,
                   "derived-oracle"))
    r.append(check("j0-first-root", sp.bessel_j0(J0_ROOT1), 0.0,
                   1e-12, "derived-oracle", inputs={"x": J0_ROOT1}))

    x = 2.5
    l3 = (-x**3 + 9 * x**2 - 18 * x + 6) / 6
    r.append(check("laguerre-n3", sp.laguerre(3, x), l3, 1e-14,
                   "trivial", inputs={"x": x}))
    x = 1.7
    l5 = (-x**5 + 25 * x**4 - 200 * x**3 + 600 * x**2 - 600 * x
          + 120) / 120
    r.append(check("laguerre-n5", sp.laguerre(5, x), l5, 1e-14,
                   "trivial", inputs={"x": x}))

    r.append(check("eta-integral-at-2",
                   st._psi_quadrature(st.StateParams(2.0), 0.0, 1e-11).value,
                   math.pi**2 / 12, 1e-10, "paper"))
    return r


def suite_quad():
    from . import quad as q
    from .special import gamma

    r = []
    xs, ws = q.gauss_legendre(16)
    r.append(flag("gauss-nodes-antisymmetric",
                  bool(np.max(np.abs(xs + xs[::-1])) == 0.0), "trivial",
                  inputs={"n": 16}))
    r.append(check("gauss-weights-sum", float(np.sum(ws)), 2.0,
                   1e-15, "trivial", inputs={"n": 16}))
    r.append(check("gauss-degree-exactness",
                   float(xs**30 @ ws), 2.0 / 31, 1e-15, "derived-oracle",
                   inputs={"n": 16, "monomial": 30}, mode="rel"))

    res = q.integrate_finite(np.sin, 0.0, math.pi, 1e-13)
    r.append(check("finite-sine", res.value, 2.0, 1e-13, "trivial"))
    r.append(flag("finite-error-bound-honest",
                  abs(res.value - 2.0) <= res.abs_err + 1e-15, "trivial"))

    res = q.integrate_finite(lambda t: 1 / np.sqrt(t), 0.0, 1.0, 1e-12, 0.5)
    r.append(check("finite-sqrt-singularity", res.value, 2.0, 1e-12,
                   "derived-oracle"))
    res = q.integrate_finite(np.log, 0.0, 1.0, 1e-10)
    r.append(check("finite-log-singularity", res.value, -1.0, 1e-10,
                   "derived-oracle"))

    res = q.integrate_semi_infinite(lambda t: np.exp(-t), 1.0, 1e-13)
    r.append(check("semi-exponential", res.value, 1.0, 1e-13, "trivial"))
    res = q.integrate_semi_infinite(
        lambda t: t**np.longdouble(-0.3) * np.exp(-t), 0.7, 1e-12)
    r.append(check("semi-gamma-integrand", res.value, gamma(0.7),
                   1e-12, "derived-oracle", mode="rel", inputs={"s": 0.7}))
    res = q.integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(t),
                                    1.0, 1e-12)
    r.append(check("semi-oscillatory", res.value, 0.5, 1e-12,
                   "derived-oracle"))
    res = q.integrate_semi_infinite(lambda t: t * np.exp(-t * t), 2.0,
                                    1e-12)
    r.append(check("semi-gaussian-decay", res.value, 0.5, 1e-12,
                   "derived-oracle"))

    T, tail = q._truncation_point(lambda t: np.exp(-t), 1.0, 1e-11)
    r.append(flag("truncation-point-tail",
                  math.exp(-float(T)) <= 1e-11 + tail + 1e-30, "trivial",
                  inputs={"tol": 1e-11}))

    cum = q.CumulativeIntegral(lambda t: np.exp(-t), 0.0, 40.0, 1e-13)
    v, e = cum.query_lo_many([0.5])
    r.append(check("cumulative-lo", complex(v[0]), 1 - math.exp(-0.5),
                   1e-12, "trivial", inputs={"x": 0.5}))
    v, e = cum.query_hi_many([2.0])
    r.append(check("cumulative-hi", complex(v[0]), math.exp(-2.0),
                   1e-12, "trivial", inputs={"x": 2.0}))
    v, _ = cum.query_lo_many([1.0, 2.0])
    seg = q.integrate_finite(lambda t: np.exp(-t), 1.0, 2.0, 1e-13)
    r.append(check("cumulative-additivity", complex(v[1] - v[0]), seg.value,
                   1e-13, "trivial"))
    r.append(flag("cumulative-error-field", float(e[0]) < 1e-11, "trivial"))

    tri = q.CumulativeIntegral(lambda u: u, 0.0, 1.0, 1e-12 / 8).query_lo_many
    res = q.integrate_finite(lambda t: t * np.stack(tri(t)), 0.0, 1.0, 1e-12)
    r.append(check("nested-triangle", res.value[0], 1.0 / 8, 1e-12,
                   "trivial", inputs={"integral": "t * int_0^t u du"}))

    r.append(check("hankel-exponential-selfpair", _exp_hankel(4.0),
                   math.exp(-4.0), 1e-9, "paper", inputs={"x": 4.0}))

    exc = _raises(q.ConvergenceError, lambda: q.integrate_finite(
        lambda t: np.cos(1e4 * t), 0.0, 1.0, 1e-30, max_evals=2000))
    r.append(flag("budget-exhaustion-raises",
                  exc is not None and exc.best is not None, "trivial"))

    res = q.integrate_finite(lambda t: t**np.longdouble(-0.7) * (1.0 + t),
                             0.0, 1.0, 1e-11, 0.3)
    r.append(check("singular-substitution", res.value, 1 / 0.3 + 1 / 1.3,
                   1e-11, "derived-oracle", mode="rel"))
    return r


def suite_spectrum():
    from . import spectrum as spec
    from .special import gamma, zeta

    r = []
    # Gamma(s) eta(s) against the product (1 - 2^{1-s}) Gamma(s) zeta(s)
    s = 2 + 0j
    a = spec.xi_bc(s)
    b = (1 - cmath.exp((1 - s) * math.log(2))) * gamma(s) * zeta(s)
    r.append(check("xi-routes-agree", a, b, 1e-14, "trivial",
                   inputs={"s": 2.0}, mode="rel"))
    r.append(check("xi-vanishes-at-zero", spec.xi_bc(RHO1), 0.0,
                   1e-13, "derived-oracle", inputs={"s": RHO1}))
    r.append(flag("xi-domain-guard",
                  _raises(DomainError, spec.xi_bc, -0.5 + 3j), "trivial"))

    r.append(check("completed-xi-at-origin",
                   spec.critical_line_real_form(0.0), XI_HALF,
                   1e-12, "derived-oracle"))
    r.append(flag("completed-xi-sign-change",
                  spec.critical_line_real_form(14.0)
                  * spec.critical_line_real_form(14.3) < 0,
                  "derived-oracle", inputs={"bracket": "(14.0, 14.3)"}))

    zeros30 = spec.find_zeros(30.0)
    r.append(check("zeros-to-30-count", len(zeros30), 3.0, 0.0,
                   "derived-oracle", inputs={"tau_max": 30}))
    for k, z in enumerate(zeros30):
        r.append(check(f"zero-{k + 1}-ordinate", z.tau, ZERO_TAUS[k],
                       1e-10, "derived-oracle", inputs={"index": k + 1}))
    zeros50 = spec.find_zeros(50.0)
    r.append(check("zeros-to-50-count", len(zeros50), 10.0, 0.0,
                   "derived-oracle", inputs={"tau_max": 50}))
    dev = max(abs(z.tau - t) for z, t in zip(zeros50, ZERO_TAUS))
    r.append(check("zeros-to-50-max-deviation", dev, 0.0, 1e-9,
                   "derived-oracle"))
    r.append(check("zeros-residual-ceiling",
                   max(abs(z.residual) for z in zeros50), 0.0,
                   1e-10, "trivial"))
    im_max = max(abs(spec.eigenvalue_of(z.rho).imag) for z in zeros50)
    r.append(check("eigenvalues-real-on-line", im_max, 0.0, 1e-9,
                   "derived-oracle"))
    r.append(check("eigenvalue-map", spec.eigenvalue_of(0.5 + 3j), 3.0,
                   0.0, "trivial", inputs={"rho": "0.5+3j"}))

    r.append(check("count-box-30",
                   spec.count_zeros(spec.StripRectangle(0.05, 0.95, 0.0,
                                                        30.0)),
                   3.0, 0.0, "derived-oracle",
                   inputs={"rect": "[0.05,0.95]x[0,30]"}))
    r.append(check("count-box-empty",
                   spec.count_zeros(spec.StripRectangle(0.4, 0.6, 2.0,
                                                        12.0)),
                   0.0, 0.0, "derived-oracle",
                   inputs={"rect": "[0.4,0.6]x[2,12]"}))
    r.append(check("count-box-single",
                   spec.count_zeros(spec.StripRectangle(0.05, 0.95, 31.0,
                                                        35.0)),
                   1.0, 0.0, "derived-oracle",
                   inputs={"rect": "[0.05,0.95]x[31,35]"}))
    # Completeness: gram takes "the first n zeros" from the scan, so the
    # scan must miss none that the argument principle counts.
    r.append(check("zeros-complete-to-60", len(spec.find_zeros(60.0)),
                   spec.count_zeros(spec.StripRectangle(0.05, 0.95, 0.0,
                                                        60.0)),
                   0.0, "derived-oracle",
                   inputs={"rect": "[0.05,0.95]x[0,60]"}))

    r.append(flag("rectangle-validation",
                  _raises(DomainError, spec.StripRectangle,
                          0.0, 0.95, 0.0, 30.0), "trivial"))
    r.append(flag("scan-capability-guard",
                  _raises(CapabilityError, spec.find_zeros, 61.0),
                  "trivial"))
    r.append(flag("negative-ordinate-guard",
                  _raises(DomainError, spec.critical_line_real_form, -1.0),
                  "trivial"))
    return r


def norm_checks(cs):
    """The norm integral against its series oracle at each c, then the
    paper's printed closed form at c = 2 against three references."""
    from .states import norm_integral, norm_series_oracle, \
        paper_norm_closed_form

    r = [check(f"norm-route-agreement-c{c}", norm_integral(c).value,
               norm_series_oracle(c - 1.0), 1e-9, "derived-oracle",
               mode="rel", inputs={"c": c}) for c in cs]
    closed = paper_norm_closed_form(2.0)
    r.append(check("norm-printed-form", closed, PAPER_NORM_2, 1e-12,
                   "paper", inputs={"c": 2.0}))
    # The printed closed form reproduces the series oracle two steps up
    # in the exponent, not the direct integral at the same c.
    r.append(check("norm-exponent-shift", closed, norm_series_oracle(3.0),
                   1e-12, "paper", inputs={"c": 2.0, "series_s": 3.0}))
    r.append(check("norm-exponent-discrepancy", closed,
                   norm_integral(2.0).value, INFORMATIONAL, "paper",
                   inputs={"c": 2.0, "note": "same-c integral route"}))
    return r


def suite_states():
    from . import states as st
    from .special import eta, gamma, zeta

    r = []
    p1 = st.StateParams(RHO1)

    r.append(check("amplitude-at-1", st.amplitude_F(p1, 1.0),
                   1 / (1 + math.e), 1e-15, "trivial",
                   inputs={"s": RHO1, "t": 1.0}))
    r.append(check("amplitude-origin-s1",
                   st.amplitude_F(st.StateParams(1.0), 0.0), 0.5, 0.0,
                   "paper", inputs={"s": 1.0, "t": 0.0}))
    r.append(check("amplitude-origin-decaying",
                   st.amplitude_F(st.StateParams(2.5), 0.0), 0.0, 0.0,
                   "paper", inputs={"s": 2.5, "t": 0.0}))
    r.append(flag("amplitude-origin-guard",
                  _raises(DomainError, st.amplitude_F, p1, 0.0), "trivial",
                  inputs={"s": RHO1}))
    r.append(check("amplitude-underflow-cut",
                   st.amplitude_F(p1, 800.0), 0.0, 0.0, "trivial",
                   inputs={"t": 800.0}))

    p2 = st.StateParams(2.0)
    r.append(check("transform-boundary-s2", st.psi_tilde(p2, 0.0).value,
                   math.pi**2 / 12, 1e-9, "paper",
                   inputs={"s": 2.0, "x": 0.0}))
    r.append(check("transform-interior-s2", st.psi(p2, 1.0).value,
                   PSI_S2_AT_1, 1e-9, "derived-oracle",
                   inputs={"s": 2.0, "x": 1.0}))
    a = st.psi(p2, 1.3).value
    b = st.psi_tilde(p2, 1.3).value
    r.append(check("weighted-transform-scale", b,
                   a * math.exp(-0.65), 1e-15, "trivial", inputs={"x": 1.3}))

    r.append(check("boundary-vanishing-near-origin",
                   st.psi_tilde(p1, 1e-6).value, 0.0, 1e-7,
                   "derived-oracle", inputs={"s": RHO1, "x": 1e-6}))
    r.append(check("boundary-decay-far", st.psi_tilde(p1, 50.0).value,
                   0.0, 1e-9, "derived-oracle", inputs={"s": RHO1, "x": 50.0}))

    bmax = 0.0
    for tau in ZERO_TAUS[:5]:
        bmax = max(bmax, abs(st.psi(st.StateParams(complex(0.5, tau)),
                                    0.0).value))
    r.append(check("boundary-vanishes-at-zeros", bmax, 0.0, 1e-7,
                   "derived-oracle", inputs={"zeros": "first 5"}))
    gmax = 0.0
    for sig in (0.3, 0.5, 0.8, 1.5, 2.5):
        for tau in (0.0, 1.0, 5.0, 11.0, 20.0):
            s = complex(sig, tau)
            gmax = max(gmax, abs(st.psi(st.StateParams(s), 0.0).value
                                 - gamma(s) * eta(s)))
    r.append(check("boundary-matches-closed-form", gmax, 0.0, 1e-9,
                   "paper", inputs={"grid": "5x5 strip"}))

    gt = st.amplitude_G_tail(p1, 30.0)
    r.append(check("adjoint-tail-at-30", gt.value, GTAIL_RHO1_30,
                   1e-11, "derived-oracle", inputs={"s": RHO1, "t": 30.0}))
    gt60 = st.amplitude_G_tail(p1, 60.0)
    r.append(flag("adjoint-tail-decays",
                  abs(gt60.value) < abs(gt.value), "derived-oracle",
                  inputs={"t": "30 vs 60"}))
    # The fixed-point claim G -> -g at large t does not match the
    # measured values (|G + 1| stays ~1 while |G| itself -> 0); the
    # measured distance is recorded for the register.
    r.append(check("adjoint-tail-limit-register",
                   abs(gt.value + 1.0), 0.0, INFORMATIONAL, "paper",
                   inputs={"t": 30.0, "claim": "G tends to -g"}))

    for t in (0.5, 1.0, 2.0, 5.0):
        tail = st.amplitude_G_tail(p1, t, tol=1e-12)
        rew = st.amplitude_G_rewritten(RHO1, t)
        r.append(check(f"adjoint-forms-agree-t{t}", rew.value, tail.value,
                       1e-6 * (1 + abs(tail.value)), "derived-oracle",
                       inputs={"t": t}))
    lim = -1.0 / (1 - RHO1)
    r.append(check("adjoint-rewritten-origin-limit",
                   st.amplitude_G_rewritten(RHO1, 1e-4).value, lim,
                   1e-4, "derived-oracle", inputs={"t": 1e-4}))
    r.append(flag("adjoint-rewritten-precondition",
                  _raises(PreconditionError, st.amplitude_G_rewritten,
                          0.5 + 10j, 1.0), "trivial",
                  inputs={"s": "0.5+10j"}))
    r.append(check("reflection-input-is-zero",
                   abs(zeta(1 - RHO1.conjugate())), 0.0, 1e-7,
                   "paper", inputs={"s": "1 - conj(rho1)"}))

    r.append(check("norm-integral-closed-2", st.norm_integral(2.0).value,
                   math.log(2.0) - 0.5, 1e-12, "derived-oracle",
                   inputs={"c": 2.0}))
    *agree, printed, shift, discrepancy = norm_checks((2.0, 2.5, 4.0))
    for rep, ref in zip(agree, (NORM_INT_2, NORM_INT_2P5, NORM_INT_4)):
        c = rep.inputs["c"]
        r.extend([rep, check(f"norm-reference-c{c}", rep.computed, ref,
                             1e-11, "derived-oracle", inputs={"c": c})])
    r.extend([printed, check("norm-printed-form-c1-limit",
                             st.paper_norm_closed_form(1.0), PAPER_NORM_1,
                             1e-9, "derived-oracle", inputs={"c": 1.0}),
              shift, discrepancy])
    r.append(flag("norm-divergence-guard",
                  _raises(DivergenceError, st.norm_integral, 1.0 + 1e-3),
                  "trivial", inputs={"c": "1+1e-3"}))

    g11 = st.gram(RHO1, RHO1)
    g22 = st.gram(RHO2, RHO2)
    g12 = st.gram(RHO1, RHO2)
    c11 = st.gram_diagonal_closed_form(RHO1)
    c22 = st.gram_diagonal_closed_form(RHO2)
    r.append(check("gram-diagonal-1", g11.value, c11, 1e-4,
                   "derived-oracle", mode="rel", inputs={"rho": RHO1}))
    r.append(check("gram-diagonal-2", g22.value, c22, 1e-3,
                   "derived-oracle", mode="rel", inputs={"rho": RHO2}))
    r.append(check("gram-off-diagonal-ratio",
                   abs(g12.value) / min(abs(g11.value), abs(g22.value)), 0.0,
                   1e-4, "derived-oracle", inputs={"pair": "(rho1, rho2)"}))
    r.append(flag("gram-sign-consistent",
                  abs(g11.value / c11 - 1) < 1e-3
                  and abs(g22.value / c22 - 1) < 1e-2,
                  "derived-oracle", inputs={"sign": st.GRAM_SIGN}))
    r.append(check("gram-by-parts-route",
                   st.gram_diagonal_by_parts(RHO1), g11.value,
                   1e-6, "derived-oracle", mode="rel", inputs={"rho": RHO1}))
    lm11 = st.gram_diagonal_log_moment(RHO1).value
    r.append(check("gram-log-moment-route", lm11,
                   st.gram_diagonal_by_parts(RHO1), 1e-6,
                   "derived-oracle", mode="rel", inputs={"rho": RHO1}))
    r.append(check("gram-route-cross-check", g11.value, lm11,
                   1e-4, "derived-oracle", mode="rel",
                   inputs={"routes": "nested vs log moment"}))
    gsc = st.gram(RHO1, RHO1, f_const=2.0, g_const=3.0)
    r.append(check("gram-bilinearity", gsc.value, 6.0 * g11.value,
                   1e-15, "trivial", mode="rel", inputs={"f": 2.0, "g": 3.0}))

    lam = 1j * (0.5 - RHO1)
    h = 1e-5
    worst = 0.0
    for t in (0.7, 3.0):
        fm = st.amplitude_F(p1, t - h)
        f0 = st.amplitude_F(p1, t)
        fp = st.amplitude_F(p1, t + h)
        lhs = (-1j * t * (fp - fm) / (2 * h) - 0.5j * f0
               - 1j * t / (1 + math.exp(-t)) * f0)
        worst = max(worst, abs(lhs - lam * f0) / abs(f0))
    r.append(check("state-ode-residual", worst, 0.0, 1e-6,
                   "derived-oracle", inputs={"t": "0.7, 3.0"}))
    worst = 0.0
    for t in (1.0, 2.0):
        gm = st.amplitude_G_rewritten(RHO1, t - h).value
        g0 = st.amplitude_G_rewritten(RHO1, t).value
        gp = st.amplitude_G_rewritten(RHO1, t + h).value
        lhs = (-1j * t * (gp - gm) / (2 * h) - 0.5j * g0
               + 1j * t / (1 + math.exp(-t)) * g0)
        worst = max(worst, abs(lhs - (lam * g0 + 1j)) / (1 + abs(g0)))
    r.append(check("adjoint-ode-residual", worst, 0.0, 1e-6,
                   "derived-oracle", inputs={"t": "1.0, 2.0"}))

    r.append(check("transform-self-reciprocal", _exp_hankel(0.8),
                   math.exp(-0.8), 1e-9, "paper", inputs={"t": 0.8}))
    return r


def suite_operators():
    from . import operators as op
    from .special import bessel_j0
    from .states import StateParams

    r = []
    N, Np, Nm = op.build_ladder(6)
    r.append(flag("ladder-number-diagonal",
                  all(N.entries[i, i] == Fraction(2 * i + 1, 2)
                      for i in range(6)), "paper"))
    cm = N.entries @ Nm.entries - Nm.entries @ N.entries
    r.append(flag("ladder-commutator-lowering",
                  bool(np.array_equal(cm, -Nm.entries)), "paper"))
    cp = N.entries @ Np.entries - Np.entries @ N.entries
    r.append(flag("ladder-commutator-raising",
                  bool(np.array_equal(cp, Np.entries)), "paper"))
    pm = Np.entries @ Nm.entries - Nm.entries @ Np.entries
    want = -2 * N.entries
    r.append(flag("ladder-commutator-mixed-block",
                  all(pm[i, j] == want[i, j]
                      for i in range(5) for j in range(5)), "paper",
                  inputs={"block": "leading K-1"}))

    x_op, d_op, t_op = op.build_composites(6)
    r.append(flag("bessel-op-decomposition",
                  bool(np.array_equal(t_op.entries,
                                      N.entries - x_op.entries / 4)),
                  "paper"))
    dm = 0.5j * (np.asarray(Nm.entries, dtype=complex)
                 - np.asarray(Np.entries, dtype=complex))
    r.append(flag("dilation-op-form",
                  bool(np.array_equal(d_op.entries, dm)), "paper"))
    r.append(flag("dilation-op-hermitian",
                  bool(np.array_equal(d_op.entries,
                                      d_op.entries.conj().T)),
                  "derived-oracle"))

    one = op.TruncatedOperator(1, np.array([[0.25]]))
    r.append(check("spectrum-k1", op.tridiag_eigh(one)[0][0], 0.25,
                   0.0, "derived-oracle"))
    _, _, t2 = op.build_composites(2)
    vals2, _ = op.tridiag_eigh(t2)
    r.append(check("spectrum-k2-low", vals2[0],
                   0.5 - math.sqrt(2) / 4, 1e-12, "derived-oracle"))
    r.append(check("spectrum-k2-high", vals2[1],
                   0.5 + math.sqrt(2) / 4, 1e-12, "derived-oracle"))
    _, _, t64 = op.build_composites(64)
    vals64, vecs64 = op.tridiag_eigh(t64)
    r.append(check("spectrum-k64-orthogonality",
                   float(np.max(np.abs(vecs64.T @ vecs64 - np.eye(64)))),
                   0.0, 1e-13, "trivial"))
    rec = np.max(np.abs((vecs64 * vals64) @ vecs64.T - t64.entries))
    r.append(check("spectrum-k64-reconstruction", float(rec), 0.0,
                   1e-12, "trivial"))
    _, _, t256 = op.build_composites(256)
    lam_min = float(np.min(op.tridiag_eigh(t256)[0]))
    r.append(flag("spectrum-positive-k256", lam_min > 0,
                  "paper", inputs={"lambda_min": "%.6e" % lam_min}))

    f2 = op.fermi_of_T(t2)
    s2 = op.fermi_series_partial(t2, 80)
    r.append(check("weight-function-in-disc",
                   float(np.max(np.abs(f2.entries - s2))), 0.0,
                   1e-8, "derived-oracle", inputs={"K": 2, "M": 80}))
    f64 = op.fermi_of_T(t64)
    r.append(flag("weight-function-bounded",
                  float(np.max(np.abs(f64.entries))) < 1e3,
                  "derived-oracle", inputs={"K": 64}))
    m40 = float(np.max(np.abs(op.fermi_series_partial(t64, 40))))
    m80 = float(np.max(np.abs(op.fermi_series_partial(t64, 80))))
    r.append(flag("weight-series-diverges", m80 > 1e10 * m40, "paper",
                  inputs={"K": 64, "M": "40 vs 80"}))
    r.append(check("weight-function-symmetric",
                   float(np.max(np.abs(f64.entries - f64.entries.T))),
                   0.0, 1e-12, "trivial"))

    ht = op.build_H_tilde(12)
    r.append(flag("uppertri-diagonal",
                  bool(np.array_equal(np.diag(ht.entries),
                                      1j * (np.arange(12) + 0.5))),
                  "paper"))
    r.append(flag("uppertri-superdiagonal",
                  bool(np.array_equal(np.diag(ht.entries, 1),
                                      -1.5j * np.arange(1, 12))),
                  "paper"))
    r.append(flag("uppertri-odd-band-vanishes",
                  bool(np.all(np.diag(ht.entries, 3) == 0)), "paper"))
    low = np.tril(ht.entries, -1)
    r.append(flag("uppertri-strictly-upper", bool(np.all(low == 0)),
                  "paper"))
    band2 = np.diag(ht.entries, 2)
    want2 = np.array([-0.5j * math.comb(n + 2, 2) for n in range(10)])
    r.append(flag("uppertri-band2-values",
                  bool(np.array_equal(band2, want2)), "derived-oracle"))

    p1 = StateParams(RHO1)
    a1 = op.laguerre_coefficients(StateParams(1.0), 2, which="psi_tilde")
    r.append(check("coefficient-a0-s1", a1[0], 1 - math.log(2.0),
                   1e-12, "paper", inputs={"s": 1.0}))
    b1 = op.laguerre_coefficients(StateParams(1.0), 2, which="psi")
    r.append(check("coefficient-b0-s1", b1[0], 2 * math.log(2.0) - 1.0,
                   1e-10, "derived-oracle", inputs={"s": 1.0}))
    a = op.laguerre_coefficients(p1, 64, which="psi_tilde")
    from .quad import integrate_semi_infinite
    for n in (0, 10):
        def f(t, n=n):
            t = np.asarray(t, dtype=np.longdouble)
            return (np.exp(np.clongdouble(RHO1 - 1) * np.log(t) - t)
                    / (1.0 + np.exp(t)) * t**n / math.factorial(n))
        q = integrate_semi_infinite(f, 0.5 + n, 1e-15)
        r.append(check(f"coefficient-kernel-quadrature-n{n}", a[n],
                       q.value, 1e-15, "derived-oracle",
                       inputs={"s": RHO1, "n": n}))
    mags = np.abs(a)
    r.append(flag("coefficient-tail-small", float(mags[63]) < 1e-18,
                  "derived-oracle", inputs={"K": 64}))
    r.append(flag("coefficient-tail-monotone",
                  bool(np.all(np.diff(mags[16:]) < 0)), "derived-oracle",
                  inputs={"range": "n >= 16"}))

    r16 = op.eigen_residual(p1, 16, "H_tilde")
    ctrl = op.eigen_residual(StateParams(0.5 + 10j), 16, "H_tilde")
    z16 = max(r16.per_component[:16])
    c16 = max(ctrl.per_component[:16])
    r.append(check("residual-calibration-k16", z16, 0.0, 0.01,
                   "derived-oracle", inputs={"s": RHO1, "K": 16}))
    r.append(flag("residual-separates-control", c16 > 5 * z16,
                  "derived-oracle",
                  inputs={"control": "0.5+10j", "K": 16}))
    r64 = op.eigen_residual(p1, 64, "H_tilde")
    r128 = op.eigen_residual(p1, 128, "H_tilde")
    g64 = max(r64.per_component[:16])
    g128 = max(r128.per_component[:16])
    # The first-16 residual of the truncated upper-triangular operator
    # grows factorially with K (entries ~ c_{K-n} K!/n!); the measured
    # growth ratio is recorded rather than a decrease being asserted.
    r.append(check("residual-growth-register", g128 / max(g64, 1e-300),
                   1.0, INFORMATIONAL, "paper",
                   inputs={"K": "64 -> 128", "stat": "first-16 max"}))
    r.append(flag("residual-trust-prefix-collapses",
                  r64.trusted_prefix == 0 and r128.trusted_prefix == 0,
                  "derived-oracle", inputs={"K": "64, 128"}))
    p1x2 = StateParams(RHO1, f_const=2.0)
    rx2 = op.eigen_residual(p1x2, 16, "H_tilde")
    r.append(flag("residual-linearity",
                  bool(np.allclose(np.asarray(rx2.per_component),
                                   2 * np.asarray(r16.per_component),
                                   rtol=1e-12, atol=0.0)), "trivial"))
    rh = op.eigen_residual(p1, 12, "H")
    r.append(flag("residual-dense-route-runs",
                  bool(np.all(np.isfinite(rh.per_component)))
                  and rh.trusted_prefix >= 0, "trivial",
                  inputs={"K": 12}))

    worst = 0.0
    hstep = 1e-4
    for t in (0.5, 2.0):
        for x in np.linspace(0.1, 20.0, 40):
            um = bessel_j0(2 * math.sqrt((x - hstep) * t))
            u0 = bessel_j0(2 * math.sqrt(x * t))
            up = bessel_j0(2 * math.sqrt((x + hstep) * t))
            upp = (up - 2 * u0 + um) / hstep**2
            upr = (up - um) / (2 * hstep)
            worst = max(worst, abs(-x * upp - upr - t * u0))
    r.append(check("bessel-ode-residual", worst, 0.0, 1e-6,
                   "derived-oracle", inputs={"t": "0.5, 2.0"}))

    r.append(flag("ladder-size-guard",
                  _raises(DomainError, op.build_ladder, 1), "trivial"))
    r.append(flag("uppertri-overflow-guard",
                  _raises(CapabilityError, op.build_H_tilde, 193),
                  "trivial"))
    bad = op.TruncatedOperator(2, np.array([[1.0, 2.0], [0.0, 1.0]]))
    r.append(flag("eigh-symmetry-guard",
                  _raises(ZetalabError, op.tridiag_eigh, bad), "trivial"))
    return r


SUITES = (
    ("special", suite_special),
    ("quad", suite_quad),
    ("spectrum", suite_spectrum),
    ("states", suite_states),
    ("operators", suite_operators),
)
