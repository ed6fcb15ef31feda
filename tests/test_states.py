import math
import random
import struct

import mpmath as mp
import numpy as np
import pytest

import oracles
from zetalab.errors import (CapabilityError, ConvergenceError,
                            DivergenceError, DomainError, PreconditionError)
from zetalab.operators import eigen_residual
from zetalab.quad import QuadResult, integrate_semi_infinite
from zetalab.special import bessel_j0, eta, gamma, zeta
from zetalab.states import (GRAM_SIGN, StateParams, amplitude_F,
                            amplitude_G_rewritten, amplitude_G_tail, gram,
                            gram_diagonal_by_parts,
                            gram_diagonal_closed_form,
                            gram_diagonal_log_moment, gram_matrix,
                            norm_integral, norm_series_oracle,
                            paper_norm_closed_form, psi, psi_tilde)
from zetalab import states
from zetalab.states import _psi_quadrature, _psi_series

RHO1 = oracles.RHO1
RHO2 = oracles.RHO2
RHO3 = complex(0.5, oracles.ZERO_TAUS[2])


def test_state_params_require_right_half_plane():
    with pytest.raises(DomainError):
        StateParams(-0.5)
    with pytest.raises(DomainError):
        StateParams(0.0 + 3j)
    StateParams(1e-3)  # boundary of the open half plane is excluded only at 0


def test_state_params_refuse_non_finite_s():
    for s in (math.nan, complex(0.5, math.nan), complex(0.5, math.inf),
              math.inf):
        with pytest.raises(DomainError, match="finite s"):
            StateParams(s)


def test_state_params_refuse_non_finite_f_const():
    # A NaN f_const used to give NaN residuals under a full trusted
    # prefix, and psi at x = 1 an unrelated quadrature refusal.
    for f in (math.nan, complex(1.0, math.nan), math.inf):
        with pytest.raises(DomainError, match="finite f_const"):
            StateParams(0.5 + 14.134725141734693j, f_const=f)


def test_amplitude_interior_value():
    p = StateParams(2.0)
    assert abs(amplitude_F(p, 1.0) - 1.0 / (1.0 + math.e)) < 1e-16
    pf = StateParams(2.0, f_const=3 - 1j)
    assert abs(amplitude_F(pf, 1.0) - (3 - 1j) / (1.0 + math.e)) < 1e-15


def test_amplitude_origin_rules():
    # t = 0 is regular only where t^{s-1} has a limit.
    assert amplitude_F(StateParams(1.0), 0.0) == 0.5
    assert amplitude_F(StateParams(2.5), 0.0) == 0
    with pytest.raises(DomainError):
        amplitude_F(StateParams(RHO1), 0.0)
    with pytest.raises(DomainError):
        amplitude_F(StateParams(2.0), -1e-9)
    assert amplitude_F(StateParams(RHO1), 800.0) == 0


def test_amplitude_and_transform_refuse_non_finite_arguments():
    p = StateParams(2.0)
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(DomainError, match="finite"):
            amplitude_F(p, bad)
        with pytest.raises(DomainError, match="finite"):
            psi(p, bad)
        with pytest.raises(DomainError, match="finite"):
            psi_tilde(p, bad)


def test_transform_boundary_closed_form_s2():
    v = psi(StateParams(2.0), 0.0)
    assert abs(v.value - math.pi**2 / 12) < 1e-10
    assert v.abs_err < 1e-10
    # At x = 0 the weight is 1, so the weighted transform agrees.
    assert psi_tilde(StateParams(2.0), 0.0).value == v.value


def test_transform_interior_frozen_value():
    v = psi(StateParams(2.0), 1.0).value
    assert abs(v - oracles.PSI_S2_AT_1) < 1e-9
    assert abs(v.imag) < 1e-12


def test_weighted_transform_is_exponential_rescale():
    a = psi(StateParams(2.0), 1.3)
    b = psi_tilde(StateParams(2.0), 1.3)
    assert abs(b.value - a.value * math.exp(-0.65)) <= 1e-16
    assert b.abs_err <= a.abs_err


def test_transform_meets_series_oracle_at_random_points():
    # sigma in (0, 4], |tau| <= 60, x in [0, 50]: whichever path psi
    # takes, the reported bound must hold and meet tol.
    rng = random.Random(20240828)
    for _ in range(10):
        s = complex(4.0 * (1.0 - rng.random()), rng.uniform(-60.0, 60.0))
        x = rng.uniform(0.0, 50.0)
        want, want_err = oracles.psi_series_oracle(s, x)
        got = psi(StateParams(s), x)
        assert got.abs_err <= 1e-10
        assert abs(got.value - want) <= got.abs_err + want_err
        til = psi_tilde(StateParams(s), x)
        w = math.exp(-0.5 * x)
        assert til.abs_err <= 1e-10
        assert abs(til.value - want * w) <= til.abs_err + want_err * w


def test_transform_falls_back_to_quadrature_below_series_bound():
    p = StateParams(3.5)
    assert _psi_series(p, 10.0, 1e-13).abs_err > 1e-13
    got = psi(p, 10.0, tol=1e-13)
    assert got == _psi_quadrature(p, 10.0, 1e-13)
    want, want_err = oracles.psi_series_oracle(3.5, 10.0)
    assert abs(got.value - want) <= got.abs_err + want_err


def test_transform_above_tau_60_meets_series_oracle():
    # |Im s| in (60, 220], x in [0, 50]: psi takes the series wherever
    # its own bound meets tol.  The oracle sums to 1e-3 of the smallest
    # abs_err, so the comparison is not vacuous.  By quadrature, the
    # true error at such points reached 9.4 abs_err at tol 1e-2 and
    # 10.5 at 1e-4.
    rng = random.Random(20261019)
    tols = (1e-2, 1e-4, 1e-6, 1e-10)
    for _ in range(4):
        s = complex(rng.uniform(0.01, 4.0),
                    rng.choice((-1, 1)) * rng.uniform(60.0, 220.0))
        x = rng.uniform(0.0, 50.0)
        got = [psi(StateParams(s), x, tol) for tol in tols]
        floor = min(g.abs_err for g in got)
        want, want_err = oracles.psi_series_oracle(s, x, 1e-3 * floor)
        assert want_err <= 1e-3 * floor
        for tol, g in zip(tols, got):
            assert g.abs_err <= tol
            assert abs(g.value - want) + want_err <= g.abs_err


def test_transform_by_quadrature_at_large_x_meets_series_oracle():
    # Past x = 50 psi's series misses tight tols and psi integrates
    # F_s(t) J0(2 sqrt(x t)), with J0 at z up to about 155.  Below
    # x = 200 the oracle's own error stays under 1e-20; past it, it
    # exceeds a tol-1e-10 bound.  The worst true error / abs_err here
    # is 0.63.
    for s in (RHO1, 2 + 30j):
        p = StateParams(s)
        for x in (60.0, 100.0):
            want, want_err = oracles.psi_series_oracle(s, x)
            assert want_err <= 1e-20
            for tol in (1e-6, 1e-10):
                got = psi(p, x, tol)
                if x == 100.0:
                    assert got == _psi_quadrature(p, x, tol)
                assert got.abs_err <= tol
                assert abs(got.value - want) <= got.abs_err + want_err


def test_transform_falls_back_where_gamma_is_not_normal():
    # Past |Im s| ~ 450 Gamma(s) underflows double precision (0.5+500i):
    # the series does not apply, and psi answers or raises as the
    # quadrature does (at x = 2, tol 1e-6 it stalls at its rounding
    # floor), never 0 with abs_err 0.  Gamma(0.3+300i) = 1.8e-205 is a
    # normal double, so psi takes the series there and meets the oracle.
    def outcome(route, p, x, tol):
        try:
            return route(p, x, tol)
        except ConvergenceError as exc:
            return str(exc)

    p = StateParams(0.5 + 500j)
    for x, tol in ((1.0, 1e-10), (2.0, 1e-6)):
        assert _psi_series(p, x, tol) is None
        got = outcome(psi, p, x, tol)
        assert got == outcome(_psi_quadrature, p, x, tol)
        assert isinstance(got, str) or got.abs_err > 0
    p = StateParams(0.3 + 300j)
    got = psi(p, 1.0, 1e-10)
    assert got == _psi_series(p, 1.0, 1e-10) and 0 < got.abs_err <= 1e-10
    want, want_err = oracles.psi_series_oracle(p.s, 1.0, 1e-3 * got.abs_err)
    assert abs(got.value - want) + want_err <= got.abs_err


def test_psi_bound_covers_its_rounding_to_double_at_large_real_s():
    # |psi| grows like Gamma(Re s), so from Re s ~ 10 half an ulp of the
    # value passes tol 1e-10.  Both routes charge that rounding, so psi
    # answers within its bound or refuses, and a refusal's best covers
    # the truth as well.  At tol 1e-6 every point still answers.
    for sigma in (11.0, 12.0, 13.0):
        for x in (0.0, 1.0):
            if x:
                want, want_err = oracles.psi_series_oracle(sigma, x,
                                                           rounded=False)
            else:
                want, want_err = mp.gamma(sigma) * mp.altzeta(sigma), 0.0
            for tol in (1e-10, 1e-6):
                try:
                    got = psi(StateParams(sigma), x, tol)
                    assert got.abs_err <= tol
                except ConvergenceError as exc:
                    assert tol == 1e-10
                    got = exc.best
                assert abs(mp.mpc(got.value) - want) + want_err <= got.abs_err


def test_psi_refusal_best_covers_its_rounding_to_double():
    # Past Re s ~ 13.75 the quadrature itself stalls at its rounding
    # floor and refuses.  The best it hands on charges the value's
    # rounding to double as an answer does, so it still covers the truth
    # (at Re s = 14 the error is 4.5e-7, 708 times quad's own bound), and
    # the message states that bound.
    for sigma in (14.0, 15.0):
        with pytest.raises(ConvergenceError) as info:
            psi(StateParams(sigma), 0.0, 1e-10)
        best = info.value.best
        want = mp.gamma(sigma) * mp.altzeta(sigma)
        assert abs(mp.mpc(best.value) - want) <= best.abs_err
        assert f"(err {best.abs_err:.3e} > tol" in str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coefficients_past_double_range_refuse():
    # At s = 170, Gamma(170) = 4.3e304 is a normal double but
    # Gamma(n+s)/n! is not from n = 2: psi_tilde's coefficients refuse by
    # name, where the residual was NaN under a full trusted prefix, and
    # psi's series falls back as it does where Gamma refuses.
    with pytest.raises(CapabilityError, match="double precision"):
        eigen_residual(StateParams(170.0), 16)
    assert _psi_series(StateParams(170.0), 1.0, 1e-10) is None


def _outcome(fn, p, x, tol):
    """fn(p, x, tol) as its exact bits, or the refusal it raised."""
    try:
        r = fn(p, x, tol)
    except (CapabilityError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)
    return (r.value.real.hex(), r.value.imag.hex(), r.abs_err.hex(), r.evals)


def _stub_quadrature(monkeypatch):
    # The plans serve the series only; a stub keeps the points that fall
    # back from costing a quadrature each.
    monkeypatch.setattr(states, "_psi_quadrature",
                        lambda p, x, tol: QuadResult(0j, -1.0, -1))


_PLAN_XS = (0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0)


def test_series_plan_rows_equal_cold_calls_bit_for_bit(monkeypatch):
    # Whatever the order of x, psi and psi_tilde through a warm plan give
    # each point the bits of a cold call.  At Re s = 100 and 150 no K has
    # a tail below tol at f = 1, so psi falls back at every x.  Tiny f
    # lets the series apply at large Re s: at 100 a regrowth is capped at
    # _SERIES_TERMS_MAX rows, and at 120 and 130 the doubled build leaves
    # double precision and the plan builds exactly K instead.
    _stub_quadrature(monkeypatch)
    build, builds = states._psi_tilde_coefficients, []

    def recording(s, g, g_rel, K, fc):
        builds.append((s, K))
        out = build(s, g, g_rel, K, fc)
        builds[-1] += (True,)
        return out

    monkeypatch.setattr(states, "_psi_tilde_coefficients", recording)
    rng = random.Random(30)
    for s, f in ((RHO1, 1.0), (0.3 + 300j, 1.0), (2 + 30j, 1.0), (3.0, 1.0),
                 (100.0, 1.0), (150.0, 1.0), (100.0, 1e-150),
                 (120.0, 1e-200), (130.0, 1e-230)):
        p = StateParams(s, f)
        for tol in (1e-10, 1e-6):
            cold = {}
            for x in _PLAN_XS:
                for fn in (psi, psi_tilde):
                    states._series_plan.cache_clear()
                    cold[fn, x] = _outcome(fn, p, x, tol)
            for order in (_PLAN_XS, _PLAN_XS[::-1],
                          rng.sample(_PLAN_XS, len(_PLAN_XS))):
                states._series_plan.cache_clear()
                for x in order:
                    for fn in (psi, psi_tilde):
                        assert _outcome(fn, p, x, tol) == cold[fn, x], (
                            s, f, tol, x, fn.__name__)
    assert max(b[1] for b in builds if b[0] == 100) == 512
    for z in (120, 130):
        mine = [b for b in builds if b[0] == z]
        assert any(len(a) == 2 and b[2:] == (True,) and b[1] < a[1]
                   for a, b in zip(mine, mine[1:]))


def test_series_plans_keep_bits_per_key_and_evict(monkeypatch):
    # One plan per exact (s, f): 0.5+0i and 0.5-0i do not share, two
    # f_const at one s do not share, and with more (s, f) than the cache
    # holds, a plan rebuilt after eviction still gives the cold bits.
    _stub_quadrature(monkeypatch)
    ps = ([StateParams(complex(0.5, 0.0)), StateParams(complex(0.5, -0.0)),
           StateParams(RHO1), StateParams(RHO1, 2 - 1j)]
          + [StateParams(complex(0.5 + 0.05 * k, 14.0 + k)) for k in range(20)])
    xs = (0.0, 3.0, 1.0, 20.0)
    want = {}
    for i, p in enumerate(ps):
        for x in xs:
            states._series_plan.cache_clear()
            want[i, x] = _outcome(psi, p, x, 1e-10)
    states._series_plan.cache_clear()
    psi(ps[0], 1.0)
    psi(ps[1], 1.0)
    assert states._series_plan.cache_info().currsize == 2
    for x in xs:
        for i, p in enumerate(ps):
            assert _outcome(psi, p, x, 1e-10) == want[i, x], (p, x)
    info = states._series_plan.cache_info()
    assert info.currsize == info.maxsize < len(ps)


def test_transform_series_agrees_with_quadrature():
    for rho in (RHO1, RHO2):
        p = StateParams(rho)
        for x in np.linspace(0.0, 10.0, 6):
            ser = _psi_series(p, float(x), 1e-10)
            quad = _psi_quadrature(p, float(x), 1e-10)
            assert ser.abs_err <= 1e-10
            assert abs(ser.value - quad.value) <= ser.abs_err + quad.abs_err


def test_boundary_vanishes_at_zeros():
    for tau in oracles.ZERO_TAUS[:5]:
        p = StateParams(complex(0.5, tau))
        assert abs(psi(p, 0.0).value) < 1e-7


def test_boundary_continues_to_vanish_off_origin():
    p = StateParams(RHO1)
    assert abs(psi_tilde(p, 1e-6).value) < 1e-7
    assert abs(psi_tilde(p, 50.0).value) < 1e-9


def test_boundary_matches_gamma_eta_on_strip():
    worst = 0.0
    for sig in (0.3, 0.5, 0.8, 1.5, 2.5):
        for tau in (0.0, 1.0, 5.0, 11.0, 20.0):
            s = complex(sig, tau)
            got = psi(StateParams(s), 0.0).value
            worst = max(worst, abs(got - gamma(s) * eta(s)))
    assert worst < 1e-9


def test_adjoint_tail_frozen_value():
    v = amplitude_G_tail(StateParams(RHO1), 30.0)
    assert abs(v.value - oracles.GTAIL_RHO1_30) < 1e-11
    assert v.abs_err < 1e-11


def test_adjoint_tail_decays_like_reciprocal():
    g30 = amplitude_G_tail(StateParams(RHO1), 30.0).value
    g60 = amplitude_G_tail(StateParams(RHO1), 60.0).value
    ratio = abs(g60) / abs(g30)
    assert 0.4 < ratio < 0.7
    # Measured behavior: |G| itself decays, so the distance to the
    # constant -g stays order one rather than shrinking.
    assert abs(g30) < 0.031
    assert abs(g30 + 1.0) > 0.9


def test_adjoint_tail_domain_guards():
    with pytest.raises(DomainError):
        amplitude_G_tail(StateParams(RHO1), 0.0)
    with pytest.raises(DomainError):
        amplitude_G_tail(StateParams(RHO1), 700.0)


def test_adjoint_forms_agree_at_zero():
    for t in (0.5, 2.0):
        tail = amplitude_G_tail(StateParams(RHO1), t, tol=1e-12)
        rew = amplitude_G_rewritten(RHO1, t)
        assert abs(rew.value - tail.value) < 1e-6 * (1 + abs(tail.value))


def test_adjoint_rewritten_origin_limit():
    # pref * inner tends to 2 rho/(1 - rho) t^0, so the t -> 0 value is
    # -1 - 2 rho/(1 - rho) = -(1 + rho)/(1 - rho); with rho on the
    # critical line the magnitude is 1... checked numerically instead:
    lim = -1.0 / (1 - RHO1)
    got = amplitude_G_rewritten(RHO1, 1e-4).value
    assert abs(got - lim) < 1e-4


def test_adjoint_rewritten_requires_verified_zero():
    with pytest.raises(PreconditionError):
        amplitude_G_rewritten(0.5 + 10j, 1.0)
    with pytest.raises(DomainError):
        amplitude_G_rewritten(RHO1, 0.0)


def test_reflection_of_zero_is_zero():
    assert abs(zeta(1 - RHO1.conjugate())) < 1e-7


def test_norm_integral_against_alternating_series():
    # Independent route: expand (1+e^t)^{-2} into sum (-1)^k (k-1) e^{-kt}.
    for c in (2.0, 2.5, 4.0):
        got = norm_integral(c).value
        want = oracles.norm_alternating_oracle(c - 1.0)
        assert abs(got - want) <= 1e-9 * abs(want)
        assert abs(got - oracles.NORM_INT[c]) < 1e-11


def test_norm_integral_in_package_series_route():
    for c in (2.0, 2.5, 4.0):
        got = norm_integral(c).value
        want = norm_series_oracle(c - 1.0)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_norm_integral_log_closed_form():
    assert abs(norm_integral(2.0).value - (math.log(2.0) - 0.5)) < 1e-12


def test_norm_closed_form_and_exponent_shift():
    v = paper_norm_closed_form(2.0)
    assert abs(v - oracles.PAPER_NORM_2) < 1e-12
    # The printed form reproduces the series value two exponent steps up,
    # not the integral at the same c.
    assert abs(v - norm_series_oracle(3.0)) < 1e-12
    assert abs(v - norm_integral(4.0).value) < 1e-11
    assert abs(v - norm_integral(2.0).value) > 0.03
    v3 = paper_norm_closed_form(3.0)
    assert abs(v3 - norm_series_oracle(4.0)) < 1e-10


def test_norm_closed_form_removable_point():
    v1 = paper_norm_closed_form(1.0)
    assert abs(v1 - oracles.PAPER_NORM_1_LIMIT) < 1e-9
    # Continuity across the patched window around c = 1.
    assert abs(v1 - paper_norm_closed_form(1.0 + 1e-7)) < 1e-6


def test_norm_integral_divergence_guard():
    with pytest.raises(DivergenceError):
        norm_integral(1.0)
    with pytest.raises(DivergenceError):
        norm_integral(1.005)


@pytest.mark.filterwarnings("error")
def test_norm_integral_overflow_names_the_limit():
    # The tail bound C T^(c-2) e^-T (c = 150) or the envelope itself
    # (c = 1e300) is not finite: refused naming double precision, not a
    # bare OverflowError from the truncation point.
    for c in (150, 1e300):
        with pytest.raises(CapabilityError, match="double precision"):
            norm_integral(c)


@pytest.fixture(scope="module")
def gram2():
    return gram_matrix([RHO1, RHO2])


def test_gram_matrix_order_and_entry_metadata(gram2):
    assert len(gram2) == 2 and all(len(row) == 2 for row in gram2)
    # Row-major: the rho1 diagonal (~1e-9) leads, the rho2 one (~3e-14)
    # closes.
    assert abs(gram2[0][0].value) > 1e3 * abs(gram2[1][1].value)
    for row in gram2:
        for e in row:
            assert isinstance(e, QuadResult)
            assert e.abs_err < 1e-15
            assert e.abs_err > 0
            assert e.evals > 0


def test_gram_diagonals_match_frozen_oracle(gram2):
    g11 = gram2[0][0].value
    g22 = gram2[1][1].value
    assert abs(g11 - oracles.GRAM_DIAG1) <= 1e-6 * abs(oracles.GRAM_DIAG1)
    assert abs(g22 - oracles.GRAM_DIAG2) <= 1e-4 * abs(oracles.GRAM_DIAG2)


def test_gram_diagonal_closed_form_matches_frozen():
    c11 = gram_diagonal_closed_form(RHO1)
    c22 = gram_diagonal_closed_form(RHO2)
    assert abs(c11 - oracles.GRAM_DIAG1) <= 1e-12 * abs(oracles.GRAM_DIAG1)
    assert abs(c22 - oracles.GRAM_DIAG2) <= 1e-12 * abs(oracles.GRAM_DIAG2)
    assert GRAM_SIGN == -1


def test_gram_off_diagonals_suppressed(gram2):
    dmin = min(abs(gram2[0][0].value), abs(gram2[1][1].value))
    assert abs(gram2[0][1].value) < 1e-4 * dmin
    assert abs(gram2[1][0].value) < 1e-4 * dmin


def test_gram_by_parts_route(gram2):
    bp = gram_diagonal_by_parts(RHO1)
    g11 = gram2[0][0].value
    assert abs(bp - g11) <= 1e-6 * abs(g11)


def test_gram_log_moment_route():
    lm = gram_diagonal_log_moment(RHO1).value
    bp = gram_diagonal_by_parts(RHO1)
    assert abs(lm - bp) <= 1e-6 * abs(bp)


def test_gram_by_parts_keeps_gamma_prime_off_a_zero():
    # Off a zero eta(s) is not small, so Gamma'(s) = Gamma(s) psi(s)
    # carries the value; the old central difference erred by ~1e-10.
    with mp.workdps(30):
        for s in (2 + 3j, 0.7 + 20j, 0.05 + 45j):
            want = complex(-mp.diff(lambda z: mp.gamma(z) * mp.altzeta(z),
                                    mp.mpc(s)))
            assert abs(gram_diagonal_by_parts(s) - want) <= 1e-12 * abs(want)


def test_gram_bilinear_in_constants(gram2):
    # conj(2 - 1j) * (1 + 2j) = 5j.
    gs = gram(RHO1, RHO1, f_const=1 + 2j, g_const=2 - 1j)
    g11 = gram2[0][0].value
    assert abs(gs.value - 5j * g11) <= 1e-15 * abs(5j * g11)


def test_gram_guards():
    with pytest.raises(PreconditionError):
        gram(0.6 + 3j, RHO1)


def test_gram_refuses_tol_outside_the_unit_interval():
    # sqrt(8 - ln tol) has no real value past tol = e^8, and a tol of 1
    # or more bounds nothing; both are refused naming the range.
    for tol in (1.0, 100.0, 5000.0, 1e300, 0.0, -1e-18, math.nan):
        with pytest.raises(DomainError, match="0 < tol < 1"):
            gram(RHO1, RHO1, tol=tol)


def test_gram_checks_each_distinct_point_once(monkeypatch):
    # On the line 1 - conj(rho_row) is rho_row bit for bit, and on the
    # diagonal so is rho_col: a cold diagonal checks one point, a cold
    # off-diagonal two.  A warm row's points were checked at its build,
    # and a held column's at its own: a warm (rho1, rho2) checks nothing,
    # and a new column rho3 checks itself once, whatever f and g.  Off
    # the line each label is kept.
    import zetalab.states as states

    calls = []

    def counting(s):
        calls.append(s)
        return zeta(s)

    monkeypatch.setattr(states, "zeta", counting)
    for rho_col, want in ((RHO1, 1), (RHO2, 2)):
        states._gram_row.cache_clear()
        calls.clear()
        gram(RHO1, rho_col, tol=1e-6)
        assert len(calls) == want
    gram(RHO1, RHO1, tol=1e-6)
    calls.clear()
    gram(RHO1, RHO2, tol=1e-6)
    assert calls == []
    gram(RHO1, RHO3, tol=1e-6)
    gram(RHO1, RHO3, f_const=2, g_const=3j, tol=1e-6)
    assert calls == [RHO3]
    with pytest.raises(PreconditionError, match="rho_row"):
        gram(0.6 + 3j, RHO1)


def test_gram_refuses_non_finite_result(monkeypatch):
    # The outer run is stacked: row 0 the integral, row 1 its bound.
    import zetalab.states as states

    nan = np.full(2, complex("nan"))
    monkeypatch.setattr(states, "integrate_finite",
                        lambda *args, **kwargs: QuadResult(nan, 0.0, 0))
    with pytest.raises(DomainError, match="finite"):
        gram(RHO1, RHO1)


def test_gram_nested_route_meets_closed_form_for_four_zeros():
    # rho1..rho4, 16 entries at the default tol: each diagonal meets its
    # closed form and each off-diagonal vanishes within abs_err, and
    # every abs_err is inside the documented charge: twice the outer
    # run's tol, its bound row int |c| (e_in + d1) du with |c| = 2 on the
    # line, e_in <= tol/2 and d1 < 1e-19 over u in [0, ln U], and under
    # 1e-20 for the rest (the series' rounding, e^{-U^2} and 80 |w0|).
    tol = 1e-18
    rhos = [complex(0.5, t) for t in oracles.ZERO_TAUS[:4]]
    ln_u = 0.5 * math.log(8.0 - math.log(tol))
    bound = 2 * tol + 2 * ln_u * (tol / 2 + 1e-19) + 1e-20
    for i, row in enumerate(gram_matrix(rhos, tol=tol)):
        for j, e in enumerate(row):
            want = gram_diagonal_closed_form(rhos[i]) if i == j else 0
            assert abs(e.value - want) <= e.abs_err, (i, j)
            assert 0 < e.abs_err <= bound, (i, j)


def _gram_bits(e):
    return (e.value.real.hex(), e.value.imag.hex(), e.abs_err.hex(), e.evals)


def test_gram_warm_entries_equal_cold_ones():
    # A row plan serves every entry of its row: value, abs_err and evals
    # of each warm entry equal those of a call made on an empty cache.
    import zetalab.states as states

    rhos = [RHO1, RHO2, RHO3]
    for tol in (1e-18, 1e-12):
        warm = states.gram_matrix(rhos, tol=tol)
        for i, r in enumerate(rhos):
            for j, c in enumerate(rhos):
                states._gram_row.cache_clear()
                cold = gram(r, c, tol=tol)
                assert _gram_bits(warm[i][j]) == _gram_bits(cold), (tol, i, j)
    fg = {"f_const": 1 + 2j, "g_const": 2 - 1j}
    states._gram_row.cache_clear()
    cold = [gram(RHO2, c, **fg) for c in rhos]
    warm = [gram(RHO2, c, **fg) for c in rhos]
    assert list(map(_gram_bits, warm)) == list(map(_gram_bits, cold))
    for c, e in zip(rhos, warm):
        states._gram_row.cache_clear()
        assert _gram_bits(e) == _gram_bits(gram(RHO2, c, **fg))


def test_gram_builds_one_inner_integral_per_row(monkeypatch):
    # A 3x3 matrix builds the 3 rows' inner integrals and nothing per
    # entry; a second call finds all 3 rows held and builds none.  A row
    # whose build refuses is not held: it refuses again.
    import zetalab.states as states
    from zetalab.quad import CumulativeIntegral

    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return CumulativeIntegral(*args, **kwargs)

    monkeypatch.setattr(states, "CumulativeIntegral", counting)
    rhos = [RHO1, RHO2, RHO3]
    gram_matrix(rhos)
    assert len(builds) == 3
    gram_matrix(rhos)
    assert len(builds) == 3
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="rounding floor"):
            gram(RHO1, RHO2, tol=1e-25)
    assert len(builds) == 5


def _held_row(rho, tol=1e-18):
    return states._gram_row(struct.pack("3d", rho.real, rho.imag, tol))


def test_gram_held_columns_scale_to_cold_entries():
    # A row holds each column's entry at f = g = 1 and scales it by
    # conj(g) f.  On seeded draws over rho1..rho4, three tols and
    # constants of modulus 1, of other moduli, 0 and about 1e300, an
    # entry read from a column built at f = g = 1 has the bits of one
    # made on an empty cache.  Where conj(g) f overflows, both refuse.
    rng = random.Random(4301)
    rhos = [complex(0.5, t) for t in oracles.ZERO_TAUS[:4]]

    def const():
        phase = complex(math.cos(2 * math.pi * rng.random()),
                        math.sin(2 * math.pi * rng.random()))
        return rng.choice((phase, phase * rng.uniform(1e-3, 1e3), 0,
                           phase * 1e300))

    def outcome(*args, **kwargs):
        try:
            return _gram_bits(gram(*args, **kwargs))
        except DomainError as exc:
            assert "finite" in str(exc)
            return "refused"

    refused = 0
    for _ in range(40):
        r, c, tol = rng.choice(rhos), rng.choice(rhos), rng.choice(
            (1e-6, 1e-12, 1e-18))
        fg = {"f_const": const(), "g_const": const(), "tol": tol}
        states._gram_row.cache_clear()
        cold = outcome(r, c, **fg)
        states._gram_row.cache_clear()
        gram(r, c, tol=tol)
        assert len(_held_row(r, tol).cols) == 1
        warm = outcome(r, c, **fg)
        assert warm == cold, (r, c, fg)
        refused += cold == "refused"
    assert 0 < refused < 40


def test_gram_warm_column_runs_nothing(monkeypatch):
    # A held column answers new f and g with no outer run, no zero check
    # and no inner query.
    gram(RHO1, RHO2, tol=1e-12)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm column ran this")

    calls = _counting_queries(monkeypatch)
    monkeypatch.setattr(states, "integrate_finite", refuse)
    monkeypatch.setattr(states, "zeta", refuse)
    e = gram(RHO1, RHO2, f_const=2, g_const=3, tol=1e-12)
    assert e.value != 0 and calls == []


def test_gram_refused_entries_are_not_held():
    # A row past the inner integral's rounding floor and a column that is
    # not a zero each refuse twice with the same message: neither build
    # is kept, so the second call runs it again.
    for call, exc in ((lambda: gram(RHO1, RHO2, tol=1e-25), ConvergenceError),
                      (lambda: gram(RHO1, 0.6 + 3j), PreconditionError)):
        messages = []
        for _ in range(2):
            with pytest.raises(exc) as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert states._gram_row.cache_info().currsize == 1
    assert _held_row(RHO1).cols == {}


def _counting_queries(monkeypatch):
    from zetalab.quad import CumulativeIntegral

    calls, query = [], CumulativeIntegral._query

    def counting(self, xs, form):
        calls.append(len(xs))
        return query(self, xs, form)

    monkeypatch.setattr(CumulativeIntegral, "_query", counting)
    return calls


def test_gram_warm_entries_query_no_inner_integral(monkeypatch):
    # A row holds its inner values at each outer node array queried so
    # far.  Every outer run of a row starts on the same 8 panels, so only
    # the row's first entry queries them (4 arrays of 92 nodes).  A
    # column that refines past them, rho4 at tol 1e-18, queries its new
    # arrays once.  The row's held columns are dropped before each
    # repeated column, so its outer run does run again.
    calls = _counting_queries(monkeypatch)
    for tol in (1e-12, 1e-18):
        calls.clear()
        gram(RHO2, RHO2, tol=tol)
        assert calls == [92] * 4
        calls.clear()
        _held_row(RHO2, tol).cols.clear()
        for rho_col in (RHO1, RHO3, RHO2):
            gram(RHO2, rho_col, tol=tol)
        assert calls == []
    rho4 = complex(0.5, oracles.ZERO_TAUS[3])
    gram(RHO2, rho4)
    assert calls
    calls.clear()
    _held_row(RHO2).cols.clear()
    gram(RHO2, rho4)
    assert calls == []


def test_gram_rows_hold_few_node_arrays():
    # At tol 1e-18 a column may refine past the 8 initial panels, and
    # each refined pair is one more array: a 4-zero matrix holds 8, 7, 7
    # and 7 arrays per row.
    rhos = [complex(0.5, t) for t in oracles.ZERO_TAUS[:4]]
    gram_matrix(rhos)
    for r in rhos:
        row = states._gram_row(struct.pack("3d", r.real, r.imag, 1e-18))
        assert 4 <= len(row.held) <= 8, r


def test_gram_held_nodes_ignore_padding_bytes(monkeypatch):
    # A long double keeps its value in 10 of its 16 bytes; the other 6
    # vary from run to run.  Node arrays that differ in those bytes alone
    # read the same held values, and the entry keeps its bits.  The held
    # column is dropped before the repeat, so the outer run runs again.
    from zetalab.quad import integrate_finite

    def padded(fill):
        def run(f, *args, **kwargs):
            def g(u):
                u = u.copy()
                u.view(np.uint8).reshape(len(u), -1)[:, 10:] = fill
                return f(u)
            return integrate_finite(g, *args, **kwargs)
        return run

    calls = _counting_queries(monkeypatch)
    monkeypatch.setattr(states, "integrate_finite", padded(0x00))
    cold = gram(RHO1, RHO2)
    assert len(calls) == 4
    monkeypatch.setattr(states, "integrate_finite", padded(0xA5))
    _held_row(RHO1).cols.clear()
    assert _gram_bits(gram(RHO1, RHO2)) == _gram_bits(cold)
    assert len(calls) == 4


def test_gram_unreachable_tol_stops_at_rounding_floor():
    # The inner CumulativeIntegral's 80-bit floor is about 2.3e-20 at
    # rho1, so tol 1e-25 fails fast, with the best estimate attached.
    with pytest.raises(ConvergenceError, match="rounding floor") as info:
        gram(RHO1, RHO1, tol=1e-25)
    best = info.value.best
    assert best is not None and best.abs_err > 1e-25


def test_gram_meets_its_bound_at_every_tol():
    # abs_err bounds the error from tol 1e-2 to 1e-18 at the diagonals of
    # rho3..rho6 and their pairings with rho1.  The nested form's inner
    # integral's first panel at v = 0 used to over-run it by up to 2.5x
    # at rho3; on one log axis down to v = 1e-22, panels 3.27 wide there
    # aliased and over-ran it at rho4..rho6 by up to 3.4x.
    for tau in oracles.ZERO_TAUS[2:6]:
        rho = complex(0.5, tau)
        closed = gram_diagonal_closed_form(rho)
        for tol in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-18):
            for rho_col, want in ((rho, closed), (RHO1, 0)):
                e = gram(rho, rho_col, tol=tol)
                assert abs(e.value - want) <= e.abs_err, (tau, tol, rho_col)


def test_exp_ratio_series_sums_to_its_function():
    # gram's series for 2/(1+e^z), |z| <= 1, against mpmath:
    # its long-double coefficients and cut after z^62 lose about 1e-21.
    from zetalab.states import _exp_ratio_series
    b = [_mp_exact(c).real for c in _exp_ratio_series()]
    with mp.workdps(34):
        for z in (mp.mpf(1), mp.mpf(-1), mp.mpc(0, 1), mp.mpc(0.6, -0.8)):
            got = mp.fsum(c * z**j for j, c in enumerate(b))
            assert abs(got - 2 / (1 + mp.exp(z))) < 1e-20, z


def test_gram_evaluates_its_inner_integrand_only_at_build():
    # The inner queries evaluate no integrand, so an entry costs its
    # outer run plus one inner build (542,872 evaluations when each
    # outer node re-ran a 31-point rule through the inner integrand).
    assert gram(RHO1, RHO3).evals < 60_000


def _inner_integral_reference(tau, ln_lo, ln_xs, ln_hi):
    """int from e^{ln_lo} to each x = e^{ln_x}, and from each x to
    e^{ln_hi}, of gram's inner integrand 2 v^{2i tau} / (1 + e^{v^2}) dv
    at sorted ln_xs, at mpmath's working precision."""
    p = 2j * mp.mpf(tau)
    # 1/(1+e^u) = 1/2 - sum_n (4^n - 1) B_2n u^{2n-1} / (2n)!, |u| < pi,
    # integrated term by term against 2 v^p on [0, x] for x <= 1
    terms = [(mp.mpf(1) / 2, 0)] + [
        (-(4**n - 1) * mp.bernoulli(2 * n) / mp.factorial(2 * n), 4 * n - 2)
        for n in range(1, 60)]

    def lo(x):
        return mp.fsum(2 * c * x ** (p + m + 1) / (p + m + 1)
                       for c, m in terms)

    def f(v):
        return 2 * mp.exp(p * mp.log(v)) / (1 + mp.exp(v * v))

    def seg(a, b):
        if b <= 1:
            return lo(b) - lo(a)
        if a < 1:
            return seg(a, mp.mpf(1)) + seg(mp.mpf(1), b)
        return mp.quad(f, mp.linspace(a, b, int(10 * (b - a)) + 2))

    pts = [mp.exp(v) for v in [ln_lo, *ln_xs, ln_hi]]
    segs = [seg(a, b) for a, b in zip(pts, pts[1:])]
    return ([mp.fsum(segs[:k + 1]) for k in range(len(ln_xs))],
            [mp.fsum(segs[k + 1:]) for k in range(len(ln_xs))])


def _mp_exact(x):
    # a long double (real or complex) as an exact mpmath number
    x = np.clongdouble(x)
    re, im = (np.longdouble(v).as_integer_ratio() for v in (x.real, x.imag))
    return mp.mpc(mp.mpf(re[0]) / re[1], mp.mpf(im[0]) / im[1])


def test_gram_inner_queries_meet_their_bounds(monkeypatch):
    # Both query forms of gram's inner CumulativeIntegral on
    # u = ln v in [0, ln U], rows rho1..rho3, against 34-digit references
    # at 17 seeded points each, uniform in v over [1, U]; each u's long
    # double value is taken as exact.  No allowance: in the tail, v >~ 3,
    # the bounds hold without one for the integrand's conditioning, and
    # no initial panel turns more than 2 tau ln(U)/8 < 13 radians.
    import zetalab.states as states
    from zetalab.quad import CumulativeIntegral

    class Built(Exception):
        pass

    def capture(*args, **kwargs):
        raise Built(CumulativeIntegral(*args, **kwargs))

    upper = math.sqrt(-math.log(1e-18) + 8.0)
    for row, rho in enumerate((RHO1, RHO2, RHO3)):
        monkeypatch.setattr(states, "CumulativeIntegral", capture)
        with pytest.raises(Built) as info:
            gram(rho, rho)
        monkeypatch.undo()
        cum = info.value.args[0]
        rng = np.random.default_rng(row)
        us = np.sort(np.log(rng.uniform(1, upper, 17))).astype(np.longdouble)
        with mp.workdps(34):
            want_lo, want_hi = _inner_integral_reference(
                rho.imag, 0, [_mp_exact(u).real for u in us],
                math.log(upper))
            for query, want in ((cum.query_lo_many, want_lo),
                                (cum.query_hi_many, want_hi)):
                got, err = query(us)
                miss = np.array([float(abs(_mp_exact(g) - w))
                                 for g, w in zip(got, want)])
                assert np.all(miss <= err), (row, miss / err)


def test_state_satisfies_first_order_ode():
    # -i t F' - i/2 F - i t e^t/(1+e^t) F = lambda F with
    # lambda = i(1/2 - s), checked by central differences.
    p = StateParams(RHO1)
    lam = 1j * (0.5 - RHO1)
    h = 1e-5
    for t in (0.7, 3.0):
        fm = amplitude_F(p, t - h)
        f0 = amplitude_F(p, t)
        fp = amplitude_F(p, t + h)
        lhs = (-1j * t * (fp - fm) / (2 * h) - 0.5j * f0
               - 1j * t / (1 + math.exp(-t)) * f0)
        assert abs(lhs - lam * f0) <= 1e-6 * abs(f0)


def test_adjoint_satisfies_inhomogeneous_ode():
    # Same operator transposed picks up the +i g source term.
    lam = 1j * (0.5 - RHO1)
    h = 1e-5
    for t in (1.0, 2.0):
        gm = amplitude_G_rewritten(RHO1, t - h).value
        g0 = amplitude_G_rewritten(RHO1, t).value
        gp = amplitude_G_rewritten(RHO1, t + h).value
        lhs = (-1j * t * (gp - gm) / (2 * h) - 0.5j * g0
               + 1j * t / (1 + math.exp(-t)) * g0)
        assert abs(lhs - (lam * g0 + 1j)) <= 1e-6 * (1 + abs(g0))


def test_hankel_kernel_self_reciprocal():
    t0 = 0.8
    back = integrate_semi_infinite(
        lambda x: np.exp(-x) * bessel_j0(
            2.0 * np.sqrt(t0 * np.asarray(x, dtype=np.float64))),
        1.0, 1e-10)
    assert abs(back.value - math.exp(-t0)) < 1e-9
