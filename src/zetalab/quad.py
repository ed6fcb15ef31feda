"""Adaptive quadrature engine.

Covers finite, left-endpoint-singular, semi-infinite and cumulative
integrals.  A nested integral is one integrate_finite run whose
integrand takes a CumulativeIntegral's values at its own nodes (one
query per node array, which a caller may hold for the next run on the
same nodes) and returns the stacked rows [c W, |c| e_in]: the outer
coefficient times the inner value and times its bound.  All arithmetic
runs in 80-bit extended precision internally: the bilinear pairings
this package verifies sit around 1e-14 with relative targets of 1e-4,
which double precision cannot reach through oscillatory cancellation.

Panels are refined worst-first from a deterministic heap.  Each
refining integrand call covers at most two panels, both children of a
split or two initial panels, on one flat node array.  The run keeps
each panel's values at its 31 G31 nodes, and CumulativeIntegral builds
its antiderivatives from them without calling its integrand again.  The
final panels are kept as arrays ordered by left endpoint, and one
compensated running sum over them gives every run's value and
CumulativeIntegral's prefix and suffix, so results are reproducible
bit-for-bit.  Every run has one exit rule: it returns once the exactly
summed panel error meets tol, and raises ConvergenceError (best
estimate attached) at its evaluation budget or at its rounding floor,
where doubling the panel count no longer halves that error.

integrate_finite and integrate_semi_infinite also take a stacked
integrand: f(t) returns shape (m, len(t)), components on the leading
axis and nodes on the last.  All components share one subdivision: a
panel's error is the maximum over components of |G31 - G15|, so the
reported abs_err bounds every component (a sup-norm), the truncation
envelope is the maximum over components, and QuadResult.value is a
complex array of shape (m,).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint
from numpy.polynomial.legendre import legvander

from .errors import CapabilityError, ConvergenceError, DomainError

__all__ = [
    "QuadResult",
    "gauss_legendre",
    "integrate_finite",
    "integrate_semi_infinite",
    "CumulativeIntegral",
]

LD = np.longdouble
CLD = np.clongdouble
_EPS_LD = float(np.finfo(LD).eps)
# The pairings need true 80-bit extended precision (eps 1.08e-19);
# where long double is only float64 the engine refuses to load.
if _EPS_LD >= 1.2e-18:
    raise CapabilityError(
        f"numpy.longdouble eps is {_EPS_LD:.3g}; the quadrature engine "
        "needs 80-bit extended precision (eps < 1.2e-18)"
    )


@dataclass(frozen=True)
class QuadResult:
    """Value, reported error bound, and evaluation count of one integral.

    value is a complex array of shape (m,) for a stacked integrand, and
    abs_err then bounds every component.
    """

    value: complex | np.ndarray
    abs_err: float
    evals: int


# ---------------------------------------------------------------------------
# Gauss-Legendre rules


def _legendre_pn(n: int, x):
    # P_n and P_n' by the standard recurrence, dtype-preserving.
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
    dp = n * (x * p_cur - p_prev) / (x * x - 1)
    return p_cur, dp


def _gauss_rule_longdouble(n: int):
    """Nodes/weights on [-1, 1] in extended precision.

    float64 nodes seed two Newton corrections on P_n, which restores
    the digits lost to the double-precision tables.
    """
    x = np.polynomial.legendre.leggauss(n)[0].astype(LD)
    for _ in range(2):
        p, dp = _legendre_pn(n, x)
        x = x - p / dp
    _, dp = _legendre_pn(n, x)
    w = 2 / ((1 - x * x) * dp * dp)
    return x, w


def gauss_legendre(n: int):
    """Float64 Gauss-Legendre nodes and weights on [-1, 1], 1 <= n <= 512."""
    if not 1 <= n <= 512:
        raise CapabilityError(f"gauss_legendre supports 1 <= n <= 512, got {n}")
    x, w = _gauss_rule_longdouble(n)
    return x.astype(np.float64), w.astype(np.float64)


_X15, _W15 = _gauss_rule_longdouble(15)
_X31, _W31 = _gauss_rule_longdouble(31)
_X46 = np.concatenate([_X31, _X15])


def _running_sum(vals):
    """out[i] = vals[0] + ... + vals[i-1] along the panel axis (axis 0).

    Neumaier's compensated running sum (ZAMM 54, 1974), real and
    imaginary parts separately, vectorized over a stacked component
    axis.  The plain partial sums are one left-to-right cumsum, the exact
    rounding error of each addition comes from Neumaier's branch, and
    those errors are cumulated the same way, so every entry equals the
    scalar loop's total + comp bit for bit.
    """
    vals = np.asarray(vals)
    if vals.dtype.kind == "c":
        return _running_sum(vals.real) + 1j * _running_sum(vals.imag)
    zero = np.zeros((1,) + vals.shape[1:], dtype=LD)
    x = np.concatenate([zero, vals.astype(LD)])
    run = np.cumsum(x, axis=0)
    prev, t, x = run[:-1], run[1:], x[1:]
    err = np.where(abs(prev) >= abs(x), (prev - t) + x, (x - t) + prev)
    return run + np.cumsum(np.concatenate([zero, err]), axis=0)


def _eval_panels(f, lefts, rights):
    """G31 values, |G31 - G15| errors and G31-node values of panels.

    One integrand call on the 46 nodes of every panel, passed as one
    flat 1-D array.  Values have shape (panels,) or, for a stacked
    integrand, (panels, m); a stacked panel's error is the maximum over
    its components.  The node values have shape (panels, 31) or
    (panels, m, 31).
    """
    h = (rights - lefts) / 2
    nodes = ((lefts + rights) / 2)[:, None] + h[:, None] * _X46
    y = np.asarray(f(nodes.ravel()))
    y = y.reshape(y.shape[:-1] + nodes.shape)
    v31 = h * (y[..., :31] @ _W31)
    diff = abs(v31 - h * (y[..., 31:] @ _W15))
    if diff.ndim == 2:
        v31, diff = v31.T, diff.max(axis=0)
    return (v31, diff.astype(np.float64).tolist(),
            np.moveaxis(y[..., :31], -2, 0))


def _result_value(value):
    # complex for a scalar integrand, complex128 array (m,) for a stacked one
    if np.ndim(value):
        return np.asarray(value, dtype=np.complex128)
    return complex(value)


# ---------------------------------------------------------------------------
# Core adaptive driver


def _check_interval(a, b):
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad interval [{a}, {b}]")


def _adaptive_panels(f, a, b, tol, max_evals, initial):
    """Worst-first refinement until the summed error estimate meets tol.

    Returns (lefts, rights, vals, errs, ys, err, evals): the final panels
    as arrays sorted by left edge, their G31 values, error estimates and
    integrand values at the 31 G31 nodes, the exactly summed error and
    the evaluation count.  Raises DomainError unless a < b are finite,
    and ConvergenceError with the best estimate attached when the budget
    runs out, the run stalls at its rounding or width floor, or the
    error estimate is NaN.
    """
    _check_interval(a, b)
    edges = np.linspace(LD(a), LD(b), initial + 1)
    heap = []
    stuck = []
    evals = 0
    seq = 0
    total_err = 0.0

    def _push(lefts, rights):
        # One integrand call on at most two panels, queued worst-first.
        nonlocal evals, seq, total_err
        vals, errs, ys = _eval_panels(f, lefts, rights)
        evals += 46 * len(errs)
        for pa, pb, v, e, y in zip(lefts, rights, vals, errs, ys):
            heapq.heappush(heap, (-e, seq, pa, pb, v, y))
            seq += 1
            total_err += e

    # In pairs, as a split pushes them: bessel_j0 sizes its sum by the
    # batch's largest z, so one call on all of them would move psi's bits.
    for i in range(0, initial, 2):
        _push(edges[i:i + 2], edges[i + 1:i + 3])

    def _exact_err():
        # one fsum, so it equals the returned err bit for bit
        return math.fsum([-h[0] for h in heap] + [p[3] for p in stuck])

    # The running total_err drifts over many add/subtract cycles, so it
    # only proposes an exit; an exact re-sum confirms it.  At every
    # doubling of the panel count the error is re-summed too, and once it
    # no longer halves, the G31 - G15 estimates are rounding noise: the
    # run stops at its rounding floor.
    check_at, check_err = 2 * initial, math.inf
    stop = "stalled at width floor"
    while heap and not math.isnan(total_err):
        doubled = len(heap) >= check_at
        if total_err <= tol or doubled:
            total_err = _exact_err()
            if total_err <= tol:
                break
        if doubled:
            if total_err > check_err / 2:
                stop = "stalled at rounding floor"
                break
            check_at, check_err = 2 * len(heap), total_err
        if evals + 92 > max_evals:
            stop = "budget exhausted"
            break
        neg_err, _, pa, pb, pv, py = heapq.heappop(heap)
        width = pb - pa
        floor = max(1e-300, 4 * _EPS_LD * float(max(abs(pa), abs(pb))))
        if float(width) < floor:
            # Cannot refine further in this precision; keep as-is.
            stuck.append((pa, pb, pv, -neg_err, py))
            if _exact_err() <= tol:
                break
            continue
        total_err += neg_err  # remove parent's err (neg_err is negative)
        mid = pa + width / 2
        _push(np.array([pa, mid]), np.array([mid, pb]))

    panels = [(pa, pb, pv, -ne, py) for ne, _, pa, pb, pv, py in heap]
    panels = sorted(panels + stuck, key=lambda p: p[0])
    lefts, rights, vals, errs, ys = (np.array(c) for c in zip(*panels))
    err = math.fsum(errs)
    if not err <= tol:
        stop = "NaN error estimate" if math.isnan(err) else stop
        raise ConvergenceError(
            f"quadrature {stop} after {evals} evaluations "
            f"(err {err:.3e} > tol {tol:.3e})",
            best=QuadResult(_result_value(_running_sum(vals)[-1]), err,
                            evals),
        )
    return lefts, rights, vals, errs, ys, err, evals


def integrate_finite(f, a, b, tol, endpoint_exponent=1.0, max_evals=400_000,
                     initial=8):
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    f must accept a longdouble array and return an array (real or
    complex), or a stacked (m, len(t)) array of m components that share
    one subdivision (see the module docstring).  endpoint_exponent
    sigma > 0 says f behaves like (t-a)^{sigma-1} as t -> a+; sigma in
    (0, 1) marks an integrable singularity at the LEFT endpoint, which
    the substitution t = a + u^{1/sigma} removes exactly.
    """
    sigma = endpoint_exponent
    if not sigma > 0:
        raise DomainError("endpoint_exponent must be positive for integrability")
    if sigma < 1:
        _check_interval(a, b)  # name the caller's bounds, not the mapped ones
        inv, a_ld, g = 1.0 / sigma, LD(a), f

        def f(u):
            return np.asarray(g(a_ld + u**inv)) * inv * u ** (inv - 1)

        a, b = LD(0), (LD(b) - a_ld) ** sigma
    _, _, vals, _, _, err, evals = _adaptive_panels(f, a, b, tol, max_evals,
                                                    initial)
    return QuadResult(_result_value(_running_sum(vals)[-1]), err, evals)


# Where _truncation_point samples the integrand's envelope.
_ENVELOPE_SAMPLES = (0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0)


def _truncation_point(f, sigma, tol):
    """Pick T with the envelope tail bound C t^{sigma-1} e^{-t} integrated
    beyond T below tol/10, for f decaying like e^{-t}; a stacked
    integrand's envelope is the maximum over its components.  Returns
    (T, tail), tail bounding the integral beyond T, or raises
    CapabilityError where either is not finite."""
    ts = np.array(_ENVELOPE_SAMPLES, dtype=LD)
    vals = np.abs(np.asarray(f(ts)))
    if vals.ndim == 2:
        vals = vals.max(axis=0)
    cval = float(np.max(vals * ts ** LD(1 - sigma) * np.exp(ts))) or 1.0
    target = math.log(20 * cval / tol)
    t_trunc = max(12.0, target)
    for _ in range(8):
        t_trunc = max(12.0, target + (sigma - 1) * math.log(t_trunc))
    peak = float(ts[int(np.argmax(vals))]) if np.any(vals > 0) else 1.0
    t_trunc = max(t_trunc, 1.5 * peak + 10.0) + 4.0
    t_trunc = min(t_trunc, 50_000.0)
    try:
        tail = 2 * cval * t_trunc ** (sigma - 1) * math.exp(-t_trunc)
    except OverflowError:
        tail = math.inf
    if not tail < math.inf:  # NaN too: envelope overflow
        raise CapabilityError("the envelope or tail bound overflows double "
                              f"precision at endpoint exponent {sigma:.6g}")
    return t_trunc, tail


def integrate_semi_infinite(f, endpoint_exponent, tol):
    """Integral of f over (0, inf) for exponentially decaying f.

    Truncates at an envelope-derived point T (tail bound folded into the
    reported error), then integrates [0, T] adaptively with the
    endpoint-exponent handling of integrate_finite.  evals includes the
    envelope samples; a ConvergenceError's best carries both as well, and
    its message that count and err.
    """
    if not endpoint_exponent > 0:
        raise DomainError("endpoint_exponent must be positive for integrability")
    T, tail = _truncation_point(f, endpoint_exponent, tol)
    n = len(_ENVELOPE_SAMPLES)
    try:
        res = integrate_finite(f, 0.0, T, tol, endpoint_exponent,
                               max_evals=600_000, initial=16)
    except ConvergenceError as exc:
        b = exc.best
        raise _restated(exc, QuadResult(b.value, b.abs_err + tail,
                                        b.evals + n)) from None
    return QuadResult(res.value, res.abs_err + tail, res.evals + n)


def _restated(exc, best):
    """exc with best, a widened exc.best, and its message restated."""
    old, msg = exc.best, str(exc)
    return ConvergenceError(msg.replace(
        f"{old.evals} evaluations (err {old.abs_err:.3e}",
        f"{best.evals} evaluations (err {best.abs_err:.3e}"), best=best)


# ---------------------------------------------------------------------------
# Cumulative integrals


def _antiderivative_maps():
    """Frozen (32, 31) maps from a panel's 31 G31-node values f_k to the
    T-basis coefficients of their interpolant's antiderivative from -1
    (lo) and to 1 (hi = sum_k w_k f_k - lo), through the Legendre ones
    G31 gives exactly (Greengard, SIAM J. Numer. Anal. 28, 1991)."""
    shift = (np.eye(31, k=1, dtype=LD) + np.eye(31, k=-1, dtype=LD)) / 2
    shift[1, 0] = 1  # x T_0 = T_1, x T_m = (T_{m+1} + T_{m-1}) / 2
    p = [np.eye(31, dtype=LD)[0], shift[:, 0]]
    for k in range(1, 30):
        p.append(((2 * k + 1) * shift @ p[k] - k * p[k - 1]) / (k + 1))
    legendre = (np.arange(31) + 0.5)[:, None] * legvander(_X31, 30).T * _W31
    lo = chebint(np.array(p).T @ legendre, lbnd=-1)
    return lo, np.vstack([_W31 - lo[0], -lo[1:]])


_LO_MAP, _HI_MAP = _antiderivative_maps()


class CumulativeIntegral:
    """One adaptive decomposition of [lo, hi], queryable from both ends.

    query_lo_many(xs) returns the running integrals from lo to each x;
    query_hi_many(xs) the remainders from each x to hi, whose error
    bounds cover [x, hi] only: a caller that drops a tail beyond hi adds
    its bound itself.  From the G31-node values the refinement already
    computed, the build keeps the Chebyshev coefficients of each final
    panel's interpolant's antiderivative, so a query evaluates no
    integrand; it charges the partial panel's |G31 - G15| plus its last
    two coefficients' moduli.  Every panel's error also carries 4 eps
    (long double) times its G31 integral of |f|, for the rounding of
    the values and sums a query adds up.  evals counts the refinement's
    evaluations, the only ones the build makes.
    """

    def __init__(self, f, lo, hi, tol):
        (self._lefts, self._rights, vals, errs, y, _,
         self.evals) = _adaptive_panels(f, lo, hi, tol, 400_000, 8)
        h = (self._rights - self._lefts) / 2
        errs = errs + 4 * _EPS_LD * (h * (np.abs(y) @ _W31)).astype(float)
        self._coefs = [h[:, None] * (y @ m.T) for m in (_LO_MAP, _HI_MAP)]
        tail = abs(self._coefs[0][:, 30:]).sum(axis=1)  # |d_30| + |d_31|
        self._part_err = errs + tail.astype(np.float64)
        self._prefix = _running_sum(vals)
        self._suffix = _running_sum(vals[::-1])[::-1]
        self._prefix_err = np.concatenate([[0.0], np.cumsum(errs)])
        self._suffix_err = np.concatenate([np.cumsum(errs[::-1])[::-1], [0.0]])

    def _query(self, xs, form):
        # Each x's panel (on a stored edge, the one its partial panel is
        # empty in) and the antiderivative there from the panel's left
        # edge (form 0) or to its right edge (form 1).  vecdot sums each
        # point's terms in one fixed order, batched or not.
        xs = np.asarray(xs, dtype=LD)
        j = np.searchsorted(self._lefts, xs, "left" if form else "right")
        j = np.clip(j - 1, 0, len(self._lefts) - 1)
        a, b = self._lefts[j], self._rights[j]
        y = (xs - (a + b) / 2) / ((b - a) / 2)
        t = np.empty((32,) + y.shape, dtype=LD)
        t[0], t[1] = 1, y
        y2, rows = y + y, [t[k, ...] for k in range(32)]
        for k in range(2, 32):  # T_k in place on row views: the main cost
            np.multiply(y2, rows[k - 1], out=rows[k])
            np.subtract(rows[k], rows[k - 2], out=rows[k])
        part = np.vecdot(np.moveaxis(t, 0, -1), self._coefs[form][j])
        return j, np.where(xs >= b if form else xs <= a, 0, part)

    def query_lo_many(self, xs):
        """(integrals from lo to each x, their error bounds)."""
        j, part = self._query(xs, 0)
        return self._prefix[j] + part, self._prefix_err[j] + self._part_err[j]

    def query_hi_many(self, xs):
        """(integrals from each x to hi, their error bounds)."""
        j, part = self._query(xs, 1)
        return (self._suffix[j + 1] + part,
                self._suffix_err[j + 1] + self._part_err[j])
