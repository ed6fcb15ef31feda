"""Adaptive quadrature engine.

Covers finite, left-endpoint-singular, semi-infinite, and nested
integrals.  A nested integral takes its inner factor as a query,
inner(nodes) -> (W, pointwise_err), normally the query_lo_many or
query_hi_many of one CumulativeIntegral the caller built, so a single
inner decomposition serves every outer node.  All arithmetic runs in
80-bit extended precision internally: the bilinear pairings this
package verifies sit around 1e-14 with relative targets of 1e-4, which
double precision cannot reach through oscillatory cancellation.

Panels are refined worst-first from a deterministic heap; final values
are compensated sums over panels ordered by left endpoint, so results
are reproducible bit-for-bit.

integrate_finite, integrate_semi_infinite and truncation_point also
take a stacked integrand: f(t) returns shape (m, len(t)), components
on the leading axis and nodes on the last.  All components share one
subdivision: a panel's error is the maximum over components of
|G31 - G15|, so the reported abs_err bounds every component (a
sup-norm), the truncation envelope is the maximum over components, and
QuadResult.value is a complex array of shape (m,).  A stacked run
tracks its summed error exactly and raises ConvergenceError ("rounding
floor", best estimate attached) once doubling its panel count no longer
halves that error.  A scalar integrand runs exactly the arithmetic it
would alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    PreconditionError,
)

__all__ = [
    "QuadResult",
    "IntegrandSpec",
    "gauss_legendre",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_nested",
    "truncation_point",
    "CumulativeIntegral",
]

LD = np.longdouble
CLD = np.clongdouble
_EPS_LD = float(np.finfo(LD).eps)


@dataclass(frozen=True)
class QuadResult:
    """Value, reported error bound, and evaluation count of one integral.

    value is a complex array of shape (m,) for a stacked integrand, and
    abs_err then bounds every component.
    """

    value: complex | np.ndarray
    abs_err: float
    evals: int


@dataclass(frozen=True)
class IntegrandSpec:
    """Endpoint/decay metadata the engine needs to pick a strategy.

    endpoint_exponent sigma means the integrand behaves like t^{sigma-1}
    as t -> 0+; sigma in (0, 1) triggers the substitution t = u^{1/sigma}
    which removes the integrable singularity exactly.
    """

    endpoint_exponent: float
    decay: str = "exponential"

    def __post_init__(self):
        if not self.endpoint_exponent > 0:
            raise DomainError("endpoint_exponent must be positive for integrability")
        if self.decay not in ("exponential", "none"):
            raise DomainError(f"unknown decay tag {self.decay!r}")


# ---------------------------------------------------------------------------
# Gauss-Legendre rules


def _legendre_pn(n: int, x):
    # P_n and P_n' by the standard recurrence, dtype-preserving.
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
    if n == 1:
        p_cur, p_prev = x.copy(), np.ones_like(x)
    dp = n * (x * p_cur - p_prev) / (x * x - 1)
    return p_cur, dp


@lru_cache(maxsize=64)
def _gauss_rule_longdouble(n: int):
    """Nodes/weights on [-1, 1] in extended precision.

    float64 nodes seed two Newton corrections on P_n, which restores
    the digits lost to the double-precision tables.
    """
    if n == 1:
        return np.zeros(1, dtype=LD), np.full(1, 2, dtype=LD)
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


def _neumaier(values):
    # Compensated sum, real and imaginary parts separately; a stacked
    # (panels, m) array is summed one component at a time.
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
        return np.array([_neumaier(col) for col in arr.T])
    if arr.dtype.kind == "c":
        return CLD(_sum1(arr.real.astype(LD))) + 1j * CLD(_sum1(arr.imag.astype(LD)))
    return _sum1(arr.astype(LD))


def _eval_panel(f, a, b):
    h = (b - a) / 2
    mid = (a + b) / 2
    y31 = np.asarray(f(mid + h * _X31))
    y15 = np.asarray(f(mid + h * _X15))
    v31 = h * (y31 @ _W31)
    v15 = h * (y15 @ _W15)
    diff = abs(v31 - v15)
    return v31, float(diff.max() if diff.ndim else diff)


def _result_value(value):
    # complex for a scalar integrand, complex128 array (m,) for a stacked one
    if np.ndim(value):
        return np.asarray(value, dtype=np.complex128)
    return complex(value)


# ---------------------------------------------------------------------------
# Core adaptive driver


def _adaptive_panels(f, a, b, tol, max_evals, initial):
    """Worst-first refinement until the summed error estimate meets tol.

    Returns (panels sorted by left edge, evals); each panel is
    (left, right, value, err).  Raises ConvergenceError with the best
    estimate attached when the budget runs out.
    """
    a = LD(a)
    b = LD(b)
    edges = np.linspace(a, b, initial + 1)
    heap = []
    stuck = []
    evals = 0
    seq = 0
    total_err = 0.0
    for i in range(initial):
        v, e = _eval_panel(f, edges[i], edges[i + 1])
        evals += 46
        heapq.heappush(heap, (-e, seq, edges[i], edges[i + 1], v))
        seq += 1
        total_err += e

    def _finish():
        panels = [(pa, pb, pv, -ne) for ne, _, pa, pb, pv in heap]
        panels += stuck
        panels.sort(key=lambda p: p[0])
        value = _neumaier([p[2] for p in panels])
        err = float(math.fsum(p[3] for p in panels))
        return panels, value, err

    def _exact_err():
        return math.fsum(-h[0] for h in heap) + math.fsum(p[3] for p in stuck)

    # A stacked run sums its panel errors exactly after every split (cheap
    # next to its integrand), and it stops at its rounding floor: once
    # doubling the panel count no longer halves the error, the G31 - G15
    # estimates are rounding noise.  Scalar runs keep the running
    # accumulator, whose exits gram depends on.
    stacked = np.ndim(v) > 0
    check_at, check_err = 2 * initial, math.inf
    at_floor = False
    splits = 0
    while total_err > tol and heap:
        if stacked and len(heap) >= check_at:
            if total_err > check_err / 2:
                at_floor = True
                break
            check_at, check_err = 2 * len(heap), total_err
        splits += 1
        if splits % 1024 == 0:
            # The running accumulator drifts after many add/subtract cycles;
            # resync against the exact sum so tiny tolerances stay reachable.
            total_err = _exact_err()
        if evals + 92 > max_evals:
            panels, value, err = _finish()
            if err <= tol:
                return panels, value, err, evals
            raise ConvergenceError(
                f"quadrature budget exhausted at {evals} evaluations "
                f"(err {err:.3e} > tol {tol:.3e})",
                best=QuadResult(_result_value(value), err, evals),
            )
        neg_err, _, pa, pb, pv = heapq.heappop(heap)
        width = pb - pa
        floor = max(1e-300, 4 * _EPS_LD * float(max(abs(pa), abs(pb))))
        if float(width) < floor:
            # Cannot refine further in this precision; keep as-is.
            stuck.append((pa, pb, pv, -neg_err))
            if _exact_err() <= tol or not heap:
                break
            continue
        total_err += neg_err  # remove parent's err (neg_err is negative)
        mid = pa + width / 2
        for lo, hi in ((pa, mid), (mid, pb)):
            v, e = _eval_panel(f, lo, hi)
            evals += 46
            heapq.heappush(heap, (-e, seq, lo, hi, v))
            seq += 1
            total_err += e
        if stacked:
            total_err = _exact_err()

    panels, value, err = _finish()
    if err > tol and (at_floor or not heap):
        where = "rounding" if at_floor else "width"
        raise ConvergenceError(
            f"quadrature stalled at {where} floor (err {err:.3e} > tol {tol:.3e})",
            best=QuadResult(_result_value(value), err, evals),
        )
    return panels, value, err, evals


def _maybe_substitute(f, a, spec):
    """Map an integrand singular like (t-a)^{sigma-1} onto its regular
    u-variable form via t = a + u^{1/sigma}; returns (g, map_to_u)."""
    sigma = spec.endpoint_exponent
    inv = 1.0 / sigma
    a_ld = LD(a)

    def g(u):
        t = a_ld + u**inv
        return np.asarray(f(t)) * inv * u ** (inv - 1)

    def to_u(t):
        return (LD(t) - a_ld) ** sigma

    return g, to_u


def integrate_finite(f, a, b, tol, spec=None, max_evals=400_000, initial=8):
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    f must accept a longdouble array and return an array (real or
    complex), or a stacked (m, len(t)) array of m components that share
    one subdivision (see the module docstring).  A spec with
    endpoint_exponent in (0, 1) marks an integrable singularity at the
    LEFT endpoint, handled by exact substitution.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad interval [{a}, {b}]")
    if spec is not None and 0 < spec.endpoint_exponent < 1:
        g, to_u = _maybe_substitute(f, a, spec)
        _, value, err, evals = _adaptive_panels(
            g, LD(0), to_u(b), tol, max_evals, initial
        )
    else:
        _, value, err, evals = _adaptive_panels(f, a, b, tol, max_evals, initial)
    return QuadResult(_result_value(value), err, evals)


def truncation_point(f, spec, tol, samples=(0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0)):
    """Pick T with the envelope tail bound C t^{sigma-1} e^{-t} integrated
    beyond T below tol/10; a stacked integrand's envelope is the maximum
    over its components.  Returns (T, tail_bound, evals)."""
    if spec.decay != "exponential":
        raise PreconditionError("truncation requires exponentially decaying integrand")
    sigma = spec.endpoint_exponent
    ts = np.array(samples, dtype=LD)
    vals = np.abs(np.asarray(f(ts)))
    if vals.ndim == 2:
        vals = vals.max(axis=0)
    env = vals * ts ** LD(1 - sigma) * np.exp(ts)
    env = env[np.isfinite(env)]
    cval = float(np.max(env)) if env.size else 0.0
    if cval <= 0:
        cval = 1.0
    target = math.log(20 * cval / tol)
    t_trunc = max(12.0, target)
    for _ in range(8):
        t_trunc = max(12.0, target + (sigma - 1) * math.log(t_trunc))
    peak = float(ts[int(np.argmax(vals))]) if np.any(vals > 0) else 1.0
    t_trunc = max(t_trunc, 1.5 * peak + 10.0) + 4.0
    t_trunc = min(t_trunc, 50_000.0)
    tail = 2 * cval * t_trunc ** (sigma - 1) * math.exp(-t_trunc)
    return t_trunc, tail, len(samples)


def integrate_semi_infinite(f, spec, tol, max_evals=600_000, T=None):
    """Integral of f over (0, inf) for exponentially decaying f.

    Truncates at an envelope-derived point T (tail bound folded into the
    reported error), then integrates [0, T] adaptively with the
    endpoint-exponent handling of integrate_finite.
    """
    if spec.decay != "exponential":
        raise PreconditionError("integrate_semi_infinite requires exponential decay")
    extra = 0
    tail = 0.0
    if T is None:
        T, tail, extra = truncation_point(f, spec, tol)
    res = integrate_finite(f, 0.0, T, tol, spec=spec, max_evals=max_evals,
                           initial=16)
    return QuadResult(res.value, res.abs_err + tail, res.evals + extra)


# ---------------------------------------------------------------------------
# Cumulative integrals and the nested driver


class CumulativeIntegral:
    """One adaptive decomposition of [lo, hi], queryable from both ends.

    query_lo_many(xs) returns the running integrals from lo to each x;
    query_hi_many(xs) the remainders from each x to hi (plus tail_bound
    beyond hi folded into the reported error).  Queries reuse the stored
    panel decomposition: one 31-point rule on each partial panel, all of
    them in a single integrand call, never a recomputation from the
    endpoint.  f must therefore act elementwise on arrays of any shape.
    """

    def __init__(self, f, lo, hi, tol, max_evals=400_000, tail_bound=0.0,
                 initial=8):
        self._f = f
        self.lo = LD(lo)
        self.hi = LD(hi)
        self.tail_bound = float(tail_bound)
        panels, value, err, evals = _adaptive_panels(
            f, self.lo, self.hi, tol, max_evals, initial
        )
        self.evals = evals
        self._lefts = np.array([p[0] for p in panels], dtype=LD)
        self._rights = np.array([p[1] for p in panels], dtype=LD)
        vals = [CLD(p[2]) for p in panels]
        errs = [p[3] for p in panels]
        self._errs = np.array(errs, dtype=np.float64)
        n = len(panels)
        prefix = np.zeros(n + 1, dtype=CLD)
        run = CLD(0)
        comp = CLD(0)
        for i, v in enumerate(vals):
            # Kahan-style running sum keeps prefix error flat in n.
            y = v - comp
            t = run + y
            comp = (t - run) - y
            run = t
            prefix[i + 1] = run
        self._prefix = prefix
        self._total = complex(prefix[-1])
        suffix = np.zeros(n + 1, dtype=CLD)
        run = CLD(0)
        comp = CLD(0)
        for i in range(n - 1, -1, -1):
            y = vals[i] - comp
            t = run + y
            comp = (t - run) - y
            run = t
            suffix[i] = run
        self._suffix = suffix
        pe = np.zeros(n + 1)
        pe[1:] = np.cumsum(self._errs)
        self._prefix_err = pe
        se = np.zeros(n + 1)
        se[:-1] = np.cumsum(self._errs[::-1])[::-1]
        self._suffix_err = se

    def total(self) -> QuadResult:
        return QuadResult(self._total, float(self._prefix_err[-1]) + self.tail_bound,
                          self.evals)

    def _locate(self, xs):
        # Index of the stored panel holding each x (the last one past hi).
        xs = np.asarray(xs, dtype=LD)
        j = np.searchsorted(self._rights, xs, side="left")
        return xs, np.minimum(j, len(self._rights) - 1)

    def _partial(self, a, b):
        # 31-point rule on each [a_i, b_i]; zero-width panels stay zero.
        part = np.zeros(a.shape, dtype=CLD)
        live = b > a
        if np.any(live):
            h = (b[live] - a[live]) / 2
            mid = (a[live] + b[live]) / 2
            y = np.asarray(self._f(mid[:, None] + h[:, None] * _X31))
            part[live] = h * (y @ _W31)
        return part

    def query_lo_many(self, xs):
        """(integrals from lo to each x, their error bounds)."""
        xs, j = self._locate(xs)
        vals = self._prefix[j] + self._partial(self._lefts[j], xs)
        return vals, self._prefix_err[j] + self._errs[j]

    def query_hi_many(self, xs):
        """(integrals from each x to hi, their error bounds incl. tail_bound)."""
        xs, j = self._locate(xs)
        vals = self._suffix[j + 1] + self._partial(xs, self._rights[j])
        return vals, self._suffix_err[j + 1] + self._errs[j] + self.tail_bound


def integrate_nested(outer_coef, inner, tol, a, b, max_evals=1_500_000):
    """Two-level integral over [a, b] of outer_coef(t) * W(t), where
    W is an inner factor the caller has already decomposed.

    inner(nodes) returns (W, pointwise_err) at an array of outer nodes,
    err bounding the error of W at each node; usually the query_lo_many
    or query_hi_many of a CumulativeIntegral, or a composition of them.
    The outer integral is refined adaptively from 64 equal panels.  The
    reported error adds the outer estimate and the inner error
    propagated through |outer_coef| by the 15-point rule on the final
    panels.  evals counts outer evaluations only; the inner factor's
    cost is its CumulativeIntegral's evals.
    """

    def f(t):
        w, _ = inner(t)
        return np.asarray(outer_coef(t)) * w

    panels, value, err, evals = _adaptive_panels(f, a, b, tol, max_evals, 64)
    propagated = 0.0
    for pa, pb, _, _ in panels:
        h = (pb - pa) / 2
        nodes = (pa + pb) / 2 + h * _X15
        _, e_in = inner(nodes)
        coef = np.abs(np.asarray(outer_coef(nodes)))
        propagated += float(h * ((coef * e_in) @ _W15))
    return QuadResult(complex(value), err + propagated,
                      evals + 15 * len(panels))
