"""Boundary function, zero location on the critical line, a proven
count of strip zeros, and the eigenvalue map.

xi_bc(s) = (1 - 2^{1-s}) Gamma(s) zeta(s) is computed as Gamma(s)
eta(s), regular at s = 1.  Zeros are bracketed by the signs of the
completed xi, real on the critical line, and counted in a rectangle by
certified tracking of arg zeta along its boundary: no quadrature.  One
tracking run per process proves a census of every zero below tau = 60,
and a rectangle clear of its boxes is counted from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CapabilityError, ConvergenceError, DomainError,
                     PreconditionError)
from .special import _EM_M, _EM_N, _ZETA, _em_plan, _hurwitz, eta, gamma

__all__ = [
    "ZeroRecord",
    "StripRectangle",
    "xi_bc",
    "critical_line_real_form",
    "find_zeros",
    "count_zeros",
    "eigenvalue_of",
]

_TAU_CAP = 60.0
# Sign-scan grid step, and the grid steps per coarse cell of the scan.
# The smallest gap between zeros below tau = _TAU_CAP is 1.769 (rho_9
# to rho_10), over 7 cells of 0.25, so a cell holds at most one zero:
# where a cell's two end signs agree, it holds none.
_SCAN_STEP = 0.01
_SCAN_CELL = 25
# _track's first engine call takes the corners and every edge cut into
# pieces of at most _SEED.  A round costs about 0.3 ms and a point 4 us; on
# zeros-scan's rectangles a count takes 3.01 calls and 118 points with the
# corners alone, 2.61 and 116 at 0.45, 2.08 and 117 at 0.225, and 2.01 and
# 124 at 0.15: below 0.225 the points cost what the rounds save.
_SEED = 0.225
# A failing step splits into ceil(_PAST h / reach) pieces, at most _SPLIT
# a round (h / reach can reach 1e9 next to zeros).  The new inner points
# usually have less room than the ends that certify reach: at _PAST = 1,
# 5.6% of the pieces fail again and most counts take a third round.
_PAST = 1.4
_SPLIT = 1024
# Points a round may evaluate: rounds take at most 749 in the census and 1,566
# on 300 seeded rectangles, and grow by _SPLIT a round where M2 runs away.
_ROUND_CAP = 2 ** 15
# The census box's sigma span, a thin box's about the line, and its reach
# past its scan bracket: a zero lies at least 0.01 inside its thin box.
_BOX, _LINE, _REACH = (0.01, 0.99), (0.49, 0.51), 0.01


@dataclass(frozen=True)
class ZeroRecord:
    """One located on-line zero: 1-based index, ordinate, rho = 1/2 + i tau,
    |zeta(rho)| residual, and the scan bracket it was refined from."""

    index: int
    tau: float
    rho: complex
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class StripRectangle:
    """Axis-aligned rectangle inside the critical strip."""

    sigma_lo: float
    sigma_hi: float
    tau_lo: float
    tau_hi: float

    def __post_init__(self):
        if not (0.0 < self.sigma_lo < self.sigma_hi < 1.0):
            raise DomainError("require 0 < sigma_lo < sigma_hi < 1")
        if not self.tau_lo < self.tau_hi:
            raise DomainError("require tau_lo < tau_hi")


def xi_bc(s) -> complex:
    """(1 - 2^{1-s}) Gamma(s) zeta(s), computed as Gamma(s) eta(s)."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("xi_bc requires Re(s) > 0")
    return gamma(s) * eta(s)


def critical_line_real_form(tau):
    """Real-valued zero detector on the line: the completed
    xi(1/2 + i tau) = (1/2) s(s-1) pi^{-s/2} Gamma(s/2) zeta(s),
    which is real-analytic in tau and changes sign exactly at the
    on-line zeros in the working range.  Accepts a float (returns a
    float) or an array of tau; a row of an array equals the float call
    bit for bit.  zeta skips the engine's error bound (bound=False):
    the scan and Brent's method read signs and values only."""
    arr = np.asarray(tau, dtype=float)
    t = np.atleast_1d(arr)
    if np.any(t < 0):
        raise DomainError("critical_line_real_form requires tau >= 0")
    s = 0.5 + 1j * t
    val = (0.5 * s * (s - 1) * np.exp(-s / 2 * math.log(math.pi))
           * gamma(s / 2) * _hurwitz(s, *_ZETA, bound=False)[0]).real
    return float(val[0]) if arr.ndim == 0 else val


def eigenvalue_of(rho) -> complex:
    """The spectral map i(1/2 - rho); real exactly when rho is on the line."""
    return 1j * (0.5 - complex(rho))


def _brent(xa, xb, fa, fb, xtol, rtol, maxiter):
    """Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) on [xa, xb], given fa = f(xa) and fb = f(xb)
    of opposite signs, as a generator: a line-for-line port of SciPy's
    brentq.c that yields each point where it needs f, is sent f there,
    and returns the root to within xtol + rtol * |x|."""
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"brentq: f has one sign on [{xa}, {xb}]")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
    raise ConvergenceError(f"brentq: no convergence in {maxiter} "
                           f"iterations on bracket [{xa}, {xb}]")


def _lockstep(f, steps):
    """Drive _brent generators together, one call of f per round on the
    list of every pending point; returns the roots in order."""
    roots, x, fx = [None] * len(steps), dict.fromkeys(range(len(steps))), {}
    while x:
        for i in list(x):
            try:
                x[i] = steps[i].send(fx.get(i))
            except StopIteration as stop:
                roots[i] = stop.value
                del x[i]
        fx = dict(zip(x, f(list(x.values())))) if x else {}
    return roots


def brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """Root of f in [xa, xb], where f(xa) and f(xb) differ in sign, by
    _brent one point at a time: the same root bits and the same number
    of calls to f as SciPy's brentq."""
    steps = _brent(xa, xb, f(xa), f(xb), xtol, rtol, maxiter)
    return _lockstep(lambda x: [f(x[0])], [steps])[0]


def _settle(t, v, sign):
    """Exact values, one call each, where sign is 0 and v NaN, then at
    each bracket end v lacks; returns k of each [t_k, t_k+1]."""
    def exact(idx):
        if len(idx):
            v[idx] = critical_line_real_form(t[idx])

    todo = np.flatnonzero((sign == 0) & np.isnan(v))
    exact(todo)
    sign[todo] = np.sign(v[todo])
    ks = np.flatnonzero((sign[1:] == 0) | (sign[:-1] * sign[1:] < 0))
    ends = np.zeros(len(v), bool)
    ends[ks] = ends[ks + 1] = True
    exact(np.flatnonzero(ends & np.isnan(v)))
    return ks


@lru_cache(maxsize=1)
def _grid_scan():
    """The scan of the grid k _SCAN_STEP to _TAU_CAP, once per process:
    read-only t, v (NaN where no exact value is needed) and sign, all
    exact.  Every _SCAN_CELL-th point is evaluated; a cell whose end
    signs agree holds no zero and lends that sign to its inner points,
    and _settle evaluates every point of the other cells."""
    t = np.arange(round(_TAU_CAP / _SCAN_STEP) + 1) * _SCAN_STEP
    v, sign = np.full(len(t), np.nan), np.zeros(len(t))
    ends = slice(None, None, _SCAN_CELL)
    _settle(t[ends], v[ends], sign[ends])
    cells = sign[:-1].reshape(-1, _SCAN_CELL)  # a view, one cell a row
    agree = cells[:, 0] * sign[ends][1:] > 0
    cells[agree, 1:] = cells[agree, :1]
    _settle(t, v, sign)
    for a in (t, v, sign):
        a.flags.writeable = False
    return t, v, sign


def _refine(t, v, ks, tol):
    """Brent's method on each bracket [t_k, t_k+1] of ks from the end values
    v, in lockstep; returns k -> (root, rho, |zeta(rho)|)."""
    steps = [_brent(float(t[k]), float(t[k + 1]), float(v[k]),
                    float(v[k + 1]), tol, 8.9e-16, 100) for k in ks]
    roots = _lockstep(
        lambda x: critical_line_real_form(np.array(x)).tolist(), steps)
    rhos = [complex(0.5, root) for root in roots]
    residuals = (_hurwitz(np.array(rhos), *_ZETA, bound=False)[0]
                 if roots else [])
    return {k: (root, rho, abs(complex(r)))
            for k, root, rho, r in zip(ks, roots, rhos, residuals)}


@lru_cache(maxsize=1)
def _zero_table(tol):
    """Every bracket [t_k, t_k+1] of the grid to _TAU_CAP, refined once per
    tol: ks, the ascending k as a list, and a tuple of their ZeroRecords."""
    t, v, sign = (a.copy() for a in _grid_scan())
    ks = _settle(t, v, sign).tolist()
    found = _refine(t, v, ks, tol)
    return ks, tuple(
        ZeroRecord(i + 1, *found[k], (float(t[k]), float(t[k + 1])))
        for i, k in enumerate(ks))


def find_zeros(tau_max: float, tol: float = 1e-10):
    """All on-line zeros with 0 < tau <= tau_max: _zero_table's records
    below tau_max, by bisection on its brackets.  Between grid points, a
    step where _grid_scan lent its cell's sign (NaN v) holds no zero; in a
    cell that holds one, tau_max alone is evaluated, [t_k, tau_max] settled
    from t_k and a bracket there refined by _refine.  Rows equal the
    one-point call bit for bit: brackets and roots are an all-exact scan's,
    and roots `brentq`'s.  tol < _SCAN_STEP, or bracket ends pass as roots."""
    if math.isnan(tau_max):
        raise DomainError("find_zeros requires a tau_max that is a number")
    if tau_max > _TAU_CAP:
        raise CapabilityError(f"find_zeros supports tau_max <= {_TAU_CAP}")
    if not 0 <= tol < _SCAN_STEP:
        raise DomainError(f"find_zeros requires 0 <= tol < {_SCAN_STEP} "
                          f"(the scan step), got {tol}")
    last = int(math.ceil(max(tau_max, 0) / _SCAN_STEP))
    if last == 0:
        return []
    grid, grid_v, grid_sign = _grid_scan()
    ks, records = _zero_table(tol)
    if grid[last] <= tau_max:
        return list(records[:bisect_left(ks, last)])
    k = last - 1
    out = list(records[:bisect_left(ks, k)])
    if math.isnan(grid_v[k] + grid_v[k + 1]):
        return out
    t, v = np.array([grid[k], tau_max]), np.array([grid_v[k], np.nan])
    if len(_settle(t, v, np.array([grid_sign[k], 0.0]))):
        out.append(ZeroRecord(len(out) + 1, *_refine(t, v, [0], tol)[0],
                              (float(t[0]), float(t[1]))))
    return out


def _zeta2_bound(z0, z1):
    """A bound on |zeta''| on each axis-parallel step z0 -> z1 (arrays that
    broadcast, Re > 0, off s = 1): the engine's Euler-Maclaurin form (_EM_N
    = 28 direct terms x, tail from b = 29) differentiated twice in modulus.
    Sums of (ln x)^2 x^-sigma and (ln b)^2 b^-sigma / 2 at the step's least
    sigma; the pole term b^{1-s}/(s-1) differentiated exactly at the
    step's distance d from s = 1; Cauchy's 2 max |g| on the unit disc for
    g, the Bernoulli corrections plus Johansson's remainder (_hurwitz's),
    with Re w >= sigma - 1 and |w + i| <= |s| + 1 + i on it."""
    lg, _, _, b, lb, kap = _em_plan(*_ZETA, _EM_N)[:6]
    b, lb, t0, t1 = b[0, 0], lb[0, 0], z0.imag, z1.imag
    sig = np.minimum(z0.real, z1.real)
    d = np.hypot((1 - np.maximum(z0.real, z1.real)).clip(sig - 1).clip(0),
                 np.where(t0 * t1 > 0, np.minimum(abs(t0), abs(t1)), 0))
    poch = np.cumprod(np.maximum(abs(z0), abs(z1))[..., None] + 1
                      + np.arange(2 * _EM_M), axis=-1)  # |(w)_k| <= poch_k-1
    tails = poch[..., ::2] @ abs(kap[0, 0]) + 4 * poch[..., -1] * b ** (
        1 - 2 * _EM_M) / (2 * math.pi) ** (2 * _EM_M) / (sig + 2 * _EM_M - 2)
    return ((lg ** 2 * np.exp(-sig[..., None] * lg)).sum(axis=-1)
            + lb ** 2 * b ** -sig / 2 + b ** (1 - sig) * (
                lb ** 2 / d + 2 * lb / d ** 2 + 2 / d ** 3 + 2 * tails))


def _track(polygons):
    """Certified argument tracking of zeta around each closed polygon, a
    row of corners, all in one engine call a round, the first on every
    edge cut into pieces of at most _SEED.  A step z_i -> z_j of length h is
    accepted from an end z_k where h (|zeta'| + e') + h^2/2 M2 + e < |zeta|
    there (e, e' the engine's bounds, M2 the larger of _zeta2_bound's on
    the two halves): zeta stays in the disc |w - zeta(z_k)| < |zeta(z_k)|,
    so Arg zeta(z_j)/zeta(z_i) is the step's exact change of arg.  A step
    that fails is split into ceil(_PAST h / reach) pieces, 2 to _SPLIT,
    reach the larger of its ends' certified reaches over their halves; a
    round past _ROUND_CAP points raises CapabilityError.  Returns the points
    z, zeta there and the accepted steps as rows (i, j, k, p), i -> j in
    polygon p's contour order."""
    z = np.array(polygons, complex)
    a, per = np.arange(z.size), z.shape[1]
    z, b, p = z.ravel(), a - a % per + (a + 1) % per, a // per
    n = np.ceil(abs(z[b] - z[a]) / _SEED).astype(int)
    done, (val, room, slope) = [], np.empty((3, 0))
    while len(a):
        if n.sum() > _ROUND_CAP:
            raise CapabilityError(f"contour tracking needs {n.sum()} points "
                                  f"in one round, past its cap {_ROUND_CAP}")
        j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        a, b, p, n = (np.repeat(x, n) for x in (a, b, p, n))
        inner, za = j > 0, z[a]
        ids = len(z) + np.cumsum(inner) - 1
        z = np.concatenate((z, (za + (z[b] - za) * (j / n))[inner]))
        a, b = ends = np.stack((np.where(inner, ids, a),
                                np.where(j == n - 1, b, ids + 1)))
        v, e, dv, de = _hurwitz(z[len(val):], *_ZETA, deriv=True)
        val, room, slope = (np.concatenate((x, y)) for x, y in zip(
            (val, room, slope), (v, abs(v) - e, abs(dv) + de)))
        if room[k := np.argmin(room)] <= 0:
            raise PreconditionError(
                f"contour point {z[k]} has |zeta| = {abs(val[k]):.2e}, within"
                f" its bound {abs(val[k]) - room[k]:.2e}; move the rectangle")
        mid, h = (z[a] + z[b]) / 2, abs(z[b] - z[a])
        m, rm, sl = _zeta2_bound(z[ends], mid), room[ends], slope[ends]
        ok = h * sl + h * h / 2 * np.maximum(*m) < rm
        keep = ok[0] | ok[1]
        done.append(np.stack((a, b, np.where(ok[0], a, b), p), 1)[keep])
        reach = np.maximum(*(2 * rm / (sl + np.sqrt(sl * sl + 2 * m * rm))))
        n = np.ceil(_PAST * h / reach)[~keep].clip(2, _SPLIT).astype(int)
        a, b, p = a[~keep], b[~keep], p[~keep]
    return z, val, np.concatenate(done)


def _windings(polygons):
    """The number of zeros inside each polygon, proven: round(sum Arg /
    2 pi) over its _track steps."""
    _, val, steps = _track(polygons)
    arg = np.angle(val[steps[:, 1]] / val[steps[:, 0]]) / (2 * math.pi)
    return [round(w) for w in np.bincount(steps[:, 3], arg, len(polygons))]


def _corners(sigma_lo, sigma_hi, tau_lo, tau_hi):
    """The rectangle's corners, counterclockwise from its lower left."""
    return [complex(sigma_lo, tau_lo), complex(sigma_hi, tau_lo),
            complex(sigma_hi, tau_hi), complex(sigma_lo, tau_hi)]


@lru_cache(maxsize=1)
def _census():
    """Every zero in the box _BOX x [0, _TAU_CAP], once per process: thin
    boxes _LINE x [t_k - _REACH, t_k+1 + _REACH] about the scan's brackets,
    as arrays (lo, hi) of their tau ends.  One _track run proves that the
    box winds once per thin box and each once, all apart inside the box,
    so each holds one zero; else None (Brent, Math. Comp. 33, 1979)."""
    t, v, sign = (a.copy() for a in _grid_scan())
    ks = _settle(t, v, sign)
    lo, hi = t[ks] - _REACH, t[ks + 1] + _REACH
    try:
        wind = _windings([_corners(*_BOX, 0.0, _TAU_CAP)] + [
            _corners(*_LINE, a, b) for a, b in zip(lo, hi)])
    except (PreconditionError, CapabilityError):
        return None
    apart = np.diff([0.0, *np.ravel([lo, hi], "F"), _TAU_CAP]) > 0
    proven = wind == [len(ks)] + [1] * len(ks) and apart.all()
    return (lo, hi) if proven else None


def count_zeros(rect: StripRectangle) -> int:
    """Number of zeta zeros inside the rectangle, proven.  Inside the
    census box, where each thin box of _census lies inside the rectangle
    or outside it, the number inside; else round(sum Arg / 2 pi) over
    _track's steps counterclockwise around it (Ying & Katz, Numer. Math.
    53, 1988).  Refuses where a sample's |zeta| does not exceed its bound
    (a zero on the contour or within about 1e-12 of it), with
    PreconditionError naming the point; beyond |tau| = 60, and where a
    tracking round would pass _ROUND_CAP points, with CapabilityError."""
    sl, sh, tl, th = rect.sigma_lo, rect.sigma_hi, rect.tau_lo, rect.tau_hi
    if max(abs(tl), abs(th)) > _TAU_CAP:
        raise CapabilityError(f"count_zeros supports |tau| <= {_TAU_CAP}")
    if (census := _census()) and _BOX[0] <= sl and sh <= _BOX[1] and tl >= 0:
        lo, hi = census
        inside = (sl < _LINE[0]) & (_LINE[1] < sh) & (tl < lo) & (hi < th)
        outside = (sh < _LINE[0]) | (_LINE[1] < sl) | (hi < tl) | (th < lo)
        if (inside | outside).all():
            return int(inside.sum())
    return _windings([_corners(sl, sh, tl, th)])[0]
