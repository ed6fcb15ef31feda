"""Boundary function, zero location on the critical line, strip
counting by the argument principle, and the eigenvalue map.

The boundary function xi_bc(s) = (1 - 2^{1-s}) Gamma(s) zeta(s) is
computed as Gamma(s) eta(s), which is regular at s = 1.  Zero
bracketing uses the classical completed xi, which is real on the
critical line and so admits sign-change scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    PreconditionError,
    ResolutionError,
)
from .quad import integrate_finite
from .special import _ZETA, _hurwitz, _zeta_pair, eta, gamma

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
# count_zeros starts each edge from _EDGE_PANELS panels per started
# _EDGE_SPAN (from two in all, a long edge stalls far from any zero); its
# tol picks a 2 pi branch: 0.25 rad is a quarter of the 0.1 turn allowed.
_EDGE_PANELS = 2
_EDGE_SPAN = 8.0
_EDGE_TOL = 0.25


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
    """_refine on every bracket of the grid to _TAU_CAP, once per tol."""
    t, v, sign = (a.copy() for a in _grid_scan())
    return _refine(t, v, _settle(t, v, sign), tol)


def find_zeros(tau_max: float, tol: float = 1e-10):
    """All on-line zeros with 0 < tau <= tau_max: the exact signs of the
    grid k _SCAN_STEP from _grid_scan's table, grid points moved to tau_max
    evaluated exactly, each bracket's zero from _zero_table, and a bracket
    clipped at tau_max refined by _refine.  A row of a call equals the
    one-point call bit for bit, so brackets and roots are an all-exact
    scan's and each root has `brentq`'s bits.  tol must stay below
    _SCAN_STEP, or bare bracket ends pass as roots."""
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
    grid, grid_v, grid_sign = (a[:last + 1] for a in _grid_scan())
    t = np.minimum(grid, tau_max)
    on = t == grid
    v = np.where(on, grid_v, np.nan)
    ks = _settle(t, v, np.where(on, grid_sign, 0.0))
    found = {**_zero_table(tol),
             **_refine(t, v, [k for k in ks if not on[k + 1]], tol)}
    return [ZeroRecord(i + 1, *found[k], (float(t[k]), float(t[k + 1])))
            for i, k in enumerate(ks)]


def count_zeros(rect: StripRectangle) -> int:
    """Number of zeta zeros inside the rectangle, by winding of the
    logarithmic derivative around the boundary (counterclockwise).

    zeta at the corners (one engine call) gives each edge z0 -> z1 the
    integral of zeta'/zeta as log zeta(z1) - log zeta(z0) + 2 pi i m; one
    integrate_finite run per edge picks m, and the winding is the sum.
    An edge whose quadrature misses that real part by more than 0.5 or
    the nearest branch by 0.1 turn raises ResolutionError.  An edge that
    stalls has a zero on or near it; that (named with the stop), or a
    node with |zeta| < 1e-6, raises PreconditionError naming the smallest
    |zeta| seen and where.  Raises CapabilityError beyond |tau| = 60.
    """
    if max(abs(rect.tau_lo), abs(rect.tau_hi)) > _TAU_CAP:
        raise CapabilityError(f"count_zeros supports |tau| <= {_TAU_CAP}")
    lo, hi = complex(rect.sigma_lo, rect.tau_lo), complex(rect.sigma_hi,
                                                          rect.tau_hi)
    corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
    ends = list(zip(corners, corners[1:] + corners[:1]))
    min_abs, argmin = math.inf, None

    def edge(z0, z1):
        def log_derivative(t):
            nonlocal min_abs, argmin
            z = z0 + (z1 - z0) * t.astype(float)
            val, der = _zeta_pair(z)
            k = np.argmin(np.abs(val))
            if abs(val[k]) < min_abs:
                min_abs, argmin = float(abs(val[k])), complex(z[k])
            return (z1 - z0) * (der / val)

        panels = _EDGE_PANELS * max(1, math.ceil(abs(z1 - z0) / _EDGE_SPAN))
        try:
            return integrate_finite(log_derivative, 0.0, 1.0, _EDGE_TOL,
                                    initial=panels).value
        except ConvergenceError as exc:
            raise PreconditionError(
                f"edge {z0} -> {z1}: {exc}; contour point {argmin} has "
                f"|zeta| = {min_abs:.2e}, the smallest seen") from None

    logs = np.log(_hurwitz(np.array(corners), *_ZETA, bound=False)[0])
    misses = np.array([edge(z0, z1) for z0, z1 in ends]) - (
        np.roll(logs, -1) - logs)
    if min_abs < 1e-6:
        raise PreconditionError(f"contour point {argmin} has |zeta| = "
                                f"{min_abs:.2e}; move the rectangle")
    turns = misses.imag / (2 * math.pi)
    for (z0, z1), miss, turn in zip(ends, misses, turns):
        if abs(turn - round(turn)) >= 0.1 or abs(miss.real) > 0.5:
            raise ResolutionError(f"edge {z0} -> {z1} is {complex(miss)!r}"
                                  " off a branch of log(zeta(z1)/zeta(z0))")
    return sum(round(turn) for turn in turns)
