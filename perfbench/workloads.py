"""Seeded op plans for the four benchmark workloads, and the code that
runs one op against zetalab.

A plan is a pure function of (workload, seed, pass index, size): the
parent process uses it to build references and the measured child uses
it to run the ops, so both see the same inputs without passing them
around.  Inputs are stratified: every pass holds the same number and
mix of ops, and each seeded parameter is drawn from its own sub-interval
of the advertised range, so the total work of a pass barely moves with
the seed.  zetalab never sees the seed, only the generated values.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("zeros-scan", "eigen-table", "gram-pairs", "residual-sweep")
SIZES = ("full", "small")

# Ordinates of the first six zeros, correctly rounded to double.  The
# parent checks them against mpmath.zetazero before it checks any op.
ZERO_TAUS = (14.134725141734695, 21.022039638771556, 25.01085758014569,
             30.424876125859512, 32.93506158773919, 37.586178158825675)

# Approximate ordinates of every zero below 60, used only to keep
# count_zeros contours clear of zeros.  They are not references.
_APPROX_ZEROS = (14.1347, 21.0220, 25.0109, 30.4249, 32.9351, 37.5862,
                 40.9187, 43.3271, 48.0052, 49.7738, 52.9703, 56.4462,
                 59.3470)
_EDGE_MARGIN = 0.3

# Seconds one full pass takes at the commit that introduced the
# benchmark (2 vCPU sandbox).  A run makes round(seconds / this) passes,
# so the amount of work is fixed by --seconds, not by how fast the code
# under test happens to be.
NOMINAL_PASS_S = {"zeros-scan": 2.6, "eigen-table": 2.6,
                  "gram-pairs": 6.9, "residual-sweep": 8.5}

ROOT_TOL = 1e-10     # find_zeros default
PSI_TOL = 1e-10      # CLI eigenfunction default
GRAM_TOL = 1e-18     # CLI gram default


def _rng(workload: str, seed: int, pass_index: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}|{seed}|{pass_index}|{stream}")


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal sub-intervals of [lo, hi],
    returned in a seeded order."""
    width = (hi - lo) / n
    vals = [lo + width * (k + rng.random()) for k in range(n)]
    rng.shuffle(vals)
    return vals


def _clear_of_zeros(tau: float, margin: float = _EDGE_MARGIN, step: float = 2 * _EDGE_MARGIN) -> float:
    while any(abs(tau - z) < margin for z in _APPROX_ZEROS):
        tau += step
    return tau


def _zeros_scan(seed, p, size):
    n = 12 if size == "full" else 4
    rng = _rng("zeros-scan", seed, p)
    taus = _strata(rng, 40.0, 60.0, n)
    heights = _strata(rng, 3.0, 10.0, n)
    ops = []
    for k in range(n):
        # The scan end sits on the scan's 0.01 grid, as a CLI user would
        # give it, so every zero is refined from the same bracket whatever
        # the seed; it stays clear of zeros so the expected list is
        # unambiguous, and at or below the 60 the scan supports.
        t_max = round(_clear_of_zeros(round(taus[k], 2), 5e-3, -0.01), 2)
        # Every fourth rectangle lies right of the critical line and
        # must count zero zeros.
        if k % 4 != 3:
            s_lo, s_hi = 0.1 + 0.3 * rng.random(), 0.6 + 0.3 * rng.random()
        else:
            s_lo = 0.55 + 0.15 * rng.random()
            s_hi = s_lo + 0.1 + 0.2 * rng.random()
        # Edges are moved off zeros by at most 0.6 each, so the
        # rectangle stays inside the scanned range.
        t_lo = _clear_of_zeros(10.0 + (t_max - 12.0 - heights[k]) * rng.random())
        t_hi = _clear_of_zeros(t_lo + heights[k])
        ops.append({"kind": "scan+count", "tau_max": t_max,
                    "rect": [s_lo, s_hi, t_lo, t_hi]})
    return ops


def eigen_grids(seed: int, pass_index: int):
    """The four (s, which) pairs of one eigen-table pass.  rho1 and rho2
    recur in every pass.  The off-line point and the real s > 1 change
    per pass on a Latin hypercube over eight passes, so a run covers
    their ranges evenly and its cost does not hang on one draw.  Every
    grid point after the first shares its s with an earlier op."""
    order = list(range(8))
    _rng("eigen-table", seed, -1, "order").shuffle(order)
    k = pass_index % 8
    rng = _rng("eigen-table", seed, pass_index, "s")
    off_line = complex(0.3 + 0.1 * (k + rng.random()) / 8,
                       15.0 + 5.0 * (order[k] + rng.random()) / 8)
    real_s = complex(1.5 + 2.0 * (order[7 - k] + rng.random()) / 8, 0.0)
    return [
        (complex(0.5, ZERO_TAUS[0]), "psi_tilde"),
        (complex(0.5, ZERO_TAUS[1]), "psi"),
        (off_line, "psi_tilde"),
        (real_s, "psi"),
    ]


def _eigen_table(seed, p, size):
    points = 16 if size == "full" else 2
    rng = _rng("eigen-table", seed, p)
    ops = []
    for s, which in eigen_grids(seed, p):
        for x in sorted(_strata(rng, 0.0, 10.0, points)):
            ops.append({"kind": which, "s": [s.real, s.imag], "x": x})
    return ops


def _gram_pairs(seed, p, size):
    rng = _rng("gram-pairs", seed, p)
    ops = []
    for i in range(3):
        for j in range(3):
            # Unit-modulus constants: the seed moves the phases, not the
            # size of abs_err, so err_bound_ratio_max stays comparable.
            f = cmath.exp(2j * math.pi * rng.random())
            g = cmath.exp(2j * math.pi * rng.random())
            ops.append({"kind": "gram", "i": i, "j": j,
                        "rho_row": [0.5, ZERO_TAUS[i]],
                        "rho_col": [0.5, ZERO_TAUS[j]],
                        "f": [f.real, f.imag], "g": [g.real, g.imag]})
    return ops


def _residual_sweep(seed, p, size):
    # An H_tilde op costs ~K^2 (exact entry builds), so K sits on a fixed
    # grid over [32, 128], four ops per grid point, and the seed moves tau
    # and the order: a seeded K would move op_p50_ms by the draw, not by
    # the code.  The ops take milliseconds, so many of them cost little
    # and keep the latency percentiles steady.
    ks = [36 + 8 * (k % 12) for k in range(48)] if size == "full" else [32]
    n_tilde = len(ks)
    rng = _rng("residual-sweep", seed, p)
    rng.shuffle(ks)
    taus = _strata(rng, 10.0, 40.0, n_tilde)
    ops = [{"kind": "H_tilde", "s": [0.5, taus[k]], "K": ks[k]}
           for k in range(n_tilde)]
    # H at K = 16 costs 2 to 5 s per op, and the cost jumps with tau at
    # random, so seeded H ops would make wall_s track the draw.  The H
    # ops instead take the first six zeros in turn, two per pass: any
    # three passes cover all six, whatever the seed.
    h_zeros = (2 * p % 6, (2 * p + 1) % 6) if size == "full" else (0,)
    for k, z in enumerate(h_zeros):
        ops.insert(1 + (k + 1) * len(ops) // (len(h_zeros) + 1),
                   {"kind": "H", "s": [0.5, ZERO_TAUS[z]], "K": 16})
    return ops


_PLANS = {
    "zeros-scan": _zeros_scan,
    "eigen-table": _eigen_table,
    "gram-pairs": _gram_pairs,
    "residual-sweep": _residual_sweep,
}


def plan_pass(workload: str, seed: int, pass_index: int, size: str = "full") -> list[dict]:
    """The ops of one pass.  Pass -1 holds the cold op that set-up runs."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _PLANS[workload](seed, pass_index, size)


def passes_for(workload: str, seconds: float, size: str = "full",
               minimum: int = 2) -> int:
    """Passes a run makes: one at the small size, else enough to fill
    about `seconds` at the nominal pass cost, and at least `minimum`."""
    if size == "small":
        return 1
    return max(minimum, round(seconds / NOMINAL_PASS_S[workload]))


def cold_op(workload: str, seed: int) -> dict:
    """The first op a fresh interpreter runs; it is timed into setup_s
    and not counted in the passes."""
    return plan_pass(workload, seed, -1, "full")[0]


def s_repeat_frac(ops: list[dict]) -> float:
    """Share of ops whose spectral parameter s repeats an earlier op."""
    seen = set()
    repeats = 0
    for op in ops:
        if "s" not in op:
            continue
        s = tuple(op["s"])
        if s in seen:
            repeats += 1
        seen.add(s)
    return repeats / len(ops) if ops else 0.0


# ---------------------------------------------------------------------------
# Child side: run one op.  zetalab is imported by the caller.


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def run_op(op: dict, zl) -> dict:
    """Run one op through zetalab's public API and return its outputs
    as JSON-able values that round-trip floats exactly."""
    kind = op["kind"]
    if kind == "scan+count":
        zeros = zl.spectrum.find_zeros(op["tau_max"], tol=ROOT_TOL)
        rect = zl.spectrum.StripRectangle(*op["rect"])
        count = zl.spectrum.count_zeros(rect)
        return {"taus": [z.tau for z in zeros],
                "residuals": [z.residual for z in zeros],
                "count": count}
    if kind in ("psi", "psi_tilde"):
        fn = zl.states.psi if kind == "psi" else zl.states.psi_tilde
        r = fn(zl.states.StateParams(_c(op["s"])), op["x"], tol=PSI_TOL)
        return {"value": _pair(r.value), "abs_err": r.abs_err, "evals": r.evals}
    if kind == "gram":
        e = zl.states.gram(_c(op["rho_row"]), _c(op["rho_col"]),
                           f_const=_c(op["f"]), g_const=_c(op["g"]),
                           tol=GRAM_TOL)
        return {"value": _pair(e.value), "abs_err": e.abs_err}
    if kind in ("H", "H_tilde"):
        prof = zl.operators.eigen_residual(
            zl.states.StateParams(_c(op["s"])), op["K"], kind)
        return {"per_component": prof.per_component,
                "trusted_prefix": prof.trusted_prefix}
    raise ValueError(f"unknown op kind {kind!r}")


def requested_tol(op: dict) -> float | None:
    """The tolerance an op asks for, where it reports an error against one."""
    return {"scan+count": ROOT_TOL, "psi": PSI_TOL, "psi_tilde": PSI_TOL,
            "gram": GRAM_TOL}.get(op["kind"])
