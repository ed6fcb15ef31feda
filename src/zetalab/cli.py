"""Command-line front end.

Subcommands:
  verify         run one named check suite (or all) as JSON lines
  selftest       alias for verify taking the suite as a positional
  zeros          scan the critical line and list zero ordinates
  eigenfunction  tabulate the weighted transform on an x grid
  gram           pairing matrix for the first few zeros
  norm-check     norm identity cross-routes at chosen exponents
  residual       eigen-residual profile for one state and truncation
  operator-dump  matrix entries of a named operator

reporting.dumps writes all output, numbers at 17 significant digits.
Report and table lines are byte-deterministic for a fixed command line;
the final manifest line of `verify`/`selftest`/`norm-check` carries
wall-clock timings and is exempt from that guarantee.  Library failures
surface as a single JSON error object and exit code 1; bad flags exit 2.
A check suite prints each line as its check finishes; one that raises
ends in a failed `<suite>-raised` line carrying the same payload, and
the next suite still runs.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import ConvergenceError, PoleError, ZetalabError
from .reporting import dumps, flag
from .special import _EM_TAU_CAP


def _parse_complex(text: str) -> complex:
    """1.5, 0.5+14.1i or 0.5+14.1j, spaces allowed, a trailing i (not
    inf's) imaginary.  A NaN or infinite part, |Im s| past the zeta
    engine's cap or Re(s) outside [0.01, 100] is a bad flag: below, psi's
    quadrature meets NaN; above, only residual's H_tilde answers (prefix 0)."""
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    try:
        value = complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")
    if not (cmath.isfinite(value) and 0.01 <= value.real <= 100
            and abs(value.imag) <= _EM_TAU_CAP):
        raise argparse.ArgumentTypeError(
            f"must be a finite complex number with 0.01 <= Re(s) <= 100 "
            f"and |Im s| <= {_EM_TAU_CAP:g}, got {text!r}")
    return value


def _float_flag(ok, what: str):
    """A parser for a float flag; a value that fails ok is a bad flag."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_float = _float_flag(lambda v: 0 < v < math.inf,
                              "a positive finite number")
_number = _float_flag(lambda v: not math.isnan(v), "a number")


def _finite_floats(text: str) -> list[float]:
    """Comma-separated finite floats at most 15; anything else is a bad
    flag.  Past 15 norm_integral's rounding floor nears its 1e-12 tol
    (c = 17 stalls), and past about 100 its tail bound overflows."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(-math.inf < v <= 15 for v in values):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated finite numbers at most 15, got {text!r}")
    return values


# Largest --x-grid count.  At one s psi's series costs 0.05 to 0.5 ms a
# point (|Im s| <= 440, x <= 10; 2-vCPU x86), so its quadrature (x >~ 50
# at rho_1, 15 to 35 ms a point) sets the worst case, 2.5 to 6 minutes.
_GRID_MAX = 10_001


def _parse_grid(text: str) -> np.ndarray:
    bad = argparse.ArgumentTypeError(
        f"must be lo:hi:count with finite 0 <= lo < hi and 2 <= count <= "
        f"{_GRID_MAX}, got {text!r}")
    parts = text.split(":")
    if len(parts) != 3:
        raise bad
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise bad
    if not (2 <= n <= _GRID_MAX and 0 <= lo < hi < math.inf):
        raise bad
    return np.linspace(lo, hi, n)


def _emit(records, fmt="json", header=None) -> int:
    """Print computed records as JSON lines, or under the csv header as
    rows in which a complex value becomes re, im and a pair its items."""
    if fmt == "json":
        sys.stdout.writelines(dumps(r) + "\n" for r in records)
        return 0
    sys.stdout.write(header + "\n")
    for r in records:
        cells = []
        for v in r.values():
            cells += ((v.real, v.imag) if isinstance(v, complex)
                      else v if isinstance(v, tuple) else (v,))
        sys.stdout.write(",".join(map(dumps, cells)) + "\n")
    return 0


def _error_payload(exc: Exception) -> dict:
    """The error's name and message; a budget failure adds its best
    estimate (a list for a stacked quadrature) and a pole its location."""
    from .quad import QuadResult

    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConvergenceError) and isinstance(exc.best, QuadResult):
        best = exc.best
        payload["best"] = {
            "value": np.asarray(best.value, dtype=complex).tolist(),
            "abs_err": best.abs_err, "evals": best.evals}
    if isinstance(exc, PoleError):
        payload["location"] = complex(exc.location)
    return payload


def _emit_error(exc: Exception) -> int:
    """The error's payload as one JSON error object."""
    _emit([_error_payload(exc)])
    return 1


def _run_suites(chosen, tol_scale, command) -> int:
    """Run each (name, fn) suite, fn() an iterable of CheckReport, and
    print each report, re-gated at tol * tol_scale, as it arrives; then
    the manifest.  A suite that raises skips its remaining checks and
    prints one failed `<name>-raised` flag whose inputs hold the error's
    payload (each non-string value as dumps writes it) and `after`, the
    last check it printed; the next suite still runs.  Exit 1 if any
    check failed."""
    suites = []
    for name, fn in chosen:
        t0 = time.perf_counter()
        npass = nfail = 0
        last = None
        try:
            for report in fn():
                report = report.scaled(tol_scale)
                sys.stdout.write(report.to_line() + "\n")
                npass += report.ok
                nfail += not report.ok
                last = report.name
        except Exception as exc:
            payload = dict(_error_payload(exc), after=last)
            inputs = {k: v if isinstance(v, str) else dumps(v)
                      for k, v in payload.items()}
            sys.stdout.write(flag(f"{name}-raised", False, "trivial",
                                  inputs).to_line() + "\n")
            nfail += 1
        suites.append({"suite": name, "wall_s": time.perf_counter() - t0,
                       "passed": npass, "failed": nfail})
    passed = sum(s["passed"] for s in suites)
    failed = sum(s["failed"] for s in suites)
    sys.stdout.write(dumps({"manifest": {
        "version": __version__, "command": command, "tol_scale": tol_scale,
        "suites": suites, "passed": passed, "failed": failed,
        "total": passed + failed}}) + "\n")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    from .selftests import SUITES

    chosen = [(n, f) for n, f in SUITES if args.suite in ("all", n)]
    return _run_suites(chosen, args.tol_scale, " ".join(args.argv))


def cmd_zeros(args) -> int:
    from .spectrum import find_zeros

    zeros = [{"index": z.index, "tau": z.tau, "rho": complex(z.rho),
              "residual": z.residual, "bracket": tuple(z.bracket)}
             for z in find_zeros(args.tau_max, tol=args.tol)]
    return _emit(zeros, args.format,
                 "index,tau,rho_re,rho_im,residual,bracket_lo,bracket_hi")


def cmd_eigenfunction(args) -> int:
    from .states import StateParams, psi, psi_tilde

    p = StateParams(args.s)
    transform = psi_tilde if args.which == "psi_tilde" else psi
    rows = []
    for x in args.x_grid:
        r = transform(p, float(x), tol=args.tol)
        rows.append({"x": float(x), "value": complex(r.value),
                     "abs_err": r.abs_err})
    return _emit(rows, args.format, "x,re,im,abs_err")


def cmd_gram(args) -> int:
    from .spectrum import find_zeros
    from .states import gram_matrix

    n = args.num_zeros
    rhos = [z.rho for z in find_zeros(60.0)[:n]]
    matrix = [[{"re": e.value.real, "im": e.value.imag,
                "abs_err": e.abs_err} for e in row]
              for row in gram_matrix(rhos, tol=args.tol)]
    return _emit([{"rhos": [complex(r) for r in rhos], "matrix": matrix}])


def cmd_norm_check(args) -> int:
    from .selftests import norm_checks

    # Checked before the runner, so a refused --c prints its own error
    # object rather than a norm-check-raised line.
    reports = norm_checks(args.c)
    return _run_suites([("norm-check", lambda: reports)], 1.0,
                       " ".join(args.argv))


def cmd_residual(args) -> int:
    from .operators import eigen_residual
    from .states import StateParams

    which = {"h": "H", "htilde": "H_tilde"}[args.operator]
    prof = eigen_residual(StateParams(args.s), args.K, which)
    return _emit([{"s": args.s, "K": args.K, "operator": args.operator,
                   "trusted_prefix": prof.trusted_prefix,
                   "per_component": prof.per_component}])


def cmd_operator_dump(args) -> int:
    from .operators import (build_composites, build_H, build_H_tilde,
                            build_ladder)

    K = args.K
    name = args.name
    if name in ("N", "Nplus", "Nminus"):
        op = build_ladder(K)[("N", "Nplus", "Nminus").index(name)]
    elif name in ("x", "D", "T"):
        op = build_composites(K)[("x", "D", "T").index(name)]
    else:
        op = build_H(K) if name == "H" else build_H_tilde(K)
    mat = np.asarray(op.entries, dtype=complex)
    entries = [{"row": i, "col": j, "value": mat[i, j]}
               for i in range(K) for j in range(K) if mat[i, j] != 0]
    return _emit(entries, "csv", "row,col,re,im")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Verification laboratory for a boundary-condition "
                    "spectral construction on the critical line.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    suites = ("special", "quad", "spectrum", "states", "operators", "all")
    p = sub.add_parser("verify", help="run a check suite as JSON lines; "
                       "final line is the run manifest")
    p.add_argument("--suite", required=True, choices=suites)
    p.add_argument("--tol-scale", type=_positive_float, default=1.0,
                   help="multiply every gating tolerance (default 1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="same as verify --suite")
    p.add_argument("suite", choices=suites)
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "zeros",
        help="critical-line zeros up to --tau-max (at most 60), bracketed "
             "on a fixed 0.01 grid; csv columns: index, tau, rho_re, "
             "rho_im, residual, bracket_lo, bracket_hi")
    p.add_argument("--tau-max", type=_number, required=True)
    p.add_argument("--tol", default=1e-10, type=_float_flag(
        lambda v: 0 <= v < 0.01,
        "a finite number >= 0 below the 0.01 scan step"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser(
        "eigenfunction",
        help="tabulate the transform on a grid; csv columns: x, re, im, "
             "abs_err")
    p.add_argument("--s", type=_parse_complex, required=True,
                   help=f"0.01 <= Re(s) <= 100, |Im s| <= {_EM_TAU_CAP:g}; "
                        "e.g. 0.5+14.134725i.  At --tol 1e-10 it exits 1 "
                        "from Re(s) ~ 10.25, where |psi| ~ Gamma(Re s)")
    p.add_argument("--x-grid", type=_parse_grid, required=True,
                   help=f"lo:hi:count, 0 <= lo < hi, count <= {_GRID_MAX}; "
                        "e.g. 0:10:101 (a value starting with '-' needs "
                        "--x-grid=-5:1:2).  psi's series costs under 1 ms "
                        "a point at one s; where psi takes its quadrature "
                        "(x >~ 50 at rho_1) a point costs 15-35 ms")
    p.add_argument("--which", choices=("psi_tilde", "psi"),
                   default="psi_tilde")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser(
        "gram",
        help="pairing matrix over the first --num-zeros zeros as one "
             "JSON object with per-entry abs_err")
    p.add_argument("--num-zeros", type=int, required=True,
                   choices=range(1, 5))
    p.add_argument("--tol", default=1e-18, type=_float_flag(
        lambda v: 0 < v < 1, "a positive finite number below 1"))
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser(
        "norm-check",
        help="norm identity across routes at comma-separated exponents "
             "c <= 15 (c <= 1.01 diverges)")
    p.add_argument("--c", type=_finite_floats, default="2,2.5,4")
    p.set_defaults(func=cmd_norm_check)

    p = sub.add_parser(
        "residual",
        help="eigen-residual profile as one JSON object")
    p.add_argument("--s", type=_parse_complex, required=True,
                   help="state parameter with 0.01 <= Re(s) <= 100 and "
                        f"|Im s| <= {_EM_TAU_CAP:g}")
    p.add_argument("--K", type=int, required=True,
                   help="2 to 192 under htilde, 2 to 512 under h")
    p.add_argument("--operator", choices=("h", "htilde"), default="htilde")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser(
        "operator-dump",
        help="nonzero matrix entries; csv columns: row, col, re, im")
    p.add_argument("--name", required=True,
                   choices=("N", "Nplus", "Nminus", "x", "D", "T", "H",
                            "Htilde"))
    p.add_argument("--K", type=int, required=True,
                   help="2 to 192 for Htilde, 2 to 512 for the others")
    p.set_defaults(func=cmd_operator_dump)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv)
    try:
        return args.func(args)
    except (ZetalabError, ValueError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
