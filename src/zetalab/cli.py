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

All numeric output uses 17 significant digits.  Report and table lines
are byte-deterministic for a fixed command line; the final manifest
line of `verify`/`selftest`/`norm-check` carries wall-clock timings and
is exempt from that guarantee.  Failures inside the library surface as
a single JSON error object and exit code 1; bad flags exit 2.
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
from .reporting import RunManifest, fmt_complex, fmt_float
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


def _emit_error(exc: Exception) -> int:
    """One JSON error object; a budget failure carries its best
    estimate (a list for a stacked quadrature) and a pole its location."""
    import json

    from .quad import QuadResult

    extra = ""
    if isinstance(exc, ConvergenceError) and isinstance(exc.best, QuadResult):
        best = exc.best
        if np.ndim(best.value):
            value = "[%s]" % ",".join(fmt_complex(v) for v in best.value)
        else:
            value = fmt_complex(best.value)
        extra = ',"best":{"value":%s,"abs_err":%s,"evals":%d}' % (
            value, fmt_float(best.abs_err), best.evals)
    if isinstance(exc, PoleError):
        extra = ',"location":%s' % fmt_complex(exc.location)
    sys.stdout.write(
        '{"error":%s,"message":%s%s}\n'
        % (json.dumps(type(exc).__name__), json.dumps(str(exc)), extra)
    )
    return 1


def _run_suites(chosen, tol_scale, command) -> int:
    """Run each (name, fn) suite, re-gate its reports at tol * tol_scale,
    print every report line, then the manifest; exit 1 if any check
    failed."""
    manifest = RunManifest(__version__, command, tol_scale)
    lines = []
    any_fail = False
    for name, fn in chosen:
        t0 = time.perf_counter()
        reports = [r.scaled(tol_scale) for r in fn()]
        wall = time.perf_counter() - t0
        npass = sum(1 for r in reports if r.ok)
        nfail = len(reports) - npass
        any_fail = any_fail or nfail > 0
        manifest.add(name, wall, npass, nfail)
        lines.extend(r.to_line() for r in reports)
    for line in lines:
        sys.stdout.write(line + "\n")
    sys.stdout.write(manifest.to_line() + "\n")
    return 1 if any_fail else 0


def cmd_verify(args) -> int:
    from .selftests import SUITES

    chosen = [(n, f) for n, f in SUITES if args.suite in ("all", n)]
    return _run_suites(chosen, args.tol_scale, " ".join(args.argv))


def cmd_zeros(args) -> int:
    from .spectrum import find_zeros

    zeros = find_zeros(args.tau_max, tol=args.tol)
    out = sys.stdout
    if args.format == "csv":
        out.write("index,tau,rho_re,rho_im,residual,bracket_lo,bracket_hi\n")
        for z in zeros:
            out.write("%d,%s,%s,%s,%s,%s,%s\n" % (
                z.index, fmt_float(z.tau), fmt_float(z.rho.real),
                fmt_float(z.rho.imag), fmt_float(z.residual),
                fmt_float(z.bracket[0]), fmt_float(z.bracket[1])))
    else:
        for z in zeros:
            out.write(
                '{"index":%d,"tau":%s,"rho":%s,"residual":%s,'
                '"bracket":[%s,%s]}\n'
                % (z.index, fmt_float(z.tau), fmt_complex(z.rho),
                   fmt_float(z.residual), fmt_float(z.bracket[0]),
                   fmt_float(z.bracket[1])))
    return 0


def cmd_eigenfunction(args) -> int:
    from .states import StateParams, psi, psi_tilde

    p = StateParams(args.s)
    transform = psi_tilde if args.which == "psi_tilde" else psi
    rows = []
    for x in args.x_grid:
        r = transform(p, float(x), tol=args.tol)
        rows.append((float(x), r.value, r.abs_err))
    out = sys.stdout
    if args.format == "csv":
        out.write("x,re,im,abs_err\n")
        for x, v, e in rows:
            out.write("%s,%s,%s,%s\n" % (fmt_float(x), fmt_float(v.real),
                                         fmt_float(v.imag), fmt_float(e)))
    else:
        for x, v, e in rows:
            out.write('{"x":%s,"value":%s,"abs_err":%s}\n'
                      % (fmt_float(x), fmt_complex(v), fmt_float(e)))
    return 0


def cmd_gram(args) -> int:
    from .spectrum import find_zeros
    from .states import gram_matrix

    n = args.num_zeros
    rhos = [z.rho for z in find_zeros(60.0)[:n]]
    entries = gram_matrix(rhos, tol=args.tol)
    out = sys.stdout
    out.write('{"rhos":[%s],"matrix":[' % ",".join(
        fmt_complex(r) for r in rhos))
    for i in range(n):
        if i:
            out.write(",")
        out.write("[")
        for j in range(n):
            if j:
                out.write(",")
            e = entries[i][j]
            out.write('{"re":%s,"im":%s,"abs_err":%s}'
                      % (fmt_float(e.value.real), fmt_float(e.value.imag),
                         fmt_float(e.abs_err)))
        out.write("]")
    out.write("]}\n")
    return 0


def cmd_norm_check(args) -> int:
    from .selftests import norm_checks

    return _run_suites([("norm-check", lambda: norm_checks(args.c))], 1.0,
                       " ".join(args.argv))


def cmd_residual(args) -> int:
    from .operators import eigen_residual
    from .states import StateParams

    which = {"h": "H", "htilde": "H_tilde"}[args.operator]
    prof = eigen_residual(StateParams(args.s), args.K, which)
    comps = ",".join(fmt_float(v) for v in prof.per_component)
    sys.stdout.write(
        '{"s":%s,"K":%d,"operator":"%s","trusted_prefix":%d,'
        '"per_component":[%s]}\n'
        % (fmt_complex(args.s), args.K, args.operator,
           prof.trusted_prefix, comps))
    return 0


def cmd_operator_dump(args) -> int:
    from .operators import (build_composites, build_H, build_H_tilde,
                            build_ladder)

    K = args.K
    name = args.name
    if name in ("N", "Nplus", "Nminus"):
        ops = dict(zip(("N", "Nplus", "Nminus"), build_ladder(K)))
        mat = np.asarray(ops[name].entries, dtype=complex)
    elif name in ("x", "D", "T"):
        ops = dict(zip(("x", "D", "T"), build_composites(K)))
        mat = np.asarray(ops[name].entries, dtype=complex)
    elif name == "H":
        mat = np.asarray(build_H(K).entries, dtype=complex)
    else:
        mat = np.asarray(build_H_tilde(K).entries, dtype=complex)
    out = sys.stdout
    out.write("row,col,re,im\n")
    for i in range(K):
        for j in range(K):
            v = mat[i, j]
            if v != 0:
                out.write("%d,%d,%s,%s\n" % (i, j, fmt_float(v.real),
                                             fmt_float(v.imag)))
    return 0


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
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--operator", choices=("h", "htilde"), default="htilde")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser(
        "operator-dump",
        help="nonzero matrix entries; csv columns: row, col, re, im")
    p.add_argument("--name", required=True,
                   choices=("N", "Nplus", "Nminus", "x", "D", "T", "H",
                            "Htilde"))
    p.add_argument("--K", type=int, required=True)
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
