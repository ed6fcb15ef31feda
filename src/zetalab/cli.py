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
import sys
import time

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, PoleError, ZetalabError
from .reporting import RunManifest, fmt_complex, fmt_float

_ZERO_WINDOWS = {1: 15.0, 2: 22.0, 3: 26.0, 4: 31.0}


def _parse_complex(text: str) -> complex:
    """Accept 1.5, 0.5+14.1i, 0.5+14.1j, with optional whitespace."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    if n < 2 or hi <= lo:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
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


def _run_suites(names, tol_scale, command) -> int:
    from .selftests import SUITES

    chosen = [(n, f) for n, f in SUITES if n in names]
    manifest = RunManifest(__version__, command, tol_scale)
    lines = []
    any_fail = False
    for name, fn in chosen:
        t0 = time.perf_counter()
        reports = fn(tol_scale)
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
    names = ([n for n, _ in _suite_items()] if args.suite == "all"
             else [args.suite])
    return _run_suites(names, args.tol_scale, " ".join(args.argv))


def _suite_items():
    from .selftests import SUITES

    return SUITES


def cmd_zeros(args) -> int:
    from .spectrum import find_zeros

    zeros = find_zeros(args.tau_max, tol=args.tol, step=args.step)
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
    if n not in _ZERO_WINDOWS:
        raise DomainError(
            f"num-zeros must be in 1..{max(_ZERO_WINDOWS)}, got {n}")
    zeros = find_zeros(_ZERO_WINDOWS[n])[:n]
    rhos = [z.rho for z in zeros]
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
    from .reporting import INFORMATIONAL, check
    from .states import norm_integral, norm_series_oracle, \
        paper_norm_closed_form

    cs = [float(c) for c in args.c.split(",")]
    t0 = time.perf_counter()
    reports = []
    for c in cs:
        got = norm_integral(c).value
        reports.append(check(
            f"norm-route-agreement-c{c}", got, norm_series_oracle(c - 1.0),
            1e-9, "derived-oracle", mode="rel", inputs={"c": c}))
    reports.append(check("norm-printed-form", paper_norm_closed_form(2.0),
                         0.158151287891165, 1e-12, "paper",
                         inputs={"c": 2.0}))
    reports.append(check("norm-exponent-shift", paper_norm_closed_form(2.0),
                         norm_series_oracle(3.0), 1e-12, "paper",
                         inputs={"c": 2.0, "series_s": 3.0}))
    reports.append(check("norm-exponent-discrepancy",
                         paper_norm_closed_form(2.0),
                         norm_integral(2.0).value, INFORMATIONAL, "paper",
                         inputs={"c": 2.0, "note": "same-c integral route"}))
    wall = time.perf_counter() - t0
    npass = sum(1 for r in reports if r.ok)
    manifest = RunManifest(__version__, " ".join(args.argv), 1.0)
    manifest.add("norm-check", wall, npass, len(reports) - npass)
    for r in reports:
        sys.stdout.write(r.to_line() + "\n")
    sys.stdout.write(manifest.to_line() + "\n")
    return 0 if npass == len(reports) else 1


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
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply every gating tolerance (default 1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="same as verify --suite")
    p.add_argument("suite", choices=suites)
    p.add_argument("--tol-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "zeros",
        help="critical-line zeros up to --tau-max; csv columns: index, "
             "tau, rho_re, rho_im, residual, bracket_lo, bracket_hi")
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser(
        "eigenfunction",
        help="tabulate the transform on a grid; csv columns: x, re, im, "
             "abs_err")
    p.add_argument("--s", type=_parse_complex, required=True,
                   help="state parameter, e.g. 0.5+14.134725i")
    p.add_argument("--x-grid", type=_parse_grid, required=True,
                   help="lo:hi:count, e.g. 0:10:101")
    p.add_argument("--which", choices=("psi_tilde", "psi"),
                   default="psi_tilde")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser(
        "gram",
        help="pairing matrix over the first --num-zeros zeros as one "
             "JSON object with per-entry abs_err")
    p.add_argument("--num-zeros", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-18)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser(
        "norm-check",
        help="norm identity across routes at comma-separated exponents")
    p.add_argument("--c", default="2,2.5,4")
    p.set_defaults(func=cmd_norm_check)

    p = sub.add_parser(
        "residual",
        help="eigen-residual profile as one JSON object")
    p.add_argument("--s", type=_parse_complex, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--operator", choices=("h", "htilde"), default="htilde")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser(
        "operator-dump",
        help="nonzero matrix entries; csv columns: row, col, re, im")
    p.add_argument("--name", required=True,
                   choices=("N", "Nplus", "Nminus", "x", "D", "T", "H",
                            "Htilde"))
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--format", choices=("csv",), default="csv")
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
    except ZetalabError as exc:
        return _emit_error(exc)
    except ValueError as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
