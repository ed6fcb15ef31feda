import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
import zetalab
from zetalab.cli import main
from zetalab.reporting import check

RHO1_ARG = "0.5+14.134725141734693i"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = out.splitlines()
    return code, lines


def test_verify_special_suite(capsys):
    code, lines = run(capsys, "verify", "--suite", "special")
    assert code == 0
    assert len(lines) > 30
    reports = [json.loads(ln) for ln in lines[:-1]]
    assert all(r["pass"] for r in reports)
    manifest = json.loads(lines[-1])["manifest"]
    assert manifest["passed"] == len(reports)
    assert manifest["failed"] == 0
    assert manifest["total"] == len(reports)
    assert manifest["suites"][0]["suite"] == "special"
    assert manifest["command"] == "verify --suite special"


def test_report_line_shape(capsys):
    _, lines = run(capsys, "verify", "--suite", "quad")
    rep = json.loads(lines[0])
    assert list(rep.keys()) == ["name", "inputs", "computed", "reference",
                                "abs_err", "rel_err", "tol", "pass",
                                "provenance"]
    assert rep["provenance"] in ("paper", "derived-oracle", "trivial")
    assert set(rep["computed"].keys()) == {"re", "im"}
    assert rep["abs_err"] >= 0


GOLDEN_VERIFY_ALL = os.path.join(os.path.dirname(__file__), "golden",
                                 "verify_all.jsonl")
GOLDEN_GRAM_2 = os.path.join(os.path.dirname(__file__), "golden",
                             "gram_num_zeros_2.json")
GOLDEN_ZEROS_60 = os.path.join(os.path.dirname(__file__), "golden",
                               "zeros_tau_max_60.csv")


def test_verify_all_runs_every_suite(capsys):
    code, lines = run(capsys, "verify", "--suite", "all")
    assert code == 0
    manifest = json.loads(lines[-1])["manifest"]
    assert [s["suite"] for s in manifest["suites"]] == [
        "special", "quad", "spectrum", "states", "operators"]
    assert manifest["failed"] == 0
    assert manifest["total"] == len(lines) - 1
    # Every report line is byte-identical to the committed stream; only
    # the manifest (wall-clock timings) is exempt.  A failure names every
    # moved check, not only the first.
    with open(GOLDEN_VERIFY_ALL) as fh:
        golden = fh.read().splitlines()
    moved = _golden_moves(lines[:-1], golden)
    assert not moved, ("report lines differ from the golden stream:\n"
                       + "\n".join(moved))


def _golden_moves(lines, golden):
    # One message per report line that differs from its golden line:
    # name, computed before -> after, the reference if it moved, and tol.
    moved = [f"{len(golden)} golden lines -> {len(lines)} report lines"
             ] if len(lines) != len(golden) else []
    for got, want in zip(lines, golden):
        if got != want:
            g, w = json.loads(got), json.loads(want)
            msg = f"{w['name']}: computed {w['computed']} -> {g['computed']}"
            for key in ("reference", "name", "tol"):
                if g.get(key) != w.get(key):
                    msg += f", {key} {w.get(key)} -> {g.get(key)}"
            if g.get("tol") == w.get("tol"):
                msg += f", tol {w['tol']}"
            moved.append(msg + ("" if g["pass"] else ", FAILS"))
    return moved


def test_golden_moves_names_every_moved_check():
    line = ('{"name":"a","computed":{"re":1,"im":0},"reference":{"re":1,'
            '"im":0},"tol":0.5,"pass":true}')
    moved_a = line.replace('"re":1,"im":0},"ref', '"re":2,"im":0},"ref')
    moved_b = line.replace('"a"', '"b"').replace('"pass":true',
                                                 '"pass":false')
    assert _golden_moves([line, line], [line, line]) == []
    assert _golden_moves([moved_a, line, moved_b], [line, line, line]) == [
        "a: computed {'re': 1, 'im': 0} -> {'re': 2, 'im': 0}, tol 0.5",
        "a: computed {'re': 1, 'im': 0} -> {'re': 1, 'im': 0}, name a -> b, "
        "tol 0.5, FAILS",
    ]
    assert _golden_moves([line], [line, line]) == [
        "2 golden lines -> 1 report lines"]


def test_zero_reference_prints_null_rel_err():
    r = check("z", 1e-17, 0.0, 1e-16, "trivial")
    assert r.ok and r.rel_err is None
    assert json.loads(r.to_line())["rel_err"] is None
    assert '"rel_err":null,' in r.to_line()
    # A relative error against zero is undefined, so a rel-mode check
    # there fails, even at an exact match.
    assert not check("z", 0.0, 0.0, 1.0, "trivial", mode="rel").ok
    r = check("r", 2.0, 4.0, 0.5, "trivial", mode="rel")
    assert r.ok and r.rel_err == 0.5


def test_selftest_positional_matches_verify(capsys):
    code_a, lines_a = run(capsys, "verify", "--suite", "quad")
    code_b, lines_b = run(capsys, "selftest", "quad")
    assert code_a == code_b == 0
    # Identical report lines; the manifest differs in command and wall.
    assert lines_a[:-1] == lines_b[:-1]
    ma = json.loads(lines_a[-1])["manifest"]
    mb = json.loads(lines_b[-1])["manifest"]
    assert mb["command"] == "selftest quad"
    assert ma["passed"] == mb["passed"]


def test_tol_scale_multiplies_tolerances(capsys):
    _, tight = run(capsys, "verify", "--suite", "special")
    _, loose = run(capsys, "verify", "--suite", "special",
                   "--tol-scale", "1000")
    by_name = {json.loads(ln)["name"]: json.loads(ln) for ln in tight[:-1]}
    scaled = 0
    for ln in loose[:-1]:
        rep = json.loads(ln)
        base = by_name[rep["name"]]
        if base["tol"] not in (0.0, 1e300):
            assert abs(rep["tol"] - 1000 * base["tol"]) <= 1e-9 * rep["tol"]
            scaled += 1
    assert scaled > 10


def test_run_suites_regates_at_tol_scale(capsys):
    # The runner alone applies --tol-scale, re-gating each report through
    # check; an exact flag and an informational register keep their tol.
    from zetalab.cli import _run_suites
    from zetalab.reporting import INFORMATIONAL, flag

    def suite():
        return [check("near", 1.0, 1.0 + 1e-9, 1e-11, "trivial"),
                flag("exact", True, "trivial"),
                check("register", 1.0, 2.0, INFORMATIONAL, "paper")]

    for scale, code, near_ok in ((1.0, 1, False), (1000.0, 0, True)):
        assert _run_suites([("synthetic", suite)], scale, "test") == code
        lines = capsys.readouterr().out.splitlines()
        reps = [json.loads(ln) for ln in lines[:-1]]
        assert [r["pass"] for r in reps] == [near_ok, True, True]
        assert [r["tol"] for r in reps] == [1e-11 * scale, 0.0, 1e300]
        assert lines[0] == check("near", 1.0, 1.0 + 1e-9, 1e-11 * scale,
                                 "trivial").to_line()


def test_zeros_csv_matches_reference(capsys):
    code, lines = run(capsys, "zeros", "--tau-max", "30")
    assert code == 0
    assert lines[0] == "index,tau,rho_re,rho_im,residual,bracket_lo,bracket_hi"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    for k, row in enumerate(rows):
        assert int(row[0]) == k + 1
        assert abs(float(row[1]) - oracles.ZERO_TAUS[k]) < 1e-8
        assert float(row[2]) == 0.5
        assert float(row[3]) == float(row[1])
        assert float(row[4]) < 1e-10
        assert float(row[5]) < float(row[1]) < float(row[6])


def test_zeros_csv_matches_golden(capsys):
    # The full-range scan keeps every root, residual and bracket bit, and
    # the fixed 0.01 grid keeps every bracket that narrow.
    code, lines = run(capsys, "zeros", "--tau-max", "60")
    assert code == 0
    with open(GOLDEN_ZEROS_60) as fh:
        assert lines == fh.read().splitlines()
    for row in lines[1:]:
        lo, hi = (float(v) for v in row.split(",")[5:])
        assert hi - lo <= 0.01 + 2 * math.ulp(hi)


def test_zeros_json_format(capsys):
    code, lines = run(capsys, "zeros", "--tau-max", "16", "--format", "json")
    assert code == 0
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["index"] == 1
    assert abs(rec["tau"] - oracles.ZERO_TAUS[0]) < 1e-10
    assert rec["rho"]["re"] == 0.5
    assert rec["bracket"][0] < rec["tau"] < rec["bracket"][1]


def test_zeros_tau_cap_error(capsys):
    code, lines = run(capsys, "zeros", "--tau-max", "70")
    assert code == 1
    err = json.loads(lines[0])
    assert err["error"] == "CapabilityError"
    assert "60" in err["message"]


def test_eigenfunction_boundary_value(capsys):
    code, lines = run(capsys, "eigenfunction", "--s", RHO1_ARG,
                      "--x-grid", "0:10:11")
    assert code == 0
    assert lines[0] == "x,re,im,abs_err"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0
    assert math.hypot(float(rows[0][1]), float(rows[0][2])) < 1e-7
    assert all(float(r[3]) < 1e-9 for r in rows)


def test_eigenfunction_weight_relation(capsys):
    _, til = run(capsys, "eigenfunction", "--s", "2", "--x-grid",
                 "1.3:2.6:2")
    _, raw = run(capsys, "eigenfunction", "--s", "2", "--x-grid",
                 "1.3:2.6:2", "--which", "psi")
    vt = float(til[1].split(",")[1])
    vr = float(raw[1].split(",")[1])
    assert abs(vt - vr * math.exp(-0.65)) < 1e-12


def test_eigenfunction_above_tau_60_bound_covers_true_error(capsys):
    # Summed by quadrature this printed 7.7e-5 with abs_err 7.5e-6 at
    # x = 4.39, where the true value is below 1e-33.
    s = complex(1.5801565651828051, -69.65193222640391)
    code, lines = run(capsys, "eigenfunction", "--s",
                      "1.5801565651828051-69.65193222640391i",
                      "--x-grid", "4.386612207053902:5:2", "--tol", "1e-4")
    assert code == 0 and len(lines) == 3
    for row in lines[1:]:
        x, re_, im_, abs_err = (float(v) for v in row.split(","))
        w = math.exp(-0.5 * x)
        want, want_err = oracles.psi_series_oracle(s, x, 1e-3 * abs_err / w)
        assert abs_err <= 1e-4
        assert abs(complex(re_, im_) - want * w) + want_err * w <= abs_err


@pytest.mark.parametrize("argv", [
    ["zeros", "--tau-max", "30"],
    ["eigenfunction", "--s", RHO1_ARG, "--x-grid", "0:10:5",
     "--which", "psi"],
    ["residual", "--s", RHO1_ARG, "--K", "16", "--operator", "h"],
    ["verify", "--suite", "operators"],
], ids=["zeros", "eigenfunction", "residual", "verify-operators"])
def test_runtime_never_imports_scipy(argv):
    # A fresh interpreter in which any import of scipy fails.
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from zetalab.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr + done.stdout


def test_zero_scan_never_imports_numpy_ma():
    # numpy.ma costs about 14 ms to import, most of a cold zero scan;
    # np.union1d (through np.unique) pulls it in.
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "zetalab.cli", "zeros",
         "--tau-max", "60"], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    names = [ln.rsplit("|", 1)[-1].strip()
             for ln in done.stderr.splitlines() if ln.startswith("import")]
    assert "zetalab.spectrum" in names
    assert not [n for n in names if n == "numpy.ma"
                or n.startswith("numpy.ma.")]


@pytest.mark.parametrize("operator", ["htilde", "h"])
def test_residual_never_imports_numpy_ma(operator):
    # np.median imports numpy.ma (10 to 14 ms); the tail ratio of the
    # trusted prefix takes the sorted middle itself.
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "zetalab.cli", "residual",
         "--s", RHO1_ARG, "--K", "16", "--operator", operator], env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = [ln.rsplit("|", 1)[-1].strip()
             for ln in done.stderr.splitlines() if ln.startswith("import")]
    assert "zetalab.operators" in names
    assert not [n for n in names if n == "numpy.ma"
                or n.startswith("numpy.ma.")]


def test_gram_matrix_output(capsys):
    code, lines = run(capsys, "gram", "--num-zeros", "2")
    assert code == 0
    assert len(lines) == 1
    # The per-entry abs_err digits are part of the byte-determinism
    # contract.  A failure names every moved entry, not only the line.
    with open(GOLDEN_GRAM_2) as fh:
        golden = fh.read().rstrip("\n")
    rec = json.loads(lines[0])
    moved = _gram_moves(rec, json.loads(golden))
    assert not moved and lines[0] == golden, (
        "gram output differs from the golden line:\n" + "\n".join(moved))
    assert abs(rec["rhos"][0]["im"] - oracles.ZERO_TAUS[0]) < 1e-9
    m = rec["matrix"]
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    diag_min = min(math.hypot(m[0][0]["re"], m[0][0]["im"]),
                   math.hypot(m[1][1]["re"], m[1][1]["im"]))
    for i, j in ((0, 1), (1, 0)):
        off = math.hypot(m[i][j]["re"], m[i][j]["im"])
        assert off < 1e-4 * diag_min
        assert m[i][j]["abs_err"] < 1e-15


def _gram_moves(rec, golden):
    # One message per moved zero or entry: where, old -> new value and
    # abs_err.
    moved = [f"rhos {golden['rhos']} -> {rec['rhos']}"
             ] if rec["rhos"] != golden["rhos"] else []
    for i, (got_row, want_row) in enumerate(zip(rec["matrix"],
                                                golden["matrix"])):
        for j, (got, want) in enumerate(zip(got_row, want_row)):
            if got != want:
                moved.append(
                    f"[{i}][{j}]: {want['re']!r}{want['im']:+}j "
                    f"(abs_err {want['abs_err']!r}) -> "
                    f"{got['re']!r}{got['im']:+}j "
                    f"(abs_err {got['abs_err']!r})")
    return moved


def test_gram_moves_names_every_moved_entry():
    entry = {"re": 1.0, "im": -2.0, "abs_err": 0.5}
    golden = {"rhos": [{"re": 0.5, "im": 14.0}], "matrix": [[entry, entry]]}
    rec = json.loads(json.dumps(golden))
    assert _gram_moves(rec, golden) == []
    rec["matrix"][0][1]["im"] = 3.0
    rec["matrix"][0][1]["abs_err"] = 0.25
    assert _gram_moves(rec, golden) == [
        "[0][1]: 1.0-2.0j (abs_err 0.5) -> 1.0+3.0j (abs_err 0.25)"]


def test_gram_three_zeros_within_bounds(capsys):
    # For three and for four zeros, each diagonal meets its closed form,
    # and each off-diagonal vanishes, within the entry's abs_err; also at
    # --tol 1e-4, where wide panels can alias: the swapped order of
    # integration missed the rho3 x rho4 entry there by 3.29x its bound.
    from zetalab.states import gram_diagonal_closed_form

    for n, tol in ((3, []), (4, []), (4, ["--tol", "1e-4"])):
        code, lines = run(capsys, "gram", "--num-zeros", str(n), *tol)
        assert code == 0 and len(lines) == 1
        rec = json.loads(lines[0])
        m = rec["matrix"]
        assert len(m) == n and all(len(row) == n for row in m)
        for i, row in enumerate(m):
            for j, e in enumerate(row):
                v = complex(e["re"], e["im"])
                if i == j:
                    rho = complex(rec["rhos"][i]["re"], rec["rhos"][i]["im"])
                    v -= gram_diagonal_closed_form(rho)
                assert abs(v) <= e["abs_err"], (n, tol, i, j)


def test_gram_num_zeros_guard(capsys):
    # Only 1..4 are offered; anything else is a bad flag that names itself.
    for n in ("0", "5", "-1", "9"):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--num-zeros", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --num-zeros: invalid choice" in err


def test_zeros_tau_max_and_tol_flags_exit_2(capsys):
    # A NaN --tau-max and a NaN, infinite, negative or scan-step-wide
    # --tol are refused up front, naming the flag (and the 0.01 limit),
    # before find_zeros' own DomainError; --tol 0 still runs, and a
    # finite --tau-max past the cap keeps its exit-1 CapabilityError
    # (test_zeros_tau_cap_error).
    below_step = "a finite number >= 0 below the 0.01 scan step"
    for argv, what in ((["--tau-max", "nan"], "a number"),
                       (["--tau-max", "16", "--tol", "nan"], below_step),
                       (["--tau-max", "16", "--tol", "inf"], below_step),
                       (["--tau-max", "16", "--tol", "-1"], below_step),
                       (["--tau-max", "60", "--tol", "0.01"], below_step),
                       (["--tau-max", "60", "--tol", "0.02"], below_step),
                       (["--tau-max", "60", "--tol", "1e300"], below_step)):
        with pytest.raises(SystemExit) as exc:
            main(["zeros", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be {what}" in err
    code, lines = run(capsys, "zeros", "--tau-max", "16", "--tol", "0")
    assert code == 0 and len(lines) == 2
    # The scan step is fixed; there is no flag for it.
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--tau-max", "30", "--step", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --step" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eigenfunction", "--s", "0.5+nani", "--x-grid", "0:1:2"],
    ["eigenfunction", "--s", "nan", "--x-grid", "0:1:2"],
    ["eigenfunction", "--s", "0.5+1e400i", "--x-grid", "0:1:2"],
    ["eigenfunction", "--s", "0.5+infi", "--x-grid", "0:1:2"],
    ["residual", "--s", "nan", "--K", "16"],
])
def test_non_finite_s_exits_2(capsys, argv):
    # A NaN or infinite part of --s is a bad flag, not nan rows, an
    # all-nan residual profile or quad's endpoint_exponent error.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --s: must be a finite complex number" in captured.err


def test_budget_error_carries_best_estimate(capsys):
    # psi's series bound misses tol 1e-40, and the quadrature fallback
    # stops at its rounding floor after about 5k evaluations.
    code, lines = run(capsys, "eigenfunction", "--s", "2", "--x-grid",
                      "0:1:2", "--tol", "1e-40")
    assert code == 1 and len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConvergenceError"
    best = err["best"]
    assert set(best) == {"value", "abs_err", "evals"}
    assert set(best["value"]) == {"re", "im"}
    assert best["abs_err"] > 1e-40
    assert 0 < best["evals"] <= 600_000
    assert str(best["evals"]) in err["message"]


def test_pole_error_carries_location(capsys):
    # No command's input reaches a pole: the commands call Gamma and
    # zeta only at Re(s) > 0 and s != 1.  The emitter is driven directly.
    from zetalab.cli import _emit_error
    from zetalab.errors import PoleError

    assert _emit_error(PoleError("zeta pole at s = 1", location=1 + 0j)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": "PoleError", "message": "zeta pole at s = 1",
                   "location": {"re": 1, "im": 0}}


def test_stacked_budget_error_lists_its_best_estimate(capsys):
    # A stacked quadrature's best estimate is one value per component.
    from zetalab.cli import _emit_error
    from zetalab.errors import ConvergenceError
    from zetalab.quad import QuadResult

    best = QuadResult(np.array([1 + 2j, -0.5 + 0j]), 3e-12, 920)
    assert _emit_error(ConvergenceError("stalled", best=best)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["best"] == {"value": [{"re": 1, "im": 2}, {"re": -0.5, "im": 0}],
                           "abs_err": 3e-12, "evals": 920}


def test_norm_check_reports(capsys):
    code, lines = run(capsys, "norm-check")
    assert code == 0
    by_name = {}
    for ln in lines[:-1]:
        rep = json.loads(ln)
        by_name[rep["name"]] = rep
    for c in ("2.0", "2.5", "4.0"):
        assert by_name["norm-route-agreement-c" + c]["pass"]
    assert by_name["norm-printed-form"]["pass"]
    assert by_name["norm-exponent-shift"]["pass"]
    # The same-c comparison is informational: a huge tolerance and a
    # visibly nonzero abs_err documenting the exponent offset.
    disc = by_name["norm-exponent-discrepancy"]
    assert disc["tol"] == 1e300
    assert disc["abs_err"] > 0.03
    assert disc["pass"]


def test_residual_profile_json(capsys):
    code, lines = run(capsys, "residual", "--s", RHO1_ARG, "--K", "16")
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["K"] == 16
    assert rec["operator"] == "htilde"
    assert rec["trusted_prefix"] == 0
    assert len(rec["per_component"]) == 16
    assert max(rec["per_component"]) < 0.01


def test_residual_past_tau_60(capsys):
    # Past |Im s| = 60 the engine takes more direct terms: each
    # 1 - eta(n+s) of the K = 16 coefficients still meets half its bound
    # against mpmath, and the command exits 0.  Past |Im s| = 1000, the
    # engine's cap, --s is a bad flag (exit 2) that names the limit.
    from zetalab.special import _one_minus_eta

    s = complex(0.5, 100.0)
    got, bound = _one_minus_eta(s + np.arange(16))
    for n in range(16):
        assert abs(got[n] - oracles.mp_one_minus_eta(s + n)) <= 0.5 * bound[n]
    code, lines = run(capsys, "residual", "--s", "0.5+100i", "--K", "16")
    assert code == 0
    assert len(json.loads(lines[0])["per_component"]) == 16
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--s", "0.5+2000i", "--K", "16"])
    assert exc.value.code == 2
    assert "argument --s: must be" in capsys.readouterr().err


def test_residual_dense_operator(capsys):
    code, lines = run(capsys, "residual", "--s", "0.5+14.134725141734693j",
                      "--K", "8", "--operator", "h")
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["operator"] == "h"
    assert len(rec["per_component"]) == 8


def test_operator_dump_tridiagonal(capsys):
    code, lines = run(capsys, "operator-dump", "--name", "T", "--K", "3")
    assert code == 0
    assert lines[0] == "row,col,re,im"
    assert lines[1:] == [
        "0,0,0.25,0",
        "0,1,0.25,0",
        "1,0,0.25,0",
        "1,1,0.75,0",
        "1,2,0.5,0",
        "2,1,0.5,0",
        "2,2,1.25,0",
    ]


def test_operator_dump_upper_triangular(capsys):
    code, lines = run(capsys, "operator-dump", "--name", "Htilde",
                      "--K", "3")
    assert code == 0
    assert lines[1:] == [
        "0,0,0,0.5",
        "0,1,0,-1.5",
        "0,2,0,-0.5",
        "1,1,0,1.5",
        "1,2,0,-3",
        "2,2,0,2.5",
    ]


GOLDEN_OPERATOR_DUMP = os.path.join(os.path.dirname(__file__), "golden",
                                    "operator_dump.csv")


def test_operator_dump_matches_golden(capsys):
    # operator-dump at K = 12 for every name but H, one "name,row,col,re,im"
    # row per nonzero entry.  H is left out: it goes through LAPACK's
    # eigh, whose last bits depend on the BLAS kernel OpenBLAS picks for
    # the CPU, so its bytes are not portable.
    rows = ["name,row,col,re,im"]
    for name in ("N", "Nplus", "Nminus", "x", "D", "T", "Htilde"):
        code, lines = run(capsys, "operator-dump", "--name", name,
                          "--K", "12")
        assert code == 0 and lines[0] == "row,col,re,im"
        rows += [f"{name},{ln}" for ln in lines[1:]]
    with open(GOLDEN_OPERATOR_DUMP) as fh:
        golden = fh.read().splitlines()
    for i, (got, want) in enumerate(zip(rows, golden)):
        assert got == want, f"row {i}: golden {want!r}, got {got!r}"
    assert len(rows) == len(golden), (
        f"{len(golden)} golden rows, {len(rows)} dumped")


def test_output_is_deterministic(capsys):
    _, a = run(capsys, "verify", "--suite", "quad")
    _, b = run(capsys, "verify", "--suite", "quad")
    assert a[:-1] == b[:-1]
    _, za = run(capsys, "zeros", "--tau-max", "16")
    _, zb = run(capsys, "zeros", "--tau-max", "16")
    assert za == zb


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eigenfunction", "--s", "abc", "--x-grid", "0:1:3"])
    assert exc.value.code == 2
    for grid in ("5:1:3", "0:nan:3", "nan:1:3", "0:inf:3"):
        with pytest.raises(SystemExit) as exc:
            main(["eigenfunction", "--s", "2", "--x-grid", grid])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    # A tol that is not positive and finite, or for gram not below 1, is
    # refused up front, naming its flag, instead of a traceback or a
    # "math domain error".
    for argv in (["eigenfunction", "--s", "2", "--x-grid", "0:1:3",
                  "--tol", "0"],
                 ["eigenfunction", "--s", "2", "--x-grid", "0:1:3",
                  "--tol", "-1"],
                 ["gram", "--num-zeros", "1", "--tol", "0"],
                 ["gram", "--num-zeros", "1", "--tol", "inf"],
                 ["gram", "--num-zeros", "1", "--tol", "tiny"],
                 ["gram", "--num-zeros", "1", "--tol", "1"],
                 ["gram", "--num-zeros", "1", "--tol", "5000"],
                 ["gram", "--num-zeros", "1", "--tol", "1e300"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be a positive finite" in err


def test_norm_check_and_tol_scale_guards_exit_2(capsys):
    # A --c that is not a list of finite numbers, and a --tol-scale that
    # is not positive and finite, are refused up front naming the flag,
    # instead of a bare ValueError, a wrong error or a run of failed checks.
    for c in ("abc", "2,nan", "inf", "2,,3"):
        with pytest.raises(SystemExit) as exc:
            main(["norm-check", "--c", c])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --c: must be comma-separated finite numbers" in err
    for scale in ("nan", "-1", "0", "inf"):
        for argv in (["verify", "--suite", "quad"], ["selftest", "quad"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tol-scale", scale])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --tol-scale: must be a positive finite" in err


@pytest.mark.parametrize("argv, flag, limit", [
    (["norm-check", "--c", "1e300"], "--c", "at most 15"),
    (["norm-check", "--c", "2,15.5"], "--c", "at most 15"),
    (["residual", "--s", "1e300", "--K", "4"], "--s", "0.01 <= Re(s) <= 100"),
    (["residual", "--s", "0.009+14i", "--K", "4"], "--s", "0.01 <= Re(s)"),
    (["eigenfunction", "--s", "1e-300", "--x-grid", "0:1:2"], "--s",
     "0.01 <= Re(s) <= 100"),
    (["eigenfunction", "--s", "100.5", "--x-grid", "0:1:2"], "--s",
     "Re(s) <= 100"),
    (["eigenfunction", "--s", "0.5+1e9i", "--x-grid", "0:1:2"], "--s",
     "|Im s| <= 1000"),
    (["residual", "--s", "0.5-1000.5i", "--K", "4"], "--s",
     "|Im s| <= 1000"),
    (["eigenfunction", "--s", "2", "--x-grid", "0:1:100000000"], "--x-grid",
     "2 <= count <= 10001"),
    (["eigenfunction", "--s", "2", "--x-grid", "0:1:10002"], "--x-grid",
     "2 <= count <= 10001"),
    (["eigenfunction", "--s", "2", "--x-grid=-5:1:2"], "--x-grid",
     "0 <= lo < hi"),
], ids=["norm-c-1e300", "norm-c-15.5", "residual-s-1e300",
        "residual-s-0.009", "eigen-s-1e-300", "eigen-s-100.5",
        "eigen-s-1e9i", "residual-s-1000.5i",
        "eigen-grid-1e8", "eigen-grid-10002", "eigen-grid-negative"])
def test_out_of_range_flags_exit_2_naming_the_limit(capsys, monkeypatch,
                                                    argv, flag, limit):
    # Each used to end in an OverflowError traceback (norm-check's tail
    # bound, residual's Gamma), a NaN ConvergenceError (eigenfunction)
    # or, for the grid, 800 MB of linspace and 10^8 psi calls; no case
    # may reach the grid's allocation.
    def refuse(*args, **kwargs):
        raise AssertionError("a refused flag reached np.linspace")

    monkeypatch.setattr(np, "linspace", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be" in captured.err
    assert limit in captured.err


def test_residual_gamma_overflow_exits_1_naming_double_precision(capsys):
    # Inside the --s range, Gamma(s) at Im s = 999 is not finite in
    # double precision: one CapabilityError line, not a traceback.
    code, lines = run(capsys, "residual", "--s", "0.01+999i", "--K", "4")
    assert code == 1 and len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CapabilityError"
    assert "double precision" in err["message"]


def test_residual_htilde_refuses_past_gammas_normal_range(capsys):
    # |Gamma(1+480i)| ~ 1e-326 is not a normal double: one CapabilityError
    # line, where 16 zero residuals used to print under a trusted prefix
    # of 16.
    code, lines = run(capsys, "residual", "--s", "1+480i", "--K", "16")
    assert code == 1 and len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CapabilityError"
    assert "double precision" in err["message"]


def test_residual_h_refuses_by_its_bound_with_best(capsys):
    # At Re s = 100 the pilot samples of psi's generating function put
    # the bound far past 1e-12: one ConvergenceError line that carries
    # every b_n (0, within 2 Gamma(100)) and the bound, never a profile.
    code, lines = run(capsys, "residual", "--s", "100", "--K", "16",
                      "--operator", "h")
    assert code == 1 and len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConvergenceError"
    assert "exceeds 1e-12" in err["message"]
    best = err["best"]
    assert len(best["value"]) == 16 and best["abs_err"] > 1e-12
    assert best["evals"] == 32  # the pilot's samples at gain 2


def test_flag_limits_themselves_run(capsys):
    for argv in (["norm-check", "--c", "15"],
                 ["residual", "--s", "100", "--K", "4"],
                 ["residual", "--s", "0.01", "--K", "4", "--operator", "h"],
                 ["eigenfunction", "--s", "0.01", "--x-grid", "0:1:2"]):
        code, lines = run(capsys, *argv)
        assert code == 0, argv
        assert not re.search(r"\bnan\b", "\n".join(lines))
    # The --x-grid cap itself parses; tabulating it is 10 s or more of psi.
    from zetalab.cli import _parse_grid, build_parser
    assert len(_parse_grid("0:1:10001")) == 10001
    # So does |Im s| at the engine cap, 1000, for both --s flags.
    for argv in (["eigenfunction", "--s", "0.5+1000i", "--x-grid", "0:1:2"],
                 ["residual", "--s", "0.5-1000i", "--K", "4"]):
        assert build_parser().parse_args(argv).s == complex(argv[2][:-1] + "j")


def test_norm_check_divergent_exponent_exits_1(capsys):
    # Finite exponents at or below 1.01 still reach norm_integral's
    # named guard.
    for c in ("1.01", "0.5", "-3"):
        code, lines = run(capsys, "norm-check", "--c", c)
        assert code == 1
        assert json.loads(lines[0])["error"] == "DivergenceError"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
