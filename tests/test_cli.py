import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import zetalab
from zetalab.cli import main

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


def test_verify_all_runs_every_suite(capsys):
    code, lines = run(capsys, "verify", "--suite", "all")
    assert code == 0
    manifest = json.loads(lines[-1])["manifest"]
    assert [s["suite"] for s in manifest["suites"]] == [
        "special", "quad", "spectrum", "states", "operators"]
    assert manifest["failed"] == 0
    assert manifest["total"] == len(lines) - 1


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


def test_eigenfunction_imports_no_scipy():
    # A fresh interpreter: other tests load scipy into this one.
    script = (
        "import sys\n"
        "from zetalab.cli import main\n"
        f"code = main(['eigenfunction', '--s', '{RHO1_ARG}',\n"
        "             '--x-grid', '0:10:5', '--which', 'psi'])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip().splitlines()[-1] == "0 []"


def test_gram_matrix_output(capsys):
    code, lines = run(capsys, "gram", "--num-zeros", "2")
    assert code == 0
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert abs(rec["rhos"][0]["im"] - oracles.ZERO_TAUS[0]) < 1e-9
    m = rec["matrix"]
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    diag_min = min(math.hypot(m[0][0]["re"], m[0][0]["im"]),
                   math.hypot(m[1][1]["re"], m[1][1]["im"]))
    for i, j in ((0, 1), (1, 0)):
        off = math.hypot(m[i][j]["re"], m[i][j]["im"])
        assert off < 1e-4 * diag_min
        assert m[i][j]["abs_err"] < 1e-15


def test_gram_num_zeros_guard(capsys):
    code, lines = run(capsys, "gram", "--num-zeros", "9")
    assert code == 1
    err = json.loads(lines[0])
    assert err["error"] == "DomainError"


def test_budget_error_carries_best_estimate(capsys):
    # psi's series bound misses tol 1e-40, and the quadrature fallback
    # exhausts its evaluation budget.
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
    with pytest.raises(SystemExit) as exc:
        main(["eigenfunction", "--s", "2", "--x-grid", "5:1:3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
