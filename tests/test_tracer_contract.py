"""The benchmark's tracer (perfbench/tracer.py) patches zetalab from the
outside: it wraps every public function of the five layers, rebinds
spectrum.brentq, sizes operators.tridiag_eigh spans by the operator's
dim, and wraps CumulativeIntegral's constructor and query methods by
name.  A traced run of the library must keep working when any of
these change, so these tests run one under the tracer."""

import importlib
from pathlib import Path

import numpy as np

import oracles
import zetalab.operators as operators
import zetalab.quad as quad
import zetalab.spectrum as spectrum
import zetalab.states as states
from zetalab.states import StateParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_residual_and_cumulative_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    uninstall = tracer.install()
    try:
        # Called through the modules, as the benchmark does, so the
        # patched bindings are the ones reached.
        prof = operators.eigen_residual(StateParams(oracles.RHO1), 8, "H")
        cum = quad.CumulativeIntegral(lambda u: u * u, 0.0, 1.0, 1e-12)
        vals, _ = cum.query_lo_many(np.array([0.5, 1.0]))
    finally:
        uninstall()
    assert len(prof.per_component) == 8
    assert abs(complex(vals[1]) - 1.0 / 3.0) < 1e-12
    assert not tracer.errors
    m = tracer.metrics(1)
    assert m["operators.tridiag_eigh.dim_sum"] == 8
    assert m["quad.cumulative.builds"] == 1
    assert m["quad.cumulative.query_calls"] == 1
    assert m["operators.coefficients.calls"] == 1


def test_traced_count_zeros_runs_no_quad(monkeypatch):
    # The count tracks arg zeta on engine samples: no quadrature.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    uninstall = tracer.install()
    try:
        n = spectrum.count_zeros(spectrum.StripRectangle(0.05, 0.95, 31.0,
                                                         35.0))
    finally:
        uninstall()
    assert n == 1
    assert not tracer.errors
    m = tracer.metrics(1)
    assert m["spectrum.count_zeros.calls"] == 1
    assert m["quad.calls"] == 0


def test_traced_semi_infinite_counts_every_integrand_point(monkeypatch):
    # norm_integral(2.0) runs at endpoint exponent 1, norm_integral(1.5)
    # at 0.5 through the substitution; each is one top-level quad call
    # whose evals, envelope samples included, are the integrand's points.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    uninstall = tracer.install()
    try:
        results = [states.norm_integral(2.0), states.norm_integral(1.5)]
    finally:
        uninstall()
    assert not tracer.errors
    m = tracer.metrics(1)
    assert m["quad.calls"] == 2
    assert m["quad.integrand_points"] == m["quad.evals"] == sum(
        r.evals for r in results)
