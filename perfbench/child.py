"""The measured process: a fresh interpreter that imports zetalab, runs
the workload's cold op, prints READY, and then (unless it is a set-up
sample) runs the workload's passes.

Usage: python3 perfbench/child.py '<json config>'

Config keys: workload, seed, size, mode ("setup", "measure" or
"trace"), passes, out (result file), spans (span file, trace mode).
The parent sets PYTHONPATH to the checkout's src and pins BLAS threads.
"""

from __future__ import annotations

import cmath
import json
import math
import resource
import sys
import time

# Layer order, so that -X importtime charges numpy to cli and scipy to
# the first layer that pulls it in.
import zetalab.cli  # noqa: F401
import zetalab.special  # noqa: F401
import zetalab.quad  # noqa: F401
import zetalab.spectrum  # noqa: F401
import zetalab.states  # noqa: F401
import zetalab.operators  # noqa: F401

import numpy as np
import zetalab
from workloads import cold_op, plan_pass, run_op


def _calibration_kernel():
    # The same kinds of work zetalab does: small longdouble numpy arrays
    # and Python-level complex arithmetic.  About half a millisecond.
    x = np.linspace(0.0, 1.0, 31, dtype=np.longdouble)
    z = 0j
    for k in range(12):
        z += complex(np.exp(-(k + 1) * x) @ x)
        for j in range(1, 40):
            z += cmath.exp(complex(-0.5, k) * math.log(j))
    return z


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes, run a second time so
    the reading does not depend on what ran before it: how fast the
    machine is at this moment."""
    _calibration_kernel()
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def run_passes(workload: str, seed: int, size: str, passes: int):
    """Run passes 0..passes-1; returns (per-op records, pass walls).
    A calibration reading is taken between consecutive ops; each record
    carries the mean of the readings right before and right after its
    op.  Pass walls leave the readings out."""
    records, walls = [], []
    for p in range(passes):
        ops = plan_pass(workload, seed, p, size)
        t_pass = time.perf_counter()
        cal_total = cal = calibrate()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out, err = run_op(op, zetalab), None
            except Exception as exc:  # a failed op is data, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            cal_next = calibrate()
            cal_total += cal_next
            records.append({"pass": p, "i": i, "latency_s": latency,
                            "cal_s": (cal + cal_next) / 2,
                            "out": out, "error": err})
            cal = cal_next
        walls.append(time.perf_counter() - t_pass - cal_total)
    return records, walls


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workload, seed, size = cfg["workload"], cfg["seed"], cfg["size"]
    run_op(cold_op(workload, seed), zetalab)
    sys.stdout.write(f"READY {zetalab.__file__}\n")
    sys.stdout.flush()
    if cfg["mode"] == "setup":
        return 0

    result = {}
    result["records"], result["walls"] = run_passes(workload, seed, size,
                                                    cfg["passes"])
    if cfg["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        uninstall = tracer.install()
        try:
            result["traced_records"], result["traced_walls"] = run_passes(
                workload, seed, size, cfg["passes"])
        finally:
            uninstall()
        result["layers"] = tracer.metrics(cfg["passes"])
        result["spans"] = len(tracer.start)
        tracer.write(cfg["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(cfg["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
