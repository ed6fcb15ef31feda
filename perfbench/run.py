"""zetalab benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it runs zetalab from ./src.  Load
is a closed loop with one client: one process, one op at a time, each
workload in a fresh interpreter with BLAS threads pinned to 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same passes
untraced and then traced, and prints the per-layer metrics.  Every op's
output is checked against an independent mpmath reference after the
timed part.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the run
record (versions, nproc, seed, commit, tail percentile, failures).
Per-op results, spans and import timings go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import References, reported_error_ratio
from workloads import SIZES, WORKLOADS, passes_for, plan_pass, s_repeat_frac

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5        # fresh interpreters per run, the measured one included
# Op times are reported at a reference machine speed.  Between ops the
# child times a fixed calibration kernel (child.calibrate), and each op's
# time is scaled by REFERENCE_CAL_S over the mean of the readings right
# before and right after it.  On a shared 2-vCPU sandbox the same code
# runs up to 1.7x slower for seconds to minutes at a time; the readings
# move with it, and the program under test does not move them.  0.40 ms
# is the kernel's reading on that sandbox in its common state.  setup_s
# is not scaled: a reading taken after set-up does not track the second
# before it.  The unscaled figures are in the run record.
REFERENCE_CAL_S = 0.40e-3
CHILD_TIMEOUT_S = 150.0
LAYER_MODULES = ("cli", "special", "quad", "spectrum", "operators")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def spawn(root: Path, cfg: dict, importtime_log: Path | None = None) -> float:
    """Run one child to completion; returns seconds from spawn to READY,
    which is interpreter start, imports and the cold op."""
    cmd = [sys.executable]
    if importtime_log is not None:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), json.dumps(cfg)]
    err_fh = open(importtime_log, "w") if importtime_log is not None else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), text=True,
                            stdout=subprocess.PIPE, stderr=err_fh)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        t_ready = time.perf_counter() - t0
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['mode']} child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if err_fh is not None:
            err_fh.close()
    if proc.returncode != 0 or not line.startswith("READY "):
        raise BenchError(f"{cfg['mode']} child failed (exit {proc.returncode})")
    imported = Path(line.split(" ", 1)[1].strip()).resolve()
    if (root / "src") not in imported.parents:
        raise BenchError(f"child imported zetalab from {imported}, not ./src")
    return t_ready


def import_times(log: Path) -> dict[str, float]:
    """Cumulative import seconds of each layer module from -X importtime."""
    out = {}
    for row in log.read_text().splitlines():
        parts = [p.strip() for p in row.split("|")]
        if len(parts) == 3 and parts[2].startswith("zetalab."):
            mod = parts[2].split(".", 1)[1]
            if mod in LAYER_MODULES:
                out[f"{mod}.import_s"] = int(parts[1]) / 1e6
    missing = [m for m in LAYER_MODULES if f"{m}.import_s" not in out]
    if missing:
        raise BenchError(f"no import time for {missing}")
    return out


def declared_metrics(root: Path, section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def latency_stats(latencies: list[float], failed: list[bool]):
    """(p50, tail, tail percentile) in seconds.  A failed op ranks above
    every success; the tail is the highest percentile that leaves at
    least ten samples beyond it (the maximum when there are ten or
    fewer ops)."""
    ranked = sorted(zip(failed, latencies))
    n = len(ranked)
    p50 = ranked[(n - 1) // 2][1]
    k = n - 11 if n > 10 else n - 1
    return p50, ranked[k][1], 100.0 * (k + 1) / n


def run_record(root: Path, args) -> dict:
    from importlib.metadata import version

    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((root / "src" / "zetalab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "longdouble_eps": float(numpy.finfo(numpy.longdouble).eps),
        "blas_threads": {v: "1" for v in _THREAD_VARS},
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
    }


def check_records(refs, workload, seed, size, records):
    """Mark each record failed or not; returns (wrong-value count,
    reported error ratios, failure reasons)."""
    plans = {}
    wrong, ratios, reasons = 0, [], []
    for rec in records:
        p = rec["pass"]
        if p not in plans:
            plans[p] = plan_pass(workload, seed, p, size)
        op = plans[p][rec["i"]]
        if rec["error"] is not None:
            rec["failed"] = True
            reasons.append(f"pass {p} op {rec['i']} {op['kind']}: {rec['error'][:160]}")
            continue
        ok, why = refs.check(op, rec["out"])
        rec["failed"] = not ok
        if not ok:
            wrong += 1
            reasons.append(f"pass {p} op {rec['i']} {op['kind']}: wrong value: {why}")
            continue
        ratio = reported_error_ratio(op, rec["out"])
        if ratio is not None:
            ratios.append(ratio)
    return wrong, ratios, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="'small' runs one pass of the smallest size "
                         "with the same op mix")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "zetalab" / "__init__.py").is_file():
        raise BenchError(f"no zetalab source under {root / 'src'}; "
                         "run from the root of a zetalab checkout")
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(root, args)
    # A traced run spends half the time untraced and half traced.
    passes = (passes_for(args.workload, args.seconds / 2, args.size, 1)
              if args.trace else passes_for(args.workload, args.seconds, args.size))
    cfg = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "passes": passes, "out": str(out_dir / f"{stem}.json"),
           "spans": str(out_dir / f"{stem}.spans.csv.gz")}

    setup_times = []
    if args.trace:
        log = out_dir / f"{stem}.importtime.txt"
        spawn(root, dict(cfg, mode="setup"), importtime_log=log)
        imports = import_times(log)
        spawn(root, dict(cfg, mode="trace"))
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup_times.append(spawn(root, dict(cfg, mode="setup")))
        setup_times.append(spawn(root, dict(cfg, mode="measure")))
    with open(cfg["out"]) as fh:
        result = json.load(fh)

    # Everything below is untimed: references, checks, metrics.
    t_check = time.perf_counter()
    records = result["records"]
    wrong, ratios, reasons = check_records(References(), args.workload,
                                           args.seed, args.size, records)
    record["reference_s"] = time.perf_counter() - t_check
    failed = [rec["failed"] for rec in records]
    attempted, n_failed = len(records), sum(failed)
    correct = wrong == 0

    if args.trace:
        traced = result["traced_records"]
        identical = len(traced) == len(records) and all(
            a["out"] == b["out"] and a["error"] == b["error"]
            for a, b in zip(records, traced))
        if not identical:
            reasons.append("traced outputs differ from untraced outputs")
        correct = correct and identical
        metrics = dict(result["layers"])
        metrics.update(imports)
        metrics["trace.overhead_frac"] = (sum(result["traced_walls"])
                                          / sum(result["walls"]) - 1.0)
        record["traced_spans"] = result["spans"]
    else:
        scaled = [rec["latency_s"] * REFERENCE_CAL_S / rec["cal_s"]
                  for rec in records]
        pass_walls = [0.0] * passes
        for rec, t in zip(records, scaled):
            pass_walls[rec["pass"]] += t
        p50, tail, tail_pct = latency_stats(scaled, failed)
        raw_p50, raw_tail, _ = latency_stats(
            [rec["latency_s"] for rec in records], failed)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_walls),
            "op_p50_ms": 1e3 * p50,
            "op_tail_ms": 1e3 * tail,
            "ok_frac": (attempted - n_failed) / attempted,
            # Neutral 1.0 where no op reports an error against a tolerance.
            "err_bound_ratio_max": max(ratios) if ratios else 1.0,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        record.update(
            tail_percentile=tail_pct, tail_samples=attempted,
            setup_samples_s=setup_times,
            raw={"pass_walls_s": result["walls"],
                 "op_p50_ms": 1e3 * raw_p50, "op_tail_ms": 1e3 * raw_tail,
                 "op_cal_median_s": statistics.median(
                     rec["cal_s"] for rec in records)})

    ops = [op for p in range(passes)
           for op in plan_pass(args.workload, args.seed, p, args.size)]
    record.update(passes=passes, failed_frac=n_failed / attempted,
                  s_repeat_frac=s_repeat_frac(ops), failures=reasons[:20])
    declared = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    if set(declared) != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                         "are emitted or declared in BENCHMARK.json, not both")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
