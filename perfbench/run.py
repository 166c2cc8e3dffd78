#!/usr/bin/env python3
"""unitons benchmark: verify-suite, model-factorize and sample-grid workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

One run is one fresh process: set-up (import plus generation of the first
round's inputs, repeated and reported as a median), then closed-loop rounds of
the workload's operations until --seconds of operation time are measured,
then the correctness oracles over every output.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# One BLAS thread per process keeps a run inside a 2-core budget; this must
# precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The speed of a shared machine drifts by tens of percent, within seconds and
# over minutes.  A fixed calibration loop run between the operations measures
# it, and every operation time is scaled, by the mean of the samples just
# before and just after it, to the speed at which one loop takes CAL_REF_S.
CAL_REF_S = 0.006
CAL_CHUNKS = 3
CAL_INTERVAL_S = 0.1
WORKLOAD_NAMES = ("verify-suite", "model-factorize", "sample-grid")


def _fresh_import() -> float:
    """Seconds to import the package from scratch (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "unitons" or m.startswith("unitons.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import unitons.cli  # noqa: F401  (pulls in every module)

    return time.perf_counter() - t0


def _calibration_chunk(np) -> float:
    """Seconds for a fixed mix of small complex SVDs, matrix products and
    Python complex arithmetic, the kinds of work the package does."""
    a = (np.arange(40.0).reshape(5, 8) % 7 - 3) + 1j * (np.arange(40.0).reshape(5, 8) % 5 - 2)
    acc = 0j
    t0 = time.perf_counter()
    for i in range(150):
        np.linalg.svd(a, full_matrices=False)
        a @ a.conj().T
        for k in range(60):
            acc = acc * 0.5 + complex(k, i)
    return time.perf_counter() - t0


class Calibrator:
    """Calibration-loop samples, taken before an operation when the last one
    is older than CAL_INTERVAL_S (or when forced); the tracer is paused
    while the loop runs.  Calling it returns the current sample's index."""

    def __init__(self, np, tracer=None):
        self.np = np
        self.tracer = tracer
        self.samples: list[float] = []
        self.last = float("-inf")

    def __call__(self, force: bool = False) -> int:
        if force or time.perf_counter() - self.last >= CAL_INTERVAL_S:
            active = self.tracer is not None and self.tracer.active
            if active:
                self.tracer.active = False
            self.samples.append(statistics.median(_calibration_chunk(self.np) for _ in range(CAL_CHUNKS)))
            if active:
                self.tracer.active = True
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def speed(self, index: int) -> float:
        """Speed over an operation that began after sample `index`: the
        next sample was taken after it ended."""
        return 2 * CAL_REF_S / (self.samples[index] + self.samples[index + 1])

    def median_speed(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def throughput(ops, calibrate) -> float:
    """Units per second of a typical round.

    Every round runs the same kinds of operation, so the round time is the
    sum over kinds of count x median time.  The median keeps the sub-second
    slowdowns seen on a shared machine out of the figure; only operations
    that succeeded count.
    """
    ok = [op for op in ops if op.counted and not op.failed]
    units = sum(op.units for op in ok)
    seconds = sum(len(secs) * statistics.median(secs) for secs in _by_kind(ok, calibrate).values())
    return units / seconds


def _by_kind(ops, calibrate=None) -> dict:
    """Operation times per kind: wall seconds, or reference seconds when a
    calibrator is given."""
    out = {}
    for op in ops:
        out.setdefault(op.kind, []).append(op.seconds * (calibrate.speed(op.cal) if calibrate else 1.0))
    return out


def run_one(args) -> int:
    if not (SRC / "unitons" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/unitons", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    import workloads

    workdir = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        tracer = tracing.Tracer() if args.trace else None
        calibrate = Calibrator(np, tracer)
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), calibrate)
        setup = []  # (wall seconds, calibration index before)
        for _ in range(SETUP_REPEATS):
            cal = calibrate(force=True)
            t_import = _fresh_import()
            t0 = time.perf_counter()
            rnd = wl.prepare(0)
            setup.append((t_import + time.perf_counter() - t0, cal))
        calibrate(force=True)
        setup_s = statistics.median(t * calibrate.speed(cal) for t, cal in setup)
        import unitons

        env = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "backend": unitons.BACKEND,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        }
        print("# env " + json.dumps(env, sort_keys=True))

        if tracer:
            tracer.install()
            tracer.record_spans = True
        all_ops, problems, measured, layer, peak_rss_mb = [], [], 0.0, None, None
        k = 0
        while True:
            if tracer:
                tracer.active = True
            ops = wl.run(rnd)
            if tracer:
                tracer.active = False
            if k == 0:
                # Later rounds repeat round 0's pattern; measured here, the peak
                # holds set-up and the program's own work, not the oracles'.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer:
                    layer = tracer.layer_metrics()
                    tracer.record_spans = False
            problems += [f"round {k}: {p}" for p in wl.check(rnd, ops)]
            for op in ops:
                op.detail = {"code": op.detail.get("code")}
            all_ops += ops
            measured += sum(op.seconds for op in ops)
            k += 1
            if measured >= args.seconds:
                break
            rnd = wl.prepare(k)
        if tracer:
            tracer.uninstall()

        attempted = sum(op.attempted for op in all_ops)
        failed = sum(op.failed or 0 for op in all_ops)
        calibrate(force=True)
        ops_per_s = throughput(all_ops, calibrate)
        speed = calibrate.median_speed()

        print(f"# {args.workload}: {k} rounds, {measured:.2f} s measured, "
              f"{attempted} attempted, {failed} failed")
        print(f"# machine speed {speed:.3f} of reference (median of {len(calibrate.samples)}); "
              f"wall-clock setup_s {statistics.median(t for t, _ in setup):.6g}")
        for op in all_ops:
            if op.failed:
                print(f"# failed {op.kind}: {op.failed}/{op.attempted} ({op.detail.get('code')})")
        for kind, secs in sorted(_by_kind(all_ops).items()):
            q = statistics.quantiles(secs, n=4) if len(secs) > 1 else secs * 3
            print(f"# op {kind}: {len(secs)} x, wall seconds min {min(secs):.4g} q1 {q[0]:.4g} "
                  f"median {q[1]:.4g} q3 {q[2]:.4g} max {max(secs):.4g}")
        for p in problems[:50]:
            print(f"# INCORRECT {p}")
        if tracer:
            if tracer.missing:
                print("# trace missing: " + ", ".join(tracer.missing))
            (HERE / "_out").mkdir(exist_ok=True)
            tracer.write_spans(HERE / "_out" / f"trace-{args.workload}.json")
            # layer times in reference seconds, like the end-to-end figures
            values = {name: v * speed if units.get(name) == "s" else v for name, v in layer.items()}
            values["trace.ops_per_s"] = ops_per_s
            values["trace.missing"] = len(tracer.missing)
        else:
            values = {"ops_per_s": ops_per_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, with the
    tracing overhead as the untraced over the traced throughput."""
    summary = {}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            results[trace] = json.loads(lines[-1])
        plain, traced = results[0], results[1]
        overhead = plain["metrics"]["ops_per_s"]["value"] / traced["metrics"]["trace.ops_per_s"]["value"] - 1
        print(f"[{name}] correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"tracing overhead {100 * overhead:+.1f}%")
        summary[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "metrics": plain["metrics"],
            "per_layer": traced["metrics"],
            "trace_overhead": overhead,
        }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="verify-suite, model-factorize, sample-grid or all")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (0: the acceptance suite's seeds)")
    ap.add_argument("--seconds", type=float, default=15.0, help="operation time to measure per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOAD_NAMES:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
