"""One workload process: set up, warm up, run the closed loop, report JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--part K --parts P] [--trace]

`bench/run.py` starts it; it prints one JSON object on stdout.  Without
--trace it runs part K of P of the workload's operations for S seconds, one
call at a time, and reports every latency.  With --trace it runs
a fixed prefix of the list three times: untraced, with the memo cache off,
and under the tracer, and reports the per-layer metrics.

The speed of a shared host drifts by 20% and more over tens of seconds (a
busy neighbour on the sibling hyperthread slows the same code 1.7x).  So the
timed loop stops every CAL_EVERY_NS to time a fixed pure-Python calibration
loop, and reports each call's latency scaled to a host on which that loop
takes CAL_REF_NS: latency * CAL_REF_NS / (median of the five calibrations
nearest the call).  Unscaled sums are reported beside them.
"""

import time

STARTED = time.perf_counter_ns()  # set-up time counts from here, before the import

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multiteam"
WORK = Path(__file__).resolve().parent / ".work"

WARMUP = {"encodings": 6, "search": 300, "files": 8}
CAL_EVERY_NS = 50_000_000
CAL_REF_NS = 1_000_000
CAL_LOOPS = 12000
TRACED_OPS = {"encodings": 180, "search": 4000, "files": 256}


def import_program() -> SimpleNamespace:
    """Import every module of the package from this checkout's `src`."""
    if not (PACKAGE / "semantics.py").is_file():
        raise SystemExit(f"no multiteam sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"multiteam.{path.stem}")
    return SimpleNamespace(**modules)


def calibration_ns() -> int:
    """Time of a fixed loop of integer arithmetic."""
    t0 = time.perf_counter_ns()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i % 7
    return time.perf_counter_ns() - t0


def scaled(latencies, marks) -> list:
    """Latencies at the reference speed; `marks` holds (calls done, loop ns)
    for each calibration, the first before the first call, the last after
    the last one."""
    loops = [ns for _, ns in marks]
    out = []
    for j in range(len(marks) - 1):
        near = loops[max(0, j - 2):j + 3]
        factor = CAL_REF_NS / statistics.median(near)
        out += [ns * factor for ns in latencies[marks[j][0]:marks[j + 1][0]]]
    return out


def run_ops(ops, start: int, count: int = 0, deadline_ns: int = 0, calibrate=False):
    """Run ops cyclically from `start`, for `count` calls or until the
    deadline.  Returns (latencies in ns, failed count, failures by kind,
    calibration marks as `scaled` takes them, empty unless `calibrate`)."""
    clock = time.perf_counter_ns
    latencies = []
    failed = 0
    by_kind: dict = {}
    marks = []
    next_mark = 0
    n = len(ops)
    i = start
    while True:
        if calibrate and clock() >= next_mark:
            marks.append((len(latencies), calibration_ns()))
            next_mark = clock() + CAL_EVERY_NS
        op = ops[i % n]
        i += 1
        t0 = clock()
        try:
            result = op.run()
            raised = False
        except Exception:
            raised = True
        t1 = clock()
        latencies.append(t1 - t0)
        try:
            ok = not raised and op.check(result)
        except Exception:
            ok = False
        if not ok:
            failed += 1
            by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
        if (count and len(latencies) >= count) or (deadline_ns and t1 >= deadline_ns):
            if calibrate:
                marks.append((len(latencies), calibration_ns()))
            return latencies, failed, by_kind, marks


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WARMUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    setup_marks = [calibration_ns()]
    mt = import_program()
    import tracer
    import workloads

    work_dir = WORK / f"{args.workload}-{args.seed}-{args.part}"
    try:
        ops = workloads.build(args.workload, mt, args.seed, work_dir, args.part, args.parts)
        if args.trace:
            report = _traced(args.workload, ops, tracer)
        else:
            report = end_to_end(args.workload, ops, args.seconds, setup_marks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    json.dump(report, sys.stdout)
    return 0


def end_to_end(workload: str, ops, seconds: float, setup_marks: list) -> dict:
    """Warm up, then the timed closed loop for `seconds`.  `setup_marks`
    holds the calibrations made during set-up so far."""
    setup_marks.append(calibration_ns())
    run_ops(ops, 0, count=WARMUP[workload])
    start = WARMUP[workload]
    setup_marks.append(calibration_ns())
    began = time.perf_counter_ns()
    deadline = began + int(seconds * 1e9)
    latencies, failed, by_kind, marks = run_ops(ops, start, deadline_ns=deadline,
                                                calibrate=True)
    setup_ns = began - STARTED - sum(setup_marks)
    return {
        "setup_s": setup_ns * CAL_REF_NS / statistics.median(setup_marks) / 1e9,
        "raw_setup_s": setup_ns / 1e9,
        "elapsed_s": (time.perf_counter_ns() - began) / 1e9,
        "latencies_ns": scaled(latencies, marks),
        "raw_call_s": sum(latencies) / 1e9,
        "calibration_ns": statistics.median(ns for _, ns in marks),
        "attempted": len(latencies),
        "failed": failed,
        "failed_by_kind": by_kind,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _traced(workload: str, ops, tracer) -> dict:
    """Untraced, cache-off and traced passes over the same fixed prefix,
    after one untimed pass to warm up."""
    ops = [ops[i % len(ops)] for i in range(TRACED_OPS[workload])]
    run_ops(ops, 0, count=len(ops))
    attempted = failed = 0
    seconds = {}
    by_kind: dict = {}

    def timed_pass(label):
        nonlocal attempted, failed
        began = time.perf_counter()
        latencies, bad, kinds, _ = run_ops(ops, 0, count=len(ops))
        seconds[label] = time.perf_counter() - began
        attempted += len(latencies)
        failed += bad
        for kind, n in kinds.items():
            by_kind[kind] = by_kind.get(kind, 0) + n

    timed_pass("untraced")
    uncached = tracer.cache_off_bindings()
    if uncached is not None:
        undo = tracer.rebind(uncached)
        try:
            timed_pass("cache_off")
        finally:
            tracer.unbind(undo)
    t = tracer.Tracer()
    t.install()
    try:
        timed_pass("traced")
    finally:
        t.remove()
    metrics = t.metrics()
    cache_off = seconds.get("cache_off")
    metrics["semantics.cache_off_ratio"] = (
        cache_off / seconds["untraced"] if cache_off is not None else None, "ratio")
    metrics["trace.untraced_ops_per_s"] = (len(ops) / seconds["untraced"], "1/s")
    metrics["trace.traced_ops_per_s"] = (len(ops) / seconds["traced"], "1/s")
    metrics["trace.overhead_ratio"] = (seconds["traced"] / seconds["untraced"], "ratio")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failed_by_kind": by_kind}


if __name__ == "__main__":
    sys.exit(main())
