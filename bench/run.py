"""Benchmark of the multiteam checker: one workload per run, closed loop.

    python3 bench/run.py --workload {encodings,search,files} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout.  The checker is imported from `src/`; it
needs no build beyond byte-compiling, which this script does first.

With --trace 0 the workload runs in PARTS worker processes, one after the
other, each single-threaded, each set up from scratch and each timing S/PARTS
seconds of a closed loop with one caller: the next call starts when the
previous verdict returns.  Every result is checked against an expected answer
that does not come from the checker.  The end-to-end metrics are

    ops_per_s     calls completed per second spent in calls
    op_p50_ms     median time to a verdict
    op_p99_ms     99th percentile time to a verdict
    ok_frac       share of calls that returned the expected answer
    setup_s       worker start, before `import multiteam`, to the first timed
                  call: the median over the workers
    peak_rss_mib  peak resident memory of a worker: the median over workers

Times are scaled to a reference host speed measured by a calibration loop
that runs beside the calls (see `worker.py`); the unscaled throughput and
set-up time are printed with the metadata.

With --trace 1 one worker runs a fixed prefix of the operation list untraced,
with the memo cache off, and under the outside-in tracer (`tracer.py`), and
reports the per-layer metrics.  The prefix has a fixed length rather than
a duration, so traced counts repeat exactly for a seed.

The last line of stdout is the result as JSON; the line before it holds the
run's metadata (nproc, Python version, git commit, `src/multiteam` line
count).  A metric missing at the measured commit has the value null.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "multiteam"
WORKLOADS = ("encodings", "search", "files")
PARTS = 3
RUN_LIMIT_S = 170  # every worker of a run has ended by then

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def git_commit():
    """The checked-out commit from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(PACKAGE.glob("*.py")))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "commit": git_commit(), "src_lines": lines}


def run_worker(args, extra, deadline) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MULTITEAM_")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout)


def end_to_end(args, deadline) -> dict:
    share = args.seconds / PARTS
    return summarize([run_worker(args, ["--seconds", str(share), "--part", str(k),
                                        "--parts", str(PARTS)], deadline)
                      for k in range(PARTS)])


def summarize(parts) -> dict:
    """The end-to-end result from the workers' reports."""
    latencies = sorted(ns for part in parts for ns in part["latencies_ns"])
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    failed_by_kind: dict = {}
    for part in parts:
        for kind, n in part["failed_by_kind"].items():
            failed_by_kind[kind] = failed_by_kind.get(kind, 0) + n
    values = {
        "ops_per_s": attempted / (sum(latencies) / 1e9),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p99_ms": statistics.quantiles(latencies, n=100)[98] / 1e6,
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "peak_rss_mib": statistics.median(part["peak_rss_kib"] for part in parts) / 1024,
    }
    if attempted < 1000:
        print(f"warning: only {attempted} calls; p99 rests on fewer than 10 samples",
              file=sys.stderr)
    raw = {"ops_per_s": attempted / sum(part["raw_call_s"] for part in parts),
           "setup_s": statistics.median(part["raw_setup_s"] for part in parts),
           "calibration_ns": [part["calibration_ns"] for part in parts],
           "timed_s": sum(part["elapsed_s"] for part in parts)}
    return {"attempted": attempted, "failed": failed, "failed_by_kind": failed_by_kind,
            "raw": raw, "metrics": {name: {"value": values[name], "unit": unit}
                                    for name, unit in END_TO_END.items()}}


def traced(args, deadline) -> dict:
    report = run_worker(args, ["--trace"], deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report["metrics"].items()}
    absent = sorted(name for name, m in metrics.items() if m["value"] is None)
    if absent:
        print(f"absent at this commit: {', '.join(absent)}", file=sys.stderr)
    return {"attempted": report["attempted"], "failed": report["failed"],
            "failed_by_kind": report["failed_by_kind"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (PACKAGE / "semantics.py").is_file():
        print(f"error: no multiteam sources under {PACKAGE.parent}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: the multiteam sources do not compile", file=sys.stderr)
        return 2
    result = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    if result["failed"]:
        print(f"failed calls by kind: {result['failed_by_kind']}", file=sys.stderr)
    print(json.dumps({"meta": dict(metadata(), workload=args.workload, seed=args.seed,
                                   trace=args.trace, unscaled=result.get("raw"))}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
