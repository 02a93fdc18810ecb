"""Share of a benchmark pass spent in a check's set-up, measured in process.

    python3 scripts/setup_share.py [--seeds 1,2] [--workloads encodings,search,files]
        [--limit N] [--passes 3]

For each workload and seed it builds the operations `bench/workloads.py`
gives one worker (`search`: a quarter of the pool, as one of four workers),
runs them once to warm up, then times `--passes` passes with four
functions wrapped: of `multiteam.semantics`, `_validate` (the entry
check), `_Space.rooted` (the root row space and vector) and `_Eval._test`
(a node's test, worked out on its first use: projections, `dep` numbering,
prunes and rule 6's bound), and `io.load_multiteam` (a CSV team read by the CLI,
as `cli` calls it too).  Only the outermost wrapped call is timed, so the
shares do not overlap.  It prints, for the fastest pass, each share of the
pass and the rest.  The wrappers' own cost falls in the shares, so read
them as upper bounds.  Only the standard library is used.  `files` writes
its inputs and `gen` outputs into a temporary directory, removed on exit;
nothing is written in the checkout.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LABELS = ("_validate", "_Space.rooted", "_Eval._test", "io.load_multiteam", "rest")
WORKLOADS = ("encodings", "search", "files")


class Timer:
    """Wraps functions so that the outermost wrapped call's time goes to its
    label."""

    def __init__(self):
        self.spent = dict.fromkeys(LABELS[:-1], 0)
        self.depth = 0

    def wrap(self, label, fn):
        def timed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[label] += time.perf_counter_ns() - start
                self.depth = 0
        return timed


def shares(mt, workload: str, seed: int, limit=None, passes: int = 3) -> dict:
    """Per label, its share of the fastest of `passes` passes over the first
    `limit` operations (all with None); also the pass's seconds and ops.
    mt is the package as `bench/worker.py` imports it, and `bench` must be
    on the path."""
    import workloads
    sem = mt.semantics
    timer = Timer()
    saved = [(owner, name, label, vars(owner)[name]) for owner, name, label in (
        (sem, "_validate", "_validate"), (sem._Space, "rooted", "_Space.rooted"),
        (sem._Eval, "_test", "_Eval._test"), (mt.io, "load_multiteam", "io.load_multiteam"),
        (mt.cli, "load_multiteam", "io.load_multiteam"))]
    for owner, name, label, fn in saved:
        if isinstance(fn, classmethod):
            setattr(owner, name, classmethod(timer.wrap(label, fn.__func__)))
        else:
            setattr(owner, name, timer.wrap(label, fn))
    try:
        with tempfile.TemporaryDirectory() as work_dir:
            ops = workloads.build(workload, mt, seed, Path(work_dir), 0,
                                  4 if workload == "search" else 1)[:limit]
            for op in ops:  # warm-up
                op.run()
            best = None
            for _ in range(passes):
                timer.spent = dict.fromkeys(timer.spent, 0)
                start = time.perf_counter_ns()
                for op in ops:
                    op.run()
                total = time.perf_counter_ns() - start
                if best is None or total < best[0]:
                    best = total, dict(timer.spent)
    finally:
        for owner, name, _, fn in saved:
            setattr(owner, name, fn)
    total, spent = best
    out = {label: ns / total for label, ns in spent.items()}
    out["rest"] = 1 - sum(out.values())
    return {"shares": out, "seconds": total / 1e9, "ops": len(ops)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--workloads", default="encodings,search", help=",".join(WORKLOADS))
    p.add_argument("--limit", type=int, help="time only the first N operations")
    p.add_argument("--passes", type=int, default=3)
    args = p.parse_args(argv)
    if not set(args.workloads.split(",")) <= set(WORKLOADS):
        p.error(f"--workloads takes {', '.join(WORKLOADS)}")
    sys.dont_write_bytecode = True  # write no __pycache__ into the checkout
    sys.path.insert(0, str(ROOT / "bench"))
    import worker
    mt = worker.import_program()
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            got = shares(mt, workload, seed, args.limit, args.passes)
            text = "  ".join(f"{label} {share:6.1%}" for label, share in got["shares"].items())
            print(f"{workload} seed {seed}: {text}  "
                  f"(pass {got['seconds'] * 1e3:.1f} ms, {got['ops']} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
