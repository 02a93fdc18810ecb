"""Benchmark a change against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --parent COMMIT --out BENCH_N.json
        --pairs files:301-310 --pairs encodings:311-313 [--trace files:1]
        [--seconds 30] [--claim files:ops_per_s] [--what TEXT]

The parent side is a local `git clone` of COMMIT in a temporary directory;
the change side is the checkout this script lives in, as its files stand.
Each pair runs the unmodified `bench/run.py` once per side on one seed, with
the side that runs first swapping from pair to pair.  `--pairs W:A-B` (or
`W:A,B,...`) gives workload W one pair per seed; `--trace W:S` adds one
`--trace 1` run per side on seed S, reported under `trace_seed_S`.  The
output file is rewritten after every pair and trace, so an interrupted
session keeps what it measured: per workload
and end-to-end metric the runs, medians, inclusive quartiles and the pairs
the change won (ties count for neither side), plus failed and attempted
calls and `src_lines` per side, and `src_lines_by_module`, each
`src/multiteam` module's lines counted as `bench/run.py` counts `src_lines`.
Metric names, units, directions and bounds come from BENCHMARK.json.

Each workload and metric gets a verdict (`verdict`): `better`, `no worse`,
`worse` or `unresolved` against the metric's bound, and a `--claim` is
`met` only by the rule in `claim_met`.  Only the standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(spec: str) -> tuple[str, list[int]]:
    workload, _, seeds = spec.partition(":")
    if "-" in seeds:
        first, last = map(int, seeds.split("-"))
        return workload, list(range(first, last + 1))
    return workload, [int(s) for s in seeds.split(",")]


def git(*cmd, cwd=ROOT) -> str:
    return subprocess.run(["git", *cmd], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def clone(commit: str, dest: Path) -> Path:
    """A local `git clone` of this repository in dest, checked out at commit."""
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    git("checkout", "--quiet", commit, cwd=dest)
    return dest


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run: its metadata line and result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode} "
                         f"without a result")
    return {"meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def module_lines(checkout: Path) -> dict:
    """Lines per `src/multiteam` module, by `splitlines()` as in `bench/run.py`."""
    return {p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((checkout / "src" / "multiteam").glob("*.py"))}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 5), round(q[2], 5)]


def claim_met(parent_runs: list[float], change_runs: list[float], higher: bool) -> bool:
    """A claimed gain holds when the change wins at least nine tenths of the
    pairs, ties counting for neither side, and its median beats the parent's
    by more than the distance between the parent's quartiles."""
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent_runs, change_runs))
    q1, q3 = quartiles(parent_runs)
    gap = statistics.median(change_runs) - statistics.median(parent_runs)
    return 10 * wins >= 9 * len(parent_runs) and (gap if higher else -gap) > q3 - q1


def verdict(parent_runs: list[float], change_runs: list[float], higher: bool,
            bound: float) -> str:
    """`better` when every change run beats every parent run or the claim
    rule holds; `worse` when the change's median is worse than the parent's
    by more than bound (a fraction of the parent's median); `unresolved` when
    the parent's own quartile spread, as that fraction, exceeds bound;
    otherwise `no worse`."""
    if higher:
        dominates = min(change_runs) > max(parent_runs)
    else:
        dominates = max(change_runs) < min(parent_runs)
    if dominates:
        return "better"
    parent, change = statistics.median(parent_runs), statistics.median(change_runs)
    if (parent - change if higher else change - parent) > bound * abs(parent):
        return "worse"
    q1, q3 = quartiles(parent_runs)
    if q3 - q1 > bound * abs(parent):
        return "unresolved"
    return "better" if claim_met(parent_runs, change_runs, higher) else "no worse"


def summarize(runs: dict, metrics: dict) -> dict:
    """BENCH layout for one workload's pairs; runs[side] lists results in
    pair order."""
    out = {"pairs": len(runs["change"]), "seeds": runs["seeds"][:len(runs["change"])],
           "failed": {s: sum(r["result"]["failed"] for r in runs[s]) for s in SIDES},
           "attempted": {s: sum(r["result"]["attempted"] for r in runs[s]) for s in SIDES},
           "metrics": {}}
    for name, spec in metrics.items():
        values = {s: [r["result"]["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        pairs = list(zip(values["parent"], values["change"]))
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        medians = {s: statistics.median(values[s]) for s in SIDES}
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent_median": round(medians["parent"], 5),
            "parent_quartiles": quartiles(values["parent"]),
            "change_median": round(medians["change"], 5),
            "change_quartiles": quartiles(values["change"]),
            "change_over_parent": (round(medians["change"] / medians["parent"], 4)
                                   if medians["parent"] else None),
            "change_wins_pairs": wins,
            "verdict": verdict(values["parent"], values["change"], higher, spec["bound"]),
            "parent_runs": [round(v, 5) for v in values["parent"]],
            "change_runs": [round(v, 5) for v in values["change"]],
        }
    return out


def add_trace(doc: dict, workload: str, trace: dict) -> None:
    """A traced pair under `trace_seed_<seed>`: per-layer values per side,
    and the metrics each side reports as null."""
    values = {s: {name: m["value"] for name, m in trace[s]["result"]["metrics"].items()}
              for s in SIDES if s in trace}
    section = doc.setdefault(f"trace_seed_{trace['seed']}", {"null_metrics": {}})
    section["null_metrics"][workload] = {
        s: sorted(n for n, v in values[s].items() if v is None) for s in values}
    section[workload] = {n: {s: values[s].get(n) for s in values}
                         for n in sorted(set().union(*values.values()))}


def report(args, state: dict, metrics: dict) -> dict:
    metas = [r["meta"] for runs in state["runs"].values() for s in SIDES for r in runs[s]]
    metas += [t[s]["meta"] for t in state["traces"].values() for s in SIDES if s in t]
    by_side = {s: [r["meta"] for runs in state["runs"].values() for r in runs[s]]
               for s in SIDES}
    doc = {
        "what": args.what,
        "command": (f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} "
                    f"--trace {{0,1}}, unmodified, run by scripts/bench_pairs.py"),
        "host": {"nproc": metas[0]["nproc"] if metas else None,
                 "python": metas[0]["python"] if metas else None},
        "src_lines": {s: by_side[s][0]["src_lines"] if by_side[s] else None for s in SIDES},
        "src_lines_by_module": state["modules"],
        "commits": {"parent": state["parent"], "change": "working tree of " + state["head"]},
        "method": ("alternating pairs, the side run first swapping each pair (the parent "
                   "first in the first pair); one seed per pair; quartiles inclusive"),
        "end_to_end": {w: summarize(runs, metrics)
                       for w, runs in state["runs"].items() if runs["change"]},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        got = doc["end_to_end"].get(workload, {}).get("metrics", {}).get(metric)
        if got:
            doc["claim"] = {
                "workload": workload, "metric": metric,
                "parent_median": got["parent_median"], "change_median": got["change_median"],
                "change_over_parent": got["change_over_parent"],
                "change_wins_pairs": f"{got['change_wins_pairs']} of "
                                     f"{doc['end_to_end'][workload]['pairs']}",
                "parent_iqr": got["parent_quartiles"],
                "met": claim_met(got["parent_runs"], got["change_runs"],
                                 got["better"] == "higher")}
    for workload, trace in state["traces"].items():
        add_trace(doc, workload, trace)
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--pairs", action="append", default=[], help="WORKLOAD:SEEDS")
    p.add_argument("--trace", action="append", default=[], help="WORKLOAD:SEED")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    p.add_argument("--what", default="", help="one line on what the change does")
    args = p.parse_args(argv)
    metrics = {m["name"]: m for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = clone(args.parent, Path(tmp) / "parent")
        checkouts = {"parent": parent_dir, "change": ROOT}
        state = {"parent": git("rev-parse", args.parent), "head": git("rev-parse", "HEAD"),
                 "runs": {}, "traces": {},
                 "modules": {s: module_lines(checkouts[s]) for s in SIDES}}
        for spec in args.pairs:
            workload, seeds = parse_seeds(spec)
            state["runs"][workload] = {"seeds": seeds, "parent": [], "change": []}
        pair = 0
        for workload, runs in state["runs"].items():
            for seed in runs["seeds"]:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    start = time.monotonic()
                    runs[side].append(run_bench(checkouts[side], workload, seed,
                                                args.seconds, 0))
                    ops = runs[side][-1]["result"]["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: ops_per_s {ops:.2f} "
                          f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
                pair += 1
                args.out.write_text(json.dumps(report(args, state, metrics), indent=2) + "\n",
                                    encoding="utf-8")
        for spec in args.trace:
            workload, (seed, *_) = parse_seeds(spec)
            trace = state["traces"][workload] = {"seed": seed}
            for side in SIDES:
                trace[side] = run_bench(checkouts[side], workload, seed, args.seconds, 1)
            args.out.write_text(json.dumps(report(args, state, metrics), indent=2) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
