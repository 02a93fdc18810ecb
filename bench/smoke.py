"""Smoke test of the benchmark itself, about two minutes.

    python3 bench/smoke.py

Checks that:

- a short run of each workload prints every end-to-end metric of
  BENCHMARK.json with its unit, and no call fails;
- a deliberately flipped expected answer is counted as failed and lowers
  ok_frac;
- two traced runs of each workload print every per-layer metric with its
  unit (or mark it absent) and give identical counts;
- the `search` pool still hashes to the digest recorded with its verdicts;
- in a directory holding only BENCHMARK.json and the benchmark, a run exits
  with an error and prints no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import worker
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = run.ROOT, seconds: str = "1.5"):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list, workload: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], (workload, spec["name"], metric)
        value = metric["value"]
        assert value is None or isinstance(value, (int, float)), (workload, spec["name"])
    assert set(result["metrics"]) == {spec["name"] for spec in wanted}, workload


def flipped_answer_fails() -> None:
    mt = worker.import_program()
    ops = workloads.build("encodings", mt, 7, None)
    first = worker.WARMUP["encodings"]
    honest = ops[first].check
    ops[first] = workloads.Op(ops[first].kind, ops[first].run, lambda got: not honest(got))
    part = worker.end_to_end("encodings", ops, 0.2, [worker.calibration_ns()])
    assert part["failed"] == 1, part["failed_by_kind"]
    assert part["failed_by_kind"] == {ops[first].kind: 1}, part["failed_by_kind"]
    summary = run.summarize([part])
    assert summary["metrics"]["ok_frac"]["value"] < 1


def bare_directory_fails() -> None:
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = bench("encodings", 0, cwd=Path(tmp))
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout


def main() -> int:
    recorded = json.loads(workloads.VERDICTS.read_text(encoding="utf-8"))
    assert workloads.pool_digest() == recorded["texts_sha256"], "search pool changed"
    flipped_answer_fails()
    bare_directory_fails()
    for workload in run.WORKLOADS:
        check_metrics(result_of(bench(workload, 0)), SPEC["end_to_end"], workload)
        first, second = (result_of(bench(workload, 1)) for _ in range(2))
        for result in (first, second):
            check_metrics(result, SPEC["per_layer"], workload)
        counts = {name for name, m in first["metrics"].items() if m["unit"] == "count"}
        differ = sorted(name for name in counts
                        if first["metrics"][name] != second["metrics"][name])
        assert not differ, f"{workload}: traced counts differ: {differ}"
        print(f"{workload}: ok")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
