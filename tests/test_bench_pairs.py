"""The verdicts `scripts/bench_pairs.py` writes into a BENCH file, on
synthetic runs: a claim by the nine-tenths-and-quartiles rule, every other
metric against its bound."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# median 32.25, inclusive quartiles 31.125 and 33.375
PARENT = [30.0, 31.0, 32.0, 33.0, 34.0, 30.5, 31.5, 32.5, 33.5, 34.5]


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_quartiles():
    lower = [p - 8 for p in PARENT]
    assert bench_pairs.claim_met(PARENT, lower, higher=False)
    assert not bench_pairs.claim_met(PARENT, lower, higher=True)
    # one pair lost or tied still meets nine tenths; two do not
    lost, tied = PARENT[0] + 1, PARENT[0]
    assert bench_pairs.claim_met(PARENT, [lost] + lower[1:], higher=False)
    assert bench_pairs.claim_met(PARENT, [tied] + lower[1:], higher=False)
    assert not bench_pairs.claim_met(PARENT, [lost, PARENT[1] + 1] + lower[2:], higher=False)
    assert not bench_pairs.claim_met(PARENT, [tied, PARENT[1]] + lower[2:], higher=False)
    # every pair won, but the median gap (2.0) is within the parent's
    # quartile spread (2.25)
    assert not bench_pairs.claim_met(PARENT, [p - 2 for p in PARENT], higher=False)
    assert bench_pairs.claim_met(PARENT, [p + 3 for p in PARENT], higher=True)


def test_each_other_metric_is_judged_against_its_bound():
    verdict = bench_pairs.verdict
    # 20% worse in the median, past a 10% bound, either direction
    assert verdict(PARENT, [p * 1.2 for p in PARENT], False, 0.1) == "worse"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], True, 0.1) == "worse"
    # 2% worse, inside the bound and the parent's spread is too
    assert verdict(PARENT, [p * 1.02 for p in PARENT], False, 0.1) == "no worse"
    # the parent's quartile spread (2.25, about 7% of 32.25) exceeds a 5%
    # bound, so a 2% change cannot be told from noise
    assert verdict(PARENT, [p * 1.02 for p in PARENT], False, 0.05) == "unresolved"
    assert verdict(PARENT, [p * 0.98 for p in PARENT], False, 0.05) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(PARENT, [29.0] * 10, False, 0.05) == "better"
    assert verdict(PARENT, [35.0] * 10, True, 0.05) == "better"
    # a gain by the claim rule is better too, with the runs overlapping
    assert verdict(PARENT, [p - 3 for p in PARENT], False, 0.5) == "better"
    # identical runs
    assert verdict([1.0] * 5, [1.0] * 5, True, 0.01) == "no worse"


def test_the_report_holds_a_verdict_per_metric():
    metrics = {"op_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.24},
               "ok_frac": {"unit": "frac", "better": "higher", "bound": 0.01}}

    def result(p99):
        return {"result": {"failed": 0, "attempted": 100, "metrics": {
            "op_p99_ms": {"value": p99}, "ok_frac": {"value": 1.0}}}}

    runs = {"seeds": list(range(10)), "parent": [result(p) for p in PARENT],
            "change": [result(p * 0.75) for p in PARENT]}
    out = bench_pairs.summarize(runs, metrics)["metrics"]
    assert out["op_p99_ms"]["verdict"] == "better"
    assert out["ok_frac"]["verdict"] == "no worse"
