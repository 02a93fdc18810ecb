"""Check that the tests catch a broken pruning rule, one mutant at a time.

    python3 scripts/mutants.py

Each mutant is a module of `src/multiteam`, an exact snippet of it, the
snippet's replacement, the rule the replacement breaks, and the test ids
expected to fail on it.  For each mutant the script copies `src` to a
temporary directory, replaces the snippet there, and runs the named tests
of this checkout with pytest, the copy first on the path, for at most
`TIMEOUT` seconds.  It prints one line per mutant:

- `killed`: the tests failed, or ran past the timeout;
- `survived`: the tests passed, so nothing checks the rule the mutant breaks;
- `stale`: the snippet no longer occurs exactly once in the module;
- `error`: pytest did not run the tests (a bad test id, say).

It exits 1 unless every mutant is killed.  It writes nothing in the
repository: pytest runs in the temporary directory, with its cache and
bytecode writing off.  Only the standard library is used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_TREES = "tests/test_semantics.py::test_vector_search_finds_the_reference_witness_trees"
UNPRUNED_TREES = "tests/test_semantics.py::test_pruned_search_finds_the_same_witness_trees"
TIMEOUT = 300  # seconds per mutant: a mutant that makes a search run away is killed


class Mutant(NamedTuple):
    name: str
    rule: str
    module: str  # a file of src/multiteam
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("rule-1-open-right-side", "rule 1: a lax split is exact only with a closed side",
           "semantics.py",
           "strict = strict or self._closed(f.left) or self._closed(f.right)",
           "strict = strict or self._closed(f.left) or not self._closed(f.right)",
           ("tests/test_semantics.py::test_split_with_overlap_needs_strict_multiplicities",
            "tests/test_semantics.py::test_a_lax_split_with_no_closed_side_runs_every_right_part")),
    Mutant("rule-2-open-body", "rule 2: a lax `E` is strict only over a closed body",
           "semantics.py",
           "partial(self._exists, f, space, ext, body, strict or self._closed(f.body),",
           "partial(self._exists, f, space, ext, body, strict or not self._closed(f.body),",
           ("tests/test_semantics.py::test_lax_supplements_still_give_a_copy_several_values",
            REFERENCE_TREES)),
    Mutant("rule-3-open-body", "rule 3: `<p>` tries the bound size alone only over a closed body",
           "semantics.py",
           "parts = _walk(counts, prune, needed) if closed else part_vectors(counts, needed)",
           "parts = _walk(counts, prune, needed)",
           ("tests/test_semantics.py::test_part_bodies_that_are_not_closed_keep_the_larger_parts",
            REFERENCE_TREES)),
    Mutant("rule-4-open-body", "rule 4: `[p]` is its body on t only over a closed body",
           "semantics.py",
           "if closed:  # t is the largest part, if any part meets the bound",
           "if True:  # t is the largest part, if any part meets the bound",
           (REFERENCE_TREES, UNPRUNED_TREES)),
    Mutant("rule-5-no-table-undo", "rule 5: backtracking frees the `dep` slots a row filled",
           "semantics.py",
           "for slot in filled[i]:\n                table[slot] = None",
           "for slot in filled[i][1:]:\n                table[slot] = None",
           ("tests/test_semantics.py::test_the_walk_keeps_exactly_the_vectors_its_conditions_hold_on",
            REFERENCE_TREES)),
    Mutant("rule-5-g3-one-short", "rule 5: the rows from i on add at most their g3",
           "semantics.py",
           "if g3 < room[i]:\n                room[i] = g3\n",
           "if g3 <= room[i]:\n                room[i] = g3 - 1\n",
           ("tests/test_semantics.py::test_the_walk_keeps_exactly_the_vectors_its_conditions_hold_on",
            "tests/test_semantics.py::test_encodings_find_the_reference_witness_trees")),
    Mutant("closed-form-room-one-short", "closed form: `<p> h` holds iff the room reaches the bound",
           "semantics.py",
           "_largest(prune, counts)[0] >= f.p.min_size(sum(counts))",
           "_largest(prune, counts)[0] - 1 >= f.p.min_size(sum(counts))",
           ("tests/test_semantics.py::test_g3_is_the_largest_part_the_body_holds_on",
            "tests/test_semantics.py::test_the_g3_closed_form_keeps_the_verdicts_and_witness_trees")),
    Mutant("rule-6-rz-from-high", "rule 6: Rz is the most copies the rows after the prefix give Z",
           "semantics.py",
           "rz += counts[j] - low[j]",
           "rz += counts[j] - high[j]",
           ("tests/test_semantics.py::test_the_bounded_walk_keeps_the_left_parts_every_prefix_bound_keeps",
            "tests/test_semantics.py::test_rule_6_keeps_the_witness_trees")),
    Mutant("rule-6-strict-inequality", "rule 6: a prefix is dropped only when the bound is missed",
           "semantics.py",
           "if after + slack[i] >= 0:",
           "if after + slack[i] > 0:",
           ("tests/test_semantics.py::test_the_bounded_walk_keeps_the_left_parts_every_prefix_bound_keeps",
            "tests/test_semantics.py::test_rule_6_keeps_the_witness_trees")),
    Mutant("lift-bound-variable", "the lift out of `E` takes only conjuncts free of bound variables",
           "semantics.py",
           "elif cls in _CONDITIONS and bound.isdisjoint(free_vars(g)):",
           "elif cls in _CONDITIONS:",
           ("tests/test_semantics.py::test_conditions_no_supplement_changes_are_tested_on_the_team",
            REFERENCE_TREES)),
    Mutant("sort-literal-row-kept", "the node sort bars every row a literal conjunct fails on",
           "semantics.py",
           "failing.update(self._failing(g, space))",
           "failing.update(self._failing(g, space)[1:])",
           ("tests/test_semantics.py::test_the_walk_keeps_exactly_the_vectors_its_conditions_hold_on",
            REFERENCE_TREES)),
    Mutant("dep-numbering-without-ys", "a `dep` numbers one value per (xs-value, ys-value) pair",
           "atoms.py",
           "value.setdefault((a, b), len(value))",
           "value.setdefault(a, len(value))",
           ("tests/test_atoms.py::test_dep_over_its_numbering_is_dep_over_its_projection",
            REFERENCE_TREES)),
    Mutant("multi-projection-no-sum", "locality: a merged row counts the sum of the rows it merges",
           "model.py",
           "table[key] = table.get(key, 0) + m\n        return table",
           "table[key] = m\n        return table",
           ("tests/test_semantics.py::test_a_multiteam_restriction_counts_the_rows_it_merges",
            "tests/test_semantics.py::test_the_projected_search_keeps_the_search_pool_verdicts")),
    Mutant("split-reader-quoted-text", "the split reader leaves a text with a quote to csv",
           "io.py",
           "_CSV_ONLY = '\"\\0' + ",
           "_CSV_ONLY = '\\0' + ",
           ("tests/test_io.py::test_dumps_that_would_not_load_back_are_refused",
            "tests/test_io.py::test_only_text_the_split_cannot_read_reaches_csv")),
)


def occurrences(mutant: Mutant, src: Path = ROOT / "src") -> int:
    """How often the mutant's snippet occurs in its module under src."""
    return (src / "multiteam" / mutant.module).read_text(encoding="utf-8").count(mutant.snippet)


def run(mutant: Mutant) -> str:
    """The mutant's outcome: killed, survived, stale or error."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if occurrences(mutant, src) != 1:
            return "stale"
        target = src / "multiteam" / mutant.module
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *[str(ROOT / t) for t in mutant.tests]]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed"
    # pytest exits 1 when a test failed, 0 when all passed, otherwise it ran none
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main() -> int:
    outcomes = []
    for m in MUTANTS:
        start = time.perf_counter()
        outcome = run(m)
        outcomes.append(outcome)
        print(f"{outcome:8} {m.name} ({time.perf_counter() - start:.1f} s): {m.rule}", flush=True)
    print(f"{outcomes.count('killed')} of {len(outcomes)} mutants killed")
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
