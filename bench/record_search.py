"""Record the expected verdicts of the `search` workload's instance pool.

Run from the repository root:

    python3 bench/record_search.py

Every pool instance is checked in each mode it applies to three ways: with
the memo cache on, with it off, and through `witness`.  All three must
agree, or nothing is written.  The verdicts are then the reference that
later versions of the checker must reproduce.
"""

import json
import sys
import time

import logic
import workloads
from worker import import_program

MODE_CHARS = {True: "T", False: "F"}


def main() -> int:
    mt = import_program()
    sem = mt.semantics
    entries = []
    start = time.monotonic()
    for i in range(workloads.POOL_SIZE):
        structure_text, team_text, f, flat, bound = workloads.search_instance(i)
        structure = mt.io.load_structure(structure_text)
        team = mt.io.load_multiteam(team_text)
        formula = mt.parser.parse(logic.render(f))
        entry = str(len(str(bound)) - 1)
        for mode in workloads.MODES:
            if mode not in workloads.search_modes(flat):
                entry += "-"
                continue
            cfg = workloads.config(mt, mode)
            cached = sem.evaluate(structure, team, formula, cfg)
            plain = sem.evaluate(structure, team, formula, cfg, use_cache=False)
            traced = sem.witness(structure, team, formula, cfg).holds
            if not cached == plain == traced:
                print(f"instance {i} mode {mode}: cache on {cached}, off {plain}, "
                      f"witness {traced}", file=sys.stderr)
                return 1
            entry += MODE_CHARS[cached]
        entries.append(entry)
    record = {
        "pool_seed": workloads.POOL_SEED,
        "cost_cap": workloads.COST_CAP,
        "texts_sha256": workloads.pool_digest(),
        "instances": entries,
    }
    workloads.VERDICTS.write_text(json.dumps(record, indent=0) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} instances in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
