"""Check that a change computes what a parent commit computes, byte for byte.

    python3 scripts/same_results.py --parent COMMIT

The parent side is a local `git clone` of COMMIT, made as
`scripts/bench_pairs.py` makes it; the change side is the checkout this
script lives in, as its files stand.  Each side runs in its own subprocess
with its own `src` and `bench` first on the path, and hashes seven groups:

- search: the witness tree (its `repr`) of every instance of the `search`
  pool (`bench/workloads.search_instance`) in every mode that applies, with
  the memo cache on and off;
- evaluate: the `evaluate` verdict of every instance of the pool, in every
  mode that applies, cache on and off (in the multi modes, and in set lax
  mode for a formula that counts no rows, `evaluate` searches the team
  restricted to the formula's free variables, `witness` the team's own rows);
- files: the `evaluate` verdict of every `files` template
  (`bench/workloads.TEMPLATES`) on the wide teams that workload draws for
  seed 0, in every mode that applies, cache on and off: the teams with
  unread columns, where that restriction merges rows;
- load: what `io.load_multiteam` makes of each `files` CSV drawn for seed
  0 and of single-line mutations of it (a ragged row, a non-integer count,
  a negative count, padded fields, a blank line, a value outside the
  alphabet, a quoted field, a line ending in a carriage return, a field
  padded with U+00A0, a count `1_0`, an empty field): the team's `repr` and
  row order, or the error's type and text.  The unchanged CSVs and the
  mutations with no quote, carriage return or padding are read by the split
  of `io`, the others by `csv`, so the group covers both ways of reading;
- encodings: the witness trees and the `evaluate` verdicts of seeded 3SAT
  and MAX-2SAT encodings in multi lax and strict, cache on and off, among
  them MAX-2SAT encodings of 6-8 clauses one short of satisfiable at every
  k/m (those whose split rule 6 of `semantics` bounds); `evaluate` decides
  their `<k/m>` by its g3 closed form, where `witness` walks its parts;
- props: `multiteam props SUITE --seed 0` stdout and exit code, each suite;
- gen: the files and exit code of `multiteam gen` on seeded CNFs.

It prints one SHA-256 per group and side and exits 1 naming every group
whose digests differ, else 0.  Only the standard library is used.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("search", "evaluate", "files", "load", "encodings", "props", "gen")


def _runs(digest, label: str, structure, team, formula, modes, check="witness") -> None:
    """Hash what `semantics.<check>` returns in each mode, cache on and off."""
    from multiteam import semantics
    check = getattr(semantics, check)
    for mode in modes:
        cfg = semantics.SemanticsConfig(*mode.split("_"))
        for use_cache in (True, False):
            got = check(structure, team, formula, cfg, use_cache=use_cache)
            digest.update(f"{label} {mode} {use_cache} {got!r}\n".encode())


def _pool_digest(indices, check: str) -> str:
    import logic
    import workloads
    from multiteam import io as mio, parser
    digest = hashlib.sha256()
    for i in indices:
        structure, team, f, flat, _ = workloads.search_instance(i)
        _runs(digest, str(i), mio.load_structure(structure), mio.load_multiteam(team),
              parser.parse(logic.render(f)), workloads.search_modes(flat), check)
    return digest.hexdigest()


def search_digest(indices) -> str:
    """The witness trees of the given `search` pool instances."""
    return _pool_digest(indices, "witness")


def evaluate_digest(indices) -> str:
    """The `evaluate` verdicts of the given `search` pool instances."""
    return _pool_digest(indices, "evaluate")


def _file_teams(count: int):
    """(n, counted, rows, f1) of the first count wide teams the `files`
    workload draws for seed 0, in the same order."""
    import workloads
    rng = random.Random(0)
    for n, kind in enumerate((workloads.FILE_KINDS * 2)[:count]):
        counted = n >= len(workloads.FILE_KINDS)
        yield (n, counted, *workloads._wide_team(rng, kind, counted))


def files_digest(count: int = 8) -> str:
    """The `evaluate` verdicts of the `files` templates on the first count
    wide teams the `files` workload draws for seed 0, in the same order."""
    import logic
    import workloads
    from multiteam import io as mio, parser
    formulas = [parser.parse(logic.render(t)) for t in workloads.TEMPLATES]
    digest = hashlib.sha256()
    for n, counted, rows, f1 in _file_teams(count):
        structure = mio.load_structure(workloads._structure_text(f1))
        team = mio.load_multiteam(workloads._csv(rows, counted))
        for t, f in enumerate(formulas):
            _runs(digest, f"{n} {t}", structure, team, f,
                  workloads.search_modes(not counted), "evaluate")
    return digest.hexdigest()


#: single-line changes to a CSV, each from the fields of one data line
MUTATIONS = (
    lambda f: ",".join(f[:-1]),  # a field dropped
    lambda f: ",".join(f[:-1] + ["two"]),  # a count that is not an integer
    lambda f: ",".join(f[:-1] + ["-1"]),  # a negative count
    lambda f: ",".join(f" {v}\t" for v in f),  # every field padded
    lambda f: "\n" + ",".join(f),  # a blank line before it
    lambda f: ",".join(["v*0"] + f[1:]),  # a value outside the alphabet
    lambda f: ",".join([f'"{f[0]}"'] + f[1:]),  # a quoted field
    lambda f: ",".join(f) + "\r",  # a line ending in a carriage return
    lambda f: ",".join(f[:-1] + [f"\u00a0{f[-1]}\u00a0"]),  # a field padded with U+00A0
    lambda f: ",".join(f[:-1] + ["1_0"]),  # a count (or value) 1_0
    lambda f: ",".join(f[:1] + [""] + f[2:]),  # an empty field
)


def load_digest(count: int = 8) -> str:
    """What `io.load_multiteam` makes of the first count `files` CSVs for
    seed 0 and of each of their MUTATIONS: the team's `repr` and row order,
    or the error's type and text."""
    import workloads
    from multiteam import io as mio
    from multiteam.errors import InputError, ParseError
    digest = hashlib.sha256()
    for n, counted, rows, _ in _file_teams(count):
        lines = workloads._csv(rows, counted).splitlines()
        texts = [lines]
        for m, mutate in enumerate(MUTATIONS, 1):
            i = len(lines) * m // (len(MUTATIONS) + 1)
            texts.append(lines[:i] + [mutate(lines[i].split(","))] + lines[i + 1:])
        for m, text in enumerate(texts):
            try:
                team = mio.load_multiteam("\n".join(text) + "\n")
                got = f"{team!r} {list(team._rows)}"
            except (InputError, ParseError) as exc:
                got = f"{type(exc).__name__} {exc}"
            digest.update(f"{n} {m} {got}\n".encode())
    return digest.hexdigest()


def _clauses(rng: random.Random, top: int, count: int, width: int) -> list:
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, top + 1), width)]
            for _ in range(count)]


def encodings_digest(count: int = 24) -> str:
    """The witness trees and `evaluate` verdicts of count 3SAT and count / 4
    MAX-2SAT encodings, the latter at every threshold k/5, and of one
    MAX-2SAT encoding per clause count m of 6-8 whose optimum is m - 1, at
    every k/m."""
    import logic
    import workloads
    from multiteam import reductions
    multi = workloads.search_modes(False)
    rng = random.Random(0)
    digest = hashlib.sha256()

    def both(label: str, inst) -> None:
        for check in ("witness", "evaluate"):
            _runs(digest, label, inst.structure, inst.team, inst.formula, multi, check)

    for n in range(count):
        inst = reductions.encode_3sat(reductions.parse_dimacs(
            logic.dimacs(_clauses(rng, 4, 4, 3))))
        both(f"3sat {n}", inst)
    for n in range(count // 4):
        phi = reductions.parse_dimacs(logic.dimacs(_clauses(rng, 4, 5, 2)))
        for k in range(6):
            inst = reductions.encode_maxsat(phi, Fraction(k, 5))
            both(f"max2sat {n} {k}/5", inst)
    for m in (6, 7, 8):
        clauses = _clauses(rng, 3, m, 2)
        while logic.maxsat(clauses) != m - 1:
            clauses = _clauses(rng, 3, m, 2)
        phi = reductions.parse_dimacs(logic.dimacs(clauses))
        for k in range(m + 1):
            inst = reductions.encode_maxsat(phi, Fraction(k, m))
            both(f"max2sat {m} {k}/{m}", inst)
    return digest.hexdigest()


def _main(argv: list) -> tuple[int, str]:
    from multiteam import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def props_digest() -> str:
    from multiteam.suites import SUITES
    digest = hashlib.sha256()
    for suite in sorted(SUITES):
        code, out = _main(["props", suite, "--seed", "0"])
        digest.update(f"{suite} {code}\n{out}\0".encode())
    return digest.hexdigest()


def gen_digest() -> str:
    import logic
    rng = random.Random(0)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="same-results-gen-") as tmp:
        for n in range(4):
            for kind, width, extra in (("3sat", 3, []), ("max2sat", 2, ["--frac", "3/5"])):
                cnf, out = Path(tmp) / f"{kind}{n}.cnf", Path(tmp) / f"{kind}{n}"
                cnf.write_text(logic.dimacs(_clauses(rng, 5, 5, width)), encoding="utf-8")
                code, _ = _main(["gen", kind, str(cnf), "--out", str(out)] + extra)
                digest.update(f"{kind} {n} {code}\n".encode())
                for path in sorted(out.iterdir()):
                    digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def digests(root: Path) -> dict:
    """Every group's digest, computed with root's `src` and `bench`."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from multiteam import semantics
    here = Path(semantics.__file__).resolve()
    if not here.is_relative_to(root.resolve()):
        raise SystemExit(f"imported multiteam from {here}, outside {root}")
    pool = range(workloads.POOL_SIZE)
    return {"search": search_digest(pool), "evaluate": evaluate_digest(pool),
            "files": files_digest(), "load": load_digest(), "encodings": encodings_digest(),
            "props": props_digest(), "gen": gen_digest()}


def side(root: Path) -> dict:
    """The digests of one checkout, computed in a subprocess of its own."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--side", str(root)],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"the digests of {root} exited {done.returncode}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="commit to compare against")
    p.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.side:
        print(json.dumps(digests(args.side)))
        return 0
    if not args.parent:
        p.error("--parent is required")
    from bench_pairs import clone
    with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
        got = {"parent": side(clone(args.parent, Path(tmp) / "parent")), "change": side(ROOT)}
    differ = [g for g in GROUPS if got["parent"][g] != got["change"][g]]
    for g in GROUPS:
        mark = "DIFFERS" if g in differ else "same"
        print(f"{g}: {mark}  parent {got['parent'][g]}  change {got['change'][g]}")
    if differ:
        print(f"results differ from {args.parent}: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
