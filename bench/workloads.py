"""Seeded inputs and checked operations for the three benchmark workloads.

`build(name, mt, seed, work_dir, part, parts)` returns the operations one
worker of a workload runs.  An operation is one call into `multiteam` (`run`) and a test of its result
(`check`); the same seed gives the same list.  Every call looks its target up
on the module at call time, so the tracer's rebinding sees it.

Why these workloads:

- encodings: the paper's 3SAT / MAX-2SAT hardness encodings.  Nearly all
  the work is the bounded-subteam enumeration, `dep` on small teams and one
  `Multiteam` per candidate; no parsing, no I/O, no supplements.  Expected
  answers come from the brute-force oracles in `logic`.
- search: random formulas over the whole logic on small multiteams, in every
  mode, some also through `witness`.  The only workload that drives the
  supplement and universal-extension enumerators and the witness path.  Its
  skewed cost separates per-call overhead (p50) from enumeration blow-ups
  (p99).  Expected answers are the verdicts recorded in
  `search_verdicts.json`.
- files: `multiteam.cli.main` on text inputs: split-free checks on wide CSV
  multiteams, `gen` writes and unusable inputs that must exit 2.  Loads the
  I/O, parser, CLI and atom-on-many-rows layers and leaves the enumerators
  idle.  Expected answers come from the reference evaluator in `logic`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import logic

HERE = Path(__file__).resolve().parent
VERDICTS = HERE / "search_verdicts.json"
MODES = ("set_lax", "set_strict", "multi_lax", "multi_strict")


class Op:
    """One call into the program and the test of its result."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _equals(expected):
    return lambda got: got == expected


def config(mt, mode: str):
    team_kind, strictness = mode.split("_")
    return mt.semantics.SemanticsConfig(team_kind=team_kind, strictness=strictness)


def _evaluate_op(kind, mt, structure, team, formula, cfg, expected) -> Op:
    sem = mt.semantics
    return Op(kind, lambda: sem.evaluate(structure, team, formula, cfg), _equals(expected))


def _witness_op(kind, mt, structure, team, formula, cfg, expected) -> Op:
    sem = mt.semantics
    return Op(kind, lambda: sem.witness(structure, team, formula, cfg).holds, _equals(expected))


# --- encodings ----------------------------------------------------------------

ENC_BLOCKS = 80


def _clause(rng, variables, width):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(variables, width)]


def _encodings(mt, seed, _work_dir):
    """Blocks of four 3SAT formulas (4 clauses over at most 4 variables) and
    one MAX-2SAT formula (5 clauses) at every threshold k/5, each checked in
    multi/lax and multi/strict.  MAX-2SAT formulas alternate between optimum
    5 and 4, so every pair of blocks holds the same share of false verdicts.
    Per block, 3SAT (about 10 ms a check) is 8 calls of 20 and strict
    MAX-2SAT (about 12 ms) the next 6, so the median lies inside the strict
    MAX-2SAT class and the slowest percent inside lax MAX-2SAT."""
    rng = random.Random(seed)
    red = mt.reductions
    modes = [config(mt, "multi_lax"), config(mt, "multi_strict")]
    ops = []
    for b in range(ENC_BLOCKS):
        block = []
        for _ in range(4):
            clauses = [_clause(rng, [1, 2, 3, 4], 3) for _ in range(4)]
            inst = red.encode_3sat(red.parse_dimacs(logic.dimacs(clauses)))
            want = logic.sat(clauses)
            block += [_evaluate_op("3sat", mt, inst.structure, inst.team, inst.formula, cfg, want)
                      for cfg in modes]
        best = 5 - b % 2
        while True:
            variables = list(range(1, rng.choice((3, 4)) + 1))
            clauses = [_clause(rng, variables, 2) for _ in range(5)]
            if logic.maxsat(clauses) == best:
                break
        phi = red.parse_dimacs(logic.dimacs(clauses))
        for k in range(6):
            inst = red.encode_maxsat(phi, Fraction(k, 5))
            block += [_evaluate_op("max2sat", mt, inst.structure, inst.team, inst.formula,
                                   cfg, best >= k) for cfg in modes]
        rng.shuffle(block)
        ops += block
    return ops


# --- search -------------------------------------------------------------------

POOL_SEED = 151009040
POOL_SIZE = 12000
COST_CAP = 10_000  # structural rule: logic.cost_bound above this is a runaway
WITNESS_EVERY = 8  # one instance in 8 is also run through witness
THRESHOLDS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
LEAVES = ("eq", "neq", "rel", "nrel") + logic.ATOMS
BRANCHES = ("and", "or", "E", "A", "efrac", "afrac", "ifrac")


def _group(rng, scope, lo=0):
    return tuple(rng.choice(scope) for _ in range(rng.randint(lo, 2)))


def _leaf(rng, scope):
    kind = rng.choice(LEAVES)
    if kind in ("eq", "neq"):
        return (kind, rng.choice(scope), rng.choice(scope))
    if kind in ("rel", "nrel"):
        name, arity = rng.choice((("R", 1), ("S", 2)))
        return (kind, name, tuple(rng.choice(scope) for _ in range(arity)))
    if kind == "dep":
        return (kind, _group(rng, scope), _group(rng, scope))
    if kind in ("ind", "pind"):
        return (kind, _group(rng, scope), _group(rng, scope), _group(rng, scope))
    xs = _group(rng, scope, lo=1)
    return (kind, xs, tuple(rng.choice(scope) for _ in xs))


def _formula(rng, scope, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng, scope)
    op = rng.choice(BRANCHES)
    if op in ("and", "or"):
        return (op, _formula(rng, scope, depth - 1), _formula(rng, scope, depth - 1))
    if op in ("E", "A"):
        if rng.random() < 0.25:
            var = rng.choice(scope)
        else:
            var = next(v for v in ("u", "v", "w") if v not in scope)
        inner = scope if var in scope else scope + (var,)
        return (op, var, _formula(rng, inner, depth - 1))
    p = rng.choice(THRESHOLDS)
    if op == "ifrac":
        return (op, p, _formula(rng, scope, depth - 1), _formula(rng, scope, depth - 1))
    return (op, p, _formula(rng, scope, depth - 1))


def search_instance(index: int):
    """Pool instance `index`: structure text, team CSV text, formula term,
    whether the team is flat, and the formula's cost bound.  Redrawn until it
    passes the structural rule: 3-6 distinct rows, multiplicity at most 3, a
    flat domain of 2-3 values, formula depth at most 3, and a worst-case cost
    bound (`logic.cost_bound`) within COST_CAP in both lax and strict mode."""
    rng = random.Random(f"{POOL_SEED}:{index}")
    while True:
        dom = [str(i) for i in range(rng.choice((2, 3)))]
        rows = rng.randint(3, 6)
        width = rng.choice((1, 2, 3))
        while len(dom) ** width < rows:
            width += 1
        variables = ("x", "y", "z")[:width]
        keys = rng.sample(list(itertools.product(dom, repeat=width)), rows)
        flat = rng.random() < 0.5
        mults = [1] * rows if flat else [rng.randint(1, 3) for _ in keys]
        unary = [v for v in dom if rng.random() < 0.5]
        binary = [p for p in itertools.product(dom, repeat=2) if rng.random() < 0.5]
        f = _formula(rng, variables, 3)
        bound = max(logic.cost_bound(f, rows, max(mults), len(dom), strict)
                    for strict in (False, True))
        if bound <= COST_CAP:
            break
    structure = (f"domain: {' '.join(dom)}\n"
                 f"rel R/1:{''.join(f' ({v})' for v in unary)}\n"
                 f"rel S/2:{''.join(f' ({a},{b})' for a, b in binary)}\n")
    team = ",".join(variables) + ",#count\n"
    team += "".join(",".join(k) + f",{m}\n" for k, m in zip(keys, mults))
    return structure, team, f, all(m == 1 for m in mults), bound


def pool_digest() -> str:
    """SHA-256 over the text of every pool instance, recorded with the
    verdicts so that a change to the generator shows."""
    digest = hashlib.sha256()
    for i in range(POOL_SIZE):
        structure, team, f, _, _ = search_instance(i)
        digest.update(f"{structure}\0{team}\0{logic.render(f)}\n".encode())
    return digest.hexdigest()


def search_modes(flat: bool):
    return MODES if flat else MODES[2:]


def load_verdicts() -> list[str]:
    """Recorded pool entries, one per instance: the decade of its cost bound,
    then a character per mode in MODES order: T, F, or - where the mode does
    not apply."""
    return json.loads(VERDICTS.read_text(encoding="utf-8"))["instances"]


def _search(mt, seed, _work_dir, part, parts):
    """This worker's share of the whole recorded pool.  The seed orders each
    stratum (instances with the same decade of cost bound), deals it round
    robin to the workers and picks the eighth of each stratum that also goes
    through witness; so every seed and every worker runs the same mix of
    cheap and costly instances."""
    recorded = load_verdicts()
    rng = random.Random(seed)
    strata: dict = {}
    for i, entry in enumerate(recorded):
        strata.setdefault(entry[0], []).append(i)
    mine = []
    for key in sorted(strata):
        members = strata[key]
        rng.shuffle(members)
        mine += [(i, rank // parts % WITNESS_EVERY == 0)
                 for rank, i in enumerate(members) if rank % parts == part]
    rng.shuffle(mine)
    configs = {mode: config(mt, mode) for mode in MODES}
    ops = []
    for i, with_witness in mine:
        structure_text, team_text, f, flat, _ = search_instance(i)
        structure = mt.io.load_structure(structure_text)
        team = mt.io.load_multiteam(team_text)
        formula = mt.parser.parse(logic.render(f))
        for mode in search_modes(flat):
            want = recorded[i][1 + MODES.index(mode)] == "T"
            cfg = configs[mode]
            ops.append(_evaluate_op(mode, mt, structure, team, formula, cfg, want))
            if with_witness:
                ops.append(_witness_op("witness", mt, structure, team, formula, cfg, want))
    return ops


# --- files --------------------------------------------------------------------

DOM = tuple(f"v{i}" for i in range(8))
LOW, HIGH = DOM[:4], DOM[4:]
COLUMNS = ("a", "b", "c", "d", "e")
FILE_KINDS = ("product", "product", "sampled", "sampled")
TEMPLATES = (
    ("dep", ("a",), ("b",)),
    ("dep", ("a",), ("c",)),
    ("dep", ("a", "c"), ("d",)),
    ("inc", ("b",), ("a",)),
    ("excl", ("b",), ("e",)),
    ("ind", ("a",), ("c",), ("e",)),
    ("pinc", ("a",), ("c",)),
    ("pind", ("a",), ("c",), ("e",)),
    ("and", ("dep", ("a",), ("b",)), ("inc", ("d",), ("a",))),
    ("and", ("rel", "S", ("a", "b")), ("nrel", "R", ("e",))),
    ("and", ("neq", "a", "b"), ("rel", "R", ("b",))),
    ("A", "u", ("dep", ("a", "u"), ("b",))),
    ("A", "u", ("and", ("inc", ("u",), ("c",)), ("excl", ("u",), ("b",)))),
)


def _csv(rows: dict, counted: bool) -> str:
    head = ",".join(COLUMNS) + (",#count" if counted else "")
    body = "".join(",".join(k) + (f",{m}" if counted else "") + "\n" for k, m in rows.items())
    return head + "\n" + body


def _wide_team(rng, kind: str, counted: bool) -> tuple[dict, dict]:
    """About 1k distinct rows over five columns and 8 values, with b a
    function of a drawn into the upper half of the domain.  A "product" team
    holds every (a, c, e) combination twice over d in {v0, v1}; a "sampled"
    team holds 1000 random rows with e in the lower half."""
    f1 = {a: rng.choice(HIGH) for a in DOM}
    if kind == "product":
        keys = [(a, f1[a], c, d, e) for a in DOM for c in DOM for d in DOM[:2] for e in DOM]
    else:
        seen: dict = {}
        while len(seen) < 1000:
            a = rng.choice(DOM)
            seen[(a, f1[a], rng.choice(DOM), rng.choice(DOM), rng.choice(LOW))] = None
        keys = list(seen)
    rows = {k: (rng.randint(1, 3) if counted else 1) for k in keys}
    return rows, f1


def _structure_text(f1: dict) -> str:
    return (f"domain: {' '.join(DOM)}\n"
            f"rel R/1:{''.join(f' ({v})' for v in HIGH)}\n"
            f"rel S/2:{''.join(f' ({a},{b})' for a, b in f1.items())}\n")


def _cli_op(kind, mt, argv, expect_code, verify=None) -> Op:
    cli = mt.cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != expect_code:
            return False
        if kind == "check":
            return text.rstrip().endswith("true" if code == 0 else "false")
        return verify() if verify else True

    return Op(kind, run, check)


def _gen_written(out: Path, literals: int):
    def verify():
        team = (out / "team.csv").read_text(encoding="utf-8").splitlines()
        formula = (out / "formula.txt").read_text(encoding="utf-8").strip()
        structure = (out / "structure.txt").read_text(encoding="utf-8")
        return len(team) == 1 + literals and bool(formula) and structure.startswith("domain:")
    return verify


def _files(mt, seed, work_dir: Path):
    """One pass is every (team file, template) check, 16 gen calls and 8
    unusable inputs, in seeded order: 128 calls, 104 of them checks."""
    rng = random.Random(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    teams = []
    for n, kind in enumerate(FILE_KINDS * 2):
        counted = n >= len(FILE_KINDS)
        rows, f1 = _wide_team(rng, kind, counted)
        csv_path, st_path = work_dir / f"team{n}.csv", work_dir / f"structure{n}.txt"
        csv_path.write_text(_csv(rows, counted), encoding="utf-8")
        st_path.write_text(_structure_text(f1), encoding="utf-8")
        teams.append((csv_path, st_path))
        relations = {"R": {(v,) for v in HIGH}, "S": set(f1.items())}
        for t, template in enumerate(TEMPLATES):
            mode = ("multi_lax", "multi_strict")[t % 2] if counted else ("set_lax", "multi_lax")[t % 2]
            want = logic.ref_holds(template, COLUMNS, rows, DOM, relations, mode.startswith("set"))
            team_kind, strictness = mode.split("_")
            argv = ["check", str(st_path), logic.render(template), "--team", str(csv_path),
                    "--team-kind", team_kind, "--strictness", strictness]
            ops.append(_cli_op("check", mt, argv, 0 if want else 1))
    for g in range(16):
        width, count = (3, 4) if g % 2 == 0 else (2, 5)
        clauses = [_clause(rng, [1, 2, 3, 4], width) for _ in range(count)]
        cnf = work_dir / f"cnf{g}.cnf"
        cnf.write_text(logic.dimacs(clauses), encoding="utf-8")
        out = work_dir / f"gen{g}"
        argv = ["gen", "3sat" if width == 3 else "max2sat", str(cnf), "--out", str(out)]
        if width == 2:
            argv += ["--frac", f"{rng.randint(0, count)}/{count}"]
        ops.append(_cli_op("gen", mt, argv, 0, _gen_written(out, width * count)))
    ops += _unusable(mt, work_dir, teams)
    rng.shuffle(ops)
    return ops


def _unusable(mt, work_dir: Path, teams) -> list[Op]:
    """Inputs outside the CLI's contract, each of which must exit 2."""
    csv_path, st_path = teams[0]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    middle = len(lines) // 2
    ragged = work_dir / "ragged.csv"
    ragged.write_text("\n".join(lines[:middle] + [lines[middle].rsplit(",", 1)[0]]
                                + lines[middle + 1:]) + "\n", encoding="utf-8")
    outside = work_dir / "outside.csv"
    outside.write_text("\n".join(lines[:middle] + ["zz" + lines[middle][2:]]
                                 + lines[middle + 1:]) + "\n", encoding="utf-8")
    bad_cnf = work_dir / "bad.cnf"
    bad_cnf.write_text("p cnf 3 2\n1 -2 x 0\n", encoding="utf-8")
    multi_csv, multi_st = teams[-1]
    st, team = str(st_path), str(csv_path)
    cases = (
        ["check", st, "dep(a;b)", "--team", str(ragged)],
        ["check", st, "dep(a;", "--team", team],
        ["check", st, "dep(a;q)", "--team", team],
        ["check", st, "dep(a;b)", "--team", str(work_dir / "missing.csv")],
        ["check", st, "dep(a;b)", "--team", str(outside)],
        ["gen", "3sat", str(bad_cnf), "--out", str(work_dir / "bad_out")],
        ["gen", "max2sat", str(work_dir / "cnf1.cnf"), "--out", str(work_dir / "bad_out")],
        ["check", str(multi_st), "dep(a;b)", "--team", str(multi_csv), "--team-kind", "set"],
    )
    return [_cli_op("unusable", mt, argv, 2) for argv in cases]


def build(name: str, mt, seed: int, work_dir: Path, part: int = 0, parts: int = 1) -> list[Op]:
    """The operations of workload `name` for `seed` that worker `part` of
    `parts` runs, in order; it cycles through them until its time is up."""
    if name == "search":
        return _search(mt, seed, work_dir, part, parts)
    ops = {"encodings": _encodings, "files": _files}[name](mt, seed, work_dir)
    start = len(ops) * part // parts
    return ops[start:] + ops[:start]
