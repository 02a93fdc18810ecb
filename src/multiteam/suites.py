"""Randomized and exhaustive checks of the logic's closure and rewrite laws.

Each suite draws seeded random instances (or enumerates a small space
exhaustively), re-checks a law on every one, and reports violations with a
greedily minimized counterexample team.  A suite that finds nothing returns a
passing report; suites are deterministic for a fixed seed and size bounds.
"""

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import generate
from .atoms import eval_ci, eval_dep, eval_pci
from .errors import InputError
from .formula import (PCI, TRUE, And, Eq, ExistsFrac, ForallFrac, ImplFrac,
                      Inc, NegRel, Or, PInc, Rel, Threshold, free_vars, scan)
from .io import dump_multiteam, dump_structure
from .model import Multiteam, Multistructure
from .reductions import CnfFormula, encode_3sat, encode_maxsat, maxsat_oracle, sat_oracle
from .semantics import SemanticsConfig, evaluate, evaluate_classical, witness

LAX_SET = SemanticsConfig(team_kind="set")
STRICT_SET = SemanticsConfig(team_kind="set", strictness="strict")
LAX_MULTI = SemanticsConfig()
STRICT_MULTI = SemanticsConfig(strictness="strict")

SMALL_PS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


@dataclass(frozen=True)
class Violation:
    """One law failure, with rendered context for the report."""

    description: str
    context: tuple[tuple[str, str], ...] = ()

    def render(self) -> str:
        lines = [self.description]
        for label, text in self.context:
            text = text.rstrip("\n")
            if "\n" in text:
                body = "\n".join("    " + line for line in text.split("\n"))
                lines.append(f"  {label}:\n{body}")
            else:
                lines.append(f"  {label}: {text}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate outcome of one suite run."""

    name: str
    checks: int
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        lines = [f"{self.name}: {verdict} "
                 f"({self.checks} checks, {len(self.violations)} violations)"]
        lines += [f"  note: {n}" for n in self.notes]
        for i, v in enumerate(self.violations, 1):
            lines.append(f"violation {i}: {v.render()}")
        return "\n".join(lines)


def shrink_team(team: Multiteam, still_bad) -> Multiteam:
    """Greedily drop rows and shave multiplicities while the failure persists."""
    current = team
    progress = True
    while progress:
        progress = False
        for key, m in current.row_items():
            for smaller in (0, 1):
                if smaller >= m:
                    continue
                trimmed = Multiteam(current.variables,
                                    {**dict(current.row_items()), key: smaller})
                try:
                    bad = still_bad(trimmed)
                except InputError:
                    bad = False
                if bad:
                    current = trimmed
                    progress = True
                    break
            if progress:
                break
    return current


def _ctx(*pairs) -> tuple[tuple[str, str], ...]:
    return tuple((label, text) for label, text in pairs if text is not None)


def _check_team(violations, team, bad, description, *context, structure=None) -> None:
    """When bad(team) holds, report it: the context, the structure if one is
    given, and last the team shrunk under bad."""
    if bad(team):
        violations.append(Violation(description, _ctx(
            *context, ("structure", structure and dump_structure(structure)),
            ("team", dump_multiteam(shrink_team(team, bad))))))


def _var_pool(rng, most=3):
    return tuple(sorted(rng.sample(("u", "w", "x", "y"), rng.randint(1, most))))


def run_flatness(seed=0, *, trials=500, max_rows=4, max_dom=3, max_depth=4):
    """Classical formulas hold iff every row passes the one-row classical check,
    and unit multiplicities erase the set/multiteam distinction."""
    rng = random.Random(seed)
    checks, violations = 0, []
    modes = (LAX_SET, STRICT_SET, LAX_MULTI, STRICT_MULTI)
    for _ in range(trials):
        structure = generate.random_structure(rng, max_dom=max_dom)
        variables = _var_pool(rng)
        team = generate.random_team(rng, variables, structure,
                                    max_rows=max_rows, max_mult=1)
        f = generate.budgeted_formula(
            rng, variables, fragment="fo", max_depth=max_depth,
            rows=max(team.size, 1), dom_size=structure.domain.size, cfgs=modes)

        def rowwise(t):
            return all(evaluate_classical(structure, s, f)
                       for s, _ in t.support().rows())

        for cfg in (LAX_SET, STRICT_SET):
            checks += 1
            _check_team(
                violations, team,
                lambda t: evaluate(structure, t, f, cfg) != rowwise(t),
                f"classical formula disagrees with rowwise truth "
                f"({cfg.strictness} set semantics)",
                ("formula", str(f)), structure=structure)
        for scfg, mcfg in ((LAX_SET, LAX_MULTI), (STRICT_SET, STRICT_MULTI)):
            checks += 1
            _check_team(
                violations, team,
                lambda t: (evaluate(structure, t, f, scfg)
                           != evaluate(structure, t, f, mcfg)),
                f"set and multiteam runs disagree on a unit-multiplicity "
                f"team ({scfg.strictness})",
                ("formula", str(f)), structure=structure)
    return SuiteReport("flatness", checks, tuple(violations))


def run_locality(seed=0, *, trials=300, max_rows=4, max_dom=3, max_depth=3,
                 max_mult=2):
    """Dropping team columns beyond a formula's free variables never changes
    its truth value, in lax and strict multiteam semantics alike, and in lax
    set semantics on the team's support when the formula counts no rows.
    The full team's side is `witness`, which searches the team's own rows:
    `evaluate` already searches the restriction to the free variables."""
    rng = random.Random(seed)
    checks, violations = 0, []
    for _ in range(trials):
        structure = generate.random_structure(rng, max_dom=max_dom)
        pool = tuple(sorted(rng.sample(("x", "y"), rng.randint(1, 2))))
        extras = tuple(sorted(rng.sample(("u", "w"), rng.randint(0, 2))))
        team_vars = tuple(sorted(set(pool + extras)))
        team = generate.random_team(rng, team_vars, structure,
                                    max_rows=max_rows, max_mult=max_mult)
        f = generate.budgeted_formula(
            rng, pool, fragment="full", max_depth=max_depth, rows=max(team.size, 1),
            mult=max_mult, dom_size=structure.domain.size,
            cfgs=(LAX_MULTI, STRICT_MULTI), budget=100_000)
        spare = tuple(v for v in team_vars if v not in free_vars(f))
        keep = tuple(sorted(set(free_vars(f))
                            | set(rng.sample(spare, rng.randint(0, len(spare))))))
        # set lax is local only for a formula that counts no rows
        for cfg in (LAX_MULTI, STRICT_MULTI) + (() if scan(f)[4] else (LAX_SET,)):
            checks += 1
            flat = cfg.team_kind == "set"

            def bad(t):
                cut = t.restrict(keep)
                return (witness(structure, t, f, cfg).holds
                        != evaluate(structure, cut.support() if flat else cut, f, cfg))

            _check_team(
                violations, team.support() if flat else team, bad,
                f"restriction to free variables changed the verdict "
                f"({cfg.strictness}{' set' if flat else ''})",
                ("formula", str(f)), ("kept columns", " ".join(keep) or "(none)"),
                structure=structure)
    return SuiteReport("locality", checks, tuple(violations))


def _flattening_witnesses():
    """Fixed teams on which flattening provably flips the verdict."""
    y_team = Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 1,
                                    ("1", "0"): 1, ("1", "1"): 1})
    x_team = Multiteam(("x", "y", "z"), {("0", "0", "1"): 2, ("1", "2", "0"): 1,
                                         ("2", "1", "0"): 1})
    pmi = PCI((), ("x",), ("y",))
    split_inc = Or(Inc(("x",), ("z",)), Inc(("y",), ("z",)))
    return ((y_team, pmi, LAX_MULTI, False, True),
            (x_team, split_inc, STRICT_MULTI, True, False))


def run_weakflat(seed=0, *, trials=300, max_rows=4, max_dom=3, max_depth=3,
                 max_mult=3):
    """Multiplicity-blind fragments cannot tell a multiteam from its weak
    flattening; the counting atoms demonstrably can."""
    rng = random.Random(seed)
    checks, violations = 0, []
    plans = ((LAX_MULTI, "dep-inc-ci"), (STRICT_MULTI, "dep"))
    for _ in range(trials):
        structure = generate.random_structure(rng, max_dom=max_dom)
        variables = _var_pool(rng)
        team = generate.random_team(rng, variables, structure,
                                    max_rows=max_rows, max_mult=max_mult)
        for cfg, fragment in plans:
            f = generate.budgeted_formula(
                rng, variables, fragment=fragment, max_depth=max_depth,
                rows=max(team.size, 1), mult=max_mult,
                dom_size=structure.domain.size, cfgs=(cfg,), budget=100_000)
            checks += 1
            _check_team(
                violations, team,
                lambda t: (evaluate(structure, t, f, cfg)
                           != evaluate(structure, t.weak_flattening(), f, cfg)),
                f"weak flattening changed the verdict of a "
                f"multiplicity-blind formula ({cfg.strictness})",
                ("formula", str(f)), structure=structure)
    for team, f, cfg, on_team, on_flat in _flattening_witnesses():
        structure = Multistructure(sorted(team.values_used()), {})
        checks += 1
        got = (evaluate(structure, team, f, cfg),
               evaluate(structure, team.weak_flattening(), f, cfg))
        if got != (on_team, on_flat):
            violations.append(Violation(
                "a counting-sensitive witness no longer separates a team "
                "from its weak flattening",
                _ctx(("formula", str(f)),
                     ("mode", f"{cfg.team_kind}/{cfg.strictness}"),
                     ("expected team/flattening", f"{on_team}/{on_flat}"),
                     ("got", f"{got[0]}/{got[1]}"),
                     ("team", dump_multiteam(team)))))
    return SuiteReport("weakflat", checks, tuple(violations))


def run_unionclosure(seed=0, *, trials=300, max_rows=3, max_dom=3,
                     max_depth=3, max_mult=2):
    """Inclusion-style formulas survive disjoint unions, before and after
    wrapping in a some-large-part operator."""
    rng = random.Random(seed)
    checks, violations = 0, []
    joined = 0
    for _ in range(trials):
        structure = generate.random_structure(rng, max_dom=max_dom)
        variables = _var_pool(rng)
        f = generate.budgeted_formula(
            rng, variables, fragment="inc-pinc", max_depth=max_depth,
            rows=2 * max_rows, mult=max_mult,
            dom_size=structure.domain.size, cfgs=(LAX_MULTI,), budget=100_000)
        wrapped = ExistsFrac(Threshold(rng.choice(SMALL_PS)), f)
        for g in (f, wrapped):
            first = second = None
            for _ in range(6):
                first = generate.random_team(rng, variables, structure,
                                             max_rows=max_rows, max_mult=max_mult)
                second = generate.random_team(rng, variables, structure,
                                              max_rows=max_rows, max_mult=max_mult)
                if (evaluate(structure, first, g) and
                        evaluate(structure, second, g)):
                    joined += 1
                    break
            else:
                continue
            checks += 1
            union = first.disjoint_union(second)
            if not evaluate(structure, union, g):
                bad_first = shrink_team(
                    first,
                    lambda t: (evaluate(structure, t, g)
                               and not evaluate(structure,
                                                t.disjoint_union(second), g)))
                bad_second = shrink_team(
                    second,
                    lambda t: (evaluate(structure, t, g)
                               and not evaluate(structure,
                                                bad_first.disjoint_union(t), g)))
                violations.append(Violation(
                    "disjoint union broke an inclusion-style formula",
                    _ctx(("formula", str(g)),
                         ("structure", dump_structure(structure)),
                         ("first team", dump_multiteam(bad_first)),
                         ("second team", dump_multiteam(bad_second)))))
    return SuiteReport("unionclosure", checks, tuple(violations),
                       (f"{joined} of {2 * trials} draws found jointly "
                        f"satisfying team pairs",))


def run_pci_ci(seed=0, *, trials=200, max_rows=3, max_dom=2, max_vars=3,
               max_mult=3):
    """Exact product independence equals row combinability on flat teams, and
    implies it on every multiteam; conditioning on a context value matches a
    guarded split formula.  max_rows, max_dom and max_vars bound the
    exhaustive part only: the random part always draws teams of up to 4 rows."""
    variables = tuple(f"x{i}" for i in range(max_vars))
    dom = tuple(str(i) for i in range(max_dom))
    checks, violations = 0, []
    all_rows = list(itertools.product(dom, repeat=len(variables)))
    for r in range(max_rows + 1):
        for chosen in itertools.combinations(all_rows, r):
            team = Multiteam(variables, {row: 1 for row in chosen})
            for masks in itertools.product(range(1, 8), repeat=len(variables)):
                xs = tuple(v for v, m in zip(variables, masks) if m & 1)
                ys = tuple(v for v, m in zip(variables, masks) if m & 2)
                zs = tuple(v for v, m in zip(variables, masks) if m & 4)
                checks += 1
                if eval_pci(team, xs, ys, zs) != eval_ci(team, xs, ys, zs):
                    violations.append(Violation(
                        "product independence and combinability disagree on a "
                        "flat team covering all its variables",
                        _ctx(("groups", f"{xs}; {ys}; {zs}"),
                             ("team", dump_multiteam(team)))))
    rng = random.Random(seed)
    structure = Multistructure(("0", "1"), {"C": (1, frozenset({("0",)}))})
    guarded = Or(NegRel("C", ("x1",)),
                 And(Rel("C", ("x1",)), PCI(("x1",), ("x0",), ("x2",))))
    for _ in range(trials):
        team = generate.random_team(rng, ("x0", "x1", "x2"), structure,
                                    max_rows=4, max_mult=max_mult)
        xs, ys, zs = generate.random_groups(rng, ("x0", "x1", "x2"), 3)
        checks += 1
        _check_team(
            violations, team,
            lambda t: eval_pci(t, xs, ys, zs) and not eval_ci(t, xs, ys, zs),
            "product independence held without combinability",
            ("groups", f"{xs}; {ys}; {zs}"))
        checks += 1
        _check_team(
            violations, team,
            lambda t: (evaluate(structure, t, guarded)
                       != eval_pci(t.select(("x1",), ("0",)), (), ("x0",), ("x2",))),
            "conditioning on a context value disagrees with the guarded "
            "split formula",
            ("formula", str(guarded)))
    return SuiteReport("pci-ci", checks, tuple(violations))


def _minus(xs, ys):
    return tuple(v for v in xs if v not in ys)


def _meet(xs, ys):
    return tuple(v for v in xs if v in ys)


def run_lemma_rules(seed=0, *, trials=500, max_rows=4, max_dom=3, max_vars=4,
                    max_mult=3):
    """Rewriting laws of the product-independence atom: self-independence is
    dependence, conditioned columns drop out, overlaps split off."""
    rng = random.Random(seed)
    checks, violations = 0, []
    pool = ("u", "w", "x", "y")[:max_vars]
    for _ in range(trials):
        variables = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
        dom = tuple(str(i) for i in range(rng.randint(1, max_dom)))
        table = {}
        for _ in range(rng.randint(0, max_rows)):
            row = tuple(rng.choice(dom) for _ in variables)
            table[row] = table.get(row, 0) + rng.randint(1, max_mult)
        team = Multiteam(variables, table)
        xs, ys, zs = generate.random_groups(rng, variables, 3)
        laws = (
            ("self-independence given a condition equals dependence",
             eval_pci(team, xs, ys, ys) == eval_dep(team, xs, ys)),
            ("swapping the two independent groups changes nothing",
             eval_pci(team, xs, ys, zs) == eval_pci(team, xs, zs, ys)),
            ("columns of the condition drop out of both groups",
             eval_pci(team, xs, ys, zs)
             == eval_pci(team, xs, _minus(ys, xs), _minus(zs, xs))),
            ("an overlap splits into disjoint groups plus its own dependence",
             eval_pci(team, xs, ys, zs)
             == (eval_pci(team, xs, _minus(ys, zs), _minus(zs, ys))
                 and eval_pci(team, xs, _meet(ys, zs), _meet(ys, zs)))),
            ("product independence implies combinability",
             not eval_pci(team, xs, ys, zs) or eval_ci(team, xs, ys, zs)),
        )
        for description, holds in laws:
            checks += 1
            if not holds:
                violations.append(Violation(
                    description,
                    _ctx(("groups", f"{xs}; {ys}; {zs}"),
                         ("team", dump_multiteam(team)))))
    return SuiteReport("lemma-rules", checks, tuple(violations))


def _composition_witnesses():
    """Fixed two-row instances on which the two product "collapses" laws fail.

    With p = q = 2/3 the composed bound is ceil(q*ceil(p*2)) = 2 rows, but
    the product bound is only ceil(p*q*2) = 1 row, so `<p><q> x = y` and
    `<p*q> x = y` differ on rows 00, 01, and `[p][q]` and `[p*q]` differ for
    `pinc(x ; y)` on rows 01, 10.  Both composed-bound laws hold on them."""
    some_team = Multiteam(("x", "y"), (("0", "0"), ("0", "1")))
    every_team = Multiteam(("x", "y"), (("0", "1"), ("1", "0")))
    p = Fraction(2, 3)
    return ((some_team, Eq("x", "y"), p, p),
            (every_team, PInc(("x",), ("y",)), p, p))


def run_approx_laws(seed=0, *, trials=300, max_rows=3, max_dom=3, max_depth=2,
                    max_mult=2):
    """Distribution and composition behavior of the threshold operators.

    Nested ratio thresholds compose exactly at the composed bound
    k = ceil(q*ceil(p*n)) on an n-row team: a part Z is reachable through a
    part Y of at least ceil(p*n) rows with |Z| >= ceil(q*|Y|) exactly when
    |Z| >= k.  So `<p><q> f` equals `<r> f` and `[p][q] f` equals `[r] f`
    for r = k/n (r = 0 on the empty team), and the suite checks both laws.
    The product identities `<p><q> f == <p*q> f` and `[p][q] f == [p*q] f`
    hold only where k equals the product bound ceil(p*q*n); they fail through
    that rounding, as on the shipped `_composition_witnesses`, so the two
    "collapses" cases are the only ones meant to report violations.  Only
    their true directions ("implies") hold in general.
    """
    rng = random.Random(seed)
    checks, violations = 0, []

    def laws(structure, team, f, g, p, q):
        nonlocal checks
        ev = lambda formula: evaluate(structure, team, formula)
        tp, tq, tpq = Threshold(p), Threshold(q), Threshold(p * q)
        n = team.size
        k = tq.min_size(tp.min_size(n))
        tk = Threshold(Fraction(k, n) if n else 0)
        some_some = ev(ExistsFrac(tp, ExistsFrac(tq, f)))
        some_prod = ev(ExistsFrac(tpq, f))
        every_every = ev(ForallFrac(tp, ForallFrac(tq, f)))
        every_prod = ev(ForallFrac(tpq, f))
        cases = (
            ("[p] distributes over &",
             ev(ForallFrac(tp, And(f, g)))
             == (ev(ForallFrac(tp, f)) and ev(ForallFrac(tp, g)))),
            ("[p] is implication from a trivial antecedent",
             ev(ForallFrac(tp, f)) == ev(ImplFrac(tp, TRUE, f))),
            ("<p><q> collapses to <p*q>", some_some == some_prod),
            ("[p][q] collapses to [p*q]", every_every == every_prod),
            ("<p><q> implies <p*q>", not some_some or some_prod),
            ("[p*q] implies [p][q]", not every_prod or every_every),
            ("<p><q> equals <r> at the composed bound",
             some_some == ev(ExistsFrac(tk, f))),
            ("[p][q] equals [r] at the composed bound",
             every_every == ev(ForallFrac(tk, f))),
        )
        for description, holds in cases:
            checks += 1
            if not holds:
                violations.append(Violation(
                    f"{description} failed (p={p}, q={q})",
                    _ctx(("formula", str(f)),
                         ("second formula",
                          str(g) if "&" in description else None),
                         ("structure", dump_structure(structure)),
                         ("team", dump_multiteam(team)))))

    for _ in range(trials):
        structure = generate.random_structure(rng, max_dom=max_dom)
        variables = _var_pool(rng, most=2)
        team = generate.random_team(rng, variables, structure,
                                    max_rows=max_rows, max_mult=max_mult)
        f, g = (generate.budgeted_formula(
            rng, variables, fragment="atoms", max_depth=max_depth,
            rows=max(team.size, 1), mult=max_mult,
            dom_size=structure.domain.size, budget=2000) for _ in range(2))
        p, q = rng.choice(SMALL_PS), rng.choice(SMALL_PS)
        laws(structure, team, f, g, p, q)
    for team, f, p, q in _composition_witnesses():
        structure = Multistructure(sorted(team.values_used()), {})
        laws(structure, team, f, f, p, q)
    return SuiteReport("approx-laws", checks, tuple(violations))


def _clause_space(max_vars, width):
    variables = tuple(f"x{i + 1}" for i in range(max_vars))
    literals = [(v, s) for v in variables for s in (0, 1)]
    return sorted({tuple(sorted(c))
                   for c in itertools.product(literals, repeat=width)})


def _check_sat_batch(batch):
    checks, strict_same, sat_count, violations = 0, 0, 0, []
    for clauses in batch:
        phi = CnfFormula(clauses)
        instance = encode_3sat(phi)
        want = sat_oracle(phi)
        got = instance.check(LAX_MULTI)
        checks += 1
        sat_count += want
        strict_same += instance.check(STRICT_MULTI) == got
        if got != want:
            violations.append(Violation(
                "one-third-part encoding disagrees with brute-force "
                "satisfiability",
                _ctx(("cnf", str(phi)), ("expected", str(want)),
                     ("evaluated", str(got)))))
    return checks, strict_same, sat_count, violations


def _check_maxsat_batch(batch):
    checks, strict_same, violations = 0, 0, []
    for clauses in batch:
        phi = CnfFormula(clauses)
        best = maxsat_oracle(phi)
        total = len(clauses)
        for k in range(total + 1):
            instance = encode_maxsat(phi, Fraction(k, total))
            want = best >= k
            got = instance.check(LAX_MULTI)
            checks += 1
            strict_same += instance.check(STRICT_MULTI) == got
            if got != want:
                violations.append(Violation(
                    "threshold encoding disagrees with brute-force maximum "
                    "satisfiability",
                    _ctx(("cnf", str(phi)), ("threshold", f"{k}/{total}"),
                         ("expected", str(want)), ("evaluated", str(got)))))
    return checks, strict_same, violations


def _batches(items, jobs):
    size = max(1, len(items) // (jobs * 8) or 1)
    return [items[i:i + size] for i in range(0, len(items), size)]


def run_reductions(seed=0, *, max_vars=3, max_clauses=2, max_clauses2=2,
                   jobs=None):
    """Exhaustive cross-check of both hardness encoders against brute-force
    oracles, over every clause multiset up to the size bounds."""
    jobs = jobs or min(os.cpu_count() or 1, 8)
    checks, violations, notes = 0, [], []

    def run_batches(worker, mass):
        results = []
        if jobs > 1 and len(mass) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(worker, _batches(mass, jobs)))
        else:
            results = [worker(mass)]
        return results

    triples = _clause_space(max_vars, 3)
    sat_mass = [m for size in range(1, max_clauses + 1)
                for m in itertools.combinations_with_replacement(triples, size)]
    strict_same = sat_count = sat_checks = 0
    for c, same, sats, bad in run_batches(_check_sat_batch, sat_mass):
        sat_checks += c
        strict_same += same
        sat_count += sats
        violations.extend(bad)
    checks += sat_checks
    notes.append(f"3cnf: {sat_checks} formulas ({sat_count} satisfiable), "
                 f"strict mode agreed with lax on {strict_same}/{sat_checks}")

    pairs = _clause_space(max_vars, 2)
    max_mass = [m for size in range(1, max_clauses2 + 1)
                for m in itertools.combinations_with_replacement(pairs, size)]
    strict_same = max_checks = 0
    for c, same, bad in run_batches(_check_maxsat_batch, max_mass):
        max_checks += c
        strict_same += same
        violations.extend(bad)
    checks += max_checks
    notes.append(f"2cnf: {len(max_mass)} formulas, {max_checks} threshold "
                 f"checks, strict mode agreed with lax on "
                 f"{strict_same}/{max_checks}")
    return SuiteReport("reductions", checks, tuple(violations), tuple(notes))


SUITES = {
    "flatness": run_flatness,
    "locality": run_locality,
    "weakflat": run_weakflat,
    "unionclosure": run_unionclosure,
    "pci-ci": run_pci_ci,
    "lemma-rules": run_lemma_rules,
    "approx-laws": run_approx_laws,
    "reductions": run_reductions,
}


def run_suite(name: str, seed: int = 0, **bounds) -> SuiteReport:
    """Run one named suite with the given seed and size bounds."""
    try:
        runner = SUITES[name]
    except KeyError:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))}") from None
    return runner(seed, **bounds)
