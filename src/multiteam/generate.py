"""Seeded random generators for structures, multiteams, and formulas.

Formula generation is fragment-aware so closure-law checks can draw from
exactly the sublogic they quantify over, and budget-aware so that randomly
nested quantifiers never produce an instance the exhaustive evaluator cannot
finish in reasonable time: `budgeted_formula` resamples (and finally shrinks
the depth) until a rough work estimate fits the caller's budget.
"""

import math
import random
from fractions import Fraction

from .errors import InputError
from .formula import (ATOMS, And, Eq, Exists, ExistsFrac, Forall, ForallFrac,
                      ImplFrac, Neq, NegRel, Or, Rel, Threshold)
from .model import Multiteam, Multistructure
from .semantics import SemanticsConfig

# Named sublogics: which non-classical atoms (and fraction operators) may occur.
FRAGMENTS = {
    "fo": frozenset(),
    "dep": frozenset({"dep"}),
    "dep-inc-ci": frozenset({"dep", "inc", "ci"}),
    "inc-pinc": frozenset({"inc", "pinc"}),
    "atoms": frozenset({"dep", "inc", "excl", "ci", "pinc", "pci"}),
    "full": frozenset({"dep", "inc", "excl", "ci", "pinc", "pci", "frac"}),
}

FRACTIONS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
             Fraction(1))

# the signature: structures interpret it, formulas use it
RELATIONS = (("R", 1),)

_COST_CAP = 10 ** 9
_TRIES = 40  # draws per depth before budgeted_formula goes one level lower


def random_structure(rng: random.Random, *, max_dom: int = 3) -> Multistructure:
    """Draw a structure with domain {0..k-1} and random unary relations."""
    k = rng.randint(1, max_dom)
    dom = [str(i) for i in range(k)]
    rels = {name: (arity, frozenset((v,) for v in dom if rng.random() < 0.5))
            for name, arity in RELATIONS}
    return Multistructure(dom, rels)


def random_team(rng: random.Random, variables, structure: Multistructure, *,
                max_rows: int = 4, max_mult: int = 1) -> Multiteam:
    """Draw a multiteam over the given variables with values from the domain."""
    dom = structure.domain.support
    if not dom:
        raise InputError("cannot draw team values from an empty domain")
    variables = tuple(variables)
    table: dict[tuple[str, ...], int] = {}
    for _ in range(rng.randint(0, max_rows)):
        row = tuple(rng.choice(dom) for _ in variables)
        table[row] = min(table.get(row, 0) + rng.randint(1, max_mult), max_mult)
    return Multiteam(variables, table)


def random_groups(rng: random.Random, variables, count: int, *,
                  equal: bool = False):
    """Draw variable tuples of up to two names for atom arguments,
    optionally all the same length."""
    variables = tuple(variables)
    lengths = [rng.randint(0, 2) for _ in range(count)]
    if equal:
        lengths = [lengths[0]] * count
    return tuple(tuple(rng.choice(variables) for _ in range(n))
                 for n in lengths)


def random_formula(rng: random.Random, variables, *, fragment: str = "fo",
                   max_depth: int = 3):
    """Draw a random formula whose free variables come from the given pool."""
    if fragment not in FRAGMENTS:
        raise InputError(f"unknown fragment {fragment!r}")
    allowed = FRAGMENTS[fragment]
    variables = tuple(variables)
    if not variables:
        raise InputError("formula generation needs at least one variable")

    def leaf(scope):
        kinds = ["eq", "neq", "rel", "negrel"] + sorted(allowed - {"frac"})
        kind = rng.choice(kinds)
        if kind == "eq":
            return Eq(rng.choice(scope), rng.choice(scope))
        if kind == "neq":
            return Neq(rng.choice(scope), rng.choice(scope))
        if kind in ("rel", "negrel"):
            name, arity = rng.choice(RELATIONS)  # a draw even with one relation
            args = tuple(rng.choice(scope) for _ in range(arity))
            return Rel(name, args) if kind == "rel" else NegRel(name, args)
        cls = ATOMS[{"ci": "ind", "pci": "pind"}.get(kind, kind)]
        return cls(*random_groups(rng, scope, len(cls.__match_args__),
                                  equal=cls.same_length))

    def fresh(scope):
        i = 0
        while f"v{i}" in scope:
            i += 1
        return f"v{i}"

    def build(scope, depth):
        if depth == 0 or rng.random() < 0.35:
            return leaf(scope)
        ops = ["and", "or", "exists", "forall"]
        if "frac" in allowed:
            ops += ["efrac", "afrac", "ifrac"]
        op = rng.choice(ops)
        if op == "and":
            return And(build(scope, depth - 1), build(scope, depth - 1))
        if op == "or":
            return Or(build(scope, depth - 1), build(scope, depth - 1))
        if op in ("exists", "forall"):
            var = rng.choice(scope) if rng.random() < 0.3 else fresh(scope)
            inner = scope if var in scope else scope + (var,)
            node = Exists if op == "exists" else Forall
            return node(var, build(inner, depth - 1))
        p = Threshold(rng.choice(FRACTIONS))
        if op == "efrac":
            return ExistsFrac(p, build(scope, depth - 1))
        if op == "afrac":
            return ForallFrac(p, build(scope, depth - 1))
        return ImplFrac(p, build(scope, depth - 1), build(scope, depth - 1))

    return build(variables, max_depth)


def estimate_cost(f, *, rows: int, mult: int, dom_size: int,
                  cfg: SemanticsConfig | None = None) -> int:
    """Rough upper bound on evaluator work for a team of the given shape.
    Each subformula object is costed once per shape, however many paths
    share it."""
    cfg = cfg or SemanticsConfig()
    multi = cfg.team_kind == "multi"
    lax = cfg.strictness == "lax"
    memo: dict[tuple[int, int, int], int] = {}

    def go(f, rows, mult):
        key = (id(f), rows, mult)  # the tree holds f, so the id is not reused
        if key in memo:
            return memo[key]
        rows, mult = max(rows, 1), max(mult, 1)
        if isinstance(f, And):
            got = 1 + go(f.left, rows, mult) + go(f.right, rows, mult)
        elif isinstance(f, Or):
            if multi:
                per = (mult + 1) * (mult + 2) // 2 if lax else mult + 1
                parts = (mult + 1) ** rows
            else:
                per, parts = (3, 2 ** rows) if lax else (2, 2 ** rows)
            pairs = min(per ** rows, _COST_CAP)
            halves = go(f.left, rows, mult) + go(f.right, rows, mult)
            got = min(pairs * rows + min(parts, _COST_CAP) * halves, _COST_CAP)
        elif isinstance(f, Exists):
            if multi and lax:
                per = (mult + 1) ** dom_size
            elif multi:
                per = math.comb(mult + dom_size - 1, dom_size - 1)
            else:
                per = 2 ** dom_size - 1 if lax else dom_size
            supp = min(per ** rows, _COST_CAP)
            body = go(f.body, min(rows * dom_size, _COST_CAP), mult)
            got = min(supp * (rows + body), _COST_CAP)
        elif isinstance(f, Forall):
            got = rows + go(f.body, min(rows * dom_size, _COST_CAP), mult)
        elif isinstance(f, (ExistsFrac, ForallFrac)):
            parts = min((mult + 1) ** rows, _COST_CAP)
            got = min(parts * (rows + go(f.body, rows, mult)), _COST_CAP)
        elif isinstance(f, ImplFrac):
            parts = min((mult + 1) ** rows, _COST_CAP)
            halves = go(f.left, rows, mult) + go(f.right, rows, mult)
            got = min(parts * (rows + halves), _COST_CAP)
        else:
            got = rows + 1
        memo[key] = got
        return got

    return go(f, rows, mult)


def budgeted_formula(rng: random.Random, variables, *, fragment: str = "fo",
                     max_depth: int = 3, rows: int = 4, mult: int = 1,
                     dom_size: int = 3, cfgs=(), budget: int = 200_000):
    """Resample until the cost estimate fits the budget under every config."""
    cfgs = tuple(cfgs) or (SemanticsConfig(),)
    f = None
    for depth in range(max_depth, -1, -1):
        for _ in range(_TRIES):
            f = random_formula(rng, variables, fragment=fragment, max_depth=depth)
            worst = max(estimate_cost(f, rows=rows, mult=mult,
                                      dom_size=dom_size, cfg=cfg) for cfg in cfgs)
            if worst <= budget:
                return f
    return f  # a depth-0 atom; nothing cheaper exists
