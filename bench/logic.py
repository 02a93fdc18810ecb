"""The benchmark's own logic: formula terms, their text form, a worst-case
cost bound, a reference evaluator for the split-free fragment, and brute-force
SAT / MAX-SAT oracles.

Nothing here imports `multiteam`.  Expected answers and the structural rule
that keeps runaway instances out of the `search` workload come from this
module, so they do not depend on the code under test.

Formulas are nested tuples:

    ("eq", x, y)  ("neq", x, y)  ("rel", name, args)  ("nrel", name, args)
    ("dep", xs, ys)  ("inc", xs, ys)  ("excl", xs, ys)  ("pinc", xs, ys)
    ("ind", xs, ys, zs)  ("pind", xs, ys, zs)
    ("and", f, g)  ("or", f, g)  ("E", x, f)  ("A", x, f)
    ("efrac", p, f)  ("afrac", p, f)  ("ifrac", p, f, g)

with p a `Fraction` in [0, 1].
"""

from __future__ import annotations

import itertools
from math import comb

ATOMS = ("dep", "inc", "excl", "pinc", "ind", "pind")


def render(f) -> str:
    """The formula in the checker's text syntax, fully parenthesized."""
    op = f[0]
    if op == "eq":
        return f"{f[1]} = {f[2]}"
    if op == "neq":
        return f"{f[1]} != {f[2]}"
    if op in ("rel", "nrel"):
        return ("~" if op == "nrel" else "") + f"{f[1]}({','.join(f[2])})"
    if op in ATOMS:
        return f"{op}(" + " ; ".join(",".join(g) for g in f[1:]) + ")"
    if op in ("and", "or"):
        sym = "&" if op == "and" else "|"
        return f"({render(f[1])} {sym} {render(f[2])})"
    if op in ("E", "A"):
        return f"({op} {f[1]}. {render(f[2])})"
    p = f[1]
    p_text = str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
    if op == "efrac":
        return f"(<{p_text}> {render(f[2])})"
    if op == "afrac":
        return f"([{p_text}] {render(f[2])})"
    return f"({render(f[2])} ->{{{p_text}}} {render(f[3])})"


def cost_bound(f, rows: int, mult: int, dom: int, strict: bool) -> int:
    """Worst-case work for checking f on a team of `rows` distinct rows of
    multiplicity at most `mult` over a flat domain of `dom` values: the
    number of candidate teams every enumeration could build, times the rows
    each atom scans, with no early exit and no memo hits."""
    op = f[0]
    vectors = (mult + 1) ** rows
    if op == "and":
        return cost_bound(f[1], rows, mult, dom, strict) + cost_bound(f[2], rows, mult, dom, strict)
    if op == "or":
        left = cost_bound(f[1], rows, mult, dom, strict)
        right = cost_bound(f[2], rows, mult, dom, strict)
        pairs = vectors if strict else ((mult + 1) * (mult + 2) // 2) ** rows
        return vectors * (1 + left) + pairs * (1 + right)
    if op == "E":
        per_row = comb(mult + dom - 1, dom - 1) if strict else (mult + 1) ** dom
        wide = rows * dom
        return per_row ** rows * (wide + cost_bound(f[2], wide, mult, dom, strict))
    if op == "A":
        wide = rows * dom
        return wide + cost_bound(f[2], wide, mult, dom, strict)
    if op in ("efrac", "afrac"):
        return vectors * (rows + cost_bound(f[2], rows, mult, dom, strict))
    if op == "ifrac":
        return vectors * (rows + cost_bound(f[2], rows, mult, dom, strict)
                          + cost_bound(f[3], rows, mult, dom, strict))
    return rows + 1


# --- reference evaluator for literals, atoms, & and A ------------------------

def _proj(row, pos):
    return tuple(row[i] for i in pos)


def ref_holds(f, variables, team, domain, relations, set_mode=False) -> bool:
    """Truth of a split-free formula on `team` (a dict from value tuples, in
    `variables` order, to multiplicities), straight from the definitions."""
    op = f[0]
    index = {x: i for i, x in enumerate(variables)}
    pos = lambda group: [index[x] for x in group]
    rows = [row for row, m in team.items() if m > 0]
    if op in ("eq", "neq"):
        i, j = index[f[1]], index[f[2]]
        return all((r[i] == r[j]) == (op == "eq") for r in rows)
    if op in ("rel", "nrel"):
        p, tuples = pos(f[2]), relations[f[1]]
        return all((_proj(r, p) in tuples) == (op == "rel") for r in rows)
    if op == "and":
        return (ref_holds(f[1], variables, team, domain, relations, set_mode)
                and ref_holds(f[2], variables, team, domain, relations, set_mode))
    if op == "A":
        x = f[1]
        new_vars = variables if x in index else variables + (x,)
        k = new_vars.index(x)
        wide: dict = {}
        for row, m in team.items():
            if m == 0:
                continue
            base = list(row) + ([] if x in index else [None])
            for value in domain:
                base[k] = value
                key = tuple(base)
                wide[key] = 1 if set_mode else wide.get(key, 0) + m
        return ref_holds(f[2], new_vars, wide, domain, relations, set_mode)
    if op == "dep":
        px, py = pos(f[1]), pos(f[2])
        seen: dict = {}
        return all(seen.setdefault(_proj(r, px), _proj(r, py)) == _proj(r, py) for r in rows)
    if op in ("inc", "excl"):
        px, py = pos(f[1]), pos(f[2])
        ys = {_proj(r, py) for r in rows}
        return all((_proj(r, px) in ys) == (op == "inc") for r in rows)
    if op == "ind":
        # any two rows agreeing on xs combine: some row takes its ys values
        # from the first and its zs values from the second
        px, py, pz = pos(f[1]), pos(f[2]), pos(f[3])
        present = {(_proj(r, px), _proj(r, py), _proj(r, pz)) for r in rows}
        groups: dict = {}
        for r in rows:
            bs, cs = groups.setdefault(_proj(r, px), (set(), set()))
            bs.add(_proj(r, py))
            cs.add(_proj(r, pz))
        return all((a, b, c) in present
                   for a, (bs, cs) in groups.items() for b in bs for c in cs)
    if op == "pinc":
        px, py = pos(f[1]), pos(f[2])
        cx: dict = {}
        cy: dict = {}
        for r, m in team.items():
            cx[_proj(r, px)] = cx.get(_proj(r, px), 0) + m
            cy[_proj(r, py)] = cy.get(_proj(r, py), 0) + m
        return all(n <= cy.get(a, 0) for a, n in cx.items())
    if op == "pind":
        return _pind(f, variables, team)
    raise ValueError(f"no reference semantics for {op!r}")


def _pind(f, variables, team) -> bool:
    # |xs=a,ys=b| * |xs=a,zs=c| = |xs=a,ys=b,zs=c| * |xs=a| for every value
    # assignment to the atom's variables.  An assignment with a zero count on
    # the left makes both sides zero, so only realized projections matter; a
    # pair (b, c) that disagrees on a shared variable is no assignment at all.
    xs, ys, zs = f[1], f[2], f[3]
    index = {x: i for i, x in enumerate(variables)}
    groups: dict = {}
    for r, m in team.items():
        if m == 0:
            continue
        a = tuple(r[index[x]] for x in xs)
        b = tuple(r[index[y]] for y in ys)
        c = tuple(r[index[z]] for z in zs)
        total, by_b, by_c, joint = groups.setdefault(a, [[0], {}, {}, {}])
        total[0] += m
        by_b[b] = by_b.get(b, 0) + m
        by_c[c] = by_c.get(c, 0) + m
        joint[b, c] = joint.get((b, c), 0) + m
    for a, (total, by_b, by_c, joint) in groups.items():
        for b, nb in by_b.items():
            for c, nc in by_c.items():
                binding: dict = {}
                pairs = itertools.chain(zip(xs, a), zip(ys, b), zip(zs, c))
                if any(binding.setdefault(v, w) != w for v, w in pairs):
                    continue
                if nb * nc != joint.get((b, c), 0) * total[0]:
                    return False
    return True


# --- propositional oracles ---------------------------------------------------

def _assignments(clauses):
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    for bits in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def _satisfied(clause, assignment) -> bool:
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def sat(clauses) -> bool:
    """Is the CNF (lists of signed variable numbers) satisfiable?"""
    return any(all(_satisfied(c, a) for c in clauses) for a in _assignments(clauses))


def maxsat(clauses) -> int:
    """The most clauses any one assignment satisfies."""
    return max(sum(_satisfied(c, a) for c in clauses) for a in _assignments(clauses))


def dimacs(clauses) -> str:
    top = max(abs(lit) for clause in clauses for lit in clause)
    lines = [f"p cnf {top} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"
