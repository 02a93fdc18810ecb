"""A plain reference evaluator, kept only for differential tests.

It is the search `multiteam.semantics` ran before subteams became count
vectors: every candidate split, supplement and part is built as a
`Multiteam`, the atoms read `Multiteam` rows, and the memo cache is keyed by
(subformula, multiteam).  It applies the same closure-aware cuts in the same
order, so it finds the same witness trees; `reference_witness` is its
counterpart of `semantics.witness`.  `reference_extension` is the
sort-based construction of an extended row space that `semantics._Extension`
replaced.  The formula walks `formula.scan`, `semantics._reach` and the
functions built on them replaced are kept too: `height`, the recursive
`free_vars`, `subformulas`, `closed` (with `valid`) and `conditions`, and
`reference_validate`, the entry check that read them.  So are the
recursive count-vector enumerators `semantics._walk` replaced, and
`reference_estimate_cost`, `generate.estimate_cost` as it was before it
costed each shared subformula object once.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

from multiteam.approx import _bound_as_threshold
from multiteam.errors import InputError
from multiteam.formula import (CI, PCI, And, Dep, Eq, Excl, Exists, ExistsFrac,
                               Forall, ForallFrac, Formula, ImplFrac, Inc, Neq,
                               NegRel, Or, PInc, Rel, _Atom, _Compound)
from multiteam.generate import _COST_CAP
from multiteam.model import Multiteam
from multiteam.parser import MAX_DEPTH
from multiteam.semantics import SemanticsConfig, Witness, _validate

_CLOSED_ATOMS = (Eq, Neq, Rel, NegRel, Dep, Excl)


# --- formula walks, one per question ---

def height(f):
    """Levels of the formula tree, counted without recursion; a value in a
    subformula's place that is not a formula adds no level."""
    height, level = 0, [f]
    while level:
        height += 1
        level = [c for node in level if isinstance(node, _Compound)
                 for c in map(node.__getattribute__, node.__match_args__)
                 if isinstance(c, Formula)]
    return height


def free_vars(f):
    """The free variables of a formula; quantifiers bind their variable."""
    if isinstance(f, (Eq, Neq)):
        return frozenset((f.x, f.y))
    if isinstance(f, (Rel, NegRel)):
        return frozenset(f.args)
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    if isinstance(f, _Atom):
        return frozenset().union(*f.groups)
    if isinstance(f, (ExistsFrac, ForallFrac)):
        return free_vars(f.body)
    if isinstance(f, ImplFrac):
        return free_vars(f.left) | free_vars(f.right)
    raise InputError(f"not a formula node: {f!r}")


def subformulas(f):
    """The formula and all its subformulas, outermost first."""
    yield f
    if isinstance(f, (And, Or)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Exists, Forall, ExistsFrac, ForallFrac)):
        yield from subformulas(f.body)
    elif isinstance(f, ImplFrac):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def valid(f):
    """Whether the atom f holds on every multiteam by its variable groups
    alone, read off the atom definitions below: `dep` when each ys variable
    is an xs variable, `inc` and `pinc` when both sides are one variable
    tuple, `ind` and `pind` when every ys or every zs variable is an xs
    variable; no `excl`."""
    if isinstance(f, Dep):
        return all(y in f.xs for y in f.ys)
    if isinstance(f, (Inc, PInc)):
        return f.xs == f.ys
    if isinstance(f, (CI, PCI)):
        return all(y in f.xs for y in f.ys) or all(z in f.xs for z in f.zs)
    return False


def closed(f):
    """Whether f is known to be downward closed (see `semantics._Eval._closed`)."""
    if isinstance(f, (And, Or)):
        return closed(f.left) and closed(f.right)
    if isinstance(f, (Exists, Forall)):
        return closed(f.body)
    return isinstance(f, _CLOSED_ATOMS) or valid(f)


def conditions(f):
    """The literal and `dep` conjuncts of f, reached through `&` alone."""
    out, stack = [], [f] if f is not None else []
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        elif isinstance(g, (Eq, Neq, Rel, NegRel, Dep)):
            out.append(g)
    return out


def reference_validate(structure, team, f, cfg):
    """`semantics._validate` as it read the three walks above."""
    if height(f) > MAX_DEPTH:
        raise InputError(f"formula nests too deeply: more than {MAX_DEPTH} levels")
    missing = sorted(free_vars(f) - set(team.variables))
    if missing:
        raise InputError(f"free variables {missing} are not bound by the multiteam")
    support = set(structure.domain.support)
    stray = sorted(v for v in team.values_used() if v not in support)
    if stray:
        raise InputError(f"multiteam values {stray} lie outside the structure domain")
    if cfg.team_kind == "set":
        if not team.is_flat():
            raise InputError("set semantics requires team multiplicities at most 1")
        if any(n > 1 for _, n in structure.domain.items()):
            raise InputError("set semantics requires domain multiplicities at most 1")
    for sub in subformulas(f):
        if isinstance(sub, (Rel, NegRel)):
            if structure.arity(sub.name) != len(sub.args):
                raise InputError(
                    f"relation {sub.name} has arity {structure.arity(sub.name)}, "
                    f"used with {len(sub.args)} arguments")


# --- extending rows by a variable ---

def _extender(variables, var):
    """New sorted variable tuple and a key builder for extending rows by var."""
    if var in variables:
        p = variables.index(var)
        new_vars = variables

        def place(key, value):
            return key[:p] + (value,) + key[p + 1:]
    else:
        p = bisect_left(variables, var)
        new_vars = variables[:p] + (var,) + variables[p:]

        def place(key, value):
            return key[:p] + (value,) + key[p:]
    return new_vars, place


def reference_extension(variables, keys, var, dom):
    """The child variables, sorted child keys and per-row targets of keys
    extended by var over dom, by sorting every extended key."""
    new_vars, place = _extender(variables, var)
    placed = [[place(k, v) for v, _ in dom.items()] for k in keys]
    child = sorted({k for row in placed for k in row})
    where = {k: i for i, k in enumerate(child)}
    return new_vars, child, [[where[k] for k in row] for row in placed]


# --- enumerators, one Multiteam per candidate ---

def _team(t, vec):
    return Multiteam._from_table(
        t.variables, {k: c for (k, _), c in zip(t.row_items(), vec) if c})


def or_splits(t, strict):
    mults = [m for _, m in t.row_items()]

    def right_parts(kvec):
        for lvec in itertools.product(*[range(m - c, (m - c if strict else m) + 1)
                                        for m, c in zip(mults, kvec)]):
            yield _team(t, lvec)

    for kvec in itertools.product(*[range(m + 1) for m in mults]):
        yield _team(t, kvec), right_parts(kvec)


def _copy_choices(m, dom_mults, strict):
    if strict:
        return [v for v in itertools.product(*[range(m + 1)] * len(dom_mults)) if sum(v) == m]
    return [v for v in itertools.product(*[range(m * n + 1) for n in dom_mults])
            if sum(v) >= m]


def supplements(t, x, dom, strict, flat):
    values = [v for v, _ in dom.items()]
    dom_mults = [n for _, n in dom.items()]
    new_vars, place = _extender(t.variables, x)
    entries = t.row_items()
    seen = set()
    for choice in itertools.product(*[_copy_choices(m, dom_mults, strict)
                                      for _, m in entries]):
        table = {}
        for (key, _), vec in zip(entries, choice):
            for value, c in zip(values, vec):
                if c:
                    nk = place(key, value)
                    table[nk] = table.get(nk, 0) + c
        supplemented = Multiteam._from_table(new_vars, table)
        if flat:
            supplemented = supplemented.support()
        if supplemented not in seen:
            seen.add(supplemented)
            yield supplemented


def universal(t, x, dom):
    new_vars, place = _extender(t.variables, x)
    table = {}
    for key, m in t.row_items():
        for value, n in dom.items():
            nk = place(key, value)
            table[nk] = table.get(nk, 0) + m * n
    return Multiteam._from_table(new_vars, table)


def _vectors_of_size(mults, size, prefix=()):
    """Count vectors below mults summing to size, in lexicographic order."""
    if not mults:
        if size == 0:
            yield prefix
        return
    for c in range(min(mults[0], size) + 1):
        if size - c <= sum(mults[1:]):
            yield from _vectors_of_size(mults[1:], size - c, prefix + (c,))


def bounded_parts(t, threshold, exact=False):
    needed = _bound_as_threshold(threshold).min_size(t.size)
    mults = [m for _, m in t.row_items()]
    for size in range(needed, needed + 1 if exact else t.size + 1):
        for vec in _vectors_of_size(mults, size):
            yield _team(t, vec)


# --- atoms on Multiteam rows ---

def _proj(k, pos):
    return tuple(k[i] for i in pos)


def dep(t, xs, ys):
    px, py = t.positions(xs), t.positions(ys)
    seen = {}
    return all(seen.setdefault(_proj(k, px), _proj(k, py)) == _proj(k, py)
               for k, _ in t.row_items())


def inc(t, xs, ys, negate=False):
    px, py = t.positions(xs), t.positions(ys)
    keys = [k for k, _ in t.row_items()]
    y_values = {_proj(k, py) for k in keys}
    return all((_proj(k, px) in y_values) != negate for k in keys)


def ci(t, xs, ys, zs):
    px, py, pz = t.positions(xs), t.positions(ys), t.positions(zs)
    groups = {}
    for k, _ in t.row_items():
        seen = groups.setdefault(_proj(k, px), (set(), set(), set()))
        b, c = _proj(k, py), _proj(k, pz)
        seen[0].add(b)
        seen[1].add(c)
        seen[2].add((b, c))
    return all((b, c) in yz for ys_, zs_, yz in groups.values() for b in ys_ for c in zs_)


def pinc(t, xs, ys):
    px, py = t.positions(xs), t.positions(ys)
    x_count, y_count = {}, {}
    for k, m in t.row_items():
        x_count[_proj(k, px)] = x_count.get(_proj(k, px), 0) + m
        y_count[_proj(k, py)] = y_count.get(_proj(k, py), 0) + m
    return all(n <= y_count.get(a, 0) for a, n in x_count.items())


def pci(t, xs, ys, zs):
    px, py, pz = t.positions(xs), t.positions(ys), t.positions(zs)
    shared = [(i, j) for i, x in enumerate(ys) for j, z in enumerate(zs) if x == z]
    groups = {}
    for k, m in t.row_items():
        b, c = _proj(k, py), _proj(k, pz)
        cy, cz, cyz, total = groups.setdefault(_proj(k, px), ({}, {}, {}, [0]))
        cy[b] = cy.get(b, 0) + m
        cz[c] = cz.get(c, 0) + m
        cyz[b, c] = cyz.get((b, c), 0) + m
        total[0] += m
    return all(nb * nc == cyz.get((b, c), 0) * total[0]
               for cy, cz, cyz, total in groups.values()
               for b, nb in cy.items() for c, nc in cz.items()
               if all(b[i] == c[j] for i, j in shared))


# --- the search ---

class ReferenceEval:
    """One run over (subformula, Multiteam) pairs, as in the original core."""

    def __init__(self, structure, cfg, use_cache, explain=False):
        self.structure = structure
        self.cfg = cfg
        self.cache = {} if use_cache else None
        self.explain = explain

    def run(self, f, team):
        if self.cache is None:
            got = self._dispatch(f, team)
        else:
            key = (f, team)
            got = self.cache.get(key)
            if got is None:
                got = self.cache[key] = self._dispatch(f, team)
        if got is True and self.explain:
            return Witness(f, team, True, "", ())
        return got

    def _holds(self, f, team, choice, *parts):
        return Witness(f, team, True, choice, parts) if self.explain else True

    def _literal(self, team, pred):
        return all(pred(k) for k, _ in team.row_items())

    def _dispatch(self, f, team):
        has = self.structure.has
        if isinstance(f, (Eq, Neq)):
            px, py = team.position(f.x), team.position(f.y)
            return self._literal(team, lambda k: (k[px] == k[py]) == isinstance(f, Eq))
        if isinstance(f, (Rel, NegRel)):
            pos = team.positions(f.args)
            return self._literal(
                team, lambda k: has(f.name, _proj(k, pos)) == isinstance(f, Rel))
        if isinstance(f, And):
            left = self.run(f.left, team)
            right = left and self.run(f.right, team)
            return right and self._holds(f, team, "both conjuncts on the same multiteam",
                                         left, right)
        if isinstance(f, Or):
            strict = (self.cfg.strictness == "strict"
                      or closed(f.left) or closed(f.right))
            for y, zs in or_splits(team, strict):
                left = self.run(f.left, y)
                if left:
                    for z in zs:
                        right = self.run(f.right, z)
                        if right:
                            return self._holds(f, team, "split", left, right)
            return False
        if isinstance(f, Exists):
            strict = self.cfg.strictness == "strict" or closed(f.body)
            for sup in supplements(team, f.var, self.structure.domain, strict,
                                   self.cfg.team_kind == "set"):
                body = self.run(f.body, sup)
                if body:
                    return self._holds(f, team, f"supplement for {f.var}", body)
            return False
        if isinstance(f, Forall):
            extended = universal(team, f.var, self.structure.domain)
            if self.cfg.team_kind == "set":
                extended = extended.support()
            body = self.run(f.body, extended)
            return body and self._holds(f, team, f"universal extension of {f.var}", body)
        if isinstance(f, Dep):
            return dep(team, f.xs, f.ys)
        if isinstance(f, Inc):
            return inc(team, f.xs, f.ys)
        if isinstance(f, Excl):
            return inc(team, f.xs, f.ys, negate=True)
        if isinstance(f, CI):
            return ci(team, f.xs, f.ys, f.zs)
        if isinstance(f, PInc):
            return pinc(team, f.xs, f.ys)
        if isinstance(f, PCI):
            return pci(team, f.xs, f.ys, f.zs)
        if isinstance(f, ExistsFrac):
            for y in bounded_parts(team, f.p, exact=closed(f.body)):
                body = self.run(f.body, y)
                if body:
                    return self._holds(
                        f, team, f"submultiteam of size {y.size} out of {team.size}", body)
            return False
        if isinstance(f, ForallFrac):
            if closed(f.body):
                held = f.p.min_size(team.size) > team.size or self.run(f.body, team)
            else:
                held = all(self.run(f.body, y) for y in bounded_parts(team, f.p))
            return held and self._holds(
                f, team, "every submultiteam meeting the size bound satisfies the body")
        if isinstance(f, ImplFrac):
            held = all(self.run(f.right, y) for y in bounded_parts(team, f.p)
                       if self.run(f.left, y))
            return held and self._holds(
                f, team, "the implication holds on every submultiteam meeting the size bound")
        raise InputError(f"cannot evaluate a {type(f).__name__} node")


def reference_witness(structure, team, f, cfg=None, *, use_cache=True):
    """`semantics.witness` as the reference search answers it."""
    cfg = cfg or SemanticsConfig()
    _validate(structure, team, f, cfg)
    return (ReferenceEval(structure, cfg, use_cache, explain=True).run(f, team)
            or Witness(f, team, False, "", ()))


def reference_estimate_cost(f, *, rows, mult, dom_size, cfg=None):
    """`generate.estimate_cost` by plain recursion, once per path."""
    cfg = cfg or SemanticsConfig()
    multi = cfg.team_kind == "multi"
    lax = cfg.strictness == "lax"

    def go(f, rows, mult):
        rows, mult = max(rows, 1), max(mult, 1)
        if isinstance(f, And):
            return 1 + go(f.left, rows, mult) + go(f.right, rows, mult)
        if isinstance(f, Or):
            if multi:
                per = (mult + 1) * (mult + 2) // 2 if lax else mult + 1
                parts = (mult + 1) ** rows
            else:
                per, parts = (3, 2 ** rows) if lax else (2, 2 ** rows)
            pairs = min(per ** rows, _COST_CAP)
            halves = go(f.left, rows, mult) + go(f.right, rows, mult)
            return min(pairs * rows + min(parts, _COST_CAP) * halves,
                       _COST_CAP)
        if isinstance(f, Exists):
            if multi and lax:
                per = (mult + 1) ** dom_size
            elif multi:
                per = math.comb(mult + dom_size - 1, dom_size - 1)
            else:
                per = 2 ** dom_size - 1 if lax else dom_size
            supp = min(per ** rows, _COST_CAP)
            body = go(f.body, min(rows * dom_size, _COST_CAP), mult)
            return min(supp * (rows + body), _COST_CAP)
        if isinstance(f, Forall):
            return rows + go(f.body, min(rows * dom_size, _COST_CAP), mult)
        if isinstance(f, (ExistsFrac, ForallFrac)):
            parts = min((mult + 1) ** rows, _COST_CAP)
            return min(parts * (rows + go(f.body, rows, mult)), _COST_CAP)
        if isinstance(f, ImplFrac):
            parts = min((mult + 1) ** rows, _COST_CAP)
            halves = go(f.left, rows, mult) + go(f.right, rows, mult)
            return min(parts * (rows + halves), _COST_CAP)
        return rows + 1

    return go(f, rows, mult)
