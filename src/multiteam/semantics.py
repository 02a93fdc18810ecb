"""Satisfaction checking over teams and multiteams.

Four modes are supported, chosen by `SemanticsConfig`: teams may be plain
sets (every multiplicity 1) or genuine multiteams, and splitting/supplementing
may be lax or strict.  In lax mode a disjunction splits a multiteam into two
submultiteams that together cover it (per row k, l <= m and k + l >= m) and
an existential gives every copy of a row a nonempty submultiset of the domain;
in strict mode the split is an exact partition (k + l = m) and every copy
picks a single domain element.  Literals and atoms only ever look at rows
with multiplicity at least one.

The evaluator is an exhaustive exact search with early exit, enumerating in a
fixed deterministic order (rows sorted, values sorted, sizes ascending).  One
search serves both `evaluate` and `witness`: run for a witness, each node
that holds reports the first choice that made it true instead of a bare True,
so the trace is the search's own path, never a second search.  An optional
cache keyed by (subformula, multiteam) is on by default and is
semantics-transparent; pass use_cache=False for the plain recursion.

The search skips candidates that cannot be the first success.  A formula
is downward closed when it holds on every submultiteam of a multiteam it
holds on; the evaluator treats as such the literals, `dep` and `excl`, and
whatever `&`, `|`, `E` and `A` build from them, and nothing else.  Under a
downward-closed subformula four cuts apply, in every mode:

1. lax `f | g` with f or g closed tries, for each left part Y, only the
   right part Z = t - Y (the strict split);
2. lax `E x. f` with f closed tries only supplements giving each copy one
   value (the strict supplements);
3. `<p> f` with f closed tries only the parts of exactly the bound size;
4. `[p] f` with f closed is f on t, or true when no part meets the bound.

Each cut keeps the verdict and the witness, because what it drops comes
after a kept candidate that succeeds whenever the dropped one does, so the
first success is never dropped.  Take rule 1 with f closed and the first
success (Y1, Z1): Y0 = t - Z1 is below Y1 row by row, so comes no later
in row-vector order, f holds on it, and Z1 is the first right part tried
for Y0; hence Y0 = Y1 and Z1 = t - Y1.  With g closed, t - Y1 lies below
Z1 and is the first right part tried for Y1.  Rule 2: every lax supplement
contains a strict one whose choice vector is below its own.  Rule 3: every
larger part contains one of the bound size, which is enumerated earlier.
Rule 4: t is the largest part and a [p] witness names no part.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import atoms
from .approx import enum_bounded_submultisets
from .errors import InputError
from .formula import (CI, And, Dep, Eq, Excl, Exists, ExistsFrac, Forall,
                      ForallFrac, Formula, ImplFrac, Inc, Neq, NegRel, Or,
                      PCI, PInc, Rel, Threshold, free_vars, height, subformulas)
from .model import Assignment, Multiset, Multiteam, Multistructure
from .parser import MAX_DEPTH

__all__ = ["SemanticsConfig", "Instance", "evaluate", "evaluate_classical",
           "enum_or_splits", "enum_supplements", "extend_universal",
           "Witness", "witness"]

TEAM_KINDS = ("set", "multi")
STRICTNESS = ("lax", "strict")
APPROX_KINDS = ("ratio", "absolute")


@dataclass(frozen=True)
class SemanticsConfig:
    """Selects one of the four semantics and the size-bound flavor."""

    team_kind: str = "multi"
    strictness: str = "lax"
    approx_kind: str = "ratio"

    def __post_init__(self):
        if self.team_kind not in TEAM_KINDS:
            raise InputError(f"team_kind must be one of {TEAM_KINDS}, got {self.team_kind!r}")
        if self.strictness not in STRICTNESS:
            raise InputError(f"strictness must be one of {STRICTNESS}, got {self.strictness!r}")
        if self.approx_kind not in APPROX_KINDS:
            raise InputError(f"approx_kind must be one of {APPROX_KINDS}, got {self.approx_kind!r}")


@dataclass(frozen=True)
class Instance:
    """A structure, a multiteam, and a formula: one unit of checking."""

    structure: Multistructure
    team: Multiteam
    formula: Formula
    cfg: SemanticsConfig = SemanticsConfig()

    def check(self, cfg: SemanticsConfig | None = None, *, use_cache: bool = True) -> bool:
        return evaluate(self.structure, self.team, self.formula,
                        cfg or self.cfg, use_cache=use_cache)


def _validate(structure: Multistructure, team: Multiteam, f: Formula,
              cfg: SemanticsConfig) -> None:
    if height(f) > MAX_DEPTH:  # before anything below recurses into f
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
        p = getattr(sub, "p", None)
        if isinstance(p, Threshold):
            if p.absolute and cfg.approx_kind != "absolute":
                raise InputError("absolute bound #k requires approx_kind='absolute'")
            if not p.absolute and cfg.approx_kind != "ratio":
                raise InputError("fractional bound requires approx_kind='ratio'")


def _extender(variables: tuple[str, ...], var: str):
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


def enum_or_splits(t: Multiteam, cfg: SemanticsConfig | None = None, *, exact: bool = False
                   ) -> Iterator[tuple[Multiteam, Iterator[Multiteam]]]:
    """Each left part Y a disjunction may split t into, in row-vector order,
    with a lazy iterator over the right parts Z that complete the split.
    With exact set, Z is only t - Y, as in strict mode."""
    cfg = cfg or SemanticsConfig()
    entries = t.row_items()
    keys = [k for k, _ in entries]
    mults = [m for _, m in entries]
    strict = exact or cfg.strictness == "strict"

    def right_parts(kvec):  # Z takes the m - c copies Y leaves out; lax may take up to all m
        for lvec in itertools.product(*[range(m - c, (m - c if strict else m) + 1)
                                        for m, c in zip(mults, kvec)]):
            yield Multiteam._from_table(t.variables, {k: c for k, c in zip(keys, lvec) if c})

    for kvec in itertools.product(*[range(m + 1) for m in mults]):
        yield (Multiteam._from_table(t.variables, {k: c for k, c in zip(keys, kvec) if c}),
               right_parts(kvec))


def _supplement_vectors(m: int, dom_mults: list[int], strict: bool) -> list[tuple[int, ...]]:
    """Per-row value count vectors reachable by giving each of the m copies a
    nonempty submultiset (lax) or a single element (strict) of the domain."""
    if strict:
        axes = [range(m + 1)] * len(dom_mults)
        return [v for v in itertools.product(*axes) if sum(v) == m]
    axes = [range(m * n + 1) for n in dom_mults]
    return [v for v in itertools.product(*axes) if sum(v) >= m]


def enum_supplements(t: Multiteam, x: str, dom: Multiset,
                     cfg: SemanticsConfig | None = None, *,
                     single: bool = False) -> Iterator[Multiteam]:
    """All distinct multiteams obtainable by supplementing t at x from dom.
    With single set, every copy takes one value, as in strict mode."""
    cfg = cfg or SemanticsConfig()
    if dom.size == 0:
        raise InputError("cannot supplement from an empty domain")
    values = [v for v, _ in dom.items()]
    dom_mults = [n for _, n in dom.items()]
    new_vars, place = _extender(t.variables, x)
    entries = t.row_items()
    strict = single or cfg.strictness == "strict"
    spaces = [_supplement_vectors(m, dom_mults, strict) for _, m in entries]
    seen: set[Multiteam] = set()
    for choice in itertools.product(*spaces):
        table: dict[tuple[str, ...], int] = {}
        for (key, _), vec in zip(entries, choice):
            for value, c in zip(values, vec):
                if c:
                    nk = place(key, value)
                    table[nk] = table.get(nk, 0) + c
        supplemented = Multiteam._from_table(new_vars, table)
        if cfg.team_kind == "set":
            supplemented = supplemented.support()
        if supplemented not in seen:
            seen.add(supplemented)
            yield supplemented


def extend_universal(t: Multiteam, x: str, dom: Multiset) -> Multiteam:
    """The multiteam extending every copy of every row by every domain value,
    so row s(a/x) collects multiplicity m(s)*n(a) from each preimage s."""
    if dom.size == 0:
        raise InputError("cannot extend over an empty domain")
    new_vars, place = _extender(t.variables, x)
    table: dict[tuple[str, ...], int] = {}
    for key, m in t.row_items():
        for value, n in dom.items():
            nk = place(key, value)
            table[nk] = table.get(nk, 0) + m * n
    return Multiteam._from_table(new_vars, table)


@dataclass(frozen=True)
class Witness:
    """One node of an evaluation trace: which subteam made which part true."""

    formula: Formula
    team: Multiteam
    holds: bool
    choice: str
    parts: tuple["Witness", ...]


#: Atoms that hold on every submultiteam of a multiteam they hold on.
_CLOSED_ATOMS = (Eq, Neq, Rel, NegRel, Dep, Excl)


class _Eval:
    """One evaluation run: fixed structure and config, optional memo cache.
    A node that fails returns False; one that holds returns True, or in a run
    for `witness` (explain set) the Witness of its first successful choice."""

    __slots__ = ("structure", "cfg", "cache", "explain", "closed")

    def __init__(self, structure: Multistructure, cfg: SemanticsConfig, use_cache: bool,
                 explain: bool = False):
        self.structure = structure
        self.cfg = cfg
        self.cache: Optional[dict] = {} if use_cache else None
        self.explain = explain
        self.closed: dict[int, tuple[Formula, bool]] = {}

    def run(self, f: Formula, team: Multiteam):
        if self.cache is None:
            got = self._dispatch(f, team)
        else:
            key = (f, team)
            got = self.cache.get(key)
            if got is None:
                got = self.cache[key] = self._dispatch(f, team)
        if got is True and self.explain:  # only leaves answer a bare True
            return Witness(f, team, True, "", ())
        return got

    def _closed(self, f: Formula) -> bool:
        """Whether f is known to be downward closed: true on every
        submultiteam of a multiteam it holds on.  Conservative; memoized by
        node identity, holding the node so that its id is not reused."""
        known = self.closed.get(id(f))
        if known is not None:
            return known[1]
        if isinstance(f, (And, Or)):
            got = self._closed(f.left) and self._closed(f.right)
        elif isinstance(f, (Exists, Forall)):
            got = self._closed(f.body)
        else:
            got = isinstance(f, _CLOSED_ATOMS)
        self.closed[id(f)] = (f, got)
        return got

    def _holds(self, f: Formula, team: Multiteam, choice: str, *parts):
        return Witness(f, team, True, choice, parts) if self.explain else True

    def _rows_hold(self, team: Multiteam, pred: Callable[[tuple[str, ...]], bool]) -> bool:
        return all(pred(k) for k, _ in team.row_items())

    def _dispatch(self, f: Formula, team: Multiteam):
        if isinstance(f, Eq):
            px, py = team.position(f.x), team.position(f.y)
            return self._rows_hold(team, lambda k: k[px] == k[py])
        if isinstance(f, Neq):
            px, py = team.position(f.x), team.position(f.y)
            return self._rows_hold(team, lambda k: k[px] != k[py])
        if isinstance(f, Rel):
            pos = team.positions(f.args)
            return self._rows_hold(
                team, lambda k: self.structure.has(f.name, tuple(k[i] for i in pos)))
        if isinstance(f, NegRel):
            pos = team.positions(f.args)
            return self._rows_hold(
                team, lambda k: not self.structure.has(f.name, tuple(k[i] for i in pos)))
        if isinstance(f, And):
            left = self.run(f.left, team)
            right = left and self.run(f.right, team)
            return right and self._holds(f, team, "both conjuncts on the same multiteam",
                                         left, right)
        if isinstance(f, Or):
            exact = self._closed(f.left) or self._closed(f.right)
            for y, zs in enum_or_splits(team, self.cfg, exact=exact):
                left = self.run(f.left, y)
                if left:
                    for z in zs:
                        right = self.run(f.right, z)
                        if right:
                            return self._holds(f, team, "split", left, right)
            return False
        if isinstance(f, Exists):
            for sup in enum_supplements(team, f.var, self.structure.domain, self.cfg,
                                        single=self._closed(f.body)):
                body = self.run(f.body, sup)
                if body:
                    return self._holds(f, team, f"supplement for {f.var}", body)
            return False
        if isinstance(f, Forall):
            extended = extend_universal(team, f.var, self.structure.domain)
            if self.cfg.team_kind == "set":
                extended = extended.support()
            body = self.run(f.body, extended)
            return body and self._holds(f, team, f"universal extension of {f.var}", body)
        if isinstance(f, Dep):
            return atoms.eval_dep(team, f.xs, f.ys)
        if isinstance(f, Inc):
            return atoms.eval_inc(team, f.xs, f.ys)
        if isinstance(f, Excl):
            return atoms.eval_excl(team, f.xs, f.ys)
        if isinstance(f, CI):
            return atoms.eval_ci(team, f.xs, f.ys, f.zs)
        if isinstance(f, PInc):
            return atoms.eval_pinc(team, f.xs, f.ys)
        if isinstance(f, PCI):
            return atoms.eval_pci(team, f.xs, f.ys, f.zs)
        if isinstance(f, ExistsFrac):
            for y in enum_bounded_submultisets(team, f.p, exact=self._closed(f.body)):
                body = self.run(f.body, y)
                if body:
                    return self._holds(
                        f, team, f"submultiteam of size {y.size} out of {team.size}", body)
            return False
        if isinstance(f, ForallFrac):
            if self._closed(f.body):  # t is the largest part, if any part meets the bound
                held = f.p.min_size(team.size) > team.size or self.run(f.body, team)
            else:
                held = all(self.run(f.body, y) for y in enum_bounded_submultisets(team, f.p))
            return held and self._holds(
                f, team, "every submultiteam meeting the size bound satisfies the body")
        if isinstance(f, ImplFrac):
            held = all(self.run(f.right, y) for y in enum_bounded_submultisets(team, f.p)
                       if self.run(f.left, y))
            return held and self._holds(
                f, team, "the implication holds on every submultiteam meeting the size bound")
        raise InputError(f"cannot evaluate a {type(f).__name__} node")


def evaluate(structure: Multistructure, team: Multiteam, f: Formula,
             cfg: SemanticsConfig | None = None, *, use_cache: bool = True) -> bool:
    """Exact satisfaction of f by the multiteam over the structure."""
    cfg = cfg or SemanticsConfig()
    _validate(structure, team, f, cfg)
    return bool(_Eval(structure, cfg, use_cache).run(f, team.canonical()))


def evaluate_classical(structure: Multistructure, s: Assignment, f: Formula) -> bool:
    """Ordinary single-assignment first-order satisfaction."""
    if isinstance(f, Eq):
        return s[f.x] == s[f.y]
    if isinstance(f, Neq):
        return s[f.x] != s[f.y]
    if isinstance(f, Rel):
        return structure.has(f.name, s.project(f.args))
    if isinstance(f, NegRel):
        return not structure.has(f.name, s.project(f.args))
    if isinstance(f, And):
        return evaluate_classical(structure, s, f.left) and evaluate_classical(structure, s, f.right)
    if isinstance(f, Or):
        return evaluate_classical(structure, s, f.left) or evaluate_classical(structure, s, f.right)
    if isinstance(f, Exists):
        return any(evaluate_classical(structure, s.extended(f.var, a), f.body)
                   for a in structure.domain.support)
    if isinstance(f, Forall):
        return all(evaluate_classical(structure, s.extended(f.var, a), f.body)
                   for a in structure.domain.support)
    raise InputError(f"{type(f).__name__} is not first-order")


def witness(structure: Multistructure, team: Multiteam, f: Formula,
            cfg: SemanticsConfig | None = None, *, use_cache: bool = True) -> Witness:
    """Evaluate and, on success, report the first witnessing choices in the
    same deterministic order the evaluator searches them."""
    cfg = cfg or SemanticsConfig()
    _validate(structure, team, f, cfg)
    team = team.canonical()
    return (_Eval(structure, cfg, use_cache, explain=True).run(f, team)
            or Witness(f, team, False, "", ()))
