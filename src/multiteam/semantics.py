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
so the trace is the search's own path, never a second search.

A submultiteam is one multiplicity per row, none above the team's own, so
the search carries teams as count vectors.  A row space is the sorted rows
of one team; the team and every part that `|`, `<p>`, `[p]` and `->{p}`
derive from it are tuples of counts over that row list, enumerated
directly, with Z = t - Y a tuple subtraction.  Only `E x` and `A x` change
the row space: each row space has one child per variable, listing every row
extended by every domain value, and each supplement and the universal
extension is a vector over it (clipped to counts of 1 in set mode).  A row
counted 0 is absent, so every order and verdict is the one over the team's
own rows.  Each subformula is worked out once per row space (a node): a
`dep` reads its node's numbering of the rows (`atoms.dep_entries`), the
other atoms project the rows once, and each then tests any vector.  No
`Multiteam` is built for a candidate, only for the `Witness` nodes of a run
from `witness`.  An optional memo cache keyed by (node, vector), that is by
(subformula identity, row space, vector), is on by default and is
semantics-transparent; pass use_cache=False for the plain recursion.

One walk, `_walk`, lists the count vectors below a vector in row-vector
order, all of them or those of one size.  The parts that `<p>`, `[p]` and
`->{p}` try are its slices from the bound size up (`part_vectors`), a
row's strict copy choices are its slice at the row's count, and a split's
pruned left parts are its walk under the split's conditions, carrying rule
6's bound on its right side when one is kept.  Only a split's unpruned left
parts come from `itertools.product`: the same vectors, in one C call.

The search skips candidates that cannot be the first success.  A formula
is downward closed when it holds on every submultiteam of a multiteam it
holds on; the evaluator treats as such the literals, `dep`, `excl` and the
valid atoms (below), and whatever `&`, `|`, `E` and `A` build from them, and
nothing else.  Under a downward-closed subformula four cuts apply, in every
mode:

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

An atom is valid when its variable groups alone make it hold on every
multiteam, in every mode (each atom class's `valid` in `formula`):
- `dep(xs ; ys)` with every ys variable among xs: rows that agree on xs
  agree on ys (reflexivity; Armstrong, IFIP 1974);
- `inc(xs ; xs)`: each row's xs-value is its own ys-value; `pinc(xs ; xs)`:
  each value is counted as often on both sides;
- `ind(xs ; ys ; zs)` with every ys variable among xs: the rows of one
  xs-value share one ys-value b, so each zs-value c among them comes from a
  row with (b, c) (trivial independence; Geiger, Paz and Pearl, Inf. Comp.
  91, 1991), and with zs among xs alike;
- `pind(xs ; ys ; zs)` likewise: in an xs-group of n copies the one
  ys-value b has all n, and each zs-value c as many copies as (b, c), so
  n_b * n_c = n * n_bc, and with zs among xs alike.
`excl` is never valid: it fails on a row whose xs-value is its ys-value.
A valid atom's node answers true without projecting a row.  It holds on
every submultiteam, so it is downward closed, and rules 1-4 apply above
it: they ask no more of a subformula than that it be closed, and each keeps
the first success, so verdicts and witness trees stay those of the full
search.

A fifth rule prunes inside an enumeration.  A necessary closed condition
of a formula is a literal or a `dep` that is not valid, a conjunct of it
reached through `&` alone: it is downward closed and holds wherever the
formula does.

5. The left parts Y of `f | g` and the exact-size parts Y of `<p> f` with f
   closed are walked one row at a time, in row-vector order, and every
   prefix on which a necessary closed condition fails is dropped with all
   its completions.  The conditions are those of f on Y and those of g on
   Z = t - Y, whose prefix is fixed with Y's.  A literal bars rows; `dep`
   keeps a table of the values fixed so far, undone on backtrack, so each
   row step costs O(1).  An exact-size walk also drops every prefix whose
   rest cannot reach the size: the rows from i on may add at most their
   own count and, per `dep(xs ; ys)` condition on Y, at most their g3 (the
   sum over xs-values of the count of the most common ys-value; Kivinen
   and Mannila, TCS 1995), found for every i by one backward pass.

Rule 5 drops only candidates that fail, in a walk that keeps the order of
the rest, so the first success is the same.  Row-vector order is
lexicographic with the first row most significant, which is the order of a
depth-first walk fixing rows first to last with values ascending.  Every
completion of a prefix is at least the prefix (later rows counted 0) row
by row.  So is every right part of Y, strict or lax, at least t - Y, and
t - Y at least its own prefix.  A downward-closed condition failing on a
prefix fails on all of these, and then f fails on Y, g on every right part
of Y, or the body on the part.  The search would try that candidate, see
it fail and go on, so dropping it changes neither the verdict nor the
first success.  The g3 bound drops only failures too: `dep` is downward
closed, so in any completion on which it holds it holds on the rows from i
on, and a part on which it holds takes at most g3 copies of those rows.  A
prefix that needs more fails in every completion.  `E` supplements,
`excl`, valid atoms (a valid `dep`, `dep(xs ;)` among them, never fails),
and closed conjuncts built with `|`, `E` or `A` give no condition.

A sixth rule bounds a split by a `<p>` conjunct of its right side, the
classical MAX-SAT branch and bound (Borchers and Furman, J. Comb. Optim.
2, 1998) on the g3 measure of rule 5.

6. An exact split of `f | g` (strict mode, or rule 1) walks its left parts
   Y with Z = t - Y.  Take the first conjunct `<p> h` of g, reached
   through `&` alone, with h closed and with a `dep(xs ; ys)` condition
   or a literal condition that bars a row.  The walk keeps g3 of Z's
   fixed prefix Zp: for h's first such `dep`, the sum over xs-values of
   the most copies of one ys-value, the rows a literal condition of h bars
   left out (with no such `dep`, the copies of the rows not barred),
   updated per row and undone on backtrack like the `dep` table; and |Zp|.
   Let Rz be the most copies the rows after the prefix can give Z.
   With p = a/b a prefix is dropped when b*g3(Zp) - a*|Zp| + (b - a)*Rz <
   0, with `#k` when g3(Zp) + Rz < k.  One bound keeps the walk's state a
   few integers per row; a second `dep` or conjunct could drop more, at a
   second bound's cost on every row step.  A bound that can drop nothing
   is not kept: when h bars no row and p <= 1/d for the d ys-values of its
   `dep`, every prefix has g3(Zp) >= |Zp|/d >= p*|Zp|.

Rule 6 drops only failures too.  A part of Z on which h holds satisfies
the `dep` and avoids the rows h bars, so it has at most g3(Zp) + c
copies, where c <= Rz is what the rows after the prefix add to it; and
|Z| = |Zp| + c' with c' >= c.  So its size less p*|Z| is at most
g3(Zp) - p*|Zp| + (1 - p)*Rz < 0 <= ceil(p*|Z|) - p*|Z|: no part meets
the bound, and with `#k` none reaches g3(Zp) + Rz < k.  Every completion
fails `<p> h`, and with it g on Z; a dropped Y would have been tried and
failed, so the verdict and the witness tree stay the same.  A lax split
with no closed side is not bounded: its right parts exceed t - Y.  Nor
are `[p]` and `->{p}`, and a split with no bound walks as under rule 5.

The g3 closed form decides a `<p>` with no walk at all: `<p> h` over a
`dep` is Väänänen's approximate dependence atom, and g3 decides it.  Let h
be closed with every conjunct, reached through `&` alone, a literal or a
`dep`, and with one `dep` at most that is not valid (a valid one always
holds).  Then h holds on a part exactly when the part counts no row a
literal of h bars and that `dep` holds on it.  The largest such part
takes, per xs-value, the copies of its most common ys-value among the rows
not barred (all of them, with no `dep`): g3 of rule 5, summed in one pass
over the rows.  h is downward closed, so dropping copies one at a time
from that part gives parts on which h holds of every size from g3 down to
0, and none larger.  So `<p> h` holds on t iff g3 reaches the bound.  That
g3 is the room rule 5's exact-size walk leaves at row 0 under h's own
conditions (`_largest`), so a run for `evaluate` compares the bound with
that room and answers at once, with no walk or body node for h.  A run for
`witness` walks the parts as under rule 3 to name the first, so its trees
are unchanged; its walk ends at once when the room falls short.  With a
second `dep` (the 3SAT body `<1/3>(dep & dep)`), `excl`, or a conjunct
built with `|`, `E` or `A`, the walk runs as before.

What the walk checked is not tested again.  Every part it yields meets the
conditions of f, and with a strict split (strict mode or rule 1) Z = t - Y
meets those of g; so only the conjuncts of that side that are not
conditions are run on it, and none when every conjunct is one (the 3SAT
body).  A lax right part lies above t - Y and is run whole.  A run for
`witness` runs each side's own node, so its trees are unchanged.

Conditions are also lifted out of `E`.  A literal or `dep` conjunct of the
body of `E x`, reached through `&` and nested `E`, that mentions no
variable bound on the way holds on every supplement iff it holds on the
team: every supplement keeps each counted row, extended, with at least one
copy, so on the conjunct's variables its rows are the team's.  So these
conjuncts are tested on the team's vector before any supplement is built;
if one fails, `E` fails, as it would after trying every supplement, and a
failure names no witness.  If all hold, the search runs as before.

In the multi modes a formula is local: f holds on t iff it holds on t|V,
for any V containing its free variables, where t|V counts each row over V
with the sum of the counts of t's rows that agree with it on V.  Summing
over rows that agree on V maps the vectors below t onto those below t|V,
and nothing f reads tells a vector from its sum.  A literal or an atom
reads only the values of its variables and, for the counting atoms, how
many copies carry them.  A part keeps its size under the sum, so `<p>`,
`[p]` and `->{p}` meet the same bounds.  Split t into Y and Z, and the sums
split t|V, strict or lax.  A split (k, l) of t|V lifts to one of t: share
each row's k out over the rows i it sums, at most m_i to each, give Z the
m_i - k_i copies Y leaves and, in lax mode, the rest of l on rows with
room, again at most m_i to each.  A supplement or the universal
extension treats every copy on its own, and the copies of t|V's row are
those of the rows it sums, so they commute with the sum over V with x
added.  So `evaluate` in a multi mode searches t restricted to f's free
variables.  The root space alone is cut; a child space keeps every column.

Set lax mode is local for a formula that counts no rows, one without
`pinc`, `pind`, `<p>`, `[p]` and `->{p}`, as first-order logic with
`dep`, `inc`, `excl` and `ind` is under lax team semantics (Galliani, APAL
163, 2012).  Here t|V is the set of t's rows cut to V, each sum clipped to
1, and a part Y of t maps to its cut Y|V.  A literal or a support atom
reads only which rows over its variables are present, so it cannot tell Y
from Y|V.  A lax split of t cuts to a lax split of t|V, and a lax split
(Y', Z') of t|V lifts to the rows of t whose cuts lie in Y' and those whose
cuts lie in Z', which cover t and cut to Y' and Z'.  A lax supplement H of
t cuts to the supplement of t|V that gives a row the union of the sets H
gives the rows it cuts, and one of t|V lifts by giving each row of t the
set of its cut; either way the extended sets agree on V with x added, and
the universal extension alike.  Strict splits and supplements do not
commute with the cut: two rows with one cut may take different sides or
values.  Strict set semantics is not local for inclusion (Galliani, APAL
163, 2012), and set mode is not local once it counts rows: on the set team
{(u,x) = (a,0), (b,0), (c,1)} with R = {0}, `<2/3> R(x)` holds on the part
{(a,0), (b,0)}, but its restriction is the set {x = 0, x = 1}, whose only
part of size 2 is itself, where R(x) fails.  So `evaluate` in set lax mode
searches the clipped restriction to f's free variables when f counts no
rows.  Set strict mode, a formula that counts rows in set mode, and every
run for `witness`, whose trees name the team's own rows, keep the team's
own rows.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterator, Optional

from . import atoms
from .errors import InputError
from .formula import (CI, And, Dep, Eq, Excl, Exists, ExistsFrac, Forall,
                      ForallFrac, Formula, ImplFrac, Inc, Neq, NegRel, Or,
                      PCI, PInc, Rel, free_vars, scan)
from .model import Assignment, Multiset, Multiteam, Multistructure, _cutter, _shown
from .parser import MAX_DEPTH

__all__ = ["SemanticsConfig", "Instance", "evaluate", "evaluate_classical",
           "enum_or_splits", "enum_supplements", "extend_universal",
           "Witness", "witness"]

TEAM_KINDS = ("set", "multi")
STRICTNESS = ("lax", "strict")


@dataclass(frozen=True)
class SemanticsConfig:
    """Selects one of the four semantics; a bound's flavor is its Threshold's."""

    team_kind: str = "multi"
    strictness: str = "lax"

    def __post_init__(self):
        if self.team_kind not in TEAM_KINDS:
            raise InputError(f"team_kind must be one of {TEAM_KINDS}, got {self.team_kind!r}")
        if self.strictness not in STRICTNESS:
            raise InputError(f"strictness must be one of {STRICTNESS}, got {self.strictness!r}")


@dataclass(frozen=True)
class Instance:
    """A structure, a multiteam, and a formula: one unit of checking."""

    structure: Multistructure
    team: Multiteam
    formula: Formula

    def check(self, cfg: SemanticsConfig | None = None) -> bool:
        return evaluate(self.structure, self.team, self.formula, cfg)


def _validate(structure: Multistructure, team: Multiteam, f: Formula,
              cfg: SemanticsConfig) -> tuple[set[str], bool]:
    """Check that f can be evaluated on team over structure in cfg's mode,
    every column of the team included; return f's free variables and
    whether f counts rows (see `scan`)."""
    height, free, uses, problem, counts = scan(f, MAX_DEPTH)
    if height > MAX_DEPTH:  # before anything below recurses into f
        raise InputError(f"formula nests too deeply: more than {MAX_DEPTH} levels")
    if problem:
        raise InputError(problem)
    missing = sorted(free.difference(team.variables))
    if missing:
        raise InputError(f"free variables {_shown(missing)} are not bound by the multiteam")
    stray = sorted(team.values_used().difference(structure.domain.support))
    if stray:
        raise InputError(f"multiteam values {_shown(stray)} lie outside the structure domain")
    if cfg.team_kind == "set":
        if not team.is_flat():
            raise InputError("set semantics requires team multiplicities at most 1")
        if structure.domain.size != len(structure.domain.support):
            raise InputError("set semantics requires domain multiplicities at most 1")
    for sub in uses:
        if structure.arity(sub.name) != len(sub.args):
            raise InputError(f"relation {sub.name} has arity {structure.arity(sub.name)}, "
                             f"used with {len(sub.args)} arguments")
    return free, counts


Counts = tuple[int, ...]  # one multiplicity per row of a row space


class _Space:
    """A row space: the sorted rows of one team, over which that team and
    every subteam the search derives from it are count vectors.  `E x` and
    `A x` lead to one extension per variable, memoized here; a space belongs
    to one run and so to one domain."""

    __slots__ = ("variables", "keys", "index", "extensions")

    def __init__(self, variables: tuple[str, ...], keys: list[tuple[str, ...]]):
        self.variables = variables
        self.keys = keys
        self.index = {x: i for i, x in enumerate(variables)}
        self.extensions: dict[str, _Extension] = {}

    @classmethod
    def rooted(cls, t: Multiteam, keep: Optional[set[str]] = None, flat: bool = False
               ) -> tuple["_Space", Counts]:
        """The row space of t's rows, and t as a vector over it; with keep, a
        set of t's variables, of t restricted to keep, the counts of rows
        that agree on keep summed.  With flat, t is a set team and every
        count is 1, so its restriction is a set too (see the module
        docstring), and only its distinct cut keys are kept."""
        variables, table = t.variables, t._rows
        if keep is not None and len(keep) < len(variables):
            # t's variables are sorted, so the kept ones are too
            pos = [i for i, x in enumerate(variables) if x in keep]
            variables = tuple([variables[i] for i in pos])
            table = dict.fromkeys(map(_cutter(pos), table)) if flat else t._projected(pos)
        keys = sorted(table)
        counts = (1,) * len(keys) if flat else tuple(map(table.__getitem__, keys))
        return cls(variables, keys), counts

    def team(self, counts: Counts) -> Multiteam:
        return Multiteam._from_counts(self.variables, self.keys, counts)

    def extended(self, var: str, dom: Multiset) -> "_Extension":
        got = self.extensions.get(var)
        if got is None:
            got = self.extensions[var] = _Extension(self, var, dom)
        return got


class _Extension:
    """A row space's rows extended by var taking each domain value: the
    child space of every such row, and for each row i and value j the child
    row targets[i][j] it extends to.

    s(a/x) does not depend on s(x), so a rebound var is a new var over the
    rows without it: dropping its slot p from every key gives the rows, in
    sorted, distinct order, that var is placed over at slot p again, and
    parent row i takes the targets of owner[i], the row it shrank to.

    The child rows are listed in sorted order without sorting them.  The
    rows var is placed over are sorted and distinct, so the rows sharing a
    prefix before slot p are consecutive, and an extended row is prefix +
    (value,) + suffix, where the suffix is what follows slot p.  Per prefix,
    in row order, the child rows are every value in sorted order, each with
    every suffix of the group, which come sorted and distinct as its rows
    do.  So nothing is sorted or looked up: a group of g rows whose first
    child row is b sends its row of rank r and value j to child row b + j*g
    + r.  When every prefix is distinct (var sorts after every variable, or
    the prefixes differ anyway) each group is one row, and row i's children
    are rows i*V to i*V + V - 1, V values each.

    Each child row then has exactly one preimage s with one value a, so the
    universal extension counts it m(s)*n(a), written in child order; for a
    rebound var, m(s) sums the counts of the parent rows s owns.  In set
    mode every domain multiplicity is 1, so clipping those sums to 1 clips
    the child counts; a new var's products are at most 1 already, because
    every vector the search passes lies below a team that `_validate` found
    flat, or was clipped."""

    __slots__ = ("space", "targets", "mults", "groups", "owner")

    def __init__(self, parent: _Space, var: str, dom: Multiset):
        variables, keys = parent.variables, parent.keys
        values = [(v,) for v, _ in dom.items()]
        self.mults = [n for _, n in dom.items()]
        self.owner: Optional[list[int]] = None  # parent row -> row without var
        if var in variables:
            p = variables.index(var)
            variables = variables[:p] + variables[p + 1:]
            shrunk = [k[:p] + k[p + 1:] for k in keys]
            keys = sorted(set(shrunk))
            at = {k: r for r, k in enumerate(keys)}
            self.owner = [at[k] for k in shrunk]
        p = bisect_left(variables, var)
        # (start, stop) of each prefix group's rows, [] when each row is one
        child, targets, self.groups = _placed(keys, p, values)
        self.targets = targets if self.owner is None else [targets[r] for r in self.owner]
        self.space = _Space(variables[:p] + (var,) + variables[p:], child)

    def supplements(self, counts: Counts, strict: bool, flat: bool) -> Iterator[Counts]:
        """Each distinct supplement of the team counted by counts, in the
        order of the copies' choices; with flat, counts clipped to 1."""
        rows = [i for i, m in enumerate(counts) if m]
        choices = {m: _copy_choices(m, self.mults, strict) for m in set(counts) if m}
        seen: set[Counts] = set()
        for choice in itertools.product(*[choices[counts[i]] for i in rows]):
            out = [0] * len(self.space.keys)
            for i, per_value in zip(rows, choice):
                for j, c in zip(self.targets[i], per_value):
                    out[j] += c
            sup = tuple(min(c, 1) for c in out) if flat else tuple(out)
            if sup not in seen:
                seen.add(sup)
                yield sup

    def universal(self, counts: Counts, flat: bool) -> Counts:
        """Every copy of every row extended by every domain value: extended
        row s(a/x) counts m(s)*n(a) from its one preimage s."""
        mults, groups = self.mults, self.groups
        if self.owner is not None:  # m(s) for each row s without var
            folded = [0] * (len(self.space.keys) // len(mults))
            for r, m in zip(self.owner, counts):
                folded[r] += m
            counts = [min(c, 1) for c in folded] if flat else folded
        if groups:
            return tuple([m * n for start, stop in groups for n in mults
                          for m in counts[start:stop]])
        return tuple([m * n for m in counts for n in mults])


def _placed(keys: list[tuple[str, ...]], p: int, values: list[tuple[str]]):
    """A new var's child keys at slot p, the targets and the prefix groups
    (see `_Extension`)."""
    width = len(values)
    heads = [k[:p] for k in keys]
    tails = [k[p:] for k in keys]
    cuts = [i for i in range(1, len(keys)) if heads[i] != heads[i - 1]]
    if len(cuts) + 1 >= len(keys):  # every row is its own prefix group
        child = [h + v + t for h, t in zip(heads, tails) for v in values]
        return child, [range(i, i + width) for i in range(0, len(child), width)], []
    groups = list(zip([0] + cuts, cuts + [len(keys)]))
    child: list[tuple[str, ...]] = []
    targets: list[range] = []
    for start, stop in groups:
        g, b = stop - start, len(child)
        child += [h + t for h in [heads[start] + v for v in values] for t in tails[start:stop]]
        targets += [range(b + r, b + r + g * width, g) for r in range(g)]
    return child, targets, groups


def _split_vectors(counts: Counts, strict: bool, prune: Optional[_Prune] = None
                   ) -> Iterator[tuple[Counts, Iterator[Counts]]]:
    """Each left part Y of a split, in row-vector order, with a lazy iterator
    over the right parts Z: Z takes the m - c copies Y leaves out of a row,
    and in lax mode may take up to all m.  With prune, only the left parts
    its walk keeps (see `_walk`)."""
    def right_parts(y):
        if strict:
            yield tuple(m - c for m, c in zip(counts, y))
        else:
            yield from itertools.product(*[range(m - c, m + 1) for m, c in zip(counts, y)])

    if prune is None:
        lefts = itertools.product(*[range(m + 1) for m in counts])
    else:
        lefts = _walk(counts, prune)
    for y in lefts:
        yield y, right_parts(y)


class _Prune:
    """The necessary closed conditions of one enumeration over one row space,
    as tests on a part Y fixed row by row and, for a split, on Z = t - Y,
    whose prefix is fixed with Y's.  Failing literals
    bar rows from Y (y_barred) or from Z (z_barred).  Each `dep` gives every
    row one (slot, value) entry for a table of `slots` slots (see
    `atoms.dep_entries`); per row, `y`, `z` and `yz` list the entries it adds
    when Y counts it, when Z does, and when both do, zipped from the `dep`s'
    entry lists once the prune is known to be useful.  `bounds` holds, per
    `dep` on Y, its entries row by row, for the room pass (`_largest`).
    `z_bound` holds rule 6's bound on an exact split's Z, if any: its g3
    marks row by row (see `_Eval._z_bound`) and the coefficients (scale,
    rate, need) of its inequality (see `_walk`)."""

    __slots__ = ("y_barred", "z_barred", "y", "z", "yz", "slots", "bounds", "z_bound")

    def __init__(self, n: int):
        self.y_barred = [False] * n
        self.z_barred = [False] * n
        self.y: list[tuple] = []
        self.z: list[tuple] = []
        self.yz: list[tuple] = []
        self.slots = 0
        self.bounds: list[list[tuple[int, int]]] = []
        self.z_bound: Optional[tuple[list[tuple[int, int]], int, int, int]] = None


def _largest(prune: Optional[_Prune], counts: Counts) -> list[int]:
    """Rule 5's room: per row i, and 0 past the last, the most copies a part
    of counts may take from the rows i on.  That is their count, less the
    rows prune bars from Y, and at most their g3 per `dep` on Y, found for
    every i by one backward pass.  With one `dep` at most, room[0] is the
    largest part on which prune's conditions hold (see the closed form)."""
    n = len(counts)
    high = counts if prune is None else [
        0 if barred else m for m, barred in zip(counts, prune.y_barred)]
    room = list(itertools.accumulate(reversed(high), initial=0))[::-1]
    for entries in prune.bounds if prune is not None else ():
        best, weight, g3 = [0] * prune.slots, [0] * n, 0
        for i in range(n - 1, -1, -1):
            slot, value = entries[i]
            w = weight[value] = weight[value] + high[i]
            if w > best[slot]:
                g3 += w - best[slot]
                best[slot] = w
            if g3 < room[i]:
                room[i] = g3
    return room


def _walk(counts: Counts, prune: Optional[_Prune], size: Optional[int] = None
          ) -> Iterator[Counts]:
    """The count vectors below counts, or with size those summing to it, in
    row-vector order (the order of `_split_vectors`' left parts), less every
    vector with a prefix on which a condition of prune fails; with prune
    None, every such vector.  One row is fixed at a time, each value tested
    in O(1) per condition and undone on backtrack, in a loop rather than a
    call per row.  With a size, a prefix is dropped once the rows after it
    cannot add the copies still missing, by their room (`_largest`).  With
    prune.z_bound, kept for unsized walks alone, a prefix is dropped when
    scale * g3 - rate * |Zp| + (scale - rate) * Rz < need (rule 6): g3 of
    Z's prefix is kept in per-value weights and per-slot bests, undone on
    backtrack like the `dep` table, and Rz is the most copies the rows after
    it can give Z.  A row the bound bars has entry (n, n), a slot whose best
    no weight reaches, so it adds nothing to g3."""
    n = len(counts)
    # per row, its smallest and largest value before the size bound
    if prune is None:
        y_entries = z_entries = yz_entries = [()] * n
        low, high, slots, bound = [0] * n, counts, 0, None
    else:
        y_entries, z_entries, yz_entries, slots = prune.y, prune.z, prune.yz, prune.slots
        low = [m if barred else 0 for m, barred in zip(counts, prune.z_barred)]
        high = [0 if barred else m for m, barred in zip(counts, prune.y_barred)]
        bound = prune.z_bound
    if size is not None:
        room = _largest(prune, counts)  # room[i]: copies the rows from i on may take
        if size > room[0]:
            return
    if n == 0:
        yield ()
        return
    if bound is not None:
        marks, scale, rate, need = bound
        slack, rz = [0] * n, 0  # per row, (scale - rate) * Rz - need for the rows after it
        for j in range(n - 1, -1, -1):
            slack[j] = (scale - rate) * rz - need
            rz += counts[j] - low[j]
        weight = [0] * (n + 1)
        best = [0] * n + [sum(counts) + 1]
        replaced = [0] * n  # per row, the best its value replaced
        budget = [0] * (n + 1)  # per row, scale * g3 - rate * |Zp| before it
    table = [None] * slots
    vec = [0] * n
    top = list(high)  # per row, the largest value it may take after this prefix
    filled: list = [()] * n  # per row, the table slots its value filled
    rest = size  # with size, the copies the rows from i on must take
    i, c = 0, low[0]
    if size is not None:
        c, top[0] = max(c, size - room[1]), min(top[0], size)
    while True:
        m = counts[i]
        while c <= top[i]:  # the smallest value from c on that nothing refutes
            entries = (yz_entries[i] if c < m else y_entries[i]) if c else (
                z_entries[i] if m else ())
            if not entries and bound is None:  # nothing to test or to undo
                added = ()
                break
            added = []
            for slot, value in entries:
                held = table[slot]
                if held is None:
                    table[slot] = value
                    added.append(slot)
                elif held != value:
                    break
            else:
                if bound is None:
                    break
                z = m - c
                at, kind = marks[i]
                w = weight[kind] + z
                after = budget[i] - rate * z + (scale * (w - best[at]) if w > best[at] else 0)
                if after + slack[i] >= 0:
                    break
            for slot in added:
                table[slot] = None
            c += 1
        else:  # row i is exhausted: take the previous row's next value
            if i == 0:
                return
            i -= 1
            for slot in filled[i]:
                table[slot] = None
            if bound is not None:
                at, kind = marks[i]
                weight[kind] -= counts[i] - vec[i]
                best[at] = replaced[i]
            c = vec[i]
            if size is not None:
                rest += c
            c += 1
            continue
        vec[i] = c
        if i + 1 < n:
            filled[i] = added
            if bound is not None:
                budget[i + 1] = after
                weight[kind] = w
                replaced[i] = best[at]
                if w > best[at]:
                    best[at] = w
            i += 1
            if size is None:
                c = low[i]
            else:
                rest -= vec[i - 1]
                c = low[i] if low[i] > rest - room[i + 1] else rest - room[i + 1]
                top[i] = high[i] if high[i] < rest else rest
            continue
        yield tuple(vec)
        for slot in added:
            table[slot] = None
        c += 1


def part_vectors(counts: Counts, needed: int) -> Iterator[Counts]:
    """Every count vector below counts whose sum is at least needed, smallest
    sum first and in row-vector order within equal sums."""
    for size in range(needed, sum(counts) + 1):
        yield from _walk(counts, None, size)


def _copy_choices(m: int, dom_mults: list[int], strict: bool) -> list[Counts]:
    """Per-row value count vectors reachable by giving each of the m copies a
    nonempty submultiset (lax) or a single element (strict) of the domain,
    in row-vector order."""
    if strict:
        return list(_walk((m,) * len(dom_mults), None, m))
    axes = [range(m * n + 1) for n in dom_mults]
    return [v for v in itertools.product(*axes) if sum(v) >= m]


def enum_or_splits(t: Multiteam, cfg: SemanticsConfig | None = None
                   ) -> Iterator[tuple[Multiteam, Iterator[Multiteam]]]:
    """Each left part Y a disjunction may split t into, in row-vector order,
    with a lazy iterator over the right parts Z that complete the split."""
    cfg = cfg or SemanticsConfig()
    space, counts = _Space.rooted(t)
    for y, zs in _split_vectors(counts, cfg.strictness == "strict"):
        yield space.team(y), map(space.team, zs)


def enum_supplements(t: Multiteam, x: str, dom: Multiset,
                     cfg: SemanticsConfig | None = None) -> Iterator[Multiteam]:
    """All distinct multiteams obtainable by supplementing t at x from dom."""
    cfg = cfg or SemanticsConfig()
    if dom.size == 0:
        raise InputError("cannot supplement from an empty domain")
    space, counts = _Space.rooted(t)
    ext = space.extended(x, dom)
    for sup in ext.supplements(counts, cfg.strictness == "strict",
                               cfg.team_kind == "set"):
        yield ext.space.team(sup)


def extend_universal(t: Multiteam, x: str, dom: Multiset) -> Multiteam:
    """The multiteam extending every copy of every row by every domain value,
    so row s(a/x) collects multiplicity m(s)*n(a) from each preimage s."""
    if dom.size == 0:
        raise InputError("cannot extend over an empty domain")
    space, counts = _Space.rooted(t)
    ext = space.extended(x, dom)
    return ext.space.team(ext.universal(counts, False))


@dataclass(frozen=True)
class Witness:
    """One node of an evaluation trace: which subteam made which part true."""

    formula: Formula
    team: Multiteam
    holds: bool
    choice: str
    parts: tuple["Witness", ...]


#: Atoms that hold on every submultiteam of a multiteam they hold on.
_CLOSED_ATOMS = frozenset({Eq, Neq, Rel, NegRel, Dep, Excl})

#: Each dependency atom's test over a count vector (see `atoms`).
_ATOM_TESTS = {Dep: atoms.dep_holds, Inc: atoms.inc_holds, Excl: atoms.excl_holds,
               CI: atoms.ci_holds, PInc: atoms.pinc_holds, PCI: atoms.pci_holds}


#: Literals: each row passes or fails them on its own.
_LITERALS = (Eq, Neq, Rel, NegRel)
_CONDITIONS = frozenset({*_LITERALS, Dep})


def _reach(f: Formula, through: tuple) -> list[Formula]:
    """The nodes f reaches through the connectives in `through` (some of `&`,
    `|`, `E`, `A`), other than those, left to right; each node object once."""
    if f.__class__ not in through:
        return [f]
    out, seen, stack = [], set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            if g.__class__ not in through:
                out.append(g)
            else:
                stack += (g.body,) if g.__class__ in (Exists, Forall) else (g.right, g.left)
    return out


def _lifted(f: Exists) -> list[Formula]:
    """The literal and `dep` conjuncts of f's body, reached through `&` and
    `E`, that mention no variable bound on the way (f's own included); each
    node object is met once per set of bound variables."""
    out: dict[int, Formula] = {}
    seen: set = set()
    stack = [(f.body, frozenset((f.var,)))]
    while stack:
        g, bound = stack.pop()
        if (id(g), bound) in seen:
            continue
        seen.add((id(g), bound))
        cls = g.__class__
        if cls is And:
            stack += ((g.right, bound), (g.left, bound))
        elif cls is Exists:
            stack.append((g.body, bound | {g.var}))
        elif cls in _CONDITIONS and bound.isdisjoint(free_vars(g)):
            out[id(g)] = g
    return list(out.values())


def _none_counted(failing: list[int], counts: Counts) -> bool:
    for i in failing:
        if counts[i]:
            return False
    return True


def _valid(counts: Counts) -> bool:
    return True


class _Node:
    """One subformula over one row space.  `test` maps a count vector to the
    node's answer; it is worked out on the node's first use.  `entries`
    holds a `dep`'s numbering of the row keys (`atoms.dep_entries`), made
    once for its test, its walks and rule 6's bound; `sort` the formula's
    conjuncts through `&`, sorted once for the walks, rule 6's bound, the
    closed form and the deciders that read them (`_Eval._sort`)."""

    __slots__ = ("f", "space", "test", "entries", "sort")

    def __init__(self, f: Formula, space: _Space):
        self.f = f
        self.space = space
        self.test = None
        self.entries: Optional[tuple[list[tuple[int, int]], int]] = None
        self.sort: Optional[tuple[list[int], list[Dep], list[Formula]]] = None


class _Eval:
    """One evaluation run: fixed structure and config, optional memo cache.
    A node that fails returns False; one that holds returns True, or in a run
    for `witness` (explain set) the Witness of its first successful choice."""

    __slots__ = ("structure", "cfg", "cache", "explain", "nodes")

    def __init__(self, structure: Multistructure, cfg: SemanticsConfig, use_cache: bool,
                 explain: bool = False):
        self.structure = structure
        self.cfg = cfg
        self.cache: Optional[dict] = {} if use_cache else None
        self.explain = explain
        self.nodes: dict[tuple[int, _Space], _Node] = {}

    def search(self, f: Formula, team: Multiteam, keep: Optional[set[str]] = None):
        """Run f on team, or on team restricted to keep (a set team's
        restriction is a set); also return the space and vector it ran on."""
        space, counts = _Space.rooted(team, keep, self.cfg.team_kind == "set")
        try:
            return self.run(self.node(f, space), counts), space, counts
        finally:  # the nodes' tests call back into this run: drop them
            self.nodes.clear()
            if self.cache is not None:
                self.cache.clear()

    def node(self, f: Formula, space: _Space) -> _Node:
        """The node of f over space, one per pair; it holds f, so the id in
        its key is not reused."""
        key = (id(f), space)
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = _Node(f, space)
        return got

    def run(self, node: _Node, counts: Counts):
        test = node.test
        if test is None:
            test = node.test = self._test(node.f, node.space)
        if self.cache is None:
            got = test(counts)
        else:
            key = (node, counts)
            got = self.cache.get(key)
            if got is None:
                got = self.cache[key] = test(counts)
        if got is True and self.explain:  # only leaves answer a bare True
            return Witness(node.f, node.space.team(counts), True, "", ())
        return got

    def _closed(self, f: Formula) -> bool:
        """Whether f is known to be downward closed: true on every
        submultiteam of a multiteam it holds on.  Conservative: built with
        `&`, `|`, `E` and `A` from closed and valid atoms alone."""
        return all(g.__class__ in _CLOSED_ATOMS or (g.__class__ in _ATOM_TESTS and g.valid)
                   for g in _reach(f, (And, Or, Exists, Forall)))

    def _holds(self, f: Formula, space: _Space, counts: Counts, choice: str, *parts):
        if self.explain:
            return Witness(f, space.team(counts), True, choice, parts)
        return True

    def _failing(self, f: Formula, space: _Space) -> list[int]:
        """The rows of space on which the literal f fails."""
        at = space.index
        if isinstance(f, (Eq, Neq)):
            px, py = at[f.x], at[f.y]
            want = isinstance(f, Eq)
            return [i for i, k in enumerate(space.keys) if (k[px] == k[py]) != want]
        pos = [at[x] for x in f.args]
        want = isinstance(f, Rel)
        return [i for i, k in enumerate(space.keys)
                if self.structure.has(f.name, tuple(k[j] for j in pos)) != want]

    def _sort(self, f: Formula, space: _Space):
        """f's conjuncts through `&` over space, sorted once on f's node: the
        rows a literal conjunct fails on, in order; the `dep` conjuncts that
        are not valid; and the conjuncts that are not conditions."""
        node = self.node(f, space)
        if node.sort is None:
            failing: set[int] = set()
            deps, rest = [], []
            for g in _reach(f, (And,)):
                cls = g.__class__
                if cls in _LITERALS:
                    failing.update(self._failing(g, space))
                elif cls is not Dep:
                    rest.append(g)
                elif not g.valid:
                    deps.append(g)
            node.sort = sorted(failing), deps, rest
        return node.sort

    def _dep_entries(self, f: Dep, space: _Space, first_slot: int):
        """`atoms.dep_entries` of the `dep` f over space, slots counted from
        first_slot; worked out once per run and kept on f's node, as its
        test, rule 6's bound and the walks of both sides of a split share
        them."""
        node = self.node(f, space)
        if node.entries is None:
            at = space.index
            node.entries = atoms.dep_entries(space.keys, [at[x] for x in f.xs],
                                             [at[y] for y in f.ys])
        entries, slots = node.entries
        if first_slot:
            entries = [(slot + first_slot, value) for slot, value in entries]
        return entries, first_slot + slots

    def _prune(self, space: _Space, y_side: Formula, z_side: Optional[Formula] = None,
               exact: bool = False) -> Optional[_Prune]:
        """The necessary closed conditions of y_side on a part Y and of z_side
        on Z = t - Y, over space: their literal conjuncts and `dep`
        conjuncts that are not valid; with exact, a split whose Z is t - Y,
        also rule 6's bound from z_side's first `<p>` conjunct that gives
        one.  None when nothing can fail, so the plain enumeration runs."""
        n = len(space.keys)
        prune = _Prune(n)
        useful = False
        y_deps: list[list[tuple[int, int]]] = []  # per dep, its entries row by row
        z_deps: list[list[tuple[int, int]]] = []
        for f, barred, deps in ((y_side, prune.y_barred, y_deps),
                                (z_side, prune.z_barred, z_deps)):
            if f is not None:
                failing, conditions, _ = self._sort(f, space)
                for i in failing:
                    barred[i] = True
                for g in conditions:
                    entries, prune.slots = self._dep_entries(g, space, prune.slots)
                    deps.append(entries)
                useful = useful or bool(failing or conditions)
        if exact:
            for g in self._sort(z_side, space)[2]:
                if g.__class__ is ExistsFrac and self._closed(g.body):
                    prune.z_bound = self._z_bound(g, space)
                    if prune.z_bound is not None:
                        useful = True
                        break
        if not useful:
            return None
        prune.bounds = y_deps
        prune.y = list(zip(*y_deps)) or [()] * n
        prune.z = list(zip(*z_deps)) or [()] * n
        prune.yz = list(zip(*y_deps, *z_deps)) or [()] * n
        return prune

    def _z_bound(self, f: ExistsFrac, space: _Space):
        """Rule 6's bound for the conjunct f = `<p> h` of a split's Z, h
        closed: h's g3 marks and the coefficients (scale, rate, need).  The
        marks are the entries of h's first `dep` condition, or one slot for
        every row when h has none, with the entry (n, n) for each row a
        literal condition of h bars (see `_walk`).  None when the bound can
        drop nothing: h has no `dep` condition and bars no row, or h bars no
        row and p <= 1/d for the d ys-values the rows take, so that g3(Zp)
        >= |Zp|/d >= p*|Zp|."""
        barred, deps, _ = self._sort(f.body, space)
        if f.p.absolute:
            scale, rate, need = 1, 0, f.p.value
        else:
            scale, rate, need = f.p.value.denominator, f.p.value.numerator, 0
        if not barred:
            if not deps:
                return None
            ys = map(itemgetter(*[space.index[y] for y in deps[0].ys]), space.keys)
            if not need and scale >= rate * len(set(ys)):
                return None
        n = len(space.keys)
        marks = list(self._dep_entries(deps[0], space, 0)[0]) if deps else [(0, 0)] * n
        for i in barred:
            marks[i] = (n, n)
        return marks, scale, rate, need

    def _deciders(self, f: Formula, space: _Space, checked: bool) -> list[_Node]:
        """The nodes that decide f on the parts a walk yields: f's conjuncts
        through `&` that are not conditions, when the walk checked f's
        conditions on those parts; else, or in a run for `witness`, f's own
        node."""
        if self.explain or not checked:
            return [self.node(f, space)]
        return [self.node(g, space) for g in self._sort(f, space)[2]]

    def _all(self, nodes: list[_Node], counts: Counts):
        """Run nodes on counts while they hold: the last answer, True if none."""
        got = True
        for node in nodes:
            got = self.run(node, counts)
            if not got:
                break
        return got

    def _test(self, f: Formula, space: _Space):
        """The test of f's node over space: what f reads of the rows, worked
        out once, applied to a count vector.  It refers to the nodes below,
        never to its own."""
        if isinstance(f, _LITERALS):
            return partial(_none_counted, self._failing(f, space))
        atom = _ATOM_TESTS.get(type(f))
        if atom is not None:
            if f.valid:  # true on every vector: nothing to project
                return _valid
            if isinstance(f, Dep):  # the numbering its walks read
                return partial(atom, self._dep_entries(f, space, 0)[0])
            rows = atoms.project(space.keys, [[space.index[x] for x in g] for g in f.groups])
            if isinstance(f, PCI):
                return partial(atom, rows, shared=atoms.shared_pairs(f.ys, f.zs))
            return partial(atom, rows)
        strict = self.cfg.strictness == "strict"
        if isinstance(f, And):
            return partial(self._and, f, space, self.node(f.left, space),
                           self.node(f.right, space))
        if isinstance(f, Or):
            strict = strict or self._closed(f.left) or self._closed(f.right)
            prune = self._prune(space, f.left, f.right, strict)
            return partial(self._or, f, space,
                           self._deciders(f.left, space, prune is not None),
                           self._deciders(f.right, space, prune is not None and strict),
                           strict, prune)
        if isinstance(f, (Exists, Forall)):
            ext = space.extended(f.var, self.structure.domain)
            body = self.node(f.body, ext.space)
            if isinstance(f, Forall):
                return partial(self._forall, f, space, ext, body)
            return partial(self._exists, f, space, ext, body, strict or self._closed(f.body),
                           [self.node(g, space) for g in _lifted(f)])
        if isinstance(f, ExistsFrac):
            closed = self._closed(f.body)
            prune = self._prune(space, f.body) if closed else None
            if closed and not self.explain:
                _, deps, rest = self._sort(f.body, space)
                if not rest and len(deps) < 2:  # the closed form: no part to walk
                    return lambda counts: _largest(prune, counts)[0] >= f.p.min_size(sum(counts))
            return partial(self._exists_part, f, space,
                           self._deciders(f.body, space, prune is not None), closed, prune)
        if isinstance(f, ForallFrac):
            return partial(self._forall_part, f, space, self.node(f.body, space),
                           self._closed(f.body))
        if isinstance(f, ImplFrac):
            return partial(self._implies, f, space, self.node(f.left, space),
                           self.node(f.right, space))
        raise InputError(f"cannot evaluate a {type(f).__name__} node")

    def _and(self, f, space, left_node, right_node, counts):
        left = self.run(left_node, counts)
        right = left and self.run(right_node, counts)
        return right and self._holds(f, space, counts, "both conjuncts on the same multiteam",
                                     left, right)

    def _or(self, f, space, left_nodes, right_nodes, strict, prune, counts):
        for y, zs in _split_vectors(counts, strict, prune):
            left = self._all(left_nodes, y)
            if left:
                for z in zs:
                    right = self._all(right_nodes, z)
                    if right:
                        return self._holds(f, space, counts, "split", left, right)
        return False

    def _exists(self, f, space, ext, body_node, strict, lifted, counts):
        if not self._all(lifted, counts):  # then it fails on every supplement
            return False
        for sup in ext.supplements(counts, strict, self.cfg.team_kind == "set"):
            body = self.run(body_node, sup)
            if body:
                return self._holds(f, space, counts, f"supplement for {f.var}", body)
        return False

    def _forall(self, f, space, ext, body_node, counts):
        body = self.run(body_node, ext.universal(counts, self.cfg.team_kind == "set"))
        return body and self._holds(f, space, counts, f"universal extension of {f.var}", body)

    def _exists_part(self, f, space, body_nodes, closed, prune, counts):
        size = sum(counts)
        needed = f.p.min_size(size)
        parts = _walk(counts, prune, needed) if closed else part_vectors(counts, needed)
        for y in parts:
            body = self._all(body_nodes, y)
            if body:
                return self._holds(
                    f, space, counts, f"submultiteam of size {sum(y)} out of {size}", body)
        return False

    def _forall_part(self, f, space, body_node, closed, counts):
        size = sum(counts)
        needed = f.p.min_size(size)
        if closed:  # t is the largest part, if any part meets the bound
            held = needed > size or self.run(body_node, counts)
        else:
            held = all(self.run(body_node, y) for y in part_vectors(counts, needed))
        return held and self._holds(
            f, space, counts, "every submultiteam meeting the size bound satisfies the body")

    def _implies(self, f, space, left_node, right_node, counts):
        held = all(self.run(right_node, y)
                   for y in part_vectors(counts, f.p.min_size(sum(counts)))
                   if self.run(left_node, y))
        return held and self._holds(
            f, space, counts, "the implication holds on every submultiteam meeting the size bound")


def evaluate(structure: Multistructure, team: Multiteam, f: Formula,
             cfg: SemanticsConfig | None = None, *, use_cache: bool = True) -> bool:
    """Exact satisfaction of f by the multiteam over the structure.  In the
    multi modes, and in set lax mode when f counts no rows, the search runs
    on the team restricted to f's free variables (see the module docstring)."""
    cfg = cfg or SemanticsConfig()
    free, counts = _validate(structure, team, f, cfg)
    local = cfg.team_kind == "multi" or (cfg.strictness == "lax" and not counts)
    return bool(_Eval(structure, cfg, use_cache).search(f, team, free if local else None)[0])


def evaluate_classical(structure: Multistructure, s: Assignment, f: Formula) -> bool:
    """Ordinary single-assignment first-order satisfaction.  Each subformula
    object is evaluated once per assignment, however many paths share it."""
    if scan(f, MAX_DEPTH)[0] > MAX_DEPTH:  # before the recursion below
        raise InputError(f"formula nests too deeply: more than {MAX_DEPTH} levels")
    memo: dict[tuple[int, Assignment], bool] = {}

    def holds(g: Formula, s: Assignment) -> bool:
        key = (id(g), s)  # f holds g, so the id is not reused
        if key not in memo:
            memo[key] = _classical(structure, s, g, holds)
        return memo[key]

    return holds(f, s)


def _classical(structure: Multistructure, s: Assignment, f: Formula, holds) -> bool:
    if isinstance(f, Eq):
        return s[f.x] == s[f.y]
    if isinstance(f, Neq):
        return s[f.x] != s[f.y]
    if isinstance(f, Rel):
        return structure.has(f.name, s.project(f.args))
    if isinstance(f, NegRel):
        return not structure.has(f.name, s.project(f.args))
    if isinstance(f, And):
        return holds(f.left, s) and holds(f.right, s)
    if isinstance(f, Or):
        return holds(f.left, s) or holds(f.right, s)
    if isinstance(f, Exists):
        return any(holds(f.body, s.extended(f.var, a)) for a in structure.domain.support)
    if isinstance(f, Forall):
        return all(holds(f.body, s.extended(f.var, a)) for a in structure.domain.support)
    raise InputError(f"{type(f).__name__} is not first-order")


def witness(structure: Multistructure, team: Multiteam, f: Formula,
            cfg: SemanticsConfig | None = None, *, use_cache: bool = True) -> Witness:
    """Evaluate and, on success, report the first witnessing choices in the
    same deterministic order the evaluator searches them."""
    cfg = cfg or SemanticsConfig()
    _validate(structure, team, f, cfg)
    got, space, counts = _Eval(structure, cfg, use_cache, explain=True).search(f, team)
    return got or Witness(f, space.team(counts), False, "", ())
