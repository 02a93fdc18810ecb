"""Evaluation of dependency atoms.

The classical atoms (dep, inc, excl, ind) are insensitive to multiplicities
and are evaluated on the support team: rows with multiplicity >= 1, each
counted once.  The probabilistic atoms (pinc, pind) compare exact occurrence
counts, so multiplicities matter.

The probabilistic definitions quantify over all value assignments to the
atom's variables, but any assignment hitting a zero count holds trivially, so
only realized value tuples are iterated.  For pind, the two projections of a
single value assignment always agree on variables shared between the second
and third group; pairs of realized projections that disagree there correspond
to no assignment and are skipped.

Each atom is one test over a count vector: `*_holds(rows, counts)` takes the
rows' projections onto the atom's variable groups (`project`) and one count
per row, and looks only at rows counted at least once.  The evaluator
projects a row space once per atom and then tests every candidate subteam's
vector; the `eval_*` functions are the same tests read off a `Multiteam`.
`dep` also has an incremental form (`dep_entries`) for the evaluator's
row-by-row walk, which tests each row as it is added to a part; it numbers
the row keys directly, with no projected rows.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Sequence

from .errors import InputError
from .model import Multiteam

__all__ = ["eval_dep", "eval_inc", "eval_excl", "eval_ci",
           "eval_pinc", "eval_pci"]

#: Per row, its value tuple on each variable group of an atom.
Rows = list[tuple[tuple[str, ...], ...]]


def _same_length(name: str, xs: Sequence[str], ys: Sequence[str]):
    if len(xs) != len(ys):
        raise InputError(f"{name} needs equally long sides, got {len(xs)} and {len(ys)}")


def project(keys, positions) -> Rows:
    """Each row key's value tuples on the column groups given by positions."""
    def column(pos):
        if not pos:
            return repeat((), len(keys))
        if len(pos) == 1:
            return zip(map(itemgetter(pos[0]), keys))
        return map(itemgetter(*pos), keys)

    return list(zip(*map(column, positions)))


def shared_pairs(ys: Sequence[str], zs: Sequence[str]) -> list[tuple[int, int]]:
    """Positions that must agree between a ys projection and a zs projection."""
    return [(i, j) for i, x in enumerate(ys) for j, z in enumerate(zs) if x == z]


def dep_holds(rows: Rows, counts) -> bool:
    seen: dict[tuple, tuple] = {}
    for (a, b), c in zip(rows, counts):
        if c and seen.setdefault(a, b) != b:
            return False
    return True


def dep_entries(keys, xs_pos: Sequence[int], ys_pos: Sequence[int], first_slot: int = 0
                ) -> tuple[list[tuple[int, int]], int]:
    """`dep` as an incremental test.  It holds on a set of rows iff no two of
    them map one xs-value to different ys-values, so a walk that adds rows one
    at a time keeps one table slot per xs-value, fails at the first row whose
    slot holds another ys-value, and frees on backtrack the slots a row
    filled.  Returned: per row key its (slot, value) pair, numbered in one
    pass over the keys' xs and ys positions, and the next free slot.  Slots
    count from first_slot, one per xs-value in order of first appearance;
    values count from 0, one per (xs-value, ys-value) pair, so two rows of
    one slot share a value iff they share the ys-value, and every value is
    below len(keys)."""
    def column(pos):
        return map(itemgetter(*pos), keys) if pos else repeat((), len(keys))

    slot: dict = {}
    value: dict = {}
    entries = [(slot.setdefault(a, first_slot + len(slot)), value.setdefault((a, b), len(value)))
               for a, b in zip(column(xs_pos), column(ys_pos))]
    return entries, first_slot + len(slot)


def _included(rows: Rows, counts, wanted: bool) -> bool:
    live = [row for row, c in zip(rows, counts) if c]
    y_values = {b for _, b in live}
    return all((a in y_values) == wanted for a, _ in live)


def inc_holds(rows: Rows, counts) -> bool:
    return _included(rows, counts, True)


def excl_holds(rows: Rows, counts) -> bool:
    return _included(rows, counts, False)


def ci_holds(rows: Rows, counts) -> bool:
    groups: dict[tuple, tuple[set, set, set]] = {}
    for (a, b, c), n in zip(rows, counts):
        if n:
            ys_seen, zs_seen, yz_seen = groups.setdefault(a, (set(), set(), set()))
            ys_seen.add(b)
            zs_seen.add(c)
            yz_seen.add((b, c))
    return all(
        (b, c) in yz_seen
        for ys_seen, zs_seen, yz_seen in groups.values()
        for b in ys_seen for c in zs_seen)


def pinc_holds(rows: Rows, counts) -> bool:
    x_count: dict[tuple, int] = {}
    y_count: dict[tuple, int] = {}
    for (a, b), m in zip(rows, counts):
        if m:
            x_count[a] = x_count.get(a, 0) + m
            y_count[b] = y_count.get(b, 0) + m
    return all(n <= y_count.get(a, 0) for a, n in x_count.items())


def pci_holds(rows: Rows, counts, shared: list[tuple[int, int]]) -> bool:
    groups: dict[tuple, list] = {}
    for (a, b, c), m in zip(rows, counts):
        if m:
            cy, cz, cyz, ctotal = groups.setdefault(a, [{}, {}, {}, [0]])
            cy[b] = cy.get(b, 0) + m
            cz[c] = cz.get(c, 0) + m
            cyz[b, c] = cyz.get((b, c), 0) + m
            ctotal[0] += m
    for cy, cz, cyz, ctotal in groups.values():
        total = ctotal[0]
        for b, nb in cy.items():
            for c, nc in cz.items():
                if any(b[i] != c[j] for i, j in shared):
                    continue  # no value assignment projects to this pair
                if nb * nc != cyz.get((b, c), 0) * total:
                    return False
    return True


def _view(t: Multiteam, *groups: Sequence[str]) -> tuple[Rows, list[int]]:
    items = t.row_items()
    return (project([k for k, _ in items], [t.positions(g) for g in groups]),
            [m for _, m in items])


def eval_dep(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Do the xs values functionally determine the ys values on the support?"""
    return dep_holds(*_view(t, xs, ys))


def eval_inc(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Does every xs value tuple of the support occur as a ys value tuple?"""
    _same_length("inc", xs, ys)
    return inc_holds(*_view(t, xs, ys))


def eval_excl(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Do xs and ys take no common value tuple on the support?"""
    _same_length("excl", xs, ys)
    return excl_holds(*_view(t, xs, ys))


def eval_ci(t: Multiteam, xs: Sequence[str], ys: Sequence[str], zs: Sequence[str]) -> bool:
    """Combinability on the support: for rows s, s' agreeing on xs there is a
    row taking its ys values from s and its zs values from s'."""
    return ci_holds(*_view(t, xs, ys, zs))


def eval_pinc(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Is each realized xs value tuple at most as frequent as ys takes it?"""
    _same_length("pinc", xs, ys)
    return pinc_holds(*_view(t, xs, ys))


def eval_pci(t: Multiteam, xs: Sequence[str], ys: Sequence[str], zs: Sequence[str]) -> bool:
    """The exact count product equation: within every xs group, the count of
    each (ys, zs) value combination times the group size equals the product
    of the individual ys and zs counts."""
    return pci_holds(*_view(t, xs, ys, zs), shared_pairs(ys, zs))
