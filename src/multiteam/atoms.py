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
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .model import Multiteam

__all__ = ["eval_dep", "eval_inc", "eval_excl", "eval_ci",
           "eval_pinc", "eval_pci"]


def _same_length(name: str, xs: Sequence[str], ys: Sequence[str]):
    if len(xs) != len(ys):
        raise InputError(f"{name} needs equally long sides, got {len(xs)} and {len(ys)}")


def eval_dep(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Do the xs values functionally determine the ys values on the support?"""
    px, py = t.positions(xs), t.positions(ys)
    seen: dict[tuple, tuple] = {}
    for k, _ in t.row_items():
        a = tuple(k[i] for i in px)
        b = tuple(k[i] for i in py)
        if seen.setdefault(a, b) != b:
            return False
    return True


def eval_inc(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Does every xs value tuple of the support occur as a ys value tuple?"""
    _same_length("inc", xs, ys)
    px, py = t.positions(xs), t.positions(ys)
    keys = t.support_keys()
    y_values = {tuple(k[i] for i in py) for k in keys}
    return all(tuple(k[i] for i in px) in y_values for k in keys)


def eval_excl(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Do xs and ys take no common value tuple on the support?"""
    _same_length("excl", xs, ys)
    px, py = t.positions(xs), t.positions(ys)
    keys = t.support_keys()
    y_values = {tuple(k[i] for i in py) for k in keys}
    return all(tuple(k[i] for i in px) not in y_values for k in keys)


def eval_ci(t: Multiteam, xs: Sequence[str], ys: Sequence[str], zs: Sequence[str]) -> bool:
    """Combinability on the support: for rows s, s' agreeing on xs there is a
    row taking its ys values from s and its zs values from s'."""
    px, py, pz = t.positions(xs), t.positions(ys), t.positions(zs)
    groups: dict[tuple, tuple[set, set, set]] = {}
    for k, _ in t.row_items():
        a = tuple(k[i] for i in px)
        b = tuple(k[i] for i in py)
        c = tuple(k[i] for i in pz)
        ys_seen, zs_seen, yz_seen = groups.setdefault(a, (set(), set(), set()))
        ys_seen.add(b)
        zs_seen.add(c)
        yz_seen.add((b, c))
    return all(
        (b, c) in yz_seen
        for ys_seen, zs_seen, yz_seen in groups.values()
        for b in ys_seen for c in zs_seen)


def eval_pinc(t: Multiteam, xs: Sequence[str], ys: Sequence[str]) -> bool:
    """Is each realized xs value tuple at most as frequent as ys takes it?"""
    _same_length("pinc", xs, ys)
    px, py = t.positions(xs), t.positions(ys)
    x_count: dict[tuple, int] = {}
    y_count: dict[tuple, int] = {}
    for k, m in t.row_items():
        a = tuple(k[i] for i in px)
        b = tuple(k[i] for i in py)
        x_count[a] = x_count.get(a, 0) + m
        y_count[b] = y_count.get(b, 0) + m
    return all(n <= y_count.get(a, 0) for a, n in x_count.items())


def eval_pci(t: Multiteam, xs: Sequence[str], ys: Sequence[str], zs: Sequence[str]) -> bool:
    """The exact count product equation: within every xs group, the count of
    each (ys, zs) value combination times the group size equals the product
    of the individual ys and zs counts."""
    px, py, pz = t.positions(xs), t.positions(ys), t.positions(zs)
    # positions that must agree between a ys projection and a zs projection
    shared = [(i, j) for i, x in enumerate(ys) for j, z in enumerate(zs) if x == z]
    groups: dict[tuple, list[dict]] = {}
    for k, m in t.row_items():
        a = tuple(k[i] for i in px)
        b = tuple(k[i] for i in py)
        c = tuple(k[i] for i in pz)
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
