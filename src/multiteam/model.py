"""Core data model: multisets, assignments, multiteams, and multistructures.

Values are plain strings ordered lexicographically, so every iteration order
in the package is deterministic and reproducible.  Multiplicities are Python
ints (arbitrary precision) and probabilities are exact `fractions.Fraction`s;
no floating point appears anywhere.  All types are immutable after
construction and hashable, so they can be shared between evaluators and used
as cache keys.  Zero multiplicities may be written for notational
convenience but are never stored: a multiset or multiteam holds only its
counted values or rows, so it is fixed by its positive counts.

Values and names (of variables and relations) share one alphabet: nonempty
strings of at most 131,072 characters with no whitespace, as `str.split`
sees it, and none of `, * : / #`.  So the text formats of `multiteam.io`
write and read back what the constructors accept: the `csv` module reads no
longer field at its default limit (which is process-wide, so it is left
alone), CSV strips fields and ends a line at a carriage return, structure
tokens split on whitespace, `*` marks a domain multiplicity, `,` separates
tuple values, `:` and `/` end relation heads, and `#` keeps out a variable
named `#count`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InputError

__all__ = ["Multiset", "Assignment", "Multiteam", "Multistructure"]


#: a character no value or name may hold (see the module docstring)
_OUTSIDE = re.compile(r"[\s,*:/#]")
#: the longest value or name, the `csv` module's default field size limit
_MAX_LENGTH = 131_072


def _check_str(v, what: str = "value") -> str:
    if not isinstance(v, str):
        raise InputError(f"{what}s must be strings, got {_shown(v)}")
    return v


def _shown(v) -> str:
    """v as an error message names it, in a few hundred characters at most:
    its repr, but a tuple or list value by value, the first 8 at most, a
    string longer than 64 characters as the repr of its first 16 and its
    length, any other repr longer than 64 characters cut likewise, and an
    int too long for Python to print by about how many digits it has."""
    if isinstance(v, (tuple, list)):
        parts = [_shown(x) for x in v[:8]]
        if len(v) > 8:
            parts.append(f"... ({len(v):,} values)")
        if isinstance(v, list):
            return f"[{', '.join(parts)}]"
        return f"({', '.join(parts)}{',' if len(v) == 1 else ''})"
    if isinstance(v, str) and len(v) > 64:
        return f"{v[:16]!r}... ({len(v):,} characters)"
    try:
        text = repr(v)
    except ValueError:  # past the 4,300 digits Python prints by default
        return f"an integer of about {int(v.bit_length() * 0.30103) + 1:,} digits"
    return text if len(text) <= 64 else f"{text[:16]}... ({len(text):,} characters)"


def _check_value(v, what: str = "value") -> str:
    """A value or name in the alphabet, else InputError."""
    if isinstance(v, str) and v and len(v) <= _MAX_LENGTH and not _OUTSIDE.search(v):
        return v
    _check_str(v, what)
    if len(v) > _MAX_LENGTH:
        raise InputError(f"{what} {_shown(v)} is over the limit of {_MAX_LENGTH:,} characters")
    raise InputError(f"{what} {_shown(v)} is empty or has whitespace or one of , * : / #")


def _check_table(names: Sequence[str], svars: Sequence[str],
                 keys: Iterable[tuple[str, ...]]) -> frozenset[str]:
    """Check a team's variable names, then the values of its `keys` (tuples
    in `svars` order) as the Multiteam constructor meets them: each distinct
    value once, in C, and only on a failure key by key, in `names` order.
    Return the distinct values."""
    for x in names:
        _check_value(x, "variable name")
    distinct = frozenset(chain.from_iterable(keys))
    if ("" in distinct or _OUTSIDE.search("".join(distinct))
            or max(map(len, distinct), default=0) > _MAX_LENGTH):
        order = [svars.index(x) for x in names]
        for key in keys:
            for i in order:
                _check_value(key[i])
    return distinct


def _cutter(pos: Sequence[int]) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """The function that cuts a key to the slots pos, in that order."""
    if len(pos) > 1:
        return itemgetter(*pos)
    # a slice, so that one slot or none still cuts a tuple
    return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


def _check_mult(v, m) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise InputError(f"multiplicity of {_shown(v)} must be a nonnegative integer, "
                         f"got {_shown(m)}")
    return m


class Multiset:
    """A finite multiset of string values with nonnegative integer counts."""

    __slots__ = ("_entries", "_size", "_hash", "_support")

    def __init__(self, entries: Mapping[str, int] | Iterable[str] = ()):
        counts: dict[str, int] = {}
        if isinstance(entries, Mapping):
            for v, m in entries.items():
                _check_value(v)
                _check_mult(v, m)
                if m > 0:
                    counts[v] = counts.get(v, 0) + m
        else:
            for v in entries:
                _check_value(v)
                counts[v] = counts.get(v, 0) + 1
        object.__setattr__(self, "_entries", counts)
        object.__setattr__(self, "_size", sum(counts.values()))
        object.__setattr__(self, "_hash", hash(frozenset(counts.items())))
        object.__setattr__(self, "_support", tuple(sorted(counts)))

    def __setattr__(self, name, value):
        raise AttributeError("Multiset is immutable")

    def mult(self, v: str) -> int:
        return self._entries.get(v, 0)

    @property
    def size(self) -> int:
        """Total number of occurrences."""
        return self._size

    @property
    def support(self) -> tuple[str, ...]:
        """The distinct values, sorted."""
        return self._support

    def items(self) -> list[tuple[str, int]]:
        """(value, multiplicity) pairs in sorted value order."""
        return sorted(self._entries.items())

    def disjoint_union(self, other: "Multiset") -> "Multiset":
        """Additive union: each value's count is the sum of the two counts."""
        counts = dict(self._entries)
        for v, m in other._entries.items():
            counts[v] = counts.get(v, 0) + m
        return Multiset(counts)

    def __contains__(self, v: str) -> bool:
        return self.mult(v) >= 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.support)

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{v}:{m}" for v, m in self.items())
        return f"Multiset({{{body}}})"


class Assignment:
    """An immutable binding of variables to values."""

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        pairs = dict(bindings)
        for var, v in pairs.items():
            _check_value(var, "variable name")
            _check_value(v)
        object.__setattr__(self, "_bindings", pairs)
        object.__setattr__(self, "_hash", hash(frozenset(pairs.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Assignment is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self._bindings))

    def __getitem__(self, var: str) -> str:
        try:
            return self._bindings[var]
        except KeyError:
            raise InputError(f"assignment does not bind variable {_shown(var)}") from None

    def project(self, variables: Sequence[str]) -> tuple[str, ...]:
        """The value tuple s(x1),...,s(xn)."""
        return tuple(self[x] for x in variables)

    def extended(self, var: str, value: str) -> "Assignment":
        """The modified assignment mapping var to value and all else unchanged."""
        pairs = dict(self._bindings)
        pairs[var] = value
        return Assignment(pairs)

    def as_dict(self) -> dict[str, str]:
        return dict(self._bindings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{x}={v}" for x, v in sorted(self._bindings.items()))
        return f"Assignment({body})"


class Multiteam:
    """A multiset of assignments over a fixed variable domain.

    Rows are stored positionally against the sorted variable tuple.  Only
    rows counted at least once are stored: the constructor checks a row
    given with multiplicity 0 like any other and then leaves it out.
    """

    __slots__ = ("_vars", "_rows", "_size", "_hash", "_values")

    def __init__(self, variables: Iterable[str],
                 rows: Mapping | Iterable = ()):
        vars_in = [_check_str(x, "variable name") for x in variables]
        if len(set(vars_in)) != len(vars_in):
            raise InputError(f"duplicate variable names in {_shown(vars_in)}")
        svars = tuple(sorted(vars_in))
        # positions of the sorted variables inside the caller's ordering,
        # used to reindex tuple rows given in that ordering
        perm = [vars_in.index(x) for x in svars]
        table: dict[tuple[str, ...], int] = {}

        def add(row, mult):
            key = self._coerce_row(row, vars_in, svars, perm)
            _check_mult(row, mult)
            table[key] = table.get(key, 0) + mult

        if isinstance(rows, Mapping):
            for row, mult in rows.items():
                add(row, mult)
        else:
            for row in rows:
                add(row, 1)
        values = _check_table(vars_in, svars, table)
        if 0 in table.values():  # a dropped row's values are not the team's
            table = {k: c for k, c in table.items() if c}
            values = None
        self._set(svars, table, values)

    @staticmethod
    def _coerce_row(row, vars_in, svars, perm) -> tuple[str, ...]:
        if isinstance(row, Assignment):
            row = row.as_dict()
        if isinstance(row, Mapping):
            if set(row) != set(svars):
                raise InputError(f"row {_shown(row)} does not bind exactly the variables "
                                 f"{_shown(svars)}")
            return tuple(_check_str(row[x]) for x in svars)
        values = tuple(_check_str(v) for v in row)
        if len(values) != len(vars_in):
            raise InputError(f"row {_shown(values)} has {len(values)} values for "
                             f"{len(vars_in)} variables")
        return tuple(values[i] for i in perm)

    def _set(self, svars: tuple[str, ...], table: dict[tuple[str, ...], int],
             values: Optional[frozenset[str]] = None) -> None:
        object.__setattr__(self, "_vars", svars)
        object.__setattr__(self, "_rows", table)
        object.__setattr__(self, "_size", sum(table.values()))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_values", values)

    @classmethod
    def _from_table(cls, svars: tuple[str, ...], table: dict[tuple[str, ...], int],
                    values: Optional[frozenset[str]] = None) -> "Multiteam":
        """Internal fast path: table must already be keyed by svars order and
        hold no zero counts; values, when given, must be the values its keys
        hold."""
        mt = cls.__new__(cls)
        mt._set(svars, table, values)
        return mt

    @classmethod
    def _from_counts(cls, svars: tuple[str, ...], keys: Sequence[tuple[str, ...]],
                     counts: Iterable[int]) -> "Multiteam":
        """Internal: the team counting keys[i] counts[i] times, zero rows left out."""
        return cls._from_table(svars, {k: c for k, c in zip(keys, counts) if c})

    def __setattr__(self, name, value):
        raise AttributeError("Multiteam is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def size(self) -> int:
        """Sum of all multiplicities."""
        return self._size

    def position(self, var: str) -> int:
        try:
            return self._vars.index(var)
        except ValueError:
            raise InputError(f"unknown variable {_shown(var)}; team variables are "
                             f"{_shown(self._vars)}") from None

    def positions(self, variables: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.position(x) for x in variables)

    def row_items(self) -> list[tuple[tuple[str, ...], int]]:
        """Rows as (value-tuple, mult), sorted."""
        return sorted(self._rows.items())

    def rows(self) -> Iterator[tuple[Assignment, int]]:
        """(assignment, multiplicity) pairs in sorted row order."""
        for key, m in self.row_items():
            yield self.assignment(key), m

    def assignment(self, key: tuple[str, ...]) -> Assignment:
        return Assignment(dict(zip(self._vars, key)))

    def mult(self, row) -> int:
        key = self._coerce_row(row, list(self._vars), self._vars, list(range(len(self._vars))))
        return self._rows.get(key, 0)

    def support(self) -> "Multiteam":
        """Every row, each set to multiplicity exactly 1."""
        return Multiteam._from_table(self._vars, dict.fromkeys(self._rows, 1))

    def weak_flattening(self) -> "Multiteam":
        """The paper's name for the support: every row counted once."""
        return self.support()

    def select(self, variables: Sequence[str], values: Sequence[str]) -> "Multiteam":
        """The rows where s(variables) = values, with their multiplicities."""
        if len(variables) != len(values):
            raise InputError("select needs as many values as variables")
        pos = self.positions(variables)
        vals = tuple(values)
        table = {k: m for k, m in self._rows.items()
                 if tuple(k[i] for i in pos) == vals}
        return Multiteam._from_table(self._vars, table)

    def count(self, variables: Sequence[str], values: Sequence[str]) -> int:
        """Size of the selection, without building the team."""
        if len(variables) != len(values):
            raise InputError("count needs as many values as variables")
        pos = self.positions(variables)
        vals = tuple(values)
        return sum(m for k, m in self._rows.items() if tuple(k[i] for i in pos) == vals)

    def restrict(self, variables: Iterable[str]) -> "Multiteam":
        """Project rows onto a subset of the variables, summing multiplicities."""
        keep = tuple(sorted(set(variables)))
        return Multiteam._from_table(keep, self._projected(self.positions(keep)))

    def _projected(self, pos: Sequence[int]) -> dict[tuple[str, ...], int]:
        """Internal: the table of the rows cut to the slots pos, in that
        order, the counts of rows that agree there summed."""
        cut = _cutter(pos)
        table: dict[tuple[str, ...], int] = {}
        for k, m in self._rows.items():
            key = cut(k)
            table[key] = table.get(key, 0) + m
        return table

    def prob(self, variables: Sequence[str], values: Sequence[str]) -> Fraction:
        """Exact probability that the variables take the given values."""
        if self._size == 0:
            raise InputError("probability is undefined on an empty multiteam")
        return Fraction(self.count(variables, values), self._size)

    def disjoint_union(self, other: "Multiteam") -> "Multiteam":
        """Additive union of two multiteams over the same variables."""
        if self._vars != other._vars:
            raise InputError(
                f"disjoint union needs equal variable domains, got {_shown(self._vars)} "
                f"and {_shown(other._vars)}")
        table = dict(self._rows)
        for k, m in other._rows.items():
            table[k] = table.get(k, 0) + m
        return Multiteam._from_table(self._vars, table)

    def is_flat(self) -> bool:
        """True when every multiplicity is 1: no row is stored counted 0, so
        exactly when the size is the number of rows."""
        return self._size == len(self._rows)

    def values_used(self) -> frozenset[str]:
        if self._values is None:  # on first use, unless the loader knew them
            object.__setattr__(self, "_values", frozenset(chain.from_iterable(self._rows)))
        return self._values

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiteam):
            return NotImplemented
        return self._vars == other._vars and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:  # on first use: most teams are never hashed
            object.__setattr__(self, "_hash", hash((self._vars, frozenset(self._rows.items()))))
        return self._hash

    def __repr__(self) -> str:
        head = ",".join(self._vars)
        body = "; ".join(f"({','.join(k)}):{m}" for k, m in self.row_items())
        return f"Multiteam[{head}]{{{body}}}"


class Multistructure:
    """A multiset domain together with named relations over its support."""

    __slots__ = ("_domain", "_relations", "_hash")

    def __init__(self, domain: Multiset | Mapping[str, int] | Iterable[str],
                 relations: Mapping[str, tuple[int, Iterable[Sequence[str]]]] = ()):
        if not isinstance(domain, Multiset):
            domain = Multiset(domain)
        if domain.size == 0:
            raise InputError("structure domain must be nonempty")
        support = set(domain.support)
        rels: dict[str, tuple[int, frozenset[tuple[str, ...]]]] = {}
        for name, (arity, tuples) in dict(relations).items():
            _check_value(name, "relation name")
            if not isinstance(arity, int) or arity < 0:
                raise InputError(f"arity of {_shown(name)} must be a nonnegative integer, "
                                 f"got {_shown(arity)}")
            fixed = set()
            for tup in tuples:
                tup = tuple(tup)
                if len(tup) != arity:
                    raise InputError(f"tuple {_shown(tup)} does not match arity {arity} "
                                     f"of relation {_shown(name)}")
                for v in tup:
                    if not isinstance(v, str) or v not in support:
                        raise InputError(
                            f"tuple {_shown(tup)} of relation {_shown(name)} uses {_shown(v)}, "
                            "which is outside the domain support")
                fixed.add(tup)
            rels[name] = (arity, frozenset(fixed))
        object.__setattr__(self, "_domain", domain)
        object.__setattr__(self, "_relations", rels)
        object.__setattr__(self, "_hash", hash((domain, frozenset(
            (name, arity, tuples) for name, (arity, tuples) in rels.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("Multistructure is immutable")

    @property
    def domain(self) -> Multiset:
        return self._domain

    @property
    def relations(self) -> dict[str, tuple[int, frozenset[tuple[str, ...]]]]:
        return dict(self._relations)

    def arity(self, name: str) -> int:
        return self._rel(name)[0]

    def has(self, name: str, values: Sequence[str]) -> bool:
        arity, tuples = self._rel(name)
        values = tuple(values)
        if len(values) != arity:
            raise InputError(f"relation {name} has arity {arity}, got {len(values)} values")
        return values in tuples

    def _rel(self, name: str):
        try:
            return self._relations[name]
        except KeyError:
            raise InputError(f"unknown relation {_shown(name)}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multistructure):
            return NotImplemented
        return self._domain == other._domain and self._relations == other._relations

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rels = ", ".join(f"{name}/{arity}" for name, (arity, _) in sorted(self._relations.items()))
        return f"Multistructure(domain={self._domain!r}, relations=[{rels}])"
