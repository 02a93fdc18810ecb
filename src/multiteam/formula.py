"""Formula AST for first-order logic with dependency atoms, probabilistic
atoms, and approximation operators.

Nodes are frozen dataclasses; `str()` of a node is the canonical text form,
which the parser maps back to an equal AST, printed by one loop rather than
a call per level, so a formula of any height prints.  Negation appears only on
relational and equality atoms, so there is no negation node: the negated
forms `x != y` and `~R(...)` are atoms of their own.

The six dependency atoms share one base, `_Atom`: each declares its fields,
which are its variable groups in text order, its keyword, whether its
sides must be equally long, and when its groups alone make it valid (true
on every multiteam, `valid`), and `ATOMS` maps each keyword to its class for
the parser and the generator.  `ind(xs ; ys ; zs)` conditions on the first
group, i.e. it asserts that ys and zs are independent once xs is fixed, and
likewise for `pind`.  `scan` reads height, free variables, relation atoms
and whether the formula counts rows in one walk; no walk here recurses, and
only printing repeats a shared node.
Every variable name a node holds is checked against the model's alphabet,
so a team the search builds over a formula's variables dumps and loads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, methodcaller
from typing import Optional, Sequence, Union

from .errors import InputError
from .model import _check_value, _shown

__all__ = [
    "MAX_DIGITS", "Threshold", "Formula", "Eq", "Neq", "Rel", "NegRel", "And", "Or",
    "Exists", "Forall", "Dep", "Inc", "Excl", "CI", "PInc", "PCI",
    "ExistsFrac", "ForallFrac", "ImplFrac", "TRUE", "ATOMS",
    "free_vars", "scan",
]


#: Most decimal digits of a threshold's count, numerator or denominator:
#: below the 4,300 digits past which Python refuses to print an int, so
#: every threshold prints and parses back.
MAX_DIGITS = 4000
_PAST_DIGITS = 10 ** MAX_DIGITS


def _check_digits(what: str, v: int) -> None:
    if not -_PAST_DIGITS < v < _PAST_DIGITS:
        raise InputError(f"threshold {what} is over the limit of {MAX_DIGITS:,} digits: {_shown(v)}")


@dataclass(frozen=True, slots=True)
class Threshold:
    """A size bound for the approximation operators.

    Ratio thresholds hold a Fraction p in [0,1] and bound a part Y of a whole
    X by |Y| >= p*|X| (compared exactly, |Y|*den >= num*|X|).  Absolute
    thresholds hold a natural number k and bound |Y| >= k.  A count,
    numerator or denominator has at most MAX_DIGITS digits.
    """

    value: Union[Fraction, int]
    absolute: bool = False

    def __post_init__(self):
        value = self.value
        if self.absolute:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InputError(f"absolute threshold must be a nonnegative integer, got {_shown(value)}")
            _check_digits("count", value)
        else:
            value = Fraction(value)
            _check_digits("numerator", value.numerator)
            _check_digits("denominator", value.denominator)
            if not 0 <= value <= 1:
                raise InputError(f"ratio threshold must lie in [0,1], got "
                                 f"{_shown(value.numerator)}/{_shown(value.denominator)}")
            object.__setattr__(self, "value", value)

    def min_size(self, whole_size: int) -> int:
        """Smallest part size meeting the bound (may exceed whole_size)."""
        if self.absolute:
            return self.value
        num, den = self.value.numerator, self.value.denominator
        return -(-num * whole_size // den)  # ceiling division

    def __str__(self) -> str:
        if self.absolute:
            return f"#{self.value}"
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"{self.value.numerator}/{self.value.denominator}"


class Formula:
    """Base class of all AST nodes."""

    __slots__ = ()


def _render(f: Formula, pieces=methodcaller("_pieces")) -> str:
    """The text of f, printed without recursion as its compounds' pieces."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, _Compound):
            stack.extend(reversed(pieces(item)))
        else:
            out.append(item if isinstance(item, str) else str(item))
    return "".join(out)


class _Compound(Formula):
    """A node built from subformulas.  `_form` is its text in order: strings
    as printed, and the index of each field printed in its place, so one loop
    prints a formula of any height from its compounds' pieces (see `_render`)."""

    __slots__ = ()
    _form: tuple
    __str__ = _render

    def _pieces(self) -> list:
        return [p if p.__class__ is str else getattr(self, self.__match_args__[p])
                for p in self._form]


def _check_var(node: str, x: str) -> str:
    try:
        return _check_value(x)
    except InputError:
        raise InputError(f"{node} expects variable names, got {_shown(x)}") from None


def _check_vars(node: str, variables: Sequence[str]) -> tuple[str, ...]:
    out = tuple(variables)
    for x in out:
        _check_var(node, x)
    return out


@dataclass(frozen=True, slots=True)
class Eq(Formula):
    x: str
    y: str

    def __post_init__(self):
        _check_vars("equality", (self.x, self.y))

    def __str__(self) -> str:
        return f"{self.x} = {self.y}"


@dataclass(frozen=True, slots=True)
class Neq(Formula):
    x: str
    y: str

    def __post_init__(self):
        _check_vars("inequality", (self.x, self.y))

    def __str__(self) -> str:
        return f"{self.x} != {self.y}"


@dataclass(frozen=True, slots=True)
class Rel(Formula):
    name: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", _check_vars("relation atom", self.args))

    def __str__(self) -> str:
        return f"{self.name}({','.join(self.args)})"


@dataclass(frozen=True, slots=True)
class NegRel(Formula):
    name: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", _check_vars("negated relation atom", self.args))

    def __str__(self) -> str:
        return f"~{self.name}({','.join(self.args)})"


@dataclass(frozen=True, slots=True)
class And(_Compound):
    left: Formula
    right: Formula
    _form = ("(", 0, " & ", 1, ")")


@dataclass(frozen=True, slots=True)
class Or(_Compound):
    left: Formula
    right: Formula
    _form = ("(", 0, " | ", 1, ")")


@dataclass(frozen=True, slots=True)
class Exists(_Compound):
    var: str
    body: Formula
    # parenthesized because the quantifier scope extends maximally to the right
    _form = ("(E ", 0, ". ", 1, ")")

    def __post_init__(self):
        _check_var("E", self.var)


@dataclass(frozen=True, slots=True)
class Forall(_Compound):
    var: str
    body: Formula
    _form = ("(A ", 0, ". ", 1, ")")

    def __post_init__(self):
        _check_var("A", self.var)


class _Atom(Formula):
    """A dependency atom: `keyword` names it in the text form, its fields are
    its variable groups in text order (`groups`, see ATOMS), and
    `same_length` says that its two sides must be equally long.  `valid`
    says whether the groups alone make the atom hold on every multiteam in
    every mode; it is worked out on each read, so no node stores it.  The
    checks and the printed form are shared."""

    __slots__ = ()
    keyword = ""
    same_length = False
    groups: tuple[tuple[str, ...], ...]
    valid = False

    def __post_init__(self):
        for name in self.__match_args__:
            object.__setattr__(self, name, _check_vars(self.keyword, getattr(self, name)))
        if self.same_length and len(self.xs) != len(self.ys):
            raise InputError(f"{self.keyword} needs equally long sides, "
                             f"got {len(self.xs)} and {len(self.ys)}")

    def __str__(self) -> str:
        text = " ; ".join(",".join(g) for g in self.groups).strip()
        return f"{self.keyword}({text})"


def _same_sides(f) -> bool:
    """Both sides are one variable tuple: each row's xs-value is its own
    ys-value, counted as often."""
    return f.xs == f.ys


def _conditioned_away(f) -> bool:
    """Trivial independence: ys or zs lies among the xs f conditions on, so
    within one xs-value it takes one value, independent of the other."""
    xs = set(f.xs)
    return xs.issuperset(f.ys) or xs.issuperset(f.zs)


@dataclass(frozen=True, slots=True)
class Dep(_Atom):
    """Functional dependence: xs determines ys.  dep(; ys) asserts constancy."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]
    keyword = "dep"
    # reflexivity: rows that agree on xs agree on any ys among xs
    valid = property(lambda self: set(self.xs).issuperset(self.ys))


@dataclass(frozen=True, slots=True)
class Inc(_Atom):
    """Inclusion: every value of xs occurs as a value of ys."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]
    keyword, same_length = "inc", True
    valid = property(_same_sides)


@dataclass(frozen=True, slots=True)
class Excl(_Atom):
    """Exclusion: xs and ys share no value tuple."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]
    keyword, same_length = "excl", True


@dataclass(frozen=True, slots=True)
class CI(_Atom):
    """Conditional independence of ys and zs given xs (combinability of rows)."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]
    zs: tuple[str, ...]
    keyword = "ind"
    valid = property(_conditioned_away)


@dataclass(frozen=True, slots=True)
class PInc(_Atom):
    """Probabilistic inclusion: each xs value tuple occurs at most as often as ys takes it."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]
    keyword, same_length = "pinc", True
    valid = property(_same_sides)


@dataclass(frozen=True, slots=True)
class PCI(_Atom):
    """Probabilistic conditional independence given xs: the exact count product equation."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]
    zs: tuple[str, ...]
    keyword = "pind"
    valid = property(_conditioned_away)


#: The dependency atoms by keyword: the one place a keyword names a class.
ATOMS = {cls.keyword: cls for cls in (Dep, Inc, Excl, CI, PInc, PCI)}

# An atom's fields in order, read in one call: `scan` and the search's
# projections read them on every check.
for _cls in ATOMS.values():
    _cls.groups = property(attrgetter(*_cls.__match_args__))


@dataclass(frozen=True, slots=True)
class ExistsFrac(_Compound):
    """Some submultiteam of at least the threshold size satisfies the body."""

    p: Threshold
    body: Formula
    _form = ("<", 0, "> ", 1)


@dataclass(frozen=True, slots=True)
class ForallFrac(_Compound):
    """Every submultiteam of at least the threshold size satisfies the body."""

    p: Threshold
    body: Formula
    _form = ("[", 0, "] ", 1)


@dataclass(frozen=True, slots=True)
class ImplFrac(_Compound):
    """Every submultiteam of at least the threshold size satisfying the
    antecedent also satisfies the consequent."""

    p: Threshold
    left: Formula
    right: Formula
    _form = ("(", 1, " ->{", 0, "} ", 2, ")")


class _HashOf:
    """Stands in a field tuple for a subformula whose hash is known."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _hash(f: _Compound) -> int:
    """hash(f) as the dataclass defines it, the hash of the tuple of f's
    fields, worked out from the leaves up without recursion."""
    known: dict[int, int] = {}
    stack: list[_Compound] = [f]
    while stack:
        g = stack[-1]
        if id(g) in known:
            stack.pop()
            continue
        fields = [getattr(g, name) for name in g.__match_args__]
        todo = [v for v in fields if isinstance(v, _Compound) and id(v) not in known]
        if todo:
            stack += todo
            continue
        stack.pop()
        known[id(g)] = hash(tuple(_HashOf(known[id(v)]) if isinstance(v, _Compound) else v
                                  for v in fields))
    return known[id(f)]


def _eq(f: _Compound, other) -> bool:
    """f == other as the dataclass defines it, field by field, compared
    without recursion and each pair of compounds once."""
    if other.__class__ is not f.__class__:
        return NotImplemented
    stack, seen = [(f, other)], set()
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        if a.__class__ is not b.__class__:
            return False
        if isinstance(a, _Compound):
            seen.add((id(a), id(b)))
            stack += [(getattr(a, name), getattr(b, name)) for name in a.__match_args__]
        elif a != b:
            return False
    return True


def _repr_pieces(f: _Compound) -> list:
    """The pieces of repr(f) as the dataclass writes it, for `_render`."""
    pieces = [type(f).__qualname__, "("]
    for k, name in enumerate(f.__match_args__):
        value = getattr(f, name)
        pieces += [", " if k else "", name, "=",
                   value if isinstance(value, _Compound) else repr(value)]
    return pieces + [")"]


# The dataclass decorator writes a recursive __eq__, __hash__ and __repr__
# into each class; these give the same answers for a formula of any height.
_COMPOUNDS = frozenset({And, Or, Exists, Forall, ExistsFrac, ForallFrac, ImplFrac})
for _cls in _COMPOUNDS:
    _cls.__eq__ = _eq
    _cls.__hash__ = _hash
    _cls.__repr__ = lambda self: _render(self, _repr_pieces)


#: `dep(;)` requires nothing of any row, so it is satisfied by every
#: multiteam in every mode: a convenient syntactic truth constant.
TRUE = Dep((), ())


def scan(f: Formula, limit: Optional[int] = None
         ) -> tuple[int, set[str], list[Formula], Optional[str], bool]:
    """Read f in one walk without recursion: its height, free variables,
    relation atoms in the order met from the top, left to right, a message
    naming the first value in a subformula's place that is not a formula node
    (else None), and whether f counts rows: holds `pinc`, `pind`, `<p>`,
    `[p]` or `->{p}`.  With limit, stop at a node deeper than limit.  A
    compound is walked again only deeper or under fewer bound variables, then
    at the greater depth under the variables bound on both paths: each walk
    lowers (limit - depth) + (bound variables), so at most limit + 1 walks a
    node."""
    height, free, uses, problem, counts, walked = 0, set(), [], None, False, {}
    stack = [(f, 1, frozenset())]
    while stack:
        g, depth, bound = stack.pop()
        cls = g.__class__
        if cls in _COMPOUNDS:
            last, shared = walked.get(id(g), (0, bound))
            if depth <= last and bound >= shared:
                continue
            depth, bound = max(depth, last), bound & shared
            walked[id(g)] = depth, bound
            if cls is Exists or cls is Forall:
                stack.append((g.body, depth + 1, bound | {g.var}))
            elif cls is ExistsFrac or cls is ForallFrac:
                counts = True
                stack.append((g.body, depth + 1, bound))
            else:
                counts = counts or cls is ImplFrac
                stack += ((g.right, depth + 1, bound), (g.left, depth + 1, bound))
        else:
            if cls is Eq or cls is Neq:
                names = (g.x, g.y)
            elif cls is Rel or cls is NegRel:
                names = g.args
                uses.append(g)
            elif isinstance(g, _Atom):
                counts = counts or cls is PInc or cls is PCI
                names = [x for group in g.groups for x in group]
            else:
                problem = problem or f"not a formula node: {g!r}"
                if not isinstance(g, Formula):
                    continue
                names = ()
            free.update([x for x in names if x not in bound] if bound else names)
        if depth > height:
            height = depth
            if limit is not None and height > limit:
                break
    return height, free, uses, problem, counts


def free_vars(f: Formula) -> frozenset[str]:
    """The free variables of a formula; quantifiers bind their variable."""
    _, free, _, problem, _ = scan(f)
    if problem:
        raise InputError(problem)
    return frozenset(free)
