"""Parser, printer, hash, repr, free-variable and formula-walk tests."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multiteam.errors import InputError, ParseError
from multiteam.formula import (ATOMS, CI, TRUE, And, Dep, Eq, Excl, Exists,
                               ExistsFrac, Forall, ForallFrac, Formula,
                               ImplFrac, Inc, Neq, NegRel, Or, PCI, PInc,
                               MAX_DIGITS, Rel, Threshold, free_vars, scan)
from multiteam.generate import FRAGMENTS, random_formula
from multiteam.model import Assignment, Multiteam, Multistructure
from multiteam.parser import MAX_DEPTH, parse
from multiteam.semantics import (_CONDITIONS, SemanticsConfig, _Eval, _reach, _validate,
                                 evaluate, evaluate_classical, witness)

import reference_eval


half = Threshold(Fraction(1, 2))
two_thirds = Threshold(Fraction(2, 3))


class TestParse:
    def test_dep_atom(self):
        assert parse("dep(x ; y)") == Dep(("x",), ("y",))

    def test_approx_over_disjunction(self):
        assert parse("<2/3>(x=y | x=z)") == ExistsFrac(
            two_thirds, Or(Eq("x", "y"), Eq("x", "z")))

    def test_quantified_probabilistic_atom(self):
        assert parse("E u. pind(x ; y ; z)") == Exists(
            "u", PCI(("x",), ("y",), ("z",)))

    def test_atom_variants(self):
        assert parse("inc(x,u ; y,v)") == Inc(("x", "u"), ("y", "v"))
        assert parse("excl(x ; y)") == Excl(("x",), ("y",))
        assert parse("ind(x ; y ; z)") == CI(("x",), ("y",), ("z",))
        assert parse("pinc(x ; y)") == PInc(("x",), ("y",))
        assert parse("~R(x,y)") == NegRel("R", ("x", "y"))
        assert parse("R(x)") == Rel("R", ("x",))
        assert parse("x != y") == Neq("x", "y")

    def test_marginal_sugar(self):
        assert parse("ind(x ; y)") == CI((), ("x",), ("y",))
        assert parse("pind(; x ; y)") == PCI((), ("x",), ("y",))
        assert parse("ind(;x;y)") == parse("ind(x ; y)")

    def test_constancy_sugar(self):
        assert parse("dep(x)") == Dep((), ("x",))
        assert parse("dep(; x)") == Dep((), ("x",))
        assert parse("dep(x ;)") == Dep(("x",), ())
        assert parse("dep(;)") == TRUE

    def test_precedence(self):
        assert parse("a=b & c=d | e=f") == Or(And(Eq("a", "b"), Eq("c", "d")), Eq("e", "f"))
        assert parse("<1/2> x=y | x=z") == Or(ExistsFrac(half, Eq("x", "y")), Eq("x", "z"))
        assert parse("[1/2] x=y & x=z") == And(ForallFrac(half, Eq("x", "y")), Eq("x", "z"))

    def test_quantifier_scope_maximal(self):
        assert parse("E x. x=y | x=z") == Exists("x", Or(Eq("x", "y"), Eq("x", "z")))
        assert parse("A x. E y. x=y & u=v") == Forall(
            "x", Exists("y", And(Eq("x", "y"), Eq("u", "v"))))

    def test_implication(self):
        f = parse("(dep(x ; y) ->{2/3} pinc(x ; y))")
        assert f == ImplFrac(two_thirds, Dep(("x",), ("y",)), PInc(("x",), ("y",)))
        # arrow binds loosest
        assert parse("x=y | x=z ->{1} u=v") == ImplFrac(
            Threshold(Fraction(1)), Or(Eq("x", "y"), Eq("x", "z")), Eq("u", "v"))

    def test_thresholds(self):
        assert parse("<1> x=y") == ExistsFrac(Threshold(Fraction(1)), Eq("x", "y"))
        assert parse("<0> x=y") == ExistsFrac(Threshold(Fraction(0)), Eq("x", "y"))
        assert parse("<#3> x=y") == ExistsFrac(Threshold(3, absolute=True), Eq("x", "y"))
        assert parse("[#0] x=y") == ForallFrac(Threshold(0, absolute=True), Eq("x", "y"))

    def test_nested_operators(self):
        f = parse("<1/2>[2/3] dep(x ; y)")
        assert f == ExistsFrac(half, ForallFrac(two_thirds, Dep(("x",), ("y",))))

    def test_whitespace_insensitive(self):
        assert parse("dep( x ;\n y )") == parse("dep(x;y)")


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("dep(x ; y")
        assert "line 1" in str(err.value)

    def test_position_tracks_lines(self):
        with pytest.raises(ParseError) as err:
            parse("x = y &\n  %")
        assert err.value.line == 2

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("inc(x,y ; z)")
        with pytest.raises(ParseError):
            parse("pinc(x ; y,z)")

    def test_ratio_out_of_range(self):
        with pytest.raises(ParseError):
            parse("<4/3> x=y")
        with pytest.raises(ParseError):
            parse("<2> x=y")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("<1/0> x=y")

    def test_digits_int_cannot_read(self):
        # '²' is a digit to str.isdigit but not a number to int()
        with pytest.raises(ParseError) as err:
            parse("<²> x=y")
        assert (str(err.value), err.value.col) == ("unexpected character '²' (line 1, column 2)", 2)

    def test_numbers_past_the_digit_limit(self):
        # a count, numerator or denominator of MAX_DIGITS digits parses; one
        # digit more is refused at its token, and Threshold refuses the
        # value just past the limit, named short
        top, past = "9" * MAX_DIGITS, 10 ** MAX_DIGITS
        for text, col in ((f"<#{top}9> x=y", 3), (f"<{top}9/1> x=y", 2), (f"<1/{top}9> x=y", 4)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.col == col
            assert f"over the limit of {MAX_DIGITS:,} digits: {MAX_DIGITS + 1:,} digits" in str(err.value)
        for text in (f"<#{top}> x = y", f"<1/{top}> x = y", f"<{top}/{top}> x = y"):
            assert str(parse(text)) == text.replace(f"<{top}/{top}>", "<1>")
        for value, absolute in ((past, True), (Fraction(1, past), False), (Fraction(past), False),
                                (Fraction(past - 1, past), False), (Fraction(-past, 3), False)):
            with pytest.raises(InputError) as err:
                Threshold(value, absolute)
            assert f"over the limit of {MAX_DIGITS:,} digits: " in str(err.value)
            assert str(err.value).endswith(f"({MAX_DIGITS + 1 + (value < 0):,} characters)")

    def test_group_count(self):
        with pytest.raises(ParseError):
            parse("dep(x ; y ; z)")
        with pytest.raises(ParseError):
            parse("ind(x ; y ; z ; u)")

    def test_reserved_words(self):
        with pytest.raises(ParseError):
            parse("dep = x")
        with pytest.raises(ParseError):
            parse("E E. E=x")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x = y x = z")

    def test_nesting_limit(self):
        # the highest accepted trees of the shapes that cost the most frames
        # per level still print, read back, evaluate, witness and hash
        n = MAX_DEPTH - 1
        highest = [" & ".join(["x=y"] * MAX_DEPTH),
                   "[1/2] " * n + "x=y",
                   " ->{1/2} ".join(["x=y"] * MAX_DEPTH),
                   "E u. " * n + "x=u",
                   "A u. " * n + "x=u"]
        structure = Multistructure({"0": 1, "1": 1})
        team = Multiteam(("x", "y"), [("0", "0"), ("0", "1")])
        for text in highest:
            f = parse(text)
            assert parse(str(f)) == f
            assert evaluate(structure, team, f) == witness(structure, team, f).holds
            hash(f)
            with pytest.raises(ParseError, match="nests too deeply"):
                parse("E v. " + text)
        assert parse("(" * 2 * n + "x=y" + ")" * 2 * n) == Eq("x", "y")
        with pytest.raises(ParseError, match="nests too deeply"):
            parse("(" * 2 * MAX_DEPTH + "x=y" + ")" * 2 * MAX_DEPTH)


class TestPrint:
    def test_goldens(self):
        assert str(Dep(("x",), ())) == "dep(x ;)"
        assert str(ForallFrac(half, Dep(("x",), ("y",)))) == "[1/2] dep(x ; y)"
        assert str(Dep((), ("x",))) == "dep(; x)"
        assert str(TRUE) == "dep(;)"
        assert str(Threshold(Fraction(1))) == "1"
        assert str(Threshold(4, absolute=True)) == "#4"

    def test_deep_formulas_print_without_recursion(self):
        # 400 levels, more than a printer recursing once per level reaches
        # at the default recursion limit; each chain's text in closed form
        n = 399
        leaf = Eq("x", "y")
        chains = [
            (lambda g: And(leaf, g), "(x = y & " * n + "x = y" + ")" * n),
            (lambda g: And(g, leaf), "(" * n + "x = y" + " & x = y)" * n),
            (lambda g: Or(leaf, g), "(x = y | " * n + "x = y" + ")" * n),
            (lambda g: Exists("u", g), "(E u. " * n + "x = y" + ")" * n),
            (lambda g: Forall("u", g), "(A u. " * n + "x = y" + ")" * n),
            (lambda g: ExistsFrac(half, g), "<1/2> " * n + "x = y"),
            (lambda g: ForallFrac(half, g), "[1/2] " * n + "x = y"),
            (lambda g: ImplFrac(half, leaf, g), "(x = y ->{1/2} " * n + "x = y" + ")" * n),
        ]
        for wrap, text in chains:
            f = leaf
            for _ in range(n):
                f = wrap(f)
            assert str(f) == text

    def test_implication_text(self):
        f = ImplFrac(two_thirds, TRUE, PInc(("x",), ("y",)))
        assert str(f) == "(dep(;) ->{2/3} pinc(x ; y))"
        assert parse(str(f)) == f


class TestThreshold:
    def test_ratio_bounds(self):
        with pytest.raises(InputError):
            Threshold(Fraction(5, 4))
        with pytest.raises(InputError):
            Threshold(Fraction(-1, 4))
        with pytest.raises(InputError):
            Threshold(-1, absolute=True)

    def test_exact_comparison(self):
        p = Threshold(Fraction(2, 3))
        assert p.min_size(3) == 2
        assert p.min_size(2) == 2
        assert p.min_size(0) == 0
        k = Threshold(2, absolute=True)
        assert k.min_size(1) == 2


class TestFreeVars:
    def test_atoms(self):
        assert free_vars(Dep(("x",), ("y",))) == {"x", "y"}
        assert free_vars(PCI(("x",), ("y",), ("z",))) == {"x", "y", "z"}
        assert free_vars(CI((), ("x",), ("y",))) == {"x", "y"}

    def test_binding(self):
        assert free_vars(parse("E x. x=y")) == {"y"}
        assert free_vars(parse("A x. E y. x=y")) == set()
        assert free_vars(parse("(E x. x=y) & x=z")) == {"x", "y", "z"}

    def test_operators(self):
        assert free_vars(parse("<1/2> dep(x ; y)")) == {"x", "y"}
        assert free_vars(parse("(x=y ->{1} u=v)")) == {"x", "y", "u", "v"}


# --- the six dependency atoms ---------------------------------------------

def test_each_keyword_names_one_atom_class():
    assert {kw: cls.__name__ for kw, cls in ATOMS.items()} == {
        "dep": "Dep", "inc": "Inc", "excl": "Excl", "ind": "CI", "pinc": "PInc", "pind": "PCI"}
    assert {kw for kw, cls in ATOMS.items() if cls.same_length} == {"inc", "excl", "pinc"}


def test_variable_names_are_in_the_model_alphabet():
    # the search names the columns of the teams it builds after a formula's
    # variables, so a name outside the alphabet would make a witness team
    # whose dump does not load back
    with pytest.raises(InputError):
        Exists("y z", Eq("x", "y z"))
    for bad in ("y z", "a,b", "#", "a\tb", "", "v" * 131_073, 1, None):
        for build in (lambda: Eq("x", bad), lambda: Neq(bad, "x"),
                      lambda: Rel("R", ("x", bad)), lambda: NegRel("R", (bad,)),
                      lambda: Exists(bad, Eq("x", "x")), lambda: Forall(bad, Eq("x", "x"))):
            with pytest.raises(InputError):
                build()
    with pytest.raises(InputError) as err:
        Eq("x", "v" * 131_073)
    assert str(err.value) == ("equality expects variable names, "
                              "got 'vvvvvvvvvvvvvvvv'... (131,073 characters)")
    longest = "v" * 131_072
    assert Forall(longest, Eq(longest, "x")).body.x == longest

@pytest.mark.parametrize("kw", sorted(ATOMS))
def test_atom_constructors_check_their_groups(kw):
    # every group must hold names in the alphabet, checked in field order; the
    # sides of inc, excl and pinc must be equally long; a valid atom prints
    # to text that parses back to it, and its free variables are its groups'
    cls = ATOMS[kw]
    good = [("x", "u"), ("y", "y"), ("z",)][:len(cls.__match_args__)]
    atom = cls(*good)
    assert atom.groups == tuple(good) and atom.keyword == kw
    assert cls(*map(list, good)) == atom == cls(**dict(zip(cls.__match_args__, good)))
    assert hash(atom) == hash(atom.groups)  # the dataclass's field-tuple hash
    assert parse(str(atom)) == atom
    assert free_vars(atom) == frozenset().union(*atom.groups)
    for k in range(len(good)):
        for bad in (1, "", None, "y z"):
            groups = list(good)
            groups[k] = (groups[k][0], bad)
            with pytest.raises(InputError) as err:
                cls(*groups)
            assert str(err.value) == f"{kw} expects variable names, got {bad!r}"
    if cls.same_length:
        for xs, ys in ((("a",), ("b", "c")), ((), ("b",)), (("a", "b"), ())):
            with pytest.raises(InputError) as err:
                cls(xs, ys)
            assert str(err.value) == f"{kw} needs equally long sides, got {len(xs)} and {len(ys)}"
    else:
        assert str(cls((), *good[1:])) == f"{kw}(; {' ; '.join(','.join(g) for g in good[1:])})"


# --- parse/print round trip over random ASTs ---------------------------

names = st.sampled_from(["x", "y", "z", "u", "v"])
tuples = st.lists(names, max_size=3).map(tuple)
pairs = st.tuples(tuples, tuples).filter(lambda g: len(g[0]) == len(g[1]))
TOP = 10 ** MAX_DIGITS - 1  # the largest count, numerator or denominator
thresholds = st.one_of(
    st.integers(0, 6).map(lambda n: Threshold(Fraction(n, 6))),
    st.integers(0, 4).map(lambda n: Threshold(n, absolute=True)),
    st.sampled_from([Threshold(TOP, absolute=True), Threshold(Fraction(1, TOP)),
                     Threshold(Fraction(TOP - 1, TOP))]))


def formulas() -> st.SearchStrategy[Formula]:
    atoms = st.one_of(
        st.tuples(names, names).map(lambda p: Eq(*p)),
        st.tuples(names, names).map(lambda p: Neq(*p)),
        tuples.map(lambda t: Rel("R", t)),
        tuples.map(lambda t: NegRel("S", t)),
        st.tuples(tuples, tuples).map(lambda g: Dep(*g)),
        pairs.map(lambda g: Inc(*g)),
        pairs.map(lambda g: Excl(*g)),
        pairs.map(lambda g: PInc(*g)),
        st.tuples(tuples, tuples, tuples).map(lambda g: CI(*g)),
        st.tuples(tuples, tuples, tuples).map(lambda g: PCI(*g)),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(names, sub).map(lambda p: Exists(*p)),
            st.tuples(names, sub).map(lambda p: Forall(*p)),
            st.tuples(thresholds, sub).map(lambda p: ExistsFrac(*p)),
            st.tuples(thresholds, sub).map(lambda p: ForallFrac(*p)),
            st.tuples(thresholds, sub, sub).map(lambda p: ImplFrac(*p)),
        ),
        max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_parse_print_round_trip(f):
    assert parse(str(f)) == f


def recursive_text(f: Formula) -> str:
    """The printer as one recursive call per level, for comparison."""
    if isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        return f"({recursive_text(f.left)} {op} {recursive_text(f.right)})"
    if isinstance(f, (Exists, Forall)):
        q = "E" if isinstance(f, Exists) else "A"
        return f"({q} {f.var}. {recursive_text(f.body)})"
    if isinstance(f, ExistsFrac):
        return f"<{f.p}> {recursive_text(f.body)}"
    if isinstance(f, ForallFrac):
        return f"[{f.p}] {recursive_text(f.body)}"
    if isinstance(f, ImplFrac):
        return f"({recursive_text(f.left)} ->{{{f.p}}} {recursive_text(f.right)})"
    return str(f)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_printer_gives_the_recursive_printers_text(f):
    assert str(f) == recursive_text(f)


# --- hash and repr of a formula of any height ---------------------------

COMPOUNDS = (And, Or, Exists, Forall, ExistsFrac, ForallFrac, ImplFrac)


def generated(cls):
    """A dataclass with cls's name and fields, whose __hash__ and __repr__
    are the ones the decorator writes, recursing once per level."""
    mirror = type(cls.__name__, (), {
        "__annotations__": {name: object for name in cls.__match_args__},
        "__qualname__": cls.__qualname__})
    return dataclasses.dataclass(frozen=True)(mirror)


MIRRORS = {cls: generated(cls) for cls in COMPOUNDS}


def mirrored(f):
    """f rebuilt from the generated classes, leaves and thresholds kept."""
    mirror = MIRRORS.get(type(f))
    if mirror is None:
        return f
    return mirror(*[mirrored(getattr(f, name)) for name in type(f).__match_args__])


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_hash_and_repr_are_the_generated_ones(f):
    assert repr(f) == repr(mirrored(f))
    assert hash(f) == hash(mirrored(f))
    g = parse(str(f))
    assert g == f and not g != f and hash(g) == hash(f)


@pytest.mark.parametrize("cls", COMPOUNDS, ids=lambda cls: cls.__name__)
def test_hash_and_repr_of_formulas_built_deep(cls):
    # 1,200 levels, more than the generated methods reach at the default
    # recursion limit; two chains built apart are equal and hash equal, and
    # differ from a chain with another leaf
    leaf = Eq("x", "y")
    wrap = {And: lambda g: And(leaf, g), Or: lambda g: Or(g, leaf),
            Exists: lambda g: Exists("u", g), Forall: lambda g: Forall("u", g),
            ExistsFrac: lambda g: ExistsFrac(half, g), ForallFrac: lambda g: ForallFrac(half, g),
            ImplFrac: lambda g: ImplFrac(half, leaf, g)}[cls]
    chains = []
    for _ in range(2):
        f = leaf
        for _ in range(1199):
            f = wrap(f)
        chains.append(f)
    first, second = chains
    assert first is not second and hash(first) == hash(second)
    assert len({first, second}) == 1
    other = Eq("x", "z")
    for _ in range(1199):
        other = wrap(other)
    assert first != other and other not in {first}
    text = repr(first)
    assert text.startswith(f"{cls.__name__}(") and text.count(f"{cls.__name__}(") == 1199
    assert text.count("Eq(x='x', y='y')") == (1200 if cls in (And, Or, ImplFrac) else 1)
    # the text of a short chain is the generated text
    f = leaf
    for _ in range(3):
        f = wrap(f)
    assert repr(f) == repr(mirrored(f)) and hash(f) == hash(mirrored(f))


# --- one walk reads a formula, checked against the walks it replaced -------

WALK_TEXTS = [
    "x = y", "R(x) & ~S(x,y)", "E x. (S(x,y) | A y. ~R(y))", "A x. E x. x = y",
    "<1/2> (S(u,v) ->{#1} R(u))", "[2/3] (dep(x ; y) & E z. ind(z ; x ; y))",
    "((S(x,y,z) & R()) | Q(x)) & E q. ~Q(q,q)", "E u. E v. (pinc(u ; v) | pind(u ; v ; w))",
    "(R(a) ->{1/3} (E a. R(a) & ~R(b))) | [#2] <1> excl(a, b ; c, d)",
]


def random_dag(rng, steps):
    """A formula built bottom-up from a pool whose later nodes take earlier
    ones as subformulas, so that subformulas are often shared objects: every
    node kind, variables u, v, x, y, relations R/1, S/2 and T/0."""
    names = ("u", "v", "x", "y")

    def pick(k):
        return tuple(rng.choice(names) for _ in range(k))

    pool = [Eq(*pick(2)), Neq(*pick(2)), Rel("R", pick(1)), NegRel("S", pick(2)),
            Rel("T", ()), Dep(pick(1), pick(1)), Inc(pick(2), pick(2)), Excl(pick(1), pick(1)),
            CI(pick(1), pick(1), pick(2)), PInc(pick(1), pick(1)), PCI((), pick(1), pick(1))]
    for _ in range(steps):
        recent = pool[-6:]
        a, b, var = rng.choice(recent), rng.choice(pool), rng.choice(names)
        pool.append(rng.choice([And(a, b), Or(b, a), Exists(var, a), Forall(var, a),
                                ExistsFrac(half, a), ForallFrac(two_thirds, a),
                                ImplFrac(half, a, b)]))
    return pool[-1]


def deep_chains():
    """For each compound kind, chains around MAX_DEPTH levels and far above."""
    leaf = Rel("S", ("x", "u"))
    wrap = {And: lambda g: And(leaf, g), Or: lambda g: Or(g, NegRel("R", ("y",))),
            Exists: lambda g: Exists("u", g), Forall: lambda g: Forall("x", g),
            ExistsFrac: lambda g: ExistsFrac(half, g), ForallFrac: lambda g: ForallFrac(half, g),
            ImplFrac: lambda g: ImplFrac(half, leaf, g)}
    for cls, step in wrap.items():
        f, built = leaf, 1
        for levels in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2, 300):
            while built < levels:
                f, built = step(f), built + 1
            yield f


def first_seen(nodes):
    return list(dict.fromkeys(id(g) for g in nodes))


def assert_scan_is_the_old_walks(f, tree):
    height, free, uses, problem, counts = scan(f)
    assert problem is None
    assert counts == any(isinstance(g, (PInc, PCI, ExistsFrac, ForallFrac, ImplFrac))
                         for g in reference_eval.subformulas(f))
    assert height == reference_eval.height(f)
    assert free == reference_eval.free_vars(f) == free_vars(f)
    used = [g for g in reference_eval.subformulas(f) if isinstance(g, (Rel, NegRel))]
    if tree:  # every relation atom once, in the order subformulas listed them
        assert [id(g) for g in uses] == [id(g) for g in used]
    else:  # a shared atom may be met more than once, first in that order
        assert first_seen(uses) == first_seen(used)
    for limit in (0, 1, height - 1, height, MAX_DEPTH):
        assert scan(f, limit)[0] == min(height, limit + 1)


def test_one_walk_reads_what_the_three_walks_read():
    rng = random.Random("one walk")
    for fragment in sorted(FRAGMENTS):
        for depth in range(6):
            for _ in range(40):
                f = random_formula(rng, ("x", "y", "z"), fragment=fragment, max_depth=depth)
                assert_scan_is_the_old_walks(f, tree=True)
    for text in WALK_TEXTS:
        assert_scan_is_the_old_walks(parse(text), tree=True)
    for f in deep_chains():
        assert_scan_is_the_old_walks(f, tree=True)
    for steps in range(1, 12):
        for _ in range(60):
            assert_scan_is_the_old_walks(random_dag(rng, steps), tree=False)


BAD_FIELDS = ["s", None, 5, ("x",), Formula()]


def not_formulas():
    """Compounds with a value that is not a formula node in a subformula's
    place, alone, twice, and under chains at and around the height limit."""
    eq = Eq("x", "y")
    for bad in BAD_FIELDS:
        yield bad
        yield And(eq, bad)
        yield Or(bad, Eq("u", "v"))
        yield Exists("x", bad)
        yield ImplFrac(half, And(eq, Rel("R", ("x",))), bad)
        yield And(Or(eq, bad), ForallFrac(half, 7))
        for levels in (MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 3):
            f = And(eq, bad)
            for _ in range(levels - 1):
                f = ExistsFrac(half, f)
            yield f


def message(call, *args):
    try:
        call(*args)
    except InputError as exc:
        return type(exc), str(exc)
    return None


def test_values_that_are_not_formulas_are_named_as_before():
    for f in not_formulas():
        want = message(reference_eval.free_vars, f)
        assert want is not None and want == message(free_vars, f)
        if isinstance(f, Formula):  # a value that is no formula has no height
            assert scan(f, MAX_DEPTH)[0] == min(reference_eval.height(f), MAX_DEPTH + 1)
        if reference_eval.height(f) <= MAX_DEPTH:
            assert scan(f, MAX_DEPTH)[3] == want[1]


def test_closure_and_conditions_are_read_as_before():
    run = _Eval(Multistructure({"0": 1}), SemanticsConfig(), False)
    closed = run._closed

    def conditions(g):  # the conjuncts the search sorts, filtered to conditions
        return [c for c in _reach(g, (And,)) if c.__class__ in _CONDITIONS]

    rng = random.Random("closure")
    cases = [(random_formula(rng, ("x", "y"), fragment=fragment, max_depth=depth), True)
             for fragment in sorted(FRAGMENTS) for depth in range(6) for _ in range(30)]
    cases += [(parse(text), True) for text in WALK_TEXTS]
    cases += [(f, False) for f in deep_chains()]  # their leaves are shared
    cases += [(random_dag(rng, steps), False) for steps in range(1, 12) for _ in range(40)]
    kinds = set()
    for f, tree in cases:
        for g in {id(g): g for g in reference_eval.subformulas(f)}.values():
            assert closed(g) == reference_eval.closed(g)
            kinds.add((type(g), closed(g)))
            got, want = conditions(g), reference_eval.conditions(g)
            if tree:
                assert [id(c) for c in got] == [id(c) for c in want]
            else:  # a shared conjunct is listed once, where first met
                assert [id(c) for c in got] == first_seen(want)
    assert {(cls, verdict) for cls in (And, Or, Exists, Forall) for verdict in (True, False)} <= kinds
    assert conditions(None) == reference_eval.conditions(None) == []


def invalid_inputs():
    """(structure, team, formula, config) that the entry check refuses, with
    several faults at once, so that which one is named first matters."""
    s = Multistructure({"0": 1, "1": 1}, {"R": (1, [("0",)]), "S": (2, [])})
    flat = Multiteam(("x", "y"), [("0", "1")])
    stray = Multiteam(("x", "y"), [("0", "7")])
    doubled = Multiteam(("x", "y"), {("0", "1"): 2})
    lax, set_lax = SemanticsConfig(), SemanticsConfig("set", "lax")
    bad_arity, unknown = Rel("R", ("x", "y")), NegRel("Q", ("x",))
    for f in not_formulas():
        yield s, flat, f, lax
        yield s, flat, And(Eq("z", "z"), f) if isinstance(f, Formula) else f, lax
    texts = ["R(x,y) & ~Q(x)", "~Q(x) | R(x,y)", "E z. (S(z) & R(z,z))", "A x. ~S(x) & Q()",
             "<1/2> (R(x) ->{#1} (S(x,y) | R(x,y)))", "R(x,y) & w = w", "E w. (Q(w) & u = v)"]
    deep, scoped = bad_arity, Eq("v", "v")
    for _ in range(MAX_DEPTH):
        deep, scoped = And(deep, Neq("w", "x")), Forall("v", scoped)
    for f in [parse(text) for text in texts] + [deep, scoped]:
        for team in (flat, stray, doubled):
            for cfg in (lax, set_lax):
                yield s, team, f, cfg
    yield Multistructure({"0": 2}), flat, Eq("x", "y"), set_lax
    yield s, flat, And(bad_arity, unknown), lax
    yield s, flat, And(unknown, bad_arity), lax
    shared = And(bad_arity, unknown)
    yield s, flat, Or(Exists("q", shared), And(unknown, shared)), lax


def test_the_entry_check_names_the_same_fault_first():
    refused = 0
    for structure, team, f, cfg in invalid_inputs():
        want = message(reference_eval.reference_validate, structure, team, f, cfg)
        assert message(_validate, structure, team, f, cfg) == want
        refused += want is not None
    assert refused > 150


def test_classical_evaluation_reports_what_it_reported():
    # the height check reads the one walk; what is not first-order, or not a
    # formula at all, is still found by the evaluation
    s = Multistructure({"0": 1, "1": 1}, {"R": (1, [("0",)])})
    a = Assignment({"x": "0", "y": "1"})
    for f, want in [(And(Eq("x", "x"), "s"), "str is not first-order"),
                    (Or(Neq("x", "y"), None), None),
                    (And(Rel("R", ("x",)), Dep(("x",), ("y",))), "Dep is not first-order"),
                    (Exists("u", 5), "int is not first-order")]:
        got = message(evaluate_classical, s, a, f)
        assert got == (None if want is None else (InputError, want))
