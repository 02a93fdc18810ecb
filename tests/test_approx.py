"""Size-bounded part quantifiers: worked examples, degenerate thresholds,
and the bridge to approximate functional dependence."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multiteam.approx import _bound_as_threshold, enum_bounded_submultisets
from multiteam.atoms import eval_dep
from multiteam.errors import InputError
from multiteam.formula import TRUE, ExistsFrac, ForallFrac, ImplFrac, Threshold
from multiteam.model import Multiset, Multiteam, Multistructure
from multiteam.parser import parse
from multiteam.semantics import SemanticsConfig, _Space, _walk, evaluate
from reference_eval import bounded_parts

STRUCT012 = Multistructure({"0": 1, "1": 1, "2": 1})
STRUCT01 = Multistructure({"0": 1, "1": 1})
LAX_MULTI = SemanticsConfig("multi", "lax")
ALL_CFGS = [SemanticsConfig(kind, strictness)
            for kind in ("set", "multi") for strictness in ("lax", "strict")]

# three unit rows over x, y, z; only the first has x=y, only the second x=z
X3 = Multiteam(("x", "y", "z"), [("0", "0", "1"), ("0", "1", "0"), ("0", "1", "2")])


def test_part_quantifier_does_not_distribute_over_split():
    assert evaluate(STRUCT012, X3, parse("<2/3>(x=y | x=z)"), LAX_MULTI)
    assert not evaluate(STRUCT012, X3, parse("(<2/3> x=y | <2/3> x=z)"), LAX_MULTI)


def _submteam(small, big):
    """Is small a submultiteam of big: same variables, no row counted more?"""
    return (small.variables == big.variables
            and all(m <= big.mult(key) for key, m in small.row_items()))


def test_part_satisfaction_is_not_downward_closed():
    f = parse("<1/3> x=y")
    assert evaluate(STRUCT012, X3, f, LAX_MULTI)
    sub = Multiteam(("x", "y", "z"), [("0", "1", "0"), ("0", "1", "2")])
    assert _submteam(sub, X3)
    assert not evaluate(STRUCT012, sub, f, LAX_MULTI)


# the x/y pairs whose disjoint unions drive the universal-part example
S1, S2, S3 = ("0", "1"), ("1", "0"), ("0", "0")


def test_universal_part_quantifier_is_not_union_closed():
    f = parse("[2/3] pinc(x ; y)")
    k = Multiteam(("x", "y"), [S1, S2])
    l = Multiteam(("x", "y"), [S3])
    m = k.disjoint_union(l)
    assert evaluate(STRUCT01, k, f, LAX_MULTI)
    assert evaluate(STRUCT01, l, f, LAX_MULTI)
    assert not evaluate(STRUCT01, m, f, LAX_MULTI)
    # the failing two-row part also fails the atom outright
    n = Multiteam(("x", "y"), [S2, S3])
    assert not evaluate(STRUCT01, n, parse("pinc(x ; y)"), LAX_MULTI)


def test_degenerate_thresholds():
    f = parse("pinc(x ; y)")
    some_full = parse("<1/1> pinc(x ; y)")
    some_empty = parse("<0/1> pinc(x ; y)")
    every_part = parse("[0/1] pinc(x ; y)")
    only_full = parse("[1/1] pinc(x ; y)")
    teams = [Multiteam(("x", "y"), rows) for rows in
             ([S1, S2], [S2, S3], {S1: 2, S3: 1}, [])]
    for t in teams:
        verdict = evaluate(STRUCT01, t, f, LAX_MULTI)
        assert evaluate(STRUCT01, t, some_full, LAX_MULTI) == verdict
        assert evaluate(STRUCT01, t, only_full, LAX_MULTI) == verdict
        assert evaluate(STRUCT01, t, some_empty, LAX_MULTI)
        assert evaluate(STRUCT01, t, every_part, LAX_MULTI) == all(
            evaluate(STRUCT01, y, f, LAX_MULTI)
            for y in enum_bounded_submultisets(t, 0))


def test_bounded_submultiset_enumeration():
    t = Multiteam(("x",), [("0",), ("1",), ("2",)])
    two_thirds = list(enum_bounded_submultisets(t, Fraction(2, 3)))
    assert len(two_thirds) == 4
    assert [y.size for y in two_thirds] == [2, 2, 2, 3]
    assert len(list(enum_bounded_submultisets(t, 0))) == 8
    assert list(enum_bounded_submultisets(t, 4)) == []
    weighted = Multiteam(("x",), {("0",): 2, ("1",): 1})
    assert [y.size for y in enum_bounded_submultisets(weighted, 2)] == [2, 2, 3]


def exact_parts(t, threshold):
    """The parts of t of the smallest size meeting the bound: the
    unconditioned walk at that size."""
    space, counts = _Space.rooted(t)
    size = _bound_as_threshold(threshold).min_size(t.size)
    return [space.team(y) for y in _walk(counts, None, size)]


def test_exact_size_parts_are_the_bound_size_slice_of_all_parts():
    # the parts of the bound size, and all parts from that size on, are the
    # recursive reference's, and the first are the slice of all parts at
    # that size
    rng = random.Random(4)
    for _ in range(300):
        rows = {(str(i),): rng.randint(1, 3) for i in range(rng.randint(0, 5))}
        t = Multiteam(("x",), rows)
        everything = list(enum_bounded_submultisets(t, 0))
        assert everything == list(bounded_parts(t, 0))
        for needed in {0, t.size, t.size + 1, rng.randint(0, t.size)}:
            exact = exact_parts(t, needed)
            assert exact == list(bounded_parts(t, needed, exact=True))
            assert exact == [y for y in everything if y.size == needed]
            assert list(enum_bounded_submultisets(t, needed)) == list(
                bounded_parts(t, needed)) == [y for y in everything if y.size >= needed]
    assert exact_parts(X3, Fraction(2, 3)) == [
        Multiteam(X3.variables, rows) for rows in
        ([X3.row_items()[1][0], X3.row_items()[2][0]],
         [X3.row_items()[0][0], X3.row_items()[2][0]],
         [X3.row_items()[0][0], X3.row_items()[1][0]])]


def test_parts_come_one_at_a_time_without_recursion():
    # 2^64 parts: only a lazy enumerator reaches the first one
    wide = Multiteam(("x",), [(str(i),) for i in range(64)])
    first = next(enum_bounded_submultisets(wide, 1))
    assert first == Multiteam(("x",), [("9",)])  # the last row in sorted order
    space, counts = _Space.rooted(wide)
    assert space.team(next(_walk(counts, None, 1))) == first
    tall = Multiteam(("x",), [(str(i),) for i in range(2000)])
    assert next(enum_bounded_submultisets(tall, 1)).size == 1
    assert next(enum_bounded_submultisets(tall, 1999)).size == 1999
    space, counts = _Space.rooted(tall)
    assert sum(next(_walk(counts, None, 1999))) == 1999


def test_enumeration_accepts_threshold_objects():
    t = Multiteam(("x",), {("0",): 2})
    assert [y.size for y in enum_bounded_submultisets(t, Threshold(Fraction(1, 2)))] == [1, 2]
    assert [y.size for y in enum_bounded_submultisets(t, Threshold(2, absolute=True))] == [2]
    with pytest.raises(InputError):
        list(enum_bounded_submultisets(t, "half"))


def test_functional_entry_points():
    # the operator nodes built in code, not parsed, go straight to evaluate
    two_thirds = Threshold(Fraction(2, 3))
    assert evaluate(STRUCT012, X3, ExistsFrac(two_thirds, parse("(x=y | x=z)")))
    assert not evaluate(STRUCT012, X3, ForallFrac(Threshold(Fraction(1, 3)), parse("x=y")))
    assert evaluate(STRUCT012, X3, ImplFrac(two_thirds, parse("x!=x"), parse("x=y")))
    with pytest.raises(InputError):
        evaluate(STRUCT012, X3, ExistsFrac(Threshold(Fraction(3, 2)), parse("x=y")))


def test_absolute_bounds_count_rows():
    t = Multiteam(("x", "y"), [("0", "0"), ("1", "1"), ("0", "1")])
    empty = Multiteam.empty(("x", "y"))
    for cfg in ALL_CFGS:
        assert evaluate(STRUCT01, t, parse("<#2> x=y"), cfg)
        assert not evaluate(STRUCT01, t, parse("<#3> x=y"), cfg)
        assert evaluate(STRUCT01, t, ExistsFrac(Threshold(2, absolute=True), parse("x=y")), cfg)
        # an absolute bound above zero is unattainable on the empty multiteam
        assert not evaluate(STRUCT01, empty, parse("<#1> x=y"), cfg)
        assert evaluate(STRUCT01, empty, parse("<#0> x=y"), cfg)


# --- approximate dependence: delete at most a (1-p) fraction of the rows ---

def approx_dep_oracle(t, xs, ys, p):
    """May some rows, at most (1-p) of the total count, be deleted so that
    the rest satisfies dep?  Deletion enumerated copy by copy."""
    copies = [key for key, m in t.row_items() for _ in range(m)]
    budget = t.size - Threshold(p).min_size(t.size)
    for r in range(budget + 1):
        for removed in itertools.combinations(range(len(copies)), r):
            kept = [key for i, key in enumerate(copies) if i not in removed]
            if eval_dep(Multiteam._from_table(t.variables, _tally(kept)), xs, ys):
                return True
    return False


def _tally(keys):
    table = {}
    for k in keys:
        table[k] = table.get(k, 0) + 1
    return table


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.sampled_from("012"), st.sampled_from("01")),
                       st.integers(min_value=1, max_value=2), max_size=4),
       st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]))
def test_part_quantified_dependence_is_bounded_deletion(rows, p):
    t = Multiteam(("x", "y"), rows)
    f = parse(f"<{p.numerator}/{p.denominator}> dep(x ; y)")
    assert evaluate(STRUCT012, t, f, LAX_MULTI) == approx_dep_oracle(t, ("x",), ("y",), p)


# --- the universal part quantifier through implication ---

@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.sampled_from("01"), st.sampled_from("01")),
                       st.integers(min_value=1, max_value=2), max_size=3),
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]))
def test_universal_part_is_implication_from_truth(rows, p):
    t = Multiteam(("x", "y"), rows)
    body = parse("pinc(x ; y)")
    lhs = evaluate(STRUCT01, t, ForallFrac(Threshold(p), body))
    rhs = evaluate(STRUCT01, t, ImplFrac(Threshold(p), TRUE, body))
    assert lhs == rhs
