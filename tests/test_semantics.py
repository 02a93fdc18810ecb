"""Evaluator tests: worked multiteams with known verdicts, the Tarskian
single-assignment oracle, and brute-force enumerations of splits and
supplement functions."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from multiteam.errors import InputError
from multiteam.formula import (And, Dep, Eq, Exists, Forall, Inc, Neq, NegRel,
                               Or, PInc, Rel)
from multiteam.model import Assignment, Multiset, Multiteam, Multistructure
from multiteam.parser import parse
from multiteam.semantics import (SemanticsConfig, _extender, enum_or_splits,
                                 enum_supplements, evaluate,
                                 evaluate_classical, extend_universal, witness)

STRUCT01 = Multistructure({"0": 1, "1": 1}, {"R": (1, [("0",)])})
STRUCT012 = Multistructure({"0": 1, "1": 1, "2": 1})

LAX_MULTI = SemanticsConfig("multi", "lax")
STRICT_MULTI = SemanticsConfig("multi", "strict")
LAX_SET = SemanticsConfig("set", "lax")
STRICT_SET = SemanticsConfig("set", "strict")
ALL_CFGS = (LAX_MULTI, STRICT_MULTI, LAX_SET, STRICT_SET)


# --- worked examples ---

def test_split_with_overlap_needs_strict_multiplicities():
    # two copies of the first row can go to different disjuncts, which no
    # plain set of rows can imitate
    t = Multiteam(("x", "y", "z"),
                  {("0", "0", "1"): 2, ("1", "2", "0"): 1, ("2", "1", "0"): 1})
    f = parse("inc(x ; z) | inc(y ; z)")
    assert evaluate(STRUCT012, t, f, STRICT_MULTI)
    flat = t.weak_flattening()
    assert not evaluate(STRUCT012, flat, f, STRICT_SET)
    assert not evaluate(STRUCT012, flat, f, STRICT_MULTI)
    assert evaluate(STRUCT012, flat, f, LAX_SET)
    assert evaluate(STRUCT012, flat, f, LAX_MULTI)


def test_combinability_versus_count_independence_through_the_evaluator():
    t = Multiteam(("x", "y"),
                  {("0", "0"): 2, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1})
    assert evaluate(STRUCT01, t, parse("ind(; x ; y)"), LAX_MULTI)
    assert not evaluate(STRUCT01, t, parse("pind(; x ; y)"), LAX_MULTI)


def test_empty_multiteam_satisfies_everything():
    empty = Multiteam.empty(("x", "y"))
    corpus = ["x=y", "x!=y", "R(x)", "~R(x)", "dep(x ; y)", "inc(x ; y)",
              "excl(x ; y)", "ind(x ; y ; x)", "pinc(x ; y)", "pind(; x ; y)",
              "(x=y | dep(x ;))", "E u. x=u", "A u. (u=u & pinc(x ; y))",
              "<1/2> dep(x ; y)", "[2/3] pinc(x ; y)",
              "(dep(x ;) ->{1/2} inc(x ; x))"]
    for text in corpus:
        for cfg in ALL_CFGS:
            assert evaluate(STRUCT01, empty, parse(text), cfg), text


def split_pairs(t, cfg):
    """Every (Y, Z) split, each left part Y with each of its right parts."""
    return [(y, z) for y, zs in enum_or_splits(t, cfg) for z in zs]


def test_or_split_options_per_row():
    single = Multiteam(("x",), [("0",)])
    assert len(split_pairs(single, STRICT_MULTI)) == 2
    assert len(split_pairs(single, LAX_MULTI)) == 3
    double = Multiteam(("x",), {("0",): 2})
    assert len(split_pairs(double, STRICT_MULTI)) == 3
    assert len(split_pairs(double, LAX_MULTI)) == 6
    # one left part per count vector, each listed once
    assert [y.size for y, _ in enum_or_splits(double, LAX_MULTI)] == [0, 1, 2]


def test_the_overlapping_strict_split_is_enumerated():
    t = Multiteam(("x", "y", "z"),
                  {("0", "0", "1"): 2, ("1", "2", "0"): 1, ("2", "1", "0"): 1})
    y = Multiteam(("x", "y", "z"), {("0", "0", "1"): 1, ("1", "2", "0"): 1})
    z = Multiteam(("x", "y", "z"), {("0", "0", "1"): 1, ("2", "1", "0"): 1})
    assert (y, z) in set(split_pairs(t, STRICT_MULTI))


def test_supplement_counts_for_a_singleton_row():
    t = Multiteam(("x",), [("0",)])
    dom = Multiset({"0": 1, "1": 1})
    assert len(list(enum_supplements(t, "u", dom, STRICT_MULTI))) == 2
    assert len(list(enum_supplements(t, "u", dom, LAX_MULTI))) == 3
    assert len(list(enum_supplements(t, "u", dom, STRICT_SET))) == 2
    assert len(list(enum_supplements(t, "u", dom, LAX_SET))) == 3


def test_supplement_copies_choose_independently():
    # two copies, each picking a nonempty subset of {0,1}: 3x3 function
    # choices collapsing to 6 distinct results
    t = Multiteam(("x",), {("0",): 2})
    dom = Multiset({"0": 1, "1": 1})
    got = list(enum_supplements(t, "u", dom, LAX_MULTI))
    assert len(got) == 6
    assert len(set(got)) == 6


def test_universal_extension_multiplies():
    t = Multiteam(("x",), {("0",): 2})
    dom = Multiset({"0": 1, "1": 2})
    out = extend_universal(t, "u", dom)
    assert out.variables == ("u", "x")
    assert out.mult(("0", "0")) == 2
    assert out.mult(("1", "0")) == 4
    assert out.size == t.size * dom.size


def test_universal_extension_with_unit_domain_is_plain_duplication():
    t = Multiteam(("x",), [("0",), ("1",)])
    out = extend_universal(t, "u", Multiset(["0", "1"]))
    assert sorted(k for k, _ in out.row_items()) == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    assert all(m == 1 for _, m in out.row_items())


def test_rebinding_a_variable_overwrites_it():
    t = Multiteam(("x", "y"), [("0", "0"), ("1", "0")])
    out = extend_universal(t, "x", Multiset(["0", "1"]))
    assert out.variables == ("x", "y")
    assert out.mult(("0", "0")) == 2
    assert out.size == 4


# --- brute-force supplement oracle: enumerate the choice functions ---

def brute_supplements(t, x, dom, strict):
    per_copy = [u for u in itertools.product(*[range(n + 1) for _, n in dom.items()])
                if (sum(u) == 1 if strict else sum(u) >= 1)]
    copies = [key for key, m in t.row_items() for _ in range(m)]
    new_vars, place = _extender(t.variables, x)
    values = [v for v, _ in dom.items()]
    results = set()
    for combo in itertools.product(per_copy, repeat=len(copies)):
        table = {}
        for key, u in zip(copies, combo):
            for value, c in zip(values, u):
                if c:
                    nk = place(key, value)
                    table[nk] = table.get(nk, 0) + c
        results.add(Multiteam._from_table(new_vars, table))
    return results


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_supplements_match_the_choice_function_enumeration(data):
    rows = data.draw(st.dictionaries(
        st.tuples(st.sampled_from("01"), st.sampled_from("01")),
        st.integers(min_value=1, max_value=2), min_size=1, max_size=2))
    dom = Multiset(data.draw(st.dictionaries(
        st.sampled_from("012"), st.integers(min_value=1, max_value=2),
        min_size=1, max_size=2)))
    t = Multiteam(("x", "y"), rows)
    for strictness in ("lax", "strict"):
        cfg = SemanticsConfig("multi", strictness)
        got = list(enum_supplements(t, "u", dom, cfg))
        assert len(got) == len(set(got))
        assert set(got) == brute_supplements(t, "u", dom, strictness == "strict")


# --- random formulas against the single-assignment oracle ---

FO_VARS = ("x", "y", "u", "w")


def fo_formulas(max_leaves=5):
    v = st.sampled_from(FO_VARS)
    leaves = st.one_of(
        st.builds(Eq, v, v),
        st.builds(Neq, v, v),
        st.builds(Rel, st.just("R"), st.tuples(v)),
        st.builds(NegRel, st.just("R"), st.tuples(v)))
    return st.recursive(
        leaves,
        lambda c: st.one_of(
            st.builds(And, c, c), st.builds(Or, c, c),
            st.builds(Exists, st.sampled_from(("u", "w")), c),
            st.builds(Forall, st.sampled_from(("u", "w")), c)),
        max_leaves=max_leaves)


def unit_teams():
    return st.sets(
        st.tuples(*[st.sampled_from("01")] * len(FO_VARS)), max_size=3
    ).map(lambda rows: Multiteam(FO_VARS, list(rows)))


@settings(max_examples=150, deadline=None)
@given(fo_formulas(), unit_teams(), st.sampled_from(("lax", "strict")))
def test_first_order_satisfaction_is_pointwise(f, t, strictness):
    cfg = SemanticsConfig("set", strictness)
    expected = all(evaluate_classical(STRUCT01, s, f) for s, _ in t.rows())
    assert evaluate(STRUCT01, t, f, cfg) == expected


@settings(max_examples=150, deadline=None)
@given(fo_formulas(), unit_teams(), st.sampled_from(("lax", "strict")))
def test_set_and_multiteam_semantics_agree_on_unit_multiplicities(f, t, strictness):
    assert (evaluate(STRUCT01, t, f, SemanticsConfig("set", strictness))
            == evaluate(STRUCT01, t, f, SemanticsConfig("multi", strictness)))


def full_formulas(max_leaves=4):
    v = st.sampled_from(FO_VARS)
    group = st.lists(v, min_size=0, max_size=2).map(tuple)
    pair = st.integers(min_value=0, max_value=2).flatmap(
        lambda n: st.tuples(st.tuples(*[v] * n), st.tuples(*[v] * n)))
    leaves = st.one_of(
        st.builds(Eq, v, v),
        st.builds(Rel, st.just("R"), st.tuples(v)),
        st.builds(Dep, group, group),
        pair.map(lambda g: Inc(*g)),
        pair.map(lambda g: PInc(*g)))
    return st.recursive(
        leaves,
        lambda c: st.one_of(
            st.builds(And, c, c), st.builds(Or, c, c),
            st.builds(Exists, st.sampled_from(("u", "w")), c),
            st.builds(Forall, st.sampled_from(("u", "w")), c)),
        max_leaves=max_leaves)


def small_multiteams(max_mult=2):
    return st.dictionaries(
        st.tuples(*[st.sampled_from("01")] * len(FO_VARS)),
        st.integers(min_value=1, max_value=max_mult), max_size=3
    ).map(lambda rows: Multiteam(FO_VARS, rows))


@settings(max_examples=100, deadline=None)
@given(full_formulas(), small_multiteams())
def test_strict_satisfaction_implies_lax(f, t):
    if evaluate(STRUCT01, t, f, STRICT_MULTI):
        assert evaluate(STRUCT01, t, f, LAX_MULTI)


@settings(max_examples=100, deadline=None)
@given(full_formulas(), small_multiteams(), st.sampled_from(("lax", "strict")))
def test_cache_is_semantics_transparent(f, t, strictness):
    cfg = SemanticsConfig("multi", strictness)
    assert (evaluate(STRUCT01, t, f, cfg, use_cache=True)
            == evaluate(STRUCT01, t, f, cfg, use_cache=False))


@settings(max_examples=80, deadline=None)
@given(full_formulas(), small_multiteams(), st.sampled_from(ALL_CFGS))
def test_witness_nodes_reevaluate_to_their_verdict(f, t, cfg):
    if cfg.team_kind == "set":
        t = t.support()
    stack = [witness(STRUCT01, t, f, cfg)]
    assert stack[0].holds == evaluate(STRUCT01, t, f, cfg)
    # the cache stores the witnesses themselves, so it must not change them
    assert stack[0] == witness(STRUCT01, t, f, cfg, use_cache=False)
    while stack:
        node = stack.pop()
        assert evaluate(STRUCT01, node.team, node.formula, cfg) == node.holds
        stack.extend(node.parts)


# --- the single-assignment evaluator itself ---

def test_classical_evaluation():
    s = Assignment({"x": "0", "y": "0"})
    assert evaluate_classical(STRUCT01, s, parse("x=y"))
    assert evaluate_classical(STRUCT01, s, parse("R(x)"))
    t = Assignment({"x": "0", "y": "1"})
    assert not evaluate_classical(STRUCT01, t, parse("x=y"))
    assert evaluate_classical(STRUCT01, t, parse("(x=y | x!=y)"))
    assert evaluate_classical(STRUCT01, t, parse("E u. (u=x & R(u))"))
    assert not evaluate_classical(STRUCT01, t, parse("A u. u=x"))


def test_classical_evaluation_rejects_team_atoms():
    s = Assignment({"x": "0", "y": "0"})
    for text in ("dep(x ; y)", "pinc(x ; y)", "<1/2> x=y"):
        with pytest.raises(InputError):
            evaluate_classical(STRUCT01, s, parse(text))


# --- entry validation ---

def test_evaluate_rejects_malformed_inputs():
    t = Multiteam(("x",), [("0",)])
    with pytest.raises(InputError):
        evaluate(STRUCT01, t, parse("x=y"), LAX_MULTI)  # y unbound
    with pytest.raises(InputError):
        evaluate(STRUCT01, Multiteam(("x",), [("7",)]), parse("x=x"), LAX_MULTI)
    with pytest.raises(InputError):
        evaluate(STRUCT01, Multiteam(("x",), {("0",): 2}), parse("x=x"), LAX_SET)
    with pytest.raises(InputError):
        evaluate(Multistructure({"0": 2}), t, parse("x=x"), LAX_SET)
    with pytest.raises(InputError):
        evaluate(STRUCT01, t, parse("S(x)"), LAX_MULTI)  # unknown relation
    with pytest.raises(InputError):
        evaluate(STRUCT01, t, parse("R(x,x)"), LAX_MULTI)  # arity mismatch


def test_threshold_flavor_must_match_the_configuration():
    t = Multiteam(("x",), [("0",)])
    with pytest.raises(InputError):
        evaluate(STRUCT01, t, parse("<#1> x=x"), LAX_MULTI)
    with pytest.raises(InputError):
        evaluate(STRUCT01, t, parse("<1/2> x=x"),
                 SemanticsConfig("multi", "lax", "absolute"))
    assert evaluate(STRUCT01, t, parse("<#1> x=x"),
                    SemanticsConfig("multi", "lax", "absolute"))
