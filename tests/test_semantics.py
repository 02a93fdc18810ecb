"""Evaluator tests: worked multiteams with known verdicts, the Tarskian
single-assignment oracle, brute-force enumerations of splits and
supplement functions, and the kept reference search (`reference_eval`)."""

import collections
import contextlib
import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_eval
from multiteam import atoms, cli, semantics
from multiteam.errors import InputError
from multiteam.formula import (ATOMS, CI, PCI, And, Dep, Eq, Excl, Exists, ExistsFrac,
                               Forall, ForallFrac, ImplFrac, Inc, Neq, NegRel, Or, PInc,
                               Rel, Threshold, free_vars, scan)
from multiteam.generate import (FRACTIONS, budgeted_formula, estimate_cost, random_formula,
                                random_structure, random_team)
from multiteam.io import dump_multiteam, dump_structure, load_multiteam, load_structure
from multiteam.model import Assignment, Multiset, Multiteam, Multistructure
from multiteam.parser import MAX_DEPTH, parse
from multiteam.reductions import (CnfFormula, encode_3sat, encode_maxsat,
                                  maxsat_oracle, sat_oracle)
from multiteam.semantics import (_CONDITIONS, SemanticsConfig, _copy_choices, _Eval,
                                 _Extension, _reach, _Space, _split_vectors, _walk,
                                 enum_or_splits, enum_supplements, evaluate,
                                 evaluate_classical, extend_universal, part_vectors,
                                 witness)
from reference_eval import (_copy_choices as reference_copy_choices, _extender,
                            _vectors_of_size as reference_vectors_of_size,
                            reference_extension, reference_witness)

ROOT = Path(__file__).resolve().parents[1]
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
    empty = Multiteam(("x", "y"))
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


def test_extended_rows_are_listed_as_the_sort_lists_them():
    # the child space is built in order, without sorting its rows; the
    # sort-based construction it replaced gives the same keys and targets,
    # and the universal vector is the scatter-add of m(s)*n(a) over them
    rng = random.Random(7)
    pool = ("b", "d", "f", "h")
    for _ in range(1500):
        variables = tuple(sorted(rng.sample(pool, rng.randint(0, 4))))
        values = ["0", "1", "2", "q"][:rng.randint(1, 4)]  # "q" lies outside dom
        keys = sorted({tuple(rng.choice(values) for _ in variables)
                       for _ in range(rng.randint(0, 12))})
        dom = Multiset({v: rng.randint(1, 3) for v in rng.sample(("0", "1", "2"),
                                                                rng.randint(1, 3))})
        for var in ("a", "c", "e", "z") + variables:  # new first, middle, last; rebound
            ext = _Extension(_Space(variables, keys), var, dom)
            want = reference_extension(variables, keys, var, dom)
            got = (ext.space.variables, ext.space.keys, [list(row) for row in ext.targets])
            assert got == want, (variables, keys, var, dom)
            mults = [n for _, n in dom.items()]
            assert ext.mults == mults
            counts = tuple(rng.randint(0, 3) for _ in keys)
            flat = tuple(min(m, 1) for m in counts)
            for vec in (counts, flat):
                scatter = [0] * len(want[1])
                for m, row in zip(vec, want[2]):
                    for j, n in zip(row, mults):
                        scatter[j] += m * n
                assert ext.universal(vec, False) == tuple(scatter), (keys, var, dom, vec)
            if max(mults) == 1:  # set mode: flat team, flat domain; scatter is flat's
                assert ext.universal(flat, True) == tuple(min(c, 1) for c in scatter), (
                    keys, var, dom, flat)


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
    # new before, new after, or rebound: a rebound x or y can send two rows'
    # copies to one child row, so distinct choices can give one supplement
    var = data.draw(st.sampled_from(("u", "x", "y", "z")))
    t = Multiteam(("x", "y"), rows)
    for strictness in ("lax", "strict"):
        cfg = SemanticsConfig("multi", strictness)
        got = list(enum_supplements(t, var, dom, cfg))
        assert len(got) == len(set(got))
        assert set(got) == brute_supplements(t, var, dom, strictness == "strict")


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


# --- locality: evaluate searches the free-variable projection ---

@settings(max_examples=200, deadline=None)
@given(full_formulas(), small_multiteams(max_mult=3),
       st.sampled_from((LAX_MULTI, STRICT_MULTI, LAX_SET)))
def test_the_projected_search_keeps_the_verdict(f, t, cfg):
    # witness searches the team's own rows; evaluate their projection, in
    # set lax mode clipped to a set when f counts no rows
    assume(free_vars(f) < set(t.variables))
    if cfg.team_kind == "set":
        t = t.support()
    for c in (True, False):
        assert evaluate(STRUCT01, t, f, cfg, use_cache=c) == witness(STRUCT01, t, f, cfg).holds


def test_the_projected_search_keeps_the_search_pool_verdicts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import logic
    import workloads
    projected = set_projected = 0
    for i in range(0, workloads.POOL_SIZE, 4):
        structure_text, team_text, term, flat, _ = workloads.search_instance(i)
        structure, t = load_structure(structure_text), load_multiteam(team_text)
        f = parse(logic.render(term))
        cut = free_vars(f) < set(t.variables)
        projected += cut
        cfgs = [LAX_MULTI, STRICT_MULTI]
        if flat:
            cfgs.append(LAX_SET)
            set_projected += cut and not scan(f)[4]
        for cfg in cfgs:
            want = witness(structure, t, f, cfg).holds
            for c in (True, False):
                assert evaluate(structure, t, f, cfg, use_cache=c) == want, (i, cfg, c)
    assert projected > workloads.POOL_SIZE // 16
    assert set_projected > workloads.POOL_SIZE // 64


def test_a_set_team_that_counts_rows_keeps_its_own_rows():
    # <2/3> R(x) holds on the part {(a,0), (b,0)}; the restriction to x is
    # the set {0, 1}, whose only part of size 2 fails R(x)
    structure = Multistructure(["a", "b", "c", "0", "1"], {"R": (1, [("0",)])})
    t = Multiteam(("u", "x"), [("a", "0"), ("b", "0"), ("c", "1")])
    f = parse("<2/3> R(x)")
    for c in (True, False):
        assert evaluate(structure, t, f, LAX_SET, use_cache=c)
    assert not evaluate(structure, t.restrict(["x"]).support(), f, LAX_SET)


def test_a_multiteam_restriction_counts_the_rows_it_merges():
    # the same team in the multi modes: its restriction to x counts x=0
    # twice, from (a,0) and (b,0), so the part {0, 0} meets the bound
    structure = Multistructure(["a", "b", "c", "0", "1"], {"R": (1, [("0",)])})
    t = Multiteam(("u", "x"), [("a", "0"), ("b", "0"), ("c", "1")])
    for cfg, c in itertools.product((LAX_MULTI, STRICT_MULTI), (True, False)):
        assert evaluate(structure, t, parse("<2/3> R(x)"), cfg, use_cache=c), (cfg, c)


def test_evaluate_searches_the_projection_and_witness_the_team(monkeypatch):
    # A u. dep(a,u ; b) reads a and b, 8 rows of the 1,024: the universal
    # extension has 64 rows, not 8,192; set strict mode, a set-lax formula
    # that counts rows, and witness keep the team
    dom = [f"v{i}" for i in range(8)]
    structure = Multistructure(dom)
    t = Multiteam(("a", "b", "c", "d", "e"),
                  {(a, dom[-1 - i], c, d, e): 1 + (i + j) % 3
                   for i, a in enumerate(dom) for j, c in enumerate(dom)
                   for d in dom[:2] for e in dom})
    f = parse("A u. dep(a,u ; b)")
    sizes, roots, init, rooted = [], [], _Space.__init__, _Space.rooted.__func__

    def recording(self, variables, keys):
        sizes.append(len(keys))
        init(self, variables, keys)

    def root_counts(cls, *args):
        got = rooted(cls, *args)
        roots.append(got[1])
        return got

    monkeypatch.setattr(_Space, "__init__", recording)
    monkeypatch.setattr(_Space, "rooted", classmethod(root_counts))
    for cfg in (LAX_MULTI, STRICT_MULTI):
        sizes.clear()
        assert evaluate(structure, t, f, cfg)
        assert sizes == [8, 64], cfg
        sizes.clear()
        assert witness(structure, t, f, cfg).holds
        assert sizes == [1024, 8192], cfg
    flat = t.support()
    sizes.clear()
    roots.clear()
    assert evaluate(structure, flat, f, LAX_SET)
    assert sizes == [8, 64] and roots == [(1,) * 8]  # the restriction is a set
    for g, cfg in ((f, STRICT_SET), (parse("<1/2> A u. dep(a,u ; b)"), LAX_SET),
                   (parse("A u. dep(a,u ; b) & pinc(a ; a)"), LAX_SET)):
        sizes.clear()
        assert evaluate(structure, flat, g, cfg)
        assert sizes == [1024, 8192], (g, cfg)
        sizes.clear()
        assert witness(structure, flat, g, cfg).holds
        assert sizes == [1024, 8192], (g, cfg)
    sizes.clear()
    assert witness(structure, flat, f, LAX_SET).holds
    assert sizes == [1024, 8192]


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


# --- closure-aware pruning ---

@contextlib.contextmanager
def unpruned(monkeypatch):
    """Inside, the evaluator knows no formula to be downward closed and no
    necessary closed condition, so every search runs in full."""
    with monkeypatch.context() as m:
        m.setattr(_Eval, "_closed", lambda self, f: False)
        m.setattr(_Eval, "_prune", lambda self, *sides: None)
        m.setattr(semantics, "_lifted", lambda f: [])
        yield


def conditions_of(f):
    """The literal and `dep` conjuncts of f, reached through `&` alone: the
    conjuncts the search sorts (`_reach`), filtered to conditions."""
    return [g for g in _reach(f, (And,)) if g.__class__ in _CONDITIONS]


def random_instances(seed, per_mode, fragments=("dep", "fo", "full")):
    """Seeded (structure, team, formula, cfg) draws in all four modes."""
    for fragment in fragments:
        for cfg in ALL_CFGS:
            rng = random.Random(f"{seed}-{fragment}-{cfg.team_kind}-{cfg.strictness}")
            mult = 2 if cfg.team_kind == "multi" else 1
            for _ in range(per_mode):
                structure = random_structure(rng, max_dom=3)
                t = random_team(rng, ("x", "y"), structure, max_rows=4, max_mult=mult)
                f = budgeted_formula(rng, ("x", "y"), fragment=fragment, rows=4,
                                     mult=mult, dom_size=3, cfgs=[cfg], budget=50_000)
                yield structure, t, f, cfg


def test_pruned_search_finds_the_same_witness_trees(monkeypatch):
    # 3 fragments x 4 modes x 84 = 1,008 draws, each with the cache on and off
    instances = list(random_instances("prune", 84))
    pruned = [witness(s, t, f, cfg, use_cache=c)
              for s, t, f, cfg in instances for c in (True, False)]
    with unpruned(monkeypatch):
        full = [witness(s, t, f, cfg, use_cache=c)
                for s, t, f, cfg in instances for c in (True, False)]
    assert pruned == full
    assert 0 < sum(w.holds for w in pruned) < len(pruned)


def test_vector_search_finds_the_reference_witness_trees():
    # 3 fragments x 4 modes x 84 = 1,008 draws, each with the cache on and off,
    # against the search that builds a Multiteam per candidate
    for s, t, f, cfg in random_instances("reference", 84):
        for c in (True, False):
            assert witness(s, t, f, cfg, use_cache=c) == reference_witness(
                s, t, f, cfg, use_cache=c), (str(f), t, cfg, c)


def test_checking_an_encoding_builds_no_multiteam_per_candidate(monkeypatch):
    # whole clauses x1, ~x1, x2, ~x3: unsatisfiable, so every one of the
    # C(12, 4) = 495 candidate parts of the 12-row team is tried
    phi = CnfFormula(tuple(((v, p),) * 3 for v, p in
                           (("x1", 0), ("x1", 1), ("x2", 0), ("x3", 1))))
    inst = encode_3sat(phi)
    built = []
    original = Multiteam._from_table.__func__

    def counting(cls, svars, table):
        built.append(table)
        return original(cls, svars, table)

    monkeypatch.setattr(Multiteam, "_from_table", classmethod(counting))
    for cfg in (LAX_MULTI, STRICT_MULTI):
        assert not evaluate(inst.structure, inst.team, inst.formula, cfg)
    assert len(built) <= 2  # at most one per check, however many parts it tries
    built.clear()
    assert not reference_witness(inst.structure, inst.team, inst.formula, STRICT_MULTI,
                                 use_cache=False).holds
    assert len(built) >= 495  # the reference builds one per candidate part


# --- prefix pruning: the row-by-row walk ---

def test_a_walk_without_conditions_is_the_plain_enumeration():
    # unconditioned, the walk is the one enumerator of count vectors: every
    # vector below counts in row-vector order, with a size the recursive
    # reference's vectors of that size, from size needed on the bounded
    # parts, and at size m over d values the strict copy choices
    rng = random.Random(15)
    shapes = [(), (0,), (0, 0), (2,), (1, 0, 2), (2, 1, 1, 3), (1,) * 6] + [
        tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))) for _ in range(80)]
    for counts in shapes:
        total = sum(counts)
        assert list(_walk(counts, None)) == list(
            itertools.product(*[range(m + 1) for m in counts])), counts
        by_size = {size: list(reference_vectors_of_size(counts, size))
                   for size in range(total + 2)}
        assert by_size[total + 1] == []
        for size in {0, total, total + 1, rng.randint(0, total)}:
            assert list(_walk(counts, None, size)) == by_size[size], (counts, size)
            assert list(part_vectors(counts, size)) == [
                y for k in range(size, total + 1) for y in by_size[k]], (counts, size)
    for m, d in itertools.product(range(5), range(1, 5)):
        dom_mults = [rng.randint(1, 3) for _ in range(d)]
        for strict in (True, False):
            assert _copy_choices(m, dom_mults, strict) == reference_copy_choices(
                m, dom_mults, strict), (m, dom_mults, strict)


def test_the_walk_keeps_exactly_the_vectors_its_conditions_hold_on():
    # conditions on Y alone (a part) and on Y and Z = t - Y (a split), each
    # side listed with its literal and dep conjuncts reached through & alone;
    # the expected vectors are checked by evaluate.  Sized, two dep
    # conditions shaped like the 3SAT body and counts up to 3 put the g3
    # bound where two bounds meet and where one row holds several copies
    structure = Multistructure({"0": 1, "1": 1, "2": 1}, {"R": (1, [("0",), ("2",)])})
    sides = [(parse(text), tuple(map(parse, conditions))) for text, conditions in (
        ("x = y", ["x = y"]), ("x != y", ["x != y"]), ("dep(x ; y)", ["dep(x ; y)"]),
        ("(dep(y ; x) & x != y)", ["dep(y ; x)", "x != y"]),
        ("(dep(; x) & (~R(y) & inc(x ; y)))", ["dep(; x)", "~R(y)"]),
        ("(dep(y ; x) & E u. (x=u & dep(x ; y)))", ["dep(y ; x)"]),
        ("(dep(x ; y) & dep(y ; x))", ["dep(x ; y)", "dep(y ; x)"]))]
    rng = random.Random(9)
    walked = sized = 0
    for _ in range(150):
        t = random_team(rng, ("x", "y"), structure, max_rows=5, max_mult=3)
        space, counts = _Space.rooted(t)
        (y_side, y_conditions), (z_side, z_conditions) = rng.choice(sides), rng.choice(
            sides + [(None, ())])
        run = _Eval(structure, LAX_MULTI, False)

        @functools.cache
        def holds(conditions, vec):
            return all(evaluate(structure, space.team(vec), g, LAX_MULTI) for g in conditions)

        part = run._prune(space, y_side)
        if part is not None:
            sized += 1
            for size in range(sum(counts) + 1):
                assert list(_walk(counts, part, size)) == [
                    y for y in reference_vectors_of_size(counts, size)
                    if holds(y_conditions, y)], (t, y_side, size)
        prune = run._prune(space, y_side, z_side)
        if prune is None:
            continue
        walked += 1
        assert list(_walk(counts, prune)) == [
            y for y, _ in _split_vectors(counts, False) if holds(y_conditions, y) and holds(
                z_conditions, tuple(m - c for m, c in zip(counts, y)))], (t, y_side, z_side)
    assert walked > 100 and sized > 100


def random_cnf(rng, clauses, width, accept):
    """A CNF over `width` variables that accept takes, about half of its
    clauses one literal repeated, so that false instances are common."""
    variables = ("x1", "x2", "x3")[:width]
    while True:
        phi = CnfFormula(tuple(
            ((rng.choice(variables), rng.randint(0, 1)),) * width if rng.random() < 0.5
            else tuple((v, rng.randint(0, 1)) for v in rng.sample(variables, width))
            for _ in range(clauses)))
        if accept(phi):
            return phi


def test_encodings_find_the_reference_witness_trees():
    # per clause count 3-6: a satisfiable and an unsatisfiable 3CNF, and a
    # 2CNF with all clauses but one holding at once, at every k/m; against
    # the search that builds a Multiteam per candidate
    rng = random.Random("encodings")
    verdicts = []
    for clauses in (3, 4, 5, 6):
        instances = [encode_3sat(random_cnf(rng, clauses, 3, lambda phi: sat_oracle(phi) == want))
                     for want in (True, False)]
        two = random_cnf(rng, clauses, 2, lambda phi: maxsat_oracle(phi) == clauses - 1)
        instances += [encode_maxsat(two, Fraction(k, clauses)) for k in range(clauses + 1)]
        for inst in instances:
            for cfg in (LAX_MULTI, STRICT_MULTI):
                for c in (True, False):
                    got = witness(inst.structure, inst.team, inst.formula, cfg, use_cache=c)
                    assert got == reference_witness(inst.structure, inst.team, inst.formula,
                                                    cfg, use_cache=c), (str(inst.formula), cfg, c)
                    verdicts.append(got.holds)
    assert verdicts.count(False) == 4 * 2 * 2 * 2


def unsatisfiable_encodings():
    """A 7-clause 3SAT and a 7-clause MAX-2SAT instance that are false."""
    # whole clauses x1 and ~x1, and five of the eight sign patterns over x2..x4
    sat = CnfFormula((((("x1", 0),) * 3), (("x1", 1),) * 3) + tuple(
        tuple(zip(("x2", "x3", "x4"), signs))
        for signs in list(itertools.product((0, 1), repeat=3))[:5]))
    assert not sat_oracle(sat)
    # at most six of the seven 2-clauses hold at once; ask for all seven
    two = CnfFormula(((("x1", 0),) * 2, (("x1", 1),) * 2, (("x2", 0), ("x3", 0)),
                      (("x2", 1), ("x3", 0)), (("x2", 0), ("x3", 1)),
                      (("x1", 0), ("x2", 0)), (("x1", 1), ("x3", 1))))
    assert maxsat_oracle(two) == 6
    return encode_3sat(sat), encode_maxsat(two, Fraction(7, 7))


def test_prefix_pruning_bounds_the_work_on_unsatisfiable_encodings(monkeypatch):
    # the search tries C(21, 7) = 116,280 parts and 2^14 splits without
    # pruning; dep(clause ; literal) refutes every prefix taking two
    # literals of one clause, so at most 3^7 node runs remain
    calls = []
    original = _Eval.run

    def counting(self, node, counts):
        calls.append(node)
        return original(self, node, counts)

    monkeypatch.setattr(_Eval, "run", counting)
    for inst in unsatisfiable_encodings():
        for cfg in (LAX_MULTI, STRICT_MULTI):
            calls.clear()
            assert not evaluate(inst.structure, inst.team, inst.formula, cfg)
            assert 0 < len(calls) <= 3 ** 7, (str(inst.formula), cfg, len(calls))


def test_what_the_walk_checked_is_not_tested_again(monkeypatch):
    # every part the walk yields meets the conditions it checked: the 3SAT
    # body is all conditions, and so is the MAX-2SAT split's left side and,
    # the split being strict, the right side's first conjunct; evaluate
    # runs no dep node, and witness runs each side's own node for its tree
    rng = random.Random("checked")
    two = random_cnf(rng, 4, 2, lambda phi: maxsat_oracle(phi) == 3)
    instances = [encode_3sat(random_cnf(rng, 4, 3, sat_oracle)),
                 encode_maxsat(two, Fraction(3, 4)), encode_maxsat(two, Fraction(4, 4)),
                 *unsatisfiable_encodings()]
    ran = []
    original = _Eval.run

    def recording(self, node, counts):
        ran.append(node.f.__class__)
        return original(self, node, counts)

    monkeypatch.setattr(_Eval, "run", recording)
    verdicts = []
    for inst in instances:
        for cfg in (LAX_MULTI, STRICT_MULTI):
            ran.clear()
            held = evaluate(inst.structure, inst.team, inst.formula, cfg)
            assert Dep not in ran, (str(inst.formula), cfg)
            ran.clear()
            assert witness(inst.structure, inst.team, inst.formula, cfg).holds is held
            assert Dep in ran or not held, (str(inst.formula), cfg)
            verdicts.append(held)
    assert verdicts == [True] * 4 + [False] * 6


def test_conditions_no_supplement_changes_are_tested_on_the_team(monkeypatch):
    # R(x) is a conjunct of the body under E u and E w and mentions neither,
    # so it holds on every supplement iff it holds on the team; it fails on
    # the third row, and the formula is false with no supplement built
    # (without the lift, multi lax tries every supplement, for minutes)
    t = Multiteam(("x", "y", "u", "w"), {("0", "0", "0", "0"): 2, ("0", "1", "0", "1"): 2,
                                         ("1", "0", "1", "0"): 2})
    built = []
    original = _Extension.supplements

    def counting(self, counts, strict, flat):
        assert not lifted, "a supplement was built"  # at once, not after the search
        built.append(counts)
        return original(self, counts, strict, flat)

    monkeypatch.setattr(_Extension, "supplements", counting)
    # a conjunct on a variable bound on the way (x rebound, w) or reached
    # through | is not lifted, and only the supplements decide
    for text, holds, lifted in (("E u. E w. ((pinc(x;u) | pinc(w;y)) & R(x))", False, True),
                                ("E u. E w. (R(w) & (u = u & R(x)))", False, True),
                                ("E x. R(x)", True, False), ("E u. E w. (R(w) & x = x)", True, False),
                                ("E u. (R(x) | R(u))", True, False)):
        for cfg in ALL_CFGS:
            team = t.support() if cfg.team_kind == "set" else t
            built.clear()
            assert evaluate(STRUCT01, team, parse(text), cfg) is holds, (text, cfg)
            assert witness(STRUCT01, team, parse(text), cfg).holds is holds, (text, cfg)
            assert built or lifted, (text, cfg)


def test_each_atom_is_projected_once_per_run(monkeypatch):
    # a dep's own test and its walks read one numbering of the row keys,
    # made once per (atom, space) per run, though the MAX-2SAT split's dep is
    # a condition on both sides.  So no run of either encoding, for evaluate
    # or for witness, projects a row, though a witness run tests the deps'
    # own nodes
    looked_up, numbered, projected, tested = [], [], [], []
    entries, dep_entries, project = _Eval._dep_entries, atoms.dep_entries, atoms.project
    test = _Eval._test

    def recording_test(self, f, space):
        tested.append(f.__class__)
        return test(self, f, space)

    def recording_entries(self, f, space, first_slot):
        looked_up.append((id(f), space))
        return entries(self, f, space, first_slot)

    def recording_dep_entries(keys, xs_pos, ys_pos):
        numbered.append((xs_pos, ys_pos))
        return dep_entries(keys, xs_pos, ys_pos)

    def recording_project(keys, positions):
        projected.append(str(positions))
        return project(keys, positions)

    monkeypatch.setattr(_Eval, "_test", recording_test)
    monkeypatch.setattr(_Eval, "_dep_entries", recording_entries)
    monkeypatch.setattr(atoms, "dep_entries", recording_dep_entries)
    monkeypatch.setattr(atoms, "project", recording_project)
    instances = [*unsatisfiable_encodings(), *next(maxsat_ladders())[1]]
    for inst, cfg in itertools.product(instances, (LAX_MULTI, STRICT_MULTI)):
        for explain in (False, True):
            looked_up.clear()
            numbered.clear()
            projected.clear()
            tested.clear()
            run = _Eval(inst.structure, cfg, True, explain)
            got = run.search(inst.formula, inst.team,
                             None if explain else free_vars(inst.formula))[0]
            assert len(numbered) == len(set(looked_up)) <= len(looked_up)
            if isinstance(inst.formula, Or):  # the MAX-2SAT split
                assert len(set(looked_up)) < len(looked_up)
            assert not run.nodes  # dropped at the run's end
            assert projected == []
            if explain and got:  # a tree names the split's dep on its part
                assert Dep in tested


# --- rule 6: an exact split's walk bounded by its right side's <p> ---

@contextlib.contextmanager
def without_rule_6(monkeypatch):
    """Inside, no split is bounded by a `<p>` conjunct of its right side."""
    with monkeypatch.context() as m:
        m.setattr(_Eval, "_z_bound", lambda self, f, space: None)
        yield


def maxsat_ladders():
    """Per clause count m of 3-8, a 2CNF whose optimum is m - 1, encoded at
    every threshold k/m."""
    rng = random.Random("rule 6")
    for m in range(3, 9):
        phi = random_cnf(rng, m, 2, lambda phi: maxsat_oracle(phi) == m - 1)
        yield m, [encode_maxsat(phi, Fraction(k, m)) for k in range(m + 1)]


RULE_6_STRUCTURE = Multistructure({"0": 1, "1": 1, "2": 1}, {"R": (1, [("0",), ("2",)])})
#: closed bodies h: one dep, deps with literals that bar rows, two deps, a
#: valid dep before one that is not, a literal alone, and one with no
#: condition, which gives no bound
RULE_6_BODIES = ("dep(x ; y)", "(dep(y ; x) & x != y)", "(R(x) & dep(x ; y))",
                 "(dep(x ; y) & dep(y ; x))", "(dep(x, y ; x) & dep(y ; x))",
                 "(dep(; x) & ~R(y))", "x = y", "(x != y | dep(x ; y))")
#: left sides, closed (rule 1 makes a lax split exact) and not
RULE_6_LEFTS = ("dep(x ; y)", "x = y", "(~R(x) & dep(y ; x))", "inc(x ; y)", "pinc(y ; x)")
RULE_6_THRESHOLDS = ("0", "1/3", "1/2", "2/3", "3/4", "1", "#0", "#1", "#2", "#4")


def rule_6_instances(per_mode):
    """Seeded (team, f | (g & <p> h) or f | <p> h, cfg) draws with h closed,
    in all four modes, over teams of up to 64 subteams whose counts reach 3
    in the multi modes."""
    for cfg in ALL_CFGS:
        rng = random.Random(f"rule 6-{cfg.team_kind}-{cfg.strictness}")
        mult = 3 if cfg.team_kind == "multi" else 1
        for _ in range(per_mode):
            t = random_team(rng, ("x", "y"), RULE_6_STRUCTURE, max_rows=5, max_mult=mult)
            while math.prod(m + 1 for _, m in t.row_items()) > 64:
                t = random_team(rng, ("x", "y"), RULE_6_STRUCTURE, max_rows=5, max_mult=mult)
            right = f"<{rng.choice(RULE_6_THRESHOLDS)}> {rng.choice(RULE_6_BODIES)}"
            if rng.random() < 0.5:
                right = f"({rng.choice(('x != y', 'dep(; y)', 'R(y)', 'inc(y ; x)'))} & {right})"
            yield t, parse(f"({rng.choice(RULE_6_LEFTS)} | {right})"), cfg


def test_rule_6_keeps_the_witness_trees(monkeypatch):
    # MAX-2SAT one short of satisfiable at every k/m, m = 3-8, and 4 x 150
    # seeded splits, each with the cache on and off, against the full search
    encodings = [(inst.structure, inst.team, inst.formula, cfg)
                 for _, ladder in maxsat_ladders() for inst in ladder
                 for cfg in (LAX_MULTI, STRICT_MULTI)]
    checks = encodings + [(RULE_6_STRUCTURE, t, f, cfg) for t, f, cfg in rule_6_instances(150)]
    pruned = [witness(*check, use_cache=c) for check in checks for c in (True, False)]
    with unpruned(monkeypatch):
        full = [witness(*check, use_cache=c) for check in checks for c in (True, False)]
    assert pruned == full
    verdicts = [w.holds for w in pruned]
    assert verdicts[:2 * len(encodings)].count(False) == 6 * 2 * 2  # k = m alone
    assert 0 < verdicts.count(True) < len(verdicts)


def rule_6_reference(t, f, cfg):
    """The left parts of f's split that rule 5 keeps and whose Z = t - Y
    passes rule 6 on every prefix, g3 worked out from scratch for the first
    `dep` of h that is not valid; None when rule 6 does not apply."""
    space, counts = _Space.rooted(t)
    run = _Eval(RULE_6_STRUCTURE, cfg, False)
    prune = run._prune(space, f.left, f.right, True)
    body = f.right if isinstance(f.right, ExistsFrac) else f.right.right
    conditions = conditions_of(body.body)
    deps = [g for g in conditions if isinstance(g, Dep) and not g.valid][:1]
    rows = [t.assignment(k) for k in space.keys]
    kept = [all(evaluate_classical(RULE_6_STRUCTURE, s, g) for g in conditions
                if not isinstance(g, Dep)) for s in rows]
    if prune is None or not run._closed(body.body) or all(kept) and not deps:
        return None  # h gives no condition that can fail
    z_lits = [g for g in conditions_of(f.right) if not isinstance(g, Dep)]
    low = [m if not all(evaluate_classical(RULE_6_STRUCTURE, s, g) for g in z_lits) else 0
           for s, m in zip(rows, counts)]
    p = body.p

    def passes(z, j):
        held = sum(z[:j])
        rest = sum(m - c for m, c in zip(counts[j:], low[j:]))
        g3 = held - sum(c for c, ok in zip(z[:j], kept) if not ok)
        for g in deps:  # with a dep, its g3, which is at most the line above
            best = collections.defaultdict(collections.Counter)
            for s, c, ok in zip(rows[:j], z, kept):
                if ok:
                    best[s.project(g.xs)][s.project(g.ys)] += c
            g3 = min(g3, sum(max(per.values()) for per in best.values()))
        if p.absolute:
            return g3 + rest >= p.value
        a, b = p.value.numerator, p.value.denominator
        return b * g3 - a * held + (b - a) * rest >= 0

    prune.z_bound = None  # the walk under rule 5 alone
    return [y for y in _walk(counts, prune)
            if all(passes(tuple(m - c for m, c in zip(counts, y)), j)
                   for j in range(1, len(y) + 1))]


def test_the_bounded_walk_keeps_the_left_parts_every_prefix_bound_keeps():
    # g3 of Z's prefix counted from scratch per prefix, the rows a literal
    # of h bars left out, against the walk's incremental count; a bound
    # left out as one that can drop nothing drops nothing; dropped counts
    # the draws where the walk keeps fewer left parts than without its bound
    bounded = dropped = idle = 0
    for t, f, cfg in rule_6_instances(150):
        want = rule_6_reference(t, f, cfg)
        space, counts = _Space.rooted(t)
        prune = _Eval(RULE_6_STRUCTURE, cfg, False)._prune(space, f.left, f.right, True)
        if want is None:
            assert prune is None or prune.z_bound is None, (t, str(f))
            continue
        if prune.z_bound is None:
            idle += 1
            assert want == list(_walk(counts, prune)), (t, str(f))
            continue
        bounded += 1
        got = list(_walk(counts, prune))
        assert got == want, (t, str(f))
        prune.z_bound = None
        dropped += len(got) < len(list(_walk(counts, prune)))
    assert bounded > 200 and dropped > 100 and idle > 10


def test_rule_6_runs_no_right_part_of_a_false_maxsat_check(monkeypatch):
    # at k = m every Z = t - Y of one literal per clause clashes, and each
    # prefix of Z whose g3 falls short of its size is dropped: the <m/m>
    # node runs on no right part, where without rule 6 it runs on all 2^m
    runs = []
    original = _Eval.run

    def counting(self, node, counts):
        if isinstance(node.f, ExistsFrac):
            runs.append(counts)
        return original(self, node, counts)

    monkeypatch.setattr(_Eval, "run", counting)
    for m, ladder in maxsat_ladders():
        inst = ladder[m]
        for cfg in (LAX_MULTI, STRICT_MULTI):
            runs.clear()
            assert not evaluate(inst.structure, inst.team, inst.formula, cfg)
            assert not witness(inst.structure, inst.team, inst.formula, cfg).holds
            assert runs == [], (m, cfg)
            with without_rule_6(monkeypatch):
                assert not evaluate(inst.structure, inst.team, inst.formula, cfg)
            assert len(runs) == 2 ** m, (m, cfg)


def test_a_lax_split_with_no_closed_side_runs_every_right_part(monkeypatch):
    # neither side is closed, so lax right parts lie above t - Y and rule 6
    # does not bound them: <2/3> runs on every right part of every left part
    # the left side holds on; strict, the split is exact and rule 6 drops
    t = Multiteam(("x", "y"), {("0", "1"): 2, ("1", "1"): 1, ("1", "0"): 1, ("0", "0"): 1})
    f = parse("((inc(x ; y) & dep(x ; y)) | <2/3> (x = y & dep(; y)))")
    space, counts = _Space.rooted(t)
    tried = [len(list(zs)) for y, zs in _split_vectors(counts, False)
             if evaluate(STRUCT01, space.team(y), f.left, LAX_MULTI)]
    runs = []
    original = _Eval.run

    def counting(self, node, counts):
        runs.append(node.f)
        return original(self, node, counts)

    monkeypatch.setattr(_Eval, "run", counting)
    assert not evaluate(STRUCT01, t, f, LAX_MULTI)
    assert runs.count(f.right) == sum(tried) > len(tried) > 1
    runs.clear()
    assert not evaluate(STRUCT01, t, f, STRICT_MULTI)
    assert runs.count(f.right) < len(tried)


# --- the g3 closed form: evaluate decides <p> h by g3 when g3 decides h ---

#: closed bodies g3 decides: literals and one dep with ys at most (dep(x ;)
#: always holds), and closed bodies it does not
G3_BODIES = ("dep(x ; y)", "dep(; x)", "dep(x ;)", "(dep(x ; y) & x != y)",
             "(R(x) & dep(y ; x))", "x = y", "(R(x) & ~R(y))", "(dep(x ;) & dep(; y))")
G3_OUTSIDE = ("(dep(x ; y) & dep(y ; x))", "excl(x ; y)", "(x != y | dep(x ; y))")
#: #9 lies past the size of every team drawn here
G3_THRESHOLDS = ("0", "1/3", "1/2", "1", "#0", "#2", "#9")
#: the <p> alone, as a conjunct, and as the right side of an exact and a lax split
G3_WRAPPERS = ("{}", "(x = x & {})", "(dep(x ; y) | {})", "(inc(x ; y) | {})")


def g3_instances():
    """(team, formula, cfg) for every body, threshold and wrapper on the
    empty team and on one seeded team of up to 64 subteams, whose counts
    reach 3 in the multi modes, in all four modes."""
    empty = Multiteam(("x", "y"))
    for cfg in ALL_CFGS:
        rng = random.Random(f"g3-{cfg.team_kind}-{cfg.strictness}")
        mult = 3 if cfg.team_kind == "multi" else 1
        for body in G3_BODIES + G3_OUTSIDE:
            for p in G3_THRESHOLDS:
                for wrapper in G3_WRAPPERS:
                    f = parse(wrapper.format(f"<{p}> {body}"))
                    t = random_team(rng, ("x", "y"), RULE_6_STRUCTURE, max_rows=5, max_mult=mult)
                    while math.prod(m + 1 for _, m in t.row_items()) > 64:
                        t = random_team(rng, ("x", "y"), RULE_6_STRUCTURE, max_rows=5,
                                        max_mult=mult)
                    yield empty, f, cfg
                    yield t, f, cfg


def test_the_g3_closed_form_keeps_the_verdicts_and_witness_trees(monkeypatch):
    # 11 bodies x 7 thresholds x 4 wrappers x 2 teams x 4 modes = 2,464
    # checks, each with the cache on and off, against the full search
    checks = [(RULE_6_STRUCTURE, t, f, cfg) for t, f, cfg in g3_instances()]

    def outcomes():
        return ([evaluate(*check, use_cache=c) for check in checks for c in (True, False)],
                [witness(*check, use_cache=c) for check in checks for c in (True, False)])

    verdicts, trees = outcomes()
    with unpruned(monkeypatch):
        assert outcomes() == (verdicts, trees)
    assert verdicts == [w.holds for w in trees]
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def recorded_sized_walks(monkeypatch) -> list[int]:
    """The sizes of the sized walks run from now on, in order."""
    sized, walk = [], semantics._walk

    def recording_walk(counts, prune, size=None):
        if size is not None:
            sized.append(size)
        return walk(counts, prune, size)

    monkeypatch.setattr(semantics, "_walk", recording_walk)
    return sized


def test_g3_decides_the_bodies_of_its_fragment_alone(monkeypatch):
    # evaluate decides <p> h by its room alone for h in g3's fragment, and
    # walks the parts of the bound size for every other closed h
    t = Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 1, ("2", "1"): 3})
    sized = recorded_sized_walks(monkeypatch)
    for text in G3_BODIES + G3_OUTSIDE:
        sized.clear()
        evaluate(RULE_6_STRUCTURE, t, parse(f"<1/2> {text}"), LAX_MULTI)
        assert bool(sized) is (text not in G3_BODIES), text


def test_g3_is_the_largest_part_the_body_holds_on(monkeypatch):
    # h is downward closed, so <p> h holds iff g3 reaches the bound: g3, the
    # room at row 0 under h's conditions, must be the size of the largest
    # part h holds on, found here by brute force, and evaluate's closed form
    # must hold at that size and fail one above it
    checked = 0
    for cfg in ALL_CFGS:
        rng = random.Random(f"g3 size-{cfg.team_kind}")
        mult = 3 if cfg.team_kind == "multi" else 1
        for _ in range(40):
            t = random_team(rng, ("x", "y"), RULE_6_STRUCTURE, max_rows=5, max_mult=mult)
            space, counts = _Space.rooted(t)
            for text in G3_BODIES:
                h = parse(text)
                prune = _Eval(RULE_6_STRUCTURE, cfg, False)._prune(space, h)
                with unpruned(monkeypatch):
                    largest = max(sum(y) for y in _walk(counts, None)
                                  if evaluate(RULE_6_STRUCTURE, space.team(y), h, cfg))
                assert semantics._largest(prune, counts)[0] == largest, (text, t, cfg)
                for k in (largest, largest + 1):
                    f = parse(f"<#{k}> {text}")
                    assert evaluate(RULE_6_STRUCTURE, t, f, cfg) is (k == largest), (f, t, cfg)
                checked += largest < sum(counts)
    assert checked > 200


def test_evaluate_walks_no_part_for_the_maxsat_bound(monkeypatch):
    # evaluate answers the nested <k/m> dep(variable ; parity) by g3 alone,
    # with no sized walk; witness still walks to name the first part
    decided, largest = [], semantics._largest

    def recording_largest(prune, counts):
        decided.append(counts)
        return largest(prune, counts)

    sized = recorded_sized_walks(monkeypatch)
    monkeypatch.setattr(semantics, "_largest", recording_largest)
    true_checks = 0
    for m, ladder in maxsat_ladders():
        for k, inst in enumerate(ladder):
            for cfg in (LAX_MULTI, STRICT_MULTI):
                sized.clear()
                held = evaluate(inst.structure, inst.team, inst.formula, cfg)
                assert held == (k < m) and sized == [], (m, k, cfg)
                w = witness(inst.structure, inst.team, inst.formula, cfg)
                assert w.holds == held and bool(sized) == held, (m, k, cfg)
                true_checks += held
    assert true_checks == 2 * sum(range(3, 9))
    assert len(decided) >= 2 * true_checks  # once per evaluate, once per witness


def test_two_thousand_rows_are_walked_without_recursion(tmp_path, capsys):
    # each side of the split bars the other's rows, and the first part's
    # body refutes nothing, so one walk down the rows finds the first
    # success; on the second team the rows x=y bars from the part come
    # last, and the walk leaves room for the part in the rows before them;
    # in the last case rule 6's bound drops every Z that keeps a row x!=y
    # bars from the <1> body, so Y takes the rows x=y one by one
    n = 2000
    structure = Multistructure([str(i) for i in range(n)])
    mixed = Multiteam(("x", "y", "z"), [(str(i % 7), str(i % 5), str(i)) for i in range(n)])
    equal_first = Multiteam(("x", "y", "z"), [(str(i * 2 // n), "0", str(i)) for i in range(n)])
    cases = [(mixed, "x=y | x!=y", sum(i % 7 == i % 5 for i in range(n))),
             (mixed, "<1/2>(x=x & dep(z;z))", n // 2),
             (equal_first, "<1/2>(x=y & dep(z;z))", n // 2),
             (equal_first, "x=y | <1>(x!=y & dep(z;z))", n // 2)]
    split = parse(cases[-1][1])
    space, _ = _Space.rooted(equal_first)
    prune = _Eval(structure, STRICT_MULTI, False)._prune(space, split.left, split.right, True)
    assert prune.z_bound is not None
    (tmp_path / "s.txt").write_text(dump_structure(structure), encoding="utf-8")
    for k, (t, text, first_part) in enumerate(cases):
        (tmp_path / f"t{k}.csv").write_text(dump_multiteam(t), encoding="utf-8")
        for cfg in (LAX_MULTI, STRICT_MULTI):
            f = parse(text)
            assert evaluate(structure, t, f, cfg)
            w = witness(structure, t, f, cfg)
            assert w.holds and w.parts[0].team.size == first_part
            argv = ["check", str(tmp_path / "s.txt"), text, "--team", str(tmp_path / f"t{k}.csv"),
                    "--strictness", cfg.strictness]
            assert cli.main(argv) == 0
            assert cli.main(argv + ["--witness"]) == 0
            assert capsys.readouterr().out.endswith("true\n")


def test_part_bodies_that_are_not_closed_keep_the_larger_parts():
    # dep(y ; x) gives the walk a condition, but the body is not closed and
    # only the whole team satisfies inc(x ; y)
    t = Multiteam(("x", "y"), [("0", "1"), ("1", "0")])
    f = parse("<1/2>(dep(y ; x) & inc(x ; y))")
    for cfg in ALL_CFGS:
        w = witness(STRUCT01, t, f, cfg)
        assert w.holds and w.parts[0].team == t


def subteams(t):
    entries = t.row_items()
    for vec in itertools.product(*[range(m + 1) for _, m in entries]):
        yield Multiteam(t.variables, {k: c for (k, _), c in zip(entries, vec) if c})


def test_formulas_classified_downward_closed_are(monkeypatch):
    instances = [(s, t, f, cfg) for s, t, f, cfg in random_instances("closed", 100)
                 if _Eval(s, cfg, False)._closed(f)]
    assert len(instances) > 400
    held = 0
    with unpruned(monkeypatch):
        for structure, t, f, cfg in instances:
            if evaluate(structure, t, f, cfg):
                held += 1
                assert all(evaluate(structure, y, f, cfg) for y in subteams(t)), (f, t, cfg)
    assert held > 150


def test_the_classifier_rejects_what_is_not_downward_closed():
    closed = _Eval(STRUCT01, LAX_MULTI, False)._closed
    for text in ["x=y", "x!=y", "R(x)", "~R(x)", "dep(x ; y)", "excl(x ; y)",
                 "(dep(x ; y) & E u. (excl(x ; u) | A w. w=w))",
                 # valid atoms hold on every multiteam, so are closed
                 "ind(x ; y ; x)", "ind(x,y ; ; z)", "pind(x ; x ; y)", "pind(y,x ; z ; x,y)",
                 "inc(x,y ; x,y)", "pinc(x ; x)", "pinc(;)",
                 "(inc(x ; x) & E u. (pind(u ; u ; y) | A w. ind(w ; y ; w)))"]:
        assert closed(parse(text)), text
    rejected = ["<1/2> dep(x ; y)", "[1/2] x = y", "inc(x ; y)", "ind(x ; y ; z)",
                "pinc(x ; y)", "pind(; x ; y)", "(x=y ->{1/2} x=y)",
                # near misses of the valid shapes
                "inc(x,y ; y,x)", "pinc(x,x ; x,y)", "ind(x ; x,y ; y,z)", "pind(; x ; x)"]
    for text in rejected:
        for wrapped in (text, f"(x=y & {text})", f"({text} | dep(x ; y))",
                        f"E u. (x=u | {text})", f"A u. ({text} & x=u)"):
            assert not closed(parse(wrapped)), wrapped


def test_closed_part_quantifiers_take_parts_of_the_bound_size():
    t = Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 1, ("1", "1"): 1})
    w = witness(STRUCT01, t, parse("<1/2> dep(x ; y)"), LAX_MULTI)
    assert w.parts[0].team.size == 2
    assert evaluate(STRUCT01, t, parse("[3/4] dep(; x)"), LAX_MULTI) is False
    assert evaluate(STRUCT01, t.select(("x",), ("0",)), parse("[3/4] dep(; x)"), LAX_MULTI)
    assert evaluate(STRUCT01, t, ForallFrac(Threshold(5, absolute=True), parse("x=y")),
                    LAX_MULTI)


def test_lax_supplements_still_give_a_copy_several_values():
    # the body is not downward closed, and only u taking both domain values
    # on the one row satisfies it
    t = Multiteam(("x",), [("0",)])
    f = parse("E u. A w. inc(w ; u)")
    assert evaluate(STRUCT01, t, f, LAX_MULTI) and evaluate(STRUCT01, t, f, LAX_SET)
    assert not evaluate(STRUCT01, t, f, STRICT_MULTI)
    assert not evaluate(STRUCT01, t, f, STRICT_SET)


# --- valid atoms: true on every multiteam by their variable groups ---

#: Each atom class's test on `Multiteam` rows, from the reference search,
#: which knows no atom to be valid.
REFERENCE_ATOMS = {Dep: reference_eval.dep, Inc: reference_eval.inc,
                   Excl: functools.partial(reference_eval.inc, negate=True),
                   CI: reference_eval.ci, PInc: reference_eval.pinc, PCI: reference_eval.pci}


def atoms_over_x_and_y():
    """Every atom whose groups are 0-2 names from {x, y}."""
    groups = [g for n in range(3) for g in itertools.product("xy", repeat=n)]
    for cls in ATOMS.values():
        for shape in itertools.product(groups, repeat=len(cls.__match_args__)):
            if not cls.same_length or len(shape[0]) == len(shape[1]):
                yield cls(*shape)


def test_an_atom_is_valid_iff_it_holds_on_every_small_team():
    # the 81 teams over x, y with domain {0,1} and counts at most 2, and
    # their 16 flat ones for the set modes; the truth is the reference's
    # atom test, and evaluate must give it in every mode
    rows = list(itertools.product("01", repeat=2))
    teams = [Multiteam(("x", "y"), dict(zip(rows, counts)))
             for counts in itertools.product(range(3), repeat=4)]
    flat = [t for t in teams if t.is_flat()]
    assert (len(teams), len(flat)) == (81, 16)
    shapes = collections.Counter()
    for f in atoms_over_x_and_y():
        truth = {t: REFERENCE_ATOMS[type(f)](t, *f.groups) for t in teams}
        assert f.valid is all(truth.values()), f
        for cfg in ALL_CFGS:
            pool = teams if cfg.team_kind == "multi" else flat
            assert f.valid is all(truth[t] for t in pool), (f, cfg)
            for t in pool:
                assert evaluate(STRUCT01, t, f, cfg) is truth[t], (f, t, cfg)
        shapes[type(f).__name__, f.valid] += 1
    # every class but excl has valid and invalid shapes
    assert shapes == {("Dep", True): 27, ("Dep", False): 22, ("Inc", True): 7,
                      ("Inc", False): 14, ("Excl", False): 21, ("PInc", True): 7,
                      ("PInc", False): 14, ("CI", True): 243, ("CI", False): 100,
                      ("PCI", True): 243, ("PCI", False): 100}


def valid_atom(rng, scope):
    """A random atom of one of its class's valid shapes."""
    xs = tuple(rng.choice(scope) for _ in range(rng.randint(0, 2)))
    kind = rng.choice(("dep", "inc", "pinc", "ind", "pind"))
    inner = tuple(rng.choice(xs) for _ in range(rng.randint(0, 2))) if xs else ()
    if kind == "dep":
        return Dep(xs, inner)
    if kind in ("inc", "pinc"):
        return ATOMS[kind](xs, xs)
    other = tuple(rng.choice(scope) for _ in range(rng.randint(0, 2)))
    return ATOMS[kind](xs, *((inner, other) if rng.random() < 0.5 else (other, inner)))


def valid_rich_formula(rng, scope, depth=2):
    """A formula under `[p]`, `<p>`, `->{p}`, `|`, `E` or `A` whose leaves
    are mostly valid atoms, the rest any leaf."""
    def body(scope, depth):
        if depth and rng.random() < 0.6:
            return rng.choice((And, And, Or))(body(scope, depth - 1), body(scope, depth - 1))
        if rng.random() < 0.5:
            return valid_atom(rng, scope)
        return random_formula(rng, scope, fragment="full", max_depth=0)

    def inner(scope):
        return valid_rich_formula(rng, scope, depth - 1) if depth > 1 else body(scope, 1)

    kind = rng.choice(("[p]", "<p>", "->{p}", "|", "E", "E", "A"))
    p = Threshold(rng.choice(FRACTIONS))
    if kind == "[p]":
        return ForallFrac(p, inner(scope))
    if kind == "<p>":
        return ExistsFrac(p, inner(scope))
    if kind == "->{p}":
        return ImplFrac(p, inner(scope), body(scope, 1))
    if kind == "|":
        return Or(inner(scope), body(scope, 1))
    var = rng.choice(("u", "x"))
    return (Exists if kind == "E" else Forall)(var, inner(scope + (var,) * (var not in scope)))


def valid_rich_instances(seed, per_mode):
    """Seeded (structure, team, formula, cfg) draws in all four modes, each
    formula holding a valid atom of a class that is not closed on its own."""
    for cfg in ALL_CFGS:
        rng = random.Random(f"{seed}-{cfg.team_kind}-{cfg.strictness}")
        mult = 2 if cfg.team_kind == "multi" else 1
        drawn = 0
        while drawn < per_mode:
            structure = random_structure(rng, max_dom=2)
            t = random_team(rng, ("x", "y"), structure, max_rows=3, max_mult=mult)
            f = valid_rich_formula(rng, ("x", "y"))
            if (any(g.valid for g in reference_eval.subformulas(f)
                    if isinstance(g, (Inc, PInc, CI, PCI)))
                    and estimate_cost(f, rows=3, mult=mult, dom_size=2, cfg=cfg) <= 1_000_000):
                drawn += 1
                yield structure, t, f, cfg


def valid_dep_instances(seed, per_mode):
    """Seeded (structure, team, formula, cfg) draws in all four modes: a `|`
    or a `<p>` with a valid `dep` with ys as an `&` conjunct of one side or
    of the body, beside a `dep` that is not valid or a leaf, so that the
    walk's conditions lose that `dep` and keep the rest."""
    scope = ("x", "y")
    for cfg in ALL_CFGS:
        rng = random.Random(f"{seed}-{cfg.team_kind}-{cfg.strictness}")
        mult = 2 if cfg.team_kind == "multi" else 1

        def other():
            return (Dep(*([x] for x in rng.sample(scope, 2))) if rng.random() < 0.6
                    else random_formula(rng, scope, fragment="full", max_depth=0))

        for _ in range(per_mode):
            structure = random_structure(rng, max_dom=2)
            t = random_team(rng, scope, structure, max_rows=4, max_mult=mult)
            xs = tuple(rng.sample(scope, rng.randint(1, 2)))
            valid = Dep(xs, tuple(rng.sample(xs, rng.randint(1, len(xs)))))
            side = rng.choice((And(valid, other()), And(other(), valid)))
            if rng.random() < 0.4:
                f = ExistsFrac(Threshold(rng.choice(FRACTIONS)), side)
            else:
                rest = And(other(), other())
                f = rng.choice((Or(side, rest), Or(rest, side)))
            yield structure, t, f, cfg


def test_valid_atoms_keep_the_unpruned_and_reference_witness_trees(monkeypatch):
    # 4 modes x 200 draws, each with the cache on and off, against the same
    # search with its closure-aware cuts off (`unpruned`), and against the
    # search that builds a Multiteam per candidate, whose own closure test
    # knows the valid atoms and so makes the same cuts; and 4 x 60 draws with
    # a valid `dep` under `|` or `<p>`, which gives no walk condition; the
    # `evaluate` verdicts against the unpruned witnesses
    instances = list(valid_rich_instances("valid", 200))
    kinds = collections.Counter(type(f).__name__ for _, _, f, _ in instances)
    assert set(kinds) == {"ForallFrac", "ExistsFrac", "ImplFrac", "Or", "Exists", "Forall"}
    deps = list(valid_dep_instances("valid-dep", 60))
    assert {type(f).__name__ for _, _, f, _ in deps} == {"ExistsFrac", "Or"}
    runs = [(s, t, f, cfg, c) for s, t, f, cfg in instances + deps for c in (True, False)]
    pruned = [witness(s, t, f, cfg, use_cache=c) for s, t, f, cfg, c in runs]
    with unpruned(monkeypatch):
        full = [witness(s, t, f, cfg, use_cache=c) for s, t, f, cfg, c in runs]
    for (s, t, f, cfg, c), got, want in zip(runs, pruned, full):
        assert got == want, (str(f), t, cfg, c)
        assert got == reference_witness(s, t, f, cfg, use_cache=c), (str(f), t, cfg, c)
        # `evaluate` skips what the walk checked, `witness` runs it again
        assert evaluate(s, t, f, cfg, use_cache=c) is want.holds, (str(f), t, cfg, c)
    held = sum(w.holds for w in pruned)
    newly_closed = 0
    for s, t, f, cfg in instances:
        sub = f.left if isinstance(f, (Or, ImplFrac)) else f.body
        closed = _Eval(s, cfg, False)._closed(sub)
        newly_closed += closed and not set(map(type, semantics._reach(
            sub, (And, Or, Exists, Forall)))) <= semantics._CLOSED_ATOMS
    assert 0 < held < len(runs)
    assert newly_closed > len(instances) // 4, newly_closed


def test_a_valid_dep_gives_no_walk_condition():
    # a valid `dep` never fails, so like `dep(xs ;)` it adds no table, no g3
    # bound and no rule 6 `dep`, and leaves a split with nothing to check
    t = Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 1, ("1", "1"): 1})
    space, _ = _Space.rooted(t)
    for cfg in ALL_CFGS:
        run = _Eval(STRUCT01, cfg, False)
        assert run._prune(space, parse("dep(x,y ; x)"), parse("dep(x,y ; y)"), True) is None
        assert run._prune(space, parse("dep(x ; x) & dep(y, x ; x, y)")) is None
        assert run._prune(space, parse("dep(y ; y)"), parse("<1/2> dep(x,y ; y)"), True) is None
        prune = run._prune(space, parse("dep(x,y ; x) & dep(x ; y)"),
                           parse("dep(y ; y) & dep(y ; x)"), True)
        assert (len(prune.bounds), len(prune.y[0]), len(prune.z[0])) == (1, 1, 1)
        barred, deps, rest = run._sort(parse("dep(x,y ; y) & dep(x ; y)"), space)
        assert (barred, [str(g) for g in deps], rest) == ([], ["dep(x ; y)"], [])
        assert run._sort(parse("dep(x ; x) & dep(x,y ; x,y)"), space) == ([], [], [])
        assert run._z_bound(parse("<1> (dep(x ; x) & dep(x,y ; x,y))"), space) is None


def test_a_valid_atom_is_never_projected(monkeypatch):
    # a valid atom's test answers true with no look at the rows
    testing, projected = [], []
    test, project = _Eval._test, atoms.project

    def recording_test(self, f, space):
        testing.append(f)
        try:
            return test(self, f, space)
        finally:
            testing.pop()

    def recording_project(keys, positions):
        projected.append(testing[-1])
        return project(keys, positions)

    monkeypatch.setattr(_Eval, "_test", recording_test)
    monkeypatch.setattr(atoms, "project", recording_project)
    for s, t, f, cfg in valid_rich_instances("projected", 40):
        evaluate(s, t, f, cfg)
        witness(s, t, f, cfg)
    assert projected and not any(g.valid for g in projected)


def test_a_valid_body_of_a_part_bound_runs_once(monkeypatch):
    # [1/2] over a valid body is that body on the team (rule 4), not on
    # each of the team's parts of at least half its size
    f = parse("[1/2] ind(x ; y ; x)")
    t = Multiteam(("x", "y"), {("0", "0"): 1, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1})
    ran = []
    run = _Eval.run

    def counting_run(self, node, counts):
        if node.f is f.body:
            ran.append(counts)
        return run(self, node, counts)

    monkeypatch.setattr(_Eval, "run", counting_run)
    for cfg in ALL_CFGS:
        for check in (evaluate, witness):
            ran.clear()
            got = check(STRUCT01, t, f, cfg, use_cache=False)
            assert (got if check is evaluate else got.holds) is True
            assert ran == [(1, 1, 1, 1)], (check.__name__, cfg)


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


def test_classical_evaluation_rejects_formulas_built_too_deep():
    s = Assignment({"x": "0"})
    with pytest.raises(InputError, match="nests too deeply"):
        evaluate_classical(STRUCT01, s, chain("and", 1200))
    with pytest.raises(InputError, match="nests too deeply"):
        evaluate_classical(STRUCT01, s, chain("exists", MAX_DEPTH + 1))
    assert evaluate_classical(STRUCT01, s, chain("and", MAX_DEPTH))


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


def chain(kind, levels):
    """A formula built in code whose tree has the given number of levels."""
    half = Threshold(Fraction(1, 2))
    wrap = {"and": lambda g: And(Eq("x", "x"), g), "or": lambda g: Or(Eq("x", "x"), g),
            "exists": lambda g: Exists("u", g), "forall-part": lambda g: ForallFrac(half, g),
            "exists-part": lambda g: ExistsFrac(half, g)}[kind]
    f = Eq("x", "x")
    for _ in range(levels - 1):
        f = wrap(f)
    return f


@pytest.mark.parametrize("kind", ["and", "or", "exists", "forall-part", "exists-part"])
def test_formulas_built_too_deep_are_rejected_before_the_search(kind):
    t = Multiteam(("x",), [("0",)])
    with pytest.raises(InputError, match="nests too deeply"):
        evaluate(STRUCT01, t, chain(kind, 300), LAX_MULTI)
    with pytest.raises(InputError, match="nests too deeply"):
        witness(STRUCT01, t, chain(kind, 300), LAX_MULTI)
    with pytest.raises(InputError, match="nests too deeply"):
        evaluate(STRUCT01, t, chain(kind, MAX_DEPTH + 1), LAX_MULTI, use_cache=False)
    highest = chain(kind, MAX_DEPTH)
    assert evaluate(STRUCT01, t, highest, LAX_MULTI)
    assert witness(STRUCT01, t, highest, LAX_MULTI, use_cache=False).holds


BOUND_BODIES = ["x=y", "R(x)", "dep(x ; y)", "inc(x ; y)", "pinc(x ; y)",
                "(x=y | inc(y ; x))", "E u. (dep(u ; x) & u=y)"]


@settings(max_examples=80, deadline=None)
@given(small_multiteams(), st.sampled_from(BOUND_BODIES), st.sampled_from(ALL_CFGS))
def test_a_row_count_bound_is_the_ratio_of_that_count(t, body, cfg):
    # on a team of n > 0 rows, <#k> f is <k/n> f and [#k] f is [k/n] f
    if cfg.team_kind == "set":
        t = t.support()
    n, f = t.size, parse(body)
    assume(n > 0)
    for k in range(n + 1):
        for node in (ExistsFrac, ForallFrac):
            assert (evaluate(STRUCT01, t, node(Threshold(k, absolute=True), f), cfg)
                    == evaluate(STRUCT01, t, node(Threshold(Fraction(k, n)), f), cfg)), (node, k)


@pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: f"{c.team_kind}-{c.strictness}")
def test_one_formula_mixes_ratio_and_row_count_bounds(cfg):
    # one row of two has x=y: some half holds a row with x=y, not every half
    t = Multiteam(("x", "y"), [("0", "0"), ("0", "1")])
    assert str(parse("<1/2> <#1> x=y")) == "<1/2> <#1> x = y"
    assert evaluate(STRUCT01, t, parse("<1/2> <#1> x=y"), cfg)
    assert not evaluate(STRUCT01, t, parse("[1/2] <#1> x=y"), cfg)
    assert evaluate(STRUCT01, t, parse("[#2] <1/2> x=y"), cfg)
    w = witness(STRUCT01, t, parse("<#1> <1/2> x=y"), cfg)
    assert w.holds and w.parts[0].team.size == 1


# --- shared subformulas cost their distinct nodes -------------------------

SUBFORMULA_FIELDS = {And: ("left", "right"), Or: ("left", "right"),
                     ImplFrac: ("left", "right"), Exists: ("body",), Forall: ("body",),
                     ExistsFrac: ("body",), ForallFrac: ("body",)}


@contextlib.contextmanager
def field_reads():
    """Inside, every read of a compound's subformula field counts one visit
    of that node object, by id; it yields the counter.  Build formulas
    before entering: inside, those fields cannot be set."""
    visits = collections.Counter()
    with pytest.MonkeyPatch.context() as m:
        for cls, names in SUBFORMULA_FIELDS.items():
            for name in names:
                slot = cls.__dict__[name]
                m.setattr(cls, name, property(
                    lambda node, slot=slot: (visits.update((id(node),)), slot.__get__(node))[1]))
        yield visits


def doubled_chain(levels):
    """A formula of the given height, each level And(d, d) of one object d."""
    d = Eq("x", "x")
    for _ in range(levels - 1):
        d = And(d, d)
    return d


def outcome(call, *args):
    """call(*args), or the type and message of what it raised.  A failure is
    never reported with the frames that hold a shared formula: their
    arguments would be printed, at a length of one copy per path."""
    try:
        return call(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


CHECKS = {"evaluate": evaluate, "witness": lambda *args: witness(*args).holds}
TOO_DEEP = f"InputError: formula nests too deeply: more than {MAX_DEPTH} levels"


def test_shared_subformulas_cost_their_distinct_nodes():
    # 2 ** 49 paths but 50 node objects: every walk and the search visit
    # each object a bounded number of times, so each case answers at once
    t = Multiteam(("x",), [("0",)])
    half, one = doubled_chain(MAX_DEPTH - 1), Threshold(1, absolute=True)
    cases = {"d": doubled_chain(MAX_DEPTH), "d | x = x": Or(half, Eq("x", "x")),
             "E u. d": Exists("u", half), "<#1> d": ExistsFrac(one, half),
             "[#1] d": ForallFrac(one, half)}
    for label, f in cases.items():
        for cfg, name in itertools.product((LAX_MULTI, STRICT_SET), CHECKS):
            with field_reads() as visits:
                got = outcome(CHECKS[name], STRUCT01, t, f, cfg)
            assert got is True, (label, name, got)
            assert max(visits.values()) <= 10 and sum(visits.values()) <= 10 * MAX_DEPTH, label
        with field_reads() as visits:
            got = (outcome(scan, f, MAX_DEPTH)[:2],
                   outcome(_Eval(STRUCT01, LAX_MULTI, False)._closed, f),
                   len(outcome(conditions_of, f)))
        assert got == ((MAX_DEPTH, {"x"}), "#" not in label, label == "d"), label
        assert max(visits.values()) <= 6, label
    for f in (doubled_chain(MAX_DEPTH + 1), And(half, cases["d"]),
              Exists("u", cases["d"]), ForallFrac(one, cases["d"])):
        for name, check in CHECKS.items():
            assert outcome(check, STRUCT01, t, f, LAX_MULTI) == TOO_DEEP, name
    # formulas built apart compare and hash equal, each pair of nodes once
    twin = doubled_chain(MAX_DEPTH)
    assert outcome(lambda: twin == cases["d"] and hash(twin) == hash(cases["d"])) is True


def test_classical_evaluation_takes_each_node_once_per_assignment(monkeypatch):
    # 2 ** 49 paths: each (node object, assignment) pair is evaluated once,
    # here under one assignment and under the quantifiers' extensions of it
    s = Assignment({"x": "0"})
    d, lower = doubled_chain(MAX_DEPTH), doubled_chain(MAX_DEPTH - 4)
    cases = [(doubled_chain(6), True), (d, True),
             (Or(And(Neq("x", "x"), lower), lower), True),
             (Forall("u", Exists("v", And(Eq("u", "v"), lower))), True),
             (Exists("u", And(lower, Neq("u", "u"))), False)]
    visits = collections.Counter()
    original = semantics._classical

    def counting(structure, s, f, holds):
        visits[id(f), s] += 1
        return original(structure, s, f, holds)

    monkeypatch.setattr(semantics, "_classical", counting)
    for f, expected in cases:
        visits.clear()
        assert evaluate_classical(STRUCT01, s, f) is expected
        assert max(visits.values()) == 1
        assert len(visits) <= 7 * MAX_DEPTH


def test_the_walk_is_bounded_however_the_bound_variables_vary():
    # n_i = And(E v_i. n_(i+1), n_(i+1)): n_(i+1) lies under 2 ** i sets of
    # bound variables, on paths of several lengths; the walk takes a node
    # again only deeper or under fewer bound variables
    levels = (MAX_DEPTH - 1) // 2
    names = [f"v{i}" for i in range(levels)]
    f = Rel("R", tuple(names))
    for var in reversed(names):
        f = And(Exists(var, f), f)
    wrapped = Exists("v0", f)
    with field_reads() as visits:
        height, free, uses, problem, counts = outcome(scan, wrapped, MAX_DEPTH)
    assert (height, free, problem, counts) == (2 * levels + 2, set(names[1:]), None, False)
    assert len(visits) == 2 * levels + 1
    assert max(visits.values()) <= 2 * (MAX_DEPTH + 1)
    assert len(uses) <= 2 * (MAX_DEPTH + 1)
    with field_reads() as visits:
        got = outcome(scan, f, MAX_DEPTH)[1], outcome(free_vars, f)
    assert got == (set(names), set(names))
    assert max(visits.values()) <= 4 * (MAX_DEPTH + 1)
