"""Tests for the seeded random generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiteam.errors import InputError
from multiteam.formula import (CI, PCI, And, Dep, Eq, Excl, Exists, ExistsFrac,
                               Forall, ForallFrac, ImplFrac, Inc, Neq, NegRel,
                               Or, PInc, Rel, free_vars)
from multiteam.generate import (FRAGMENTS, budgeted_formula, estimate_cost,
                                random_formula, random_groups,
                                random_structure, random_team)
from multiteam.semantics import SemanticsConfig, evaluate

import reference_eval

CLASSICAL = {Eq, Neq, Rel, NegRel, And, Or, Exists, Forall}
EXTRA = {"dep": Dep, "inc": Inc, "excl": Excl, "ci": CI, "pinc": PInc,
         "pci": PCI, "frac": ExistsFrac}
FRAC_NODES = {ExistsFrac, ForallFrac, ImplFrac}

seeds = st.integers(0, 10 ** 6)


@given(seeds)
def test_structures_stay_within_their_bounds(seed):
    rng = random.Random(seed)
    s = random_structure(rng, max_dom=3)
    assert 1 <= s.domain.size <= 3
    assert s.arity("R") == 1
    assert all(v in s.domain.support for (v,) in s.tuples("R"))


@given(seeds)
def test_teams_stay_within_their_bounds(seed):
    rng = random.Random(seed)
    s = random_structure(rng, max_dom=3)
    t = random_team(rng, ("x", "y"), s, max_rows=4, max_mult=3)
    assert len(t.row_items()) <= 4
    assert all(m <= 3 for _, m in t.row_items())
    assert t.values_used() <= set(s.domain.support)


@given(seeds)
def test_unit_teams_are_flat(seed):
    rng = random.Random(seed)
    s = random_structure(rng)
    assert random_team(rng, ("x",), s, max_mult=1).is_flat()


@given(seeds, st.sampled_from(sorted(FRAGMENTS)))
def test_fragments_only_use_their_own_connectives(seed, fragment):
    rng = random.Random(seed)
    f = random_formula(rng, ("x", "y"), fragment=fragment, max_depth=3)
    allowed = CLASSICAL | {EXTRA[k] for k in FRAGMENTS[fragment] if k != "frac"}
    if "frac" in FRAGMENTS[fragment]:
        allowed |= FRAC_NODES
    assert {type(g) for g in reference_eval.subformulas(f)} <= allowed


@given(seeds)
def test_free_variables_come_from_the_pool(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ("x", "y"), fragment="full", max_depth=3)
    assert free_vars(f) <= {"x", "y"}


@given(seeds)
def test_generation_is_deterministic_for_a_seed(seed):
    draws = []
    for _ in range(2):
        rng = random.Random(seed)
        s = random_structure(rng)
        t = random_team(rng, ("x", "y"), s, max_mult=2)
        f = random_formula(rng, ("x", "y"), fragment="full")
        draws.append((s, t, str(f)))
    assert draws[0] == draws[1]


@given(seeds)
def test_equal_groups_share_a_length(seed):
    rng = random.Random(seed)
    xs, ys, zs = random_groups(rng, ("x", "y"), 3, equal=True)
    assert len(xs) == len(ys) == len(zs)


def test_generators_reject_unusable_requests():
    rng = random.Random(0)
    with pytest.raises(InputError):
        random_formula(rng, ("x",), fragment="no-such-fragment")
    with pytest.raises(InputError):
        random_formula(rng, ())


def test_cost_grows_with_team_size_and_connectives():
    f = Or(Eq("x", "y"), Eq("x", "y"))
    small = estimate_cost(f, rows=2, mult=1, dom_size=2)
    large = estimate_cost(f, rows=4, mult=3, dom_size=2)
    assert small < large
    assert estimate_cost(Eq("x", "y"), rows=2, mult=1, dom_size=2) < small


def test_cost_estimates_are_the_recursive_ones():
    # the memo by node object and shape changes no value: budgeted_formula
    # resamples by these values, so every seeded draw depends on them
    rng = random.Random(15)
    cfgs = [SemanticsConfig(kind, strictness)
            for kind in ("set", "multi") for strictness in ("lax", "strict")]
    for _ in range(300):
        f = random_formula(rng, ("x", "y"), fragment=rng.choice(sorted(FRAGMENTS)),
                           max_depth=rng.randint(0, 5))
        for (rows, mult, dom_size), cfg in zip(
                [(1, 1, 2), (4, 3, 3), (6, 1, 3), (3, 2, 1)], rng.sample(cfgs, 4)):
            assert estimate_cost(f, rows=rows, mult=mult, dom_size=dom_size, cfg=cfg) == (
                reference_eval.reference_estimate_cost(
                    f, rows=rows, mult=mult, dom_size=dom_size, cfg=cfg)), f


def test_a_shared_subformula_is_costed_once():
    # 50 levels of And(d, d): 2 ** 49 paths, 50 node objects
    d = Eq("x", "y")
    for level in range(2, 51):
        d = And(d, d)
        if level == 12:
            assert estimate_cost(d, rows=2, mult=1, dom_size=2) == (
                reference_eval.reference_estimate_cost(d, rows=2, mult=1, dom_size=2))
    # a leaf on 2 rows costs 3, and each level 1 plus twice the one below
    assert estimate_cost(d, rows=2, mult=1, dom_size=2) == 2 ** 51 - 1
    # one object beside a quantifier and under it, so costed at several shapes
    e = Eq("x", "y")
    for _ in range(8):
        e = And(Forall("u", e), Or(e, Exists("v", e)))
        for cfg in (SemanticsConfig("set", "lax"), SemanticsConfig("multi", "strict")):
            assert estimate_cost(e, rows=1, mult=1, dom_size=2, cfg=cfg) == (
                reference_eval.reference_estimate_cost(e, rows=1, mult=1, dom_size=2, cfg=cfg))
    assert estimate_cost(Exists("u", Or(d, d)), rows=2, mult=1, dom_size=2) == 10 ** 9


def test_budgeted_formulas_respect_the_estimate():
    rng = random.Random(5)
    cfgs = (SemanticsConfig(), SemanticsConfig(strictness="strict"))
    for _ in range(50):
        f = budgeted_formula(rng, ("x", "y"), fragment="full", max_depth=4,
                             rows=4, mult=3, dom_size=3, cfgs=cfgs,
                             budget=50_000)
        worst = max(estimate_cost(f, rows=4, mult=3, dom_size=3, cfg=cfg)
                    for cfg in cfgs)
        assert worst <= 50_000


@settings(deadline=None)
@given(seeds)
def test_budgeted_formulas_evaluate_quickly(seed):
    rng = random.Random(seed)
    s = random_structure(rng, max_dom=3)
    t = random_team(rng, ("x", "y"), s, max_rows=4, max_mult=2)
    f = budgeted_formula(rng, ("x", "y"), fragment="full", max_depth=3,
                         rows=max(t.size, 1), mult=2,
                         dom_size=s.domain.size, budget=100_000)
    assert evaluate(s, t, f) in (True, False)
