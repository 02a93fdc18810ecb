"""Atom evaluators against brute-force readings of their definitions."""

import itertools

from hypothesis import given, settings, strategies as st

from multiteam.atoms import (dep_entries, dep_holds, eval_ci, eval_dep, eval_excl, eval_inc,
                             eval_pci, eval_pinc, project)
from multiteam.model import Multiteam

VALUES = ("0", "1", "2")


def team(variables, rows):
    return Multiteam(variables, rows)


def teams(max_vars=3, max_rows=4, max_mult=3):
    """Strategy for small multiteams over a fixed variable pool."""
    def build(n_vars, entries):
        variables = ("x", "y", "z")[:n_vars]
        table = {}
        for key, mult in entries:
            k = key[:n_vars]
            table[k] = table.get(k, 0) + mult
        return Multiteam(variables, table)
    entry = st.tuples(
        st.tuples(*[st.sampled_from(VALUES)] * max_vars),
        st.integers(min_value=0, max_value=max_mult))
    return st.builds(build,
                     st.integers(min_value=1, max_value=max_vars),
                     st.lists(entry, max_size=max_rows))


def tuple_groups(t, n_groups=2, max_len=2):
    """Strategy for variable tuples (with repeats) over a team's variables."""
    var = st.sampled_from(t.variables)
    group = st.lists(var, min_size=0, max_size=max_len).map(tuple)
    return st.tuples(*[group] * n_groups)


def equal_tuple_groups(t, max_len=2):
    """Two variable tuples of the same length, as inc/excl/pinc require."""
    var = st.sampled_from(t.variables)
    return st.integers(min_value=0, max_value=max_len).flatmap(
        lambda n: st.tuples(st.tuples(*[var] * n), st.tuples(*[var] * n)))


# --- brute-force oracles, straight from the definitions ---

def dep_oracle(t, xs, ys):
    rows = [s for s, _ in t.rows()]
    return all(s.project(ys) == r.project(ys)
               for s in rows for r in rows if s.project(xs) == r.project(xs))


def inc_oracle(t, xs, ys):
    rows = [s for s, _ in t.rows()]
    return all(any(s.project(xs) == r.project(ys) for r in rows) for s in rows)


def excl_oracle(t, xs, ys):
    rows = [s for s, _ in t.rows()]
    return all(s.project(xs) != r.project(ys) for s in rows for r in rows)


def ci_oracle(t, xs, ys, zs):
    rows = [s for s, _ in t.rows()]
    return all(
        any(w.project(ys) == s.project(ys) and w.project(zs) == r.project(zs)
            for w in rows)
        for s in rows for r in rows if s.project(xs) == r.project(xs))


def pinc_oracle(t, xs, ys):
    values = t.values_used() or ("0",)
    return all(t.count(xs, a) <= t.count(ys, a)
               for a in itertools.product(values, repeat=len(xs)))


def pci_oracle(t, xs, ys, zs):
    """Quantify over every value assignment of the variables involved."""
    variables = sorted(set(xs) | set(ys) | set(zs))
    values = t.values_used() or ("0",)
    for choice in itertools.product(values, repeat=len(variables)):
        s = dict(zip(variables, choice))
        lhs = (t.count(xs + ys, tuple(s[v] for v in xs + ys))
               * t.count(xs + zs, tuple(s[v] for v in xs + zs)))
        rhs = (t.count(xs + ys + zs, tuple(s[v] for v in xs + ys + zs))
               * t.count(xs, tuple(s[v] for v in xs)))
        if lhs != rhs:
            return False
    return True


# --- worked examples with known verdicts ---

FIG_XY = team(("x", "y"), {("0", "0"): 2, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1})


def test_counts_behind_the_xy_example():
    assert FIG_XY.count(("x",), ("0",)) == 3
    assert FIG_XY.count(("y",), ("0",)) == 3
    assert FIG_XY.count(("x", "y"), ("0", "0")) == 2
    assert FIG_XY.size == 5


def test_probabilistic_independence_is_stricter_than_combinability():
    # every x/y value combination occurs, but 3 * 3 != 2 * 5
    assert eval_ci(FIG_XY, (), ("x",), ("y",))
    assert not eval_pci(FIG_XY, (), ("x",), ("y",))
    assert eval_pci(FIG_XY.weak_flattening(), (), ("x",), ("y",))


def test_dependence_on_the_xy_example():
    assert not eval_dep(FIG_XY, ("x",), ("y",))
    assert eval_dep(FIG_XY, ("x", "y"), ("x",))
    assert eval_dep(FIG_XY, (), ())


def test_multiplicities_do_not_matter_for_dependence():
    skewed = team(("x", "y"), {("0", "0"): 7, ("1", "0"): 1})
    assert eval_dep(skewed, ("x",), ("y",))
    assert eval_dep(skewed, (), ("y",))
    assert not eval_dep(skewed, (), ("x",))


def test_inclusion_and_exclusion():
    t = team(("x", "y"), [("0", "1"), ("1", "1")])
    assert not eval_inc(t, ("x",), ("y",))
    assert eval_inc(t, ("y",), ("x",))
    assert eval_inc(t, ("x", "y"), ("x", "y"))
    disjoint = team(("x", "y"), [("0", "1"), ("2", "3")])
    assert eval_excl(disjoint, ("x",), ("y",))
    assert not eval_excl(team(("x", "y"), [("0", "1"), ("1", "0")]), ("x",), ("y",))


def test_value_growth_under_union_breaks_count_inclusion():
    x = team(("x", "y", "z"), [("0", "1", "0"), ("1", "0", "1")])
    y = team(("x", "y", "z"), [("1", "0", "1"), ("0", "1", "2")])
    union = team(("x", "y", "z"), [("0", "1", "0"), ("1", "0", "1"), ("0", "1", "2")])
    assert eval_pinc(x, ("x",), ("y",))
    assert eval_pinc(y, ("x",), ("y",))
    assert not eval_pinc(union, ("x",), ("y",))


def test_count_inclusion_reflexive_and_sensitive_to_zero_rows():
    t = team(("x", "y"), {("0", "1"): 2, ("1", "0"): 1, ("0", "0"): 0})
    assert eval_pinc(t, ("x",), ("x",))
    assert eval_pinc(t, ("x", "y"), ("x", "y"))
    # x takes value 1 once, y never does
    assert not eval_pinc(t, ("x",), ("y",))


def test_empty_team_satisfies_every_atom():
    empty = Multiteam(("x", "y"))
    assert eval_dep(empty, ("x",), ("y",))
    assert eval_inc(empty, ("x",), ("y",))
    assert eval_excl(empty, ("x",), ("x",))
    assert eval_ci(empty, (), ("x",), ("y",))
    assert eval_pinc(empty, ("x",), ("y",))
    assert eval_pci(empty, (), ("x",), ("y",))


def test_self_independence_means_constancy():
    varied = team(("x",), [("0",), ("1",)])
    constant = team(("x",), {("0",): 3})
    for t, verdict in ((varied, False), (constant, True)):
        assert eval_ci(t, (), ("x",), ("x",)) is verdict
        assert eval_pci(t, (), ("x",), ("x",)) is verdict


def test_overlapping_sides_skip_impossible_value_pairs():
    # (x,y) vs (y,z) share y; within each y value the equation must hold,
    # across y values there is nothing to check
    t = team(("x", "y", "z"), {("0", "0", "0"): 1, ("1", "1", "1"): 1})
    assert eval_pci(t, ("y",), ("x",), ("z",))
    assert not eval_pci(t, (), ("x", "y"), ("y", "z"))


# --- properties against the oracles ---

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_support_atoms_match_their_definitions(data):
    t = data.draw(teams())
    xs, ys = data.draw(tuple_groups(t))
    assert eval_dep(t, xs, ys) == dep_oracle(t, xs, ys)
    xs, ys = data.draw(equal_tuple_groups(t))
    assert eval_inc(t, xs, ys) == inc_oracle(t, xs, ys)
    assert eval_excl(t, xs, ys) == excl_oracle(t, xs, ys)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_combinability_matches_its_definition(data):
    t = data.draw(teams())
    xs, ys, zs = data.draw(tuple_groups(t, n_groups=3))
    assert eval_ci(t, xs, ys, zs) == ci_oracle(t, xs, ys, zs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_atoms_match_their_definitions(data):
    t = data.draw(teams())
    xs, ys = data.draw(equal_tuple_groups(t))
    assert eval_pinc(t, xs, ys) == pinc_oracle(t, xs, ys)
    xs, ys, zs = data.draw(tuple_groups(t, n_groups=3))
    assert eval_pci(t, xs, ys, zs) == pci_oracle(t, xs, ys, zs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_support_atoms_ignore_multiplicities(data):
    t = data.draw(teams())
    flat = t.weak_flattening()
    xs, ys = data.draw(equal_tuple_groups(t))
    assert eval_dep(t, xs, ys) == eval_dep(flat, xs, ys)
    assert eval_inc(t, xs, ys) == eval_inc(flat, xs, ys)
    assert eval_excl(t, xs, ys) == eval_excl(flat, xs, ys)
    xs, ys, zs = data.draw(tuple_groups(t, n_groups=3))
    assert eval_ci(t, xs, ys, zs) == eval_ci(flat, xs, ys, zs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_independence_implies_combinability(data):
    t = data.draw(teams())
    xs, ys, zs = data.draw(tuple_groups(t, n_groups=3))
    if eval_pci(t, xs, ys, zs):
        assert eval_ci(t, xs, ys, zs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_independence_is_symmetric(data):
    t = data.draw(teams())
    xs, ys, zs = data.draw(tuple_groups(t, n_groups=3))
    assert eval_pci(t, xs, ys, zs) == eval_pci(t, xs, zs, ys)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_self_conditioned_independence_is_dependence(data):
    t = data.draw(teams())
    xs, ys = data.draw(tuple_groups(t))
    assert eval_pci(t, xs, ys, ys) == eval_dep(t, xs, ys)


# --- dep numbered from the row keys ---

def numbered_from_scratch(keys, xs_pos, ys_pos):
    """dep's entries the plain way: each key's xs and ys tuples, slots and
    values given in order of first appearance."""
    slots, values, entries = [], [], []
    for k in keys:
        a, b = tuple(k[i] for i in xs_pos), tuple(k[i] for i in ys_pos)
        if a not in slots:
            slots.append(a)
        if (a, b) not in values:
            values.append((a, b))
        entries.append((slots.index(a), values.index((a, b))))
    return entries, len(slots)


def check_numbering(keys, xs_pos, ys_pos):
    entries, slots = dep_entries(keys, xs_pos, ys_pos)
    assert (entries, slots) == numbered_from_scratch(keys, xs_pos, ys_pos)
    assert {s for s, _ in entries} == set(range(slots))
    assert entries[:1] in ([], [(0, 0)])
    assert all(v < len(keys) for _, v in entries)
    for (s, v), k in zip(entries, keys):
        for (s2, v2), k2 in zip(entries, keys):
            if s == s2:  # one value iff the rows agree on ys
                assert (v == v2) is all(k[i] == k2[i] for i in ys_pos)
            else:
                assert v != v2


def test_dep_numbering_of_every_group_shape():
    # dep(; y), dep(x ;), dep(;), dep(x,x ; x), and groups of several columns
    keys = sorted(itertools.product(VALUES[:2], VALUES, VALUES[:2]))
    shapes = [([], [1]), ([0], []), ([], []), ([0, 0], [0]), ([0, 2], [1]),
              ([2, 0], [1, 1, 0]), ([1], [0, 2]), ([0, 1, 2], [])]
    for xs_pos, ys_pos in shapes:
        check_numbering(keys, xs_pos, ys_pos)
        check_numbering(keys[::-1], xs_pos, ys_pos)
    assert dep_entries([], [0], [1]) == ([], 0)


@given(st.data())
def test_dep_numbering_matches_a_numbering_from_scratch(data):
    width = data.draw(st.integers(min_value=1, max_value=4))
    keys = data.draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * width), max_size=9))
    group = st.lists(st.integers(min_value=0, max_value=width - 1), max_size=3)
    check_numbering(keys, data.draw(group), data.draw(group))


@given(st.data())
def test_dep_over_its_numbering_is_dep_over_its_projection(data):
    # the evaluator tests a dep over the slots and values of dep_entries;
    # dep(;), dep(x ;) and dep(; y) are checked on every draw
    width = data.draw(st.integers(min_value=1, max_value=4))
    keys = data.draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * width), max_size=9))
    counts = data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                min_size=len(keys), max_size=len(keys)))
    group = st.lists(st.integers(min_value=0, max_value=width - 1), max_size=3)
    drawn = data.draw(group), data.draw(group)
    for xs_pos, ys_pos in ([], []), ([0], []), ([], [width - 1]), drawn:
        entries = dep_entries(keys, xs_pos, ys_pos)[0]
        assert (dep_holds(entries, counts)
                == dep_holds(project(keys, [xs_pos, ys_pos]), counts)), (xs_pos, ys_pos)
