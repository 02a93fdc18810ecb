"""Unit tests for the core data model."""

from fractions import Fraction

import pytest

from multiteam.errors import InputError
from multiteam.io import dump_multiteam, load_multiteam
from multiteam.model import Assignment, Multiset, Multiteam, Multistructure, _shown


def fig_ym():
    # the four-row binary multiteam with counts 2,1,1,1 used all over the suite
    return Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1})


class TestMultiset:
    def test_disjoint_union_componentwise(self):
        a = Multiset({"0": 1, "1": 1})
        b = Multiset({"1": 2})
        assert a.disjoint_union(b) == Multiset({"0": 1, "1": 3})

    def test_disjoint_union_identity(self):
        a = Multiset({"0": 2, "2": 1})
        assert a.disjoint_union(Multiset()) == a

    def test_disjoint_union_size_additive(self):
        a = Multiset({"0": 2, "1": 1})
        b = Multiset({"1": 4, "2": 1})
        assert a.disjoint_union(b).size == a.size + b.size

    def test_zero_entries_ignored_by_equality(self):
        assert Multiset({"0": 1, "1": 0}) == Multiset({"0": 1})
        assert hash(Multiset({"0": 1, "1": 0})) == hash(Multiset({"0": 1}))

    def test_from_iterable_counts(self):
        assert Multiset(["a", "b", "a"]) == Multiset({"a": 2, "b": 1})

    def test_rejects_negative_and_nonstring(self):
        with pytest.raises(InputError):
            Multiset({"a": -1})
        with pytest.raises(InputError):
            Multiset({0: 1})


class TestAssignment:
    def test_project_and_extend(self):
        s = Assignment({"x": "0", "y": "1"})
        assert s.project(("y", "x")) == ("1", "0")
        t = s.extended("z", "2")
        assert t.project(("x", "y", "z")) == ("0", "1", "2")
        assert s.project(("x", "y")) == ("0", "1")  # original unchanged

    def test_extend_overwrites(self):
        s = Assignment({"x": "0"})
        assert s.extended("x", "1")["x"] == "1"

    def test_unknown_variable(self):
        with pytest.raises(InputError):
            Assignment({"x": "0"})["y"]


class TestMultiteam:
    def test_select_counts(self):
        # select keeps the matching rows with their counts and no other row
        t = fig_ym()
        sel = t.select(("x",), ("0",))
        assert sel.size == 3
        assert sel.variables == ("x", "y")
        assert sel.row_items() == [(("0", "0"), 2), (("0", "1"), 1)]
        assert t.select(("x", "y"), ("0", "1")).size == 1
        assert t.select((), ()) == t

    def test_select_total_over_values(self):
        t = fig_ym()
        total = sum(t.count(("x", "y"), (a, b)) for a in "01" for b in "01")
        assert total == t.size == 5

    def test_select_unknown_variable(self):
        with pytest.raises(InputError):
            fig_ym().select(("z",), ("0",))

    def test_restrict_sums_multiplicities(self):
        t = fig_ym()
        r = t.restrict({"x"})
        assert r == Multiteam(("x",), {("0",): 3, ("1",): 2})
        assert r.size == t.size
        assert t.restrict(t.variables) == t

    def test_restrict_to_empty_domain(self):
        t = fig_ym()
        r = t.restrict(())
        assert r.variables == ()
        assert r.size == t.size
        assert r.mult(()) == 5

    def test_restrict_chains(self):
        t = Multiteam(("x", "y", "z"),
                      {("0", "1", "0"): 2, ("1", "1", "0"): 1, ("0", "0", "1"): 3})
        assert t.restrict({"x", "y"}).restrict({"x"}) == t.restrict({"x"})

    def test_support_and_weak_flattening(self):
        t = fig_ym()
        flat = Multiteam(("x", "y"),
                         {("0", "0"): 1, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1})
        assert t.support() == flat
        assert t.weak_flattening() == flat
        assert t.support().support() == t.support()

    def test_weak_flattening_is_the_support(self):
        # a row given with count 0 is not in the team, so not in its flattening
        t = Multiteam(("x",), {("0",): 3, ("1",): 0})
        assert t.weak_flattening().row_items() == [(("0",), 1)]
        assert t.weak_flattening() == t.support() == Multiteam(("x",), [("0",)])

    def test_prob(self):
        t = fig_ym()
        assert t.prob(("x",), ("0",)) == Fraction(3, 5)
        assert t.prob(("x", "y"), ("0", "0")) == Fraction(2, 5)
        assert t.prob((), ()) == 1

    def test_prob_empty_team(self):
        with pytest.raises(InputError):
            Multiteam(("x",)).prob(("x",), ("0",))

    def test_prob_sums_to_one(self):
        t = fig_ym()
        tuples = {k for k, _ in t.row_items()}
        assert sum(t.prob(t.variables, k) for k in tuples) == 1

    def test_zero_rows_ignored_by_equality(self):
        a = Multiteam(("x",), {("0",): 1, ("1",): 0})
        b = Multiteam(("x",), {("0",): 1})
        assert a == b and hash(a) == hash(b)
        assert a.row_items() == [(("0",), 1)] and a.mult(("1",)) == 0

    def test_variable_order_normalized(self):
        a = Multiteam(("y", "x"), {("1", "0"): 2})  # given as (y, x)
        b = Multiteam(("x", "y"), {("0", "1"): 2})
        assert a == b

    def test_disjoint_union(self):
        k = Multiteam(("x", "y"), {("0", "1"): 1, ("1", "0"): 1})
        ell = Multiteam(("x", "y"), {("0", "0"): 1})
        m = Multiteam(("x", "y"), {("0", "1"): 1, ("1", "0"): 1, ("0", "0"): 1})
        assert k.disjoint_union(ell) == m
        with pytest.raises(InputError):
            k.disjoint_union(Multiteam(("x",), {("0",): 1}))

    def test_row_coercion_forms(self):
        by_dict = Multiteam(("x", "y"), [{"x": "0", "y": "1"}, {"x": "0", "y": "1"}])
        by_tuple = Multiteam(("x", "y"), {("0", "1"): 2})
        by_assignment = Multiteam(("x", "y"), {Assignment({"x": "0", "y": "1"}): 2})
        assert by_dict == by_tuple == by_assignment

    def test_ragged_and_negative_rejected(self):
        with pytest.raises(InputError):
            Multiteam(("x", "y"), [("0",)])
        with pytest.raises(InputError):
            Multiteam(("x",), {("0",): -1})
        with pytest.raises(InputError):
            Multiteam(("x", "x"), [("0", "0")])

    def test_empty_domain_singleton(self):
        t = Multiteam((), {(): 1})
        assert t.size == 1 and t.variables == ()

    def test_no_way_of_making_a_team_stores_a_zero_row(self):
        # each team below is given or derived with rows counted 0; it must
        # store none of them and be, in every observable way, the team
        # built from its counted rows alone
        want = Multiteam(("x", "y"), {("0", "0"): 2, ("1", "0"): 1})
        flat = Multiteam(("x", "y"), [("0", "0"), ("1", "0")])
        zeros = Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 0,
                                       ("1", "0"): 1, ("1", "1"): 0})
        made = [
            (zeros, want),
            (load_multiteam("y,x,#count\n0,0,2\n1,0,0\n0,1,1\n1,1,0\n"), want),
            (Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 4, ("1", "0"): 1})
             .select(("y",), ("0",)), want),
            (Multiteam(("x", "y", "z"), {("0", "0", "0"): 1, ("0", "0", "1"): 1,
                                         ("1", "0", "1"): 1, ("1", "1", "1"): 0})
             .restrict({"x", "y"}), want),
            (zeros.support(), flat),
            (zeros.weak_flattening(), flat),
            (Multiteam(("x", "y"), {("0", "0"): 1, ("1", "1"): 0}).disjoint_union(
                Multiteam(("x", "y"), {("0", "0"): 1, ("0", "1"): 0, ("1", "0"): 1})),
             want),
            (Multiteam._from_counts(("x", "y"), [("0", "0"), ("0", "1"), ("1", "0")],
                                    [2, 0, 1]), want),
        ]
        for got, expected in made:
            assert 0 not in got._rows.values()
            assert got == expected and hash(got) == hash(expected)
            assert repr(got) == repr(expected) and got.size == expected.size
            assert dump_multiteam(got) == dump_multiteam(expected)


class TestMultistructure:
    def test_relations_validated_against_support(self):
        Multistructure({"0": 1, "1": 1}, {"R": (2, [("0", "1")])})
        with pytest.raises(InputError):
            Multistructure({"0": 1}, {"R": (1, [("1",)])})
        with pytest.raises(InputError):
            Multistructure({"0": 1, "1": 0}, {"R": (1, [("1",)])})
        with pytest.raises(InputError):
            Multistructure({"0": 1}, {"R": (2, [("0",)])})

    def test_has(self):
        a = Multistructure({"0": 1, "1": 2}, {"C": (1, [("0",)])})
        assert a.has("C", ("0",))
        assert not a.has("C", ("1",))
        with pytest.raises(InputError):
            a.has("D", ("0",))
        with pytest.raises(InputError):
            a.has("C", ("0", "0"))

    def test_empty_domain_rejected(self):
        with pytest.raises(InputError):
            Multistructure({})


def test_a_long_value_or_name_is_named_short_in_errors():
    # an error names a value past 64 characters by its first 16 and its
    # length, so its text does not grow with the value
    builds = (lambda v: Multiteam(("x",), [(v,)]), lambda v: Multiteam((v,), [("0",)]),
              lambda v: Multiset({v: 1}), lambda v: Assignment({"x": v}),
              lambda v: Assignment({v: "0"}))
    for bad in ("a" * 100_000 + " ", "a" * 131_073):
        for build in builds:
            with pytest.raises(InputError) as err:
                build(bad)
            assert f"'aaaaaaaaaaaaaaaa'... ({len(bad):,} characters)" in str(err.value)
            assert len(str(err.value)) < 200
    with pytest.raises(InputError, match=r"^value 'a b' is empty or has whitespace"):
        Multiset({"a b": 1})


def test_rows_and_tuples_are_named_short_in_errors():
    # a tuple is shown value by value, at most 8 of them, so a message
    # quoting a row or a relation tuple does not grow with it
    long = "a" * 100_000
    builds = (lambda: Multiteam(("x",), [(long, "b")]),
              lambda: Multiteam(("x",), [("0",) * 100_000]),
              lambda: Multiteam(("x",), [{long: "0"}]),
              lambda: Multiteam(("x",), {(long,): -1}),
              lambda: Multiteam(("x", long, "x"), []),
              lambda: Multistructure(["0"], {"R": (1, [(long,)])}),
              lambda: Multistructure(["0"], {"R": (2, [("0",) * 100_000])}),
              lambda: Multiteam(("x",), [("0",)]).position(long))
    for build in builds:
        with pytest.raises(InputError) as err:
            build()
        assert len(str(err.value)) < 300, str(err.value)[:400]
    assert _shown(("0", "1")) == repr(("0", "1")) and _shown(["0"]) == repr(["0"])
    assert _shown(("0",)) == "('0',)"
    assert _shown(("0",) * 9) == "('0', '0', '0', '0', '0', '0', '0', '0', ... (9 values))"


def test_an_int_too_long_to_print_is_named_by_its_digits():
    # Python refuses to print an int past 4,300 digits; the error names it
    with pytest.raises(InputError) as err:
        Multiteam(("x",), {("0",): -10 ** 5000})
    assert "an integer of about 5,001 digits" in str(err.value) and len(str(err.value)) < 200
    assert _shown(-10 ** 5000) == "an integer of about 5,001 digits"
