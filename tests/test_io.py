"""Round trips and rejection cases for the two text formats."""

import pytest
from hypothesis import given, settings, strategies as st

from multiteam.errors import InputError, ParseError
from multiteam.io import (dump_multiteam, dump_structure, load_multiteam,
                          load_structure)
from multiteam.model import Multiset, Multiteam, Multistructure


def test_counted_multiteam_csv():
    text = "x,y,#count\n0,0,2\n0,1,1\n1,0,1\n1,1,1\n"
    t = load_multiteam(text)
    assert t == Multiteam(("x", "y"),
                          {("0", "0"): 2, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1})
    assert dump_multiteam(t) == text


def test_count_column_defaults_to_one():
    t = load_multiteam("x,y\n0,1\n1,0\n")
    assert t == Multiteam(("x", "y"), [("0", "1"), ("1", "0")])


def test_header_only_file_is_the_empty_multiteam():
    t = load_multiteam("x,y\n")
    assert t == Multiteam.empty(("x", "y"))
    assert t.variables == ("x", "y")


def test_duplicate_rows_accumulate():
    t = load_multiteam("x\n0\n0\n")
    assert t.mult(("0",)) == 2
    counted = load_multiteam("x,#count\n0,2\n0,3\n")
    assert counted.mult(("0",)) == 5


def test_multiteam_csv_rejections():
    with pytest.raises(ParseError):
        load_multiteam("")
    with pytest.raises(ParseError):
        load_multiteam("x,y\n0\n")  # ragged
    with pytest.raises(ParseError):
        load_multiteam("x,x,#count\n0,1,1\n")  # duplicate header
    with pytest.raises(ParseError):
        load_multiteam("x,#count\n0,-1\n")  # negative count
    with pytest.raises(ParseError):
        load_multiteam("x,#count\n0,two\n")
    with pytest.raises(ParseError):
        load_multiteam("#count,x\n1,0\n")  # count column not final


def test_errors_name_the_line_alone_when_the_column_is_unknown():
    with pytest.raises(ParseError) as err:
        load_multiteam("x,#count\n0,-1\n")
    assert str(err.value).endswith("(line 2)")
    assert (err.value.line, err.value.col) == (2, None)


def test_structure_text():
    a = load_structure("domain: 0 1 2\n")
    assert a == Multistructure({"0": 1, "1": 1, "2": 1})
    b = load_structure("domain: a*2 b\n")
    assert b.domain == Multiset({"a": 2, "b": 1})
    c = load_structure("domain: 0 1\nrel C/1: (0)\nrel E/2: (0,1) (1,0)\n")
    assert c.has("C", ("0",))
    assert not c.has("C", ("1",))
    assert c.tuples("E") == {("0", "1"), ("1", "0")}
    assert dump_structure(c) == "domain: 0 1\nrel C/1: (0)\nrel E/2: (0,1) (1,0)\n"


def test_structure_comments_and_blank_lines():
    a = load_structure("# a comment\n\ndomain: 0 1\n\nrel R/1: (1)\n")
    assert a.arity("R") == 1


def test_structure_rejections():
    with pytest.raises(ParseError):
        load_structure("rel R/1: (0)\n")  # no domain
    with pytest.raises(ParseError):
        load_structure("domain: 0\ndomain: 1\n")
    with pytest.raises(ParseError):
        load_structure("domain: a*x\n")
    with pytest.raises(ParseError):
        load_structure("domain: 0\nrel R/one: (0)\n")
    with pytest.raises(ParseError):
        load_structure("domain: 0\nrel R/2: (0)\n")  # arity mismatch
    with pytest.raises(ParseError):
        load_structure("domain: 0\nrel R/1: 0\n")  # missing parentheses
    with pytest.raises(ParseError):
        load_structure("domain: 0\nrel R/1: (0)\nrel R/1: (0)\n")
    with pytest.raises(InputError):
        load_structure("domain: 0\nrel R/1: (5)\n")  # outside support
    with pytest.raises(ParseError):
        load_structure("just words\n")


VALUES = st.text(alphabet="abc012", min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(VALUES, VALUES),
                       st.integers(min_value=1, max_value=9), max_size=5))
def test_multiteam_round_trip(rows):
    t = Multiteam(("x", "y"), rows)
    assert load_multiteam(dump_multiteam(t)) == t


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(VALUES, st.integers(min_value=1, max_value=5),
                       min_size=1, max_size=4),
       st.lists(VALUES, max_size=3))
def test_structure_round_trip(domain, unary):
    a = Multistructure(domain,
                       {"R": (1, [(v,) for v in unary if v in domain])})
    assert load_structure(dump_structure(a)) == a
