"""Round trips and rejection cases for the two text formats."""

import csv
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multiteam.errors import InputError, ParseError
from multiteam.io import (dump_multiteam, dump_structure, load_multiteam,
                          load_structure)
from multiteam.model import Assignment, Multiset, Multiteam, Multistructure
from multiteam.parser import parse
from multiteam.semantics import evaluate

ROOT = Path(__file__).resolve().parents[1]


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


#: (CSV text, line of the error): a bare carriage return in a field, and a
#: field over csv's size limit in the header and in a data row.
UNREADABLE_CSV = (("x\na\rb\n", 2), ("a" * 200_000 + "\n", 1),
                  ("x\n0\n" + "a" * 200_000 + "\n", 3))


def test_csv_the_reader_cannot_read_is_a_parse_error():
    for text, line in UNREADABLE_CSV:
        with pytest.raises(ParseError) as err:
            load_multiteam(text)
        assert err.value.line == line


def test_errors_name_the_line_alone_when_the_column_is_unknown():
    with pytest.raises(ParseError) as err:
        load_multiteam("x,#count\n0,-1\n")
    assert str(err.value).endswith("(line 2)")
    assert (err.value.line, err.value.col) == (2, None)


def test_row_errors_name_the_physical_line_after_a_field_that_spans_lines():
    for text in ('a,b\n"x\n",1\nz\n', 'x,#count\n"a\n",1\n0,-1\n',
                 'x,#count\n"\n0",1\n0,two\n'):
        with pytest.raises(ParseError) as err:
            load_multiteam(text)
        assert err.value.line == 4, text


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


#: Values and names in the alphabet: letters, digits, and `"`, `(` and `)`,
#: which CSV quotes and the structure format uses to bracket tuples.
PLAIN = st.text(alphabet='abc012"()', min_size=1, max_size=3)
#: Letters, digits, space and the characters the structure format reserves,
#: half the time drawn from plain values only.
STRUCTURE_TEXT = st.one_of(PLAIN, st.text(alphabet="ab01 *,():/#", min_size=1, max_size=3))
#: Letters, digits, space and the characters CSV quotes or the format reserves.
CSV_TEXT = st.text(alphabet="ab01 #,\"", max_size=4)


def in_alphabet(text):
    """The alphabet of values and names, read from its definition: nonempty,
    no whitespace as `str.split` sees it, and none of `, * : / #`."""
    return text.split() == [text] and not any(c in ",*:/#" for c in text)


def accepted_iff_in_alphabet(text, *builds):
    """Each build of `text`; outside the alphabet, each must raise InputError."""
    built = []
    for build in builds:
        if in_alphabet(text):
            built.append(build(text))
        else:
            with pytest.raises(InputError):
                build(text)
    return built


@settings(max_examples=300, deadline=None)
@given(st.lists(PLAIN, max_size=3, unique=True).flatmap(
    lambda names: st.tuples(st.just(names), st.dictionaries(
        st.tuples(*[PLAIN] * len(names)), st.integers(min_value=1, max_value=9),
        max_size=4))), CSV_TEXT)
def test_multiteam_round_trip(drawn, odd):
    """Every multiteam the constructor accepts loads back equal from its
    dump, and a name or value outside the alphabet is refused by Multiteam
    and by Assignment."""
    names, rows = drawn
    t = Multiteam(names, rows)
    assert load_multiteam(dump_multiteam(t)) == t
    for t in accepted_iff_in_alphabet(
            odd, lambda x: Multiteam((x,), {("a",): 1}),
            lambda v: Multiteam(("x", "y"), {("a", v): 2, ("b", "c"): 1})):
        assert load_multiteam(dump_multiteam(t)) == t
    accepted_iff_in_alphabet(odd, lambda x: Assignment({x: "a"}),
                             lambda v: Assignment({"x": "a", "y": v}))


def test_dumps_that_would_not_load_back_are_refused():
    for build in (lambda: Multiteam(("#count", "x"), {("1", "a"): 2}),
                  lambda: Multiteam(("x",), {(" padded ",): 1}),
                  lambda: Multiteam((" x",), {("a",): 1}),
                  lambda: Multiteam(("x",), {("a\rb",): 1}),
                  lambda: Multiteam(("x,y",), {("a",): 1}),
                  lambda: Multiteam(("x",), {("a b",): 1}),
                  lambda: Multiteam(("x",), {(',"#',): 1}),
                  lambda: Multiteam(("x",), {("",): 1}),
                  lambda: Multiteam(("x",), {("#count",): 1}),
                  lambda: Multiteam(("x",), {("a" * 131_073,): 1}),
                  lambda: Multiteam(("x" * 131_073,), {("a",): 1})):
        with pytest.raises(InputError):
            build()
    quoted = Multiteam(('"q"', "y"), {('"', 'a"b'): 2, ("(", ")"): 1})
    assert load_multiteam(dump_multiteam(quoted)) == quoted
    # the longest value, at the csv module's field limit, reads back
    for longest in ("a" * 131_072, '"' + "a" * 131_070 + '"', '"' * 131_072):
        team = Multiteam(("x", longest), {(longest, "b"): 1})
        assert load_multiteam(dump_multiteam(team)) == team


# --- the one-pass loader against the loader it replaced ---

def reference_load(text):
    """The CSV loader before rows were read into the sorted-column table:
    every row is parsed into a dict keyed in header order, then coerced
    again by the Multiteam constructor.  A row or count error names the
    physical line the record ends on, which is the record's number until a
    quoted field spans lines; so does a record csv cannot read."""
    reader = csv.reader(io.StringIO(text))
    try:
        return _reference_rows(reader)
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None


def _reference_rows(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("multiteam CSV needs a header row") from None
    header = [h.strip() for h in header]
    counted = bool(header) and header[-1] == "#count"
    variables = header[:-1] if counted else header
    if len(set(variables)) != len(variables):
        raise ParseError(f"duplicate variable names in header {header!r}")
    if "#count" in variables:
        raise ParseError("#count may only be the final column")
    table = {}
    for row in reader:
        lineno = reader.line_num
        if not row:
            continue
        row = [v.strip() for v in row]
        if len(row) != len(header):
            raise ParseError(
                f"row has {len(row)} fields, header has {len(header)}", line=lineno)
        if counted:
            values, count_text = tuple(row[:-1]), row[-1]
            try:
                count = int(count_text)
            except ValueError:
                raise ParseError(
                    f"count {count_text!r} is not an integer", line=lineno) from None
            if count < 0:
                raise ParseError(f"count {count} is negative", line=lineno)
        else:
            values, count = tuple(row), 1
        table[values] = table.get(values, 0) + count
    return Multiteam(variables, table)


def _padded(rng, text):
    return rng.choice(("", " ", "  ", "\t")) + text + rng.choice(("", " ", "\t "))


#: Quoted fields: an edge newline, which stripping removes, and a newline
#: or a comma inside, which leave the value outside the alphabet.
QUOTED = ('"v\n"', '"\n1"', '" 0\n "', '"v\nw"', '"q,r"', '","')


def random_csv(rng):
    """CSV text with shuffled headers, duplicate, blank and ragged rows,
    padded and quoted fields, zero and bad counts, and teams of zero
    variables."""
    names = rng.sample(["x", "y", "z", "b1", "a"], rng.randint(0, 4))
    if names and rng.random() < 0.05:
        names.append(rng.choice(names))  # a duplicate name
    if rng.random() < 0.05:
        names.insert(rng.randint(0, len(names)), "#count")  # not last
    counted = rng.random() < 0.5
    header = names + (["#count"] if counted else [])
    lines = [",".join(_padded(rng, h) for h in header)]
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.1:
            lines.append("")
            continue
        width = len(header) + (rng.choice((-1, 1)) if roll < 0.15 else 0)
        fields = [rng.choice(QUOTED) if rng.random() < 0.05 else
                  _padded(rng, rng.choice(("0", "1", "v", '"q,r"', ""))) for _ in range(width)]
        if counted and width == len(header) and width:
            fields[-1] = _padded(rng, rng.choice(
                ("0", "1", "2", "3", "007", "-1", "two", "", "1_0", '"2\n"', '"\n-1"')))
        lines.append(",".join(fields))
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


def plain_csv(rng):
    """CSV text with no quote, no padding and no whitespace but the line
    break: shuffled headers, ragged, blank and duplicate lines (a blank
    header too), zero and bad counts, empty fields, a value outside the
    alphabet, header-only texts, and now and then a line past csv's field
    size limit."""
    names = rng.sample(["x", "y", "z", "b1", "a"], rng.randint(0, 4))
    if names and rng.random() < 0.05:
        names.append(rng.choice(names))  # a duplicate name
    if rng.random() < 0.05:
        names.insert(rng.randint(0, len(names)), "#count")  # not last
    counted = rng.random() < 0.5
    header = names + (["#count"] if counted else [])
    lines = ["" if rng.random() < 0.05 else ",".join(header)]
    for _ in range(rng.choice((0, rng.randint(1, 8)))):
        roll = rng.random()
        if roll < 0.1:
            lines.append("")
        elif roll < 0.2 and len(lines) > 1:
            lines.append(rng.choice(lines[1:]))  # a duplicate row
        elif roll < 0.21:
            lines.append("a" * (csv.field_size_limit() + 1))
        else:
            width = len(header) + (rng.choice((-1, 1)) if roll < 0.26 else 0)
            fields = [rng.choice(("0", "1", "v")) if rng.random() < 0.96 else
                      rng.choice(("", "v*0")) for _ in range(width)]
            if counted and width == len(header) and width:
                fields[-1] = rng.choice(("0", "1", "2", "3", "007", "0", "1", "2", "3", "007",
                                         "-1", "two", "", "1_0"))
            lines.append(",".join(fields))
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


def _outcome(load, text):
    try:
        t = load(text)
    except (InputError, ParseError) as exc:
        return type(exc), str(exc)
    return t.variables, list(t._rows.items()), hash(t)


def test_the_one_pass_loader_reads_what_the_old_loader_read():
    rng = random.Random(10)
    texts = ["", "\n", "#count\n3\n\n0\n", "x\n\n\n", "#count\n"]
    texts += [random_csv(rng) for _ in range(3000)]
    failed = 0
    for text in texts:
        want = _outcome(reference_load, text)
        assert _outcome(load_multiteam, text) == want, text
        failed += isinstance(want[0], type)
    assert 300 < failed < 2700  # both the errors and the teams are exercised


def test_the_split_reads_what_csv_reads(monkeypatch):
    """A text with no quote and no padding is read by splitting; it loads,
    or is refused with the same error, as the loader before the split."""
    rng = random.Random(29)
    texts = ["\n", "\n\n", "x\n", "x,#count", ",\n", "\nx\n0\n", "x\n\n0\n\n",
             "x,#count\n0,1_0\n", "x\n" + "a" * 131_073 + "\n"]
    texts += [plain_csv(rng) for _ in range(3000)]
    read = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: read.append(1) or reader(*args))
    failed = split = 0
    for text in texts:
        want = _outcome(reference_load, text)
        read.clear()
        assert _outcome(load_multiteam, text) == want, text
        failed += isinstance(want[0], type)
        split += not read
    assert 900 < failed < 2100 and split > 1500, (failed, split)


def test_only_text_the_split_cannot_read_reaches_csv(monkeypatch, tmp_path):
    """With csv's reader broken, every team the `files` workload writes
    still loads; a quote, a carriage return, padding of any whitespace and
    an over-long line each go to csv."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import worker
    import workloads
    workloads.build("files", worker.import_program(), 0, tmp_path)
    paths = sorted(tmp_path.glob("*.csv"))
    texts = [p.read_text(encoding="utf-8") for p in paths if p.name != "ragged.csv"]
    want = [_outcome(load_multiteam, text) for text in texts]

    class Unread(Exception):
        pass

    def unread(*args):
        raise Unread

    monkeypatch.setattr(csv, "reader", unread)  # the module `multiteam.io` reads with
    assert len(texts) == 9 and all(isinstance(w[2], int) for w in want)
    assert [_outcome(load_multiteam, text) for text in texts] == want
    for text in ('x\n"a"\n', "x\r\na\r\n", "x\na \n", "x\n\ta\n", "x\na\u00a0\n",
                 "x\na\x1c\n", "x\n" + "a" * 131_073 + "\n", "x\na\x00\n", " x\na\n"):
        with pytest.raises(Unread):
            load_multiteam(text)
    with pytest.raises(Unread):  # naming a ragged row's line is csv's work
        load_multiteam((tmp_path / "ragged.csv").read_text(encoding="utf-8"))


def test_the_column_loader_reads_the_wide_teams_as_the_old_loader_did(monkeypatch):
    """About 1k rows of each `files` team kind, counted and not, with rows
    repeated and shuffled and, when counted, some counted 0; then the same
    text with one ragged row near the end."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    rng = random.Random(23)
    for kind in ("product", "sampled"):
        for counted in (False, True):
            rows, _ = workloads._wide_team(rng, kind, counted)
            head, *body = workloads._csv(rows, counted).splitlines()
            if counted:
                for i in rng.sample(range(len(body)), 50):
                    body[i] = body[i].rsplit(",", 1)[0] + ",0"
            body += rng.sample(body, 200)
            rng.shuffle(body)
            ragged = body[:-3] + [body[-3].rsplit(",", 1)[0]] + body[-2:]
            team, bad = ("\n".join([head] + lines) + "\n" for lines in (body, ragged))
            got = _outcome(load_multiteam, team)
            assert got == _outcome(reference_load, team)
            assert len(got[1]) < len(rows) if counted else len(got[1]) == len(rows)
            assert _outcome(load_multiteam, bad) == _outcome(reference_load, bad) == (
                ParseError, f"row has {4 + counted} fields, header has {5 + counted} "
                            f"(line {len(body) - 1})")


def test_a_loaded_team_hashes_and_compares_as_the_constructed_one():
    loaded = load_multiteam("y,x,#count\n1,0,2\n0,0,1\n1, 0 ,1\n0,1,0\n")
    built = Multiteam(("x", "y"), {("0", "1"): 3, ("0", "0"): 1})
    assert loaded == built and hash(loaded) == hash(built)
    assert {built: "found"}[loaded] == "found"
    other = Multiteam(("x", "y"), {("0", "1"): 2, ("0", "0"): 1})
    assert loaded != other and hash(load_multiteam(dump_multiteam(other))) == hash(other)


def test_a_team_uses_the_values_of_its_counted_rows_alone():
    # the loader and the constructor hand over the values they checked,
    # except when a row counted 0 is dropped: its values are not the team's
    teams = [load_multiteam("y,x,#count\n1,0,2\n2,3,0\n"), load_multiteam("y,x\n1,0\n2,3\n"),
             load_multiteam("y,x,#count\n1,0,0\n"), load_multiteam("x\n"),
             Multiteam(("x", "y"), {("0", "1"): 2, ("3", "2"): 0}),
             Multiteam(("x", "y"), {("0", "1"): 2, ("3", "2"): 1})]
    for t, used in zip(teams, [{"0", "1"}, {"0", "1", "2", "3"}, set(), set()] * 2):
        assert t.values_used() == used, t
        with pytest.raises(AttributeError):
            t.values_used().add("9")
    structure = load_structure("domain: 0 1\n")
    assert evaluate(structure, teams[0], parse("dep(x ; y)"))
    with pytest.raises(InputError, match="outside the structure domain"):
        evaluate(structure, teams[1], parse("dep(x ; y)"))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(PLAIN, st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.lists(PLAIN, max_size=3, unique=True), STRUCTURE_TEXT, st.data())
def test_structure_round_trip(domain, names, odd, data):
    """Every multistructure the constructor accepts loads back equal from
    its dump, and a domain value or relation name outside the alphabet is
    refused by Multiset and by Multistructure."""
    values = st.sampled_from(sorted(domain))
    a = Multistructure(domain, {
        name: (arity, data.draw(st.lists(st.tuples(*[values] * arity), max_size=3)))
        for arity, name in enumerate(names)})
    assert load_structure(dump_structure(a)) == a
    accepted_iff_in_alphabet(odd, lambda v: Multiset({v: 2}), lambda v: Multiset([v, "a"]))
    for a in accepted_iff_in_alphabet(
            odd, lambda v: Multistructure({v: 2, "a": 1}, {"R": (1, [(v,)])}),
            lambda name: Multistructure({"a": 1}, {name: (2, [("a", "a")])})):
        assert load_structure(dump_structure(a)) == a


def test_structure_dumps_that_would_not_load_back_are_refused():
    for build in (lambda: Multistructure({"a b": 1}), lambda: Multistructure({"a*2": 1}),
                  lambda: Multistructure({"": 1, "a": 1}),
                  lambda: Multistructure({"a,b": 1}, {"R": (1, [("a,b",)])}),
                  lambda: Multistructure({"a": 1}, {"R:": (1, [])}),
                  lambda: Multistructure({"a": 1}, {"R/S": (1, [])}),
                  lambda: Multistructure({"a": 1}, {" R": (1, [])}),
                  lambda: Multistructure({"a": 1}, {"": (1, [])}),
                  lambda: Multistructure({"a": 1}, {"R\nS": (1, [])}),
                  lambda: Multistructure({"#": 1}),
                  lambda: Multistructure({"a": 1}, {"#R S": (0, [])})):
        with pytest.raises(InputError):
            build()
    kept = Multistructure({"(": 2, ")": 1},
                          {"R": (2, [("(", ")"), (")", "(")]), "E": (0, [()])})
    assert load_structure(dump_structure(kept)) == kept
