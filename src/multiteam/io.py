"""Text formats for multiteams and multistructures.

Multiteams are CSV: a header of variable names, optionally ending in a
`#count` column holding decimal multiplicities (absent means 1 per row).
Multistructures are line oriented: a `domain:` line of values with optional
`*mult` suffixes, then one `rel NAME/ARITY:` line of parenthesized value
tuples per relation.  Dumps are canonical - rows and values in sorted
order - so dumps are diffable.  Every value and name lies in the alphabet
`multiteam.model` checks at construction, so both dumps always succeed and a
dump loads back as an equal multiteam or multistructure.

A CSV multiteam is read in column passes, each a chain of C calls, straight
into the table a `Multiteam` keeps.  The fields are got one of two ways.  A
text that is ASCII, holds no `"`, no NUL and no whitespace but the line
break, and no line longer than csv's field size limit is split: its lines at
the line break, each line's field count checked as one set of comma counts,
then one flat field list sliced into columns.  RFC 4180 gives a quote
meaning only where one is written, and csv ends a record only at a line
break or `CR`, so csv reads such a text as the same records, and with
nothing to strip the fields are the same strings; a blank first line is the
empty header and later blank lines are skipped, as csv reads them.  Every
other text is read by `csv`, its records taken as tuples and each column
stripped.  From the fields on, the two share one path: the count column is
parsed, each sorted variable's column zipped into the keys, counts summed
again only when a row repeats, and each distinct value checked against the
alphabet once.  The split refuses no text by itself: a record of the wrong
width or a bad count sends either way to the text read again by csv record
by record, to name the first bad record at its physical line, so the errors,
row order and values are the same whichever way the fields came.  Tuples,
not the lists csv makes, are held: a thousand lists held across a load set
off the cyclic collector, as `zip(*rows)` would by making an iterator per
row.  A row counted 0 is checked like any other and then not stored.
"""

from __future__ import annotations

import csv
import io as _stringio
from functools import partial
from itertools import repeat
from operator import itemgetter

from .errors import ParseError
from .model import Multiset, Multiteam, Multistructure, _check_table, _shown

__all__ = ["load_multiteam", "dump_multiteam", "load_structure", "dump_structure"]

COUNT_COLUMN = "#count"


def load_multiteam(text: str) -> Multiteam:
    """Parse the CSV multiteam format.  A record csv cannot read (a bare
    carriage return in a field, a field over csv's size limit), one with too
    many or too few fields, and a count that is not a nonnegative integer
    are each a ParseError at the reader's physical line."""
    if text and _plain(text):
        header, *lines = text.split("\n")
        return _read_multiteam(text, header.split(",") if header else [],
                               partial(_split_records, lines))
    reader = csv.reader(_stringio.StringIO(text))
    try:
        return _read_multiteam(text, next(reader, None), partial(_csv_records, reader))
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None


#: what csv reads otherwise than a split at `,` and `\n`, or what it strips:
#: the quote, whitespace other than the line break, and NUL, which csv
#: refuses before Python 3.11
_CSV_ONLY = '"\0' + "".join(c for c in map(chr, range(128)) if c.isspace() and c != "\n")


def _plain(text: str) -> bool:
    """Whether csv reads text's lines as their splits at `,`, each field
    unstripped: text is ASCII, holds none of `_CSV_ONLY`, and no line could
    hold a field over csv's size limit (read at each call, as csv does;
    lines are measured only when the whole text is over it)."""
    limit = csv.field_size_limit()
    return (text.isascii() and not any(c in text for c in _CSV_ONLY)
            and (len(text) <= limit or max(map(len, text.split("\n"))) <= limit))


def _split_records(lines: list[str], width: int):
    """The nonblank lines' fields as (count, column): column(j) lists every
    record's field j.  ValueError when a record has other than width fields."""
    body = list(filter(None, lines))
    if not set(map(str.count, body, repeat(","))) <= {width - 1}:
        raise ValueError("a record's width differs")
    fields = ",".join(body).split(",") if body else []
    return len(body), lambda j: fields[j::width]


def _csv_records(reader, width: int):
    """The nonblank records of reader as (count, column): column(j) iterates
    over every record's field j, stripped.  ValueError when a record has
    other than width fields."""
    rows = list(filter(None, map(tuple, reader)))
    if not set(map(len, rows)) <= {width}:
        raise ValueError("a record's width differs")
    return len(rows), lambda j: map(str.strip, map(itemgetter(j), rows))


def _read_multiteam(text: str, header, records) -> Multiteam:
    if header is None:
        raise ParseError("multiteam CSV needs a header row")
    header = [h.strip() for h in header]
    width = len(header)
    counted = bool(header) and header[-1] == COUNT_COLUMN
    variables = header[:-1] if counted else header
    if len(set(variables)) != len(variables):
        raise ParseError(f"duplicate variable names in header {_shown(header)}")
    if COUNT_COLUMN in variables:
        raise ParseError(f"{COUNT_COLUMN} may only be the final column")
    try:
        n, column = records(width)
        counts = list(map(int, column(width - 1))) if counted else [1] * n
        ok = min(counts, default=0) >= 0
    except (csv.Error, ValueError):
        ok = False
    if not ok:
        _raise_first_bad(text, width, counted)
    svars = tuple(sorted(variables))
    columns = [column(variables.index(x)) for x in svars]
    keys = list(zip(*columns)) if columns else [()] * n
    table = dict(zip(keys, counts))
    if len(table) < n:  # a row repeats: sum the counts
        table = dict.fromkeys(table, 0)
        for key, count in zip(keys, counts):
            table[key] += count
    values = _check_table(variables, svars, table)
    if 0 in table.values():  # a scan in C; rebuild only when a row sums to 0
        table = {k: c for k, c in table.items() if c}
        values = None  # a dropped row's values are not the team's
    return Multiteam._from_table(svars, table, values)


def _raise_first_bad(text: str, width: int, counted: bool) -> None:
    """Read text again and raise the ParseError of the first record with other
    than width fields or a bad count, or csv.Error where the first read met it."""
    reader = csv.reader(_stringio.StringIO(text))
    next(reader)
    for row in reader:
        if row and len(row) != width:
            raise ParseError(f"row has {len(row)} fields, header has {width}",
                             line=reader.line_num)
        if row and counted:
            count_text = row[-1].strip()
            try:
                count = int(count_text)
            except ValueError:
                raise ParseError(f"count {_shown(count_text)} is not an integer",
                                 line=reader.line_num) from None
            if count < 0:
                raise ParseError(f"count {_shown(count)} is negative", line=reader.line_num)


def dump_multiteam(t: Multiteam) -> str:
    """Canonical CSV text for a multiteam, always with a #count column."""
    out = _stringio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(t.variables) + [COUNT_COLUMN])
    for key, m in t.row_items():
        writer.writerow(list(key) + [str(m)])
    return out.getvalue()


def _parse_domain_tokens(tokens, lineno) -> Multiset:
    counts: dict[str, int] = {}
    for token in tokens:
        value, star, mult_text = token.partition("*")
        if not value:
            raise ParseError(f"malformed domain entry {_shown(token)}", line=lineno)
        if star:
            try:
                mult = int(mult_text)
            except ValueError:
                raise ParseError(
                    f"malformed multiplicity in {_shown(token)}", line=lineno) from None
        else:
            mult = 1
        if mult <= 0:
            raise ParseError(f"domain multiplicity in {_shown(token)} must be positive",
                             line=lineno)
        counts[value] = counts.get(value, 0) + mult
    return Multiset(counts)


def _parse_tuple_token(token, arity, lineno) -> tuple[str, ...]:
    if not (token.startswith("(") and token.endswith(")")):
        raise ParseError(f"relation tuple {_shown(token)} must be parenthesized", line=lineno)
    inner = token[1:-1].strip()
    values = tuple(v.strip() for v in inner.split(",")) if inner else ()
    if any(not v for v in values):
        raise ParseError(f"relation tuple {_shown(token)} has an empty value", line=lineno)
    if len(values) != arity:
        raise ParseError(f"tuple {_shown(token)} does not match arity {arity}", line=lineno)
    return values


def load_structure(text: str) -> Multistructure:
    """Parse the line-oriented multistructure format."""
    domain = None
    relations: dict[str, tuple[int, list[tuple[str, ...]]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, colon, rest = line.partition(":")
        if not colon:
            raise ParseError(f"expected 'domain:' or 'rel NAME/ARITY:', got {_shown(line)}",
                             line=lineno)
        head = head.strip()
        tokens = rest.split()
        if head == "domain":
            if domain is not None:
                raise ParseError("duplicate domain line", line=lineno)
            domain = _parse_domain_tokens(tokens, lineno)
        elif head.startswith("rel "):
            name, slash, arity_text = head[4:].strip().partition("/")
            name = name.strip()
            if not slash or not name:
                raise ParseError(f"relation head must be 'rel NAME/ARITY', got {_shown(head)}",
                                 line=lineno)
            try:
                arity = int(arity_text)
            except ValueError:
                raise ParseError(f"relation arity {_shown(arity_text)} is not an integer",
                                 line=lineno) from None
            if name in relations:
                raise ParseError(f"duplicate relation {_shown(name)}", line=lineno)
            relations[name] = (arity, [_parse_tuple_token(tok, arity, lineno)
                                       for tok in tokens])
        else:
            raise ParseError(f"expected 'domain:' or 'rel NAME/ARITY:', got {_shown(line)}",
                             line=lineno)
    if domain is None:
        raise ParseError("structure text has no domain line")
    return Multistructure(domain, relations)


def dump_structure(a: Multistructure) -> str:
    """Canonical text for a multistructure."""
    entries = []
    for value, mult in a.domain.items():
        entries.append(value if mult == 1 else f"{value}*{mult}")
    lines = ["domain: " + " ".join(entries)]
    for name, (arity, tuples) in sorted(a.relations.items()):
        rendered = " ".join("(" + ",".join(tup) + ")" for tup in sorted(tuples))
        lines.append(f"rel {name}/{arity}:" + (" " + rendered if rendered else ""))
    return "\n".join(lines) + "\n"
