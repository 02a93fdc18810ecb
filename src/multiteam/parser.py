"""Recursive-descent parser for the formula text format.

Grammar (whitespace-insensitive between tokens):

    formula   := or_expr [ "->" "{" threshold "}" formula ]
    or_expr   := and_expr ( "|" and_expr )*
    and_expr  := unary ( "&" unary )*
    unary     := "<" threshold ">" unary        existential approximation
               | "[" threshold "]" unary        universal approximation
               | ( "E" | "A" ) VAR "." formula  quantifier, maximal scope
               | primary
    primary   := "(" formula ")"
               | "~" NAME "(" vars ")"          negated relation
               | "dep"  "(" groups ")"          1 group: constancy; else 2
               | "inc"  "(" groups ")"          2 equally long groups
               | "excl" "(" groups ")"          2 equally long groups
               | "pinc" "(" groups ")"          2 equally long groups
               | "ind"  "(" groups ")"          3 groups, or 2 for marginal
               | "pind" "(" groups ")"          3 groups, or 2 for marginal
               | NAME "(" vars ")"              relation
               | VAR ( "=" | "!=" ) VAR
    threshold := "#" INT | INT [ "/" INT ]
    groups    := vars ( ";" vars )*
    vars      := [ VAR ( "," VAR )* ]

Ratio thresholds must lie in [0,1].  The marginal forms `ind(xs ; ys)` and
`pind(xs ; ys)` are sugar for the conditional atom with an empty condition
group, and `dep(xs)` for the constancy atom `dep(; xs)`.  The words E, A,
dep, inc, excl, ind, pinc and pind are reserved and cannot name variables
or relations.  Unary operators bind tightest, then `&`, then `|`, then the
implication arrow; parentheses override.  Nesting deeper than MAX_DEPTH
allows is a ParseError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .formula import (ATOMS, MAX_DIGITS, And, Eq, Exists, ExistsFrac, Forall, Formula,
                      ForallFrac, ImplFrac, Neq, NegRel, Or, Rel, Threshold, scan)
from .model import _shown

__all__ = ["parse", "KEYWORDS", "MAX_DEPTH"]

KEYWORDS = frozenset({"E", "A", *ATOMS})

#: Highest formula tree accepted.  Its text may nest parentheses, quantifier
#: scopes and arrows up to twice as deep, which covers what the printer writes
#: for such a tree.  Evaluating takes at most four Python frames per tree level
#: and parsing five per nested construct: room is left under the default
#: recursion limit of 1000.
MAX_DEPTH = 50

_TWO_CHAR = ("!=", "->")
_ONE_CHAR = set("()[]{}<>,;.=&|~#/")


class Token(NamedTuple):
    kind: str  # "ident", "int", "op", "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            tokens.append(Token("op", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(Token("op", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdecimal():  # what int() reads: not '²', which isdigit() takes
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text or tok.kind == "end":
            shown = "end of input" if tok.kind == "end" else _shown(tok.text)
            self.fail(f"expected {text!r}, found {shown}", tok)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind != "end" and tok.text == text

    def descend(self) -> None:
        """Enter one more nested rule; the caller leaves it with depth -= 1."""
        self.depth += 1
        if self.depth > 2 * MAX_DEPTH:
            self.fail("formula nests too deeply")

    # --- grammar rules -------------------------------------------------

    def formula(self) -> Formula:
        self.descend()
        f = self.or_expr()
        if self.at("->"):
            self.next()
            self.expect("{")
            p = self.threshold()
            self.expect("}")
            f = ImplFrac(p, f, self.formula())
        self.depth -= 1
        return f

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.at("|"):
            self.next()
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.unary()
        while self.at("&"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        for opening, closing, cls in (("<", ">", ExistsFrac), ("[", "]", ForallFrac)):
            if self.at(opening):
                self.next()
                p = self.threshold()
                self.expect(closing)
                self.descend()
                f = cls(p, self.unary())
                self.depth -= 1
                return f
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("E", "A"):
            self.next()
            var = self.variable()
            self.expect(".")
            body = self.formula()
            return Exists(var, body) if tok.text == "E" else Forall(var, body)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if self.at("("):
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if self.at("~"):
            self.next()
            name = self.name()
            self.expect("(")
            args = self.var_list()
            self.expect(")")
            return NegRel(name, args)
        if tok.kind != "ident":
            self.fail(f"expected a formula, found {_shown(tok.text)}" if tok.kind != "end"
                      else "expected a formula, found end of input")
        if tok.text in ATOMS:
            return self.atom(ATOMS[tok.text])
        name = self.next().text
        if self.at("("):
            self.next()
            args = self.var_list()
            self.expect(")")
            return Rel(name, args)
        if self.at("="):
            self.next()
            return Eq(name, self.variable())
        if self.at("!="):
            self.next()
            return Neq(name, self.variable())
        self.fail(f"expected '(', '=' or '!=' after {_shown(name)}")

    def atom(self, cls) -> Formula:
        tok = self.next()
        self.expect("(")
        groups = [self.var_list()]
        while self.at(";"):
            self.next()
            groups.append(self.var_list())
        self.expect(")")
        # an atom whose sides need not match may leave out its first group,
        # which is then empty: dep(ys) is dep(; ys), ind(ys ; zs) is marginal
        n = len(cls.__match_args__)
        counts = (n,) if cls.same_length else (n - 1, n)
        if len(groups) not in counts:
            want = " or ".join(str(c) for c in counts)
            self.fail(f"{cls.keyword} takes {want} ';'-separated groups, got {len(groups)}", tok)
        if cls.same_length and len(groups[0]) != len(groups[1]):
            self.fail(f"{cls.keyword} needs equally long groups, got "
                      f"{len(groups[0])} and {len(groups[1])} variables", tok)
        return cls(*[()] * (n - len(groups)), *groups)

    def threshold(self) -> Threshold:
        if self.at("#"):
            self.next()
            return Threshold(self.number("a count after '#'", "count")[0], absolute=True)
        num, tok = self.number("a threshold", "numerator")
        den = 1
        if self.at("/"):
            self.next()
            den, dtok = self.number("a denominator", "denominator")
            if den == 0:
                self.fail("threshold denominator must not be zero", dtok)
        if num > den:
            self.fail(f"ratio threshold {_shown(num)}/{_shown(den)} lies outside [0,1]", tok)
        return Threshold(Fraction(num, den))

    def number(self, expected: str, what: str) -> tuple[int, Token]:
        """The next token as a threshold's count, numerator or denominator."""
        tok = self.next()
        if tok.kind != "int":
            self.fail(f"expected {expected}", tok)
        if len(tok.text) > MAX_DIGITS:
            self.fail(f"threshold {what} is over the limit of {MAX_DIGITS:,} digits: "
                      f"{len(tok.text):,} digits", tok)
        return int(tok.text), tok

    def variable(self) -> str:
        return self.name()

    def name(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            shown = "end of input" if tok.kind == "end" else _shown(tok.text)
            self.fail(f"expected a name, found {shown}", tok)
        if tok.text in KEYWORDS:
            self.fail(f"{tok.text!r} is a reserved word", tok)
        return tok.text

    def var_list(self) -> tuple[str, ...]:
        names = []
        if self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
            names.append(self.name())
            while self.at(","):
                self.next()
                names.append(self.name())
        return tuple(names)


def parse(text: str) -> Formula:
    """Parse the text form of a formula into an AST."""
    parser = _Parser(text)
    f = parser.formula()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail(f"unexpected trailing input {_shown(tail.text)}", tail)
    if scan(f, MAX_DEPTH)[0] > MAX_DEPTH:
        raise ParseError(f"formula nests too deeply: more than {MAX_DEPTH} levels")
    return f
