"""Propositional encodings into multiteam checking, with brute-force oracles.

A CNF becomes a four-column team: one row (clause index, literal position,
variable, parity) per literal occurrence, parity 0 for a positive and 1 for a
negated variable.  Satisfiability of a 3CNF is then equivalent to
`<1/3>(dep(clause ; literal) & dep(variable ; parity))`: a third of the rows
picking one literal per clause with consistent polarities is exactly a
satisfying assignment.  For a 2CNF, splitting off such a selection first lets
`dep(clause ; literal) | (dep(clause ; literal) & <k/m> dep(variable ;
parity))` decide whether at least k of the m clauses can hold at once.

The oracles answer the same questions by enumerating all assignments; they
cap the variable count so a typo cannot turn a test run into 2^large work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from sys import intern

from .errors import InputError, ParseError
from .formula import And, Dep, ExistsFrac, Or, Threshold
from .model import Multiteam, Multistructure, _shown
from .semantics import Instance

__all__ = ["CnfFormula", "encode_3sat", "encode_maxsat",
           "sat_oracle", "maxsat_oracle", "parse_dimacs", "MAX_ORACLE_VARS"]

MAX_ORACLE_VARS = 20

TEAM_COLUMNS = ("clause", "literal", "variable", "parity")


@dataclass(frozen=True)
class CnfFormula:
    """Conjunctive normal form: clauses of (variable, parity) literals,
    parity 0 meaning the plain variable and 1 its negation."""

    clauses: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self):
        fixed = []
        for clause in self.clauses:
            lits = []
            for lit in clause:
                var, parity = lit
                if not isinstance(var, str) or not var:
                    raise InputError(f"literal variable must be a nonempty string, got {_shown(var)}")
                if parity not in (0, 1):
                    raise InputError(f"literal parity must be 0 or 1, got {_shown(parity)}")
                lits.append((var, parity))
            if not lits:
                raise InputError("clauses must contain at least one literal")
            fixed.append(tuple(lits))
        object.__setattr__(self, "clauses", tuple(fixed))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({var for clause in self.clauses for var, _ in clause}))

    def __str__(self) -> str:
        def lit(l):
            var, parity = l
            return f"-{var}" if parity else var
        return " & ".join("(" + " | ".join(lit(l) for l in clause) + ")"
                          for clause in self.clauses) or "(empty)"


def _encode_team(phi: CnfFormula) -> tuple[Multistructure, Multiteam]:
    # one string object per symbol, however many rows and instances repeat it
    rows = []
    symbols = {"0", "1"}
    for i, clause in enumerate(phi.clauses, 1):
        for j, (var, parity) in enumerate(clause, 1):
            row = (intern(str(i)), intern(str(j)), intern(var), intern(str(parity)))
            rows.append(row)
            symbols.update(row[:3])
    structure = Multistructure({v: 1 for v in symbols})
    return structure, Multiteam(TEAM_COLUMNS, rows)


def encode_3sat(phi: CnfFormula) -> Instance:
    """The checking instance that is true exactly when the 3CNF is satisfiable."""
    if any(len(clause) != 3 for clause in phi.clauses):
        raise InputError("encode_3sat needs exactly three literals per clause")
    structure, team = _encode_team(phi)
    body = And(Dep(("clause",), ("literal",)), Dep(("variable",), ("parity",)))
    return Instance(structure, team, ExistsFrac(Threshold(Fraction(1, 3)), body))


def encode_maxsat(phi: CnfFormula, frac) -> Instance:
    """The checking instance that is true exactly when a frac fraction of the
    2CNF's clauses (k clauses for frac = k/m) can hold simultaneously."""
    if any(len(clause) != 2 for clause in phi.clauses):
        raise InputError("encode_maxsat needs exactly two literals per clause")
    structure, team = _encode_team(phi)
    pick = Dep(("clause",), ("literal",))
    scored = And(pick, ExistsFrac(Threshold(Fraction(frac)), Dep(("variable",), ("parity",))))
    return Instance(structure, team, Or(pick, scored))


def _assignments(variables):
    for bits in itertools.product((True, False), repeat=len(variables)):
        yield dict(zip(variables, bits))


def _satisfied(clause, assignment) -> bool:
    return any(assignment[var] == (parity == 0) for var, parity in clause)


def _checked_variables(phi: CnfFormula):
    variables = phi.variables
    if len(variables) > MAX_ORACLE_VARS:
        raise InputError(
            f"oracle is exhaustive and limited to {MAX_ORACLE_VARS} variables, "
            f"got {len(variables)}")
    return variables


def sat_oracle(phi: CnfFormula) -> bool:
    """Exhaustive satisfiability check."""
    return any(all(_satisfied(c, a) for c in phi.clauses)
               for a in _assignments(_checked_variables(phi)))


def maxsat_oracle(phi: CnfFormula) -> int:
    """Largest number of clauses any single assignment satisfies."""
    return max(sum(_satisfied(c, a) for c in phi.clauses)
               for a in _assignments(_checked_variables(phi)))


def parse_dimacs(text: str) -> CnfFormula:
    """Read `p cnf` CNF text: clauses are runs of signed integers ending in 0,
    variable k becoming "xk" and a negative sign parity 1.  Comment lines
    start with c; the declared variable and clause counts are not enforced."""
    header = False
    tokens: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header:
                raise ParseError("duplicate problem line", line=lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(f"malformed problem line {_shown(line)}", line=lineno)
            try:
                int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line {_shown(line)}", line=lineno) from None
            header = True
            continue
        if not header:
            raise ParseError("clause data before the problem line", line=lineno)
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise ParseError(f"clause token {_shown(tok)} is not an integer",
                                 line=lineno) from None
    if not header:
        raise ParseError("missing problem line 'p cnf <vars> <clauses>'")
    clauses: list[tuple[tuple[str, int], ...]] = []
    current: list[tuple[str, int]] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise ParseError("clause with no literals")
            clauses.append(tuple(current))
            current = []
        else:
            current.append((f"x{abs(tok)}", 0 if tok > 0 else 1))
    if current:
        raise ParseError("last clause is not terminated by 0")
    return CnfFormula(tuple(clauses))
