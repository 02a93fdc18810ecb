"""Command-line front end: check instances, encode CNF files, run law suites.

Exit codes are a contract: 0 for true / pass, 1 for false / violations,
2 for unusable input of any kind.  The mode flags default to multi/lax.  A
size bound is a ratio `<p>` or a row count `<#k>` in the formula itself, in
every mode.  `check` reads FORMULA as formula text, and as the path of a
file holding it only when the text does not parse and that file exists.
"""

import argparse
import functools
import inspect
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InputError, ParseError
from .formula import MAX_DIGITS
from .io import dump_multiteam, dump_structure, load_multiteam, load_structure
from .model import Multiteam, _shown
from .parser import parse
from .reductions import encode_3sat, encode_maxsat, parse_dimacs
from .semantics import SemanticsConfig, Witness, evaluate, witness
from .suites import SUITES, run_suite

# each `props` bound and its least value; `--jobs 0` means the default
BOUND_FLAGS = {"trials": 0, "max_rows": 0, "max_dom": 1, "max_depth": 0, "max_mult": 1,
               "max_vars": 1, "max_clauses": 0, "max_clauses2": 0, "jobs": 0}


#: the text `Fraction` reads as a decimal with an exponent, as CPython's
#: `fractions` module reads it: the integer digits, the decimals, the exponent
_SCIENTIFIC = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                         r"e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)


def _fraction(text: str) -> Fraction:
    """`Fraction(text)`, refused first when text's exponent would give a
    numerator or denominator past MAX_DIGITS, before `Fraction` works out
    that power of ten.  With d significant digits and the point moved k
    places, the numerator keeps at least d + k digits (exactly that many
    when k >= 0), and the denominator 10^-k, divided by at most the digits'
    value, more than -k - d.  A zero is zero whatever its exponent."""
    m = _SCIENTIFIC.fullmatch(text)
    if m is not None:
        whole, decimals, exponent = (g.replace("_", "") for g in m.groups(""))
        digits = len((whole + decimals).lstrip("0"))
        power = exponent.lstrip("+-").lstrip("0")
        shift = int(power or "0") if len(power) <= MAX_DIGITS else 10 ** MAX_DIGITS
        shift = (-shift if exponent.startswith("-") else shift) - len(decimals)
        if not digits:
            text = text[:m.start(3) - 1]
        elif digits + shift > MAX_DIGITS or -shift - digits >= MAX_DIGITS:
            raise InputError(f"fraction {_shown(text)} has a numerator or denominator "
                             f"of more than {MAX_DIGITS:,} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad fraction {_shown(text)}") from None


def _read(path: str) -> str:
    """The text of the file at path, which must be UTF-8; the path of a file
    that opens is no longer than the system allows, so it is shown whole."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path!r} is not UTF-8 text: "
                         f"{exc.reason} at byte {exc.start}") from None


def _formula_from(arg: str):
    try:
        return parse(arg)
    except ParseError:
        if not os.path.exists(arg):
            raise
    return parse(_read(arg))


def _team_line(t: Multiteam) -> str:
    rows = [(" ".join(f"{x}={v}" for x, v in zip(t.variables, key)) or "()")
            + (f" *{m}" if m > 1 else "")
            for key, m in t.row_items()]
    return "{" + "; ".join(rows) + "}"


def _print_witness(w: Witness, indent: int = 0) -> None:
    pad = "  " * indent
    line = f"{pad}{w.formula}  on {_team_line(w.team)}"
    if w.choice:
        line += f"  [{w.choice}]"
    print(line)
    for part in w.parts:
        _print_witness(part, indent + 1)


def cmd_check(args) -> int:
    cfg = SemanticsConfig(team_kind=args.team_kind, strictness=args.strictness)
    structure = load_structure(_read(args.structure))
    if args.team:
        team = load_multiteam(_read(args.team))
    else:
        team = Multiteam((), {(): 1})
    f = _formula_from(args.formula)
    if args.witness:
        trace = witness(structure, team, f, cfg)
        verdict = trace.holds
        if verdict:
            _print_witness(trace)
    else:
        verdict = evaluate(structure, team, f, cfg)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_gen(args) -> int:
    phi = parse_dimacs(_read(args.cnf))
    if args.kind == "3sat":
        instance = encode_3sat(phi)
    else:
        if args.frac is None:
            raise InputError("max2sat needs --frac, e.g. --frac 7/10")
        instance = encode_maxsat(phi, _fraction(args.frac))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in (("structure.txt", dump_structure(instance.structure)),
                       ("team.csv", dump_multiteam(instance.team)),
                       ("formula.txt", str(instance.formula) + "\n")):
        path = out / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


def cmd_props(args) -> int:
    reads = inspect.signature(SUITES[args.suite]).parameters
    bounds = {name: value for name in BOUND_FLAGS if (value := getattr(args, name)) is not None}
    unread = ["--" + name.replace("_", "-") for name in bounds if name not in reads]
    if unread:
        raise InputError(f"suite {args.suite} does not read {', '.join(unread)}")
    report = run_suite(args.suite, seed=args.seed, **bounds)
    print(report.render())
    return 0 if report.passed else 1


def _at_least(least: int):
    """An argparse type: an int of at least `least`, else a usage error."""
    def bound(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    bound.__name__ = "int"  # argparse names the type in "invalid int value"
    return bound


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multiteam",
        description="Exact model checking over team and multiteam semantics.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "check", help="evaluate a formula over a structure and multiteam")
    c.add_argument("structure", help="structure file")
    c.add_argument("formula", help="formula text, or a path to a file "
                                   "holding it if the text does not parse")
    c.add_argument("--team", help="multiteam CSV file; omitted: the "
                                  "one-row team of the empty assignment")
    c.add_argument("--team-kind", choices=("set", "multi"), default="multi")
    c.add_argument("--strictness", choices=("lax", "strict"), default="lax")
    c.add_argument("--witness", action="store_true",
                   help="print the first witnessing choices on success")
    c.set_defaults(run=cmd_check)

    g = sub.add_parser("gen", help="encode a CNF file as a checkable instance")
    g.add_argument("kind", choices=("3sat", "max2sat"))
    g.add_argument("cnf", help="DIMACS CNF file")
    g.add_argument("--frac", help="threshold fraction for max2sat, e.g. 7/10")
    g.add_argument("--out", default=".", help="output directory")
    g.set_defaults(run=cmd_gen)

    r = sub.add_parser("props", help="run one law suite")
    r.add_argument("suite", choices=sorted(SUITES))
    r.add_argument("--seed", type=int, default=0)
    for name, least in BOUND_FLAGS.items():
        r.add_argument("--" + name.replace("_", "-"), type=_at_least(least))
    r.set_defaults(run=cmd_props)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` and reused: parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, ParseError, OSError) as exc:
        if isinstance(exc, OSError) and len(str(exc.filename or "")) > 4096:  # past any path
            exc = f"{exc.strerror}: {_shown(str(exc.filename))}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
