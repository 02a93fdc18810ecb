"""Tests for the command-line front end."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multiteam import cli
from multiteam.cli import main
from multiteam.io import load_multiteam, load_structure
from multiteam.parser import parse
from multiteam.formula import (ATOMS, And, Eq, Exists, ExistsFrac, Forall,
                               ForallFrac, ImplFrac, Neq, NegRel, Or, Rel,
                               Threshold)
from multiteam.suites import SUITES

FIG1_TEAM = "x,y,#count\n0,0,2\n0,1,1\n1,0,1\n1,1,1\n"
FIG2_TEAM = "x,y,z,#count\n0,0,1,2\n1,2,0,1\n2,1,0,1\n"
TWO_CLAUSES = "c demo\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "structure01.txt").write_text("domain: 0 1\nrel R/1: (0)\n")
    (tmp_path / "structure012.txt").write_text("domain: 0 1 2\n")
    (tmp_path / "fig1.csv").write_text(FIG1_TEAM)
    (tmp_path / "fig2.csv").write_text(FIG2_TEAM)
    (tmp_path / "fig2flat.csv").write_text(FIG2_TEAM.replace("1,2\n", "1,1\n"))
    (tmp_path / "empty.csv").write_text("x,y\n")
    (tmp_path / "two.cnf").write_text(TWO_CLAUSES)
    return tmp_path


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_probabilistic_marginal_fails_on_the_skewed_team(workspace, capsys):
    code, out, _ = run([
        "check", workspace / "structure01.txt", "pind(;x;y)",
        "--team", workspace / "fig1.csv"], capsys)
    assert (code, out) == (1, "false\n")


def test_empty_teams_satisfy_everything(workspace, capsys):
    code, out, _ = run([
        "check", workspace / "structure01.txt", "pinc(x;y) & dep(x;y)",
        "--team", workspace / "empty.csv"], capsys)
    assert (code, out) == (0, "true\n")


def test_sentences_run_on_the_empty_assignment_team(workspace, capsys):
    code, out, _ = run([
        "check", workspace / "structure01.txt", "E x. R(x)"], capsys)
    assert (code, out) == (0, "true\n")
    code, out, _ = run([
        "check", workspace / "structure01.txt", "A x. R(x)"], capsys)
    assert (code, out) == (1, "false\n")


def test_strict_disjunction_splits_the_doubled_row(workspace, capsys):
    code, out, _ = run([
        "check", workspace / "structure012.txt", "inc(x;z) | inc(y;z)",
        "--team", workspace / "fig2.csv", "--strictness", "strict"], capsys)
    assert (code, out) == (0, "true\n")
    code, out, _ = run([
        "check", workspace / "structure012.txt", "inc(x;z) | inc(y;z)",
        "--team", workspace / "fig2flat.csv", "--strictness", "strict"],
        capsys)
    assert (code, out) == (1, "false\n")


def test_witness_output_reports_the_choices(workspace, capsys):
    code, out, _ = run([
        "check", workspace / "structure01.txt", "x = y | x != y",
        "--team", workspace / "fig1.csv", "--witness"], capsys)
    assert code == 0
    assert out.endswith("true\n")
    assert "[split]" in out
    assert "x=0 y=0 *2" in out


def test_a_long_field_exits_two_with_a_short_error(workspace, capsys):
    (workspace / "long.csv").write_text('x\n"' + "a" * 100_000 + ' b"\n')
    code, out, err = run(["check", workspace / "structure01.txt", "x = x",
                          "--team", workspace / "long.csv"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: value 'aaaaaaaaaaaaaaaa'... (100,002 characters) ")
    assert len(err) < 200


LONG = "x" * 100_000
OVER_LONG = {  # (structure, team, formula or CNF, extra arguments)
    "structure line": (LONG, "x\n0\n", "x = x", []),
    "domain token": (f"domain: 0 {LONG}*z", "x\n0\n", "x = x", []),
    "relation head": (f"domain: 0\nrel {LONG}:", "x\n0\n", "x = x", []),
    "relation arity": (f"domain: 0\nrel R/{LONG}:", "x\n0\n", "x = x", []),
    "relation tuple": (f"domain: 0\nrel R/1: {LONG}", "x\n0\n", "x = x", []),
    "tuple width": ("domain: 0\nrel R/2: (" + "0," * 50_000 + "0)", "x\n0\n", "x = x", []),
    "tuple value": (f"domain: 0\nrel R/1: ({LONG})", "x\n0\n", "x = x", []),
    "relation name": (f"domain: 0\nrel {LONG}/1:\nrel {LONG}/1:", "x\n0\n", "x = x", []),
    "count": ("domain: 0", f"x,#count\n0,{LONG}\n", "x = x", []),
    "negative count": ("domain: 0", "x,#count\n0,-" + "9" * 4000 + "\n", "x = x", []),
    "header": ("domain: 0", f"{LONG},{LONG}\n", "x = x", []),
    "stray values": ("domain: 0", "x\n" + "".join(f"{LONG[:70]}{i}\n" for i in range(5000)),
                     "x = x", []),
    "formula name": ("domain: 0", "x\n0\n", LONG, []),
    "trailing input": ("domain: 0", "x\n0\n", f"x = x {LONG}", []),
    "number for a name": ("domain: 0", "x\n0\n", "dep(" + "9" * 100_000 + ")", []),
    "free variable": ("domain: 0", "x\n0\n", f"{LONG} = x", []),
    "unknown relation": ("domain: 0", "x\n0\n", f"{LONG}(x)", []),
    "team path": ("domain: 0", None, "x = x", ["--team", LONG]),
    "problem line": (None, None, f"p cnf {LONG}\n", []),
    "clause token": (None, None, f"p cnf 3 1\n{LONG} 0\n", []),
    "fraction": (None, None, "p cnf 2 1\n1 2 0\n", ["--frac", LONG]),
    "threshold count": ("domain: 0", "x\n0\n", f"<#{'9' * 5000}> x = x", []),
    "threshold numerator": ("domain: 0", "x\n0\n", f"<{'9' * 5000}/1> x = x", []),
    "threshold denominator": ("domain: 0", "x\n0\n", f"<1/{'9' * 5000}> x = x", []),
    "fraction 1e400": (None, None, "p cnf 2 1\n1 2 0\n", ["--frac", "1e400"]),
    "fraction 1e5000": (None, None, "p cnf 2 1\n1 2 0\n", ["--frac", "1e5000"]),
    "fraction 1e-5000": (None, None, "p cnf 2 1\n1 2 0\n", ["--frac", "1e-5000"]),
    "fraction 1e999999999": (None, None, "p cnf 2 1\n1 2 0\n", ["--frac", "1e999999999"]),
    "fraction exponent": (None, None, "p cnf 2 1\n1 2 0\n", ["--frac", "1e" + "9" * 5000]),
}


@pytest.mark.parametrize("case", sorted(OVER_LONG))
def test_over_long_inputs_exit_two_with_a_short_error(case, tmp_path):
    structure, team, text, extra = OVER_LONG[case]
    if structure is None:  # a gen request: text is the CNF
        (tmp_path / "f.cnf").write_text(text)
        kind = "max2sat" if extra else "3sat"
        argv = ["gen", kind, tmp_path / "f.cnf", "--out", tmp_path / "out"]
    else:
        (tmp_path / "s.txt").write_text(structure)
        argv = ["check", tmp_path / "s.txt", text]
        if team is not None:
            (tmp_path / "t.csv").write_text(team)
            argv += ["--team", tmp_path / "t.csv"]
    code, out, err = quiet_main(argv + extra)
    assert code == 2 and out == "", (case, err[:300])
    assert err.startswith("error: ") and len(err) < 400, (case, err[:500])


NOT_UTF8 = bytes.fromhex("fffe00626164")


@pytest.mark.parametrize("which", ["structure", "team", "formula", "cnf"])
def test_a_file_that_is_not_utf8_exits_two_with_a_short_error(workspace, capsys, which):
    bad = workspace / f"bad.{which}"
    bad.write_bytes(NOT_UTF8)
    files = {"structure": workspace / "structure01.txt", "team": workspace / "fig1.csv",
             "formula": "x = x", "cnf": workspace / "two.cnf", which: bad}
    if which == "cnf":
        argv = ["gen", "3sat", files["cnf"], "--out", workspace / "out"]
    else:
        argv = ["check", files["structure"], files["formula"], "--team", files["team"]]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {str(bad)!r} is not UTF-8 text: invalid start byte at byte 0\n"


def test_formulas_can_come_from_files(workspace, capsys):
    path = workspace / "formula.txt"
    path.write_text("dep(x ; y)\n")
    code, out, _ = run([
        "check", workspace / "structure01.txt", path,
        "--team", workspace / "empty.csv"], capsys)
    assert (code, out) == (0, "true\n")


def test_formula_text_is_read_before_a_file_of_that_name(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    (workspace / "x=y").write_text("x = x\n")
    argv = ["check", "structure01.txt", "x=y", "--team", "fig1.csv"]
    assert run(argv, capsys)[:2] == (1, "false\n")
    (workspace / "x=y(").write_text("x = x\n")  # the text does not parse
    assert run(argv[:2] + ["x=y("] + argv[3:], capsys)[:2] == (0, "true\n")


def test_missing_and_malformed_inputs_exit_two(workspace, capsys):
    code, _, err = run([
        "check", workspace / "nowhere.txt", "dep()"], capsys)
    assert code == 2 and "nowhere.txt" in err
    (workspace / "bad.csv").write_text("x,y\n0\n")
    code, _, err = run([
        "check", workspace / "structure01.txt", "dep()",
        "--team", workspace / "bad.csv"], capsys)
    assert code == 2 and "error" in err
    code, _, err = run([
        "check", workspace / "structure01.txt", "dep(x"], capsys)
    assert code == 2


def test_csv_the_reader_cannot_read_exits_two(workspace, capsys):
    # a bare carriage return cannot reach the loader from a file, which the
    # CLI reads with universal newlines; a field over csv's limit can
    for text in ("a" * 200_000 + "\n", "x\n0\n" + "a" * 200_000 + "\n"):
        (workspace / "huge.csv").write_text(text)
        code, out, err = run([
            "check", workspace / "structure01.txt", "x=x",
            "--team", workspace / "huge.csv"], capsys)
        assert (code, out) == (2, "") and err.startswith("error:")
        assert "field larger than field limit" in err


def test_too_deeply_nested_formulas_exit_two(workspace, capsys):
    deep_parens = "(" * 200 + "x=y" + ")" * 200
    long_chain = " & ".join(["x=y"] * 2000)
    for text in (deep_parens, long_chain):
        code, _, err = run([
            "check", workspace / "structure01.txt", text,
            "--team", workspace / "fig1.csv"], capsys)
        assert code == 2 and "nests too deeply" in err
        path = workspace / "deep.txt"
        path.write_text(text)
        code, _, err = run([
            "check", workspace / "structure01.txt", path,
            "--team", workspace / "fig1.csv", "--witness"], capsys)
        assert code == 2 and "nests too deeply" in err


def test_generated_instances_feed_back_into_check(workspace, capsys):
    out_dir = workspace / "enc"
    code, out, _ = run(["gen", "3sat", workspace / "two.cnf",
                        "--out", out_dir], capsys)
    assert code == 0 and out.count("wrote") == 3
    team_lines = (out_dir / "team.csv").read_text().splitlines()
    assert len(team_lines) == 7
    assert "<1/3>" in (out_dir / "formula.txt").read_text()
    code, out, _ = run([
        "check", out_dir / "structure.txt", out_dir / "formula.txt",
        "--team", out_dir / "team.csv"], capsys)
    assert (code, out) == (0, "true\n")


def test_threshold_generation_embeds_the_fraction(workspace, capsys):
    (workspace / "pair.cnf").write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
    out_dir = workspace / "enc2"
    code, _, _ = run(["gen", "max2sat", workspace / "pair.cnf",
                      "--frac", "7/10", "--out", out_dir], capsys)
    assert code == 0
    assert "<7/10>" in (out_dir / "formula.txt").read_text()


def test_generation_rejects_bad_requests(workspace, capsys):
    code, _, err = run(["gen", "max2sat", workspace / "two.cnf",
                        "--out", workspace / "x1"], capsys)
    assert code == 2 and "--frac" in err
    code, _, err = run(["gen", "max2sat", workspace / "two.cnf",
                        "--frac", "7/0", "--out", workspace / "x2"], capsys)
    assert code == 2
    code, _, err = run(["gen", "3sat", workspace / "pair2.cnf"], capsys)
    assert code == 2


HUGE_EXPONENTS = ["1e999999999", "1e" + "9" * 5000, "1e" + "0" * 4990 + "999999999",
                  "1e-999999999", "0.1_0e999_999_999", " 3E+999999999 ", "5" * 4000 + "e-1"]


@pytest.mark.parametrize("frac", HUGE_EXPONENTS)
def test_a_fraction_with_a_huge_exponent_exits_two_at_once(frac, workspace):
    # Fraction would work out the power of ten before any bound saw it
    (workspace / "pair.cnf").write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
    start = time.perf_counter()
    code, out, err = quiet_main(["gen", "max2sat", workspace / "pair.cnf", f"--frac={frac}",
                                 "--out", workspace / "enc"])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error: ") and len(err) < 400, err[:400]


def test_a_fraction_reads_the_same_in_every_form(workspace):
    (workspace / "pair.cnf").write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
    written = {}
    for frac in ("1/2", "0.5", "5e-1", "50E-2", " 5e-1 ", "0.000_5e3", "5_000e-4",
                 "0", "0e999999999", "-0.0e-999999999", "7/10", "0.7", "7e-1", "1", "1e0"):
        out_dir = workspace / f"enc{len(written)}"
        code, _, _ = quiet_main(["gen", "max2sat", workspace / "pair.cnf", f"--frac={frac}",
                                 "--out", out_dir])
        assert code == 0, frac
        written[frac] = [(out_dir / name).read_text() for name in sorted(os.listdir(out_dir))]
    assert len({str(files) for files in written.values()}) == 4
    assert written["0e999999999"] == written["-0.0e-999999999"] == written["0"]
    assert written["0.5"] == written["0.000_5e3"] == written["1/2"]
    assert written["7e-1"] == written["7/10"] and written["1e0"] == written["1"]
    for frac in ("1e3/1e4", "1/2e1", "e5", ".e5", "0.5e", "1e400", "1.1", "1e-5000"):
        code, out, err = quiet_main(["gen", "max2sat", workspace / "pair.cnf", f"--frac={frac}",
                                     "--out", workspace / "bad"])
        assert code == 2 and out == "" and err.startswith("error: "), frac


def test_law_suites_run_from_the_command_line(workspace, capsys):
    code, out, _ = run(["props", "pci-ci", "--seed", "7",
                        "--trials", "10", "--max-rows", "2"], capsys)
    assert code == 0 and "pci-ci: pass" in out
    code, out, _ = run(["props", "approx-laws", "--trials", "3"], capsys)
    assert code == 1 and "violation" in out
    code, out, _ = run(["props", "reductions", "--max-vars", "2",
                        "--max-clauses", "1", "--max-clauses2", "1",
                        "--jobs", "1"], capsys)
    assert code == 0 and "reductions: pass" in out


def fresh_process(argv):
    """main in a new interpreter, as the `multiteam` command runs it."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from multiteam.cli import main; sys.exit(main(sys.argv[1:]))",
         *map(str, argv)], env=env, capture_output=True, text=True)
    return done.returncode, done.stdout


def test_one_parser_serves_every_call_in_a_process(workspace, capsys):
    s012, fig2 = workspace / "structure012.txt", workspace / "fig2flat.csv"
    base = ["check", s012, "inc(x;z) | inc(y;z)", "--team", fig2]
    calls = [
        base + ["--witness"],
        base,
        base + ["--team-kind", "set"],
        base + ["--team-kind", "bogus"],  # a usage error: exit 2
        base + ["--team-kind", "multi", "--strictness", "strict"],
        base + ["--witness", "--strictness", "strict"],
        base,
    ]
    codes = []
    for argv in calls:
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (code, out) == fresh_process(argv), argv
        codes.append(code)
    assert codes == [0, 0, 0, 2, 1, 1, 0]


# --- exit-code fuzz: every input ends in 0, 1 or 2 ---------------------
#
# Formulas are at most two levels high with at most one quantifier, and
# teams have at most three rows counted at most twice, so no draw can
# start a search that runs for long.

fuzz_vars = st.sampled_from(["x", "y"] * 8 + ["z"])  # z is seldom bound
fuzz_groups = st.lists(fuzz_vars, max_size=2).map(tuple)
fuzz_thresholds = st.one_of(
    st.integers(0, 3).map(lambda n: Threshold(Fraction(n, 3))),
    st.integers(0, 4).map(lambda n: Threshold(n, absolute=True)))
fuzz_leaves = st.one_of(
    st.builds(Eq, fuzz_vars, fuzz_vars),
    st.builds(Neq, fuzz_vars, fuzz_vars),
    st.builds(Rel, st.just("R"), st.lists(fuzz_vars, min_size=1, max_size=2).map(tuple)),
    st.builds(NegRel, st.just("R"), st.lists(fuzz_vars, min_size=1, max_size=2).map(tuple)),
    st.sampled_from(sorted(ATOMS.values(), key=lambda cls: cls.keyword)).flatmap(
        lambda cls: st.tuples(*[fuzz_groups] * len(cls.__match_args__))
        .filter(lambda g: not cls.same_length or len(g[0]) == len(g[1]))
        .map(lambda g: cls(*g))))
fuzz_formulas = st.one_of(
    fuzz_leaves,
    st.builds(And, fuzz_leaves, fuzz_leaves),
    st.builds(Or, fuzz_leaves, fuzz_leaves),
    st.builds(Exists, fuzz_vars, fuzz_leaves),
    st.builds(Forall, fuzz_vars, fuzz_leaves),
    st.builds(ExistsFrac, fuzz_thresholds, fuzz_leaves),
    st.builds(ForallFrac, fuzz_thresholds, fuzz_leaves),
    st.builds(ImplFrac, fuzz_thresholds, fuzz_leaves, fuzz_leaves))


@st.composite
def formula_texts(draw):
    """A printed formula, sometimes with one character cut, inserted or
    replaced, or with its tail cut off."""
    text = str(draw(fuzz_formulas))
    edit = draw(st.sampled_from(["keep"] * 4 + ["cut", "insert", "replace", "truncate"]))
    if edit == "keep" or not text:
        return text
    i = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from(list("()[]{}<>,;.=&|~#/!E A x0-")))
    return {"cut": text[:i] + text[i + 1:], "insert": text[:i] + c + text[i:],
            "replace": text[:i] + c + text[i + 1:], "truncate": text[:i]}[edit]


values = st.sampled_from(["0", "1"] * 8 + ["2"])


@st.composite
def team_csvs(draw):
    """A CSV team of at most three rows over x and y, values maybe outside
    the domain, counts 0 to 2, sometimes without the count column."""
    header = draw(st.sampled_from([["x", "y"], ["y", "x"]] * 3 + [["x"], []]))
    counted = draw(st.booleans())
    lines = [",".join(header + (["#count"] if counted else []))]
    for _ in range(draw(st.integers(0, 3))):
        row = [draw(values) for _ in header]
        lines.append(",".join(row + ([str(draw(st.integers(0, 2)))] if counted else [])))
    return "\n".join(lines) + "\n"


@st.composite
def structure_texts(draw):
    domain = draw(st.sampled_from([["0", "1"]] * 4 + [["0"], ["1", "2"]]))
    unary = draw(st.lists(st.sampled_from(domain), max_size=2, unique=True))
    return f"domain: {' '.join(domain)}\nrel R/1: {' '.join(f'({v})' for v in unary)}\n"


options = st.lists(st.sampled_from([
    ["--team-kind", "set"], ["--team-kind", "multi"], ["--strictness", "lax"],
    ["--strictness", "strict"], ["--witness"], ["--witness"], ["--team-kind", "multi"],
    ["--strictness", "strict"], ["--team-kind", "bogus"], ["--frac"]]), max_size=3)


def quiet_main(argv):
    """main on argv with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_check_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code)
    if code in (0, 1):
        assert out.endswith(("true\n", "false\n")[code])
    else:
        assert err.startswith(("error: ", "usage: "))


@settings(max_examples=200, deadline=None)
@given(structure_texts(), team_csvs(), formula_texts(), options,
       st.sampled_from([True] * 4 + [False]))
def test_check_exits_zero_one_or_two_on_any_input(structure, team, formula, opts, with_team):
    with tempfile.TemporaryDirectory() as tmp:
        s_path, t_path = Path(tmp, "s.txt"), Path(tmp, "t.csv")
        s_path.write_text(structure)
        t_path.write_text(team)
        argv = ["check", str(s_path), formula] + (["--team", str(t_path)] if with_team else [])
        argv += [word for opt in opts for word in opt]
        assert_check_contract(argv, *quiet_main(argv))


# --- file-format fuzz: gen and check on seeded, mutated files -----------
#
# A CNF has at most four clauses over at most three variables, and a
# mutated team at most a few rows more than `team_csvs` draws, so neither
# `gen` nor the checks that follow can run long.

ODD_CHARS = list(" \t\n,*:/#\"()-0") + ["p cnf ", "rel R/2:", "#count"]


@st.composite
def mutated(draw, texts):
    """A text with one to three edits: a character cut, an odd character or
    word inserted or put in place, a line duplicated or cut short."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        k = draw(st.integers(0, len(lines) - 1))
        i = draw(st.integers(0, max(len(text) - 1, 0)))
        c = draw(st.sampled_from(ODD_CHARS))
        text = draw(st.sampled_from([
            text[:i] + text[i + 1:], text[:i] + c + text[i:], text[:i] + c + text[i + 1:],
            "\n".join(lines[:k + 1] + lines[k:]),
            "\n".join(lines[:k] + [lines[k][:len(lines[k]) // 2]] + lines[k + 1:])]))
    return text


@st.composite
def gen_requests(draw):
    """A `gen` kind, its flags and a DIMACS CNF, mostly of the clause width
    the kind needs, a third of the time mutated."""
    kind = draw(st.sampled_from(["3sat", "max2sat"]))
    width = draw(st.sampled_from([{"3sat": 3, "max2sat": 2}[kind]] * 4 + [2, 3]))
    literals = st.integers(1, 3).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literals, min_size=width, max_size=width),
                            min_size=1, max_size=4))
    text = f"c fuzz\np cnf 3 {len(clauses)}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in clauses)
    if draw(st.integers(0, 2)) == 0:
        text = draw(mutated(st.just(text)))
    frac = draw(st.sampled_from([["--frac", "1/2"], ["--frac", "1"]] * 3 + [
        [], ["--frac", "7/0"], ["--frac", "half"]]))
    return kind, text, frac


@settings(max_examples=150, deadline=None)
@given(gen_requests(), options.filter(lambda o: ["--frac"] not in o))
def test_gen_exits_zero_or_two_and_check_reads_what_it_writes(request, opts):
    kind, cnf, frac = request
    with tempfile.TemporaryDirectory() as tmp:
        cnf_path, out_dir = Path(tmp, "f.cnf"), Path(tmp, "out")
        cnf_path.write_text(cnf)
        code, out, err = quiet_main(["gen", kind, cnf_path, "--out", out_dir, *frac])
        assert code in (0, 2), (cnf, kind, frac, code)
        if code == 2:
            assert out == "" and err.startswith("error: ")
            return
        structure = load_structure((out_dir / "structure.txt").read_text())
        team = load_multiteam((out_dir / "team.csv").read_text())
        parse((out_dir / "formula.txt").read_text())
        assert set(team.values_used()) <= set(structure.domain.support)
        argv = ["check", out_dir / "structure.txt", out_dir / "formula.txt",
                "--team", out_dir / "team.csv"] + [word for opt in opts for word in opt]
        code, out, err = quiet_main(argv)
        if code == 2:  # only a usage error can make a written instance unusable
            assert err.startswith("usage: "), err
        assert_check_contract(argv, code, out, err)


@settings(max_examples=200, deadline=None)
@given(st.one_of(structure_texts(), mutated(structure_texts())),
       st.one_of(team_csvs(), mutated(team_csvs())),
       st.sampled_from(["x = y", "dep(x ; y)", "R(x) | x != y", "E z. R(z)", "inc(y ; x)"]))
def test_check_exits_zero_one_or_two_on_mutated_files(structure, team, formula):
    with tempfile.TemporaryDirectory() as tmp:
        s_path, t_path = Path(tmp, "s.txt"), Path(tmp, "t.csv")
        s_path.write_text(structure)
        t_path.write_text(team)
        argv = ["check", s_path, formula, "--team", t_path]
        assert_check_contract(argv, *quiet_main(argv))


# --- props fuzz: every bound ends in 0, 1 or 2 --------------------------
#
# Each bound flag, its least value and the largest value drawn.  --trials,
# --max-dom and --max-vars are always passed to a suite that reads them and
# are at most 2, and --jobs is always passed to `reductions` and never 0
# (the default) or above 1, so no draw runs long or starts a process pool.

PROPS_BOUNDS = {"trials": (0, 2), "max_dom": (1, 2), "max_vars": (1, 2), "jobs": (0, 1),
                "max_rows": (0, 3), "max_depth": (0, 3), "max_mult": (1, 3),
                "max_clauses": (0, 3), "max_clauses2": (0, 3)}
ALWAYS_PASSED = ("trials", "max_dom", "max_vars", "jobs")
# the bound flags each suite reads, as the README lists them
SUITE_READS = {
    "flatness": {"trials", "max_rows", "max_dom", "max_depth"},
    **dict.fromkeys(("locality", "weakflat", "unionclosure", "approx-laws"),
                    {"trials", "max_rows", "max_dom", "max_depth", "max_mult"}),
    **dict.fromkeys(("pci-ci", "lemma-rules"),
                    {"trials", "max_rows", "max_dom", "max_vars", "max_mult"}),
    "reductions": {"max_vars", "max_clauses", "max_clauses2", "jobs"},
}


def flag(name):
    return "--" + name.replace("_", "-")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SUITES)),
       st.one_of(st.none(), st.sampled_from(sorted(PROPS_BOUNDS))), st.data())
def test_props_exits_zero_one_or_two_on_any_bound(suite, below, data):
    """At most one flag, `below`, is drawn from -2 up to under its least
    value, and the props command then exits 2 with a usage message.  Else at
    most one flag the suite does not read, `stray`, is passed, and it exits 2
    naming the suite and the flag.  The other flags are ones the suite reads,
    and it runs and exits 0 or 1."""
    reads = SUITE_READS[suite]
    # none in two of three branches, so that most draws run the suite
    stray = None if below else data.draw(
        st.one_of(st.none(), st.none(), st.sampled_from(sorted(set(PROPS_BOUNDS) - reads))),
        label="stray")
    bounds = {}
    for name, (least, most) in PROPS_BOUNDS.items():
        if name == below:
            bounds[name] = data.draw(st.integers(-2, least - 1), label=name)
        elif name == stray or name in reads and (
                name in ALWAYS_PASSED or data.draw(st.booleans(), label=f"pass {name}")):
            low = 1 if name == "jobs" else least
            bounds[name] = data.draw(st.integers(low, most), label=name)
    argv = ["props", suite] + [word for name, value in bounds.items()
                               for word in (flag(name), str(value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    if below:
        assert code == 2 and err.getvalue().startswith("usage: "), (argv, code)
    elif stray:
        assert code == 2 and out.getvalue() == "", (argv, code)
        assert err.getvalue() == f"error: suite {suite} does not read {flag(stray)}\n"
    else:
        assert code in (0, 1), (argv, code)
        assert out.getvalue().startswith(f"{suite}: " + ("pass", "FAIL")[code])


def test_a_flag_the_suite_does_not_read_is_refused(capsys):
    code, out, err = run(["props", "reductions", "--trials", "5", "--max-rows", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: suite reductions does not read --trials, --max-rows\n"
    for suite, reads in SUITE_READS.items():
        unread = sorted(set(PROPS_BOUNDS) - reads)
        code, _, err = run(["props", suite, flag(unread[0]), "1"], capsys)
        assert code == 2 and f"suite {suite} does not read {flag(unread[0])}" in err


def test_the_readme_lists_the_flags_each_suite_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for suite, reads in SUITE_READS.items():
        row = next(line for line in readme.splitlines() if line.startswith(f"| `{suite}` |"))
        listed = row.split("|")[2]
        assert set(listed.replace("`", "").replace(",", " ").split()) == {flag(n) for n in reads}, suite
