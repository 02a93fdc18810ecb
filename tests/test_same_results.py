"""`scripts/same_results.py` in process, on a slice of the `search` pool and
with no clone: its digests are functions of the witness trees and of the
`evaluate` verdicts."""

import dataclasses
import importlib.util
from pathlib import Path

from multiteam import semantics

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_results", ROOT / "scripts" / "same_results.py")
same_results = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_results)


def test_the_search_digest_is_stable_and_sees_one_changed_witness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    first = same_results.search_digest(range(8))
    assert first == same_results.search_digest(range(8))
    real, calls = semantics.witness, []

    def one_changed(*args, **kwargs):
        got = real(*args, **kwargs)
        calls.append(got)
        return dataclasses.replace(got, choice=got.choice + "!") if len(calls) == 5 else got

    monkeypatch.setattr(semantics, "witness", one_changed)
    assert same_results.search_digest(range(8)) != first
    assert len(calls) > 5


def test_the_evaluate_digest_sees_one_changed_verdict(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    first = same_results.evaluate_digest(range(8))
    assert first == same_results.evaluate_digest(range(8))
    assert first != same_results.search_digest(range(8))
    real, calls = semantics.evaluate, []

    def one_flipped(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return not calls[-1] if len(calls) == 5 else calls[-1]

    monkeypatch.setattr(semantics, "evaluate", one_flipped)
    assert same_results.evaluate_digest(range(8)) != first
    assert len(calls) > 5


def test_the_files_digest_sees_one_changed_verdict(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    first = same_results.files_digest(2)
    assert first == same_results.files_digest(2)
    assert first != same_results.files_digest(1)
    real, calls = semantics.evaluate, []

    def one_flipped(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return not calls[-1] if len(calls) == 50 else calls[-1]

    monkeypatch.setattr(semantics, "evaluate", one_flipped)
    assert same_results.files_digest(2) != first
    assert len(calls) == 2 * 13 * 4 * 2  # teams, templates, modes, cache on and off


def test_the_encodings_digest_sees_one_flipped_verdict(monkeypatch):
    # evaluate decides a MAX-2SAT <k/m> by g3 where witness walks its parts,
    # so the group hashes both
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    first = same_results.encodings_digest(4)
    assert first == same_results.encodings_digest(4)
    assert first != same_results.encodings_digest(8)
    real, calls = semantics.evaluate, []

    def one_flipped(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return not calls[-1] if len(calls) == 60 else calls[-1]  # MAX-2SAT, 6 clauses

    monkeypatch.setattr(semantics, "evaluate", one_flipped)
    assert same_results.encodings_digest(4) != first
    assert len(calls) == (4 + 6 + 7 + 8 + 9) * 2 * 2  # encodings, modes, cache on and off


def test_the_load_digest_sees_one_changed_error(monkeypatch):
    from multiteam import io as mio
    from multiteam.errors import ParseError
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    first = same_results.load_digest(2)
    assert first == same_results.load_digest(2)
    assert first != same_results.load_digest(1)
    real, calls = mio.load_multiteam, []

    def one_renamed(text):
        calls.append(text)
        try:
            return real(text)
        except ParseError as exc:
            if len(calls) == 2:  # the ragged row of the first file
                raise ParseError(str(exc) + "!") from None
            raise

    monkeypatch.setattr(mio, "load_multiteam", one_renamed)
    assert same_results.load_digest(2) != first
    assert len(calls) == 2 * (1 + len(same_results.MUTATIONS))
