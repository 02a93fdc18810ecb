"""`scripts/same_results.py` in process, on a slice of the `search` pool and
with no clone: its digest is a function of the witness trees."""

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
