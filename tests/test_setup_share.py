"""`scripts/setup_share.py` in process on a few operations: what it reports,
not how fast anything runs."""

import importlib.util
from pathlib import Path

from multiteam import semantics

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("setup_share", ROOT / "scripts" / "setup_share.py")
setup_share = importlib.util.module_from_spec(spec)
spec.loader.exec_module(setup_share)


def test_the_shares_are_labelled_and_do_not_overlap(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    wrapped = semantics._validate, semantics._Space.__dict__["rooted"], semantics._Eval._test
    import worker
    mt = worker.import_program()
    for workload in ("encodings", "search"):
        got = setup_share.shares(mt, workload, 1, limit=6, passes=1)
        assert got["ops"] == 6 and got["seconds"] > 0
        shares = got["shares"]
        assert tuple(shares) == ("_validate", "_Space.rooted", "_Eval._test", "rest")
        assert all(share >= 0 for share in shares.values()), shares
        assert sum(shares.values()) <= 1 + 1e-9
    # the wrappers are taken off again
    assert (semantics._validate, semantics._Space.__dict__["rooted"],
            semantics._Eval._test) == wrapped
