"""`scripts/setup_share.py` in process on a few operations: what it reports,
not how fast anything runs."""

import importlib.util
import tempfile
from pathlib import Path

from multiteam import cli, io, semantics

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("setup_share", ROOT / "scripts" / "setup_share.py")
setup_share = importlib.util.module_from_spec(spec)
spec.loader.exec_module(setup_share)


def wrapped_now():
    return (semantics._validate, semantics._Space.__dict__["rooted"], semantics._Eval._test,
            io.load_multiteam, cli.load_multiteam)


def test_the_shares_are_labelled_and_do_not_overlap(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    wrapped = wrapped_now()
    work_dirs = []

    class RecordedDirectory(tempfile.TemporaryDirectory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            work_dirs.append(Path(self.name))

    monkeypatch.setattr(setup_share.tempfile, "TemporaryDirectory", RecordedDirectory)
    import worker
    mt = worker.import_program()
    for workload in ("encodings", "search", "files"):
        got = setup_share.shares(mt, workload, 1, limit=6, passes=1)
        assert got["ops"] == 6 and got["seconds"] > 0
        shares = got["shares"]
        assert tuple(shares) == ("_validate", "_Space.rooted", "_Eval._test",
                                 "io.load_multiteam", "rest")
        assert all(share >= 0 for share in shares.values()), shares
        assert sum(shares.values()) <= 1 + 1e-9
        # only the CLI's checks read a CSV team
        assert (shares["io.load_multiteam"] > 0) is (workload == "files"), (workload, shares)
    # the wrappers are taken off again, and the files' work directory removed
    assert wrapped_now() == wrapped
    assert len(work_dirs) == 3 and not any(d.exists() for d in work_dirs)
