"""The output bytes of one fixed crawl, pinned.

scripts/smoke_determinism.py crawls one small world, saves the store and
exports vectors, and prints a sha256 prefix of each output. The prefixes
below are the contract that a speed-up must keep; a change that alters the
output on purpose updates them and says why in CHANGES.md. The script also
crawls the world again with a handover to a fresh Crawler at day 2, which
must give the same request log.
"""

import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "smoke_determinism.py"


def test_smoke_world_digests_are_pinned(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    runpy.run_path(str(SCRIPT), run_name="__main__")
    printed = {
        name: rest for name, *rest in (line.split() for line in capsys.readouterr().out.splitlines())
    }
    assert printed == {
        "runlog": ["9352cb59290eeb80", "1675"],
        "export": ["02f67de7a6f72d6f"],
        "vectors": ["d7debdc48559129f", "48"],
        "resumed": ["9352cb59290eeb80", "1675"],
    }
