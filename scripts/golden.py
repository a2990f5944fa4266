"""Rerun a command into a committed output directory without churning it.

Every manifest records its run's wall time in ``duration_secs``, so a
rerun on unchanged code would still rewrite each committed manifest.
``run`` puts the committed manifest back when the new one differs from
it in ``duration_secs`` alone; the scripts beside this file that
regenerate ``runs/`` go through it.
"""

import json
from pathlib import Path
from typing import List, Optional

from oscl_sim.cli import main


def _sans_duration(data: bytes) -> Optional[dict]:
    try:
        manifest = json.loads(data)
    except ValueError:  # such as a merge conflict left in a committed manifest
        return None
    manifest.pop("duration_secs", None)
    return manifest


def run(argv: List[str], out: str) -> int:
    """Run ``oscl-sim <argv> --out <out>`` and return its exit code."""
    path = Path(out) / "manifest.json"
    old = path.read_bytes() if path.is_file() else None
    code = main([*argv, "--out", out])
    if old is not None and path.is_file():
        kept = _sans_duration(old)
        if kept is not None and kept == _sans_duration(path.read_bytes()):
            path.write_bytes(old)
    return code
