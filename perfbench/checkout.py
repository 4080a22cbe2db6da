"""Locate and import the fairalloc package from the checkout the benchmark sits in.

The benchmark measures the source tree next to it, never an installed copy:
`src/` of the checkout goes first on `sys.path`, and the imported package must
come from there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"  # files the benchmark writes


class MissingSource(RuntimeError):
    """The checkout holds no fairalloc sources to measure."""


def require_source() -> None:
    """Put the checkout's `src/` first on the import path and import fairalloc.

    Raises MissingSource when the package is absent or resolves elsewhere.
    """
    if not (SRC / "fairalloc" / "__init__.py").is_file():
        raise MissingSource(f"no fairalloc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fairalloc

    location = Path(fairalloc.__file__).resolve()
    if SRC not in location.parents:
        raise MissingSource(f"fairalloc was imported from {location}, not from {SRC}")


def git_revision() -> str | None:
    """Commit id of the checkout, or None where it is not a git work tree."""
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return found.stdout.strip() if found.returncode == 0 else None
