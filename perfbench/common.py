"""Shared helpers: locate the library source, describe the environment.

The benchmark always imports ``legcurve`` from ``src/`` of the checkout
it lives in, never from an installed copy, so a directory that holds only
the benchmark fails at import instead of timing some other build.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "legcurve"


class MissingSourceError(RuntimeError):
    pass


def add_source_path() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; raise if it is absent."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSourceError(f"no legcurve package under {SRC}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def check_loaded_from_source(module) -> None:
    loaded = Path(module.__file__).resolve()
    if PACKAGE.resolve() not in loaded.parents:
        raise MissingSourceError(f"legcurve was imported from {loaded}, not from {PACKAGE}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """The git commit of the checkout, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library's source files, a commit stand-in for plain checkouts."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int | None = None) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "source_digest": source_digest(),
    }
