"""Describe the machine and software a measurement came from.

``environment()`` imports numpy and scipy, so call it only in a process
whose BLAS-thread variables are already set.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``root/.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(directory: Path) -> str:
    """Digest of the ``.py`` files under ``directory``, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "src_sha256": tree_sha256(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
