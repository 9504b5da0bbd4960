"""The environment a result set was measured in.

CPU details come only from /proc and /sys; the commit is read from the
checkout's .git directory when there is one.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("model name", "Model", "cpu model"):
            return value.strip()
    return None


def cpu_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[0].lower()}"] = size
    return caches


def blas_build() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config and returns None
        return {}
    deps = config.get("Build Dependencies", {})
    return {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")
                  if k in deps[key]}
            for key in ("blas", "lapack") if key in deps}


def git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(root / ".git" / ref)
    if commit is None:
        packed = _read(root / ".git" / "packed-refs") or ""
        commit = next((line.split()[0] for line in packed.splitlines()
                       if line.endswith(" " + ref)), None)
    return commit


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu_model": cpu_model(),
        "cpu_caches": cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
        "blas_threads": blas_threads,
        "git_commit": git_commit(root),
        "seed": seed,
    }
