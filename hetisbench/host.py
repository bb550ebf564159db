"""Provenance and a host-speed probe, recorded next to every run's numbers.

Nothing here is gated: a slow or contended host shows up beside the figures
it slowed down.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
import time
from typing import Any, Dict, Optional


def reference_loop_cpu_s() -> float:
    """CPU seconds of a fixed pure-Python loop (about 0.2 s on a 2-vCPU VM)."""
    start = time.process_time()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.process_time() - start


def cpu_jiffies() -> Optional[Dict[str, int]]:
    """Aggregate CPU counters from ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    return {"total": sum(values[:8]), "steal": values[7] if len(values) > 7 else 0}


def steal_fraction(before: Optional[Dict[str, int]], after: Optional[Dict[str, int]]) -> Optional[float]:
    if before is None or after is None or after["total"] == before["total"]:
        return None
    return (after["steal"] - before["steal"]) / (after["total"] - before["total"])


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_describe(root: str) -> Optional[str]:
    # Only ask git about a checkout that is a repository itself; never let it
    # search the directories above.
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(root: str) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_describe": _git_describe(root),
    }
