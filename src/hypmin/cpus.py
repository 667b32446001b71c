"""The CPUs this process may use: the one bound of the search's worker pool
and of the CLI's table writers.  It imports nothing but `os`, so the CLI can
read it without loading numpy or the optimizer."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else os.cpu_count() (1 if that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
