"""Thread counts from LG_THREADS, capped at the cores this process may use.

Imports neither numpy nor scipy: the command-line front end reads the count
before numpy loads, so that it reaches BLAS.
"""

from __future__ import annotations

import os

from .errors import ParameterError


def available_cores() -> int:
    """Cores in this process's CPU affinity mask (the CPU count where the
    platform has no affinity call)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_count() -> int:
    """LG_THREADS when set, else the available cores; never more than those
    cores.  A value that is not an integer >= 1 raises ParameterError."""
    cores = available_cores()
    text = os.environ.get("LG_THREADS")
    if not text:
        return cores
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ParameterError(f"LG_THREADS must be an integer >= 1, got {text!r}")
    return min(value, cores)
