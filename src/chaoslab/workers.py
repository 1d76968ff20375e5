"""How many workers a parallel step may use.

One count serves both parallel steps: the Monte Carlo blocks (mc) and the
chunks of a series partial sum (series).  It lives apart from both because
mc imports series, through poisson_pair.
"""

from __future__ import annotations

import os

from .errors import BadIndexError


def worker_count(n_tasks: int) -> int:
    """CHAOSLAB_THREADS, else the CPUs this process may run on; within [1, n_tasks]."""
    env = os.environ.get("CHAOSLAB_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise BadIndexError(f"CHAOSLAB_THREADS must be an integer, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_tasks))
