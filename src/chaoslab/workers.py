"""How many workers the Monte Carlo engine may use, and how its tasks run on them.

Only mc runs tasks here: the blocks of a Monte Carlo run are the one parallel step.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time

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


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it accepts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX = -1, -3, 32 << 20


def _init_worker(parent: int) -> None:
    """Set up a forked worker: keep freed heap memory, and exit with the parent.

    glibc hands the free top of its heap back to the system once it exceeds
    the trim threshold, so every chunk of a Monte Carlo block may fault its
    temporaries in afresh.  Measured on two Poisson blocks (n_max = 10^4,
    width 2^14, seeds 5 to 14, stream layout 5) in two forked workers: they
    fault 13.2k to 13.3k pages with the raised thresholds and 15.3k to 17.0k
    without; their CPU time, 0.28 to 0.37 s, differs by less than its
    spread between runs (medians 0.33 and 0.34 s).  The worker runs nothing but
    tasks, so raising the thresholds there changes no one else's allocator.
    A worker whose parent is killed would otherwise wait for tasks forever.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 4 * _MMAP_THRESHOLD_MAX)

    def exit_with_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def run_tasks(fn, tasks: list[tuple], workers: int) -> list:
    """[fn(*task) for task in tasks], on up to `workers` forked processes.

    With one worker, or where the platform cannot fork, the tasks run in this
    process.  A pool pickles fn by name, so it must be a module-level function.
    """
    if workers > 1:
        # Imported only here, so that a one-worker run and every command without a
        # parallel step skip the cost.
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: a spawned worker would import numpy and the package
            # afresh, and with fork the pool starts every worker before its own thread.
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                workers, mp_context=context, initializer=_init_worker, initargs=(os.getpid(),)
            ) as pool:
                return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]
