"""How many workers the Monte Carlo engine may use, and how its tasks run on them.

Only mc runs tasks here: the blocks of a Monte Carlo run are the one parallel step.
A worker is a plain fork of the caller, with no pool: it runs one task, having
inherited the function and all built before the fork, and pickles its result,
or the exception it raised, into its own pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
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
        if workers < 1:
            raise BadIndexError(f"CHAOSLAB_THREADS must be at least 1, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _init_worker(parent: int) -> None:
    """Make a forked worker exit with its parent, which can no longer read its results."""

    def exit_with_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _work(fn, task: tuple, pipe: int, parent: int):
    """A forked worker: run its task, send its result or the exception raised, and exit."""
    try:
        _init_worker(parent)
        try:
            sent = fn(*task)
        except BaseException as exc:
            sent = exc
        data = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)  # all of it, or nothing is sent
        with open(pipe, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)  # never into the caller's frames


def run_tasks(fn, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks], each task on its own forked process.

    With one task, or where the platform cannot fork, the tasks run in this
    process.  A worker's exception is raised here, and a worker that sends no
    result raises RuntimeError; on any exception every worker is killed and reaped.
    """
    if len(tasks) < 2 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]
    parent, running, pipes, results = os.getpid(), [], [], [None] * len(tasks)
    try:
        for task in tasks:
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            pid = os.fork()
            if pid == 0:
                _work(fn, task, write_end, parent)
            running.append(pid)
            os.close(write_end)
        for w, pid in enumerate(list(running)):
            data = pipes[w].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if not data:
                raise RuntimeError(f"worker {w} ended with exit status {status} and sent no result")
            sent = pickle.loads(data)
            if isinstance(sent, BaseException):
                raise sent
            results[w] = sent
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
    return results
