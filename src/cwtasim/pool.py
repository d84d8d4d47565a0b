"""Worker processes: the one in-order process map behind a pooled grid
(harness.run_grid) and calibration's per-process pass shares.

in_order(run, plan, processes, owed) yields run(item) for each item i of
plan() in order, item i running in process i % processes. The calling
process is process 0 and runs its own items between reads; each other
process that has an item is a forked worker that iterates its own plan(),
so a lazy plan is never held whole, and sends its results in order
through a one-way pipe of its own. Workers ignore Ctrl-C, which is the
caller's to handle. An exception in a worker is sent back and raised by
the caller; a worker that exits before sending what the caller reads
raises ChildProcessError naming its exit code and owed(i, item). However
the caller leaves the map (done, failed, interrupted or closed), the
workers still running are killed, so the items they still owe never run,
and every worker is joined. A map on one process starts nothing and never
imports multiprocessing.

process_limit is the one rule for how many processes a map may use: the
count asked for, capped at the usable CPUs, and 1 in a daemonic process,
which may not start any.
"""

from __future__ import annotations

import os
import signal
import sys
from itertools import islice
from typing import Callable, Iterable, Iterator


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the OS has one.

    The set reflects taskset and cpusets, which os.cpu_count() ignores; the
    fallback is os.cpu_count(), None when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def process_limit(requested: int) -> int:
    """Processes a map may share its work between: requested, at most the
    usable CPUs (1 when unknown), or 1 in a daemonic process (a
    multiprocessing.Pool worker, say), which may not start any."""
    loaded = sys.modules.get("multiprocessing")  # a multiprocessing child has it loaded
    if loaded is not None and loaded.current_process().daemon:
        return 1
    return min(requested, usable_cpus() or 1)


def _serve(run: Callable, plan: Callable[[], Iterable], processes: int, k: int, send) -> None:
    """Worker process k: sends run(item) for items k, k + processes, ... of
    plan() in order, or the exception that ends it, and stops. A full pipe
    blocks the send, so results wait for the caller one pipe buffer at most."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with send:
        try:
            for item in islice(plan(), k, None, processes):
                send.send(run(item))
        except BaseException as exc:
            send.send(exc)


def in_order(run: Callable, plan: Callable[[], Iterable], processes: int, owed: Callable[..., str]) -> Iterator:
    """Yield run(item) for each item i of plan(), in order, item i running
    here when i % processes is 0, else in worker process i % processes,
    started as the map starts. processes comes from process_limit. A
    worker's exception is raised here; a worker that exits first raises
    ChildProcessError naming its exit code and owed(i, item), the caller's
    words for what the result was to be. Leaving the map kills and joins
    every worker."""
    procs, conns = [], []
    try:
        for k in range(1, len(list(islice(plan(), processes)))):
            import multiprocessing  # loaded by a pooled run only, as its first worker starts

            conn, send = multiprocessing.Pipe(duplex=False)
            conns.append(conn)
            with send:  # closed before the next fork: the worker's copy is the only send end, so its exit is EOF here
                proc = multiprocessing.Process(target=_serve, args=(run, plan, processes, k, send), daemon=True)
                proc.start()
            procs.append(proc)
        for i, item in enumerate(plan()):
            k = i % processes
            if k == 0:
                yield run(item)
                continue
            try:
                result = conns[k - 1].recv()
            except EOFError:
                procs[k - 1].join()
                raise ChildProcessError(
                    f"worker process {k} exited with code {procs[k - 1].exitcode} before returning {owed(i, item)}"
                ) from None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for proc in procs:  # killed before the pipes close, so no worker's send meets a closed pipe
            proc.kill()  # a no-op once the worker has exited
            proc.join()
        for conn in conns:
            conn.close()
