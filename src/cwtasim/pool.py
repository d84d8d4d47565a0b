"""Worker processes: the one lifecycle behind a pooled grid
(harness.run_grid) and calibration's per-process pass shares.

The calling process is process 0 and does its own share of the work;
worker_processes starts one forked worker for each other share. Worker k
runs work(*args, k), a generator, and sends each of its results in order
through a one-way pipe of its own; the caller reads them with receive(k,
owed) between pieces of its own share. Workers ignore Ctrl-C, which is the
caller's to handle. An exception in a worker is sent back and raised by
the caller; a worker that exits before sending what the caller reads
raises ChildProcessError naming its exit code and what it owed. However
the caller leaves the block (done, failed, interrupted or closed), the
workers still running are killed, so the work they still owe never runs,
and every worker is joined. A count of 1 starts nothing and never imports
multiprocessing.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import contextmanager
from typing import Callable, Iterator


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the OS has one.

    The set reflects taskset and cpusets, which os.cpu_count() ignores; the
    fallback is os.cpu_count(), None when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def process_limit() -> int:
    """Processes a pass may share its work between: the usable CPUs, or 1 in
    a daemonic process (a multiprocessing.Pool worker, say), which may not
    start any."""
    loaded = sys.modules.get("multiprocessing")  # a multiprocessing child has it loaded
    if loaded is not None and loaded.current_process().daemon:
        return 1
    return usable_cpus() or 1


def _serve(work: Callable[..., Iterator], args: tuple, k: int, send) -> None:
    """Worker process k: sends each result of work(*args, k) in order, or the
    exception that ends it, and stops. A full pipe blocks the send, so
    results wait for the caller one pipe buffer at most."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with send:
        try:
            for result in work(*args, k):
                send.send(result)
        except BaseException as exc:
            send.send(exc)


@contextmanager
def worker_processes(count: int, work: Callable[..., Iterator], *args) -> Iterator[Callable[[int, str], object]]:
    """Start worker processes 1 .. count - 1, worker k running work(*args, k),
    and yield receive: receive(k, owed) returns worker k's next result,
    raises the exception it sent, or, where it exited first, raises
    ChildProcessError naming its exit code and owed, the caller's words for
    what the result was to be. Leaving the block kills and joins every
    worker."""
    procs, conns = [], []
    try:
        for k in range(1, count):
            import multiprocessing  # loaded by a pooled run only, as its first worker starts

            conn, send = multiprocessing.Pipe(duplex=False)
            conns.append(conn)
            with send:  # closed before the next fork: the worker's copy is the only send end, so its exit is EOF here
                proc = multiprocessing.Process(target=_serve, args=(work, args, k, send), daemon=True)
                proc.start()
            procs.append(proc)

        def receive(k: int, owed: str):
            try:
                result = conns[k - 1].recv()
            except EOFError:
                procs[k - 1].join()
                raise ChildProcessError(
                    f"worker process {k} exited with code {procs[k - 1].exitcode} before returning {owed}"
                ) from None
            if isinstance(result, BaseException):
                raise result
            return result

        yield receive
    finally:
        for proc in procs:  # killed before the pipes close, so no worker's send meets a closed pipe
            proc.kill()  # a no-op once the worker has exited
            proc.join()
        for conn in conns:
            conn.close()
