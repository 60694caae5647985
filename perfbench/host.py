"""Host record, ``/proc`` accounting and child-process clean-up.

Everything here reads Linux ``/proc`` or acts on the benchmark's own
descendants; nothing sets or changes the environment.  In particular the benchmark never sets BLAS or OpenMP
thread-count variables for the server: their defaults oversubscribe the
worker pool, and that is part of what the benchmark measures.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import signal
import sys
import time

#: Environment variables that set thread counts in numpy's native libraries.
THREAD_VARIABLE = re.compile(r"^(OMP|OPENBLAS|MKL|BLIS|VECLIB|NUMEXPR)_\w*$")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def host_record() -> dict:
    """Cores, interpreter, numpy and its BLAS, thread variables and load."""
    import numpy

    try:
        build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {
            key: {
                field: build[key].get(field)
                for field in ("name", "version", "openblas configuration")
                if build[key].get(field) is not None
            }
            for key in ("blas", "lapack")
            if key in build
        }
    except (TypeError, AttributeError):  # numpy without the dict form
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_variables": {
            name: value
            for name, value in sorted(os.environ.items())
            if THREAD_VARIABLE.match(name)
        },
        "load_average": list(os.getloadavg()),
    }


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (clock ticks)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(value) for value in fields[1:9]]


def steal_fraction(before: list[int], after: list[int]) -> float:
    """Share of all CPU time the hypervisor stole between two samples."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total > 0 else 0.0


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return stat[stat.rindex(")") + 2:].split()


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        fields = _stat_fields(int(entry)) if entry.isdigit() else None
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


#: ``prctl`` option that makes orphaned descendants reparent to the caller.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants, so it can reap them.

    A helper the server leaves behind (its resource tracker, a worker
    ending after the parent) would otherwise be reparented to init and
    could still be running, or unreaped, after the benchmark exits.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def group_members(pgid: int) -> list[int]:
    """Every process, zombies included, in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


def reap(pids) -> None:
    """Collect the exit status of those ``pids`` that are ended children."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # not a child of this process
            pass


def wait_gone(find, timeout: float) -> bool:
    """Reap and poll until ``find()`` lists no process; ``False`` on timeout."""
    deadline = time.perf_counter() + timeout
    while True:
        pids = find()
        reap(pids)
        if not find():
            return True
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.02)


def stop_children(timeout: float = 10.0) -> None:
    """End every descendant of this process and wait for each.

    The in-process worker pool's shared segments start a resource tracker;
    it is stopped through its own API.  Anything else still running after
    ``timeout`` is killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()

    def descendants():
        return process_tree(os.getpid())[1:]

    if not wait_gone(descendants, timeout):
        for pid in descendants():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        wait_gone(descendants, timeout)


def tree_cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLOCK_TICKS


def _status_field(pid: int, path: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/{path}") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_threads(pids: list[int]) -> int:
    """Threads across ``pids``."""
    return sum(_status_field(pid, "status", "Threads") for pid in pids)


def tree_pss_mib(pids: list[int]) -> float:
    """Proportional set size of ``pids`` in MiB (shared pages split)."""
    return sum(_status_field(pid, "smaps_rollup", "Pss") for pid in pids) / 1024.0
