"""Leave no process behind: every path out of ``run.py`` ends here.

The stacks join the workers they spawn, but ``multiprocessing`` itself
starts two helpers on the first forkserver spawn -- the fork server and
the resource tracker -- and both only notice that their parent is gone
*after* it has exited.  A benchmark run must not be outlived by anything
it started, so ``run.py`` stops and reaps them before it returns, and
then sweeps whatever else is still parented to it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
from pathlib import Path

__all__ = ["adopt_orphans", "exit_on_sigterm", "children", "stop_all"]

PR_SET_CHILD_SUBREAPER = 36
SWEEPS = 32              # generations of orphans stop_all will chase


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    Workers are children of the fork server, not of this process; as a
    subreaper it inherits them should the fork server go first, so
    :func:`stop_all` can see, kill and wait for them.
    """
    if sys.platform.startswith("linux"):
        try:
            ctypes.CDLL(None, use_errno=True).prctl(
                PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks still run."""
    def _raise(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, _raise)


def _parents() -> dict[int, int]:
    """pid -> parent pid of every process in ``/proc`` (zombies too)."""
    parents = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces and ')'.
            fields = stat.read_text().rpartition(")")[2].split()
            parents[int(stat.parent.name)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue        # gone between listing and reading
    return parents


def children() -> list[int]:
    """Pids whose parent is this process."""
    me = os.getpid()
    return [c for c, parent in _parents().items() if parent == me]


def _helpers():
    from multiprocessing import forkserver, resource_tracker
    return forkserver._forkserver, resource_tracker._resource_tracker


def _kill_workers() -> None:
    """SIGKILL every descendant except multiprocessing's two helpers.

    Workers are forked by the fork server and each holds a copy of its
    keep-alive pipe (and of the tracker's): neither helper can end while
    one lives.  A run that ended normally has joined them all and this
    finds nothing.
    """
    server, tracker = _helpers()
    keep = {getattr(server, "_forkserver_pid", None),
            getattr(tracker, "_pid", None)}
    parents = _parents()
    frontier = [os.getpid()]
    while frontier:
        frontier = [c for c, parent in parents.items() if parent in frontier]
        for pid in frontier:
            if pid in keep:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _stop_helpers() -> None:
    """Close the fork server and the resource tracker and wait for both
    (their own ``_stop``: closes the keep-alive pipe, then ``waitpid``).
    The fork server goes first: it holds the tracker's pipe open."""
    for helper in _helpers():
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass


def stop_all() -> None:
    """Stop every process this one started and wait until each has
    ended."""
    _kill_workers()
    _stop_helpers()
    # Whatever is still parented here (orphans this subreaper adopted
    # included).  Killing one can hand its children over: look again.
    for _ in range(SWEEPS):
        left = children()
        if not left:
            break
        for pid in left:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass
