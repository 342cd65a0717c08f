"""The kernel slot: one Algorithm-1 kernel per interpreter.

The paper's component is a FIFO server that runs one request's kernel to
completion.  Threads of one interpreter share the GIL, so two kernels
"in parallel" only time-slice it — and each burns its wall-clock
deadline waiting for the other.  The serving layer therefore holds
:data:`KERNEL_SLOT` around every kernel execution: a component's
deadline clock starts when its kernel starts and is spent computing.
Parallelism comes from *processes*; threads still overlap everything
that is not a kernel — frame I/O, control RPCs, and blocking stalls,
which give the slot up for their duration (:meth:`KernelSlot.sleep`).
"""

from __future__ import annotations

import os
import threading
import time

__all__ = ["KernelSlot", "KERNEL_SLOT"]


class KernelSlot:
    """A process-wide mutex a stalled holder can lend out."""

    def __init__(self):
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._held = threading.local()

    def __enter__(self) -> "KernelSlot":
        self._lock.acquire()
        self._held.flag = True
        return self

    def __exit__(self, *exc) -> None:
        self._held.flag = False
        self._lock.release()

    def sleep(self, seconds: float) -> None:
        """``time.sleep`` that yields the slot if this thread holds it."""
        if not getattr(self._held, "flag", False):
            time.sleep(seconds)
            return
        self._lock.release()
        try:
            time.sleep(seconds)
        finally:
            self._lock.acquire()


KERNEL_SLOT = KernelSlot()
# A forked child must not inherit a slot some parent thread was holding.
os.register_at_fork(after_in_child=KERNEL_SLOT._reset)
