"""Lifetime helpers shared by the package's two process pools.

Both pools are :class:`concurrent.futures.ProcessPoolExecutor` instances:
the parallel campaign's workers (:mod:`repro.estimation.parallel`) and
the prediction server's estimation process (:mod:`repro.serve.service`).
A pool worker outlives a parent killed with ``SIGKILL``: it is
reparented (to PID 1 or a subreaper) and waits on its call queue
forever.  Each pool's initializer therefore calls
:func:`exit_with_parent`.

Stdlib-only and free of ``multiprocessing`` imports, so importing it
costs nothing on paths that never start a pool.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

__all__ = ["PARENT_POLL_S", "exit_with_parent", "kill_workers"]

#: Seconds between two looks at this process's parent pid.
PARENT_POLL_S = 0.25


def exit_with_parent(parent_pid: int) -> None:
    """Exit this process once ``parent_pid`` is no longer its parent.

    A daemon thread polls :func:`os.getppid` and calls :func:`os._exit`
    when the parent has changed.  Polling works on every POSIX system
    and does not depend on which of the parent's threads started the
    worker, unlike Linux's ``PR_SET_PDEATHSIG``, which fires when that
    *thread* exits.  The caller passes the parent's pid, captured
    before the worker started, so a parent that died before this call
    is caught too.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-exit-with-parent",
                     daemon=True).start()


def kill_workers(pool: Any) -> None:
    """SIGKILL every worker of ``pool``; the executor then breaks itself."""
    for process in list((pool._processes or {}).values()):
        process.kill()
