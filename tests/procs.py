"""Process-table helpers for tests that check no worker outlives its
parent (Linux ``/proc`` only; the tests using them skip elsewhere)."""

import os
import time

import pytest

needs_proc = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<pid>/children",
)


def children(pid: int) -> list[int]:
    """Live child pids that ``pid``'s main thread started."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except FileNotFoundError:
        return []


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_gone(pids, timeout: float) -> list[int]:
    """Wait up to ``timeout`` seconds for ``pids`` to exit; returns the
    ones still running."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if running(pid)]
    return alive
