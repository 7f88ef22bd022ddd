"""Fresh-interpreter child processes with a line protocol on stdout.

Every measured piece of work runs in a new interpreter started from the
checkout's ``src`` tree, so no import, cache or allocator state carries
over between workloads, runs or phases.  A child announces milestones as
``<TAG> <json>`` lines on stdout; other output is passed through to stderr.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def scratch_dir() -> str:
    """The checkout's git-ignored directory for run files and traces."""
    path = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ChildError(RuntimeError):
    """A child died, timed out or broke the line protocol."""


class Child:
    """One child interpreter; ``started`` is taken just before the spawn."""

    def __init__(self, args: list[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def expect(self, tag: str, timeout: float) -> tuple[str, float]:
        """Wait for the next ``tag`` line; returns (rest of line, arrival time)."""
        deadline = time.perf_counter() + timeout
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                text = line.decode(errors="replace")
                head, _, rest = text.partition(" ")
                if head == tag:
                    return rest, time.perf_counter()
                print(text, file=sys.stderr)
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildError(f"child {self.pid}: no {tag} line within {timeout:.0f} s")
            if not self._selector.select(remaining):
                continue
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                code = self.proc.wait(timeout=10)
                raise ChildError(f"child {self.pid} exited with {code} before {tag}")
            self._buffer += chunk

    def expect_json(self, tag: str, timeout: float) -> tuple[Any, float]:
        rest, arrival = self.expect(tag, timeout)
        return json.loads(rest), arrival

    def wait(self, timeout: float) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildError(f"child {self.pid} did not exit within {timeout:.0f} s") from None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        """Kill if still running, reap, and release the pipe."""
        self.kill()
        self._selector.close()
        self.proc.stdout.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def announce(tag: str, payload: Optional[Any] = None) -> None:
    """Child side: emit one protocol line."""
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
