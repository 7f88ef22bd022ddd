"""In-process server hosting for tests and benchmarks.

:class:`ServerThread` runs a :class:`~repro.serve.server.PredictionServer`
on a private event loop in a daemon thread, so synchronous test code and
the load benchmark can talk to a *real* socket server (real framing,
real backpressure) without managing a subprocess::

    with ServerThread(ServeConfig(port=0, models={"lmo": model})) as host:
        with host.client() as client:
            assert client.health()["status"] == "running"

Signal handlers are not installed in a non-main thread; use
:meth:`reload` / :meth:`stop` (which proxy into the loop) where a
deployment would send SIGHUP / SIGTERM.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional

from repro.serve.client import ServiceClient
from repro.serve.server import PredictionServer, ServeConfig
from repro.serve.service import STOPPED

__all__ = ["ServerThread"]


class ServerThread:
    """A running prediction server on a background event loop."""

    def __init__(self, config: ServeConfig, startup_timeout: float = 30.0) -> None:
        self.config = config
        self.startup_timeout = startup_timeout
        self.server: Optional[PredictionServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: list[BaseException] = []

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(self.startup_timeout):
            raise TimeoutError("server did not come up in time")
        if self._failure:
            raise self._failure[0]
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._boot())
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            if not self._failure:
                self._failure.append(exc)
            self._started.set()
        finally:
            loop.close()

    async def _boot(self) -> None:
        server = PredictionServer(self.config)
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._failure.append(exc)
            self._started.set()
            return
        self.server = server
        self._started.set()
        try:
            await server.serve_forever()
        finally:
            # Abnormal exits (an exception escaping the serve loop, the
            # loop being torn down) must not leave a stale Unix socket
            # or orphaned worker tasks behind — a graceful drain already
            # reached STOPPED, anything else gets the hard cleanup.
            if server.state != STOPPED:
                await server.abort()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the thread (idempotent)."""
        if self._loop is None or self._thread is None or self.server is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- conveniences -------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) of the bound TCP socket."""
        assert self.server is not None, "server not started"
        host, port = self.server.endpoint.rsplit(":", 1)
        return host, int(port)

    def client(self, timeout: float = 60.0) -> ServiceClient:
        """A fresh connected client (TCP or Unix, matching the config)."""
        if self.config.unix_path is not None:
            return ServiceClient(unix_path=self.config.unix_path, timeout=timeout)
        host, port = self.address
        return ServiceClient(host=host, port=port, timeout=timeout)

    def reload(self, timeout: float = 30.0) -> int:
        """Run the server's SIGHUP handler inside the loop."""
        assert self._loop is not None and self.server is not None
        async def _reload() -> int:
            return self.server.reload()  # type: ignore[union-attr]
        return asyncio.run_coroutine_threadsafe(
            _reload(), self._loop
        ).result(timeout=timeout)
