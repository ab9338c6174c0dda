"""The blocking JSONL client for the service daemon.

Keep-alive: each thread that uses a client gets its own connection, opened
on its first request and reused for every request after it — the client
writes one JSON line and reads the response line, and the daemon serves the
connection until it is closed.  ``watch`` is the one streaming op: the
server writes one line per progress event until the job reaches a terminal
state, after which the connection serves requests again.  A ``watch``
generator closed before its terminal line drops its connection, so the
thread's next request opens a fresh one instead of reading stale events.

The client is built for an unreliable daemon: a daemon that stops shuts
down every open connection, and a request that finds its reused connection
closed reconnects once and sends again (to the restarted daemon, or to
whichever daemon serves the address now); connects retry with exponential
backoff plus jitter (the daemon may be restarting), ``submit`` retries
errors the daemon marks *retriable* (``backpressure`` from a full queue),
and ``wait`` polls with exponential backoff instead of a fixed-rate spin.

The address is either a unix-socket path (the default deployment) or a
``(host, port)`` tuple for the TCP listener.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from collections.abc import Iterator
from typing import Any

from repro.service.daemon import ServiceError

#: Terminal job states ``wait`` stops on (mirrors ``JobState.terminal``).
TERMINAL_STATES = ("done", "failed", "cancelled", "timed-out")


class _Connection:
    """One open connection to the daemon: the socket and its line reader."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def exchange(self, payload: bytes) -> bytes:
        """Send one request line; returns the first response line.

        Returns ``b""``, and closes the connection, when the daemon has
        closed it; any other failure closes it too and raises.
        """
        try:
            self.sock.sendall(payload)
            line = self.reader.readline()
        except ConnectionError:
            line = b""
        except BaseException:
            self.close()
            raise
        if not line:
            self.close()
        return line

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    # A connection lives in its thread's slot of a client: it is released
    # when that thread ends or the client is dropped.
    __del__ = close


class ServiceClient:
    """Talk to a :class:`~repro.service.daemon.ServiceDaemon`.

    One client may be shared by several threads: each gets its own
    connection, kept until the thread ends or the client is dropped.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        timeout: float = 60.0,
        connect_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        rng: random.Random | None = None,
    ):
        self.address = address
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._local = threading.local()

    # ------------------------------------------------------------------ plumbing
    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter: ``U(0, base * 2^attempt)``."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2**attempt))
        return self._rng.uniform(0, ceiling)

    def _connect(self) -> _Connection:
        """Connect, retrying with backoff — the daemon may be restarting."""
        last_error: Exception | None = None
        for attempt in range(self.connect_retries + 1):
            if attempt:
                time.sleep(self._backoff(attempt - 1))
            if isinstance(self.address, str):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            else:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.address)
                return _Connection(sock)
            except (ConnectionRefusedError, FileNotFoundError, ConnectionResetError) as error:
                sock.close()
                last_error = error
        raise ServiceError(
            f"cannot reach daemon at {self.address!r} "
            f"after {self.connect_retries + 1} attempts: {last_error}",
            code="unreachable",
            retriable=True,
        )

    def _send(self, op: str, **params: Any) -> tuple[_Connection, bytes]:
        """Send one request on this thread's connection; returns it and the first line.

        The connection leaves the thread's slot until :meth:`_keep` returns
        it.  A reused connection the daemon has closed since (it stopped or
        restarted) is replaced once; a fresh one that closes raises the
        retriable ``disconnect`` error.
        """
        payload = (json.dumps({"op": op, **params}) + "\n").encode()
        connection = self._local.__dict__.pop("connection", None)
        line = connection.exchange(payload) if connection is not None else b""
        if not line:
            connection = self._connect()
            line = connection.exchange(payload)
            if not line:
                raise ServiceError(
                    f"daemon closed the connection on {op!r}", code="disconnect",
                    retriable=True,
                )
        return connection, line

    def _keep(self, connection: _Connection) -> None:
        """Return ``connection`` to this thread's slot (or close it if the slot is taken)."""
        if getattr(self._local, "connection", None) is None:
            self._local.connection = connection
        else:
            connection.close()

    def _request(self, op: str, **params: Any) -> dict[str, Any]:
        connection, line = self._send(op, **params)
        response = json.loads(line)  # an unparseable answer drops the connection
        self._keep(connection)
        return self._check(response)

    @staticmethod
    def _check(response: dict[str, Any]) -> dict[str, Any]:
        if not response.get("ok", False):
            raise ServiceError(
                response.get("error", "daemon reported an error"),
                code=response.get("code", "error"),
                retriable=bool(response.get("retriable", False)),
            )
        return response

    # ----------------------------------------------------------------- operations
    def ping(self) -> dict[str, Any]:
        return self._request("ping")

    def submit(
        self,
        mode: str,
        config: dict[str, Any],
        tenant: str = "default",
        priority: int = 0,
        attach_trace: bool = False,
        budget: dict[str, Any] | None = None,
        retries: int = 0,
    ) -> dict[str, Any]:
        """Submit an experiment; returns the daemon's submit outcome
        (``job_id``, ``state``, ``cached``, ``deduplicated``, ``key``).

        ``budget`` is a :class:`~repro.service.budget.ResourceBudget` dict
        (``wall_seconds``/``max_conflicts``/``rss_mb``).  ``retries`` > 0
        re-submits after backoff when the daemon answers with a *retriable*
        error code (``backpressure``); non-retriable rejections (quota, a
        malformed config) raise immediately.
        """
        attempt = 0
        while True:
            try:
                return self._request(
                    "submit",
                    mode=mode,
                    config=config,
                    tenant=tenant,
                    priority=priority,
                    attach_trace=attach_trace,
                    budget=budget,
                )
            except ServiceError as error:
                if not error.retriable or attempt >= retries:
                    raise
                time.sleep(self._backoff(attempt))
                attempt += 1

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("status", job_id=job_id)["job"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self._request("result", job_id=job_id)["result"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("cancel", job_id=job_id)

    def jobs(self, tenant: str | None = None) -> list[dict[str, Any]]:
        return self._request("jobs", tenant=tenant)["jobs"]

    def stats(self) -> dict[str, Any]:
        return self._request("stats")

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to shut down gracefully."""
        return self._request("shutdown")

    def watch(self, job_id: str, from_seq: int = 0) -> Iterator[dict[str, Any]]:
        """Yield progress events as they happen; the final item has ``done``.

        Each yielded dict is either ``{"event": {...}}`` (one progress event)
        or ``{"done": True, "state": ...}`` terminating the stream.  The
        stream holds its own connection: it is kept for the thread's next
        request once the terminal line has arrived, and closed if the
        generator is closed (or the stream fails) before that.
        """
        connection, line = self._send("watch", job_id=job_id, from_seq=from_seq)
        done = False
        try:
            while line:
                response = self._check(json.loads(line))
                done = bool(response.get("done"))
                yield response
                if done:
                    return
                line = connection.reader.readline()
        finally:
            if done:
                self._keep(connection)
            else:
                connection.close()
        raise ServiceError(f"watch stream for job {job_id} ended without a terminal state")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.05,
        poll_cap: float = 1.0,
    ) -> dict[str, Any]:
        """Poll ``status`` until the job is terminal; returns the final record.

        The poll interval starts at ``poll`` and doubles up to ``poll_cap``
        — a long-running job is checked once a second, not spun on at 20 Hz
        for its whole lifetime.
        """
        deadline = time.time() + timeout
        interval = poll
        while True:
            job = self.status(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.time() >= deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(min(interval, max(0.0, deadline - time.time())))
            interval = min(interval * 2, poll_cap)


__all__ = ["ServiceClient", "ServiceError", "TERMINAL_STATES"]
