"""Keep-alive HTTP/1.1 load client: open and closed loops on asyncio.

One client process drives at most two connections.  In the open loop
a generator task releases request *i* at ``start + i / rate`` into a
FIFO that the connections drain; latency runs from that due time, so
a stall also shows in every request queued behind it, and the
generator's own lateness (release time minus due time) is recorded
to show whether the client kept its schedule.  In the closed loop
each connection sends its next request as soon as the previous one
returns.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

N_CONNECTIONS = 2


@dataclass
class Request:
    kind: str  # "lookup" | "insert" | "range"
    path: str
    body: bytes
    #: Workload data the checker needs (keys, values, bounds).
    data: Any = None


@dataclass
class Result:
    kind: str
    due: float
    sent: float
    done: float
    late: float
    status: int
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Checker:
    """Hooks the loops call around each request."""

    #: ``before_send(req)`` → context handed to ``check`` (e.g. in-flight writes).
    before_send: Callable[[Request], Any] = lambda req: None
    #: ``check(req, status, body, ctx)`` → True when the answer is right.
    check: Callable[[Request, int, bytes, Any], bool] = lambda req, status, body, ctx: status == 200


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, host: str):
        self._reader = reader
        self._writer = writer
        self._host = host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def call(self, path: str, body: bytes) -> tuple[int, bytes]:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


async def _send(conn: Connection, req: Request, checker: Checker,
                due: float, late: float, results: list[Result]) -> None:
    ctx = checker.before_send(req)
    sent = time.perf_counter()
    try:
        status, body = await conn.call(req.path, req.body)
    except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
        results.append(Result(req.kind, due, sent, time.perf_counter(), late, 0, False))
        raise
    done = time.perf_counter()
    ok = status == 200 and checker.check(req, status, body, ctx)
    results.append(Result(req.kind, due, sent, done, late, status, ok))


async def open_loop(host: str, port: int, requests: list[Request], rate: float,
                    checker: Checker) -> list[Result]:
    """Release ``requests`` at *rate* per second; returns one result each."""
    conns = [await Connection.open(host, port) for _ in range(N_CONNECTIONS)]
    queue: asyncio.Queue = asyncio.Queue()
    results: list[Result] = []
    start = time.perf_counter() + 0.02

    async def generate() -> None:
        for i, req in enumerate(requests):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((req, due, time.perf_counter() - due))
        for _ in conns:
            queue.put_nowait(None)

    async def drain(conn: Connection) -> None:
        while (item := await queue.get()) is not None:
            req, due, late = item
            await _send(conn, req, checker, due, late, results)

    try:
        await asyncio.gather(generate(), *(drain(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return results


async def closed_loop(host: str, port: int, requests: Iterable[Request], seconds: float,
                      checker: Checker) -> tuple[list[Result], float]:
    """Each connection sends back to back for *seconds*.

    Returns the results and the wall time from the first send until
    the last response.  ``late`` is the gap between a connection's
    previous response and its next send: the client's own overhead.
    """
    conns = [await Connection.open(host, port) for _ in range(N_CONNECTIONS)]
    source: Iterator[Request] = itertools.cycle(requests)
    results: list[Result] = []
    start = time.perf_counter()
    deadline = start + seconds

    async def drive(conn: Connection) -> None:
        last = time.perf_counter()
        while time.perf_counter() < deadline:
            req = next(source)
            now = time.perf_counter()
            await _send(conn, req, checker, now, now - last, results)
            last = time.perf_counter()

    try:
        await asyncio.gather(*(drive(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return results, time.perf_counter() - start


@dataclass
class Phase:
    """Results of one load phase plus its wall time."""

    results: list[Result] = field(default_factory=list)
    wall_s: float = 0.0

    def of(self, kind: str) -> list[Result]:
        return [r for r in self.results if r.kind == kind]
