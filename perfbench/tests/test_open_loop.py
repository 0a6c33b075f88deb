import asyncio
import time

from perfbench.httpclient import Checker, Request, open_loop

STALL_AT, STALL_S, RATE = 5, 0.3, 100.0


async def _fake_server(stall_at: int):
    """Answers every POST at once, except that the whole server pauses
    for STALL_S when request number *stall_at* arrives."""
    state = {"n": 0, "resume": 0.0}

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                length = 0
                while (header := await reader.readline()) not in (b"\r\n", b""):
                    if header.lower().startswith(b"content-length:"):
                        length = int(header.split(b":")[1])
                await reader.readexactly(length)
                state["n"] += 1
                if state["n"] == stall_at:
                    state["resume"] = time.perf_counter() + STALL_S
                pause = state["resume"] - time.perf_counter()
                if pause > 0:
                    await asyncio.sleep(pause)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _run(stall_at: int):
    async def main():
        server = await _fake_server(stall_at)
        port = server.sockets[0].getsockname()[1]
        reqs = [Request("lookup", "/v1/lookup", b"{}") for _ in range(60)]
        try:
            return await open_loop("127.0.0.1", port, reqs, RATE, Checker())
        finally:
            server.close()
            await server.wait_closed()

    results = asyncio.run(main())
    return sorted(results, key=lambda r: r.due)


def test_a_stall_shows_in_the_requests_queued_behind_it():
    results = _run(STALL_AT)
    assert all(r.ok for r in results)
    start = results[STALL_AT - 1].due
    # Due 0.1 s into the stall: it waits out the rest of it.
    behind = [r for r in results if start + 0.08 <= r.due <= start + 0.12]
    assert behind and all(r.latency >= STALL_S - 0.12 - 0.02 for r in behind)
    # Its own send-to-answer time hides most of that wait; latency from
    # the due time does not.
    assert max(r.latency for r in results) >= STALL_S - 0.02
    assert any(r.latency - (r.done - r.sent) > 0.1 for r in behind)


def test_without_a_stall_latency_stays_small():
    results = _run(stall_at=10_000)
    assert max(r.latency for r in results) < 0.15
