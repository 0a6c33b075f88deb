"""Lifecycle of one out-of-process ``repro serve --http`` server.

The server is started through the real CLI (or through
``traced_server.py``, which wraps the same CLI entry), on port 0; the
bound port is read from its log line.  Set-up time runs from process
launch until ``GET /v1/health`` answers.  Stopping sends SIGTERM and
requires exit code 0, the graceful drain.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_LISTENING = re.compile(r"http: listening on http://([^:/]+):(\d+)")

#: Generous bound on one server's set-up (build + smoothing) time.
START_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    pass


class Server:
    def __init__(self, root: Path, serve_args: list[str], spans_out: Path | None = None):
        self.root = root
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--http", *serve_args]
        else:
            entry = root / "perfbench" / "traced_server.py"
            cmd = [sys.executable, str(entry), str(spans_out),
                   "serve", "--http", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.log: list[str] = []
        self._port_seen = threading.Event()
        self.host = "127.0.0.1"
        self.port = 0
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        self.setup_s = self._wait_healthy()

    def _read_log(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.log.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match and not self._port_seen.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._port_seen.set()
        self._port_seen.set()

    def _wait_healthy(self) -> float:
        deadline = self.started + START_TIMEOUT_S
        try:
            if not self._port_seen.wait(START_TIMEOUT_S) or not self.port:
                raise ServerError("server exited or never logged its port")
            while time.perf_counter() < deadline:
                if self.get("/v1/health")[0] == 200:
                    return time.perf_counter() - self.started
                time.sleep(0.01)
            raise ServerError("/v1/health never answered")
        except (ServerError, OSError) as exc:
            self.kill()
            raise ServerError(f"{exc}; log tail: {self.log[-5:]}") from exc

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process, in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain within the stop timeout")
        self._reader.join(10)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(10)
