"""The three workloads: request generation, driving, checking.

Every input is derived from ``--seed``; the program under test only
ever sees the generated requests.  Base keys come from
``repro.datasets.load`` and are also what the oracle starts from.
"""

from __future__ import annotations

import asyncio
import json
import resource
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import layers
from .httpclient import Checker, Phase, Request, closed_loop, open_loop
from .oracle import Oracle
from .server import Server
from .stats import median, percentile, tail_percentile
from .tracing import Tracer, load_spans

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds of closed-loop traffic before anything is timed: the first
#: seconds after start run measurably slower (lazy flat-view compiles,
#: allocator and cache warm-up).
WARMUP_S = 2.0

#: Pause after a phase switch so in-flight work settles.
SETTLE_S = 0.1

# http-lookup-small ---------------------------------------------------
SMALL_DATASET, SMALL_N, SMALL_BATCH = "facebook", 200_000, 16
#: Open-loop offered rate (requests/s): about half the closed-loop
#: capacity of two connections against this server on a 2-core host.
SMALL_RATE = 250.0

# http-mixed-durable --------------------------------------------------
MIXED_DATASET, MIXED_N = "facebook", 50_000
MIXED_RATE = 100.0
MIXED_MIX = {"lookup": 0.70, "insert": 0.25, "range": 0.05}
MIXED_LOOKUP_KEYS, MIXED_INSERT_KEYS, MIXED_RANGE_SPAN = 64, 32, 100

# lib-lookup-large ----------------------------------------------------
LIB_DATASET, LIB_N, LIB_BATCH, LIB_SHARDS = "genome", 200_000, 4096, 8

ALPHA = 0.1


@dataclass
class Outcome:
    """What one run measured, before formatting."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: End-to-end metrics printed but not gated (see README).
    extra: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    #: Failed checks: any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    #: Validity warnings (generator behind, thin tails): recorded only.
    flags: list[str] = field(default_factory=list)

    def count(self, results) -> None:
        self.attempted += len(results)
        self.failed += sum(1 for r in results if not r.ok)


def _keys(name: str, n: int) -> np.ndarray:
    from repro.datasets import load

    return np.asarray(load(name, n))


def _lookup_body(keys) -> bytes:
    return json.dumps({"keys": [int(k) for k in keys]}).encode()


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _latency_metrics(out: Outcome, prefix: str, results, tail: float) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_p<tail>_ms`` over successes."""
    lat = [r.latency for r in results if r.ok]
    if not lat:
        out.problems.append(f"no successful {prefix} requests")
        return
    p, value = tail_percentile(lat, at_most=tail)
    if p < tail:
        out.flags.append(f"{prefix}: {len(lat)} samples support only p{p:g}")
    out.record[f"{prefix}_samples"] = len(lat)
    (out.metrics if prefix == "lookup" else out.extra)[f"{prefix}_p50_ms"] = _ms(median(lat))
    out.extra[f"{prefix}_p{p:g}_ms"] = _ms(value)


def _late_p99_ms(results) -> float:
    late = [r.late for r in results]
    return _ms(tail_percentile(late, at_most=99)[1]) if late else 0.0


# ----------------------------------------------------------------------
# Request generation
# ----------------------------------------------------------------------
def small_requests(keys: np.ndarray, seed: int, stream: int, count: int) -> list[Request]:
    """*count* lookups of :data:`SMALL_BATCH` uniformly drawn base keys."""
    rng = np.random.default_rng([seed, stream])
    picks = keys[rng.integers(0, keys.size, size=(count, SMALL_BATCH))]
    return [Request("lookup", "/v1/lookup", _lookup_body(row), row) for row in picks]


def mixed_requests(keys: np.ndarray, seed: int, portions: tuple[int, ...]) -> list[Request]:
    """The http-mixed-durable schedule: lookups, inserts and ranges.

    Each portion (in a traced run, each half) holds the mix exactly, in
    random order.  Inserts carry new keys drawn uniformly over the whole base
    key range, one from each 1/32 of it, with explicit values.  Half of
    each lookup reads keys inserted by requests scheduled at least three
    slots earlier (base keys until there are any), half reads base keys.
    """
    rng = np.random.default_rng([seed, 1])
    kinds: list[str] = []
    for count in portions:
        counts = {kind: round(share * count) for kind, share in MIXED_MIX.items()}
        counts["lookup"] = count - counts["insert"] - counts["range"]
        kinds.extend(rng.permutation([k for k, n in counts.items() for _ in range(n)]))
    strata = np.linspace(int(keys[0]), int(keys[-1]) + 1, MIXED_INSERT_KEYS + 1).astype(np.int64)
    used: set[int] = set()
    pool: list[int] = []
    released: list[tuple[int, list[int]]] = []
    out: list[Request] = []
    half = MIXED_LOOKUP_KEYS // 2
    for i, kind in enumerate(kinds):
        while released and released[0][0] <= i - 3:
            pool.extend(released.pop(0)[1])
        if kind == "insert":
            new = [0] * MIXED_INSERT_KEYS
            todo = np.arange(MIXED_INSERT_KEYS)
            while todo.size:
                cand = rng.integers(strata[todo], strata[todo + 1])
                pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
                fresh = keys[pos] != cand
                for j, key in zip(todo[fresh].tolist(), cand[fresh].tolist()):
                    if key not in used:
                        used.add(key)
                        new[j] = key
                todo = np.array([j for j in todo.tolist() if not new[j]], dtype=np.int64)
            values = rng.integers(1, 2**62, size=len(new)).tolist()
            released.append((i, new))
            body = json.dumps({"keys": new, "values": values}).encode()
            out.append(Request("insert", "/v1/insert", body, (new, values)))
        elif kind == "lookup":
            base = keys[rng.integers(0, keys.size, size=half)].tolist()
            if pool:
                recent = [pool[j] for j in rng.integers(0, len(pool), size=half)]
            else:
                recent = keys[rng.integers(0, keys.size, size=half)].tolist()
            batch = base + recent
            out.append(Request("lookup", "/v1/lookup", _lookup_body(batch), batch))
        else:
            out.append(_range_request(keys, rng))
    return out


def _range_request(keys: np.ndarray, rng: np.random.Generator) -> Request:
    """A range spanning :data:`MIXED_RANGE_SPAN` consecutive base keys."""
    j = int(rng.integers(0, keys.size - MIXED_RANGE_SPAN))
    low, high = int(keys[j]), int(keys[j + MIXED_RANGE_SPAN - 1])
    body = json.dumps({"low": low, "high": high}).encode()
    return Request("range", "/v1/range", body, (low, high))


def mixed_warmup(keys: np.ndarray, seed: int) -> list[Request]:
    """Lookups and ranges of base keys only: warms without writing."""
    rng = np.random.default_rng([seed, 2])
    return small_requests(keys, seed, 2, 256) + [_range_request(keys, rng) for _ in range(16)]


def lib_batches(keys: np.ndarray, seed: int, stream: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, stream])
    return list(keys[rng.integers(0, keys.size, size=(count, LIB_BATCH))])


# ----------------------------------------------------------------------
# Checking HTTP answers against the oracle
# ----------------------------------------------------------------------
def oracle_checker(oracle: Oracle) -> Checker:
    def before_send(req: Request):
        if req.kind == "insert":
            oracle.insert_sent(*req.data)
            return None
        return oracle.pending_snapshot() if oracle.pending else None

    def check(req: Request, status: int, body: bytes, pending) -> bool:
        obj = json.loads(body)
        if req.kind == "insert":
            keys, values = req.data
            if obj.get("accepted") != len(keys):
                return False
            oracle.insert_acked(keys, values)
            return True
        if req.kind == "lookup":
            return obj["n"] == len(req.data) and oracle.lookup_ok(
                [int(k) for k in req.data], obj["found"], obj["values"], pending)
        low, high = req.data
        return oracle.range_ok(low, high, obj["pairs"], pending)

    return Checker(before_send, check)


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _stats(server: Server) -> dict:
    status, body = server.get("/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return json.loads(body)["service"]


def _start_servers(root: Path, make_args: Callable[[int], list[str]], out: Outcome,
                   spans_out: Path | None) -> Server:
    """Start :data:`SETUPS` servers in turn (one when tracing); keep the last."""
    setups = 1 if spans_out is not None else SETUPS
    times = []
    for i in range(setups):
        server = Server(root, make_args(i), spans_out)
        times.append(server.setup_s)
        if i < setups - 1:
            code = server.stop()
            if code != 0:
                out.problems.append(f"set-up server {i} exited with {code}")
    out.metrics["setup_s"] = median(times)
    out.record["setup_s_each"] = times
    return server


def _stop(server: Server, out: Outcome) -> None:
    out.metrics["peak_rss_mb"] = server.peak_rss_mb()
    code = server.stop()
    if code != 0:
        out.problems.append(f"server exited with {code}, not 0 (graceful drain)")
        out.failed += 1


def _switch_phase(server: Server) -> None:
    server.signal(signal.SIGUSR1)
    time.sleep(SETTLE_S)


def _overhead(untraced: list[float], traced: list[float]) -> float:
    """Tracing overhead: traced over untraced lower-quartile service time.

    The lower quartile, not the median, because the two halves of a
    mixed run see different numbers of merge stalls; the fastest
    requests show the per-request cost of the spans alone.
    """
    if not untraced or not traced:
        return 0.0
    return percentile(traced, 25) / percentile(untraced, 25) - 1.0


def _service_s(results) -> list[float]:
    return [r.done - r.sent for r in results if r.ok and r.kind == "lookup"]


def _http_layers(out: Outcome, spans_path: Path, untraced, traced, late_p99_ms: float,
                 setup_keys: int, keys_inserted: int, stats0: dict, stats1: dict) -> None:
    lookups = stats1["n_lookups"] - stats0["n_lookups"]
    hits = stats1["buffer_hits"] - stats0["buffer_hits"]
    out.layers = layers.compute(
        load_spans(str(spans_path)),
        request_root="server.app.request",
        setup_keys=setup_keys,
        client_late_p99_ms=late_p99_ms,
        overhead_frac=_overhead(_service_s(untraced), _service_s(traced)),
        keys_inserted=keys_inserted,
        buffer_hit_ratio=hits / lookups if lookups else 0.0,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_lookup_small(root: Path, work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome(record={"offered_rate_per_s": SMALL_RATE})
    keys = _keys(SMALL_DATASET, SMALL_N)
    oracle = Oracle(keys)

    def check(req: Request, status: int, body: bytes, _ctx) -> bool:
        obj = json.loads(body)
        return oracle.base_lookup_ok(req.data, np.asarray(obj["found"]),
                                     np.asarray(obj["values"], dtype=np.int64))

    checker = Checker(check=check)
    args = ["--dataset", SMALL_DATASET, "--n", str(SMALL_N), "--alpha", str(ALPHA),
            "--port", "0"]
    closed_pool = small_requests(keys, seed, 3, 4096)

    def warm(server: Server, budget: float) -> None:
        pool = small_requests(keys, seed, 2, 512)
        asyncio.run(closed_loop(server.host, server.port, pool, budget, checker))

    def phase(server: Server, part: float, stream: int) -> tuple[Phase, Phase]:
        host, port = server.host, server.port
        opened = small_requests(keys, seed, stream, int(SMALL_RATE * seconds * part))
        o = Phase(asyncio.run(open_loop(host, port, opened, SMALL_RATE, checker)))
        c = Phase(*asyncio.run(closed_loop(host, port, closed_pool, seconds * part, checker)))
        return o, c

    opened, closed = Phase(), Phase()
    if not trace:
        # As in lib-lookup-large, each set-up serves its share of the
        # timed phases, so they span three servers and a longer stretch
        # of a shared host's drifting speed.
        times, rss = [], []
        for i in range(SETUPS):
            server = Server(root, args)
            times.append(server.setup_s)
            try:
                warm(server, WARMUP_S / 2)
                o, c = phase(server, 0.5 / SETUPS, 10 + i)
                rss.append(server.peak_rss_mb())
                code = server.stop()
            except BaseException:
                server.kill()
                raise
            if code != 0:
                out.problems.append(f"server {i} exited with {code}, not 0 (graceful drain)")
                out.failed += 1
            opened.results += o.results
            closed.results += c.results
            closed.wall_s += c.wall_s
        out.metrics["setup_s"] = median(times)
        out.record["setup_s_each"] = times
        out.metrics["peak_rss_mb"] = max(rss)
    else:
        spans_path = work / "spans.json"
        server = _start_servers(root, lambda i: args, out, spans_path)
        try:
            warm(server, WARMUP_S)
            _switch_phase(server)
            untraced = phase(server, 0.25, 1)
            _switch_phase(server)
            stats0 = _stats(server)
            opened, closed = phase(server, 0.25, 4)
            stats1 = _stats(server)
            _switch_phase(server)
            _stop(server, out)
        except BaseException:
            server.kill()
            raise
    for p in (opened, closed, *(untraced if trace else ())):
        out.count(p.results)
    out.record["client_late_p99_ms"] = _late_p99_ms(opened.results)
    _latency_metrics(out, "lookup", opened.of("lookup"), 99)
    done = sum(1 for r in closed.results if r.ok)
    out.metrics["lookup_keys_per_s"] = done * SMALL_BATCH / closed.wall_s
    if trace:
        _http_layers(out, spans_path, untraced[1].results, closed.results,
                     out.record["client_late_p99_ms"], SMALL_N, 0, stats0, stats1)
    return out


def run_mixed_durable(root: Path, work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.store import DurableStore

    out = Outcome(record={"offered_rate_per_s": MIXED_RATE})
    keys = _keys(MIXED_DATASET, MIXED_N)
    oracle = Oracle(keys)
    checker = oracle_checker(oracle)
    dirs: list[Path] = []

    def args(_i: int) -> list[str]:
        d = Path(tempfile.mkdtemp(prefix="mixed-", dir=work))
        dirs.append(d)
        return ["--dataset", MIXED_DATASET, "--n", str(MIXED_N), "--alpha", str(ALPHA),
                "--port", "0", "--store", str(d / "runtime.db"),
                "--data-dir", str(d / "index"), "--metrics-out", str(d / "metrics.jsonl")]

    spans_path = work / "spans.json" if trace else None
    server = _start_servers(root, args, out, spans_path)
    total = int(MIXED_RATE * seconds)
    schedule = mixed_requests(keys, seed, (total // 2, total - total // 2) if trace else (total,))
    try:
        host, port = server.host, server.port
        asyncio.run(closed_loop(host, port, mixed_warmup(keys, seed), WARMUP_S, checker))
        if not trace:
            stats0 = _stats(server)
            run = Phase(asyncio.run(open_loop(host, port, schedule, MIXED_RATE, checker)))
            stats1 = _stats(server)
        else:
            cut = len(schedule) // 2
            _switch_phase(server)
            untraced = Phase(asyncio.run(open_loop(host, port, schedule[:cut], MIXED_RATE, checker)))
            _switch_phase(server)
            stats0 = _stats(server)
            run = Phase(asyncio.run(open_loop(host, port, schedule[cut:], MIXED_RATE, checker)))
            stats1 = _stats(server)
            _switch_phase(server)
        _stop(server, out)
    except BaseException:
        server.kill()
        raise
    out.count(run.results)
    if trace:
        out.count(untraced.results)
    for name in ("merges", "flushes", "compactions"):
        out.record[name] = stats1[name] - stats0[name]
    out.record["inserts"] = len(run.of("insert"))
    out.record["ranges"] = len(run.of("range"))
    out.record["client_late_p99_ms"] = _late_p99_ms(run.results)
    _latency_metrics(out, "lookup", run.of("lookup"), 99)
    _latency_metrics(out, "insert", run.of("insert"), 99)
    _latency_metrics(out, "range", run.of("range"), 90)
    lookups = [r for r in run.of("lookup") if r.ok]
    span_s = max(r.done for r in run.results) - min(r.due for r in run.results)
    out.metrics["lookup_keys_per_s"] = len(lookups) * MIXED_LOOKUP_KEYS / span_s

    data_dir = dirs[-1] / "index"
    try:
        store = DurableStore(data_dir)
        store.verify()
        shards = [store.load_shard_arrays(s) for s in range(store.manifest.n_shards)]
        durable_ok = sum(k.size for k, _ in shards) == oracle.n_live_keys() and all(
            _durable_shard_ok(oracle, k, v) for k, v in shards)
    except Exception as exc:  # any store failure fails the run
        out.problems.append(f"durable store check failed: {exc!r}")
        durable_ok = False
    if not durable_ok:
        out.problems.append("durable store content differs from the oracle")
        out.failed += 1
    disk = sum(p.stat().st_size for p in data_dir.rglob("*") if p.is_file())
    out.extra["disk_bytes_per_key"] = disk / oracle.n_live_keys()
    if trace:
        inserted = sum(len(r.data[0]) for r in schedule[len(schedule) // 2:] if r.kind == "insert")
        _http_layers(out, spans_path, untraced.results, run.results,
                     out.record["client_late_p99_ms"], MIXED_N, inserted, stats0, stats1)
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return out


def _durable_shard_ok(oracle: Oracle, keys: np.ndarray, values: np.ndarray) -> bool:
    return all(oracle.expected(k) == v for k, v in zip(keys.tolist(), values.tolist()))


def run_lib_large(root: Path, work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.serving import IndexService

    from .tracing import install

    out = Outcome(record={"offered_rate_per_s": None, "loop": "closed, one caller"})
    keys = _keys(LIB_DATASET, LIB_N)
    oracle = Oracle(keys)
    tracer = Tracer(enabled=trace)
    if trace:
        install(tracer)

    def loop(service, batches: list[np.ndarray], budget: float):
        lat, late, wrong = [], [], 0
        deadline = time.perf_counter() + budget
        last = time.perf_counter()
        i = 0
        while time.perf_counter() < deadline:
            q = batches[i % len(batches)]
            i += 1
            t0 = time.perf_counter()
            batch = service.lookup_many(q)
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            late.append(t0 - last)
            last = t1
            if not oracle.base_lookup_ok(q, batch.found, batch.values):
                wrong += 1
        return lat, late, wrong

    # Each set-up is followed by its share of the timed loop, so the
    # median covers three builds and a longer stretch of wall time:
    # on a shared host, speed drifts over tens of seconds.
    times, lat, late, wrong = [], [], [], 0
    batches = lib_batches(keys, seed, 1, 64)
    setups = 1 if trace else SETUPS
    for _ in range(setups):
        t0 = time.perf_counter()
        service = IndexService.build(keys, family="lipp", n_shards=LIB_SHARDS, alpha=ALPHA)
        times.append(time.perf_counter() - t0)
        try:
            loop(service, lib_batches(keys, seed, 2, 16), WARMUP_S / 2)
            if trace:
                tracer.phase, tracer.enabled = 1, False
                lat_u, _late, wrong = loop(service, batches, seconds / 2)
                tracer.phase, tracer.enabled = 2, True
                hits0, looked0 = service.stats.buffer_hits, service.stats.n_lookups
            part = loop(service, batches, seconds / (2 if trace else setups))
            tracer.enabled = False
            lat += part[0]
            late += part[1]
            wrong += part[2]
            out.extra["index_bytes_per_key"] = service.size_bytes() / LIB_N
            if trace:
                lookups = service.stats.n_lookups - looked0
                hits = service.stats.buffer_hits - hits0
        finally:
            service.close()
            del service  # free it before the next build: peak RSS is one service
    out.metrics["setup_s"] = median(times)
    out.record["setup_s_each"] = times
    out.attempted, out.failed = len(lat), wrong
    if trace:
        out.attempted += len(lat_u)
    tail_p, tail = tail_percentile(lat, at_most=99)
    if tail_p < 99:
        out.flags.append(f"lookup: {len(lat)} samples support only p{tail_p:g}")
    out.metrics["lookup_p50_ms"] = _ms(median(lat))
    out.extra["lookup_p99_ms"] = _ms(tail)
    out.metrics["lookup_keys_per_s"] = len(lat) * LIB_BATCH / sum(lat)
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.record["client_late_p99_ms"] = _ms(tail_percentile(late, at_most=99)[1])
    out.record["lookup_samples"] = len(lat)
    if trace:
        out.layers = layers.compute(
            tracer.spans,
            request_root="serving.service.lookup_many",
            setup_keys=LIB_N,
            client_late_p99_ms=out.record["client_late_p99_ms"],
            overhead_frac=_overhead(lat_u, lat),
            keys_inserted=0,
            buffer_hit_ratio=hits / lookups if lookups else 0.0,
        )
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Path, Path, int, float, bool], Outcome]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("http-lookup-small", run_lookup_small,
                 f"16-key HTTP lookups over 200k keys, open loop at {SMALL_RATE:g} req/s then "
                 "closed loop: per-request fixed cost (wire, JSON, admission, scatter) "
                 "dominates"),
        Workload("http-mixed-durable", run_mixed_durable,
                 f"durable open loop at {MIXED_RATE:g} req/s of lookups, inserts and ranges: "
                 "write buffer, merges with re-smoothing, flush, compaction, op log and "
                 "writer lock do the work"),
        Workload("lib-lookup-large", run_lib_large,
                 "in-process 4096-key batches over genome 200k: no wire, so the index kernel "
                 "and CSV set-up dominate"),
    )
}
