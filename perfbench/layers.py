"""Per-layer metrics of a traced run, computed from its spans.

Every metric names the end-to-end metric it should move and on which
workload.  A metric whose layer a workload does not exercise (say,
``store.*`` on the in-process workload) reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import mean, percentile
from .tracing import Span, SpanTree

#: Phase of the traced half; see ``traced_server.py``.
TRACED_PHASE = 2
SETUP_PHASE = 0


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # "<end-to-end metric> on <workload>"


CATALOG = (
    Layer("client.late_p99_ms", "ms", "lower", "nothing; a run-validity check"),
    Layer("server.app.decode_us_per_req", "us", "lower",
          "lookup_p50_ms, lookup_keys_per_s on http-lookup-small"),
    Layer("server.app.encode_us_per_req", "us", "lower",
          "lookup_p50_ms, lookup_keys_per_s on http-lookup-small"),
    Layer("server.app.lock_wait_p99_ms", "ms", "lower", "lookup_p99_ms on http-mixed-durable"),
    Layer("server.admission.wait_p99_ms", "ms", "lower",
          "lookup_p99_ms on both HTTP workloads"),
    Layer("server.admission.rejected", "count", "lower", "failed_frac on both HTTP workloads"),
    Layer("server.runtime_store.record_op_ms", "ms", "lower", "insert_p50_ms on http-mixed-durable"),
    Layer("server.runtime_store.save_counters_ms", "ms", "lower",
          "insert_p50_ms on http-mixed-durable"),
    Layer("serving.service.lookup_self_us_per_batch", "us", "lower",
          "lookup_p50_ms on http-lookup-small; negligible on lib-lookup-large"),
    Layer("serving.service.insert_self_us_per_batch", "us", "lower",
          "insert_p50_ms on http-mixed-durable"),
    Layer("serving.service.buffer_hit_ratio", "ratio", "higher",
          "lookup_p50_ms on http-mixed-durable"),
    Layer("serving.service.merges", "count", "lower",
          "insert_p99_ms, lookup_p99_ms on http-mixed-durable"),
    Layer("serving.service.merge_s_p50", "s", "lower",
          "insert_p99_ms, lookup_p99_ms on http-mixed-durable"),
    Layer("serving.service.merge_s_max", "s", "lower",
          "insert_p99_ms, lookup_p99_ms on http-mixed-durable"),
    Layer("serving.router.lookup_self_us_per_batch", "us", "lower",
          "lookup_p50_ms on http-lookup-small"),
    Layer("serving.router.shards_per_batch", "count", "lower", "lookup_p50_ms on http-lookup-small"),
    Layer("serving.partitioner.plan_s", "s", "lower", "setup_s on all workloads"),
    Layer("indexes.lipp.build_s", "s", "lower", "setup_s on all workloads"),
    Layer("core.csv_s_setup", "s", "lower", "setup_s on all workloads"),
    Layer("indexes.lipp.lookup_us_per_call", "us", "lower", "lookup_p50_ms on http-lookup-small"),
    Layer("indexes.lipp.lookup_ns_per_key", "ns", "lower", "lookup_keys_per_s on lib-lookup-large"),
    Layer("indexes.lipp.levels_per_key", "levels", "lower", "lookup_p50_ms on lib-lookup-large"),
    Layer("indexes.lipp.range_ms_per_call", "ms", "lower", "range_p90_ms on http-mixed-durable"),
    Layer("serving.service.range_self_ms_per_call", "ms", "lower",
          "range_p90_ms on http-mixed-durable"),
    Layer("indexes.lipp.bulk_insert_s_per_merge", "s", "lower",
          "insert_p99_ms, lookup_p99_ms on http-mixed-durable"),
    Layer("indexes.lipp.flat_compile_s_per_merge", "s", "lower",
          "insert_p99_ms, lookup_p99_ms on http-mixed-durable"),
    Layer("core.csv_s_per_merge", "s", "lower",
          "insert_p99_ms, lookup_p99_ms on http-mixed-durable"),
    Layer("core.virtual_points_per_key", "ratio", "lower",
          "index_bytes_per_key, levels_per_key on lib-lookup-large"),
    Layer("store.append_ms_per_flush", "ms", "lower",
          "insert_p99_ms, disk_bytes_per_key on http-mixed-durable"),
    Layer("store.compact_ms_per_call", "ms", "lower",
          "insert_p99_ms, disk_bytes_per_key on http-mixed-durable"),
    Layer("store.compactions", "count", "lower",
          "insert_p99_ms, disk_bytes_per_key on http-mixed-durable"),
    Layer("store.bytes_written_per_user_byte", "ratio", "lower",
          "insert_p99_ms, disk_bytes_per_key on http-mixed-durable"),
    Layer("trace.coverage_frac", "ratio", "higher", "nothing; child spans / request wall time"),
    Layer("trace.overhead_frac", "ratio", "lower", "nothing; traced vs untraced lookup p50"),
)

#: Bytes of one inserted (key, value) pair as the user sends it.
USER_BYTES_PER_KEY = 16


def _total(spans: list[Span]) -> float:
    return sum(s.duration for s in spans)


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def compute(spans: list[Span], *, request_root: str, setup_keys: int,
            client_late_p99_ms: float, overhead_frac: float,
            keys_inserted: int, buffer_hit_ratio: float) -> dict[str, float]:
    """Every :data:`CATALOG` metric from one traced run's spans.

    *request_root* names the span one request enters the program
    through (``server.app.request`` over HTTP, the service call in
    process); coverage is the share of it its child spans cover.
    """
    tree = SpanTree(spans)
    setup = [s for s in spans if s.phase == SETUP_PHASE
             and (s.name == "serving.service.build"
                  or tree.has_ancestor(s, "serving.service.build"))]
    run = [s for s in spans if tree.root(s).phase == TRACED_PHASE]

    def named(group: list[Span], name: str) -> list[Span]:
        return [s for s in group if s.name == name]

    out: dict[str, float] = {"client.late_p99_ms": client_late_p99_ms}

    # server.app / server.admission
    requests = named(run, "server.app.request")
    decode = _total(named(run, "server.app.json_decode")) + _total(named(run, "server.app.parse"))
    works = named(run, "server.admission.work")
    lock_waits, tolist = [], 0.0
    for work in works:
        kids = tree.kids(work)
        first = min((k.t0 for k in kids), default=work.t1)
        lock_waits.append(first - work.t0)
        tolist += tree.self_time(work) - (first - work.t0)
    encode = tolist + _total(named(run, "server.app.json_encode"))
    out["server.app.decode_us_per_req"] = _per(decode, len(requests)) * 1e6
    out["server.app.encode_us_per_req"] = _per(encode, len(requests)) * 1e6
    out["server.app.lock_wait_p99_ms"] = percentile(lock_waits, 99) * 1e3 if lock_waits else 0.0
    waits = []
    runs = named(run, "server.admission.run")
    for adm in runs:
        kids = tree.kids(adm)
        if kids:
            waits.append(min(k.t0 for k in kids) - adm.t0)
    out["server.admission.wait_p99_ms"] = percentile(waits, 99) * 1e3 if waits else 0.0
    out["server.admission.rejected"] = float(sum(1 for s in runs if s.error == "OverloadedError"))
    out["server.runtime_store.record_op_ms"] = mean(
        [s.duration for s in named(run, "server.runtime_store.record_op")]) * 1e3
    out["server.runtime_store.save_counters_ms"] = mean(
        [s.duration for s in named(run, "server.runtime_store.save_counters")]) * 1e3

    # serving
    svc_lookups = named(run, "serving.service.lookup_many")
    out["serving.service.lookup_self_us_per_batch"] = mean(
        [tree.self_time(s) for s in svc_lookups]) * 1e6
    out["serving.service.insert_self_us_per_batch"] = mean(
        [tree.self_time(s) for s in named(run, "serving.service.insert_many")]) * 1e6
    out["serving.service.buffer_hit_ratio"] = buffer_hit_ratio
    merges = named(run, "serving.service.merge")
    merge_s = [s.duration for s in merges]
    out["serving.service.merges"] = float(len(merges))
    out["serving.service.merge_s_p50"] = percentile(merge_s, 50) if merge_s else 0.0
    out["serving.service.merge_s_max"] = max(merge_s, default=0.0)
    routed = named(run, "serving.router.lookup_many")
    out["serving.router.lookup_self_us_per_batch"] = mean([tree.self_time(s) for s in routed]) * 1e6
    out["serving.router.shards_per_batch"] = mean(
        [sum(1 for k in tree.kids(s) if k.name == "indexes.lipp.lookup_many") for s in routed])

    # set-up
    out["serving.partitioner.plan_s"] = _total(named(setup, "serving.partitioner.plan_shards"))
    out["indexes.lipp.build_s"] = _total(named(setup, "indexes.lipp.build"))
    setup_csv = named(setup, "core.apply_csv")
    out["core.csv_s_setup"] = _total(setup_csv)
    out["core.virtual_points_per_key"] = _per(
        sum(s.attrs["virtual"] for s in setup_csv if s.attrs), setup_keys)

    # index kernel
    lipp = named(run, "indexes.lipp.lookup_many")
    lipp_keys = sum(s.attrs["n"] for s in lipp if s.attrs)
    out["indexes.lipp.lookup_us_per_call"] = mean([s.duration for s in lipp]) * 1e6
    out["indexes.lipp.lookup_ns_per_key"] = _per(_total(lipp), lipp_keys) * 1e9
    out["indexes.lipp.levels_per_key"] = _per(
        sum(s.attrs["levels"] for s in lipp if s.attrs), lipp_keys)
    out["indexes.lipp.range_ms_per_call"] = mean(
        [s.duration for s in named(run, "indexes.lipp.range_query")]) * 1e3
    out["serving.service.range_self_ms_per_call"] = mean(
        [tree.self_time(s) for s in named(run, "serving.service.range_query")]) * 1e3

    # merges
    def per_merge(name: str) -> float:
        inside = [s for s in named(run, name) if tree.has_ancestor(s, "serving.service.merge")]
        return _per(_total(inside), len(merges))

    out["indexes.lipp.bulk_insert_s_per_merge"] = per_merge("indexes.lipp.bulk_insert_many")
    out["indexes.lipp.flat_compile_s_per_merge"] = per_merge("indexes.lipp.prewarm_flat")
    out["core.csv_s_per_merge"] = per_merge("core.apply_csv")

    # store
    out["store.append_ms_per_flush"] = mean(
        [s.duration for s in named(run, "store.append_runs")]) * 1e3
    compacts = named(run, "store.compact")
    out["store.compact_ms_per_call"] = mean([s.duration for s in compacts]) * 1e3
    out["store.compactions"] = float(sum(s.attrs["plans"] for s in compacts if s.attrs))
    written = sum(s.attrs["bytes"] for s in named(run, "store.write_run_file") if s.attrs)
    out["store.bytes_written_per_user_byte"] = _per(written, keys_inserted * USER_BYTES_PER_KEY)

    # validity
    entries = named(run, request_root)
    wall = _total(entries)
    uncovered = sum(tree.self_time(s) for s in entries)
    out["trace.coverage_frac"] = (wall - uncovered) / wall if wall else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
