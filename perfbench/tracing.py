"""Span recording around the program's public calls, from outside it.

:func:`install` replaces callables of the ``repro`` package with
wrappers at runtime; nothing under ``src/`` knows about them.  Each
span records its name, start, end, parent span and request id (the
id of the request's root span), plus the tracer's phase when it
started.  Spans stay in memory until :meth:`Tracer.dump`.

While ``Tracer.enabled`` is false a wrapper costs one attribute read
and calls straight through, so the untraced half of a traced run
measures the same code paths with the wrappers idle.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

#: ``(span id, request id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0 for a root span
    req: int  # sid of the root span of the same request
    name: str
    t0: float
    t1: float
    phase: int
    error: str | None = None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.phase = 0
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    # -- recording -----------------------------------------------------
    def _open(self) -> tuple[tuple[int, int] | None, int, int, int]:
        parent = _CURRENT.get()
        sid = next(self._ids)
        return parent, sid, (parent[1] if parent else sid), self.phase

    def _close(self, opened, name, t0, error, attrs) -> None:
        parent, sid, req, phase = opened
        self.spans.append(
            Span(sid, parent[0] if parent else 0, req, name, t0,
                 time.perf_counter(), phase, error, attrs)
        )

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """Synchronous wrapper; ``attrs(args, result)`` adds span fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            opened = self._open()
            token = _CURRENT.set(opened[1:3])
            error = extra = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                _CURRENT.reset(token)
                self._close(opened, name, t0, error, extra)

        return wrapper

    def wrap_async(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            opened = self._open()
            token = _CURRENT.set(opened[1:3])
            error = extra = None
            t0 = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                _CURRENT.reset(token)
                self._close(opened, name, t0, error, extra)

        return wrapper

    def bind_current(self, fn: Callable) -> Callable:
        """*fn* made to run under the caller's current span on any thread.

        Thread pools do not carry context variables across, so work
        handed to one would otherwise start a new request.
        """
        current = _CURRENT.get()

        def bound(*args, **kwargs):
            token = _CURRENT.set(current)
            try:
                return fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)

        return bound

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(s.__dict__.values()) for s in self.spans], handle)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(parent: Span, children: list[Span]) -> float:
    """Seconds of *parent* covered by the union of *children*."""
    total = 0.0
    end = parent.t0
    for child in sorted(children, key=lambda s: s.t0):
        lo = max(child.t0, end)
        hi = min(child.t1, parent.t1)
        if hi > lo:
            total += hi - lo
        end = max(end, min(child.t1, parent.t1))
    return total


class SpanTree:
    """Parent/child index over a list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent:
                self.children.setdefault(s.parent, []).append(s)

    def kids(self, span: Span) -> list[Span]:
        return self.children.get(span.sid, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by child spans."""
        return span.duration - covered(span, self.kids(span))

    def root(self, span: Span) -> Span:
        return self.by_id.get(span.req, span)

    def has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent:
            span = self.by_id.get(span.parent)
            if span is None:
                return False
            if span.name == name:
                return True
        return False


# ----------------------------------------------------------------------
# Wrapping the program
# ----------------------------------------------------------------------
def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping classmethods."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _n_keys(args, _result) -> dict:
    return {"n": len(args[1])}


def _levels(args, result) -> dict:
    return {"n": len(args[1]), "levels": int(result.levels.sum())}


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    import json as stdjson

    import repro.core.csv_algorithm as csv_mod
    import repro.indexes.lipp.index as lipp_mod
    import repro.server.admission as admission_mod
    import repro.server.app as app_mod
    import repro.server.runtime_store as runtime_store_mod
    import repro.serving.partitioner as partitioner_mod
    import repro.serving.router as router_mod
    import repro.serving.service as service_mod
    import repro.store.store as store_mod

    w, wa = tracer.wrap, tracer.wrap_async

    # server.app: the request itself, JSON, request parsing, response write.
    # ``_dispatch`` and ``_write_response`` are private, but they are the
    # only per-request boundaries the front door has.
    _patch(app_mod.HttpFrontDoor, "_dispatch",
           lambda f: wa("server.app.request", f, lambda a, r: {"path": a[1][1]}))
    _patch(app_mod.HttpFrontDoor, "_write_response",
           lambda f: wa("server.app.write", f))

    class _TracedJson:
        JSONDecodeError = stdjson.JSONDecodeError
        loads = staticmethod(w("server.app.json_decode", stdjson.loads))
        dumps = staticmethod(w("server.app.json_encode", stdjson.dumps))

    app_mod.json = _TracedJson
    for parse in ("parse_lookup_request", "parse_insert_request", "parse_range_request"):
        _patch(app_mod, parse, lambda f: w("server.app.parse", f))

    # server.admission: the wait for a slot, then the admitted work on
    # the pool thread, bound to the request's span.
    def make_run(run):
        async def traced_run(self, fn):
            if not tracer.enabled:
                return await run(self, fn)
            work = tracer.wrap("server.admission.work", fn)
            return await run(self, tracer.bind_current(work))

        return wa("server.admission.run", traced_run)

    _patch(admission_mod.AdmissionController, "run", make_run)

    rs = runtime_store_mod.RuntimeStore
    _patch(rs, "record_op", lambda f: w("server.runtime_store.record_op", f))
    _patch(rs, "save_counters", lambda f: w("server.runtime_store.save_counters", f))

    svc = service_mod.IndexService
    _patch(svc, "build", lambda f: w("serving.service.build", f))
    _patch(svc, "lookup_many", lambda f: w("serving.service.lookup_many", f, _n_keys))
    _patch(svc, "insert_many", lambda f: w("serving.service.insert_many", f, _n_keys))
    _patch(svc, "range_query", lambda f: w("serving.service.range_query", f))
    # The merge has no public entry of its own: it runs inside insert_many.
    _patch(svc, "_merge_shard", lambda f: w("serving.service.merge", f))

    rt = router_mod.ShardRouter
    _patch(rt, "lookup_many", lambda f: w("serving.router.lookup_many", f, _n_keys))
    _patch(rt, "range_query", lambda f: w("serving.router.range_query", f))

    plan = w("serving.partitioner.plan_shards", partitioner_mod.plan_shards)
    partitioner_mod.plan_shards = plan
    service_mod.plan_shards = plan

    li = lipp_mod.LippIndex
    _patch(li, "build", lambda f: w("indexes.lipp.build", f))
    _patch(li, "lookup_many", lambda f: w("indexes.lipp.lookup_many", f, _levels))
    _patch(li, "bulk_insert_many", lambda f: w("indexes.lipp.bulk_insert_many", f))
    _patch(li, "range_query", lambda f: w("indexes.lipp.range_query", f))
    _patch(li, "prewarm_flat", lambda f: w("indexes.lipp.prewarm_flat", f))

    csv = w("core.apply_csv", csv_mod.apply_csv,
            lambda a, r: {"virtual": int(r.virtual_points_inserted)})
    csv_mod.apply_csv = csv
    partitioner_mod.apply_csv = csv
    service_mod.apply_csv = csv

    ds = store_mod.DurableStore
    _patch(ds, "append_runs", lambda f: w("store.append_runs", f))
    _patch(ds, "compact", lambda f: w("store.compact", f, lambda a, r: {"plans": int(r)}))
    store_mod.write_run_file = w("store.write_run_file", store_mod.write_run_file,
                                 lambda a, r: {"bytes": int(r[1])})
