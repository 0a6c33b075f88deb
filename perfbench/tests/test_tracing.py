import threading

from perfbench.tracing import Span, SpanTree, Tracer, covered


def _span(sid, parent, t0, t1, name="x", req=1, phase=2):
    return Span(sid, parent, req, name, t0, t1, phase)


def test_self_time_of_a_hand_built_tree():
    root = _span(1, 0, 0.0, 10.0, "root")
    a = _span(2, 1, 1.0, 3.0, "a")
    b = _span(3, 1, 2.0, 5.0, "b")  # overlaps a: the union counts once
    c = _span(4, 1, 9.0, 12.0, "c")  # runs past the parent: clipped
    grandchild = _span(5, 2, 1.5, 2.5, "g")
    tree = SpanTree([root, a, b, c, grandchild])
    assert covered(root, [a, b, c]) == 5.0
    assert tree.self_time(root) == 5.0
    assert tree.self_time(a) == 1.0
    assert tree.self_time(grandchild) == 1.0
    assert tree.has_ancestor(grandchild, "root")
    assert not tree.has_ancestor(root, "root")


def test_wrapped_calls_nest_and_share_a_request_id_across_threads():
    tracer = Tracer(enabled=True)

    inner = tracer.wrap("inner", lambda: None)

    def work():
        inner()

    outer_work = tracer.wrap("work", work)

    def request():
        bound = tracer.bind_current(outer_work)
        t = threading.Thread(target=bound)
        t.start()
        t.join(5)
        assert not t.is_alive()

    tracer.wrap("request", request)()
    tracer.wrap("other", lambda: None)()
    by_name = {s.name: s for s in tracer.spans}
    req, work_s, inner_s = by_name["request"], by_name["work"], by_name["inner"]
    assert req.parent == 0 and work_s.parent == req.sid and inner_s.parent == work_s.sid
    assert req.req == work_s.req == inner_s.req == req.sid
    assert by_name["other"].req != req.sid


def test_disabled_tracer_records_nothing_and_keeps_errors():
    tracer = Tracer(enabled=False)
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert tracer.spans == []
    tracer.enabled = True

    def boom():
        raise KeyError("k")

    try:
        tracer.wrap("boom", boom)()
    except KeyError:
        pass
    assert tracer.spans[0].error == "KeyError"
