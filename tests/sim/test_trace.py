"""The structured tracer and its component hooks."""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.sim import Engine
from repro.sim import trace as trace_module
from repro.sim.trace import Tracer
from repro.testbeds import roce_lan
from repro.verbs.qp import _T_POST


def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.record(1.0, "a", "one", {"x": 1})
    tracer.record(2.0, "b", "two", {})
    tracer.record(3.0, "a", "three", {"x": 2})
    assert len(tracer) == 3
    assert [r.message for r in tracer.query(category="a")] == ["one", "three"]
    assert [r.message for r in tracer.query(since=2.5)] == ["three"]
    assert [r.message for r in tracer.query(category="a", x=2)] == ["three"]


def test_tracer_category_allowlist():
    tracer = Tracer(categories={"keep"})
    tracer.record(0.0, "keep", "in", {})
    tracer.record(0.0, "drop", "out", {})
    assert len(tracer) == 1


def test_tracer_ring_buffer():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.record(float(i), "c", f"m{i}", {})
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [r.message for r in tracer.query()] == ["m2", "m3", "m4"]


def test_tracer_validation_and_str():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
    tracer = Tracer()
    tracer.record(0.5, "cat", "msg", {"k": "v"})
    text = str(next(tracer.query()))
    assert "cat" in text and "k=v" in text


def test_engine_trace_noop_without_tracer():
    engine = Engine()
    engine.trace("x", "no crash")  # tracer is None: must be free & safe


def test_transfer_emits_protocol_trace():
    tb = roce_lan()
    tb.engine.tracer = Tracer(categories={"qp", "ctrl", "credits"})
    cfg = ProtocolConfig(
        block_size=1 << 20, num_channels=2, source_blocks=8, sink_blocks=8
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 16 << 20)
    tb.engine.run()
    assert done.ok
    tracer = tb.engine.tracer

    writes = list(tracer.query(category="qp", op="rdma_write"))
    assert len(writes) == 16  # one WRITE post per block
    deposits = list(tracer.query(category="credits"))
    assert deposits, "credit grants must be traced"
    ctrl = [r.fields["type"] for r in tracer.query(category="ctrl")]
    assert "block_size_req" in ctrl and "dataset_done" in ctrl
    # Records are chronological.
    times = [r.time for r in tracer.query()]
    assert times == sorted(times)


def test_clear_resets_drop_and_emit_accounting():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.record(float(i), "c", f"m{i}", {})
    assert (tracer.emitted, tracer.dropped) == (5, 3)
    tracer.clear()
    assert len(tracer) == 0
    # A cleared tracer must look factory-fresh: stale `emitted` (or
    # `dropped`) made per-phase accounting double-count earlier phases.
    assert (tracer.emitted, tracer.dropped) == (0, 0)
    tracer.record(9.0, "c", "after", {})
    assert (tracer.emitted, tracer.dropped) == (1, 0)


def test_capacity_has_a_single_source_of_truth():
    tracer = Tracer(capacity=4)
    assert tracer.capacity == 4
    # `capacity` is read-only, so the drop detector can never disagree
    # with the bound the ring was built with.
    with pytest.raises(AttributeError):
        tracer.capacity = 8
    for i in range(6):
        tracer.record(float(i), "c", f"m{i}", {})
    assert len(tracer) == tracer.capacity == 4
    assert len(list(tracer.rows())) == tracer.capacity
    assert tracer.dropped == 2


def test_ring_holds_raw_rows_and_query_wraps_them_on_demand():
    from repro.sim.trace import TraceRecord

    tracer = Tracer(capacity=3)
    for i in range(4):
        tracer.record(float(i), "c", f"m{i}", {"i": i})
    rows = list(tracer.rows())
    assert rows == [(float(i), ("c", f"m{i}", "i"), i) for i in (1, 2, 3)]
    records = list(tracer.query())
    assert records == [
        TraceRecord(time, shape[0], shape[1], {"i": i}) for time, shape, i in rows
    ]
    assert all(isinstance(r, TraceRecord) for r in records)
    assert [r.fields["i"] for r in tracer.query(since=2.0)] == [2, 3]


def _post_sends(tracer, start, count):
    for i in range(start, start + count):
        tracer.point(i * 1e-6, _T_POST, 7, "rdma_write", 1000 + i, 4 << 20)


def test_retained_bytes_per_record_and_a_full_ring_stays_flat():
    import tracemalloc

    n = 50_000
    tracer = Tracer(capacity=n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _post_sends(tracer, 0, n)
        filled = tracemalloc.get_traced_memory()[0] - base
        _post_sends(tracer, n, n)
        grown = tracemalloc.get_traced_memory()[0] - base - filled
    finally:
        tracemalloc.stop()
    # 41 B packed: the time (8), a group byte (1) and four int64 fields,
    # the op as its string's index.  A row tuple was 152, a dict 320.
    assert filled / n <= 48
    assert grown < 0.01 * filled
    assert (len(tracer), tracer.emitted, tracer.dropped) == (n, 2 * n, n)
    rows = list(tracer.rows())
    assert rows[0] == (n * 1e-6, _T_POST, 7, "rdma_write", 1000 + n, 4 << 20)
    assert [row[4] for row in rows] == list(range(1000 + n, 1000 + 2 * n))


def test_query_by_category_builds_nothing_for_other_categories(monkeypatch):
    tracer = Tracer()
    _post_sends(tracer, 0, 100)
    tracer.record(1.0, "credits", "deposit", {"granted": 4})
    built = []
    # A module global shadows the builtin for ``query`` alone.
    monkeypatch.setattr(
        trace_module, "dict", lambda pairs: built.append(1) or dict(pairs), raising=False
    )
    assert [r.fields for r in tracer.query(category="credits")] == [{"granted": 4}]
    assert len(built) == 1


def test_shape_table_is_bounded_by_emit_sites_and_cleared():
    from repro.faults import FaultPlan, run_chaos

    tb = roce_lan(seed=0)
    tracer = tb.engine.tracer = Tracer()
    plan = FaultPlan(
        seed=21, write_fault_rate=0.10, payload_corrupt_rate=0.05, ctrl_drop_rate=0.05
    )
    assert run_chaos(tb, total_bytes=256 << 20, plan=plan).completed
    # Hundreds of records, a handful of shapes: label cardinality is the
    # number of distinct (category, message, names), not of events.
    assert tracer.emitted > 500
    assert 0 < len(tracer._shapes) <= len({row[1] for row in tracer.rows()}) <= 64
    tracer.clear()
    assert len(tracer._shapes) == 0
