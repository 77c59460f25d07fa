"""JSONL export + runtime collection, including the acceptance check
that a chaos run's registry snapshot covers the pool, credit, reassembly,
and per-QP channel counters."""

from __future__ import annotations

import enum
import json
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import runtime
from repro.obs.export import metrics_lines, trace_lines, write_metrics_jsonl, write_trace_jsonl
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from tests.oracles import DequeTracer


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    runtime.stop_collection()
    runtime.install_tracer_factory(None)


def test_collection_window_tracks_engines_in_order():
    before = Engine()
    runtime.start_collection()
    first, second = Engine(), Engine()
    runtime.stop_collection()
    after = Engine()
    assert before is not None and after is not None
    # stop_collection released the engines; a new window starts empty.
    assert runtime.collected_engines() == []
    runtime.start_collection()
    third = Engine()
    assert runtime.collected_engines() == [third]
    assert first is not second


def test_collection_holds_engines_after_caller_drops_them():
    # Sweep commands (ablations) discard each testbed as soon as its run
    # finishes; the exporter must still see every engine.
    runtime.start_collection()
    for _ in range(3):
        Engine()
    assert len(runtime.collected_engines()) == 3


def test_tracer_factory_attaches_to_new_engines():
    assert Engine().tracer is None
    runtime.install_tracer_factory(lambda: Tracer(categories={"qp"}))
    engine = Engine()
    assert isinstance(engine.tracer, Tracer)
    assert engine.tracer.categories == {"qp"}
    runtime.install_tracer_factory(None)
    assert Engine().tracer is None


def test_metrics_lines_round_trip(tmp_path):
    e1, e2 = Engine(), Engine()
    e1.metrics.counter("c", i=0).add(5)
    e2.metrics.gauge("g").set_max(1.5)
    lines = [json.loads(l) for l in metrics_lines([e1, e2])]
    headers = [r for r in lines if r["record"] == "engine"]
    metrics = [r for r in lines if r["record"] == "metric"]
    assert [h["run"] for h in headers] == [0, 1]
    assert headers[0]["metrics"] == 1
    assert metrics[0] == {
        "record": "metric", "run": 0, "metric": "c", "kind": "counter",
        "labels": {"i": 0}, "value": 5.0, "count": 1,
    }
    path = tmp_path / "m.jsonl"
    n = write_metrics_jsonl(str(path), [e1, e2])
    assert n == 4
    assert len(path.read_text().splitlines()) == 4


def test_trace_lines_skip_tracerless_and_coerce_fields(tmp_path):
    plain = Engine()
    traced = Engine()
    traced.tracer = Tracer()
    traced.trace("qp", "send", nbytes=4096, obj=object())
    lines = [json.loads(l) for l in trace_lines([plain, traced])]
    assert [r["record"] for r in lines] == ["tracer", "trace"]
    assert lines[0]["run"] == 1 and lines[0]["emitted"] == 1
    rec = lines[1]
    assert rec["category"] == "qp" and rec["fields"]["nbytes"] == 4096
    assert isinstance(rec["fields"]["obj"], str)
    path = tmp_path / "t.jsonl"
    assert write_trace_jsonl(str(path), [plain, traced]) == 2


def test_writers_stream_exactly_the_lines_the_list_forms_return(tmp_path):
    engine = Engine()
    engine.tracer = Tracer()
    engine.metrics.counter("c", i=0).add(2)
    engine.metrics.histogram("h").observe(0.5)
    # Containers and objects are written as their str, scalars as JSON.
    engine.trace("sched", "brownout", parked=["a", "b"], pool=0.25, why=None)
    engine.trace("qp", "send", n=1, ok=True)
    m_path, t_path = tmp_path / "m.jsonl", tmp_path / "t.jsonl"
    assert write_metrics_jsonl(str(m_path), [engine]) == 3
    assert write_trace_jsonl(str(t_path), [engine]) == 3
    assert m_path.read_text().splitlines() == list(metrics_lines([engine]))
    assert t_path.read_text().splitlines() == list(trace_lines([engine]))
    assert list(trace_lines([engine]))[1] == (
        '{"category": "sched", "fields": {"parked": "[\'a\', \'b\']", '
        '"pool": 0.25, "why": null}, "message": "brownout", "record": "trace", '
        '"run": 0, "time": 0.0}'
    )


def test_chaos_snapshot_covers_all_subsystems():
    from repro.faults import FaultPlan, run_chaos

    runtime.start_collection()
    result = run_chaos(
        "roce-lan",
        total_bytes=32 * 1024 * 1024,
        plan=FaultPlan(seed=3, write_fault_rate=0.05),
    )
    engines = runtime.collected_engines()
    runtime.stop_collection()
    assert result.completed
    assert len(engines) == 1
    names = {rec["metric"] for rec in engines[0].metrics.snapshot()}
    # pool, credits, reassembly, and per-QP channel counters — the
    # acceptance surface for `chaos --metrics-out`.
    assert {"pool.blocks", "pool.free_blocks", "pool.block_returns"} <= names
    assert {"credits.granted_total", "credits.received_total",
            "credits.balance"} <= names
    assert {"reassembly.duplicates", "reassembly.parked"} <= names
    assert "data.qp_blocks_posted" in names
    assert {"qp.bytes_sent", "qp.rnr_naks"} <= names
    # Faults actually drove the resend counter family.
    per_qp = engines[0].metrics.family("data.qp_blocks_posted")
    assert sum(m.total for m in per_qp) > 0


# -- the templated trace encoder against json.dumps ---------------------------


class _Color(enum.IntEnum):
    RED = 3


class _Mode(str, enum.Enum):
    FAST = 'fa"st'


class _Plain(enum.Enum):
    ONE = "one"


class _Thing:
    def __str__(self) -> str:
        return "thing ü\n"


#: ``emit`` takes these by position, so a field cannot be called that.
_RESERVED = {"self", "time", "category", "message"}
_names = st.one_of(
    st.sampled_from(["m", "messag", "messagez", "n", 'q"uote', "back\\slash", "%s", "é", "{}"]),
    st.text(max_size=6),
).filter(lambda name: name not in _RESERVED)
_values = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from([_Color.RED, _Mode.FAST, _Plain.ONE, "%d %%", "\x00\x1f\x7f "]),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.builds(_Thing),
)
_records = st.tuples(
    st.one_of(st.floats(), st.integers()),  # time
    st.sampled_from(["qp", "ctrl", 'c"at', "100%", "ü"]),  # category
    st.text(max_size=6),  # message
    st.lists(_names, unique=True, max_size=5).flatmap(
        lambda names: st.tuples(
            st.just(tuple(names)),
            st.tuples(*[_values] * len(names)),
        )
    ),
)


def _expected_line(run, time, category, message, fields) -> str:
    plain = (str, int, float, bool, type(None))
    return json.dumps(
        {
            "record": "trace", "run": run, "time": time,
            "category": category, "message": message,
            "fields": {k: v if isinstance(v, plain) else str(v) for k, v in fields.items()},
        },
        sort_keys=True, default=str,
    )


def _typed(rows):
    """Rows as (type, repr) pairs: ``==`` alone equates 1, 1.0 and True."""
    return [[(type(value), repr(value)) for value in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(_records, max_size=8),
    run=st.integers(0, 3),
    categories=st.sampled_from([None, {"qp", "ü"}]),
)
# Rows the columns must not pack: a time that is not a finite float, a
# bool, an int past int64, an int subclass and a str subclass.
@example(
    records=[
        (float("nan"), "qp", "m", (("a", "b"), (1, "x"))),
        (float("-inf"), "qp", "m", (("a", "b"), (2, "y"))),
        (-0.0, "qp", "m", (("a", "b"), (True, "x"))),
        (1.5, "qp", "m", (("a", "b"), (1 << 63, "x"))),
        (2.5, "qp", "m", (("a", "b"), (_Color.RED, _Mode.FAST))),
        (7, "qp", "m", (("a", "b"), (3, "z"))),
    ],
    run=1,
    categories=None,
)
def test_trace_lines_equal_json_dumps_and_point_equals_emit(records, run, categories):
    by_keyword = Tracer(categories=categories, capacity=3)
    by_position = Tracer(categories=categories, capacity=3)
    engine = Engine()
    engine.tracer = by_keyword
    for time, category, message, (names, values) in records:
        engine._now = time  # ``engine.trace`` stamps the engine's clock
        engine.trace(category, message, **dict(zip(names, values)))
        by_position.point(time, (category, message, *names), *values)
    assert list(by_keyword.rows()) == list(by_position.rows())
    assert list(by_keyword.query()) == list(by_position.query())
    assert (by_keyword.emitted, by_keyword.dropped) == (by_position.emitted, by_position.dropped)

    wanted = [r for r in records if categories is None or r[1] in categories]
    assert by_keyword.emitted == len(wanted)
    assert by_keyword.dropped == max(0, len(wanted) - 3)
    untraced = [types.SimpleNamespace(tracer=None)] * run
    for tracer in (by_keyword, by_position):
        lines = list(trace_lines(untraced + [types.SimpleNamespace(tracer=tracer)]))
        assert lines[1:] == [
            _expected_line(run, time, category, message, dict(zip(names, values)))
            for time, category, message, (names, values) in wanted[-3:]
        ]

    # The packed ring against the deque ring it replaced, row for row and
    # type for type: one-row chunks (capacity 3), and 2-row chunks mixing
    # shapes, dropped into a chunk and with an open chunk (capacity 301).
    for capacity, laps in ((3, 1), (301, 40)):
        ring = Tracer(categories=categories, capacity=capacity)
        reference = DequeTracer(categories=categories, capacity=capacity)
        engine.tracer = ring
        for _ in range(laps):
            for time, category, message, (names, values) in records:
                engine._now = time
                engine.trace(category, message, **dict(zip(names, values)))
                ring.point(time, (category, message, *names), *values)
                reference.record(time, category, message, dict(zip(names, values)))
                reference.point(time, (category, message, *names), *values)
        assert _typed(ring.rows()) == _typed(reference.rows())
        assert (len(ring), ring.emitted, ring.dropped) == (
            len(reference), reference.emitted, reference.dropped
        )
        assert list(trace_lines([types.SimpleNamespace(tracer=ring)]))[1:] == [
            _expected_line(0, time, shape[0], shape[1], dict(zip(shape[2:], values)))
            for time, shape, *values in reference.rows()
        ]
