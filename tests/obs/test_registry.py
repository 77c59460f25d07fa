"""Unit tests for the label-aware metrics registry."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro.obs.registry import (
    CallbackGauge,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)


def test_counter_get_or_create_identity():
    reg = MetricsRegistry()
    a = reg.counter("x.bytes", link="fwd")
    b = reg.counter("x.bytes", link="fwd")
    assert a is b
    a.add(10)
    b.add(5)
    assert a.total == 15
    assert a.count == 2
    assert a.value == 15


def test_labels_partition_families():
    reg = MetricsRegistry()
    reg.counter("x.bytes", link="fwd").add(1)
    reg.counter("x.bytes", link="rev").add(2)
    assert len(reg.family("x.bytes")) == 2
    assert {m.labels["link"]: m.value for m in reg.family("x.bytes")} == {
        "fwd": 1, "rev": 2,
    }
    # Label order in the call never matters.
    assert reg.counter("y", a=1, b=2) is reg.counter("y", b=2, a=1)
    # Equal label sets, in either keyword order, share one interned key.
    z = reg.gauge("z", b=2, a=1)
    assert z.key is reg.counter("y", a=1, b=2).key
    for metric in (z, reg.histogram("h", a=1), reg.gauge_fn("f", lambda: 0)):
        assert not hasattr(metric, "__dict__")
    # ``labels`` is a fresh dict: mutating it cannot rename a series.
    z.labels["a"] = 99
    assert reg.get("z", a=1, b=2) is z and z.labels == {"a": 1, "b": 2}

    # Six series sharing one two-label key (five counters and a
    # histogram) cost at most 2 KiB, averaged over enough keys that one
    # dict resize cannot dominate.
    names = ("source.blocks_completed", "source.block_resends",
             "source.block_repairs", "source.ctrl_retries",
             "source.fallback_blocks")
    sessions = 200
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for session in range(1000, 1000 + sessions):
            for name in names:
                reg.counter(name, link=0, session=session).add()
            reg.histogram(
                "source.block_latency_seconds", link=0, session=session
            ).observe(1e-3)
        per_session = (tracemalloc.get_traced_memory()[0] - before) / sessions
    finally:
        tracemalloc.stop()
    assert per_session <= 2048, per_session


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")
    with pytest.raises(TypeError):
        reg.gauge_fn("x", lambda: 0.0)


def test_counter_matches_monitor_counter_contract():
    metric = MetricsRegistry().counter("n")
    metric.add(100)
    metric.add()
    assert metric.total == 101
    assert metric.count == 2


def test_gauge_set_max_and_add():
    g = MetricsRegistry().gauge("peak")
    g.set_max(5)
    g.set_max(3)
    assert g.value == 5
    g.set_max(7)
    assert g.value == 7


def test_callback_gauge_reads_live_and_survives_errors():
    reg = MetricsRegistry()
    state = {"v": 1}
    g = reg.gauge_fn("depth", lambda: state["v"])
    assert g.value == 1
    state["v"] = 7
    assert g.value == 7
    bad = reg.gauge_fn("boom", lambda: 1 / 0)
    assert math.isnan(bad.value)


def test_histogram_summary_and_empty_nan():
    h = MetricsRegistry().histogram("lat")
    assert math.isnan(h.percentile(50))
    assert h.summary()["count"] == 0
    assert math.isnan(h.summary()["p99"])
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 4
    assert s["mean"] == 2.5
    # The streaming histogram is bucketed: the p50 lies between the
    # bracketing order statistics to within one bucket width.
    assert 2.0 / h.BUCKET_WIDTH <= s["p50"] <= 3.0 * h.BUCKET_WIDTH
    assert s["max"] == 4.0
    # Out-of-range q raises, as obs.stats.exact_percentile does, instead
    # of silently clamping to the max or min.
    for q in (990, -5):
        with pytest.raises(ValueError, match="must be in"):
            h.percentile(q)
    # Sub-nanosecond observations share the floor bucket, whose interior
    # estimate is its 1 ns edge (above this sample's max).
    floor = MetricsRegistry().histogram("floor")
    for v in (0.0, 0.0, 5e-10):
        floor.observe(v)
    assert floor.percentile(50) == pytest.approx(1e-9)


def test_snapshot_shapes():
    reg = MetricsRegistry()
    reg.counter("c", i=0).add(3)
    reg.gauge("g").set_max(2.5)
    reg.histogram("h").observe(1.0)
    reg.gauge_fn("f", lambda: 9)
    recs = {r["metric"]: r for r in reg.snapshot()}
    assert recs["c"] == {
        "metric": "c", "kind": "counter", "labels": {"i": 0},
        "value": 3.0, "count": 1,
    }
    assert recs["g"]["value"] == 2.5
    assert recs["h"]["summary"]["count"] == 1
    assert recs["f"]["kind"] == "gauge" and recs["f"]["value"] == 9.0


def test_remove_prunes_one_label_set():
    reg = MetricsRegistry()
    reg.counter("dup", session=1).add()
    reg.counter("dup", session=2).add()
    assert reg.remove("dup", session=1)
    assert not reg.remove("dup", session=1)
    assert [m.labels["session"] for m in reg.family("dup")] == [2]
    assert len(reg) == 1
    # The interned key lives while any series holds it and goes with
    # the last one.
    reg.gauge("other", session=2)
    assert reg.remove("dup", session=2)
    assert (("session", 2),) in reg._keys
    assert reg.remove("other", session=2)
    assert (("session", 2),) not in reg._keys
    assert (("session", 1),) not in reg._keys


def test_sequence_numbers_instances():
    reg = MetricsRegistry()
    assert [reg.sequence("pool"), reg.sequence("pool"), reg.sequence("link")] == [
        0, 1, 0,
    ]


def test_iter_and_get():
    reg = MetricsRegistry()
    c = reg.counter("a")
    assert reg.family("a") == [c] and len(reg) == 1
    assert reg.get("a") is c
    assert reg.get("a", i=1) is None
    assert isinstance(c, CounterMetric)
    assert isinstance(reg.gauge("b"), GaugeMetric)
    assert isinstance(reg.histogram("c"), HistogramMetric)
    assert isinstance(reg.gauge_fn("d", lambda: 0), CallbackGauge)


# -- sparse buckets vs the dense layout they replaced ------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class _DenseHistogram(HistogramMetric):
    """The 768-slot list layout ``HistogramMetric`` used to carry: the
    reference the sparse dict must reproduce bit for bit."""

    def __init__(self, name="dense", labels=None):
        super().__init__(name, labels or {})
        self._dense = [0] * self._NBUCKETS

    def observe(self, value):
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value <= self._FLOOR:
            index = 0
        else:
            index = int((math.log10(value) - self._MIN_EXP) * self.BUCKETS_PER_DECADE)
            index = min(index, self._NBUCKETS - 1)
        self._dense[index] += 1

    def _order_stat(self, j):
        if j <= 0:
            return self._min
        if j >= self.count - 1:
            return self._max
        cum = 0
        for index, c in enumerate(self._dense):
            if not c:
                continue
            if j < cum + c:
                lo = max(self._bucket_edge(index), self._min)
                hi = min(self._bucket_edge(index + 1), self._max)
                hi = max(hi, lo)
                return lo + (hi - lo) * ((j - cum + 0.5) / c)
            cum += c
        return self._max

    def merge(self, other):
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for index, c in enumerate(other._dense):
            self._dense[index] += c


# Latency-like magnitudes plus both clamped edges: <= 1e-9 lands in the
# underflow bucket (zero included), >= 1e3 in the overflow bucket.
_samples = st.lists(
    st.one_of(
        st.floats(min_value=1e-7, max_value=10.0),
        st.floats(min_value=0.0, max_value=2e-9),
        st.floats(min_value=500.0, max_value=1e6),
    ),
    max_size=200,
)


def _same(sparse: HistogramMetric, dense: _DenseHistogram) -> None:
    assert sparse.count == dense.count
    assert sparse.total == dense.total
    if not sparse.count:
        assert math.isnan(sparse.summary()["max"]) and math.isnan(sparse.percentile(50))
        return
    assert (sparse._min, sparse._max) == (dense._min, dense._max)
    for q in (0, 50, 90, 99, 100):
        assert sparse.percentile(q) == dense.percentile(q)
    assert sparse.summary() == dense.summary()
    assert sum(sparse._counts.values()) == sparse.count
    assert all(0 <= i < HistogramMetric._NBUCKETS for i in sparse._counts)


@settings(max_examples=150, deadline=None)
@given(_samples, _samples)
def test_sparse_histogram_matches_dense_reference(first, second):
    sparse = [HistogramMetric("h", {}), HistogramMetric("h", {})]
    dense = [_DenseHistogram(), _DenseHistogram()]
    for values, s, d in zip((first, second), sparse, dense):
        for v in values:
            s.observe(v)
            d.observe(v)
        _same(s, d)
    merged = HistogramMetric.merged(sparse)
    sparse[0].merge(sparse[1])
    dense[0].merge(dense[1])
    _same(sparse[0], dense[0])
    _same(merged, dense[0])
