"""Edge cases across subsystems that the main suites don't reach."""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.testbeds import ani_wan, roce_lan
from repro.sim import SimulationError
from tests.conftest import data_channels, make_fabric


def test_data_channels_require_qps():
    with pytest.raises(ValueError):
        data_channels([])


def test_data_channels_pick_least_loaded():
    f = make_fabric()
    qa1, _ = f.qp_pair()
    qa2, _ = f.qp_pair()
    channels = data_channels([qa1, qa2])
    # Simulate load imbalance.
    qa1._outstanding_sends = 5
    qa2._outstanding_sends = 1
    assert channels._pick() is qa2
    qa2._outstanding_sends = 9
    assert channels._pick() is qa1
    qa1._outstanding_sends = 0
    qa2._outstanding_sends = 0


def test_server_rejects_unknown_endpoint_kind():
    tb = roce_lan()
    cfg = ProtocolConfig()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, CollectingSink(tb.dst))
    qp = tb.src_dev.create_qp(
        tb.src_dev.alloc_pd(), tb.src_dev.create_cq(), tb.src_dev.create_cq()
    )
    tb.cm.connect(qp, tb.dst_dev, 4000, ("mystery",))
    # Only this package's own clients connect, so an unknown kind is a
    # bug, and it fails the run instead of being answered.
    with pytest.raises(SimulationError) as err:
        tb.engine.run()
    assert "unknown endpoint kind" in str(err.value.__cause__)


def test_transfer_rejects_nonpositive_bytes():
    tb = roce_lan()
    cfg = ProtocolConfig()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        with pytest.raises(ValueError):
            link.transfer(PatternSource(tb.src), 0, session_id=1)
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value


def test_block_latencies_recorded():
    tb = ani_wan()
    cfg = ProtocolConfig(
        block_size=4 << 20, num_channels=2, source_blocks=48, sink_blocks=48
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    captured = {}

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        captured["job"] = yield link.transfer(PatternSource(tb.src), 512 << 20, session_id=31)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    job = captured["job"]
    (latency,) = tb.engine.metrics.family("source.block_latency_seconds")
    # Every WRITE completion waits at least the RC ACK round trip.
    assert latency.count == job.total_blocks and latency.percentile(0) >= tb.rtt
    assert job.link.audit() == []  # fully drained


def test_one_block_dataset():
    tb = roce_lan()
    cfg = ProtocolConfig(
        block_size=1 << 20, num_channels=1, source_blocks=2, sink_blocks=2
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 777)
    tb.engine.run()
    assert done.ok
    assert done.value.blocks == 1
    assert next(sink.rows())[0].length == 777


def test_tiny_pool_still_completes():
    """A two-block pool serialises hard but must never deadlock."""
    tb = roce_lan()
    cfg = ProtocolConfig(
        block_size=1 << 20,
        num_channels=2,
        source_blocks=2,
        sink_blocks=2,
        initial_credits=1,
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 32 << 20)
    tb.engine.run()
    assert done.ok
    assert sink.bytes_written == 32 << 20


def test_engine_isolated_between_testbeds():
    """Each testbed owns its engine; time does not leak across."""
    tb1 = roce_lan()
    tb2 = roce_lan()
    assert tb1.engine is not tb2.engine

    def tick(env):
        yield env.timeout(5.0)

    tb1.engine.process(tick(tb1.engine))
    tb1.engine.run()
    assert tb1.engine.now == 5.0
    assert tb2.engine.now == 0.0
