"""Protocol configuration validation."""

import pytest

from repro.core import ProtocolConfig


def test_defaults_valid():
    cfg = ProtocolConfig()
    assert cfg.block_size == 4 * 1024 * 1024
    assert cfg.proactive_credits
    assert cfg.credit_grant_ratio == 2
    # Each remaining bound, with the message that names it.
    for kwargs, message in [
        (dict(gc_interval=0), "GC timings must be positive"),
        (dict(marker_interval_blocks=0), "marker_interval_blocks must be >= 1"),
        (dict(heartbeat_interval_min=0), "heartbeat_interval_min must be positive"),
        (dict(breaker_cooldown_min=0), "breaker_cooldown_min must be positive"),
        (dict(idle_rto_multiplier=0), "idle_rto_multiplier must be positive"),
        (dict(srq_depth=0), "srq_depth must be >= 1"),
        (dict(qp_pool_size=0), "qp_pool_size must be >= 1"),
        (dict(pool_sessions=0), "pool_sessions must be >= 1"),
        (dict(eager_threshold=-1), "eager_threshold must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(block_size=1024),
        dict(num_channels=0),
        dict(source_blocks=1),
        dict(sink_blocks=1),
        dict(credit_grant_ratio=0),
        dict(initial_credits=0),
        dict(initial_credits=33, sink_blocks=32),
        dict(reader_threads=0),
        dict(writer_threads=0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(**kwargs)


def test_frozen():
    cfg = ProtocolConfig()
    with pytest.raises(Exception):
        cfg.block_size = 1
