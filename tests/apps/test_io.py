"""Data sources and sinks: costs and bookkeeping."""

import pytest

from repro.apps.io import (
    CollectingSink,
    DiskSink,
    NullSink,
    PatternSource,
    ZeroSource,
)
from tests.conftest import make_host


def _run(engine, gen):
    p = engine.process(gen)
    engine.run()
    assert p.ok
    return p.value


def test_zero_source_charges_memset(engine):
    host = make_host(engine)
    src = ZeroSource(host)
    thread = host.thread("loader")
    _run(engine, src.read(thread, 1 << 20, 0))
    expected = (
        host.spec.syscall_seconds + (1 << 20) * host.spec.memset_ns_per_byte * 1e-9
    )
    assert host.cpu.busy_seconds() == pytest.approx(expected)
    assert src.bytes_read == 1 << 20


def test_pattern_source_payload_identifies_block(engine):
    host = make_host(engine)
    src = PatternSource(host, tag="t")
    payload = _run(engine, src.read(host.thread("l"), 4096, 7))
    assert payload == ("t", 7, 4096)


def test_null_sink_per_op_cost_only(engine):
    host = make_host(engine)
    sink = NullSink(host)
    thread = host.thread("writer")
    _run(engine, sink.write(thread, 1 << 20))
    assert host.cpu.busy_seconds() == pytest.approx(host.spec.syscall_seconds)
    assert sink.bytes_written == 1 << 20


def test_collecting_sink_records(engine):
    host = make_host(engine)
    sink = CollectingSink(host)
    _run(engine, sink.write(host.thread("w"), 10, "hdr", "payload"))
    assert sink.deliveries == [("hdr", "payload")]


def test_disk_source_sink_roundtrip(engine):
    host = make_host(engine)
    host.add_disk()
    sink = DiskSink(host, direct=True)
    _run(engine, sink.write(host.thread("w"), 8192))
    assert sink.bytes_written == host.disk.bytes_written == 8192


def test_disk_requires_disk(engine):
    host = make_host(engine)
    with pytest.raises(RuntimeError):
        DiskSink(host)


def test_posix_sink_costs_more_cpu_than_direct(engine):
    host = make_host(engine)
    host.add_disk()
    direct = DiskSink(host, direct=True)
    _run(engine, direct.write(host.thread("w1"), 64 << 20))
    direct_cpu = host.cpu.busy_seconds()
    host.cpu.reset_accounting()
    posix = DiskSink(host, direct=False)
    _run(engine, posix.write(host.thread("w2"), 64 << 20))
    posix_cpu = host.cpu.busy_seconds()
    assert posix_cpu > direct_cpu * 5
