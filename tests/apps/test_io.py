"""Data sources and sinks: costs and bookkeeping."""

import enum
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.apps.io import (
    CollectingSink,
    DiskSink,
    NullSink,
    PatternSource,
    ZeroSource,
)
from repro.core.messages import BlockHeader
from repro.faults import FaultPlan, run_chaos
from tests.conftest import make_host
from tests.oracles import ListSink, audit_blocks

#: Crafted logs: a 250-byte dataset in 100-byte blocks for tag "t".
BS, SIZE = 100, 250


class Size(enum.IntEnum):
    FULL = 100


class Tag(str):
    pass


def _hdr(seq, length=BS, sid=1, checksum=0, offset=None):
    return BlockHeader(sid, seq, seq * BS if offset is None else offset, length, checksum)


def _blk(seq, length=BS, **header):
    return _hdr(seq, length, **header), ("t", seq, length)


#: The three blocks of a clean delivery.
_CLEAN = [_blk(0), _blk(1), _blk(2, 50)]
#: name -> (log, overlap_ok).  Every audit problem line, and every row
#: the columns cannot hold.
_LOGS = {
    "clean": (_CLEAN, False),
    "missing seq": (_CLEAN[:2], False),
    "extra seq": (_CLEAN + [_blk(3, 50)], False),
    "short block": ([_blk(0), _blk(1, 60), _blk(2, 50)], False),
    "corrupted payload": ([_blk(0), (_hdr(1), ("x", 1, BS)), _blk(2, 50)], False),
    "payload off its header": (
        [_blk(0), (_hdr(1), ("t", 1, 99)), (_hdr(2, 50), ("t", 0, 50))], False
    ),
    "None payload": ([_blk(0), (_hdr(1), None), _blk(2, 50)], False),
    "non-pattern payloads": (
        [(_hdr(0), ["t", 0, BS]), (_hdr(1), ("t", 1.0, BS)), (_hdr(2, 50), b"t")], False
    ),
    "divergent repeat": (_CLEAN + [_blk(1, checksum=7), _blk(1, checksum=8)], True),
    "identical repeat": (_CLEAN + [_blk(1), _blk(2, 50), _blk(1)], True),
    "identical repeat, no overlap": (_CLEAN + [_blk(1)], False),
    "repeat kept verbatim": (_CLEAN + [(_hdr(1), (Tag("t"), 1, BS))], True),
    "foreign session": (_CLEAN + [_blk(0, sid=2), _blk(1, sid=3), _blk(1, sid=2)], False),
    "non-BlockHeader header": (
        [_blk(0), (SimpleNamespace(session_id=1, seq=1, offset=BS, length=BS, checksum=0),
                   ("t", 1, BS)), _blk(2, 50), _blk(1)],
        True,
    ),
    "bool fields": ([(BlockHeader(True, 0, 0, BS), ("t", 0, BS)),
                     (BlockHeader(1, True, BS, BS), ("t", True, BS))], False),
    "IntEnum length": (
        [_blk(0), (_hdr(1, Size.FULL), ("t", 1, BS)), _blk(2, 50), (_hdr(1, Size.FULL), ("t", 1, BS))],
        True,
    ),
    "offset past int64": ([_blk(0), _blk(1, offset=2**63), _blk(2, 50), _blk(1)], True),
    "seq past int64": ([_blk(0), (SimpleNamespace(session_id=1, seq=2**64, length=BS),
                                  ("t", 2**64, BS))], False),
}


def _collect(engine, host, log, *sinks):
    """Write ``log`` into every sink in one process."""
    def writer():
        for header, payload in log:
            for sink in sinks:
                yield from sink.write(thread, 1, header, payload)

    thread = host.thread("w")
    _run(engine, writer())


def _typed(values):
    return [(type(v), repr(v)) for v in values]


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


def test_pattern_source_payload_identifies_block(engine, monkeypatch):
    host = make_host(engine)
    src = PatternSource(host, tag="t")
    payload = _run(engine, src.read(host.thread("l"), 4096, 7))
    assert payload == ("t", 7, 4096)
    # The audit names every way a delivery differs from the pattern: the
    # packed log line for line as the list log, with the same overlap.
    lines, audits = set(), {}
    for name, (log, overlap_ok) in _LOGS.items():
        sink, reference = CollectingSink(host), ListSink(host)
        _collect(engine, host, log, sink, reference)
        sessions, expected = sink.session_rows(), reference.by_session()
        assert _typed(sessions) == _typed(expected), name
        for ok in (overlap_ok, not overlap_ok):
            got = sink.audit_blocks(name, sessions[1], SIZE, BS, "t", ok)
            want = audit_blocks(name, expected[1], SIZE, BS, "t", ok)
            assert got == want and _typed(got[1:]) == _typed(want[1:]), name
            lines.update(got[0])
        audits[name] = sink.audit_blocks(name, sessions[1], SIZE, BS, "t", overlap_ok)
    assert audits["clean"] == ([], 0)
    assert audits["identical repeat"] == ([], 2 * BS + 50)
    assert audits["repeat kept verbatim"] == audits["IntEnum length"] == ([], BS)
    assert {
        "missing seq: delivered seqs [0, 1] != 0..2",
        "extra seq: delivered seqs [0, 1, 2, 3] != 0..2",
        "bool fields: delivered seqs [0, True] != 0..2",
        "seq past int64: delivered seqs [0, 18446744073709551616] != 0..2",
        "short block: seq 1 length 60 != 100",
        "short block: seq 1 payload corrupted (('t', 1, 60))",
        "corrupted payload: seq 1 payload corrupted (('x', 1, 100))",
        "None payload: seq 1 payload corrupted (None)",
        "non-pattern payloads: seq 2 payload corrupted (b't')",
        "payload off its header: seq 2 payload corrupted (('t', 0, 50))",
        "divergent repeat: seq 1 re-delivered with divergent content",
        "identical repeat, no overlap: seq 1 delivered twice where no overlap is allowed",
        "offset past int64: seq 1 re-delivered with divergent content",
    } <= lines

    # run_chaos audits through the same sink and names each session a
    # block arrived under besides its own, in order of first arrival.
    class StraySink(CollectingSink):
        def write(self, thread, nbytes, header=None, payload=None):
            if not self.bytes_written:
                for sid in (9, 8, 9):
                    yield from super().write(thread, 0, _hdr(0, sid=sid), None)
            yield from super().write(thread, nbytes, header, payload)

    monkeypatch.setattr("repro.faults.chaos.CollectingSink", StraySink)
    r = run_chaos("roce-lan", total_bytes=4 << 20, plan=FaultPlan())
    assert r.completed and r.byte_exact is False
    assert r.leaks == (
        "blocks delivered under foreign session 9",
        "blocks delivered under foreign session 8",
    )


def test_null_sink_per_op_cost_only(engine):
    host = make_host(engine)
    sink = NullSink(host)
    thread = host.thread("writer")
    _run(engine, sink.write(thread, 1 << 20))
    assert host.cpu.busy_seconds() == pytest.approx(host.spec.syscall_seconds)
    assert sink.bytes_written == 1 << 20


def test_collecting_sink_records(engine):
    host = make_host(engine)
    # Every row comes back equal, type for type, in arrival order: the
    # packed ones and those kept verbatim (the odd headers and payloads,
    # a header-less write, more tags than the table holds).
    log = [row for rows, _ in _LOGS.values() for row in rows]
    log += [("hdr", "payload"), (None, None), (_hdr(0, checksum=2**32 - 1), None)]
    log += [(_hdr(0, sid=5), (f"tag{i}", 0, BS)) for i in range(300)]
    sink, reference = CollectingSink(host), ListSink(host)
    _collect(engine, host, log, sink, reference)
    assert list(map(_typed, sink.rows())) == list(map(_typed, reference.deliveries))
    assert sink.bytes_written == reference.bytes_written == len(log)

    # A packed row holds 5 x 8 + 1 bytes (under 64 with the arrays'
    # headroom); the audit holds no Python object per block, only its
    # session's row numbers and three per-seq arrays (4 x 8 bytes).
    blocks = 10_000
    sink = CollectingSink(host)

    def writer(thread):
        for seq in range(blocks):
            yield from sink.write(thread, BS, _hdr(seq, checksum=seq), ("t", seq, BS))

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _run(engine, writer(host.thread("w")))
        per_row = (tracemalloc.get_traced_memory()[0] - before) / blocks
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        audit = sink.audit_blocks("big", sink.session_rows()[1], blocks * BS, BS, "t", False)
        per_block = (tracemalloc.get_traced_memory()[1] - before) / blocks
    finally:
        tracemalloc.stop()
    assert audit == ([], 0)
    assert per_row <= 64, per_row
    assert per_block <= 40, per_block


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
