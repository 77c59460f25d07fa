"""Wire formats and out-of-order reassembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credits import Credit
from repro.core.messages import (
    CTRL_MSG_BYTES,
    HEADER_BYTES,
    PROTOCOL,
    BlockHeader,
    ControlMessage,
    CtrlType,
    DataBlockWire,
)
from repro.core.reassembly import ReassemblyBuffer
from repro.core.sink_engine import SinkSession
from repro.verbs.wr import Opcode, RecvWR, SendWR, WcStatus, WorkCompletion
from tests.oracles import arrive


def hdr(seq, sid=1, length=4096):
    return BlockHeader(session_id=sid, seq=seq, offset=seq * length, length=length)


# -- messages ---------------------------------------------------------------------
def test_control_message_wire_size():
    msg = ControlMessage(CtrlType.BLOCK_DONE, 1, (0, None))
    assert msg.wire_bytes == CTRL_MSG_BYTES
    # The records built for every WQE or block carry no __dict__.
    for record in (
        msg, hdr(0), DataBlockWire(hdr(0)), PROTOCOL[CtrlType.PING], Credit(0, 0, 0),
        SendWR(Opcode.SEND, 8), RecvWR(8), WorkCompletion(0, Opcode.RECV, WcStatus.SUCCESS),
    ):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_header_wire_size_includes_payload():
    h = hdr(0, length=1 << 20)
    assert h.wire_bytes == HEADER_BYTES + (1 << 20)


def test_header_field_ranges():
    BlockHeader(session_id=2**32 - 1, seq=2**32 - 1, offset=2**64 - 1, length=2**32 - 1)
    with pytest.raises(ValueError):
        BlockHeader(session_id=2**32, seq=0, offset=0, length=0)
    with pytest.raises(ValueError):
        BlockHeader(session_id=0, seq=2**32, offset=0, length=0)
    with pytest.raises(ValueError):
        BlockHeader(session_id=0, seq=0, offset=2**64, length=0)
    with pytest.raises(ValueError):
        BlockHeader(session_id=0, seq=0, offset=0, length=-1)
    with pytest.raises(ValueError, match="checksum must fit in 32 bits"):
        BlockHeader(session_id=0, seq=0, offset=0, length=0, checksum=2**32)


def test_header_key():
    h = hdr(5, sid=3)
    assert (h.session_id, h.seq, h.offset) == (3, 5, 5 * 4096)
    assert h.wire_bytes == HEADER_BYTES + 4096


# -- reassembly -----------------------------------------------------------------------
def test_in_order_stream_passes_through():
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    for seq in range(5):
        out = arrive(r, s, hdr(seq), f"p{seq}")
        assert [h.seq for h, _ in out] == [seq]


def test_out_of_order_held_and_released():
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    assert arrive(r, s, hdr(2), "c") == []
    assert arrive(r, s, hdr(1), "b") == []
    out = arrive(r, s, hdr(0), "a")
    assert [(h.seq, p) for h, p in out] == [(0, "a"), (1, "b"), (2, "c")]
    assert len(s.parked) == 0 and r.parked == 0


def test_sessions_are_independent():
    r, s7, s8 = ReassemblyBuffer(), SinkSession(7, 1), SinkSession(8, 1)
    arrive(r, s7, hdr(1, sid=7), "x")
    out = arrive(r, s8, hdr(0, sid=8), "y")
    assert [(h.session_id, h.seq) for h, _ in out] == [(8, 0)]
    assert len(s7.parked) == 1


def test_duplicates_dropped_and_counted():
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    arrive(r, s, hdr(0), "a")
    assert arrive(r, s, hdr(0), "a-again") == []
    assert r.duplicates.total == 1
    arrive(r, s, hdr(2), "c")
    assert arrive(r, s, hdr(2), "c-again") == []
    assert r.duplicates.total == 2


def test_finish_session_discards_stranded():
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    arrive(r, s, hdr(3), "x")
    arrive(r, s, hdr(5), "y")
    assert len(r.take(s)) == 2
    assert len(s.parked) == 0 and r.parked == 0
    assert s.next_seq is None and r.held == 0  # state reset


def test_max_parked_tracks_high_water():
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    for seq in (4, 3, 2, 1):
        arrive(r, s, hdr(seq), None)
    assert r.max_parked.value == 4


@settings(max_examples=100, deadline=None)
@given(perm=st.permutations(list(range(12))))
def test_any_permutation_delivers_in_order(perm):
    """The sink's core guarantee: whatever the arrival order, the
    application sees sequence numbers 0..n-1 exactly once, sorted."""
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    delivered = []
    for seq in perm:
        delivered.extend(h.seq for h, _ in arrive(r, s, hdr(seq), None))
    assert delivered == sorted(perm)


@settings(max_examples=50, deadline=None)
@given(
    arrivals=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=60)
)
def test_duplicates_never_delivered_twice(arrivals):
    r, s = ReassemblyBuffer(), SinkSession(1, 1)
    delivered = []
    for seq in arrivals:
        delivered.extend(h.seq for h, _ in arrive(r, s, hdr(seq), None))
    assert len(delivered) == len(set(delivered))
    assert delivered == sorted(delivered)
