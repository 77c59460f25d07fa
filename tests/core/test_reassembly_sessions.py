"""Per-session reassembly bookkeeping: parked indexes, duplicate
attribution, payload-conflict detection, and session reclamation.

The per-session state lives on the session's record (``next_seq``,
``parked``); the buffer runs the algorithm on whichever record it is
handed and keeps the link-level counts."""

from repro.core.messages import BlockHeader
from repro.core.reassembly import ReassemblyBuffer
from repro.core.sink_engine import SinkSession
from tests.oracles import arrive


def hdr(sid, seq, length=64):
    return BlockHeader(sid, seq, seq * length, length)


def records(*sids):
    return [SinkSession(sid, 1) for sid in sids]


def dups(buf):
    """session id -> duplicates dropped for it, off the registry family."""
    return {
        m.labels["session"]: int(m.total)
        for m in buf.metrics.family("reassembly.session_duplicates")
    }


def with_parked(*recs):
    """Session ids of the records holding parked entries."""
    return [s.sid for s in recs if s.parked]


def with_state(*recs):
    """Session ids of the records holding any reassembly state."""
    return [s.sid for s in recs if s.next_seq is not None]


def test_parked_index_is_per_session():
    buf = ReassemblyBuffer()
    s1, s2, s3 = records(1, 2, 3)
    arrive(buf, s1, hdr(1, 1), "s1b1")
    arrive(buf, s2, hdr(2, 2), "s2b2")
    arrive(buf, s2, hdr(2, 3), "s2b3")
    assert len(s1.parked) == 1
    assert len(s2.parked) == 2
    assert len(s3.parked) == 0
    assert with_parked(s1, s2, s3) == [1, 2]
    assert buf.parked == 3
    # Releasing session 1 leaves session 2's parked entries untouched.
    released = arrive(buf, s1, hdr(1, 0), "s1b0")
    assert [h.seq for h, _ in released] == [0, 1]
    assert len(s1.parked) == 0
    assert len(s2.parked) == 2
    assert with_parked(s1, s2, s3) == [2]
    assert buf.parked == 2


def test_duplicates_attributed_to_their_session():
    buf = ReassemblyBuffer()
    s1, s2 = records(1, 2)
    arrive(buf, s1, hdr(1, 0), "a")
    arrive(buf, s1, hdr(1, 0), "a")  # stale: already delivered
    arrive(buf, s2, hdr(2, 5), "b")
    arrive(buf, s2, hdr(2, 5), "b")  # replay of a parked entry
    arrive(buf, s2, hdr(2, 5), "b")
    assert buf.duplicates.total == 3
    assert dups(buf) == {1: 1, 2: 2}


def test_payload_conflict_detected_while_parked():
    buf = ReassemblyBuffer()
    (s,) = records(1)
    arrive(buf, s, hdr(1, 5), "original")
    released = arrive(buf, s, hdr(1, 5), "DIVERGENT")
    assert released == []
    assert buf.payload_conflicts.total == 1
    assert buf.duplicates.total == 1
    # First writer wins: the original payload is still the parked one.
    arrive(buf, s, hdr(1, 0), "p0")
    arrive(buf, s, hdr(1, 1), "p1")
    arrive(buf, s, hdr(1, 2), "p2")
    arrive(buf, s, hdr(1, 3), "p3")
    released = arrive(buf, s, hdr(1, 4), "p4")
    assert released[-1][1] == "original"


def test_conflict_undetectable_after_delivery_counts_duplicate_only():
    buf = ReassemblyBuffer()
    (s,) = records(1)
    arrive(buf, s, hdr(1, 0), "delivered")
    arrive(buf, s, hdr(1, 0), "DIVERGENT")  # original payload is gone
    assert buf.duplicates.total == 1
    assert buf.payload_conflicts.total == 0


def test_reclaim_session_returns_stranded_entries_sorted():
    buf = ReassemblyBuffer()
    s1, s2 = records(1, 2)
    arrive(buf, s1, hdr(1, 7), "b7")
    arrive(buf, s1, hdr(1, 3), "b3")
    arrive(buf, s1, hdr(1, 5), "b5")
    arrive(buf, s2, hdr(2, 9), "other")
    stranded = buf.take(s1)
    assert [h.seq for h, _ in stranded] == [3, 5, 7]
    assert len(s1.parked) == 0
    assert with_parked(s1, s2) == [2]
    assert buf.parked == 1
    # The sequence cursor is gone too: a reused session id starts fresh.
    assert s1.next_seq is None


def test_reclaim_session_prunes_all_per_session_state():
    """Reclaiming must drop the duplicate counter and sequence cursor
    too, or a server GC-ing thousands of sessions leaks registry series
    forever (and a reused session id inherits a stale cursor)."""
    buf = ReassemblyBuffer()
    s1, s2 = records(1, 2)
    arrive(buf, s1, hdr(1, 0), "a")
    arrive(buf, s1, hdr(1, 0), "a")  # one duplicate attributed to session 1
    arrive(buf, s1, hdr(1, 2), "c")
    arrive(buf, s2, hdr(2, 0), "other")
    assert dups(buf) == {1: 1}
    buf.take(s1)
    assert 1 not in dups(buf)
    assert s1.next_seq is None
    assert with_state(s1, s2) == [2]
    assert buf.held == 1
    # The aggregate counter keeps history; only per-session state goes.
    assert buf.duplicates.total == 1


def test_finish_session_counts_discards():
    buf = ReassemblyBuffer()
    (s,) = records(4)
    arrive(buf, s, hdr(4, 2), "x")
    arrive(buf, s, hdr(4, 3), "y")
    assert len(buf.take(s)) == 2
    assert len(buf.take(s)) == 0


def test_resume_cursor_reset_discards_stale_and_counts_replays():
    # SESSION_RESUME interplay: after set_next_seq() jumps the cursor
    # forward, replayed below-cursor blocks are duplicates — counted and
    # attributed — and must not recreate parked state.
    buf = ReassemblyBuffer()
    (s,) = records(7)
    arrive(buf, s, hdr(7, 0), "b0")
    arrive(buf, s, hdr(7, 1), "b1")
    arrive(buf, s, hdr(7, 5), "early")       # parked out-of-order
    buf.set_next_seq(s, 4)                # resume from restart marker 4
    assert len(s.parked) == 1             # seq 5 survives (>= cursor)
    assert s.next_seq == 4
    # The dead incarnation replays blocks 0-3.
    for seq in range(4):
        assert buf.reject_duplicate(s, hdr(7, seq), f"replay{seq}")
    assert buf.duplicates.total == 4
    assert dups(buf) == {7: 4}
    assert len(s.parked) == 1             # no parked state resurrected


def test_cursor_reset_prunes_below_cursor_parked_entries():
    buf = ReassemblyBuffer()
    (s,) = records(3)
    arrive(buf, s, hdr(3, 2), "stale2")
    arrive(buf, s, hdr(3, 3), "stale3")
    arrive(buf, s, hdr(3, 8), "keep8")
    buf.set_next_seq(s, 6)
    assert len(s.parked) == 1
    assert buf.parked == 1
    released = arrive(buf, s, hdr(3, 6), "b6")
    assert [p for _, p in released] == ["b6"]
    assert s.next_seq == 7


def test_replay_against_reclaimed_session_leaves_no_state():
    # A pruned session must not be resurrected by late replays: the
    # duplicate is counted (aggregate + per-session) but no parked entry
    # may reappear, or sink GC leaks bounded state.
    buf = ReassemblyBuffer()
    (s,) = records(9)
    arrive(buf, s, hdr(9, 0), "b0")
    arrive(buf, s, hdr(9, 2), "stranded")
    buf.take(s)
    assert with_state(s) == [] and buf.held == 0
    assert dups(buf) == {}
    buf.set_next_seq(s, 3)                # resume re-attaches the session
    assert arrive(buf, s, hdr(9, 1), "latereplay") == []
    assert dups(buf) == {9: 1}
    assert with_parked(s) == []
    assert with_state(s) == [9] and buf.held == 1
    # Reclaim again: the per-session duplicate attribution is pruned but
    # the aggregate chaos-audit counter survives.
    buf.take(s)
    assert dups(buf) == {}
    assert buf.duplicates.total == 1
