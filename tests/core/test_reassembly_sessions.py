"""Per-session reassembly bookkeeping: parked indexes, duplicate
attribution, payload-conflict detection, and session reclamation."""

from repro.core.messages import BlockHeader
from repro.core.reassembly import ReassemblyBuffer


def hdr(sid, seq, length=64):
    return BlockHeader(sid, seq, seq * length, length)


def dups(buf):
    """session id -> duplicates dropped for it, off the registry family."""
    return {
        m.labels["session"]: int(m.total)
        for m in buf.metrics.family("reassembly.session_duplicates")
    }


def test_parked_index_is_per_session():
    buf = ReassemblyBuffer()
    buf.push(hdr(1, 1), "s1b1")
    buf.push(hdr(2, 2), "s2b2")
    buf.push(hdr(2, 3), "s2b3")
    assert buf.pending(1) == 1
    assert buf.pending(2) == 2
    assert buf.pending(3) == 0
    assert sorted(buf.sessions_with_parked()) == [1, 2]
    # Releasing session 1 leaves session 2's parked entries untouched.
    released = buf.push(hdr(1, 0), "s1b0")
    assert [h.seq for h, _ in released] == [0, 1]
    assert buf.pending(1) == 0
    assert buf.pending(2) == 2
    assert buf.sessions_with_parked() == [2]


def test_duplicates_attributed_to_their_session():
    buf = ReassemblyBuffer()
    buf.push(hdr(1, 0), "a")
    buf.push(hdr(1, 0), "a")  # stale: already delivered
    buf.push(hdr(2, 5), "b")
    buf.push(hdr(2, 5), "b")  # replay of a parked entry
    buf.push(hdr(2, 5), "b")
    assert buf.duplicates.total == 3
    assert dups(buf) == {1: 1, 2: 2}


def test_payload_conflict_detected_while_parked():
    buf = ReassemblyBuffer()
    buf.push(hdr(1, 5), "original")
    released = buf.push(hdr(1, 5), "DIVERGENT")
    assert released == []
    assert buf.payload_conflicts.total == 1
    assert buf.duplicates.total == 1
    # First writer wins: the original payload is still the parked one.
    buf.push(hdr(1, 0), "p0")
    buf.push(hdr(1, 1), "p1")
    buf.push(hdr(1, 2), "p2")
    buf.push(hdr(1, 3), "p3")
    released = buf.push(hdr(1, 4), "p4")
    assert released[-1][1] == "original"


def test_conflict_undetectable_after_delivery_counts_duplicate_only():
    buf = ReassemblyBuffer()
    buf.push(hdr(1, 0), "delivered")
    buf.push(hdr(1, 0), "DIVERGENT")  # original payload is gone
    assert buf.duplicates.total == 1
    assert buf.payload_conflicts.total == 0


def test_reclaim_session_returns_stranded_entries_sorted():
    buf = ReassemblyBuffer()
    buf.push(hdr(1, 7), "b7")
    buf.push(hdr(1, 3), "b3")
    buf.push(hdr(1, 5), "b5")
    buf.push(hdr(2, 9), "other")
    stranded = buf.reclaim_session(1)
    assert [h.seq for h, _ in stranded] == [3, 5, 7]
    assert buf.pending(1) == 0
    assert buf.sessions_with_parked() == [2]
    # The sequence cursor is gone too: a reused session id starts fresh.
    assert buf.next_seq(1) == 0


def test_reclaim_session_prunes_all_per_session_state():
    """Reclaiming must drop the duplicate counter and sequence cursor
    too, or a server GC-ing thousands of sessions leaks dict entries
    forever (and a reused session id inherits a stale cursor)."""
    buf = ReassemblyBuffer()
    buf.push(hdr(1, 0), "a")
    buf.push(hdr(1, 0), "a")  # one duplicate attributed to session 1
    buf.push(hdr(1, 2), "c")
    buf.push(hdr(2, 0), "other")
    assert dups(buf) == {1: 1}
    buf.reclaim_session(1)
    assert 1 not in dups(buf)
    assert buf.next_seq(1) == 0
    assert buf.sessions() == [2]
    # The aggregate counter keeps history; only per-session state goes.
    assert buf.duplicates.total == 1


def test_finish_session_counts_discards():
    buf = ReassemblyBuffer()
    buf.push(hdr(4, 2), "x")
    buf.push(hdr(4, 3), "y")
    assert len(buf.reclaim_session(4)) == 2
    assert len(buf.reclaim_session(4)) == 0


def test_resume_cursor_reset_discards_stale_and_counts_replays():
    # SESSION_RESUME interplay: after set_next_seq() jumps the cursor
    # forward, replayed below-cursor blocks are duplicates — counted and
    # attributed — and must not recreate parked state.
    buf = ReassemblyBuffer()
    buf.push(hdr(7, 0), "b0")
    buf.push(hdr(7, 1), "b1")
    buf.push(hdr(7, 5), "early")          # parked out-of-order
    buf.set_next_seq(7, 4)                # resume from restart marker 4
    assert buf.pending(7) == 1            # seq 5 survives (>= cursor)
    assert buf.next_seq(7) == 4
    # The dead incarnation replays blocks 0-3.
    for seq in range(4):
        assert buf.reject_duplicate(hdr(7, seq), f"replay{seq}")
    assert buf.duplicates.total == 4
    assert dups(buf) == {7: 4}
    assert buf.pending(7) == 1            # no parked state resurrected
    # push() agrees with reject_duplicate() on below-cursor replays.
    assert buf.push(hdr(7, 2), "replay2") == []
    assert dups(buf) == {7: 5}
    assert buf.pending(7) == 1


def test_cursor_reset_prunes_below_cursor_parked_entries():
    buf = ReassemblyBuffer()
    buf.push(hdr(3, 2), "stale2")
    buf.push(hdr(3, 3), "stale3")
    buf.push(hdr(3, 8), "keep8")
    buf.set_next_seq(3, 6)
    assert buf.pending(3) == 1
    released = buf.push(hdr(3, 6), "b6")
    assert [p for _, p in released] == ["b6"]
    assert buf.next_seq(3) == 7


def test_replay_against_reclaimed_session_leaves_no_state():
    # A pruned session must not be resurrected by late replays: the
    # duplicate is counted (aggregate + per-session) but no parked dict
    # or cursor entry may reappear, or sink GC leaks bounded-state.
    buf = ReassemblyBuffer()
    buf.push(hdr(9, 0), "b0")
    buf.push(hdr(9, 2), "stranded")
    buf.reclaim_session(9)
    assert buf.sessions() == []
    assert dups(buf) == {}
    buf.set_next_seq(9, 3)                # resume re-attaches the session
    assert buf.push(hdr(9, 1), "latereplay") == []
    assert dups(buf) == {9: 1}
    assert buf.sessions_with_parked() == []
    assert buf.sessions() == [9]
    # Reclaim again: the per-session duplicate attribution is pruned but
    # the aggregate chaos-audit counter survives.
    buf.reclaim_session(9)
    assert dups(buf) == {}
    assert buf.duplicates.total == 1
