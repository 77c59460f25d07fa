"""A data-plane post on a full send queue waits for a slot to retire.

``DataChannels`` parks the post on ``qp.send_slot_retired()``: it resumes
at the very instant the oldest WR retires and arms no timer while it
waits.  A QP that enters ERROR under a waiting post wakes the poster at
that instant — even when its head SEND is stuck in RNR retry and would
never retire — and the poster fails over to a live channel, or raises
:class:`NoLiveChannelError` when none is left.  Several posters woken by
one retire race for the slot; the losers wait again.  Both the RDMA
WRITE and the eager SEND form go through the same loop.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.channels import DataChannels, NoLiveChannelError
from repro.verbs.wr import RecvWR, WcStatus
from tests.conftest import data_channels, make_fabric

BLOCK = 64 * 1024
FORMS = ["write", "send"]
SURVIVOR = pytest.mark.parametrize(
    "survivor", [True, False], ids=["failover", "no_live"]
)


class _Rig:
    """One fabric, recording poster threads, and QP pairs whose send
    queues hold ``max_send_wr`` WRs; the peer side has a landing MR for
    every block either form posts and, unless ``recvs=0``, receives."""

    def __init__(self, max_send_wr: int = 2) -> None:
        self.f = make_fabric()
        self.engine = self.f.engine
        self.max_send_wr = max_send_wr
        _, self.buf, self.mr = self.f.remote_mr(8 * BLOCK)
        self.thread, self.exec_at = self.poster("poster")

    def poster(self, name: str):
        """A thread on host a and the list of instants it starts a post."""
        thread = self.f.a.thread(name)
        exec_at = []
        exec_ = thread.exec

        def recording(seconds):
            exec_at.append(self.engine.now)
            return exec_(seconds)

        thread.exec = recording
        return thread, exec_at

    def qp(self, recvs: int = 8):
        qa, qb = self.f.qp_pair(max_send_wr=self.max_send_wr)
        for i in range(recvs):
            qb.post_recv(RecvWR(length=BLOCK, wr_id=i))
        return qa

    def post(self, channels: DataChannels, form: str, seq: int, thread=None):
        thread = self.thread if thread is None else thread
        block = SimpleNamespace(payload=f"block-{seq}")
        header = SimpleNamespace(seq=seq, wire_bytes=BLOCK)
        if form == "send":
            return channels.post_send_block(thread, block, header, seq)
        credit = SimpleNamespace(
            addr=self.buf.addr + seq * BLOCK, rkey=self.mr.rkey, block_id=seq
        )
        return channels.post_write(thread, block, credit, header)


def _retire_times(qp, engine):
    """Record the instant of every send-queue slot retire on ``qp``."""
    seen = []
    retire = qp._retire

    def recording(ssn, wc, signaled):
        before = qp.send_outstanding
        retire(ssn, wc, signaled)
        seen.extend([engine.now] * (before - qp.send_outstanding))

    qp._retire = recording
    return seen


@pytest.mark.parametrize("form", FORMS)
def test_full_queue_post_resumes_at_the_retire_with_no_timer(form, monkeypatch):
    rig = _Rig(max_send_wr=2)
    qp = rig.qp()
    channels = data_channels([qp])
    retired = _retire_times(qp, rig.engine)
    timers = []
    timeout = rig.engine.timeout

    def counting(delay, value=None):
        timers.append((rig.engine.now, delay))
        return timeout(delay, value)

    monkeypatch.setattr(rig.engine, "timeout", counting)

    def poster():
        for seq in range(3):
            yield from rig.post(channels, form, seq)

    rig.engine.process(poster())
    rig.engine.run()

    cost = channels.profile.post_send_seconds
    assert len(rig.exec_at) == 3
    # The third post found both slots taken and really waited ...
    assert rig.exec_at[2] > rig.exec_at[1] + cost
    # ... and resumed on the first retire, to the float, with no timer.
    assert rig.exec_at[2] == retired[0]
    assert timers == []
    assert channels.blocks_posted.total == 3
    assert [wc.status for wc in qp.send_cq._reap(16)] == [WcStatus.SUCCESS] * 3


def _kill_under_a_waiting_post(rig, doomed, live, form, until=None):
    """Fill ``doomed``'s two slots, park a third post, kill the QP at
    5 µs (adopting ``live`` first, if any); return what the run saw."""
    channels = data_channels([doomed])
    retired = _retire_times(doomed, rig.engine)
    kill_at = 5e-6  # both slots taken, no WR on the wire done yet
    seen = {"kill_at": kill_at, "retired": retired, "channels": channels}

    def poster():
        try:
            for seq in range(3):
                yield from rig.post(channels, form, seq)
        except NoLiveChannelError:
            seen["raised_at"] = rig.engine.now
        seen["done"] = True

    def killer():
        yield rig.engine.timeout(kill_at)
        seen["room_at_kill"] = doomed.send_room
        seen["retired_at_kill"] = len(retired)
        if live is not None:
            channels.adopt(live)
        doomed.kill()

    rig.engine.process(poster())
    rig.engine.process(killer())
    rig.engine.run(until=until)
    assert seen["room_at_kill"] == 0 and seen["retired_at_kill"] == 0
    assert seen["done"]
    # The kill itself woke the waiting post, which paid for the attempt.
    assert rig.exec_at[2] == kill_at
    return seen


def _check_failover(seen, live, cost):
    channels = seen["channels"]
    if live is not None:
        assert "raised_at" not in seen
        (wc,) = live.send_cq._reap(16)
        assert wc.status is WcStatus.SUCCESS and wc.wr_id == 2
        assert channels.blocks_posted.total == 3
    else:
        # The woken post found its QP dead and no other channel left.
        assert seen["raised_at"] == seen["kill_at"] + cost
        assert channels.blocks_posted.total == 2


@SURVIVOR
@pytest.mark.parametrize("form", FORMS)
def test_a_qp_that_dies_under_a_waiting_post_wakes_it(form, survivor):
    rig = _Rig(max_send_wr=2)
    doomed = rig.qp()
    live = rig.qp() if survivor else None
    seen = _kill_under_a_waiting_post(rig, doomed, live, form)

    # Both WRs already on the wire retire after the kill: a WRITE as a
    # flush, a SEND (checked by the QP before it flies) as delivered.
    retired_wcs = doomed.send_cq._reap(16)
    assert [wc.wr_id for wc in retired_wcs] == [0, 1]
    if form == "write":
        assert {wc.status for wc in retired_wcs} == {WcStatus.WR_FLUSH_ERR}
    assert seen["retired"][0] > seen["kill_at"]
    _check_failover(seen, live, seen["channels"].profile.post_send_seconds)


@SURVIVOR
def test_a_killed_qp_wakes_a_post_behind_a_send_stuck_in_rnr(survivor):
    # The peer posts no receive, so the head SEND retries RNR forever
    # (the default infinite ``rnr_retry``) and no slot ever retires: the
    # kill is the only wake-up.  The stuck SEND keeps the engine busy,
    # so the run is bounded.
    rig = _Rig(max_send_wr=2)
    doomed = rig.qp(recvs=0)
    live = rig.qp() if survivor else None
    seen = _kill_under_a_waiting_post(rig, doomed, live, "send", until=1e-3)

    assert seen["retired"] == []
    assert doomed.rnr_naks.total > 0
    _check_failover(seen, live, seen["channels"].profile.post_send_seconds)


@pytest.mark.parametrize("form", FORMS)
def test_posters_woken_by_one_retire_race_and_the_loser_waits_again(form):
    rig = _Rig(max_send_wr=2)
    qp = rig.qp()
    channels = data_channels([qp])
    retired = _retire_times(qp, rig.engine)
    other, other_exec_at = rig.poster("other")

    def first():
        for seq in range(3):
            yield from rig.post(channels, form, seq)

    def second():
        yield rig.engine.timeout(4e-6)  # after ``first`` filled the queue
        yield from rig.post(channels, form, 3, thread=other)

    rig.engine.process(first())
    rig.engine.process(second())
    rig.engine.run()

    # Both parked posts woke on the first retire and paid for a post;
    # ``first`` took the slot, ``second`` found the queue full again, so
    # it waited for the next retire and posted then.
    assert rig.exec_at[2] == retired[0]
    assert other_exec_at == [retired[0], retired[1]]
    assert channels.blocks_posted.total == 4
    wcs = qp.send_cq._reap(16)
    assert sorted(wc.wr_id for wc in wcs) == [0, 1, 2, 3]
    assert {wc.status for wc in wcs} == {WcStatus.SUCCESS}
