"""The source's session lifecycle, row by row (DESIGN.md §8).

A real middleware pair on ``roce_lan`` carries one session per row.  The
row drives it into a *phase* — negotiating, steady, repairing, on the TCP
fallback, re-promoting, awaiting the DATASET_DONE_ACK — and ends it one
way: the ACK, a cancel through ``abort_session``, ``crash()``,
``PeerDead``, or the typed :class:`TransferError` that phase itself
raises.  Whatever the row, once the engine drains the session must have
gone through ``SourceLink._end_session`` exactly once: off the link
table, nothing in flight, every source block FREE, no credit waiter, its
lease returned once (srq mode), ``done`` resolved once with that exact
type, one ``link/abort`` trace record if it aborted, and ``finished_at``
set if and only if it was acknowledged.
"""

from dataclasses import replace

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.core.errors import (
    AckTimeout,
    CreditStarvation,
    DataChannelsLost,
    EndpointCrashed,
    MarkerTimeout,
    NegotiationTimeout,
    PeerDead,
    ResendLimitExceeded,
    TransferCanceled,
    TransportFallbackFailed,
)
from repro.core.messages import CtrlType, DataBlockWire
from repro.sim.trace import Tracer
from repro.testbeds import roce_lan

BS = 64 * 1024
#: Odd, against a marker cadence of 2 (a 16-block pool): the last block's
#: repair copy is still held when the DATASET_DONE_ACK arrives.
BLOCKS = 47
SID = 9


def _drop(*types):
    """A ``ControlChannel.fault_hook`` losing every message of ``types``
    (every message at all when none are given)."""
    return lambda msg: "drop" if not types or msg.type in types else None


class Rig:
    def __init__(self, srq, **over):
        base = dict(
            block_size=BS,
            num_channels=2,
            source_blocks=16,
            sink_blocks=8,
            marker_interval_blocks=2,
            heartbeats=False,
        )
        if srq:
            base.update(use_srq=True, eager_threshold=0)
        base.update(over)
        self.config = ProtocolConfig(**base)
        self.tb = roce_lan()
        self.engine = self.tb.engine
        self.engine.tracer = Tracer(categories={"link"})
        server = RdmaMiddleware(self.tb.dst, self.tb.dst_dev, self.tb.cm, self.config)
        server.serve(4000, CollectingSink(self.tb.dst))
        client = RdmaMiddleware(self.tb.src, self.tb.src_dev, self.tb.cm, self.config)
        # Small TCP buffers: a fallback pump whose consumer is gone stalls
        # within a few blocks instead of parking the whole dataset in them.
        opened = client.open_link(
            self.tb.dst_dev, 4000,
            tcp_factory=lambda: self.tb.tcp_connection(sndbuf=4 * BS, rcvbuf=4 * BS),
        )
        self.engine.run()
        self.link = opened.value
        self.se = server.sink_engines[self.link._client_id]
        self.proc = self.link.transfer(
            PatternSource(self.tb.src), BLOCKS * BS, session_id=SID
        )
        self.proc.defuse()  # the failure is read off ``done``
        self.job = self.link.jobs[SID]
        self.resolutions = []
        self.job.done.add_callback(self.resolutions.append)

    def run_until(self, reached, step=5e-6, limit=2.0):
        while not reached():
            assert self.engine.now < limit and not self.job.ended, "phase never reached"
            self.engine.run(until=self.engine.now + step)

    def kill_channels(self):
        for i in range(len(self.link._all_data_qps)):
            self.link.kill_channel(i)

    def on_data_qps(self, **hooks):
        for qp in self.link._all_data_qps:
            for name, hook in hooks.items():
                setattr(qp, name, hook)

    def metric(self, name):
        return sum(
            row["value"] for row in self.engine.metrics.snapshot()
            if row["metric"] == name
        )


def _corrupt_seq(seq):
    """``qp.corrupt_injector`` tampering with every WRITE of block ``seq``."""
    def hook(wr):
        wire = wr.payload
        if isinstance(wire, DataBlockWire) and wire.header.seq == seq:
            return replace(wire, payload=("bitrot", wire.payload))
        return None
    return hook


# -- phases -------------------------------------------------------------------
# Each drives a fresh session into the phase and asserts it is there.

def negotiating(rig):
    rig.run_until(lambda: rig.link.ctrl._m_sent.total >= 1)
    assert rig.job.started_at is None


def steady(rig):
    rig.run_until(lambda: rig.job.completed_blocks >= 4)
    assert rig.job.started_at is not None and not rig.job.halted


def repairing(rig):
    rig.on_data_qps(corrupt_injector=_corrupt_seq(5))
    rig.run_until(lambda: any(e[4] for e in rig.link._inflight.values()))
    assert rig.job.repairs >= 1 and not rig.job.halted


def on_fallback(rig):
    steady(rig)
    rig.kill_channels()
    rig.run_until(lambda: rig.job.fallback_blocks >= 1)
    assert rig.job.fallback_active and not rig.job.repromote_ready


def repromoting(rig):
    on_fallback(rig)
    rig.run_until(lambda: rig.job.repromote_ready)
    assert rig.job.fallback_active


def awaiting_ack(rig):
    rig.se.ctrl.fault_hook = _drop(CtrlType.DATASET_DONE_ACK)
    rig.run_until(lambda: rig.job.completed_blocks == rig.job.blocks_to_send)
    assert not rig.link._inflight and not rig.job.ended


PHASES = {
    "negotiating": (negotiating, {}),
    "steady": (steady, {}),
    "repairing": (repairing, {}),
    "on-fallback": (on_fallback, dict(breaker_cooldown_min=1.0)),
    "re-promoting": (repromoting, dict(breaker_cooldown_min=2e-4)),
    "awaiting-ack": (awaiting_ack, {}),
}


# -- endings ------------------------------------------------------------------
# Each ends the session from wherever the phase left it and returns the
# exception type ``done`` must fail with (None: the ACK).

def ack(rig):
    rig.se.ctrl.fault_hook = None  # the next retransmitted DATASET_DONE is acked
    return None


def cancel(rig):
    assert rig.link.abort_session(SID, TransferCanceled(SID, "canceled by the row"))
    assert not rig.link.abort_session(SID, TransferCanceled(SID, "twice"))
    return TransferCanceled


def crash(rig):
    rig.link.crash()
    return EndpointCrashed


def peer_dead(rig):
    rig.se.ctrl.fault_hook = _drop()  # the sink goes silent
    return PeerDead


def drop_from_source(*types):
    def end(rig):
        rig.link.ctrl.fault_hook = _drop(*types)
        return NegotiationTimeout
    return end


def credit_starvation(rig):
    rig.link.ctrl.fault_hook = _drop(CtrlType.MR_INFO_REQ)
    return CreditStarvation


def writes_fail(rig):
    rig.on_data_qps(fault_injector=lambda wr: True)
    return ResendLimitExceeded


def markers_lost(rig):
    rig.se.ctrl.fault_hook = _drop(CtrlType.BLOCK_MARKER)
    return MarkerTimeout


def channels_lost(rig):
    rig.kill_channels()
    return DataChannelsLost


def nacks_exhausted(rig):
    return ResendLimitExceeded  # seq 5 is corrupted on every attempt


def fallback_denied(rig):
    rig.se.fallback_deny_hook = lambda: True
    rig.kill_channels()
    return TransportFallbackFailed


def fallback_unanswered(rig):
    rig.link.ctrl.fault_hook = _drop(CtrlType.TRANSPORT_FALLBACK_REQ)
    rig.kill_channels()
    return NegotiationTimeout


def fallback_stalled(rig):
    rig.se.crash()  # the TCP consumer dies with it; the pump stops
    return TransportFallbackFailed


def ack_lost(rig):
    return AckTimeout  # the phase already drops every DATASET_DONE_ACK


_HB = dict(heartbeats=True, heartbeat_interval_min=0.01, heartbeat_interval_max=0.02)

#: (phase, ending) -> (end, config overrides).  Every row a phase can
#: reach; the generic endings (cancel, crash, PeerDead) reach them all.
ROWS = {
    ("awaiting-ack", "ack"): (ack, {}),
    **{(phase, "cancel"): (cancel, {}) for phase in PHASES},
    **{(phase, "crash"): (crash, {}) for phase in PHASES},
    **{(phase, "peer-dead"): (peer_dead, _HB) for phase in PHASES},
    ("negotiating", "NegotiationTimeout"): (drop_from_source(), {}),
    ("steady", "CreditStarvation"): (credit_starvation, dict(proactive_credits=False)),
    ("steady", "ResendLimitExceeded"): (writes_fail, {}),
    ("steady", "MarkerTimeout"): (markers_lost, {}),
    ("steady", "DataChannelsLost"): (channels_lost, dict(tcp_fallback=False)),
    ("repairing", "ResendLimitExceeded"): (nacks_exhausted, {}),
    # Every channel dies, and the fallback cannot start.
    ("steady", "TransportFallbackFailed-denied"): (fallback_denied, {}),
    ("steady", "NegotiationTimeout-fallback"): (fallback_unanswered, {}),
    ("on-fallback", "TransportFallbackFailed-stalled"): (fallback_stalled, {}),
    ("re-promoting", "NegotiationTimeout"): (
        drop_from_source(CtrlType.TRANSPORT_RESTORE_REQ), {}
    ),
    ("awaiting-ack", "AckTimeout"): (ack_lost, {}),
}


@pytest.mark.parametrize("srq", [False, True], ids=["dedicated", "srq"])
@pytest.mark.parametrize("row", ROWS, ids=["/".join(r) for r in ROWS])
def test_every_ending_goes_through_end_session_once(row, srq):
    reach, phase_over = PHASES[row[0]]
    end, end_over = ROWS[row]
    rig = Rig(srq, **{**phase_over, **end_over})
    reach(rig)
    expected = end(rig)
    rig.engine.run()

    link, job = rig.link, rig.job
    # Off the table, nothing in flight, no credit waiter, every block FREE.
    assert link.audit() == []
    if srq:
        assert rig.metric("qp_pool.leases") == rig.metric("qp_pool.releases") == 1
    assert len(rig.resolutions) == 1 and job.ended
    aborts = [r for r in rig.engine.tracer.query("link", session=SID) if r.message == "abort"]
    if expected is None:
        assert job.done.ok and job.done.value is job and not job.aborted
        assert job.finished_at is not None and aborts == []
    else:
        assert not job.done.ok and type(job.done.value) is expected
        assert job.error is job.done.value and job.finished_at is None
        assert [r.fields["error"] for r in aborts] == [expected.__name__]
