"""The declarative description of a chaos experiment."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Tuple

from repro.core.messages import CtrlType

__all__ = ["FaultPlan", "DEFAULT_DROPPABLE"]

#: Control messages that are safe to lose: every one of these is either
#: a *request the source retransmits* under its timeout/backoff budget,
#: or (DATASET_DONE_ACK) a reply whose request is retransmitted and
#: re-answered idempotently from the sink's ack ledger.  BLOCK_DONE and
#: the remaining sink→source replies are deliberately excluded — they
#: are sent exactly once per event, so losing one strands sink state
#: the protocol has no retransmission for (the session-idle GC would
#: eventually reap it, but that turns a droppable-message test into a
#: GC test).  The control-conformance tests check each type against the
#: ``reply`` and ``duplicate`` columns of :data:`repro.core.messages.PROTOCOL`.
DEFAULT_DROPPABLE: Tuple[CtrlType, ...] = (
    CtrlType.BLOCK_SIZE_REQ,
    CtrlType.CHANNELS_REQ,
    CtrlType.SESSION_REQ,
    CtrlType.MR_INFO_REQ,
    CtrlType.DATASET_DONE,
    CtrlType.DATASET_DONE_ACK,
)


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how often, reproducibly.

    All probabilities are per-event (per RDMA WRITE, per control message,
    per link serialisation).  ``seed`` drives independent per-seam RNG
    streams, so two runs with the same plan produce byte-identical fault
    sequences regardless of which seams are enabled.
    """

    #: Root seed for the per-seam fault streams.
    seed: int = 0
    #: Probability an RDMA WRITE completes with a transient WC error
    #: (exercises Fig. 6's WAITING → LOADED re-send path).
    write_fault_rate: float = 0.0
    #: Probability a droppable control message is lost after posting.
    ctrl_drop_rate: float = 0.0
    #: Message types :attr:`ctrl_drop_rate` applies to.
    ctrl_droppable: Tuple[CtrlType, ...] = field(default=DEFAULT_DROPPABLE)
    #: Probability any control message is delayed before posting.
    ctrl_delay_rate: float = 0.0
    #: The injected control delay, seconds.
    ctrl_delay_seconds: float = 0.05
    #: Scheduled link outages: ``((start_s, duration_s), ...)`` — both
    #: directions of the path go down (a real flap kills the fibre).
    link_flaps: Tuple[Tuple[float, float], ...] = ()
    #: Probability one link serialisation picks up an extra delay.
    latency_spike_rate: float = 0.0
    #: The injected serialisation delay, seconds.
    latency_spike_seconds: float = 0.01
    #: Probability an RDMA WRITE lands with its payload silently
    #: tampered: the transport CRC passes, the WR completes OK, and only
    #: the end-to-end block checksum can catch it (exercises the
    #: BLOCK_NACK repair path; with repair off, a typed abort).
    payload_corrupt_rate: float = 0.0
    #: Scheduled sink-process crashes, seconds: volatile sink state dies,
    #: the written prefix / ack ledger survive (exercises SESSION_RESUME
    #: against a restarted receiver).
    sink_crashes: Tuple[float, ...] = ()
    #: Scheduled source-process crashes, seconds: every live job aborts
    #: with :class:`~repro.core.errors.EndpointCrashed` and outstanding
    #: credits are flushed (a new incarnation may then resume).
    source_crashes: Tuple[float, ...] = ()
    #: Scheduled broker-process crashes, seconds: the scheduler dies
    #: mid-run (journal survives, live sessions abort) and is restarted
    #: from a journal replay — queued files re-admit, ACTIVE files
    #: re-attach via SESSION_RESUME (exercises
    #: :meth:`~repro.sched.broker.TransferBroker.recover`).
    broker_crashes: Tuple[float, ...] = ()
    #: Scheduled data-QP kills: ``((time_s, channel_index), ...)`` — the
    #: QP drops to ERROR mid-transfer, in-flight WRs flush, and the
    #: session fails over onto the surviving channels.
    qp_kills: Tuple[Tuple[float, int], ...] = ()
    #: Probability a PING or PONG is lost after posting (exercises the
    #: adaptive heartbeat's miss accounting and the PeerDead abort).
    heartbeat_drop_rate: float = 0.0
    #: Deny every TRANSPORT_FALLBACK_REQ at the sink: a session that
    #: loses all data channels aborts with TransportFallbackFailed
    #: instead of degrading to TCP.
    fallback_deny: bool = False
    #: Probability a broker transfer attempt fails at the attempt
    #: boundary (before any traffic moves) with
    #: :class:`~repro.core.errors.InjectedAttemptFault` — the retry-storm
    #: seam: every injected failure burns a retry-budget token, so a high
    #: rate drives tenants into budget exhaustion instead of letting
    #: retries amplify the overload.
    attempt_fault_rate: float = 0.0
    #: Optional ``(start_s, end_s)`` window outside which
    #: :attr:`attempt_fault_rate` is dormant; empty means always armed.
    attempt_fault_window: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "write_fault_rate",
            "ctrl_drop_rate",
            "ctrl_delay_rate",
            "latency_spike_rate",
            "payload_corrupt_rate",
            "heartbeat_drop_rate",
            "attempt_fault_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.ctrl_delay_seconds < 0 or self.latency_spike_seconds < 0:
            raise ValueError("injected delays must be non-negative")
        for flap in self.link_flaps:
            if len(flap) != 2:
                raise ValueError("each link flap is a (start, duration) pair")
            start, duration = flap
            if start < 0 or duration <= 0:
                raise ValueError(f"bad link flap {flap!r}")
        for name in ("sink_crashes", "source_crashes", "broker_crashes"):
            for when in getattr(self, name):
                if when < 0:
                    raise ValueError(f"{name} entry {when!r} is before t=0")
        for kill in self.qp_kills:
            if len(kill) != 2:
                raise ValueError("each qp kill is a (time, channel_index) pair")
            when, index = kill
            if when < 0 or index < 0 or index != int(index):
                raise ValueError(f"bad qp kill {kill!r}")
        if self.attempt_fault_window:
            if len(self.attempt_fault_window) != 2:
                raise ValueError(
                    "attempt_fault_window is a (start, end) pair"
                )
            start, end = self.attempt_fault_window
            if start < 0 or end <= start:
                raise ValueError(
                    f"bad attempt_fault_window {self.attempt_fault_window!r}"
                )

    @classmethod
    def from_spec(cls, obj: Dict[str, Any]) -> "FaultPlan":
        """Build from a spec's ``faults`` object or the ``chaos`` flags:
        any field by name but ``ctrl_droppable`` (message types, not
        JSON), lists as tuples; typo'd keys fail."""
        unknown = set(obj) - ({f.name for f in fields(cls)} - {"ctrl_droppable"})
        if unknown:
            raise ValueError(f"unknown fault keys: {sorted(unknown)}")
        return cls(**{key: _tuples(value) for key, value in obj.items()})


def _tuples(value: Any) -> Any:
    """JSON lists, nested or not, as the tuples a frozen plan holds."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_tuples, value))
    return value
