"""Typed transfer errors raised by the recovery-hardened middleware.

Every abort path fails the job's ``done`` event with one of these
instead of hanging the engine, so applications (and the chaos harness)
can distinguish *why* a session died and assert that cleanup ran.
"""

from __future__ import annotations

__all__ = [
    "TransferError",
    "NegotiationTimeout",
    "AckTimeout",
    "CreditStarvation",
    "ResendLimitExceeded",
    "StaleSessionReclaimed",
    "EndpointCrashed",
    "DataChannelsLost",
    "MarkerTimeout",
    "PeerDead",
    "TransportFallbackFailed",
    "StuckTransfer",
    "TransferCanceled",
    "InjectedAttemptFault",
]


class TransferError(RuntimeError):
    """Base class for per-session transfer failures.

    Carries the session id so multi-session callers can attribute the
    failure without parsing the message.
    """

    def __init__(self, session_id: int, message: str) -> None:
        super().__init__(f"session {session_id}: {message}")
        self.session_id = session_id


class NegotiationTimeout(TransferError):
    """A negotiation request (BLOCK_SIZE/CHANNELS/SESSION) exhausted its
    retry budget without a reply."""


class AckTimeout(TransferError):
    """DATASET_DONE was (re)sent but no DATASET_DONE_ACK ever arrived."""


class CreditStarvation(TransferError):
    """The source ran dry of credits and repeated MR_INFO_REQs went
    unanswered within the retry budget."""


class ResendLimitExceeded(TransferError):
    """A block's RDMA WRITE failed more than ``MAX_BLOCK_RESENDS`` times."""


class StaleSessionReclaimed(TransferError):
    """The sink's garbage collector reaped a session that had been idle
    longer than ``session_idle_timeout``."""


class EndpointCrashed(TransferError):
    """An injected endpoint crash (source or sink process death) killed
    the session mid-transfer.  Resumable via SESSION_RESUME."""


class MarkerTimeout(TransferError):
    """Repair copies sat WAITING with no restart-marker progress for the
    whole control retry budget — the sink stopped acking (crashed, or the
    path died) while the source's pool was pinned by the repair hold."""


class DataChannelsLost(TransferError):
    """Every data-channel queue pair died; with no surviving channel to
    redistribute in-flight blocks onto, the session cannot degrade
    further and aborts."""


class PeerDead(TransferError):
    """The heartbeat monitor declared the peer dead: a budget of
    consecutive PINGs went unanswered with nothing else inbound.
    Resumable via SESSION_RESUME once the peer returns."""


class TransportFallbackFailed(TransferError):
    """The TCP degradation path could not save the session: the sink
    denied TRANSPORT_FALLBACK, no TCP factory is wired on the link, or
    the fallback stream stalled with zero progress."""


class StuckTransfer(TransferError):
    """The scheduler's progress watchdog killed the session: no
    delivered-byte progress within a multiple of the adaptive RTO, yet
    no lower-layer timeout fired (the slot was wedged, not failing)."""


class TransferCanceled(TransferError):
    """The broker canceled the session deliberately (job cancel or a
    per-job deadline expiring) while the transfer was still in flight."""


class InjectedAttemptFault(TransferError):
    """A chaos-injected failure at the broker's attempt boundary: the
    attempt dies before any transfer traffic (the retry-storm seam —
    cheap, instant failures are what make retry storms metastable)."""
