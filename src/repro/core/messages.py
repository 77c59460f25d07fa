"""Wire formats: control messages and the user-payload block header.

Figure 7 of the paper defines two formats.  Control messages ride the
dedicated control QP via SEND/RECV; the 64-byte size below covers the
type, session, and type-associated data fields.  Every payload block is
prefixed by a fixed header — session id (32 bits), sequence number
(32 bits), offset (64 bits), payload length (32 bits), reserved — that
the sink uses to reassemble out-of-order arrivals.

:data:`PROTOCOL` declares what each control-message type means, one row
per type: both engines dispatch by it, and a conformance test is
generated from it.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "CtrlType",
    "ControlMessage",
    "BlockHeader",
    "CTRL_MSG_BYTES",
    "HEADER_BYTES",
    "PROTOCOL",
    "CtrlRule",
    "Direction",
    "Duplicate",
    "Grant",
    "Scope",
    "block_checksum",
]

#: Simulated wire size of one control message (Figure 7a).
CTRL_MSG_BYTES = 64
#: Payload block header: 32+32+64+32 bits + reserved padding (Figure 7b).
HEADER_BYTES = 24


class CtrlType(enum.Enum):
    """Control-message types of the protocol's three phases (§IV-C)."""

    # Phase 1: initialisation and parameter negotiation.
    BLOCK_SIZE_REQ = "block_size_req"
    BLOCK_SIZE_REP = "block_size_rep"
    CHANNELS_REQ = "channels_req"
    CHANNELS_REP = "channels_rep"
    SESSION_REQ = "session_req"
    SESSION_REP = "session_rep"
    # Phase 2: data transfer.
    MR_INFO_REQ = "mr_info_req"  # source is idle, begging for credits
    MR_INFO_REP = "mr_info_rep"  # sink grants one or more memory regions
    BLOCK_DONE = "block_done"  # block transfer completion notification
    # Phase 2b: integrity and repair (receiver-side validation of the
    # one-sided WRITEs; cf. GridFTP restart markers).
    BLOCK_NACK = "block_nack"  # checksum mismatch: re-send into this credit
    BLOCK_MARKER = "block_marker"  # restart marker: contiguous consumed prefix
    # Phase 3: teardown.
    DATASET_DONE = "dataset_done"
    DATASET_DONE_ACK = "dataset_done_ack"
    # Session resume: re-attach a dead session to the sink's restart marker
    # and transfer only the missing suffix.
    SESSION_RESUME_REQ = "session_resume_req"
    SESSION_RESUME_REP = "session_resume_rep"
    # Liveness: link-level (session_id 0) heartbeat probes on an adaptive
    # cadence, so an idle peer's death is detected in bounded time.
    PING = "ping"
    PONG = "pong"
    # Graceful degradation: negotiate a TCP fallback stream through the
    # same fabric when every data channel is dead, and the reverse
    # promotion back to RDMA once a channel is re-established.
    TRANSPORT_FALLBACK_REQ = "transport_fallback_req"
    TRANSPORT_FALLBACK_REP = "transport_fallback_rep"
    TRANSPORT_RESTORE_REQ = "transport_restore_req"
    TRANSPORT_RESTORE_REP = "transport_restore_rep"

    #: Identity hash in C, not ``Enum.__hash__`` in Python: types key the
    #: dispatch dicts, and no set of them is iterated.
    __hash__ = object.__hash__


class Direction(enum.Enum):
    TO_SINK = "to_sink"
    TO_SOURCE = "to_source"
    EITHER = "either"  #: liveness probes run both ways


class Scope(enum.Enum):
    SESSION = "session"  #: routed by session id: a miss at the source is a stray
    LINK = "link"  #: about the link, whatever session id it carries


class Grant(enum.Enum):
    """What the source's ledger does with a message, before routing it."""

    NONE = "none"
    DEPOSIT = "deposit"  #: deposit the credits it carries
    #: Accepted: flush every held credit (their regions were revoked; the
    #: control QP is FIFO, so no stale grant is in flight), then deposit.
    REPLACE = "replace"


class Duplicate(enum.Enum):
    """How the sink answers a retransmitted request."""

    REPLAY = "replay"  #: the stored grant again, while nothing has landed since
    EMPTY = "empty"  #: accepted again, with an empty grant (a new one would leak)
    IDEMPOTENT = "idempotent"  #: the same answer, recomputed from what it holds


@dataclass(frozen=True, slots=True)
class CtrlRule:
    """One row of :data:`PROTOCOL`.  A reply's data leads with whether it
    was accepted, and a granting message's ends with its credits:
    ``(accepted, …, credits)``.  No ``duplicate`` rule: every copy is a new
    request (a starved source asks for what is free now), or no reply."""

    direction: Direction
    scope: Scope
    reply: Optional[CtrlType] = None
    grant: Grant = Grant.NONE
    duplicate: Optional[Duplicate] = None


_T, _SNK, _SRC, _SES, _LNK = (
    CtrlType, Direction.TO_SINK, Direction.TO_SOURCE, Scope.SESSION, Scope.LINK
)
_IDEM, _REPLAY = Duplicate.IDEMPOTENT, Duplicate.REPLAY

#: The control protocol, one row per :class:`CtrlType` (DESIGN.md §8).
#: TRANSPORT_FALLBACK_REP grants nothing (a byte stream has no credits);
#: the source's fallback thread flushes the ledger when it takes the reply.
PROTOCOL: Dict[CtrlType, CtrlRule] = {
    _T.BLOCK_SIZE_REQ: CtrlRule(_SNK, _LNK, _T.BLOCK_SIZE_REP, duplicate=_IDEM),
    _T.BLOCK_SIZE_REP: CtrlRule(_SRC, _SES),
    _T.CHANNELS_REQ: CtrlRule(_SNK, _LNK, _T.CHANNELS_REP, duplicate=_IDEM),
    _T.CHANNELS_REP: CtrlRule(_SRC, _SES),
    _T.SESSION_REQ: CtrlRule(_SNK, _SES, _T.SESSION_REP, duplicate=Duplicate.EMPTY),
    _T.SESSION_REP: CtrlRule(_SRC, _SES, grant=Grant.DEPOSIT),
    _T.MR_INFO_REQ: CtrlRule(_SNK, _LNK, _T.MR_INFO_REP),
    _T.MR_INFO_REP: CtrlRule(_SRC, _LNK, grant=Grant.DEPOSIT),
    _T.BLOCK_DONE: CtrlRule(_SNK, _SES),
    _T.BLOCK_NACK: CtrlRule(_SRC, _SES),
    _T.BLOCK_MARKER: CtrlRule(_SRC, _SES),
    _T.DATASET_DONE: CtrlRule(_SNK, _SES, _T.DATASET_DONE_ACK, duplicate=_IDEM),
    _T.DATASET_DONE_ACK: CtrlRule(_SRC, _SES),
    _T.SESSION_RESUME_REQ: CtrlRule(_SNK, _SES, _T.SESSION_RESUME_REP, duplicate=_REPLAY),
    _T.SESSION_RESUME_REP: CtrlRule(_SRC, _SES, grant=Grant.REPLACE),
    _T.PING: CtrlRule(Direction.EITHER, _LNK, _T.PONG, duplicate=_IDEM),
    _T.PONG: CtrlRule(Direction.EITHER, _LNK),
    _T.TRANSPORT_FALLBACK_REQ: CtrlRule(
        _SNK, _SES, _T.TRANSPORT_FALLBACK_REP, duplicate=_IDEM
    ),
    _T.TRANSPORT_FALLBACK_REP: CtrlRule(_SRC, _SES),
    _T.TRANSPORT_RESTORE_REQ: CtrlRule(
        _SNK, _SES, _T.TRANSPORT_RESTORE_REP, duplicate=_REPLAY
    ),
    _T.TRANSPORT_RESTORE_REP: CtrlRule(_SRC, _SES, grant=Grant.REPLACE),
}


# The records built per message are not frozen: a frozen dataclass sets
# each field through ``object.__setattr__``.  Nothing assigns to one
# after it is built; ``unsafe_hash`` keeps the field hash frozen gave.
@dataclass(unsafe_hash=True, slots=True)
class ControlMessage:
    """A control-plane message (SEND/RECV on the control QP)."""

    type: CtrlType
    session_id: int
    #: "Type Associated Data": negotiated value, credit list, block id...
    data: Any = None

    @property
    def wire_bytes(self) -> int:
        return CTRL_MSG_BYTES


def block_checksum(payload: Any) -> int:
    """Deterministic 32-bit checksum of a simulated block payload.

    Payloads are small Python objects standing in for the real block
    bytes, so the CRC runs over their canonical ``repr`` — stable across
    runs and processes for the tuples/None the sources produce.
    """
    return zlib.crc32(repr(payload).encode()) & 0xFFFFFFFF


@dataclass(unsafe_hash=True, slots=True)
class BlockHeader:
    """Per-block header prefixed to every user payload block.

    The checksum occupies the header's formerly-reserved word (the wire
    size is unchanged): the source stamps it at load time, the sink
    verifies it on BLOCK_DONE before delivering the block.
    """

    session_id: int
    seq: int
    offset: int
    length: int
    checksum: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.session_id < 2**32:
            raise ValueError("session_id must fit in 32 bits")
        if not 0 <= self.seq < 2**32:
            raise ValueError("seq must fit in 32 bits")
        if not 0 <= self.offset < 2**64:
            raise ValueError("offset must fit in 64 bits")
        if not 0 <= self.length < 2**32:
            raise ValueError("length must fit in 32 bits")
        if not 0 <= self.checksum < 2**32:
            raise ValueError("checksum must fit in 32 bits")

    @property
    def wire_bytes(self) -> int:
        """Bytes this block occupies on the wire (header + payload)."""
        return HEADER_BYTES + self.length


@dataclass(unsafe_hash=True, slots=True)
class DataBlockWire:
    """What actually lands in a sink memory region: header + payload."""

    header: BlockHeader
    payload: Any = None
    #: Sink block id the source targeted (from the credit it consumed).
    block_id: Optional[int] = None
