"""Work requests and work completions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Opcode", "WcStatus", "SendWR", "RecvWR", "WorkCompletion"]


class Opcode(enum.Enum):
    """Work-request / completion opcodes (subset used by the middleware)."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"

    #: Identity hash in C (no set of opcodes is iterated).
    __hash__ = object.__hash__


class WcStatus(enum.Enum):
    """Completion status codes (subset of ibv_wc_status)."""

    SUCCESS = "success"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    REM_ACCESS_ERR = "remote_access_error"
    WR_FLUSH_ERR = "flushed"
    LOC_LEN_ERR = "local_length_error"
    #: Injected transient fault (testing/fault-injection only): the
    #: operation is reported failed but the QP stays usable, so recovery
    #: paths (the middleware's WAITING → LOADED re-send transition) can
    #: be exercised without tearing the connection down.
    SIM_FAULT = "simulated_fault"


class SendWR:
    """A send-queue work request.

    For SEND, ``payload`` rides to the remote receive completion.  For
    RDMA WRITE/READ, ``remote_addr``/``rkey`` select the target region;
    WRITE deposits ``payload`` into the remote region's simulated
    contents, READ returns whatever the remote region holds at the
    address.  ``lkey`` is the local memory region's key (validated
    against the QP's PD), ``payload`` the simulated object transported
    with the data, and ``signaled=False`` skips the completion entry.

    A plain slotted class with its checks inline: one call per WR,
    where a dataclass pays for its generated ``__init__`` and a
    ``__post_init__``.
    """

    __slots__ = ("opcode", "length", "wr_id", "lkey", "local_addr",
                 "remote_addr", "rkey", "payload", "signaled")

    def __init__(self, opcode: Opcode, length: int, wr_id: int = 0,
                 lkey: Optional[int] = None, local_addr: int = 0, remote_addr: int = 0,
                 rkey: Optional[int] = None, payload: Any = None, signaled: bool = True) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if rkey is None and (opcode is Opcode.RDMA_WRITE or opcode is Opcode.RDMA_READ):
            raise ValueError(f"{opcode.value} requires an rkey")
        self.opcode = opcode
        self.length = length
        self.wr_id = wr_id
        self.lkey = lkey
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.payload = payload
        self.signaled = signaled


@dataclass(slots=True)
class RecvWR:
    """A receive-queue work request (a registered landing buffer)."""

    length: int
    wr_id: int = 0
    lkey: Optional[int] = None
    local_addr: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")


@dataclass(slots=True)
class WorkCompletion:
    """A completion-queue entry."""

    wr_id: int
    opcode: Opcode
    status: WcStatus
    byte_len: int = 0
    #: For receive completions: the payload object the sender attached.
    payload: Any = None
    #: QP number the completion arrived on (for shared CQs).
    qp_num: int = -1
    #: Simulated completion timestamp (engine time), for latency stats.
    timestamp: float = field(default=0.0, repr=False)

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS
