"""Simulated OFED verbs: the RDMA programming interface of the paper.

This package reproduces the slice of ``libibverbs``/``librdmacm`` the
paper's middleware is written against:

- :class:`~repro.verbs.device.Device` / :class:`~repro.verbs.pd.ProtectionDomain`
  / :class:`~repro.verbs.mr.MemoryRegion` with lkey/rkey enforcement,
- :class:`~repro.verbs.cq.CompletionQueue` with polling and
  :class:`~repro.verbs.cq.CompletionChannel` event waits,
- :class:`~repro.verbs.qp.QueuePair` (Reliable Connected and Unreliable
  Datagram) supporting SEND/RECV, RDMA WRITE and RDMA READ, with
  in-order completions, RNR NAK + retry, and the ORD outstanding-read
  limit,
- :class:`~repro.verbs.cm.ConnectionManager`, an ``rdma_cm``-style
  listener/connector that resolves fabric paths between devices,
- :class:`~repro.verbs.arch.ArchProfile`, per-architecture (RoCE /
  InfiniBand / iWARP) software cost profiles for verbs calls.

Everything is timed by the hardware models in :mod:`repro.hardware`; the
API layer charges *CPU* costs to the calling thread, mirroring where real
cycles are spent (kernel bypass means no per-byte CPU on the data path).
"""

from repro.verbs.arch import ArchProfile, RdmaArch
from repro.verbs.cm import ConnectionManager, RdmaFabric
from repro.verbs.cq import CompletionChannel, CompletionQueue
from repro.verbs.device import Device
from repro.verbs.errors import (
    CqOverflowError,
    QpStateError,
    RemoteAccessError,
    VerbsError,
)
from repro.verbs.mr import AccessFlags, MemoryRegion
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import QpState, QpType, QueuePair, connect_pair
from repro.verbs.srq import SharedReceiveQueue
from repro.verbs.wr import Opcode, RecvWR, SendWR, WcStatus, WorkCompletion

__all__ = [
    "AccessFlags",
    "ArchProfile",
    "CompletionChannel",
    "CompletionQueue",
    "ConnectionManager",
    "CqOverflowError",
    "Device",
    "MemoryRegion",
    "Opcode",
    "ProtectionDomain",
    "QpState",
    "QpStateError",
    "QpType",
    "QueuePair",
    "RdmaArch",
    "RdmaFabric",
    "RecvWR",
    "RemoteAccessError",
    "SendWR",
    "SharedReceiveQueue",
    "VerbsError",
    "WcStatus",
    "WorkCompletion",
    "connect_pair",
]
