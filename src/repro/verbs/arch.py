"""RDMA architecture cost profiles (RoCE, InfiniBand, iWARP).

The paper observes that the same verbs API costs different amounts of CPU
on different fabrics — "*libibverbs* has lower overhead in the
[InfiniBand] environment than in the [RoCE] one" (§V-C2) — and that the
whole point of kernel bypass is that *none* of these costs scale with
bytes.  The profile therefore contains only per-call constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["RdmaArch", "ArchProfile"]


class RdmaArch(enum.Enum):
    """The three RDMA architectures of the paper's Figure 1."""

    INFINIBAND = "infiniband"
    ROCE = "roce"
    IWARP = "iwarp"


@dataclass(frozen=True)
class ArchProfile:
    """Per-verbs-call CPU cost constants (seconds, on the calling thread)."""

    arch: RdmaArch
    #: ibv_post_send: build + ring doorbell.
    post_send_seconds: float
    #: ibv_post_recv.
    post_recv_seconds: float
    #: ibv_poll_cq per completion reaped.
    poll_cqe_seconds: float
    #: ibv_poll_cq that finds nothing (busy-poll iteration).
    poll_empty_seconds: float
    #: Completion-channel event wakeup (ibv_get_cq_event + ack + rearm).
    cq_event_seconds: float

    @classmethod
    def for_arch(cls, arch: RdmaArch) -> "ArchProfile":
        """Default calibrated profile for an architecture.

        InfiniBand has the leanest software path; RoCE adds Ethernet
        encapsulation bookkeeping; iWARP (full TCP offload) is the
        heaviest, consistent with the relative efficiencies reported in
        the paper's references [9][15].
        """
        if arch is RdmaArch.INFINIBAND:
            return cls(
                arch=arch,
                post_send_seconds=0.40e-6,
                post_recv_seconds=0.30e-6,
                poll_cqe_seconds=0.30e-6,
                poll_empty_seconds=0.05e-6,
                cq_event_seconds=1.5e-6,
            )
        if arch is RdmaArch.ROCE:
            return cls(
                arch=arch,
                post_send_seconds=0.70e-6,
                post_recv_seconds=0.50e-6,
                poll_cqe_seconds=0.50e-6,
                poll_empty_seconds=0.05e-6,
                cq_event_seconds=2.0e-6,
            )
        if arch is RdmaArch.IWARP:
            return cls(
                arch=arch,
                post_send_seconds=0.90e-6,
                post_recv_seconds=0.65e-6,
                poll_cqe_seconds=0.60e-6,
                poll_empty_seconds=0.05e-6,
                cq_event_seconds=2.5e-6,
            )
        raise ValueError(f"unknown architecture: {arch!r}")
