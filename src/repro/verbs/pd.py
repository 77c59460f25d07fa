"""Protection domains: the registration authority for memory regions."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.hardware.memory import MemoryBuffer
from repro.verbs.mr import AccessFlags, MemoryRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.device import Device
    from repro.verbs.srq import SharedReceiveQueue

__all__ = ["ProtectionDomain"]

_pd_handles = itertools.count(1)


class ProtectionDomain:
    """Scopes memory registrations and QPs to one device context."""

    def __init__(self, device: "Device") -> None:
        self.device = device
        self.handle = next(_pd_handles)
        self._key_seq = itertools.count(0x1000)
        self._regions: Dict[int, MemoryRegion] = {}  # by rkey
        self.srqs: List["SharedReceiveQueue"] = []

    def reg_mr_sync(
        self,
        buffer: MemoryBuffer,
        access: AccessFlags = AccessFlags.LOCAL_WRITE,
    ) -> MemoryRegion:
        """Register ``buffer`` and return its :class:`MemoryRegion`.

        Zero-time: the middleware registers each pool once at setup and
        reuses the regions for the whole transfer, so pinning cost never
        lands on the data path.
        """
        return self._admit(buffer, access)

    def _admit(self, buffer: MemoryBuffer, access: AccessFlags) -> MemoryRegion:
        key = next(self._key_seq)
        mr = MemoryRegion(
            buffer,
            lkey=key,
            rkey=key | 0x8000_0000,
            access=access | AccessFlags.LOCAL_WRITE,
            pd_handle=self.handle,
        )
        self._regions[mr.rkey] = mr
        return mr

    def create_srq(self, depth: int = 4096) -> "SharedReceiveQueue":
        """Create a shared receive queue scoped to this domain; every QP
        attached to it must be created in the same PD."""
        from repro.verbs.srq import SharedReceiveQueue

        return SharedReceiveQueue(self, depth)

    def _admit_srq(self, srq: "SharedReceiveQueue") -> None:
        self.srqs.append(srq)

    def lookup_rkey(self, rkey: Optional[int]) -> Optional[MemoryRegion]:
        """Resolve an rkey presented by a remote peer."""
        if rkey is None:
            return None
        return self._regions.get(rkey)
