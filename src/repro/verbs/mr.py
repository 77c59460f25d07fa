"""Memory regions: registered, key-protected windows of host memory.

A region's *contents* are simulated as a sparse ``{address: object}``
mapping so the middleware can ship real Python payloads through one-sided
operations and verify reassembly — without allocating gigabytes.
"""

from __future__ import annotations

import enum
from typing import Any, Dict

from repro.hardware.memory import MemoryBuffer
from repro.verbs.errors import RemoteAccessError

__all__ = ["AccessFlags", "MemoryRegion"]


class AccessFlags(enum.Flag):
    """ibv_access_flags subset."""

    LOCAL_WRITE = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_READ = enum.auto()


class MemoryRegion:
    """A registered (pinned) memory region with lkey/rkey protection."""

    def __init__(
        self,
        buffer: MemoryBuffer,
        lkey: int,
        rkey: int,
        access: AccessFlags,
        pd_handle: int,
    ) -> None:
        self.buffer = buffer
        self.lkey = lkey
        self.rkey = rkey
        self.access = access
        #: The remote rights as plain booleans, so the per-WR check does
        #: no ``Flag`` arithmetic.
        self._remote_read = bool(access & AccessFlags.REMOTE_READ)
        self._remote_write = bool(access & AccessFlags.REMOTE_WRITE)
        self.pd_handle = pd_handle
        self._contents: Dict[int, Any] = {}

    # -- simulated contents ------------------------------------------------------
    def check_remote(self, addr: int, length: int, write: bool) -> None:
        """Validate a one-sided access; raises :class:`RemoteAccessError`."""
        if not (self._remote_write if write else self._remote_read):
            needed = AccessFlags.REMOTE_WRITE if write else AccessFlags.REMOTE_READ
            raise RemoteAccessError(
                f"region lacks {needed} permission (rkey={self.rkey:#x})"
            )
        if not self.buffer.contains(addr, length):
            raise RemoteAccessError(
                f"access [{addr:#x}, +{length}) outside region "
                f"[{self.buffer.addr:#x}, +{self.buffer.size})"
            )

    def place(self, addr: int, obj: Any) -> None:
        """Deposit a payload object at ``addr`` (one-sided WRITE landing)."""
        self._contents[addr] = obj

    def fetch(self, addr: int) -> Any:
        """Read the payload object at ``addr`` (one-sided READ source)."""
        return self._contents.get(addr)

    def take(self, addr: int) -> Any:
        """Read and clear the payload at ``addr`` (consume a landed block)."""
        return self._contents.pop(addr, None)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MemoryRegion addr={self.buffer.addr:#x} size={self.buffer.size} "
            f"rkey={self.rkey:#x}>"
        )
