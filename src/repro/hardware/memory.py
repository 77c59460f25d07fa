"""Host memory: buffer allocation and address space.

The middleware registers large pools of fixed-size blocks and reuses them
for the lifetime of a transfer (one of the paper's optimisations), so the
allocator here is a simple monotonic address assigner with byte
accounting; fragmentation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MemoryBuffer", "MemoryManager"]

#: Page size allocations are aligned to (x86-64 default).
PAGE_SIZE = 4096


@dataclass(frozen=True)
class MemoryBuffer:
    """A contiguous region of host memory (simulated; holds no bytes)."""

    addr: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("buffer size must be positive")
        if self.addr < 0:
            raise ValueError("buffer address must be non-negative")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.addr + self.size

    def contains(self, addr: int, length: int) -> bool:
        """True if ``[addr, addr+length)`` lies wholly inside this buffer."""
        return self.addr <= addr and addr + length <= self.end


@dataclass
class MemoryManager:
    """Tracks allocations against a host's physical memory size."""

    capacity: int
    used: int = 0
    _next_addr: int = field(default=0x10_0000, repr=False)

    def alloc(self, size: int) -> MemoryBuffer:
        """Allocate ``size`` bytes; raises :class:`MemoryError` if exhausted."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self.used + size > self.capacity:
            raise MemoryError(
                f"host memory exhausted: {self.used + size} > {self.capacity}"
            )
        buf = MemoryBuffer(self._next_addr, size)
        self._next_addr += size
        # Keep regions page-aligned like a real pinned allocation would be.
        rem = self._next_addr % PAGE_SIZE
        if rem:
            self._next_addr += PAGE_SIZE - rem
        self.used += size
        return buf

    def free(self, buf: MemoryBuffer) -> None:
        """Return a buffer's bytes to the pool."""
        if buf.size > self.used:
            raise RuntimeError("double free or foreign buffer")
        self.used -= buf.size

    @property
    def available(self) -> int:
        return self.capacity - self.used
