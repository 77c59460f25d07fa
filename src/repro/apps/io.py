"""Data sources and sinks for transfer applications.

A *source* provides ``read(thread, nbytes, seq)`` and a *sink* provides
``write(thread, nbytes, header, payload)``; both are process generators
so they can charge CPU time and block on devices.  These mirror the
paper's test configurations: memory-to-memory runs read /dev/zero and
write /dev/null; memory-to-disk runs hit the RAID array with either
POSIX or direct I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import BlockHeader
    from repro.hardware.cpu import CpuThread
    from repro.hardware.disk import DiskArray
    from repro.hardware.host import Host

__all__ = [
    "ZeroSource",
    "PatternSource",
    "NullSink",
    "CollectingSink",
    "DiskSink",
    "audit_blocks",
]

#: seq -> every ``(header, payload)`` delivered for it, in arrival order.
Copies = Dict[int, List[Tuple[Any, Any]]]


class ZeroSource:
    """Reads from /dev/zero: pure memset cost on the loading thread.

    The paper measures this at ~50 % of one core at 25 Gbps — the
    dominant CPU term for RFTP at large block sizes (Amdahl's-law floor).
    """

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.bytes_read = 0

    def read(self, thread: "CpuThread", nbytes: int, seq: int) -> Generator:
        cost = (
            self.host.spec.syscall_seconds
            + nbytes * self.host.spec.memset_ns_per_byte * 1e-9
        )
        yield thread.exec(cost)
        self.bytes_read += nbytes
        return None  # zeros carry no information


class PatternSource:
    """Deterministic verifiable payloads (for correctness tests)."""

    def __init__(self, host: "Host", tag: str = "blk") -> None:
        self.host = host
        self.tag = tag
        self.bytes_read = 0

    def read(self, thread: "CpuThread", nbytes: int, seq: int) -> Generator:
        cost = nbytes * self.host.spec.memset_ns_per_byte * 1e-9
        yield thread.exec(cost)
        self.bytes_read += nbytes
        return (self.tag, seq, nbytes)


class NullSink:
    """Writes to /dev/null: one cheap syscall, no per-byte cost."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.bytes_written = 0

    def write(
        self, thread: "CpuThread", nbytes: int, header: Any = None, payload: Any = None
    ) -> Generator:
        yield thread.exec(self.host.spec.syscall_seconds)
        self.bytes_written += nbytes


class CollectingSink:
    """Records every delivered (header, payload) in arrival order."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.deliveries: List[Tuple[Any, Any]] = []
        self.bytes_written = 0

    def write(
        self, thread: "CpuThread", nbytes: int, header: Any = None, payload: Any = None
    ) -> Generator:
        yield thread.exec(self.host.spec.syscall_seconds)
        self.deliveries.append((header, payload))
        self.bytes_written += nbytes

    def by_session(self) -> Dict[int, Copies]:
        """The delivery log grouped by session id, then by seq (one pass)."""
        sessions: Dict[int, Copies] = {}
        for header, payload in self.deliveries:
            sessions.setdefault(header.session_id, {}) \
                .setdefault(header.seq, []).append((header, payload))
        return sessions


def audit_blocks(
    label: str, blocks: Copies, size: int, block_size: int, tag: str, overlap_ok: bool
) -> Tuple[List[str], int]:
    """Byte-exactness of one ``size``-byte dataset's deliveries.

    ``blocks`` (one session of :meth:`CollectingSink.by_session`) must
    cover exactly seqs ``0..nblocks-1``, each with its expected length and
    the :class:`PatternSource` payload for ``tag``.  A block may repeat
    only as an identical copy, and only when ``overlap_ok`` (the session
    re-sent a prefix the sink had already consumed: a resume, fallback or
    repromotion) — divergent re-delivery is corruption.  Returns
    ``(problems, overlap_bytes)``, the latter being the bytes repeated
    copies carried beyond the first.
    """
    total_blocks = -(-size // block_size)
    if sorted(blocks) != list(range(total_blocks)):
        return [f"{label}: delivered seqs {sorted(blocks)} != 0..{total_blocks - 1}"], 0
    problems: List[str] = []
    overlap_bytes = 0
    for seq in range(total_blocks):
        first, *rest = blocks[seq]
        header, payload = first
        expected_len = min(block_size, size - seq * block_size)
        if header.length != expected_len:
            problems.append(f"{label}: seq {seq} length {header.length} != {expected_len}")
        if payload != (tag, seq, expected_len):
            problems.append(f"{label}: seq {seq} payload corrupted ({payload!r})")
        for copy in rest:
            if copy != first:
                problems.append(f"{label}: seq {seq} re-delivered with divergent content")
            else:
                overlap_bytes += header.length
        if rest and not overlap_ok:
            problems.append(f"{label}: seq {seq} delivered twice where no overlap is allowed")
    return problems, overlap_bytes


class DiskSink:
    """Writes delivered blocks to the host's disk array.

    ``direct=True`` is RFTP's mode (O_DIRECT onto the RAID);
    ``direct=False`` models POSIX buffered writes (the page-cache copy
    lands on the writer thread).
    """

    def __init__(self, host: "Host", direct: bool = True) -> None:
        if host.disk is None:
            raise RuntimeError(f"host {host.name} has no disk array")
        self.host = host
        self.disk: "DiskArray" = host.disk
        self.direct = direct
        self.bytes_written = 0

    def write(
        self,
        thread: "CpuThread",
        nbytes: int,
        header: Optional["BlockHeader"] = None,
        payload: Any = None,
    ) -> Generator:
        yield from self.disk.write(thread, nbytes, direct=self.direct)
        self.bytes_written += nbytes
