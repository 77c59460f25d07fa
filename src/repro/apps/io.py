"""Data sources and sinks for transfer applications.

A *source* provides ``read(thread, nbytes, seq)`` and a *sink* provides
``write(thread, nbytes, header, payload)``; both are process generators
so they can charge CPU time and block on devices.  These mirror the
paper's test configurations: memory-to-memory runs read /dev/zero and
write /dev/null; memory-to-disk runs hit the RAID array with either
POSIX or direct I/O.
"""

from __future__ import annotations

from array import array
from typing import (
    TYPE_CHECKING, Any, Dict, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.messages import BlockHeader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cpu import CpuThread
    from repro.hardware.disk import DiskArray
    from repro.hardware.host import Host

__all__ = [
    "ZeroSource",
    "PatternSource",
    "NullSink",
    "CollectingSink",
    "DiskSink",
]

#: :class:`CollectingSink` payload kinds: ``None``, and a row kept
#: verbatim.  Every other code is a :class:`PatternSource` tag's index in
#: the sink's tag table.
_NONE, _KEPT = 0, 255
#: The first offset an ``array('q')`` slot cannot hold.
_INT64_END = 1 << 63


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
    """Records every delivered ``(header, payload)`` in arrival order,
    packed into the columns of the Figure 7b header.

    A row is one ``array('q')`` slot per header field (session id, seq,
    offset, length, checksum) and one byte naming its payload: ``None``,
    or the :class:`PatternSource` payload ``(tag, seq, length)`` whose
    seq and length are the header's own, with ``tag`` interned.  A row
    packs only if its header is exactly a :class:`BlockHeader` with every
    field exactly ``int`` within int64; any other row is kept verbatim.
    A packed row costs 5 x 8 + 1 bytes; :meth:`rows` gives every row back
    equal, type for type, to the one written.
    """

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.bytes_written = 0
        self._sid, self._seq, self._offset, self._length, self._checksum = (
            array("q") for _ in range(5)
        )
        #: Per row: ``_NONE``, ``_KEPT``, or the payload tag's index in ``_tags``.
        self._kind = bytearray()
        self._tags: List[Optional[str]] = [None]
        self._tag_kinds: Dict[str, int] = {}
        #: Row number -> the ``(header, payload)`` written, for the rows
        #: the columns cannot give back.
        self._kept: Dict[int, Tuple[Any, Any]] = {}

    def write(
        self, thread: "CpuThread", nbytes: int, header: Any = None, payload: Any = None
    ) -> Generator:
        yield thread.exec(self.host.spec.syscall_seconds)
        self._append(header, payload)
        self.bytes_written += nbytes

    def _append(self, header: Any, payload: Any) -> None:
        kind = _KEPT
        if type(header) is BlockHeader:
            sid, seq, offset, length, checksum = (
                header.session_id, header.seq, header.offset, header.length, header.checksum
            )
            # BlockHeader keeps every field non-negative and all but the
            # offset under 2**32.
            if type(sid) is type(seq) is type(offset) is type(length) is type(checksum) \
                    is int and offset < _INT64_END:
                if payload is None:
                    kind = _NONE
                elif type(payload) is tuple and len(payload) == 3:
                    tag, pseq, plen = payload
                    if type(tag) is str and type(pseq) is type(plen) is int \
                            and pseq == seq and plen == length:
                        kind = self._tag_kinds.get(tag) or self._intern(tag)
        if kind == _KEPT:
            self._kept[len(self._kind)] = (header, payload)
            sid = seq = offset = length = checksum = 0
        self._sid.append(sid)
        self._seq.append(seq)
        self._offset.append(offset)
        self._length.append(length)
        self._checksum.append(checksum)
        self._kind.append(kind)

    def _intern(self, tag: str) -> int:
        """``tag``'s kind code, or ``_KEPT`` once the table is full."""
        if len(self._tags) == _KEPT:
            return _KEPT
        self._tag_kinds[tag] = len(self._tags)
        self._tags.append(tag)
        return self._tag_kinds[tag]

    def rows(self, which: Optional[Iterable[int]] = None) -> Iterator[Tuple[Any, Any]]:
        """The ``(header, payload)`` rows numbered in ``which`` (default:
        every row, in arrival order), equal type for type to the ones
        written."""
        return map(self._row, range(len(self._kind)) if which is None else which)

    def _row(self, r: int) -> Tuple[Any, Any]:
        kind = self._kind[r]
        if kind == _KEPT:
            return self._kept[r]
        header = BlockHeader(
            self._sid[r], self._seq[r], self._offset[r], self._length[r], self._checksum[r]
        )
        return header, (None if kind == _NONE else (self._tags[kind], header.seq, header.length))

    def session_rows(self) -> Dict[Any, "array[int]"]:
        """Row numbers per session id in arrival order, the sessions in
        order of first arrival."""
        index: Dict[Any, "array[int]"] = {}
        kept = self._kept
        for r, sid in enumerate(self._sid):
            if r in kept:
                sid = kept[r][0].session_id
            rows = index.get(sid)
            if rows is None:
                index[sid] = array("q", (r,))
            else:
                rows.append(r)
        return index

    def audit_blocks(
        self,
        label: str,
        rows: Sequence[int],
        size: int,
        block_size: int,
        tag: str,
        overlap_ok: bool,
    ) -> Tuple[List[str], int]:
        """Byte-exactness of one ``size``-byte dataset's deliveries.

        ``rows`` (one session of :meth:`session_rows`) must cover exactly
        seqs ``0..nblocks-1``, each with its expected length and the
        :class:`PatternSource` payload for ``tag``.  A block may repeat
        only as an identical copy, and only when ``overlap_ok`` (the
        session re-sent a prefix the sink had already consumed: a resume,
        fallback or repromotion) — divergent re-delivery is corruption.
        Returns ``(problems, overlap_bytes)``, the latter being the bytes
        repeated copies carried beyond the first.

        One pass files each row under its seq in three per-seq arrays:
        the first copy's row number, and how many later copies were
        identical or divergent.  No per-block object is built unless a
        problem needs a row's values spelled out.
        """
        total_blocks = -(-size // block_size)
        first = array("q", (-1,)) * total_blocks
        same = array("q", (0,)) * total_blocks
        diverged = array("q", (0,)) * total_blocks
        seqs, kept = self._seq, self._kept
        exact = True
        for r in rows:
            if r in kept:
                try:  # by equality, as a dict key would match
                    seq = range(total_blocks).index(kept[r][0].seq)
                except ValueError:
                    exact = False
                    continue
            else:
                seq = seqs[r]
                if not 0 <= seq < total_blocks:
                    exact = False
                    continue
            head = first[seq]
            if head < 0:
                first[seq] = r
            elif self._repeats(head, r):
                same[seq] += 1
            else:
                diverged[seq] += 1
        if not exact or -1 in first:
            # Each distinct seq as it first arrived, as a dict key keeps it.
            delivered = sorted({header.seq for header, _ in self.rows(rows)})
            return [f"{label}: delivered seqs {delivered} != 0..{total_blocks - 1}"], 0
        problems: List[str] = []
        overlap_bytes = 0
        kinds, lengths, tags = self._kind, self._length, self._tags
        for seq, head in enumerate(first):
            expected_len = min(block_size, size - seq * block_size)
            kind = kinds[head]
            if kind == _KEPT:
                header, payload = kept[head]
                length = header.length
                corrupt = payload != (tag, seq, expected_len)
            else:
                length = lengths[head]
                corrupt = kind == _NONE or not (tags[kind] == tag and length == expected_len)
            if length != expected_len:
                problems.append(f"{label}: seq {seq} length {length} != {expected_len}")
            if corrupt:
                _, payload = self._row(head)
                problems.append(f"{label}: seq {seq} payload corrupted ({payload!r})")
            problems += [f"{label}: seq {seq} re-delivered with divergent content"] * diverged[seq]
            for _ in range(same[seq]):
                overlap_bytes += length
            if (same[seq] or diverged[seq]) and not overlap_ok:
                problems.append(f"{label}: seq {seq} delivered twice where no overlap is allowed")
        return problems, overlap_bytes

    def _repeats(self, first: int, copy: int) -> bool:
        """Whether row ``copy`` is an identical copy of row ``first`` of
        the same session and seq."""
        if first in self._kept or copy in self._kept:
            original, again = self.rows((first, copy))
            return not again != original
        return (
            self._kind[copy] == self._kind[first]
            and self._offset[copy] == self._offset[first]
            and self._length[copy] == self._length[first]
            and self._checksum[copy] == self._checksum[first]
        )


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
        header: Optional[BlockHeader] = None,
        payload: Any = None,
    ) -> Generator:
        yield from self.disk.write(thread, nbytes, direct=self.direct)
        self.bytes_written += nbytes
