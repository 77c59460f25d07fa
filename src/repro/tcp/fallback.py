"""Framed block transport over a TCP connection (degraded mode).

When every data QP of a :class:`~repro.core.source_link.SourceLink` is
dead, the session negotiates ``TRANSPORT_FALLBACK`` and finishes the
dataset over a :class:`~repro.tcp.connection.TcpConnection` through the
same simulated fabric.  The byte-accurate TCP stack transfers *counts*;
this stream adds the framing the middleware needs: each frame is one
``(BlockHeader, payload)`` block, ``HEADER_BYTES + length`` on the wire,
delivered strictly FIFO.

The object side-channel deque is appended *before* the bytes enter the
send buffer, so by the time the receiver has pulled a frame's first
``HEADER_BYTES`` bytes the matching object is guaranteed to be queued —
the sim idiom for objects riding a byte-accurate transport.

End of the TCP phase (dataset finished, or promotion back to RDMA) is
signalled in-band with a header-sized EOF sentinel, so the sink drains
every preceding block before it answers ``TRANSPORT_RESTORE``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Optional, Tuple

from repro.core.messages import BlockHeader, HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cpu import CpuThread
    from repro.tcp.connection import TcpConnection

__all__ = ["TcpBlockStream"]


class TcpBlockStream:
    """One direction of framed block transfer over a TcpConnection."""

    def __init__(self, conn: "TcpConnection") -> None:
        self.conn = conn
        self._frames: deque = deque()
        self.blocks_sent = 0
        self.blocks_received = 0

    def send_block(
        self, thread: "CpuThread", header: BlockHeader, payload: Any
    ) -> Generator:
        """Frame and send one block (blocks on TCP backpressure)."""
        self._frames.append((header, payload))
        yield from self.conn.send(thread, HEADER_BYTES + header.length)
        self.blocks_sent += 1

    def send_eof(self, thread: "CpuThread") -> Generator:
        """Send the end-of-stream sentinel (one header-sized frame)."""
        self._frames.append(None)
        yield from self.conn.send(thread, HEADER_BYTES)

    def recv_block(
        self, thread: "CpuThread"
    ) -> Generator:
        """Receive the next frame; returns ``(header, payload)`` or
        ``None`` at the EOF sentinel."""
        yield from self.conn.recv(thread, HEADER_BYTES)
        frame: Optional[Tuple[BlockHeader, Any]] = self._frames.popleft()
        if frame is None:
            return None
        header, _payload = frame
        if header.length:
            yield from self.conn.recv(thread, header.length)
        self.blocks_received += 1
        return frame
