"""TCP connections: the socket-like API the GridFTP model is written to.

A connection charges the *application* costs (user/kernel copy, syscalls)
to the calling thread — the cost that pins GridFTP's single thread — and
the *kernel* per-byte costs (softirq, skb handling) as background CPU on
both hosts, which is why the paper's nmon traces show GridFTP consuming
more than one core in total.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.resources import Container
from repro.tcp.bic import Bic
from repro.tcp.congestion import CongestionControl, Reno
from repro.tcp.cubic import Cubic
from repro.tcp.htcp import HTcp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cpu import CpuThread
    from repro.hardware.host import Host
    from repro.network.fabric import DuplexPath
    from repro.sim.engine import Engine
    from repro.tcp.bottleneck import Bottleneck

__all__ = ["TcpConnection", "TcpMode", "make_congestion_control"]

_ALGORITHMS = {
    "reno": Reno,
    "cubic": Cubic,
    "bic": Bic,
    "htcp": HTcp,
}


def make_congestion_control(name: str, mss: int = 8948) -> CongestionControl:
    """Instantiate a congestion-control algorithm by its Linux name."""
    try:
        cls = _ALGORITHMS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; known: {sorted(_ALGORITHMS)}"
        ) from None
    return cls(mss=mss)


class TcpMode(enum.Enum):
    #: LAN fast path: stream chunks through the real links (CPU-bound regime).
    PIPE = "pipe"
    #: WAN: round-based congestion-window fluid simulation.
    FLUID = "fluid"


class TcpConnection:
    """One TCP connection between two simulated hosts.

    Parameters
    ----------
    path:
        Duplex fabric path (required for :attr:`TcpMode.PIPE`; used for
        RTT bookkeeping in both modes when given).
    bottleneck:
        Shared :class:`~repro.tcp.bottleneck.Bottleneck` (required for
        :attr:`TcpMode.FLUID`).
    sndbuf / rcvbuf:
        Socket buffer sizes in bytes.  The paper tunes these to the BDP.
    """

    #: Granularity of the pipe-mode pump.
    PIPE_CHUNK = 256 * 1024

    def __init__(
        self,
        engine: "Engine",
        src: "Host",
        dst: "Host",
        mode: TcpMode,
        cc: str = "cubic",
        mss: int = 8948,
        path: Optional["DuplexPath"] = None,
        bottleneck: Optional["Bottleneck"] = None,
        sndbuf: float = 64 * 1024 * 1024,
        rcvbuf: float = 64 * 1024 * 1024,
    ) -> None:
        self.engine = engine
        self.src = src
        self.dst = dst
        self.mode = mode
        self.cc = make_congestion_control(cc, mss)
        self.path = path
        self.bottleneck = bottleneck
        self._sndbuf = Container(engine, capacity=sndbuf)
        self._rcvbuf = Container(engine, capacity=rcvbuf)
        reg = engine.metrics
        labels = {"cc": cc, "i": reg.sequence("tcp_connection")}
        self.bytes_delivered = reg.counter("tcp.bytes_delivered", **labels)
        reg.gauge_fn("tcp.losses", lambda: self.cc.losses, **labels)
        reg.gauge_fn("tcp.cwnd_bytes", lambda: self.cc.cwnd_bytes, **labels)
        self._closed = False

        if mode is TcpMode.PIPE:
            if path is None:
                raise ValueError("PIPE mode requires a fabric path")
            engine.process(self._pipe_pump())
        elif mode is TcpMode.FLUID:
            if bottleneck is None:
                raise ValueError("FLUID mode requires a bottleneck")
            bottleneck.attach(self)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown mode {mode!r}")

    # -- application-facing API ---------------------------------------------------
    def send(self, thread: "CpuThread", nbytes: int) -> Generator:
        """Process generator: write ``nbytes`` to the socket.

        Charges the user→kernel copy and one syscall to ``thread`` and
        blocks while the send buffer is full (backpressure).  Returns at
        once, the rest unsent, when the connection is closed under it.
        """
        if self._closed:
            raise RuntimeError("send on closed connection")
        spec = self.src.spec
        yield thread.exec(spec.syscall_seconds)
        # A single send() larger than the socket buffer trickles in as the
        # buffer drains, exactly like the real syscall; the user→kernel
        # copy is paid per chunk as the copy actually proceeds.
        remaining = nbytes
        max_chunk = max(min(self._sndbuf.capacity / 4.0, 4 * 1024 * 1024), 1.0)
        while remaining > 0:
            chunk = min(remaining, max_chunk)
            yield thread.exec(chunk * spec.memcpy_ns_per_byte * 1e-9)
            if self._closed:
                return
            yield self._sndbuf.put(chunk)
            if self._closed:
                return
            remaining -= chunk
            if self.mode is TcpMode.FLUID and self.bottleneck is not None:
                self.bottleneck.ensure_running()

    def recv(self, thread: "CpuThread", nbytes: int) -> Generator:
        """Process generator: read exactly ``nbytes`` from the socket.

        Blocks until that much data has been delivered; charges the
        kernel→user copy and one syscall to ``thread``.
        """
        spec = self.dst.spec
        yield thread.exec(spec.syscall_seconds)
        remaining = nbytes
        max_chunk = max(min(self._rcvbuf.capacity / 4.0, 4 * 1024 * 1024), 1.0)
        while remaining > 0:
            chunk = min(remaining, max_chunk)
            yield self._rcvbuf.get(chunk)
            yield thread.exec(chunk * spec.memcpy_ns_per_byte * 1e-9)
            remaining -= chunk
            if self.mode is TcpMode.FLUID and self.bottleneck is not None:
                # Freed receive-window space may unblock a parked sender.
                self.bottleneck.ensure_running()

    def close(self) -> None:
        """Detach from the bottleneck / stop pumping new data, and let a
        sender parked on the full send buffer return."""
        self._closed = True
        self._sndbuf.release_putters()
        if self.mode is TcpMode.FLUID and self.bottleneck is not None:
            self.bottleneck.detach(self)

    # -- kernel cost accounting ---------------------------------------------------
    def _charge_kernel(self, nbytes: float) -> None:
        self.src.cpu.charge_background(
            nbytes * self.src.spec.tcp_kernel_ns_per_byte * 1e-9, "kernel"
        )
        self.dst.cpu.charge_background(
            nbytes * self.dst.spec.tcp_kernel_ns_per_byte * 1e-9, "kernel"
        )

    # -- PIPE mode: stream through the fabric links ----------------------------------
    def _pipe_pump(self) -> Generator:
        assert self.path is not None
        forward = self.path.forward
        while True:
            if self._closed and self._sndbuf.level == 0:
                return
            chunk = min(self.PIPE_CHUNK, self._sndbuf.level)
            if chunk <= 0:
                # Wait for data in small deterministic increments; the
                # chunk cadence bounds added latency to microseconds.
                yield self._sndbuf.get(1)
                chunk = 1 + min(self.PIPE_CHUNK - 1, self._sndbuf.level)
                if chunk > 1:
                    yield self._sndbuf.get(chunk - 1)
            else:
                yield self._sndbuf.get(chunk)
            yield from forward.transmit(int(chunk))
            self._charge_kernel(chunk)
            self.bytes_delivered.add(chunk)
            yield self._rcvbuf.put(chunk)

    # -- FLUID mode: bottleneck round callbacks ------------------------------------
    def offered_bytes(self) -> float:
        rwnd_free = self._rcvbuf.capacity - self._rcvbuf.level
        return min(self.cc.cwnd_bytes, self._sndbuf.level, rwnd_free)

    def round_result(self, delivered: float, lost: bool, now: float, rtt: float) -> None:
        if delivered > 0:
            # Remove from the send side and land on the receive side.
            taken = min(delivered, self._sndbuf.level)
            if taken > 0:
                self._sndbuf.get(taken)
                self._charge_kernel(taken)
                self.bytes_delivered.add(taken)
                self._rcvbuf.put(taken)
        if lost:
            self.cc.on_loss(now)
        elif delivered > 0:
            self.cc.on_round_acked(delivered, now, rtt)
