"""RFTP: the paper's RDMA-enabled FTP, as a thin application layer.

RFTP is deliberately small — the heavy lifting (credit flow control,
parallel QPs, reassembly, zero-copy block management) lives in the
middleware.  The server binds a data sink behind a listening port; the
client issues ``put`` transfers.  ``run_rftp`` is the one-call harness
used by the examples and benchmarks: it wires a client/server pair onto
a testbed, runs the transfer, and reports bandwidth plus nmon-style CPU
utilisation for both hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.apps.io import NullSink, ZeroSource
from repro.core import ProtocolConfig, RdmaMiddleware, TransferOutcome
from repro.testbeds import Testbed

__all__ = ["RftpServer", "RftpClient", "RftpResult", "run_rftp"]


class RftpServer:
    """The receiving daemon: middleware + a data sink."""

    def __init__(
        self,
        testbed: Testbed,
        config: Optional[ProtocolConfig] = None,
        sink: Any = None,
    ) -> None:
        self.testbed = testbed
        self.config = config or ProtocolConfig()
        self.sink = sink if sink is not None else NullSink(testbed.dst)
        self.middleware = RdmaMiddleware(
            testbed.dst, testbed.dst_dev, testbed.cm, self.config
        )

    def start(self, port: int = 2811) -> None:
        """Begin accepting sessions on ``port``."""
        self.middleware.serve(port, self.sink)


class RftpClient:
    """The sending side: middleware + a data source."""

    def __init__(
        self,
        testbed: Testbed,
        config: Optional[ProtocolConfig] = None,
        source: Any = None,
    ) -> None:
        self.testbed = testbed
        self.config = config or ProtocolConfig()
        self.source = source if source is not None else ZeroSource(testbed.src)
        self.middleware = RdmaMiddleware(
            testbed.src, testbed.src_dev, testbed.cm, self.config
        )

    def put(self, total_bytes: int, port: int = 2811):
        """Process event resolving to a
        :class:`~repro.core.middleware.TransferOutcome`.

        The testbed's TCP connector rides along as the degraded-mode
        transport: a put that loses every data channel falls back to a
        TCP stream through the same fabric instead of aborting.
        """
        return self.middleware.transfer(
            self.testbed.dst_dev,
            port,
            self.source,
            total_bytes,
            tcp_factory=self.testbed.tcp_connection,
        )

    def put_many(self, file_sizes, port: int = 2811, concurrent: bool = False):
        """Transfer several files over ONE connection set (§IV-C multi-
        session).  Process event resolving to a list of
        :class:`~repro.core.middleware.TransferOutcome`, in input order.

        ``concurrent=True`` launches every file as a simultaneous session
        (interleaved on the shared data QPs, reassembled per session);
        otherwise files go back-to-back, still reusing the link.
        """
        sizes = list(file_sizes)
        if not sizes:
            raise ValueError("put_many needs at least one file")
        mw = self.middleware
        testbed = self.testbed

        def _run():
            link = yield mw.open_link(
                testbed.dst_dev, port, tcp_factory=testbed.tcp_connection
            )
            events = []
            if concurrent:
                events = [
                    mw.transfer(
                        testbed.dst_dev, port, self.source, size, link=link
                    )
                    for size in sizes
                ]
            outcomes = []
            for i, size in enumerate(sizes):
                if concurrent:
                    outcomes.append((yield events[i]))
                else:
                    outcomes.append(
                        (
                            yield mw.transfer(
                                testbed.dst_dev, port, self.source, size, link=link
                            )
                        )
                    )
            return outcomes

        return mw.engine.process(_run())


@dataclass(frozen=True)
class RftpResult:
    """One completed RFTP run with host-level measurements."""

    outcome: TransferOutcome
    #: Application goodput, Gbps.
    gbps: float
    #: Client (source) host CPU, percent of one core (nmon convention),
    #: application threads only.
    client_cpu_pct: float
    #: Server (sink) host CPU, same convention.
    server_cpu_pct: float
    elapsed: float


def run_rftp(
    testbed: Testbed,
    total_bytes: int,
    config: Optional[ProtocolConfig] = None,
    source: Any = None,
    sink: Any = None,
    port: int = 2811,
) -> RftpResult:
    """Wire an RFTP pair on ``testbed``, run a put, measure everything.

    CPU accounting is reset when the transfer enters its data phase so
    utilisation reflects steady-state transfer, not setup.
    """
    cfg = config or ProtocolConfig()
    server = RftpServer(testbed, cfg, sink)
    server.start(port)
    client = RftpClient(testbed, cfg, source)

    # Reset CPU accounting as late as possible before the data phase; the
    # negotiation handshake is microseconds, so resetting here is exact
    # enough for multi-second transfers.
    testbed.src.cpu.reset_accounting()
    testbed.dst.cpu.reset_accounting()

    done = client.put(total_bytes, port)

    # Capture CPU utilisation at the instant the transfer completes, not
    # after the engine drains: recovery watchdogs and the sink's session
    # GC leave timers on the heap that extend ``engine.now`` past the
    # transfer end and would dilute busy/span utilisation.
    cpu_at_done = {}

    def _capture(event) -> None:
        if not event._ok:
            event.defuse()  # typed error re-raised below
        cpu_at_done["client"] = testbed.src.cpu.utilization_pct()
        cpu_at_done["server"] = testbed.dst.cpu.utilization_pct()

    done.add_callback(_capture)
    testbed.engine.run()
    if not done.triggered:
        raise RuntimeError("transfer did not complete (deadlock?)")
    if not done.ok:
        raise done.value
    outcome: TransferOutcome = done.value
    return RftpResult(
        outcome=outcome,
        gbps=outcome.gbps,
        client_cpu_pct=cpu_at_done["client"],
        server_cpu_pct=cpu_at_done["server"],
        elapsed=outcome.elapsed,
    )
