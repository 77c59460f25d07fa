"""Network interface card (RDMA HCA) hardware model.

The NIC is the protocol-offload engine: once the host posts a work-queue
element (WQE), the NIC fetches payload over PCIe, segments and transmits
it, and raises a completion — with **zero host CPU per byte**.  What the
host *does* pay for is captured elsewhere (verbs call costs, interrupt
handling); what the NIC itself costs is captured here:

- ``wqe_seconds``: NIC-side processing time per WQE.  This caps the
  message rate and is why tiny blocks cannot saturate a 40 Gbps link
  (Figures 3/4: the rising left edge of every bandwidth curve).
- ``read_gap_seconds``: extra per-request gap in the responder's RDMA READ
  engine, which is less pipelined than the send path.  Combined with the
  ``max_ord`` outstanding-read limit this reproduces READ's deficit versus
  WRITE in the LAN and its collapse over long-RTT WANs (the observation
  from the paper's refs [17][18] that motivates the WRITE-based design).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.sim.events import Timeout
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.hardware.host import Host

__all__ = ["Nic", "NicProfile"]


@dataclass(frozen=True)
class NicProfile:
    """Static NIC hardware parameters."""

    #: Line rate in Gbps (e.g. 40 for the LAN HCAs, 10 for the ANI WAN).
    gbps: float
    #: NIC processing time per work-queue element, seconds.
    wqe_seconds: float = 1.2e-6
    #: Responder read-engine pipeline gap per RDMA READ request, seconds.
    read_gap_seconds: float = 8.0e-6
    #: Maximum outstanding RDMA READs a QP may have in flight (ORD/IRD).
    max_ord: int = 16
    #: Number of parallel WQE-processing pipelines.
    engines: int = 2
    #: Interface MTU in bytes (bounds UD datagrams).
    mtu: int = 9000

    def __post_init__(self) -> None:
        if self.gbps <= 0:
            raise ValueError("NIC rate must be positive")
        if self.max_ord < 1:
            raise ValueError("max_ord must be >= 1")
        if self.engines < 1:
            raise ValueError("engines must be >= 1")

    @property
    def bytes_per_second(self) -> float:
        return self.gbps * 1e9 / 8.0


class Nic:
    """A NIC instance bound to one host.

    Provides the hardware-timing primitives the simulated verbs layer
    sequences into SEND / WRITE / READ operations.
    """

    def __init__(self, engine: "Engine", host: "Host", profile: NicProfile, name: str) -> None:
        self.engine = engine
        self.host = host
        self.profile = profile
        self.name = name
        self._wqe_pipe = Resource(engine, capacity=profile.engines)
        #: Fluid busy-until horizon per WQE pipeline.  Service times are
        #: uniform (``wqe_seconds``), so booking each WQE on the
        #: earliest-free pipeline reproduces the discrete FIFO grant
        #: order — and the ``max(now, free) + service`` floats — exactly.
        self._wqe_free = [0.0] * profile.engines
        #: The responder's READ engine: one request at a time.  A booked
        #: READ drives it by callbacks on ``request()``; :meth:`serve_read`
        #: is its generator form.
        self.read_engine = Resource(engine, capacity=1)
        self.wqes_processed = 0
        self.read_requests_served = 0

    # -- hardware-timing primitives -------------------------------------------
    def book_wqe(self) -> float:
        """Fluid form of :meth:`process_wqe`: book the earliest-free
        pipeline and return the instant the WQE clears it; the caller
        sleeps until then and adds to :attr:`wqes_processed`."""
        free = self._wqe_free
        i = free.index(min(free))
        now = self.engine.now
        start = now if now > free[i] else free[i]
        free[i] = end = start + self.profile.wqe_seconds
        return end

    def process_wqe(self) -> Generator:
        """Occupy a NIC pipeline for one WQE's processing time."""
        engine = self.engine
        if engine.use_fluid:
            yield engine.timeout_at(self.book_wqe())
        else:
            yield self._wqe_pipe.request()
            try:
                yield engine.timeout(self.profile.wqe_seconds)
            finally:
                self._wqe_pipe.release()
        self.wqes_processed += 1

    def serve_read(self, nbytes: int) -> Generator:
        """Serve one RDMA READ request through the responder read engine.

        Unlike the send path (where WQE processing and DMA pipeline
        freely), the read responder processes requests one at a time:
        the per-request gap *and* the payload DMA (a fetch from host
        memory over the host's PCIe bus) occupy the engine serially,
        which is what keeps READ below WRITE at small and medium block
        sizes.
        """
        yield self.read_engine.request()
        try:
            yield Timeout(self.engine, self.profile.read_gap_seconds)
            yield from self.host.pcie.dma(nbytes)
        finally:
            self.read_engine.release()
        self.read_requests_served += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name} {self.profile.gbps}Gbps on {self.host.name}>"
