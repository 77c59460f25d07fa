"""PCIe bus model.

Every DMA between a NIC and host memory crosses the host's PCIe bus, a
FIFO resource with finite effective bandwidth.  On the paper's InfiniBand
testbed the eight-lane PCIe 2.0 slot — not the 40 Gbps link — is the
bare-metal ceiling (~25 Gbps), and this model is what reproduces that
ceiling in Figure 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["PcieBus"]


class PcieBus:
    """A shared, FIFO-serialised DMA path between NICs and memory."""

    def __init__(self, engine: "Engine", gbps: float) -> None:
        if gbps <= 0:
            raise ValueError("PCIe bandwidth must be positive")
        self.engine = engine
        self.gbps = gbps
        self.bytes_per_second = gbps * 1e9 / 8.0
        self._bus = Resource(engine, capacity=1)
        #: Fluid busy-until horizon: absolute time the bus frees up.
        #: ``start = max(now, free); end = start + service`` reproduces
        #: the exact floats of the discrete request/timeout/release
        #: chain, so DMA completions are bit-identical in both modes.
        self._fluid_free = 0.0
        self.bytes_moved = 0

    def book(self, nbytes: int) -> float:
        """Fluid form of :meth:`dma`: book the bus and return the instant
        the DMA ends; the caller sleeps until then and adds to
        :attr:`bytes_moved`."""
        free = self._fluid_free
        now = self.engine.now
        start = now if now > free else free
        self._fluid_free = end = start + nbytes / self.bytes_per_second
        return end

    def dma(self, nbytes: int) -> Generator:
        """Process generator: move ``nbytes`` across the bus (FIFO)."""
        if nbytes < 0:
            raise ValueError("DMA size must be non-negative")
        if nbytes == 0:
            return
        engine = self.engine
        if engine.use_fluid:
            yield engine.timeout_at(self.book(nbytes))
        else:
            yield self._bus.request()
            try:
                yield engine.timeout(nbytes / self.bytes_per_second)
            finally:
                self._bus.release()
        self.bytes_moved += nbytes
