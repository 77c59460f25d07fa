"""A unidirectional network link with serialisation and propagation."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Link"]


class Link:
    """One direction of a cable or provisioned circuit.

    Parameters
    ----------
    gbps:
        Line rate in gigabits per second.
    delay:
        One-way propagation delay in seconds.
    mtu:
        Maximum transmission unit in bytes.  A path's MTU is its smallest
        link's; RC transfers are segmented by hardware below the
        granularity we simulate, so nothing is checked against it.
    name:
        Label for tracing and error messages.
    """

    def __init__(
        self,
        engine: "Engine",
        gbps: float,
        delay: float = 0.0,
        mtu: int = 9000,
        name: str = "link",
    ) -> None:
        if gbps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay must be non-negative")
        self.engine = engine
        self.gbps = gbps
        self.bytes_per_second = gbps * 1e9 / 8.0
        self.delay = delay
        self.mtu = mtu
        self.name = name
        self._wire = Resource(engine, capacity=1)
        #: Fluid busy-until horizon for the wire (absolute sim time).
        #: ``start = max(arrival, free); end = start + service`` is the
        #: same float chain the discrete request/timeout/release path
        #: produces, so fluid completions are bit-identical.
        self._fluid_free = 0.0
        #: How many :class:`~repro.network.fabric.Path` objects serialise
        #: through this link — whole-path chain booking is only sound for
        #: a link owned by exactly one path.
        self._path_uses = 0
        #: Set once a flap is injected: paths stop booking whole-path
        #: chains and fall back to per-hop reservations, which model the
        #: outage window.
        self._flap_seen = False
        reg = engine.metrics
        labels = {"link": name, "i": reg.sequence("link")}
        self.bytes_sent = reg.counter("link.bytes_sent", **labels)
        self.flap_stalls = reg.counter("link.flap_stalls", **labels)
        self.latency_spikes = reg.counter("link.latency_spikes", **labels)
        #: Absolute sim time until which the link is down (flap injection).
        self._down_until = 0.0
        #: Optional fault hook ``(nbytes) -> float``: extra serialisation
        #: delay in seconds (latency spike), 0.0 for a clean transit.
        self.fault_hook = None

    def fail_for(self, duration: float) -> None:
        """Take the link down for ``duration`` seconds (a flap).

        In-flight serialisation finishes (bits already on the wire); new
        transmissions stall until the link comes back.  Overlapping flaps
        extend the outage.
        """
        if duration <= 0:
            raise ValueError("flap duration must be positive")
        self._down_until = max(self._down_until, self.engine.now + duration)
        self._flap_seen = True
        self.engine.trace("link", "flap", name=self.name, until=self._down_until)

    def serialize(self, nbytes: int) -> Generator:
        """Process generator: occupy the wire while ``nbytes`` serialise.

        Propagation delay is *not* included; multi-hop paths add the summed
        propagation once (see :class:`~repro.network.fabric.Path`).
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if nbytes == 0:
            return
        engine = self.engine
        if engine.use_fluid and self.fault_hook is None:
            # Fluid fast path: book the wire analytically and sleep once
            # until the completion instant.  The arrival loop replicates
            # the discrete stall loop's float arithmetic (and stall
            # counts) for a flap that is already in force; a flap
            # injected *while* a reservation is parked is absorbed
            # optimistically (bits treated as already scheduled) — the
            # fault injector therefore arms a hook on flap-armed links,
            # which keeps them discrete, where the outage semantics are
            # exact.
            arrival = engine.now
            while arrival < self._down_until:
                self.flap_stalls.add()
                arrival = arrival + (self._down_until - arrival)
            free = self._fluid_free
            start = arrival if arrival > free else free
            end = start + nbytes / self.bytes_per_second
            self._fluid_free = end
            yield engine.timeout_at(end)
            self.bytes_sent.add(nbytes)
            return
        while self.engine.now < self._down_until:
            self.flap_stalls.add()
            yield self.engine.timeout(self._down_until - self.engine.now)
        yield self._wire.request()
        try:
            # A flap may have started while we queued for the wire.
            while self.engine.now < self._down_until:
                self.flap_stalls.add()
                yield self.engine.timeout(self._down_until - self.engine.now)
            delay = nbytes / self.bytes_per_second
            if self.fault_hook is not None:
                spike = self.fault_hook(nbytes)
                if spike > 0:
                    self.latency_spikes.add()
                    delay += spike
            yield self.engine.timeout(delay)
        finally:
            self._wire.release()
        self.bytes_sent.add(nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.gbps}Gbps delay={self.delay * 1e3:.3f}ms>"
