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
        #: Busy-until horizon of the wire's chain bookings (absolute sim
        #: time), advanced by :meth:`~repro.network.fabric.Path.book`.
        #: ``start = max(arrival, free); end = start + service`` is the
        #: same float chain the discrete request/timeout/release path
        #: produces, so booked completions are bit-identical.
        self._fluid_free = 0.0
        #: How many :class:`~repro.network.fabric.Path` objects serialise
        #: through this link — whole-path chain booking is only sound for
        #: a link owned by exactly one path.
        self._path_uses = 0
        #: Set once a flap is injected: paths stop booking whole-path
        #: chains and fall back to per-hop :meth:`serialize`, which models
        #: the outage window.
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

        This is the exact per-hop path every transfer takes whose path is
        not :meth:`~repro.network.fabric.Path.chain_ok`.  Once granted the
        wire it also waits out ``_fluid_free``: a chain booking made
        before the link left chain mode (a hook-less :meth:`fail_for`)
        still owns the wire until then, as a discrete transfer in flight
        would.  Propagation delay is *not* included; multi-hop paths add
        the summed propagation once (see
        :class:`~repro.network.fabric.Path`).
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if nbytes == 0:
            return
        engine = self.engine
        while engine.now < self._down_until:
            self.flap_stalls.add()
            yield engine.timeout(self._down_until - engine.now)
        yield self._wire.request()
        try:
            if self._fluid_free > engine.now:
                yield engine.timeout_at(self._fluid_free)
            # A flap may have started while we queued for the wire.
            while engine.now < self._down_until:
                self.flap_stalls.add()
                yield engine.timeout(self._down_until - engine.now)
            delay = nbytes / self.bytes_per_second
            if self.fault_hook is not None:
                spike = self.fault_hook(nbytes)
                if spike > 0:
                    self.latency_spikes.add()
                    delay += spike
            yield engine.timeout(delay)
        finally:
            self._wire.release()
        self.bytes_sent.add(nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.gbps}Gbps delay={self.delay * 1e3:.3f}ms>"
