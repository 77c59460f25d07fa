"""A shared drop-tail bottleneck driving round-based TCP dynamics.

Every RTT the bottleneck collects each attached flow's offered window,
serves up to one bandwidth-delay product plus the queue it can absorb,
and — on overflow — marks a minimal random subset of flows with a loss,
which models the partial (de)synchronisation of drop-tail queues that
makes parallel streams outperform a single stream on long paths.  Sums
run in numpy's order (:func:`_sum`), draws come from a ``Pcg64``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, List, Optional, Protocol

from repro.sim.rng import Pcg64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Bottleneck", "FluidFlow"]


class FluidFlow(Protocol):
    """What the bottleneck needs from an attached flow."""

    def offered_bytes(self) -> float:
        """Bytes the flow would send this round (cwnd-, data-, rwnd-capped)."""

    def round_result(self, delivered: float, lost: bool, now: float, rtt: float) -> None:
        """Deliver the round's outcome back to the flow."""


def _sum(values: List[float]) -> float:
    """``numpy.add.reduce``'s float64 order: up to 128 terms, 8 strided partial
    sums (combined pairwise) over the first multiple of 8, then the rest."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(values[:half]) + _sum(values[half:])
    body = n - n % 8
    total = 0.0
    if body:
        r = values[:8]
        for i in range(8, body):
            r[i % 8] += values[i]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in values[body:]:
        total += x
    return total


class Bottleneck:
    """The shared queue of a WAN path (capacity in bytes/second)."""

    def __init__(
        self,
        engine: "Engine",
        capacity_bytes_per_second: float,
        rtt: float,
        buffer_bytes: Optional[float] = None,
        rng: Optional[Pcg64] = None,
        random_loss_per_byte: float = 0.0,
    ) -> None:
        if capacity_bytes_per_second <= 0:
            raise ValueError("capacity must be positive")
        if rtt <= 0:
            raise ValueError("RTT must be positive")
        if random_loss_per_byte < 0:
            raise ValueError("loss rate must be non-negative")
        self.engine = engine
        self.capacity = capacity_bytes_per_second
        self.rtt = rtt
        #: Router buffer; the classic provisioning rule is one BDP.
        bdp = capacity_bytes_per_second * rtt
        self.buffer_bytes = bdp if buffer_bytes is None else buffer_bytes
        #: Background loss probability per byte — long-haul circuits are
        #: not loss-free, and loss sensitivity is exactly what separates a
        #: single TCP stream from a parallel aggregate on a 49 ms path.
        self.random_loss_per_byte = random_loss_per_byte
        self.rng = rng if rng is not None else Pcg64(0)
        self._flows: List[FluidFlow] = []
        self._queue = 0.0
        self._running = False
        reg = engine.metrics
        labels = {"i": reg.sequence("bottleneck")}
        self.bytes_served = reg.counter("tcp.bottleneck_bytes_served", **labels)
        self.bytes_dropped = reg.counter("tcp.bottleneck_bytes_dropped", **labels)
        self._m_loss_rounds = reg.counter("tcp.bottleneck_loss_rounds", **labels)
        reg.gauge_fn("tcp.bottleneck_queue_bytes", lambda: self._queue, **labels)

    def attach(self, flow: FluidFlow) -> None:
        self._flows.append(flow)
        self.ensure_running()

    def detach(self, flow: FluidFlow) -> None:
        if flow in self._flows:
            self._flows.remove(flow)

    def ensure_running(self) -> None:
        """(Re)start the round loop — call when a parked flow gets data.  The
        loop parks itself when every flow is idle so that a finished run can
        drain its event queue; connections poke it from ``send``/``recv``."""
        if not self._running and self._flows:
            self._running = True
            self.engine.process(self._round_loop())

    # -- the per-RTT round -----------------------------------------------------
    def _round_loop(self) -> Generator:
        idle_rounds = 0
        engine = self.engine
        while self._flows and idle_rounds < 2:
            progressed = self._step_round()
            idle_rounds = 0 if progressed else idle_rounds + 1
            yield engine.timeout_at(engine.now + self.rtt)
        self._running = False
        # A flow may have buffered data during the final idle sleep (its poke
        # saw ``_running`` still True): re-arm rather than strand that data
        # until a next poke that, for a sender already returned, never comes.
        if any(f.offered_bytes() > 0.0 for f in self._flows):
            self.ensure_running()

    def _step_round(self) -> bool:
        flows = list(self._flows)
        arrivals = [max(f.offered_bytes(), 0.0) for f in flows]
        total = _sum(arrivals)

        # Queue evolution: arrivals join the backlog; one round of capacity drains it.
        backlog = self._queue + total
        queue_after = backlog - min(backlog, self.capacity * self.rtt)
        overflow = max(0.0, queue_after - self.buffer_bytes)
        self._queue = min(queue_after, self.buffer_bytes)

        dropped = [0.0] * len(flows)
        if overflow > 0.0 and total > 0.0:
            self._m_loss_rounds.add()
            self._mark_losses(arrivals, overflow, dropped)
            self.engine.trace(
                "tcp", "overflow",
                overflow=int(overflow), queue=int(self._queue), flows=len(flows),
            )

        # Independent background loss per flow (transient path errors).
        rate = self.random_loss_per_byte
        if rate > 0.0 and total > 0.0:
            for i, arrived in enumerate(arrivals):
                if self.rng.random() < 1.0 - math.exp(-arrived * rate):
                    # A handful of segments retransmitted: negligible goodput
                    # loss, but the congestion window takes the cut.
                    dropped[i] = max(dropped[i], 1.0)

        delivered = [max(a - d, 0.0) for a, d in zip(arrivals, dropped)]
        self.bytes_served.add(_sum(delivered))
        self.bytes_dropped.add(_sum(dropped))
        now = self.engine.now
        for flow, dlv, drp in zip(flows, delivered, dropped):
            flow.round_result(dlv, drp > 0.0, now, self.rtt)
        return total > 0.0 or self._queue > 0.0

    def _mark_losses(self, arrivals: List[float], overflow: float, dropped: List[float]) -> None:
        """Pick a minimal random set of flows to take the loss (in ``dropped``).

        Marking stops once the *projected* window reduction of the marked
        flows (a conservative 30 % of their arrival) covers the overflow,
        so under small overloads only some flows back off — the
        desynchronisation that lets stream aggregates hold utilisation.
        """
        marked: List[int] = []
        projected = 0.0
        for idx in self.rng.permutation(len(arrivals)):
            if arrivals[idx] > 0.0:
                marked.append(idx)
                projected += 0.3 * arrivals[idx]
                if projected >= overflow:
                    break
        marked_total = _sum([arrivals[idx] for idx in marked])
        for idx in marked:
            dropped[idx] = min(overflow * arrivals[idx] / marked_total, arrivals[idx])
