"""A shared drop-tail bottleneck driving round-based TCP dynamics.

Every RTT the bottleneck collects each attached flow's offered window,
serves up to one bandwidth-delay product plus the queue it can absorb,
and — on overflow — marks a minimal random subset of flows with a loss,
which models the partial (de)synchronisation of drop-tail queues that
makes parallel streams outperform a single stream on long paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy loads on first use
    import numpy as np

    from repro.sim.engine import Engine

__all__ = ["Bottleneck", "FluidFlow"]


class FluidFlow(Protocol):
    """What the bottleneck needs from an attached flow."""

    def offered_bytes(self) -> float:
        """Bytes the flow would send this round (cwnd-, data-, rwnd-capped)."""

    def round_result(self, delivered: float, lost: bool, now: float, rtt: float) -> None:
        """Deliver the round's outcome back to the flow."""


class Bottleneck:
    """The shared queue of a WAN path (capacity in bytes/second)."""

    def __init__(
        self,
        engine: "Engine",
        capacity_bytes_per_second: float,
        rtt: float,
        buffer_bytes: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
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
        self.buffer_bytes = (
            buffer_bytes if buffer_bytes is not None else capacity_bytes_per_second * rtt
        )
        #: Background loss probability per byte — long-haul circuits are
        #: not loss-free, and loss sensitivity is exactly what separates a
        #: single TCP stream from a parallel aggregate on a 49 ms path.
        self.random_loss_per_byte = random_loss_per_byte
        if rng is None:
            import numpy as np

            rng = np.random.default_rng(0)
        self.rng = rng
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
        """(Re)start the round loop — call when a parked flow gets data.

        The loop parks itself when every flow is idle so that a finished
        simulation can drain its event queue; connections poke it from
        ``send``/``recv``.
        """
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
        # A flow may have buffered data during the final idle sleep — its
        # send-side poke saw ``_running`` still True and was a no-op.
        # Re-arm rather than strand that data until the next poke (which,
        # for a sender that already returned, never comes).
        if any(f.offered_bytes() > 0.0 for f in self._flows):
            self.ensure_running()

    def _step_round(self) -> bool:
        import numpy as np

        now = self.engine.now
        flows = list(self._flows)
        arrivals = np.array([max(f.offered_bytes(), 0.0) for f in flows])
        total = float(arrivals.sum())
        cap_round = self.capacity * self.rtt

        # Queue evolution: this round's arrivals join the backlog; one
        # round's worth of capacity drains it.
        backlog = self._queue + total
        served = min(backlog, cap_round)
        queue_after = backlog - served
        overflow = max(0.0, queue_after - self.buffer_bytes)
        self._queue = min(queue_after, self.buffer_bytes)

        dropped = np.zeros(len(flows))
        if overflow > 0.0 and total > 0.0:
            self._m_loss_rounds.add()
            dropped = self._mark_losses(flows, arrivals, overflow)
            self.engine.trace(
                "tcp", "overflow",
                overflow=int(overflow), queue=int(self._queue), flows=len(flows),
            )

        # Independent background loss per flow (transient path errors).
        if self.random_loss_per_byte > 0.0 and total > 0.0:
            p_loss = 1.0 - np.exp(-arrivals * self.random_loss_per_byte)
            hits = self.rng.random(len(flows)) < p_loss
            for i in np.nonzero(hits)[0]:
                # A handful of segments retransmitted: negligible goodput
                # loss, but the congestion window takes the cut.
                dropped[i] = max(dropped[i], 1.0)

        delivered = np.maximum(arrivals - dropped, 0.0)
        self.bytes_served.add(float(delivered.sum()))
        self.bytes_dropped.add(float(dropped.sum()))
        for flow, dlv, drp in zip(flows, delivered, dropped):
            flow.round_result(float(dlv), bool(drp > 0.0), now, self.rtt)
        return total > 0.0 or self._queue > 0.0

    def _mark_losses(
        self, flows: List[FluidFlow], arrivals: np.ndarray, overflow: float
    ) -> np.ndarray:
        """Pick a minimal random set of flows to take the loss.

        Marking stops once the *projected* window reduction of the marked
        flows (a conservative 30 % of their arrival) covers the overflow,
        so under small overloads only some flows back off — the
        desynchronisation that lets stream aggregates hold utilisation.
        """
        import numpy as np

        order = [i for i in self.rng.permutation(len(flows)) if arrivals[i] > 0.0]
        marked: List[int] = []
        projected = 0.0
        for idx in order:
            marked.append(idx)
            projected += 0.3 * arrivals[idx]
            if projected >= overflow:
                break
        dropped = np.zeros(len(flows))
        marked_total = float(arrivals[marked].sum())
        for idx in marked:
            dropped[idx] = overflow * arrivals[idx] / marked_total
            dropped[idx] = min(dropped[idx], arrivals[idx])
        return dropped
