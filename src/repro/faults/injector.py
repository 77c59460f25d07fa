"""Hooks a :class:`FaultPlan` into the simulator's injection seams."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.messages import CtrlType
from repro.faults.plan import FaultPlan
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import ControlMessage
    from repro.core.sink_engine import SinkEngine
    from repro.core.source_link import SourceLink
    from repro.testbeds import Testbed
    from repro.verbs.wr import SendWR

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seeded, per-seam fault source.

    Each seam (data plane, control plane, each network link) draws from
    its own BLAKE2b-derived stream of the plan's seed, so enabling one
    fault class never perturbs the sequence another sees — runs stay
    reproducible as plans evolve.

    Wire-up: pass the injector as ``fault_injector`` to
    :meth:`RdmaMiddleware.open_link` / ``transfer`` (arms the data QPs and
    the client control channel), call :meth:`arm_network` on the testbed
    (arms link flaps and latency spikes), and :meth:`arm_source` /
    :meth:`arm_sink` on the endpoints (arms scheduled crashes and data-QP
    kills).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        streams = RandomStreams(plan.seed).spawn("faults")
        self._data_rng = streams.stream("data")
        self._ctrl_rng = streams.stream("ctrl")
        self._link_rng = streams.stream("link")
        self._corrupt_rng = streams.stream("corrupt")
        self._hb_rng = streams.stream("hb")
        self._sched_rng = streams.stream("sched")
        self.write_faults = 0
        self.ctrl_drops = 0
        self.ctrl_delays = 0
        self.latency_spikes = 0
        self.flaps_fired = 0
        self.payload_corruptions = 0
        self.source_crashes_fired = 0
        self.sink_crashes_fired = 0
        self.broker_crashes_fired = 0
        self.qp_kills_fired = 0
        self.heartbeat_drops = 0
        self.fallback_denials = 0
        self.attempt_faults = 0

    def _at(self, engine: Any, when: float, counter: str, act: Any, *args: Any) -> None:
        """Start the process that, at sim time ``when``, counts one in the
        ``counter`` attribute and calls ``act(*args)`` — every scheduled
        fault of the plan (flaps, crashes, QP kills) goes through here."""

        def fire():
            yield engine.timeout(when)
            setattr(self, counter, getattr(self, counter) + 1)
            act(*args)

        engine.process(fire())

    # -- verbs.qp seam ---------------------------------------------------------------
    def data_qp_hook(self, wr: "SendWR") -> bool:
        """``qp.fault_injector`` interface: True fails this WRITE with a
        transient WC error (payload discarded, QP survives)."""
        if self.plan.write_fault_rate <= 0.0:
            return False
        if self._data_rng.random() < self.plan.write_fault_rate:
            self.write_faults += 1
            return True
        return False

    def data_corrupt_hook(self, wr: "SendWR") -> Optional[Any]:
        """``qp.corrupt_injector`` interface: return a tampered payload to
        land at the target instead of the WR's own, or None for clean
        delivery.  The WR still completes OK — the transport CRC passed —
        so only the end-to-end block checksum can detect the damage."""
        if self.plan.payload_corrupt_rate <= 0.0:
            return None
        wire = wr.payload
        if self._corrupt_rng.random() < self.plan.payload_corrupt_rate:
            self.payload_corruptions += 1
            return replace(wire, payload=("bitrot", wire.payload))
        return None

    # -- core.channels seam ------------------------------------------------------------
    def ctrl_hook(self, msg: "ControlMessage") -> Union[None, str, float]:
        """``ControlChannel.fault_hook`` interface: ``"drop"``, a delay in
        seconds, or ``None`` for clean delivery."""
        if msg.type in (CtrlType.PING, CtrlType.PONG):
            # Heartbeats draw from their own seam so enabling (or
            # sweeping) their drop rate never perturbs the ctrl stream.
            if (
                self.plan.heartbeat_drop_rate > 0.0
                and self._hb_rng.random() < self.plan.heartbeat_drop_rate
            ):
                self.heartbeat_drops += 1
                return "drop"
            return None
        if (
            self.plan.ctrl_drop_rate > 0.0
            and msg.type in self.plan.ctrl_droppable
            and self._ctrl_rng.random() < self.plan.ctrl_drop_rate
        ):
            self.ctrl_drops += 1
            return "drop"
        if (
            self.plan.ctrl_delay_rate > 0.0
            and self._ctrl_rng.random() < self.plan.ctrl_delay_rate
        ):
            self.ctrl_delays += 1
            return self.plan.ctrl_delay_seconds
        return None

    # -- network.link seam -------------------------------------------------------------
    def _spike_hook(self, nbytes: int) -> float:
        if (
            self.plan.latency_spike_rate > 0.0
            and self._link_rng.random() < self.plan.latency_spike_rate
        ):
            self.latency_spikes += 1
            return self.plan.latency_spike_seconds
        return 0.0

    def arm_network(self, testbed: "Testbed") -> None:
        """Attach latency-spike hooks to every link of the testbed's path
        and schedule the plan's link flaps (both directions at once)."""
        links = list(testbed.duplex.forward.links) + list(
            testbed.duplex.backward.links
        )
        if self.plan.latency_spike_rate > 0.0 or self.plan.link_flaps:
            # A link with a hook runs discrete: outage/spike timing
            # interacts with wire occupancy in ways the fluid booking
            # only approximates, and chaos runs assert exact semantics.
            # With no spike rate the hook returns 0.0 and draws nothing.
            for link in links:
                link.fault_hook = self._spike_hook

        def flap(duration: float) -> None:
            for link in links:
                link.fail_for(duration)

        for start, duration in self.plan.link_flaps:
            self._at(testbed.engine, start, "flaps_fired", flap, duration)

    # -- endpoint seams ----------------------------------------------------------------
    def arm_source(self, link: "SourceLink") -> None:
        """Schedule the plan's source crashes and data-QP kills on one
        client link."""
        for when in self.plan.source_crashes:
            self._at(link.engine, when, "source_crashes_fired", link.crash)
        for when, index in self.plan.qp_kills:
            self._at(link.engine, when, "qp_kills_fired", link.kill_channel, index)

    def arm_broker(self, supervisor: Any) -> None:
        """Schedule the plan's broker crashes on a scheduler supervisor
        (anything with ``.crash()``; see
        :class:`repro.sched.runner.BrokerSupervisor` — crash kills the
        current incarnation, the supervisor restarts it from the
        journal)."""
        for when in self.plan.broker_crashes:
            self._at(supervisor.engine, when, "broker_crashes_fired", supervisor.crash)

    def attempt_hook(self, now: float) -> bool:
        """``TransferBroker.attempt_fault_hook`` interface: True fails the
        attempt at the boundary (before any traffic) — the retry-storm
        seam that exercises retry budgets without touching the wire;
        installed only when the plan's rate is positive."""
        window = self.plan.attempt_fault_window
        if window:
            start, end = window
            if not start <= now < end:
                return False
        if self._sched_rng.random() < self.plan.attempt_fault_rate:
            self.attempt_faults += 1
            return True
        return False

    def arm_scheduler(self, supervisor_or_broker: Any) -> None:
        """Install the attempt-fault hook on a broker — or on a
        :class:`~repro.sched.runner.BrokerSupervisor`, which re-installs
        it on every recovered incarnation (a retry storm should not stop
        just because its victim crashed)."""
        if self.plan.attempt_fault_rate <= 0.0:
            return
        target = supervisor_or_broker
        target.attempt_fault_hook = self.attempt_hook
        broker = getattr(target, "broker", None)
        if broker is not None:
            broker.attempt_fault_hook = self.attempt_hook

    def _fallback_deny_hook(self) -> bool:
        """``SinkEngine.fallback_deny_hook`` interface."""
        self.fallback_denials += 1
        return True

    def arm_sink(self, sink_engine: "SinkEngine") -> None:
        """Schedule the plan's sink-process crashes and, when the plan
        denies fallbacks, install the deny hook."""
        if self.plan.fallback_deny:
            sink_engine.fallback_deny_hook = self._fallback_deny_hook
        for when in self.plan.sink_crashes:
            self._at(sink_engine.engine, when, "sink_crashes_fired", sink_engine.crash)
