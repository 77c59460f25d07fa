"""The simulation engine: a deterministic event scheduler.

Time is a ``float`` in **seconds**.  Events scheduled for the same instant
are processed in insertion order, which makes every simulation fully
deterministic regardless of queue internals.

One binary heap of ``(time, insertion id, event)`` entries backs the
scheduler: timers and immediate triggers alike are a C ``heappush`` at
creation and a C ``heappop`` at dispatch, and one global id counter
breaks ties.  Cancelled timers stay queued as tombstones and are
discarded without running callbacks when their entry surfaces;
tombstones still advance the clock and count as processed events, so
``sim_time`` and the ``events_processed`` determinism anchor do not
depend on how many timers a run cancels.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from repro.obs import runtime as _obs_runtime
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Event, Timeout, TimeoutAt
from repro.sim.process import Process

__all__ = ["Engine", "SimulationError"]

_INF = float("inf")


class SimulationError(Exception):
    """Raised for kernel-level errors (unhandled event failures, etc.)."""


class Engine:
    """Deterministic discrete-event simulation engine.

    The engine owns the clock and the event queue.  User code creates
    processes with :meth:`process` and builds delays with
    :meth:`timeout`; everything else in the library layers
    on top of these primitives.
    """

    def __init__(self, use_fluid: bool = True) -> None:
        #: Current simulated time in seconds.  A plain attribute that
        #: :meth:`run` assigns, so a read costs no Python call.
        self.now: float = 0.0
        #: The queue and its tie-break counter.  There is no push method:
        #: ``Timeout``/``TimeoutAt`` and ``Event.succeed``/``fail`` bump
        #: ``_eid`` and ``heappush`` onto ``_heap`` themselves.
        self._heap: List[Tuple[float, int, Event]] = []
        self._eid: int = 0
        #: Master switch for the fluid fast-forward paths.  When set,
        #: FIFO resources grant immediately-satisfiable requests without
        #: a queue round trip, and steady-state pipelines (links, DMA,
        #: WQE processing, CPU chunks) book completions analytically as
        #: absolute-deadline timers instead of request/hold/release event
        #: chains.  Simulation *results* (clock readings, byte counts,
        #: metric values) are bit-identical; only the number of kernel
        #: events differs.  ``Engine(use_fluid=False)`` is the escape
        #: hatch that forces every seam back to discrete events.
        self.use_fluid = use_fluid
        #: Registry every instrumented component on this engine hangs
        #: its counters/gauges/histograms off.
        self.metrics = MetricsRegistry()
        #: Events popped by the dispatch loop (``sim.events`` in
        #: ``bench/``).  Includes cancelled-timer tombstones, so the count
        #: does not depend on cancellation behaviour.
        self.events_processed: int = 0
        #: Optional :class:`repro.sim.trace.Tracer`; instrumented
        #: components emit records when this is set.  The CLI's
        #: ``--trace-out`` installs a factory that seeds this.
        self.tracer = _obs_runtime.make_tracer()
        _obs_runtime.track_engine(self)

    def trace(self, category: str, message: str, **fields) -> None:
        """Emit a trace record if a tracer is attached (cheap when not)."""
        if self.tracer is not None:
            self.tracer.record(self.now, category, message, fields)

    # -- event construction -------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> TimeoutAt:
        """Create an event that fires at the absolute instant ``when``.

        The fluid fast-forward paths compute completion times
        analytically; ``now + (when - now)`` is not ``when`` in floating
        point, so an absolute-deadline timer is what keeps those
        completions bit-identical to the discrete chains they replace.
        """
        return TimeoutAt(self, when, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator function invocation."""
        return Process(self, generator)

    # -- execution ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the next event lies beyond it, which makes interval-based
        measurement code simple and exact.

        This is the hot loop, with the heap and the ``until`` bound
        hoisted into locals, so a dispatch costs one C ``heappop`` plus
        the event's own callbacks.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"until ({until!r}) must not be in the past (now={self.now!r})"
            )
        limit = _INF if until is None else until
        heap = self._heap
        processed = 0
        try:
            while heap:
                entry = heappop(heap)
                when, _, event = entry
                if when > limit:
                    # Put the entry back (rare: at most once per run call).
                    heappush(heap, entry)
                    self.now = until
                    return
                self.now = when
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if event._cancelled:
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise SimulationError(
                        f"unhandled failure of {event!r}"
                    ) from event._value
        finally:
            self.events_processed += processed
        if until is not None:
            self.now = until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:.9f} queued={len(self._heap)}>"
