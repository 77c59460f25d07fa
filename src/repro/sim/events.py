"""Core event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with an optional value.  Events
move through three states: *pending* (created, not yet triggered),
*triggered* (scheduled on the engine's heap with a value or exception) and
*processed* (callbacks have run).  Processes wait on events by ``yield``-ing
them; the engine resumes the process when the event is processed.

Scheduling is one ``heappush`` of ``(time, eid, event)`` onto
``engine._heap`` with ``eid`` taken from the engine's global counter;
:class:`Timeout`, :class:`TimeoutAt` and :meth:`Event.succeed` /
:meth:`Event.fail` do it inline, and :func:`_schedule` does it for an
event that re-queues itself (a posted WR's record, ``verbs/qp.py``).
``Timeout``, ``TimeoutAt``, ``Process`` and that record also set the
:class:`Event` slots by hand instead of chaining through
``super().__init__`` — a slot added to ``Event`` must be added in those
four constructors too (``tests/sim/test_event_slots.py`` fails
otherwise).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "Event",
    "Timeout",
    "TimeoutAt",
    "Condition",
    "AnyOf",
]

_PENDING = object()
_INF = float("inf")


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    engine:
        The engine the event belongs to.  Triggering schedules the event on
        this engine's queue.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: Callbacks invoked (in order) when the event is processed.  Set to
        #: ``None`` once processed; adding callbacks afterwards is an error.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        #: Lazy tombstone: a cancelled event stays queued but is skipped
        #: (no callbacks) when its heap entry surfaces.
        self._cancelled = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when failed)."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        engine = self.engine
        engine._eid = eid = engine._eid + 1
        heappush(engine._heap, (engine._now, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the event.
        A failed event nobody waits on raises at engine level unless
        :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        engine = self.engine
        engine._eid = eid = engine._eid + 1
        heappush(engine._heap, (engine._now, eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok is None:
            # Without this guard the _PENDING sentinel would fall into
            # fail() and surface as an unrelated TypeError.
            raise RuntimeError("source event not yet triggered")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> "Event":
        """Mark a potential failure as handled out-of-band."""
        self._defused = True
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise RuntimeError("cannot add callback to a processed event")
        self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not 0 <= delay < _INF:  # also rejects NaN
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay!r}")
            raise ValueError(f"timeout delay must be finite: {delay!r}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        engine._eid = eid = engine._eid + 1
        heappush(engine._heap, (engine._now + delay, eid, self))

    def cancel(self) -> bool:
        """Cancel a timer that has not fired yet.

        The queue entry is left in place as a tombstone — the engine
        discards it without running callbacks when it surfaces.  Returns
        ``True`` when the timer was still pending (now cancelled),
        ``False`` when it had already fired; cancelling after the fact is
        a deterministic no-op, never an error, so AnyOf losers can be
        cancelled unconditionally.
        """
        if self.callbacks is None:
            return False
        self._cancelled = True
        return True


class TimeoutAt(Timeout):
    """A timer that fires at an absolute simulated instant.

    Used by the fluid fast-forward paths, which compute completion
    times analytically: scheduling the deadline directly (instead of
    converting to a relative delay) keeps the fire time bit-identical
    to the discrete event chain it replaces, because
    ``now + (when - now)`` is generally not ``when`` in floating point.
    Inherits :meth:`Timeout.cancel`.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", when: float, value: Any = None) -> None:
        now = engine._now
        if not now <= when < _INF:  # also rejects NaN
            if when < now:
                raise ValueError(
                    f"timeout_at in the past: {when!r} < now={now!r}"
                )
            raise ValueError(f"timeout_at deadline must be finite: {when!r}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = when - now
        engine._eid = eid = engine._eid + 1
        heappush(engine._heap, (when, eid, self))


def _schedule(event: Event, when: float, callback: Callable[[Event], None]) -> None:
    """Queue ``event`` at the absolute instant ``when`` with ``callback``
    as its one callback.

    For an event that is its own timer, stage after stage: it goes back
    on the heap exactly as a :class:`TimeoutAt` created here would (same
    instant, same insertion id), without the object.  ``when`` comes
    from a booking, so it is never in the past; nothing checks.
    """
    engine = event.engine
    engine._eid = eid = engine._eid + 1
    event.callbacks = [callback]
    heappush(engine._heap, (when, eid, event))


class Condition(Event):
    """Waits on a set of events until :meth:`_satisfied` holds.

    A failed child event fails the condition immediately (the child is
    defused so the failure is not reported twice).  When the condition
    resolves, its ``_check`` callback is detached from every still
    unresolved child so an AnyOf winner does not keep the losers' callback
    lists (and through them the condition) alive.
    """

    __slots__ = ("events", "_count")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: List[Event] = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        check = self._check
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("all events must belong to the same engine")
            if self.triggered:
                # Resolved while walking the children (a processed child
                # satisfied/failed us): don't register on the rest.
                continue
            if ev.processed:
                check(ev)
            else:
                ev.add_callback(check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _detach(self) -> None:
        """Drop our callback from children that have not resolved yet."""
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is not None:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            self._detach()
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())
            self._detach()

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.triggered and ev._ok
        }


class AnyOf(Condition):
    """Succeeds once *any* child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1
