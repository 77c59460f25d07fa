"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.sim.events.Event`; the process suspends until that event is
processed and then resumes with the event's value (or has the event's
exception thrown into it on failure).  A process is itself an event that
triggers when the generator returns (value = the ``return`` value) or
raises (failure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.events import _PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Process"]

#: What an eagerly started body is resumed with: "succeeded, no value".
_STARTED = Event(None)  # type: ignore[arg-type]
_STARTED._ok, _STARTED._value = True, None


class Process(Event):
    """A running simulation process (also awaitable as an event)."""

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator,
        name: Optional[str] = None,
        _eager: bool = False,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process requires a generator, got {type(generator).__name__}"
            )
        # The Event slots, set by hand (see the note in ``events.py``).
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._cancelled = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        if _eager:
            # Private to ``repro``'s own layers (the stage sub-processes
            # of a posted WR, ``verbs/qp.py::_Wqe._run``): run the body to
            # its first yield right here.  Legal only as the spawner's
            # last action — nothing "after the spawn" to miss.
            self._resume(_STARTED)
            return
        # Bootstrap: a zero-delay timer resumes the body on the next
        # engine step at the current time.
        # Deliberately NOT run synchronously under fluid mode: the body
        # must observe whatever the spawner does *after* the spawn call
        # (the broker mutates shared state post-spawn), so eager start
        # is the one fast-forward that would change semantics.
        start = Timeout(engine, 0.0)
        start.callbacks.append(self._resume)
        self._waiting_on: Optional[Event] = start

    # -- internals -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        gen = self._generator
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    event.defuse()
                    target = gen.throw(event._value)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody is waiting: settle in place, not through an
                    # event whose dispatch would do nothing.  A later
                    # ``yield proc`` continues as on any processed event.
                    self._ok = True
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if not isinstance(target, Event):
                exc = TypeError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
                gen.close()
                self.fail(exc)
                return
            callbacks = target.callbacks
            if callbacks is None:
                # Already processed: continue synchronously with its outcome.
                event = target
                continue
            callbacks.append(self._resume)
            self._waiting_on = target
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
