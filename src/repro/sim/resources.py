"""FIFO resources: stores, counting resources, and byte containers.

All waiters are served strictly first-come-first-served, which keeps
simulations deterministic and models the FIFO hardware queues (NIC work
queues, link serialisation, socket buffers) used throughout the library.

Under ``Engine(use_fluid=True)`` an operation that can be satisfied
immediately (a free resource slot, a non-empty store, sufficient
container level) returns an *already-processed* event instead of queuing
a grant on the engine: the state change happens at the same simulated
instant either way, and a process yielding a processed event continues
synchronously, so results are identical while the kernel dispatches far
fewer events.  Operations that must wait always queue real events.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Store", "Resource", "Container"]


class _PutEvent(Event):
    """A queued store-put carrying the item being inserted."""

    __slots__ = ("item",)


class _AmountEvent(Event):
    """A queued container operation carrying its quantity."""

    __slots__ = ("amount",)


def _granted(event: Event, value: Any = None) -> Event:
    """Mark ``event`` as succeeded *and* processed without queueing it.

    The fluid sync-grant: ``Process._resume`` continues synchronously on
    a processed event, and :class:`~repro.sim.events.Condition` handles
    processed children, so nothing downstream needs a queue round trip.
    """
    event._ok = True
    event._value = value
    event.callbacks = None
    return event


class Store:
    """An unbounded-or-bounded FIFO queue of Python objects.

    ``get()`` and ``put(item)`` return events.  A ``get`` on an empty store
    (or a ``put`` on a full one) suspends the caller until it can proceed.
    """

    def __init__(self, engine: "Engine", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying .item

    def __len__(self) -> int:
        return len(self.items)

    @property
    def waiters(self) -> int:
        """Number of getters currently blocked on an empty store."""
        return len(self._getters)

    def put_many(self, items) -> int:
        """Insert a batch of items immediately (non-blocking bulk put).

        Unlike :meth:`put` this never queues the caller: the whole batch
        must fit, so a store with finite capacity raises ``ValueError``
        when the batch would overflow.  Waiting getters are served in
        FIFO order exactly as if the items had been ``put`` one by one.
        Returns the number of items inserted.
        """
        items = list(items)
        if len(self.items) + len(items) > self.capacity:
            raise ValueError(
                f"put_many of {len(items)} items would exceed capacity "
                f"{self.capacity} (have {len(self.items)})"
            )
        self.items.extend(items)
        self._dispatch()
        return len(items)

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a pending :meth:`get` request.

        Returns True if the event was still queued (and is now removed);
        False if it already received an item (or was never queued).  Used
        by timeout/abort paths so a stale getter cannot swallow an item
        intended for a live waiter.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    def put(self, item: Any) -> Event:
        """Queue ``item``; the returned event fires when the item is stored."""
        event = _PutEvent(self.engine)
        event.item = item
        if (
            self.engine.use_fluid
            and not self._putters
            and len(self.items) < self.capacity
        ):
            self.items.append(item)
            self._dispatch()
            return _granted(event)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> Event:
        """Request one item; the returned event's value is the item."""
        if self.engine.use_fluid and not self._getters:
            self._admit_putters()
            if self.items:
                event = Event(self.engine)
                item = self.items.popleft()
                self._admit_putters()
                return _granted(event, item)
        event = Event(self.engine)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop and return an item, or ``None`` if empty."""
        self._admit_putters()
        if self.items and not self._getters:
            item = self.items.popleft()
            self._admit_putters()
            return item
        return None

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            self.items.append(putter.item)
            putter.succeed()

    def _dispatch(self) -> None:
        self._admit_putters()
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())
            self._admit_putters()


class Resource:
    """A counting resource with ``capacity`` concurrent holders (FIFO).

    Usage::

        req = resource.request()
        yield req
        try:
            ...critical section...
        finally:
            resource.release()
    """

    def __init__(self, engine: "Engine", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Request a slot; the event fires once the slot is granted."""
        event = Event(self.engine)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            if self.engine.use_fluid:
                return _granted(event)
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a free slot without creating an event, or return False.

        The fluid fast paths use this to test-and-hold a slot they will
        release from a timer callback; pair every ``True`` with a
        :meth:`release`.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Release one held slot, admitting the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Container:
    """A continuous-quantity reservoir (e.g. bytes in a socket buffer).

    ``put(amount)`` blocks while the container would overflow;
    ``get(amount)`` blocks until at least ``amount`` is present.  Partial
    satisfaction is deliberate *not* offered — callers split quantities
    themselves, keeping semantics simple and FIFO-fair.
    """

    def __init__(
        self,
        engine: "Engine",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self.engine = engine
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[Event] = deque()  # events carrying .amount
        self._putters: Deque[Event] = deque()

    @property
    def level(self) -> float:
        """Current stored quantity."""
        return self._level

    @property
    def idle(self) -> bool:
        """True when no putter or getter is parked on the container."""
        return not self._putters and not self._getters

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError("amount exceeds container capacity")
        event = _AmountEvent(self.engine)
        event.amount = amount
        if (
            self.engine.use_fluid
            and not self._putters
            and self._level + amount <= self.capacity + self.EPSILON
        ):
            self._level = min(self._level + amount, self.capacity)
            self._dispatch()
            return _granted(event)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = _AmountEvent(self.engine)
        event.amount = amount
        if (
            self.engine.use_fluid
            and not self._getters
            and not self._putters
            and self._level + self.EPSILON >= amount
        ):
            self._level = max(self._level - amount, 0.0)
            self._dispatch()
            return _granted(event, amount)
        self._getters.append(event)
        self._dispatch()
        return event

    def release_putters(self) -> None:
        """Wake every parked putter without storing its amount: nothing
        will drain the container again (a closed socket's send buffer)."""
        putters, self._putters = self._putters, deque()
        for putter in putters:
            putter.succeed()

    #: Absolute slack for float comparisons: repeated fractional puts (the
    #: fluid TCP rounds) accumulate representation error; without slack a
    #: getter can starve on a quantity that is 1e-7 short forever.
    EPSILON = 1e-3

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                putter = self._putters[0]
                amount = putter.amount
                if self._level + amount <= self.capacity + self.EPSILON:
                    self._putters.popleft()
                    self._level = min(self._level + amount, self.capacity)
                    putter.succeed()
                    progressed = True
            if self._getters:
                getter = self._getters[0]
                amount = getter.amount
                if self._level + self.EPSILON >= amount:
                    self._getters.popleft()
                    self._level = max(self._level - amount, 0.0)
                    getter.succeed(amount)
                    progressed = True
