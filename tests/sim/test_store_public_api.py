"""The Store APIs the middleware's recovery paths lean on:
``put_many`` (bulk deposit), ``waiters`` (starvation visibility), and
``cancel_get`` (timed-out waiter withdrawal)."""

from repro.sim.resources import Store


def test_put_many_serves_waiting_getters_fifo(engine):
    store = Store(engine)
    got = []

    def taker(tag):
        item = yield store.get()
        got.append((tag, item))

    engine.process(taker("a"))
    engine.process(taker("b"))
    engine.run()
    assert store.waiters == 2
    assert store.put_many(["x", "y", "z"]) == 3
    engine.run()
    assert got == [("a", "x"), ("b", "y")]
    assert list(store.items) == ["z"]
    assert store.waiters == 0


def test_put_many_takes_any_batch_after_held_items(engine):
    store = Store(engine)
    store.put("a")
    engine.run()
    # Any iterable, of any length, lands behind what the store holds.
    assert store.put_many(str(i) for i in range(500)) == 500
    assert store.put_many([]) == 0
    assert list(store.items) == ["a"] + [str(i) for i in range(500)]
    got = store.get()
    assert got.triggered and got.value == "a"


def test_cancel_get_removes_queued_waiter(engine):
    store = Store(engine)
    ev = store.get()
    assert store.waiters == 1
    assert store.cancel_get(ev) is True
    assert store.waiters == 0
    # A later put must not be swallowed by the cancelled getter.
    store.put_many(["item"])
    assert list(store.items) == ["item"]
    assert not ev.triggered


def test_cancel_get_after_satisfaction_returns_false(engine):
    store = Store(engine)
    store.put_many(["item"])
    ev = store.get()
    assert ev.triggered and ev.value == "item"
    # Too late to cancel — the caller owns the item (the middleware's
    # raced-timeout paths check exactly this and keep the value).
    assert store.cancel_get(ev) is False


def test_cancelled_getter_does_not_break_fifo_order(engine):
    store = Store(engine)
    first = store.get()
    second = store.get()
    store.cancel_get(first)
    store.put_many(["only"])
    assert not first.triggered
    assert second.triggered and second.value == "only"
