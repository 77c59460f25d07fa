"""Stores, resources, containers — including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Engine, Resource, Store


# -- Store ---------------------------------------------------------------------
def test_store_fifo_order(engine):
    store = Store(engine)
    got = []

    def producer(env):
        for i in range(5):
            yield env.timeout(1)
            yield store.put(i)

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    engine.process(producer(engine))
    engine.process(consumer(engine))
    engine.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_putter(engine):
    store = Store(engine, capacity=2)
    timeline = []

    def producer(env):
        for i in range(4):
            yield store.put(i)
            timeline.append((env.now, f"put{i}"))

    def consumer(env):
        yield env.timeout(10)
        yield store.get()
        yield store.get()

    engine.process(producer(engine))
    engine.process(consumer(engine))
    engine.run()
    times = dict((tag, t) for t, tag in timeline)
    assert times["put0"] == 0 and times["put1"] == 0
    assert times["put2"] == 10 and times["put3"] == 10


def test_store_try_get(engine):
    store = Store(engine)
    assert store.try_get() is None
    store.put("x")
    engine.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_multiple_getters_fifo(engine):
    store = Store(engine)
    winners = []

    def getter(env, tag):
        item = yield store.get()
        winners.append((tag, item))

    for tag in "abc":
        engine.process(getter(engine, tag))

    def producer(env):
        yield env.timeout(1)
        for i in range(3):
            yield store.put(i)

    engine.process(producer(engine))
    engine.run()
    assert winners == [("a", 0), ("b", 1), ("c", 2)]


def test_store_invalid_capacity(engine):
    with pytest.raises(ValueError):
        Store(engine, capacity=0)


# -- Resource -------------------------------------------------------------------
def test_resource_mutual_exclusion(engine):
    res = Resource(engine, capacity=1)
    active = []
    max_active = []

    def worker(env):
        yield res.request()
        active.append(1)
        max_active.append(len(active))
        yield env.timeout(1)
        active.pop()
        res.release()

    for _ in range(5):
        engine.process(worker(engine))
    engine.run()
    assert max(max_active) == 1
    assert engine.now == 5


def test_resource_capacity_parallelism(engine):
    res = Resource(engine, capacity=3)

    def worker(env):
        yield res.request()
        yield env.timeout(1)
        res.release()

    for _ in range(6):
        engine.process(worker(engine))
    engine.run()
    assert engine.now == 2  # two waves of three


def test_resource_release_without_request(engine):
    res = Resource(engine, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_queue_depth(engine):
    res = Resource(engine, capacity=1)

    def holder(env):
        yield res.request()
        yield env.timeout(10)
        res.release()

    def waiter(env):
        yield res.request()
        res.release()

    engine.process(holder(engine))
    engine.process(waiter(engine))
    engine.run(until=1)
    assert res._in_use == 1
    assert len(res._waiters) == 1


# -- Container -------------------------------------------------------------------
def test_container_blocking_get(engine):
    c = Container(engine, capacity=100)
    times = []

    def getter(env):
        yield c.get(50)
        times.append(env.now)

    def putter(env):
        yield env.timeout(3)
        yield c.put(50)

    engine.process(getter(engine))
    engine.process(putter(engine))
    engine.run()
    assert times == [3]
    assert c.level == 0


def test_container_blocking_put(engine):
    c = Container(engine, capacity=10, init=10)
    times = []

    def putter(env):
        yield c.put(5)
        times.append(env.now)

    def getter(env):
        yield env.timeout(2)
        yield c.get(5)

    engine.process(putter(engine))
    engine.process(getter(engine))
    engine.run()
    assert times == [2]


def test_container_epsilon_tolerance(engine):
    """Accumulated float error must not starve an exact-quantity getter."""
    c = Container(engine, capacity=1e12)
    target = 1048593

    def putter(env):
        # Sum of thirds never hits the integer exactly in binary floats.
        for _ in range(3):
            yield c.put(target / 3.0)

    def getter(env):
        yield c.get(target)

    engine.process(putter(engine))
    proc = engine.process(getter(engine))
    engine.run()
    assert proc.triggered and proc.ok
    assert c.level == pytest.approx(0, abs=1e-2)


def test_container_validation(engine):
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        Resource(engine, capacity=0)
    with pytest.raises(ValueError):
        Container(engine, capacity=0)
    with pytest.raises(ValueError):
        Container(engine, capacity=5, init=6)
    c = Container(engine, capacity=5)
    with pytest.raises(ValueError):
        c.put(-1)
    with pytest.raises(ValueError):
        c.put(6)
    with pytest.raises(ValueError):
        c.get(-1)


# -- hypothesis invariants ----------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=30))
def test_store_preserves_order_and_content(items):
    engine = Engine()
    store = Store(engine)
    got = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            got.append((yield store.get()))

    engine.process(producer(engine))
    engine.process(consumer(engine))
    engine.run()
    assert got == items


@settings(max_examples=50, deadline=None)
@given(
    amounts=st.lists(
        st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_container_conserves_quantity(amounts):
    engine = Engine()
    c = Container(engine, capacity=1e9)

    def putter(env):
        for a in amounts:
            yield c.put(a)

    def getter(env):
        for a in amounts:
            yield c.get(a)

    engine.process(putter(engine))
    engine.process(getter(engine))
    engine.run()
    assert c.level == pytest.approx(0.0, abs=1e-2)
