"""Kernel-level contracts of the fluid fast-forward machinery.

App-level fluid-vs-discrete equivalence lives in
``tests/test_fluid_equivalence.py``; these tests pin the primitives it
rests on: absolute-deadline timers, synchronous grants, eager process
start, and the analytic path/burst booking.
"""

from __future__ import annotations

import pytest

from repro.hardware.cpu import CpuScheduler, CpuThread
from repro.network.fabric import back_to_back, wan_path
from repro.sim.engine import Engine
from repro.sim.events import TimeoutAt
from repro.sim.resources import Container, Resource, Store
from tests.oracles import transmit_burst


# -- timeout_at --------------------------------------------------------------
def test_timeout_at_fires_at_exact_absolute_instant():
    engine = Engine()
    fired = []

    def proc():
        yield engine.timeout(0.1)
        # 0.1 + 0.2 != 0.30000000000000004 is exactly the float identity
        # timeout_at exists to avoid: the deadline is used verbatim.
        yield engine.timeout_at(0.7, value="late")
        fired.append(engine.now)

    engine.process(proc())
    engine.run()
    assert fired == [0.7]


def test_timeout_at_carries_value_and_cancels():
    engine = Engine()
    seen = []

    def proc():
        value = yield engine.timeout_at(0.25, value=("batch", 3))
        seen.append(value)

    engine.process(proc())
    loser = engine.timeout_at(0.5)
    assert loser.cancel() is True
    engine.run()
    # The tombstone surfaces (and is discarded) without resuming anyone.
    assert seen == [("batch", 3)]


def test_timeout_at_in_the_past_raises():
    engine = Engine()

    def proc():
        yield engine.timeout(1.0)

    engine.process(proc())
    engine.run()
    with pytest.raises(ValueError, match="in the past"):
        TimeoutAt(engine, 0.5)


# -- synchronous grants ------------------------------------------------------
def test_store_put_get_grant_synchronously_under_fluid():
    engine = Engine(use_fluid=True)
    store = Store(engine)
    put = store.put("x")
    assert put.processed and put.ok
    got = store.get()
    assert got.processed and got.value == "x"


def test_store_grants_stay_asynchronous_when_fluid_off():
    engine = Engine(use_fluid=False)
    store = Store(engine)
    put = store.put("x")
    assert put.triggered and not put.processed


def test_store_get_parks_when_empty_even_under_fluid():
    engine = Engine(use_fluid=True)
    store = Store(engine)
    got = store.get()
    assert not got.triggered


def test_resource_request_grants_synchronously_and_parks_when_full():
    engine = Engine(use_fluid=True)
    res = Resource(engine, capacity=1)
    first = res.request()
    assert first.processed and first.ok
    second = res.request()
    assert not second.triggered
    res.release()
    engine.run()
    assert second.triggered


def test_cpu_chunk_holds_a_free_core_without_queueing():
    # A chunk on a free core takes the slot in place and arms the
    # thread's own record; a chunk that finds the core held queues on
    # the pool instead, and the record is re-armed for the next chunk.
    engine = Engine(use_fluid=True)
    sched = CpuScheduler(engine, 1)
    first, second = CpuThread(sched, "a", "app"), CpuThread(sched, "b", "app")
    record = first.exec(1.0)
    assert record is first._chunk
    assert sched._pool._in_use == 1 and not sched._pool._waiters
    queued = second.exec(1.0)
    assert queued is not second._chunk
    ends = []
    for event in (record, queued):
        event.callbacks.append(lambda _e: ends.append(engine.now))
    engine.run()
    assert ends == [1.0, 2.0]
    assert sched._pool._in_use == 0
    assert first.exec(0.5) is record
    engine.run()
    assert engine.now == 2.5
    assert sched.busy_seconds("app") == 2.5


def test_container_sync_grant_and_idle():
    engine = Engine(use_fluid=True)
    box = Container(engine, capacity=10.0)
    put = box.put(4.0)
    assert put.processed
    got = box.get(3.0)
    assert got.processed and got.value == 3.0
    assert box.level == pytest.approx(1.0)
    # An unsatisfiable get parks until a put covers it.
    waiter = box.get(5.0)
    assert not waiter.triggered
    box.put(4.0)
    engine.run()
    assert waiter.processed and waiter.value == 5.0
    assert box.level == pytest.approx(0.0)


def test_container_get_defers_to_parked_putter():
    # With a putter parked, discrete mode serves the putter first; the
    # sync-grant path must not jump the queue even when enough level is
    # already present.
    engine = Engine(use_fluid=True)
    box = Container(engine, capacity=4.0)
    box.put(4.0)
    parked_put = box.put(3.0)  # over capacity: parks
    assert not parked_put.triggered
    got = box.get(3.0)
    assert not got.processed  # went through the discrete queue
    engine.run()
    assert got.triggered and parked_put.triggered


def test_fluid_preserves_spawn_ordering():
    # Regression guard: a spawned body must observe state the spawner
    # mutates *after* the spawn call — fluid mode must never run the
    # body eagerly at construction (doing so once skewed the scheduler
    # bench anchors).
    engine = Engine(use_fluid=True)
    shared = {}
    seen = []

    def child():
        seen.append(shared.get("ready"))
        yield engine.timeout(0.0)

    def parent():
        engine.process(child())
        shared["ready"] = True
        yield engine.timeout(1.0)

    engine.process(parent())
    engine.run()
    assert seen == [True]


# -- analytic path / burst booking -------------------------------------------
def _drive(engine, gen):
    done = []

    def wrap():
        yield from gen
        done.append(engine.now)

    engine.process(wrap())
    engine.run()
    return done[0]


@pytest.mark.parametrize("nbytes,count", [(1 << 16, 1), (1 << 16, 8), (4096, 3)])
def test_transmit_burst_matches_discrete(nbytes, count):
    results = {}
    for fluid in (False, True):
        engine = Engine(use_fluid=fluid)
        path = wan_path(engine, 10.0, 0.05).forward
        results[fluid] = (
            _drive(engine, transmit_burst(path, nbytes, count)),
            engine.events_processed,
        )
    assert results[True][0] == results[False][0]
    if count > 1:
        assert results[True][1] < results[False][1]


def test_link_escape_hatch_forces_per_hop_events():
    arrivals = {}
    events = {}
    for pinned in (False, True):
        engine = Engine(use_fluid=True)
        path = wan_path(engine, 10.0, 0.05).forward
        if pinned:
            for link in path.links:
                link.fault_hook = lambda nbytes: 0.0  # zero hook: discrete
        arrivals[pinned] = _drive(engine, path.transmit(1 << 20))
        events[pinned] = engine.events_processed
    assert arrivals[True] == arrivals[False]
    assert events[True] > events[False]


def _flapped_arrival(fluid, flap_for):
    """A 1 MiB transfer at t=0, a hook-less flap at 0.1 ms while it is
    on the wire, and a second transfer at the flap instant; returns both
    arrivals, the link's stall count, and whether the path was still
    chain-ok just before the flap."""
    engine = Engine(use_fluid=fluid)
    path = back_to_back(engine, 10.0, 0.001).forward
    link = path.links[0]
    arrivals, seen = {}, {}

    def send(key, at):
        if at > 0.0:
            yield engine.timeout_at(at)
        yield from path.transmit(1 << 20)
        arrivals[key] = engine.now

    def flap():
        yield engine.timeout_at(1e-4)
        seen["chain_ok"] = path.chain_ok()
        assert not link._flap_seen
        link.fail_for(flap_for)
        assert link._flap_seen and not path.chain_ok()

    engine.process(send("first", 0.0))
    engine.process(flap())
    engine.process(send("second", 1e-4))
    engine.run()
    return arrivals, link.flap_stalls.total, seen["chain_ok"]


def test_flap_disables_chain_mode_but_keeps_timing():
    # A link that has flapped leaves analytic chain booking: the next
    # transfer goes per hop, after the bits booked before the flap (a
    # short outage ends while they are still on the wire, a long one
    # after), and arrives exactly when the discrete engine's does.
    for flap_for in (1e-4, 0.01):
        arrivals, stalls, chain_ok = _flapped_arrival(True, flap_for)
        assert chain_ok
        assert (arrivals, stalls) == _flapped_arrival(False, flap_for)[:2]
        assert stalls == 1
