"""Guard for the hand-inlined event constructors.

``Timeout``, ``TimeoutAt``, ``Process`` and a posted WR's record
(``verbs.qp._Wqe``) set the ``Event`` slots themselves instead of
calling ``Event.__init__`` (one Python frame less per timer).  The
price is that a slot added to ``Event`` later could be missed there;
this test instantiates every ``Event`` subclass in ``repro`` the way
production code does and checks that every slot declared along its MRO
is set.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro
from repro.sim import AnyOf, Container, Engine, Event, Process, Store, Timeout
from repro.sim.events import Condition, TimeoutAt
from repro.sim.resources import _AmountEvent, _PutEvent
from repro.verbs import Opcode, SendWR
from repro.verbs.qp import _Wqe
from tests.conftest import make_fabric


def _idle(engine):
    yield engine.timeout(1.0)


def _posted_wqe(engine):
    """The record ``post_send`` queues for an RDMA WRITE."""
    f = make_fabric(engine=engine)
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr()
    qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE, length=4096,
                        remote_addr=buf.addr, rkey=mr.rkey))
    [wqe] = [ev for _, _, ev in engine._heap if type(ev) is _Wqe]
    return wqe


#: How production code builds an instance of each class.  A new Event
#: subclass must be added here (the test fails until it is).
FACTORIES = {
    Event: lambda e: Event(e),
    Timeout: lambda e: e.timeout(1.0, "v"),
    TimeoutAt: lambda e: e.timeout_at(2.0, "v"),
    Process: lambda e: e.process(_idle(e)),
    Condition: lambda e: Condition(e, [Event(e)]),
    AnyOf: lambda e: AnyOf(e, [Event(e), e.timeout(1.0)]),
    _PutEvent: lambda e: Store(e).put("item"),
    _AmountEvent: lambda e: Container(e, capacity=4.0).get(1.0),
    _Wqe: _posted_wqe,
}


def _event_classes():
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if not mod.name.endswith("__main__"):  # importing it runs the CLI
            importlib.import_module(mod.name)
    found, todo = [], [Event]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in found if c.__module__.startswith("repro.")]


def test_every_event_subclass_has_a_factory():
    missing = [c.__qualname__ for c in _event_classes() if c not in FACTORIES]
    assert not missing, f"add a FACTORIES entry for {missing}"


def test_every_declared_slot_is_set_on_every_event_class():
    for cls in _event_classes():
        engine = Engine()
        obj = FACTORIES[cls](engine)
        assert type(obj) is cls
        assert not hasattr(obj, "__dict__"), f"{cls.__qualname__} lost __slots__"
        slots = [s for k in cls.__mro__ for s in getattr(k, "__slots__", ())]
        unset = [s for s in slots if not hasattr(obj, s)]
        assert not unset, f"{cls.__qualname__} leaves {unset} unset"
        assert cls.__name__ in repr(obj)
        assert obj.triggered in (True, False)
        assert obj.processed in (True, False)
        assert obj._defused is False and obj._cancelled is False
        # A fresh engine drains cleanly with the instance on its queue.
        engine.run()
        assert isinstance(repr(obj), str)


def test_eagerly_started_process_sets_every_slot():
    """The eager-start entry returns from ``Process.__init__`` early; it
    must leave no slot for the deferred-start tail to have set."""
    engine = Engine()
    obj = Process(engine, _idle(engine), _eager=True)
    slots = [s for k in Process.__mro__ for s in getattr(k, "__slots__", ())]
    assert not [s for s in slots if not hasattr(obj, s)]
    assert obj._waiting_on is not None and not obj.triggered
    engine.run()
    assert obj.processed
