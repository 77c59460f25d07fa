"""Discrete-event simulation kernel.

This package provides the simulation substrate every other subsystem is
built on: an event-heap :class:`~repro.sim.engine.Engine`, generator-based
:class:`~repro.sim.process.Process` coroutines, condition events, FIFO
resources (:class:`~repro.sim.resources.Store`,
:class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.resources.Container`), deterministic named random
streams, and a record tracer.

The design deliberately mirrors the small core of ``simpy`` so that the
rest of the codebase reads like ordinary process-oriented simulation code,
while remaining a from-scratch implementation with deterministic,
fully-ordered event scheduling (ties broken by insertion order).

Example
-------
>>> from repro.sim import Engine
>>> eng = Engine()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return "done at %.1f" % env.now
>>> proc = eng.process(hello(eng))
>>> eng.run()
>>> proc.value
'done at 1.5'
"""

from repro.sim.engine import Engine, SimulationError, StopEngine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Engine",
    "Event",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "StopEngine",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
