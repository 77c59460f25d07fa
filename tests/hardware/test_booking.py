"""The booking seam of the NIC and the PCIe bus.

``Nic.book_wqe`` / ``PcieBus.book`` return the instant a stage ends so a
caller can sleep on it itself; the generator forms (``process_wqe`` /
``dma``) must fire at exactly those instants, on the fluid engine (where
they *are* the booking) and on the discrete one (the request / hold /
release chain the booking replaces).
"""

from __future__ import annotations

import pytest

from repro.hardware import PcieBus
from repro.sim.engine import Engine
from repro.sim.events import TimeoutAt
from tests.conftest import INTERLEAVED_ARRIVALS as ARRIVALS
from tests.conftest import make_host


def _fire_times(engine, stage):
    """Completion instant of ``stage(nbytes)`` for every arrival, in
    arrival order; ``stage`` returns a generator to ``yield from``."""
    done = [None] * len(ARRIVALS)

    def one(i, at, nbytes):
        yield engine.timeout_at(at)
        yield from stage(nbytes)
        done[i] = engine.now

    for i, (at, nbytes) in enumerate(ARRIVALS):
        engine.process(one(i, at, nbytes))
    engine.run()
    return done


def _booked(engine, book):
    """Sleep on ``book(nbytes)`` the way ``QueuePair`` does."""

    def stage(nbytes):
        yield TimeoutAt(engine, book(nbytes))

    return stage


def test_book_wqe_takes_the_earliest_free_pipeline(engine):
    nic = make_host(engine).nic
    w = nic.profile.wqe_seconds
    assert nic.profile.engines == 2
    assert nic.book_wqe() == 0.0 + w  # pipeline 0
    assert nic.book_wqe() == 0.0 + w  # pipeline 1, still free at t=0
    assert nic.book_wqe() == w + w  # both busy: queues on the earlier one
    assert nic._wqe_free == [w + w, w]
    engine.run(until=1.5 * w)
    # Pipeline 1 freed at w < now: service starts now, not at `free`.
    assert nic.book_wqe() == 1.5 * w + w
    assert nic._wqe_free == [w + w, 1.5 * w + w]
    # Pipeline 0 is still busy past now: service starts at its `free`.
    assert nic.book_wqe() == (w + w) + w


def test_wqe_bookings_fire_when_the_generator_forms_do():
    fluid, oracle, booked = Engine(), Engine(use_fluid=False), Engine()
    by_form = _fire_times(fluid, lambda n, nic=make_host(fluid).nic: nic.process_wqe())
    by_chain = _fire_times(oracle, lambda n, nic=make_host(oracle).nic: nic.process_wqe())
    nic = make_host(booked).nic
    by_book = _fire_times(booked, _booked(booked, lambda n: nic.book_wqe()))
    assert by_book == by_form == by_chain
    assert fluid.events_processed == booked.events_processed


def test_pcie_bookings_fire_when_the_generator_forms_do():
    fluid, oracle, booked = Engine(), Engine(use_fluid=False), Engine()
    by_form = _fire_times(fluid, PcieBus(fluid, gbps=25.6).dma)
    by_chain = _fire_times(oracle, PcieBus(oracle, gbps=25.6).dma)
    bus = PcieBus(booked, gbps=25.6)
    by_book = _fire_times(booked, _booked(booked, bus.book))
    assert by_book == by_form == by_chain
    assert fluid.events_processed == booked.events_processed
    # FIFO: each DMA ends one service time after the later of its
    # arrival and the previous DMA's end.
    free = 0.0
    for (at, nbytes), end in zip(ARRIVALS, by_book):
        free = max(at, free) + nbytes / bus.bytes_per_second
        assert end == free


def test_pcie_book_leaves_the_byte_count_to_the_sleeper(engine):
    bus = PcieBus(engine, gbps=8.0)
    assert bus.book(1_000_000) == pytest.approx(1e-3)
    assert bus.bytes_moved == 0  # counted when the DMA has ended
