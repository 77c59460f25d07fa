"""Engine: clock, ordering, run-until, and failure semantics."""

import pytest

from repro.sim import Engine, SimulationError
from tests.oracles import step


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_timeout_advances_clock(engine):
    log = []

    def proc(env):
        yield env.timeout(2.5)
        log.append(env.now)

    engine.process(proc(engine))
    engine.run()
    assert log == [2.5]
    assert engine.now == 2.5


def test_same_time_events_fire_in_insertion_order(engine):
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        engine.process(proc(engine, tag))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_exactly(engine):
    def proc(env):
        yield env.timeout(10.0)

    engine.process(proc(engine))
    engine.run(until=3.0)
    assert engine.now == 3.0
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_run_until_in_past_rejected(engine):
    def proc(env):
        yield env.timeout(5.0)

    engine.process(proc(engine))
    engine.run(until=4.0)
    with pytest.raises(ValueError):
        engine.run(until=1.0)


def test_run_until_beyond_last_event_sets_clock(engine):
    def proc(env):
        yield env.timeout(1.0)

    engine.process(proc(engine))
    engine.run(until=100.0)
    assert engine.now == 100.0


def test_step_on_empty_queue_raises(engine):
    with pytest.raises(SimulationError):
        step(engine)


def test_peek_reports_next_event_time(engine):
    assert engine.peek() == float("inf")
    engine.timeout(4.2)
    assert engine.peek() == pytest.approx(4.2)


def test_stop_aborts_run(engine):
    """``run(until=...)`` stops the run there; later events stay queued."""
    seen = []

    def stopper(env):
        yield env.timeout(1.0)
        seen.append("stop")

    def later(env):
        yield env.timeout(2.0)
        seen.append("later")

    engine.process(stopper(engine))
    engine.process(later(engine))
    engine.run(until=1.5)
    assert seen == ["stop"]
    assert engine.peek() == 2.0


def test_unhandled_process_failure_raises(engine):
    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    engine.process(boom(engine))
    with pytest.raises(SimulationError) as exc_info:
        engine.run()
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_negative_timeout_rejected(engine):
    with pytest.raises(ValueError):
        engine.timeout(-1.0)


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        trace = []

        def worker(env, k):
            for i in range(3):
                yield env.timeout(0.1 * (k + 1))
                trace.append((env.now, k, i))

        for k in range(4):
            eng.process(worker(eng, k))
        eng.run()
        return trace

    assert build() == build()
