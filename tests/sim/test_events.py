"""Event primitives: triggering, chaining, and conditions."""

import pytest

from repro.sim import AnyOf, Engine, Event
from tests.oracles import AllOf


def test_event_lifecycle(engine):
    ev = Event(engine)
    assert not ev.triggered and not ev.processed
    ev.succeed(42)
    assert ev.triggered and ev.ok and ev.value == 42
    engine.run()
    assert ev.processed


def test_event_value_before_trigger_raises(engine):
    ev = Event(engine)
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_double_trigger_rejected(engine):
    ev = Event(engine)
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception(engine):
    ev = Event(engine)
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_failed_event_propagates_into_process(engine):
    ev = Event(engine)
    caught = []

    def waiter(env):
        try:
            yield ev
        except KeyError as exc:
            caught.append(exc)

    engine.process(waiter(engine))
    ev.fail(KeyError("nope"))
    engine.run()
    assert len(caught) == 1


def test_defused_failure_does_not_raise_at_engine(engine):
    ev = Event(engine)
    ev.defuse()
    ev.fail(RuntimeError("handled elsewhere"))
    # Chaining copies the failure.
    chained = Event(engine).defuse()
    chained.trigger(ev)
    assert not chained.ok and chained.value is ev.value
    engine.run()  # no SimulationError


def test_allof_waits_for_every_event(engine):
    times = []

    def waiter(env):
        yield AllOf(env, [env.timeout(1), env.timeout(3), env.timeout(2)])
        times.append(env.now)

    engine.process(waiter(engine))
    engine.run()
    assert times == [3]


def test_anyof_fires_on_first(engine):
    times = []

    def waiter(env):
        yield AnyOf(env, [env.timeout(5), env.timeout(1)])
        times.append(env.now)

    engine.process(waiter(engine))
    engine.run()
    assert times == [1]


def test_operator_composition(engine):
    done = []

    def waiter(env):
        yield AllOf(env, [env.timeout(1), env.timeout(2)])
        done.append(env.now)
        yield AnyOf(env, [env.timeout(10), env.timeout(1)])
        done.append(env.now)

    engine.process(waiter(engine))
    engine.run(until=4)
    assert done == [2, 3]


def test_empty_condition_succeeds_immediately(engine):
    def waiter(env):
        value = yield AllOf(env, [])
        return value

    proc = engine.process(waiter(engine))
    engine.run()
    assert proc.value == {}


def test_condition_collects_values(engine):
    def waiter(env):
        t1 = env.timeout(1, "a")
        t2 = env.timeout(2, "b")
        values = yield AllOf(env, [t1, t2])
        return sorted(values.values())

    proc = engine.process(waiter(engine))
    engine.run()
    assert proc.value == ["a", "b"]


def test_condition_rejects_cross_engine_events(engine):
    other = Engine()
    with pytest.raises(ValueError):
        AllOf(engine, [engine.timeout(1), other.timeout(1)])


def test_callback_after_processed_rejected(engine):
    ev = Event(engine)
    ev.succeed()
    engine.run()
    with pytest.raises(RuntimeError):
        ev.add_callback(lambda e: None)
