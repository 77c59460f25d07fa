"""Processes: return values, exceptions, chaining, kill."""

import pytest

from repro.sim import SimulationError
from tests.oracles import AllOf, ProcessKilled, kill


def test_process_return_value(engine):
    def proc(env):
        yield env.timeout(1)
        return "result"

    p = engine.process(proc(engine))
    engine.run()
    assert p.value == "result"


def test_process_waits_on_another_process(engine):
    def inner(env):
        yield env.timeout(2)
        return 7

    def outer(env):
        value = yield env.process(inner(env))
        return value * 3

    p = engine.process(outer(engine))
    engine.run()
    assert p.value == 21
    assert engine.now == 2


def test_process_requires_generator(engine):
    with pytest.raises(TypeError):
        engine.process(lambda: None)


def test_yielding_non_event_fails_process(engine):
    def bad(env):
        yield 42

    engine.process(bad(engine))
    with pytest.raises(SimulationError) as exc:
        engine.run()
    assert isinstance(exc.value.__cause__, TypeError)


def test_exception_in_awaited_process_propagates(engine):
    def failing(env):
        yield env.timeout(1)
        raise RuntimeError("inner failure")

    def outer(env):
        try:
            yield env.process(failing(env))
        except RuntimeError as exc:
            return f"caught: {exc}"

    p = engine.process(outer(engine))
    engine.run()
    assert p.value == "caught: inner failure"


def test_immediate_return_process(engine):
    def instant(env):
        return "now"
        yield  # pragma: no cover - makes this a generator

    p = engine.process(instant(engine))
    engine.run()
    assert p.value == "now"


def test_kill_interrupts_wait(engine):
    stages = []

    def victim(env):
        stages.append("start")
        yield env.timeout(100)
        stages.append("never")

    def killer(env, target):
        yield env.timeout(1)
        kill(target, "test")

    victim_proc = engine.process(victim(engine))
    engine.process(killer(engine, victim_proc))
    engine.run()
    assert stages == ["start"]
    assert victim_proc.triggered and not victim_proc.ok
    assert isinstance(victim_proc.value, ProcessKilled)


def test_kill_runs_cleanup(engine):
    cleaned = []

    def victim(env):
        try:
            yield env.timeout(100)
        finally:
            cleaned.append(True)

    def killer(env, target):
        yield env.timeout(1)
        kill(target)

    victim_proc = engine.process(victim(engine))
    engine.process(killer(engine, victim_proc))
    engine.run()
    assert cleaned == [True]


def test_kill_finished_process_is_noop(engine):
    def quick(env):
        yield env.timeout(1)
        return "done"

    p = engine.process(quick(engine))
    engine.run()
    kill(p)
    assert p.value == "done"


def test_chained_already_processed_event(engine):
    """Waiting on an event that has already been processed resumes
    synchronously without deadlock."""

    def proc(env):
        ev = env.timeout(0, "x")
        yield env.timeout(1)
        value = yield ev  # ev processed long ago
        return value

    p = engine.process(proc(engine))
    engine.run()
    assert p.value == "x"


# -- the hop rule: a finished process nobody awaits queues nothing ----------
def _quick(env, value="done"):
    yield env.timeout(1)
    return value


def test_unawaited_return_settles_in_place(engine):
    p = engine.process(_quick(engine))
    engine.run(until=1)
    # start hop + the body's timer; no "process finished" event follows.
    assert engine.events_processed == 2
    assert not engine._heap
    assert p.processed and p.ok and p.value == "done"
    kill(p)  # no-op on a settled process
    assert p.value == "done" and not engine._heap


def test_settled_process_can_still_be_awaited(engine):
    p = engine.process(_quick(engine, 7))
    seen = []

    def late(env):
        yield env.timeout(2)
        seen.append((yield p))
        both = yield AllOf(env, [env.process(_quick(env, 8)), p])
        seen.append(sorted(both.values()))

    engine.process(late(engine))
    engine.run()
    assert seen == [7, [7, 8]]


def test_unawaited_failure_still_surfaces_at_its_instant(engine):
    def failing(env):
        yield env.timeout(3)
        raise RuntimeError("boom")

    engine.process(failing(engine))
    with pytest.raises(SimulationError) as exc:
        engine.run()
    assert isinstance(exc.value.__cause__, RuntimeError)
    assert engine.now == 3


def test_awaited_process_resumes_its_waiter_one_hop_later(engine):
    order = []

    def outer(env):
        value = yield env.process(_quick(env))
        order.append(("outer", value, env.now))

    def bystander(env):
        yield env.timeout(0.5)
        yield env.timeout(0.5)  # queued after the inner process's timer
        order.append(("bystander", env.now))

    engine.process(outer(engine))
    engine.process(bystander(engine))
    engine.run()
    # The inner process finishes at t=1 *before* the bystander's timer
    # fires, but its waiter resumes through a queued event, i.e. after.
    assert order == [("bystander", 1), ("outer", "done", 1)]
    # 3 starts + 3 timers + inner-finished (outer's own finish has no
    # waiter and queues nothing).
    assert engine.events_processed == 7


def test_eager_start_runs_the_first_segment_inside_the_constructor(engine):
    from repro.sim import Process

    ran = []

    def body(env):
        ran.append("first")
        yield env.timeout(1)
        ran.append("second")

    p = Process(engine, body(engine), _eager=True)
    assert ran == ["first"] and not p.triggered
    assert len(engine._heap) == 1  # the body's timer; no start hop
    engine.run()
    assert ran == ["first", "second"] and p.processed
    assert engine.events_processed == 1
    # engine.process() keeps the deferred start.
    deferred = engine.process(body(engine))
    assert ran == ["first", "second"] and not deferred.triggered
