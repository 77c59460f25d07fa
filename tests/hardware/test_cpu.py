"""CPU scheduler: core limits, utilisation accounting, background charge."""

import pytest

from repro.hardware import CpuScheduler
from repro.hardware.cpu import CpuThread


def make_sched(engine, cores=2):
    return CpuScheduler(engine, cores)


def test_single_thread_serialises_chunks(engine):
    sched = make_sched(engine, cores=4)
    thread = CpuThread(sched, "t", "app")

    def proc(env):
        for _ in range(3):
            yield thread.exec(1.0)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(3.0)
    assert sched.busy_seconds("app") == pytest.approx(3.0)


def test_threads_run_in_parallel_up_to_core_count(engine):
    sched = make_sched(engine, cores=2)

    def proc(env, thread):
        yield thread.exec(1.0)

    for i in range(4):
        engine.process(proc(engine, CpuThread(sched, f"t{i}", "app")))
    engine.run()
    # Four 1-second chunks on two cores: two waves.
    assert engine.now == pytest.approx(2.0)
    assert sched.busy_seconds() == pytest.approx(4.0)


def test_utilization_percent_of_one_core(engine):
    sched = make_sched(engine, cores=4)

    def proc(env, thread):
        yield thread.exec(2.0)

    for i in range(3):
        engine.process(proc(engine, CpuThread(sched, f"t{i}", "app")))
    engine.run()
    # Three cores busy for the full 2 s window = 300 % (nmon convention).
    assert sched.utilization_pct() == pytest.approx(300.0)


def test_group_accounting_separation(engine):
    sched = make_sched(engine)
    app = CpuThread(sched, "a", "app")
    aux = CpuThread(sched, "k", "aux")

    def proc(env):
        yield app.exec(1.0)
        yield aux.exec(3.0)

    engine.process(proc(engine))
    engine.run()
    assert sched.busy_seconds("app") == pytest.approx(1.0)
    assert sched.busy_seconds("aux") == pytest.approx(3.0)
    assert sched.busy_seconds() == pytest.approx(4.0)


def test_background_charge_does_not_block(engine):
    sched = make_sched(engine, cores=1)
    thread = CpuThread(sched, "t", "app")

    def proc(env):
        sched.charge_background(5.0, "kernel")
        yield thread.exec(1.0)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(1.0)  # background did not occupy core
    assert sched.busy_seconds("kernel") == pytest.approx(5.0)


def test_reset_accounting(engine):
    sched = make_sched(engine)
    thread = CpuThread(sched, "t", "app")

    def proc(env):
        yield thread.exec(2.0)
        sched.reset_accounting()
        yield thread.exec(1.0)

    engine.process(proc(engine))
    engine.run()
    assert sched.busy_seconds() == pytest.approx(1.0)
    assert sched.utilization_pct() == pytest.approx(100.0)


def test_zero_cost_chunk_is_free(engine):
    sched = make_sched(engine)
    thread = CpuThread(sched, "t", "app")

    def proc(env):
        yield thread.exec(0.0)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == 0.0


def test_thread_cannot_run_two_chunks_at_once(engine):
    sched = make_sched(engine)
    thread = CpuThread(sched, "t", "app")

    def a(env):
        yield thread.exec(2.0)

    def b(env):
        yield env.timeout(0.5)
        yield thread.exec(1.0)

    engine.process(a(engine))
    engine.process(b(engine))
    with pytest.raises(Exception):
        engine.run()


def test_negative_chunk_rejected(engine):
    sched = make_sched(engine)
    with pytest.raises(ValueError):
        list(sched.run_chunk(-1.0, "app"))
    # A thread rejects a negative, NaN or infinite chunk before taking
    # a core, and stays usable.
    thread = CpuThread(sched, "t", "app")
    for seconds in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            thread.exec(seconds)
    assert sched._pool._in_use == 0
    thread.exec(1.0)
    engine.run()
    assert sched.busy_seconds("app") == 1.0
    with pytest.raises(ValueError, match="compute time must be non-negative"):
        sched.charge_background(-1.0)


def test_scheduler_requires_core(engine):
    with pytest.raises(ValueError):
        CpuScheduler(engine, 0)


# -- the one-timer chunk ------------------------------------------------------
def _three_threads_one_core(engine):
    """Two groups on a single core: the first chunk takes the fluid
    one-timer path, the other two find no free core and queue."""
    sched = CpuScheduler(engine, cores=1)
    finished = []

    def proc(thread, seconds):
        yield thread.exec(seconds)
        finished.append((thread.name, engine.now))

    for name, group, seconds in (("a", "app", 0.3), ("b", "aux", 0.1), ("c", "app", 0.2)):
        engine.process(proc(CpuThread(sched, name, group), seconds))
    engine.run()
    return sched, finished


def test_contended_chunks_queue_fifo_and_groups_are_charged_exactly(engine):
    sched, finished = _three_threads_one_core(engine)
    # FIFO behind the running chunk, not shortest-first.
    assert finished == [("a", 0.3), ("b", 0.3 + 0.1), ("c", 0.3 + 0.1 + 0.2)]
    assert sched.busy_seconds("app") == 0.3 + 0.2
    assert sched.busy_seconds("aux") == 0.1
    assert sched.busy_seconds() == (0.3 + 0.2) + 0.1
    span = engine.now
    assert sched.utilization_pct("app") == 100.0 * (0.3 + 0.2) / span
    assert sched.utilization_pct("aux") == 100.0 * 0.1 / span
    assert sched._pool._in_use == 0 and not sched._pool._waiters


def test_chunk_accounting_is_the_same_on_both_engines():
    from repro.sim.engine import Engine

    runs = []
    for fluid in (True, False):
        engine = Engine(use_fluid=fluid)
        sched, finished = _three_threads_one_core(engine)
        runs.append((finished, sched.busy_seconds("app"), sched.busy_seconds("aux"),
                     sched.utilization_pct()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("hog", [False, True], ids=["core-free", "core-contended"])
def test_second_exec_on_a_busy_thread_raises(engine, hog):
    sched = CpuScheduler(engine, cores=1)
    thread = CpuThread(sched, "t", "app")
    if hog:
        CpuThread(sched, "hog", "app").exec(1.0)  # thread's chunk must queue
    thread.exec(1.0)
    with pytest.raises(RuntimeError, match="already executing"):
        thread.exec(1.0)
    engine.run()
    thread.exec(1.0)  # released once the chunk has run
    engine.run()
    assert sched.busy_seconds("app") == (3.0 if hog else 2.0)
