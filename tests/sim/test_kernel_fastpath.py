"""Kernel fast path: timer cancellation, deadline validation, dispatch.

The contract under test is the dispatch order: events run by
``(time, insertion)``, cancellation does not change the clock or the
processed-event count (tombstones still dispatch), and the single-heap
engine agrees with a sorted-list reference model after every operation.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AnyOf, Engine, SimulationError


# -- Timeout.cancel ----------------------------------------------------------

def test_cancelled_timer_runs_no_callbacks(engine):
    fired = []
    t = engine.timeout(1.0, "late")
    t.add_callback(lambda ev: fired.append(ev.value))
    assert t.cancel() is True
    engine.run()
    assert fired == []
    # The tombstone still advanced the clock and counted as processed.
    assert engine.now == 1.0
    assert engine.events_processed == 1


def test_cancel_after_fire_is_a_deterministic_noop(engine):
    fired = []
    t = engine.timeout(1e-3)
    t.add_callback(lambda ev: fired.append(ev.value))
    engine.run()
    assert len(fired) == 1
    assert t.cancel() is False  # already fired: ignored, never raises
    assert t.cancel() is False  # idempotent


def test_cancel_is_idempotent_before_fire(engine):
    t = engine.timeout(1.0)
    assert t.cancel() is True
    assert t.cancel() is True  # still pending, still cancelled
    engine.run()
    assert engine.now == 1.0


def test_anyof_winner_cancels_loser_timer(engine):
    log = []

    def racer():
        reply = engine.event()
        timer = engine.timeout(1.0)
        engine.process(replier(reply))
        yield AnyOf(engine, [reply, timer])
        assert reply.triggered
        timer.cancel()
        log.append(engine.now)

    def replier(reply):
        yield engine.timeout(1e-6)
        reply.succeed("pong")

    engine.process(racer())
    engine.run()
    assert log == [1e-6]
    # The cancelled loser still drains as a tombstone at its due time.
    assert engine.now == 1.0


# -- Event.trigger guard -----------------------------------------------------

def test_trigger_from_untriggered_source_raises(engine):
    target = engine.event()
    source = engine.event()
    with pytest.raises(RuntimeError, match="source event not yet triggered"):
        target.trigger(source)
    # The target must still be usable afterwards.
    source.succeed(7)
    target.trigger(source)
    engine.run()
    assert target.value == 7


# -- Condition detach --------------------------------------------------------

def test_resolved_anyof_detaches_from_losers(engine):
    winner = engine.event()
    loser = engine.timeout(5.0)
    cond = AnyOf(engine, [winner, loser])
    assert len(loser.callbacks) == 1
    winner.succeed("first")
    engine.run(until=1.0)
    # A Timeout is born triggered, so _collect includes it alongside the
    # winner; the detach contract is about callbacks, not the value dict.
    assert cond.processed and cond.value[winner] == "first"
    # The condition's check callback no longer rides the pending loser.
    assert loser.callbacks == []


def test_failed_condition_detaches_from_pending_children(engine):
    bad = engine.event()
    pending = engine.timeout(5.0)
    cond = AnyOf(engine, [bad, pending])
    cond.defuse()
    bad.defuse()
    bad.fail(RuntimeError("boom"))
    engine.run(until=1.0)
    assert cond.processed and not cond.ok
    assert pending.callbacks == []


# -- run(until) put-back ------------------------------------------------------

def test_run_until_puts_overshooting_timer_back(engine):
    t = engine.timeout(2.0)
    engine.run(until=1.0)
    assert engine.now == 1.0
    assert not t.processed
    engine.run()
    assert engine.now == 2.0
    assert t.processed


# -- typed validation of timer deadlines ---------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "delay, match",
    [(NAN, "finite"), (INF, "finite"), (-INF, "negative"), (-1.0, "negative")],
)
def test_timeout_rejects_bad_delay(engine, delay, match):
    with pytest.raises(ValueError, match=match) as err:
        engine.timeout(delay)
    assert repr(delay) in str(err.value)
    assert engine.peek() == INF  # nothing was queued


@pytest.mark.parametrize(
    "when, match",
    [(NAN, "finite"), (INF, "finite"), (-INF, "in the past"), (0.5, "in the past")],
)
def test_timeout_at_rejects_bad_deadline(engine, when, match):
    engine.run(until=1.0)
    with pytest.raises(ValueError, match=match) as err:
        engine.timeout_at(when)
    assert repr(when) in str(err.value)
    assert engine.peek() == INF


# -- hypothesis: the engine against a sorted-list reference model -------------

class _Model:
    """What the kernel promises, in the dumbest possible form."""

    def __init__(self):
        self.now, self.seq, self.processed = 0.0, 0, 0
        self.queue, self.fired = [], []
        self.cancelled, self.done, self.chained = set(), set(), {}

    def schedule(self, when, tag):
        self.seq += 1
        insort(self.queue, (when, self.seq, tag))

    def cancel(self, tag):
        if tag in self.done:
            return False
        self.cancelled.add(tag)
        return True

    def step(self):
        self.now, _, tag = self.queue.pop(0)
        self.processed += 1  # tombstones count
        self.done.add(tag)
        if tag not in self.cancelled:
            self.fired.append((tag, self.now))
            if tag in self.chained:
                self.schedule(self.now + self.chained[tag], -tag)

    def run(self, until):
        while self.queue and self.queue[0][0] <= until:
            self.step()
        self.now = until

    def peek(self):
        return self.queue[0][0] if self.queue else INF


_DELAY = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["timeout", "timeout_at", "chain", "succeed", "fail",
                 "cancel", "run_until", "step"]
            ),
            st.integers(min_value=0, max_value=15),
            # Few distinct values, so equal deadlines (eid ties) are common.
            st.one_of(_DELAY, st.sampled_from([0.0, 1e-6, 64e-6, 0.125])),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_engine_matches_sorted_list_model(ops):
    engine, model = Engine(), _Model()
    log, timers = [], []

    def watch(event, tag):
        event.add_callback(lambda ev: log.append((tag, engine.now)))

    def rearm(delay, tag):
        # Scheduling from inside a dispatch, like every protocol callback.
        return lambda ev: watch(engine.timeout(delay), tag)

    for tag, (op, pick, x) in enumerate(ops, start=1):
        if op in ("timeout", "timeout_at", "chain"):
            if op == "timeout_at":
                timer = engine.timeout_at(model.now + x)
            else:
                timer = engine.timeout(x)
            timers.append((timer, tag))
            watch(timer, tag)
            model.schedule(model.now + x, tag)
            if op == "chain":
                timer.add_callback(rearm(x, -tag))
                model.chained[tag] = x
        elif op in ("succeed", "fail"):
            if op == "succeed":
                event = engine.event().succeed(tag)
            else:
                event = engine.event().defuse().fail(RuntimeError(tag))
            watch(event, tag)
            model.schedule(model.now, tag)
        elif op == "cancel" and timers:
            timer, victim = timers[pick % len(timers)]
            assert timer.cancel() is model.cancel(victim)
        elif op == "run_until":
            engine.run(until=model.now + x)
            model.run(model.now + x)
        elif op == "step":
            if model.queue:
                engine.step()
                model.step()
            else:
                with pytest.raises(SimulationError):
                    engine.step()
        assert engine.now == model.now
        assert engine.events_processed == model.processed
        assert engine.peek() == model.peek()
        assert log == model.fired

    engine.run()
    model.run(INF)
    assert log == model.fired
    assert engine.events_processed == model.processed
    assert engine.peek() == INF
