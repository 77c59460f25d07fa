"""Memory regions, protection domains, completion queues."""

import pytest

from repro.sim import SimulationError
from repro.verbs import (
    AccessFlags,
    Opcode,
    RecvWR,
    SendWR,
    WcStatus,
    WorkCompletion,
    connect_pair,
)
from repro.verbs.errors import RemoteAccessError
from tests.conftest import make_fabric


def test_reg_mr_assigns_keys():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    buf = f.a.memory.alloc(4096)
    mr = pd.reg_mr_sync(buf, AccessFlags.REMOTE_WRITE)
    assert mr.rkey != mr.lkey
    assert pd.lookup_rkey(mr.rkey) is mr


def test_lookup_unknown_rkey():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    assert pd.lookup_rkey(0xDEAD) is None
    assert pd.lookup_rkey(None) is None


def test_access_flag_enforcement():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    buf = f.a.memory.alloc(4096)
    wr_only = pd.reg_mr_sync(buf, AccessFlags.REMOTE_WRITE)
    wr_only.check_remote(buf.addr, 100, write=True)
    with pytest.raises(RemoteAccessError, match="lacks AccessFlags.REMOTE_READ permission"):
        wr_only.check_remote(buf.addr, 100, write=False)
    rd_only = pd.reg_mr_sync(buf, AccessFlags.REMOTE_READ)
    rd_only.check_remote(buf.addr, 100, write=False)
    with pytest.raises(RemoteAccessError, match="lacks AccessFlags.REMOTE_WRITE permission"):
        rd_only.check_remote(buf.addr, 100, write=True)


def test_bounds_enforcement():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    buf = f.a.memory.alloc(4096)
    mr = pd.reg_mr_sync(buf, AccessFlags.REMOTE_WRITE)
    mr.check_remote(buf.addr, 4096, write=True)
    with pytest.raises(RemoteAccessError):
        mr.check_remote(buf.addr, 4097, write=True)
    with pytest.raises(RemoteAccessError):
        mr.check_remote(buf.addr - 1, 10, write=True)


def test_mr_contents_place_fetch_take():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    buf = f.a.memory.alloc(4096)
    mr = pd.reg_mr_sync(buf, AccessFlags.REMOTE_WRITE)
    mr.place(buf.addr, "payload")
    assert mr.fetch(buf.addr) == "payload"
    assert mr.take(buf.addr) == "payload"
    assert mr.take(buf.addr) is None


# -- CQ ------------------------------------------------------------------------
def _wc(i=0):
    return WorkCompletion(wr_id=i, opcode=Opcode.SEND, status=WcStatus.SUCCESS)


def test_cq_poll_batches_and_costs():
    f = make_fabric()
    cq = f.dev_a.create_cq()
    for i in range(10):
        cq.push(_wc(i))
    thread = f.a.thread("poller")

    def proc(env):
        batch = yield cq.poll(thread, max_entries=4)
        return batch

    p = f.engine.process(proc(f.engine))
    f.engine.run()
    assert [wc.wr_id for wc in p.value] == [0, 1, 2, 3]
    assert len(cq) == 6
    assert f.a.cpu.busy_seconds() == pytest.approx(
        4 * f.dev_a.arch_profile.poll_cqe_seconds
    )


def test_cq_empty_poll_costs_little():
    f = make_fabric()
    cq = f.dev_a.create_cq()
    thread = f.a.thread("poller")

    def proc(env):
        return (yield cq.poll(thread))

    p = f.engine.process(proc(f.engine))
    f.engine.run()
    assert p.value == []
    assert f.a.cpu.busy_seconds() == pytest.approx(
        f.dev_a.arch_profile.poll_empty_seconds
    )


def test_cq_overflow_raises_typed_error():
    from repro.verbs.errors import CqOverflowError

    f = make_fabric()
    with pytest.raises(ValueError, match="CQ depth must be >= 1"):
        f.dev_a.create_cq(depth=0)
    cq = f.dev_a.create_cq(depth=2)
    for i in range(2):
        cq.push(_wc(i))
    for i in range(2, 5):
        with pytest.raises(CqOverflowError):
            cq.push(_wc(i))
    assert len(cq) == 2
    assert cq.overflows == 3
    counter = f.engine.metrics.get("cq.overflow")
    assert counter is not None and counter.total == 3
    # The counter is lazy: a healthy run never registers the family.
    f2 = make_fabric()
    f2.dev_a.create_cq(depth=2).push(_wc(0))
    assert f2.engine.metrics.get("cq.overflow") is None
    # A WR whose receive CQE overflows fails the run: SimulationError from
    # the CqOverflowError, at the instant the second SEND's payload is
    # placed, on both engines (the instant the process-per-WR QP raised it).
    for fluid in (True, False):
        f3 = make_fabric()
        f3.engine.use_fluid = fluid
        pd_a, pd_b = f3.dev_a.alloc_pd(), f3.dev_b.alloc_pd()
        qa = f3.dev_a.create_qp(pd_a, f3.dev_a.create_cq(), f3.dev_a.create_cq())
        qb = f3.dev_b.create_qp(pd_b, f3.dev_b.create_cq(), f3.dev_b.create_cq(depth=1))
        connect_pair(qa, qb, f3.duplex)
        for i in range(2):
            qb.post_recv(RecvWR(length=4096, wr_id=i))
            qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=i))
        with pytest.raises(SimulationError) as err:
            f3.engine.run()
        assert isinstance(err.value.__cause__, CqOverflowError)
        assert f3.engine.now == 1.63624e-05
        assert f3.engine.events_processed == (9 if fluid else 19)


def test_completion_channel_wakes_on_push():
    f = make_fabric()
    cq = f.dev_a.create_cq()
    from repro.verbs import CompletionChannel

    channel = CompletionChannel(cq)
    thread = f.a.thread("waiter")
    woke = []

    def waiter(env):
        yield channel.wait(thread)
        woke.append(env.now)

    def pusher(env):
        yield env.timeout(1.0)
        cq.push(_wc())

    f.engine.process(waiter(f.engine))
    f.engine.process(pusher(f.engine))
    f.engine.run()
    assert len(woke) == 1 and woke[0] >= 1.0


def test_completion_channel_immediate_when_pending():
    f = make_fabric()
    cq = f.dev_a.create_cq()
    from repro.verbs import CompletionChannel

    channel = CompletionChannel(cq)
    cq.push(_wc())
    thread = f.a.thread("waiter")

    def waiter(env):
        yield channel.wait(thread)
        return env.now

    p = f.engine.process(waiter(f.engine))
    f.engine.run()
    assert p.value == pytest.approx(_wake_cost(f))
    assert channel._waiter is None  # nothing to wait for, nobody registered


def _wake_cost(f):
    return f.a.spec.interrupt_seconds + f.dev_a.arch_profile.cq_event_seconds


def test_completion_channel_rejects_a_second_concurrent_waiter():
    f = make_fabric()
    from repro.verbs import CompletionChannel

    channel = CompletionChannel(f.dev_a.create_cq())
    channel.wait(f.a.thread("first"))
    with pytest.raises(RuntimeError, match="one waiter"):
        channel.wait(f.a.thread("second"))


@pytest.mark.parametrize("cores_busy", [False, True], ids=["idle", "saturated"])
@pytest.mark.parametrize("fluid", [True, False], ids=["fluid", "discrete"])
def test_wake_charges_the_waiting_thread_and_resumes_after_the_cost(fluid, cores_busy):
    """One wake = interrupt + cq_event on the *waiter's* accounting
    group, started the instant the CQE lands; the caller resumes when
    that chunk ends — the same in both engine modes, and also when the
    chunk has to queue for a core (``thread.exec`` returns a process)."""
    from repro.verbs import CompletionChannel

    f = make_fabric(cores=1)
    f.engine.use_fluid = fluid
    cq = f.dev_a.create_cq()
    channel = CompletionChannel(cq)
    thread = f.a.thread("waiter", "cq-waiter")
    cost = _wake_cost(f)
    hog = 5 * cost if cores_busy else 0.0
    woke = []

    def waiter(env):
        yield channel.wait(thread)
        woke.append(env.now)

    def pusher(env):
        yield env.timeout(1.0)
        if cores_busy:
            # Occupy the only core until 1.0 + hog.
            f.a.thread("hog", "other").exec(hog)
        cq.push(_wc())

    f.engine.process(waiter(f.engine))
    f.engine.process(pusher(f.engine))
    f.engine.run()
    assert woke == [1.0 + hog + cost]
    assert f.a.cpu.busy_seconds("cq-waiter") == cost
    assert f.a.cpu.busy_seconds() == pytest.approx(hog + cost)


def test_single_channel_per_cq():
    f = make_fabric()
    cq = f.dev_a.create_cq()
    from repro.verbs import CompletionChannel

    CompletionChannel(cq)
    with pytest.raises(RuntimeError):
        CompletionChannel(cq)
