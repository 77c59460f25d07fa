"""The booking seam of a path: ``chain_ok`` / ``book`` / ``arrived``.

``Path.book`` must return the instants ``transmit`` completes at — on
the fluid engine and on the discrete one — and ``chain_ok`` must send
everything it cannot vouch for down per-hop ``Link.serialize``, from
``Path.transmit`` and from ``QueuePair`` alike.
"""

from __future__ import annotations

import pytest

from repro.network import Link, Path, back_to_back, wan_path
from repro.sim.engine import Engine
from repro.sim.events import TimeoutAt
from repro.verbs import Opcode, SendWR, WcStatus
from tests.conftest import INTERLEAVED_ARRIVALS as ARRIVALS
from tests.conftest import make_fabric
from tests.oracles import transmit_burst


def _arrival_times(engine, path, booked):
    done = [None] * len(ARRIVALS)

    def one(i, at, nbytes):
        yield engine.timeout_at(at)
        if booked:
            assert path.chain_ok()
            yield TimeoutAt(engine, path.book(nbytes))
            path.arrived(nbytes)
        else:
            yield from path.transmit(nbytes)
        done[i] = engine.now

    for i, (at, nbytes) in enumerate(ARRIVALS):
        engine.process(one(i, at, nbytes))
    engine.run()
    return done


def test_bookings_arrive_when_transmit_does():
    runs = {}
    for key, fluid, booked in (("book", True, True), ("form", True, False),
                               ("chain", False, False)):
        engine = Engine(use_fluid=fluid)
        path = wan_path(engine, 10.0, 0.05).forward
        runs[key] = (
            _arrival_times(engine, path, booked),
            [link.bytes_sent.total for link in path.links],
            path._m_bytes.total,
        )
    assert runs["book"] == runs["form"] == runs["chain"]
    total = sum(nbytes for _, nbytes in ARRIVALS)
    assert runs["book"][1] == [total] * 3 and runs["book"][2] == total


def test_latency_and_bottleneck_are_fixed_at_construction(engine):
    path = wan_path(engine, 10.0, 0.05, backbone_gbps=100.0).forward
    assert path.latency == sum(link.delay for link in path.links)
    assert path.bottleneck_gbps == 10.0
    assert path.bottleneck_bytes_per_second == 10.0 * 1e9 / 8.0
    assert path.mtu == min(link.mtu for link in path.links)


@pytest.mark.parametrize("count", [2, 5])
def test_a_burst_is_that_many_ordered_transmits(count):
    nbytes = 9000
    ends, frees = {}, {}
    for key, fluid, burst in (("burst", True, True), ("each", True, False),
                              ("chain", False, False)):
        engine = Engine(use_fluid=fluid)
        path = wan_path(engine, 10.0, 0.05).forward
        done = []

        def unit():
            yield from path.transmit(nbytes)
            done.append(engine.now)

        def whole():
            yield from transmit_burst(path, nbytes, count)
            done.append(engine.now)

        if burst:
            engine.process(whole())
        else:
            for _ in range(count):
                engine.process(unit())
        engine.run()
        ends[key] = max(done)
        frees[key] = [link._fluid_free for link in path.links]
        assert [link.bytes_sent.total for link in path.links] == [nbytes * count] * 3
    assert ends["burst"] == ends["each"] == ends["chain"]
    assert frees["burst"] == frees["each"]  # the wire is left equally busy


def _arm_fault_hook(path):
    path.links[0].fault_hook = lambda nbytes: 0.0


def _flap(path):
    path.links[0].fail_for(1e-3)  # over long before the transfer starts


def _share(path):
    Path(path.engine, [path.links[0]], "second-owner")


UNCLEAN = [_arm_fault_hook, _flap, _share]


def _write_once(spoil):
    """Post one RDMA WRITE at t=10 ms over a possibly spoiled path;
    returns (chain_ok at post time, per-hop serialisations, completion)."""
    fab = make_fabric()
    engine, path = fab.engine, fab.duplex.forward
    if spoil is not None:
        spoil(path)
    qa, _ = fab.qp_pair()
    _, buf, mr = fab.remote_mr(1 << 20)
    serialised = []
    for link in path.links:
        inner = link.serialize

        def counting(nbytes, inner=inner, link=link):
            serialised.append(link.name)
            return inner(nbytes)

        link.serialize = counting
    seen = {}

    def poster():
        yield engine.timeout_at(0.010)
        seen["ok"] = path.chain_ok()
        qa.post_send(
            SendWR(opcode=Opcode.RDMA_WRITE, length=1 << 20, wr_id=7,
                   remote_addr=buf.addr, rkey=mr.rkey, payload="x")
        )

    engine.process(poster())
    engine.run()
    (wc,) = qa.send_cq._reap(16)
    assert wc.status is WcStatus.SUCCESS and wc.wr_id == 7
    return seen["ok"], serialised, wc.timestamp, path


def test_a_clean_path_is_booked_without_touching_a_link():
    ok, serialised, _, path = _write_once(None)
    assert ok and serialised == []
    assert path.links[0].bytes_sent.total == 1 << 20


@pytest.mark.parametrize("spoil", UNCLEAN, ids=lambda f: f.__name__.strip("_"))
def test_an_unclean_path_is_not_chain_ok_and_the_qp_goes_per_hop(spoil):
    _, _, clean_done, _ = _write_once(None)
    ok, serialised, done, path = _write_once(spoil)
    assert not ok
    assert serialised == [link.name for link in path.links]
    # None of the four changes when an uncontended transfer arrives.
    assert done == clean_done
    assert path.links[0].bytes_sent.total == 1 << 20


def test_the_discrete_engine_is_never_chain_ok():
    path = back_to_back(Engine(use_fluid=False), 10.0, 0.001).forward
    assert not path.chain_ok()
    assert back_to_back(Engine(), 10.0, 0.001).forward.chain_ok()


def test_zero_bytes_skip_serialisation_but_not_propagation(engine):
    link = Link(engine, gbps=8.0, delay=0.010)
    path = Path(engine, [link])

    def proc():
        yield from path.transmit(0)

    engine.process(proc())
    engine.run()
    assert engine.now == 0.010 and link._fluid_free == 0.0
