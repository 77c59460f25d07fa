"""Cross-cutting invariants, hypothesis-driven."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credits import CreditGranter
from repro.core.blocks import SinkBlockState
from repro.core.pool import BlockPool
from repro.network import Link, Path
from repro.sim import Engine
from tests.conftest import make_fabric


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=10_000_000), min_size=1, max_size=20
    ),
    rates=st.lists(
        st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=3
    ),
)
def test_path_never_beats_bottleneck(sizes, rates):
    """Physics: N transfers through a path finish no sooner than the
    bottleneck link needs to serialise all their bytes."""
    engine = Engine()
    links = [Link(engine, gbps) for gbps in rates]
    path = Path(engine, links)

    def send(env, nbytes):
        yield from path.transmit(nbytes)

    for nbytes in sizes:
        engine.process(send(engine, nbytes))
    engine.run()
    min_time = sum(sizes) / path.bottleneck_bytes_per_second
    assert engine.now >= min_time * (1 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    pool_size=st.integers(min_value=2, max_value=24),
    ratio=st.integers(min_value=1, max_value=4),
    events=st.lists(
        st.sampled_from(["initial", "done", "request", "freed"]),
        min_size=1,
        max_size=60,
    ),
)
def test_granter_conserves_blocks(pool_size, ratio, events):
    """Under any event sequence: every block is FREE or WAITING, the
    outstanding-credit count equals the advertised-block count, and the
    granter never over-issues."""
    f = make_fabric()
    pd = f.dev_b.alloc_pd()
    pool = BlockPool.build_sink(f.b, pd, pool_size, 4096)
    granter = CreditGranter(pool, grant_ratio=ratio, proactive=True)
    outstanding = []  # credits the "source" currently holds

    for event in events:
        if event == "initial":
            outstanding += granter.initial_grant(2)
        elif event == "done":
            if outstanding:
                # Source consumed a credit: land a block, make it READY,
                # then immediately consume + free it (fast sink).
                credit = outstanding.pop(0)
                block = pool.by_id(credit.block_id)
                from repro.core.messages import BlockHeader

                block.finish(BlockHeader(1, 0, 0, 64), None)
                block.consume()
                pool.put_free_blk(block)
                outstanding += granter.on_block_done()
                outstanding += granter.on_block_freed()
        elif event == "request":
            outstanding += granter.on_request()
        elif event == "freed":
            outstanding += granter.on_block_freed()

        states = [b.state for b in pool.blocks.values()]
        assert all(
            s in (SinkBlockState.FREE, SinkBlockState.WAITING) for s in states
        )
        advertised = sum(1 for s in states if s is SinkBlockState.WAITING)
        assert advertised == len(outstanding)
        assert advertised + len(pool.free) == pool_size
        # No credit ever duplicated.
        ids = [c.block_id for c in outstanding]
        assert len(ids) == len(set(ids))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    block=st.sampled_from([4096, 65536, 1 << 20]),
)
def test_qp_completion_count_matches_posts(n, block):
    """Every signalled WRITE yields exactly one completion, in order."""
    f = make_fabric()
    qa, _ = f.qp_pair(max_send_wr=64)
    _, buf, mr = f.remote_mr(size=2 << 20)
    from repro.verbs import Opcode, SendWR

    def pump(env):
        for i in range(n):
            while qa.send_room == 0:
                yield env.timeout(1e-6)
            qa.post_send(
                SendWR(
                    opcode=Opcode.RDMA_WRITE,
                    length=block,
                    wr_id=i,
                    remote_addr=buf.addr,
                    rkey=mr.rkey,
                )
            )
        while qa.send_outstanding:
            yield env.timeout(1e-6)

    f.engine.process(pump(f.engine))
    f.engine.run()
    wcs = qa.send_cq._reap(max_entries=n + 10)
    assert [wc.wr_id for wc in wcs] == list(range(n))
    assert all(wc.ok for wc in wcs)
    assert qa.send_outstanding == 0


@settings(max_examples=20, deadline=None)
@given(
    chunks=st.lists(
        st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=15
    )
)
def test_pipe_tcp_delivers_exact_byte_counts(chunks):
    """Pipe-mode TCP: any send pattern is received byte-exact."""
    from repro.network import back_to_back
    from repro.tcp import TcpConnection, TcpMode
    from tests.conftest import make_host

    engine = Engine()
    src = make_host(engine, "s", nic_gbps=10)
    dst = make_host(engine, "d", nic_gbps=10)
    duplex = back_to_back(engine, 10.0, rtt=1e-4)
    conn = TcpConnection(
        engine, src, dst, TcpMode.PIPE, path=duplex, sndbuf=4 << 20, rcvbuf=4 << 20
    )
    total = sum(chunks)

    def sender(env):
        thread = src.thread("s")
        for c in chunks:
            yield from conn.send(thread, c)

    def receiver(env):
        thread = dst.thread("r")
        yield from conn.recv(thread, total)
        return env.now

    engine.process(sender(engine))
    p = engine.process(receiver(engine))
    engine.run()
    assert p.ok
    assert conn._rcvbuf.level == pytest.approx(0.0, abs=1e-3)
    assert conn.bytes_delivered.total == pytest.approx(total, abs=1e-3)
