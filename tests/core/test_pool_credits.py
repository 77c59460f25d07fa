"""Block pools and the credit flow-control policies."""

import pytest

from repro.core.blocks import SinkBlockState
from repro.core.credits import Credit, CreditGranter, CreditLedger
from repro.core.messages import HEADER_BYTES
from repro.core.pool import BlockPool
from tests.conftest import make_fabric


def sink_pool(f, count=8, block_size=4096):
    pd = f.dev_b.alloc_pd()
    return BlockPool.build_sink(f.b, pd, count, block_size)


# -- pool ------------------------------------------------------------------------
def test_source_pool_registers_blocks():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    pool = BlockPool.build_source(f.a, pd, 4, 8192)
    assert len(pool.blocks) == 4
    assert len(pool.free) == 4
    blk = pool.try_get_free_blk()
    assert blk.mr.buffer.size == 8192 + HEADER_BYTES
    assert pd.lookup_rkey(blk.mr.rkey) is blk.mr


def test_sink_pool_blocks_remote_writable():
    f = make_fabric()
    pool = sink_pool(f)
    blk = pool.try_get_free_blk()
    blk.mr.check_remote(blk.mr.buffer.addr, 4096 + HEADER_BYTES, write=True)


def test_pool_get_blocks_when_empty():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    pool = BlockPool.build_source(f.a, pd, 1, 4096)
    first = pool.try_get_free_blk()
    assert pool.try_get_free_blk() is None
    waits = []

    def waiter(env):
        blk = yield pool.get_free_blk()
        waits.append((env.now, blk.block_id))

    def returner(env):
        yield env.timeout(1.0)
        pool.put_free_blk(first)

    f.engine.process(waiter(f.engine))
    f.engine.process(returner(f.engine))
    f.engine.run()
    assert waits == [(1.0, first.block_id)]


def test_pool_rejects_foreign_block():
    f = make_fabric()
    pd = f.dev_a.alloc_pd()
    pool_a = BlockPool.build_source(f.a, pd, 2, 4096)
    pool_b = BlockPool.build_source(f.a, pd, 2, 4096)
    foreign = pool_b.try_get_free_blk()
    foreign.block_id = 99
    with pytest.raises(KeyError):
        pool_a.put_free_blk(foreign)


def test_pool_by_id():
    f = make_fabric()
    pool = sink_pool(f, count=3)
    assert pool.by_id(2).block_id == 2
    with pytest.raises(KeyError):
        pool.by_id(17)


# -- ledger -----------------------------------------------------------------------
def test_ledger_deposit_and_acquire():
    f = make_fabric()
    ledger = CreditLedger(f.engine)
    got = []

    def taker(env):
        credit = yield ledger.acquire()
        got.append(credit)

    f.engine.process(taker(f.engine))
    credit = Credit(block_id=0, addr=0x1000, rkey=0xABCD)
    ledger.deposit([credit])
    f.engine.run()
    assert got == [credit]
    assert ledger.total_received.total == 1
    assert ledger.balance == 0
    # A newer revocation generation is taken; a grant or refund of an
    # older one is dropped and counted.
    ledger.deposit([Credit(1, 0x2000, 0xABCD, gen=2)])
    ledger.deposit([Credit(2, 0x3000, 0xABCD, gen=1)])
    ledger.refund([Credit(3, 0x4000, 0xABCD, gen=1)])
    assert (ledger.balance, ledger.generation, ledger.flushed.total) == (1, 2, 2)


def test_ledger_peak_tracking():
    f = make_fabric()
    ledger = CreditLedger(f.engine)
    ledger.deposit([Credit(i, i, i) for i in range(5)])
    assert ledger.peak_balance.value == 5
    f.engine.run()


# -- granter ----------------------------------------------------------------------
def test_initial_grant_advertises_blocks():
    f = make_fabric()
    pool = sink_pool(f, count=8)
    granter = CreditGranter(pool, grant_ratio=2, proactive=True)
    credits = granter.initial_grant(3)
    assert len(credits) == 3
    assert len(pool.free) == 5
    for c in credits:
        assert pool.by_id(c.block_id).state is SinkBlockState.WAITING
        assert c.rkey == pool.by_id(c.block_id).mr.rkey


def test_initial_grant_disabled_when_on_demand():
    f = make_fabric()
    granter = CreditGranter(sink_pool(f), proactive=False)
    assert granter.initial_grant(3) == []


def test_block_done_grants_up_to_ratio():
    f = make_fabric()
    pool = sink_pool(f, count=8)
    granter = CreditGranter(pool, grant_ratio=2, proactive=True)
    assert len(granter.on_block_done()) == 2
    assert len(granter.on_block_done()) == 2


def test_block_done_with_empty_pool_grants_nothing():
    f = make_fabric()
    pool = sink_pool(f, count=2)
    granter = CreditGranter(pool, grant_ratio=2, proactive=True)
    granter.initial_grant(2)
    assert granter.on_block_done() == []  # ignored, per the paper


def test_request_records_debt_when_empty():
    f = make_fabric()
    pool = sink_pool(f, count=1)
    granter = CreditGranter(pool, grant_ratio=2, proactive=True)
    granter.initial_grant(1)
    assert granter.on_request() == []
    assert granter.pending_request
    # When a block frees, the debt is paid immediately.
    blk = pool.by_id(0)
    blk.finish(__import__("repro.core.messages", fromlist=["BlockHeader"]).BlockHeader(1, 0, 0, 64), None)
    blk.consume()
    pool.put_free_blk(blk)
    granted = granter.on_block_freed()
    assert len(granted) == 1
    assert not granter.pending_request


def test_on_demand_mode_only_answers_requests():
    f = make_fabric()
    pool = sink_pool(f, count=4)
    granter = CreditGranter(pool, grant_ratio=2, proactive=False)
    assert granter.on_block_done() == []
    assert granter.on_block_freed() == []
    assert len(granter.on_request()) == 2


def test_proactive_recycles_freed_blocks():
    f = make_fabric()
    pool = sink_pool(f, count=2)
    granter = CreditGranter(pool, grant_ratio=2, proactive=True)
    granter.initial_grant(2)
    blk = pool.by_id(0)
    from repro.core.messages import BlockHeader

    blk.finish(BlockHeader(1, 0, 0, 64), None)
    blk.consume()
    pool.put_free_blk(blk)
    granted = granter.on_block_freed()
    assert [c.block_id for c in granted] == [0]


def test_exponential_ramp_doubles_credits():
    """grant_ratio=2 yields the slow-start-like doubling of §IV-C."""
    f = make_fabric()
    pool = sink_pool(f, count=64)
    granter = CreditGranter(pool, grant_ratio=2, proactive=True)
    outstanding = len(granter.initial_grant(2))
    for _round in range(3):
        granted = 0
        for _ in range(outstanding):
            granted += len(granter.on_block_done())
        outstanding = granted
    # 2 -> 4 -> 8 -> 16
    assert outstanding == 16


def test_granter_validation():
    f = make_fabric()
    with pytest.raises(ValueError):
        CreditGranter(sink_pool(f), grant_ratio=0)
