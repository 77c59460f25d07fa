"""Unit tests for the recovery hardening: session retirement, the
same-credit re-send path, and on-demand grant debt."""

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.core.credits import CreditGranter
from repro.core.pool import BlockPool
from repro.core.messages import BlockHeader
from repro.testbeds import roce_lan
from tests.conftest import make_fabric


def cfg(**over):
    base = dict(
        block_size=256 * 1024,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
    )
    base.update(over)
    return ProtocolConfig(**base)


def make_pair(c, port=4000, injector=None):
    tb = roce_lan()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(port, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    return tb, client, sink


# -- satellite: jobs leave the table on DATASET_DONE_ACK ----------------------------
def test_ack_pops_job_and_session_id_can_be_reused():
    c = cfg()
    tb, client, sink = make_pair(c)
    holder = {}

    def _run():
        link = yield client.open_link(tb.dst_dev, 4000)
        holder["link"] = link
        job1 = yield link.transfer(PatternSource(tb.src), 2 << 20, 7)
        # Regression: the completed job must leave the session table at
        # ACK time, or the table grows forever on a long-lived link (and
        # the id can never be reused).
        assert 7 not in link.jobs
        job2 = yield link.transfer(PatternSource(tb.src), 2 << 20, 7)
        holder["jobs"] = (job1, job2)

    tb.engine.process(_run())
    tb.engine.run()
    link = holder["link"]
    job1, job2 = holder["jobs"]
    assert job1.completed_blocks == job1.total_blocks
    assert job2.completed_blocks == job2.total_blocks
    # Both sessions delivered in full (16 blocks of 256K across 2 runs).
    assert len(list(sink.rows())) == job1.total_blocks + job2.total_blocks
    assert link.audit() == []
    # The audit names each leak planted on this quiesced link.
    link.jobs[9] = job1
    assert link.audit() == ["1 sessions never retired: [9]"]
    del link.jobs[9]
    link._host_pool.inflight[-1] = (link,)
    assert link.audit() == ["1 WRs still in flight"]
    del link._host_pool.inflight[-1]
    link.ledger._credits._getters.append(None)
    assert link.audit() == ["1 credit waiters stuck"]
    link.ledger._credits._getters.clear()
    assert link.audit() == []


# -- satellite: failed WRITE reposts with the SAME credit ---------------------------
class FailFirstPost:
    """Fail exactly the first RDMA WRITE ever posted; record every post."""

    def __init__(self):
        self.posts = []  # (block seq, wr_id, remote_addr)
        self.tripped = False

    def __call__(self, wr) -> bool:
        self.posts.append((wr.payload.header.seq, wr.wr_id, wr.remote_addr))
        if not self.tripped:
            self.tripped = True
            return True
        return False


def test_failed_write_reposts_same_credit_new_wr_id():
    c = cfg()
    tb, client, _sink = make_pair(c)
    injector = FailFirstPost()
    holder = {}

    def _run():
        link = yield client.open_link(tb.dst_dev, 4000, fault_injector=injector)
        holder["job"] = yield link.transfer(PatternSource(tb.src), 4 << 20, 1)

    tb.engine.process(_run())
    tb.engine.run()
    job = holder["job"]
    assert job.resends == 1
    failed_seq = injector.posts[0][0]
    attempts = [p for p in injector.posts if p[0] == failed_seq]
    assert len(attempts) == 2
    # Same credit: the retransmission targets the identical sink region
    # (routing the credit back through the ledger would let other blocks
    # steal it and deadlock a fully-advertised pool)...
    assert attempts[0][2] == attempts[1][2]
    # ...but under a fresh wr_id, so the completion routes unambiguously.
    assert attempts[0][1] != attempts[1][1]


def test_block_latencies_exclude_failed_completions():
    """Latency bookkeeping must only sample successful WRITEs — a faulted
    completion is not a delivery and would skew the percentiles."""
    c = cfg()
    tb, client, _sink = make_pair(c)
    injector = FailFirstPost()
    holder = {}

    def _run():
        link = yield client.open_link(tb.dst_dev, 4000, fault_injector=injector)
        holder["job"] = yield link.transfer(PatternSource(tb.src), 4 << 20, 1)

    tb.engine.process(_run())
    tb.engine.run()
    job = holder["job"]
    assert job.resends == 1
    # One successful completion per block — the faulted attempt is absent.
    (latency,) = tb.engine.metrics.family("source.block_latency_seconds")
    assert latency.count == job.total_blocks and latency.percentile(0) > 0


# -- satellite: on-demand granter pays its pending_request debt ---------------------
def test_on_demand_block_freed_satisfies_pending_request():
    f = make_fabric()
    pd = f.dev_b.alloc_pd()
    pool = BlockPool.build_sink(f.b, pd, 2, 4096)
    granter = CreditGranter(pool, grant_ratio=2, proactive=False)
    assert len(granter.on_request()) == 2  # drains the pool
    assert granter.on_request() == []
    assert granter.pending_request
    # A consumer frees a block: the debt must be paid immediately even
    # though the policy is on-demand.
    blk = pool.by_id(0)
    blk.finish(BlockHeader(1, 0, 0, 64), None)
    blk.consume()
    pool.put_free_blk(blk)
    granted = granter.on_block_freed()
    assert [cr.block_id for cr in granted] == [0]
    assert not granter.pending_request
    # No outstanding debt and on-demand policy: freeing more blocks grants
    # nothing unsolicited.
    blk1 = pool.by_id(1)
    blk1.finish(BlockHeader(1, 1, 0, 64), None)
    blk1.consume()
    pool.put_free_blk(blk1)
    assert granter.on_block_freed() == []
