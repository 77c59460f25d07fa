"""Registered buffer-block pools.

Memory registration is expensive (page pinning), so the middleware
registers each block once at pool construction and reuses the regions for
the whole transfer — one of the optimisations the paper calls out.  The
pool exposes the paper's API verbs: ``get_free_blk`` / ``put_free_blk``
on the source side and the ready-queue (``get_ready_blk``) on the sink
side, built on FIFO stores so waiting is fair and deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generic, List, TypeVar

from repro.core.blocks import IDLE_STATES, SinkBlock, SourceBlock
from repro.core.messages import HEADER_BYTES
from repro.sim.resources import Store
from repro.verbs.mr import AccessFlags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.host import Host
    from repro.sim.engine import Engine
    from repro.verbs.pd import ProtectionDomain

__all__ = ["BlockPool", "ResourcePool"]

BlockT = TypeVar("BlockT", SourceBlock, SinkBlock)


class ResourcePool:
    """Bounded lease accounting for a shared resource.

    The host channel pool hands each session a *lease* on its shared
    QPs/WQE budget instead of letting every session allocate dedicated
    state.  Capacity is what the scheduler's door caps derive from
    (real resources, not a config constant).

    Leases are tracked per owner so a double release (an abort path
    racing normal teardown) is idempotent rather than corrupting the
    balance sheet.
    """

    def __init__(self, engine: "Engine", capacity: int, name: str = "qp_pool") -> None:
        if capacity < 1:
            raise ValueError("ResourcePool capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self._owners: set = set()
        reg = engine.metrics
        labels = {"pool": reg.sequence(f"lease.{name}")}
        self._m_leases = reg.counter("qp_pool.leases", **labels)
        self._m_releases = reg.counter("qp_pool.releases", **labels)
        self._m_rejected = reg.counter("qp_pool.lease_rejected", **labels)
        reg.gauge_fn("qp_pool.leased", lambda: len(self._owners), **labels)
        reg.gauge_fn("qp_pool.capacity", lambda: self.capacity, **labels)

    @property
    def available(self) -> int:
        return self.capacity - len(self._owners)

    def lease(self, owner) -> bool:
        """Take one lease for ``owner``; False when the pool is full or
        the owner already holds one (leases are per-owner, not counted)."""
        if owner in self._owners:
            return False
        if len(self._owners) >= self.capacity:
            self._m_rejected.add()
            return False
        self._owners.add(owner)
        self._m_leases.add()
        return True

    def release(self, owner) -> bool:
        """Return ``owner``'s lease; idempotent (False when not held)."""
        if owner not in self._owners:
            return False
        self._owners.discard(owner)
        self._m_releases.add()
        return True

    @property
    def balanced(self) -> bool:
        """No leases outstanding — the quiescence-leak invariant."""
        return not self._owners


class BlockPool(Generic[BlockT]):
    """A pool of pre-registered, fixed-size buffer blocks."""

    def __init__(
        self,
        engine: "Engine",
        blocks: List[BlockT],
        block_size: int,
        role: str = "pool",
    ) -> None:
        self.engine = engine
        self.block_size = block_size
        self.role = role
        self.blocks: Dict[int, BlockT] = {b.block_id: b for b in blocks}
        self.free = Store(engine)
        self.free.put_many(blocks)
        # Occupancy gauges are callback-backed: zero cost on the block
        # get/put hot path, sampled only when a snapshot is taken.
        reg = engine.metrics
        labels = {"role": role, "i": reg.sequence(f"pool.{role}")}
        self._m_returns = reg.counter("pool.block_returns", **labels)
        reg.gauge_fn("pool.free_blocks", lambda: len(self.free), **labels)
        reg.gauge_fn("pool.blocks", lambda: len(self.blocks), **labels)
        reg.gauge_fn("pool.waiters", lambda: self.free.waiters, **labels)

    @property
    def occupancy(self) -> float:
        """Fraction of pinned blocks currently in use, in [0, 1].

        The scheduler's brownout watermark seam: pinned-memory pressure
        is the RDMAvisor-style per-session cost that grows with
        concurrent sessions, so the broker watches this instead of a
        proxy like queue depth.
        """
        return 1.0 - len(self.free) / len(self.blocks)

    def get_free_blk(self):
        """Event resolving to a free block (FIFO wait if none)."""
        return self.free.get()

    def try_get_free_blk(self):
        """Non-blocking variant; returns a block or ``None``."""
        return self.free.try_get()

    def put_free_blk(self, block: BlockT) -> None:
        """Return a block to the free list (must already be FREE state)."""
        if block.block_id not in self.blocks:
            raise KeyError(f"foreign block {block.block_id}")
        self.free.put_many([block])
        self._m_returns.add()

    def by_id(self, block_id: int) -> BlockT:
        return self.blocks[block_id]

    def audit(self) -> List[str]:
        """What a quiescent pool must not hold, as leak messages: blocks
        outside their FSM's :data:`~repro.core.blocks.IDLE_STATES`, and a
        free list whose size differs from the number of FREE blocks."""
        leaks: List[str] = []
        free = 0
        for blk in self.blocks.values():
            state = blk.state
            if state is type(state).FREE:
                free += 1
            elif state not in IDLE_STATES[type(state)]:
                leaks.append(f"{self.role} block {blk.block_id} stuck {state.value}")
        if free != len(self.free):
            leaks.append(
                f"{self.role} pool accounting: free list holds {len(self.free)},"
                f" {free} blocks are FREE"
            )
        return leaks

    # -- constructors -------------------------------------------------------------
    @classmethod
    def build_source(
        cls,
        host: "Host",
        pd: "ProtectionDomain",
        count: int,
        block_size: int,
    ) -> "BlockPool[SourceBlock]":
        """Allocate and register a source pool (local access only)."""
        blocks: List[SourceBlock] = []
        for i in range(count):
            buf = host.memory.alloc(block_size + HEADER_BYTES)
            mr = pd.reg_mr_sync(buf, AccessFlags.LOCAL_WRITE)
            blocks.append(SourceBlock(i, mr))
        return cls(host.engine, blocks, block_size, role="source")

    @classmethod
    def build_sink(
        cls,
        host: "Host",
        pd: "ProtectionDomain",
        count: int,
        block_size: int,
    ) -> "BlockPool[SinkBlock]":
        """Allocate and register a sink pool (remote-writable: the regions
        whose (addr, rkey) pairs become credits)."""
        blocks: List[SinkBlock] = []
        for i in range(count):
            # Room for the payload plus the per-block wire header.
            buf = host.memory.alloc(block_size + HEADER_BYTES)
            mr = pd.reg_mr_sync(
                buf, AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
            )
            blocks.append(SinkBlock(i, mr))
        return cls(host.engine, blocks, block_size, role="sink")
