"""Credit-based flow control with proactive feedback (§IV-A, §IV-C).

A *credit* is a token carrying a destination memory region: the sink
block's id, address, and rkey.  The source must hold a credit before it
may RDMA-WRITE a block; the sink replenishes credits through MR_INFO_REP
control messages.

Two policies are implemented:

- **proactive** (the paper's design): the sink pushes an initial batch
  right after session setup and, for every BLOCK_DONE notification,
  grants *up to two* fresh credits.  Granting 2-for-1 doubles the
  source's credit balance each round trip — the "similar to the slow
  start of TCP" ramp that fills a long fat pipe quickly.
- **on-demand** (the ablation, modelling Tian et al. [19]): the sink only
  answers explicit MR_INFO_REQ messages, costing the source a full RTT
  stall every time it runs dry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.blocks import SinkBlock
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import BlockPool
    from repro.sim.engine import Engine

__all__ = ["Credit", "CreditLedger", "CreditGranter"]

# Trace shape of the per-grant point: (category, message, *field_names).
_T_DEPOSIT = ("credits", "deposit", "granted", "balance", "total")


@dataclass(frozen=True, slots=True)
class Credit:
    """Permission to write one block into a specific sink memory region,
    valid while the sink's revocation generation is still ``gen``."""

    block_id: int
    addr: int
    rkey: int
    gen: int = 0

    @staticmethod
    def for_block(block: SinkBlock, gen: int) -> "Credit":
        return Credit(block.block_id, block.mr.buffer.addr, block.mr.rkey, gen)


class CreditLedger:
    """Source-side credit balance.

    Senders wait on :meth:`acquire`; the control-message handler deposits
    batches as MR_INFO_REP messages arrive.  A stale credit (one of an
    older revocation generation) names a revoked region: it is never held.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._credits = Store(engine)
        reg = engine.metrics
        labels = {"i": reg.sequence("credit_ledger")}
        self.total_received = reg.counter("credits.received_total", **labels)
        #: Credits discarded as stale: by :meth:`flush` or by generation.
        self.flushed = reg.counter("credits.flushed_total", **labels)
        self.peak_balance = reg.gauge("credits.peak_balance", **labels)
        reg.gauge_fn("credits.balance", lambda: len(self._credits), **labels)
        reg.gauge_fn("credits.waiters", lambda: self._credits.waiters, **labels)
        #: An MR_INFO_REQ is already in flight for this link.  Senders of
        #: *all* sessions sharing the ledger consult this before asking
        #: again, so a zero balance with N concurrent jobs produces one
        #: request, not N.
        self.request_outstanding = False
        #: Newest sink revocation generation seen on a credit.
        self.generation = 0

    @property
    def balance(self) -> int:
        return len(self._credits)

    @property
    def waiters(self) -> int:
        return self._credits.waiters

    def _stale(self, credits: List[Credit]) -> bool:
        """One grant or refund (one generation) not of :attr:`generation`:
        an older one is dropped (True), a newer one first flushes."""
        if credits[0].gen < self.generation:
            self.flushed.add(len(credits))
            return True
        self.generation = credits[0].gen
        self.flush()
        return False

    def deposit(self, credits: List[Credit]) -> None:
        """Add granted credits (from an MR_INFO_REP)."""
        if credits[0].gen != self.generation and self._stale(credits):
            return
        self.request_outstanding = False
        self._credits.put_many(credits)
        self.total_received.add(len(credits))
        self.peak_balance.set_max(self.balance)
        tracer = self.engine.tracer
        if tracer is not None:
            # ``total`` is the cumulative count: the rows trace the ×2 ramp.
            tracer.point(self.engine.now, _T_DEPOSIT, len(credits), self.balance,
                         int(self.total_received.total))

    def refund(self, credits: List[Credit]) -> None:
        """Return credits an aborted session never consumed: unlike
        :meth:`deposit`, not counted in ``total_received`` nor traced — the
        sink accounted for them when it granted them."""
        if credits[0].gen != self.generation and self._stale(credits):
            return
        self._credits.put_many(credits)
        self.peak_balance.set_max(self.balance)

    def flush(self) -> None:
        """Drop every held credit: on a source crash, a TCP fallback, a
        newer generation, and a ``Grant.REPLACE`` reply (which re-grants
        wholesale, and is replayed with the same generation)."""
        flushed = len(self._credits.items)
        self._credits.items.clear()
        self.request_outstanding = False
        if flushed:
            self.flushed.add(flushed)
            self.engine.trace("credits", "flush", discarded=flushed)

    def acquire(self):
        """Event resolving to one :class:`Credit` (FIFO wait)."""
        return self._credits.get()

    def cancel(self, event) -> bool:
        """Withdraw a pending :meth:`acquire` (timed-out/aborted waiter)."""
        return self._credits.cancel_get(event)


class CreditGranter:
    """Sink-side grant policy.

    The granter owns the decision *which free blocks to advertise and
    when*; actually transmitting the MR_INFO_REP is the sink engine's
    job (it owns the control channel).
    """

    def __init__(self, pool: "BlockPool[SinkBlock]", grant_ratio: int = 2,
                 proactive: bool = True) -> None:
        if grant_ratio < 1:
            raise ValueError("grant_ratio must be >= 1")
        self.pool = pool
        self.grant_ratio = grant_ratio
        self.proactive = proactive
        #: An MR_INFO_REQ arrived while no block was free; the next freed
        #: block must be granted immediately.
        self.pending_request = False
        #: Stamped on every credit; bumped whenever WAITING regions are revoked.
        self.generation = 0
        reg = pool.engine.metrics
        self._m_granted = reg.counter("credits.granted_total",
                                      i=reg.sequence("credit_granter"))

    def _take_free(self, limit: int) -> List[Credit]:
        granted: List[Credit] = []
        while len(granted) < limit:
            block = self.pool.try_get_free_blk()
            if block is None:
                break
            block.advertise()
            granted.append(Credit.for_block(block, self.generation))
        if granted:
            self._m_granted.add(len(granted))
        return granted

    # -- the three grant triggers of §IV-C -----------------------------------------
    def initial_grant(self, count: int) -> List[Credit]:
        """Session established: push the initial proactive batch."""
        if not self.proactive:
            return []
        return self._take_free(count)

    def on_block_done(self) -> List[Credit]:
        """A completion notification consumed one credit: grant up to
        ``grant_ratio`` replacements (exponential ramp).  Returns an empty
        list when nothing is free — the notification is simply not
        answered, exactly as the paper specifies."""
        if not self.proactive and not self.pending_request:
            return []
        limit = self.grant_ratio if self.proactive else 1
        granted = self._take_free(limit)
        if granted:
            self.pending_request = False
        return granted

    def on_request(self) -> List[Credit]:
        """An explicit MR_INFO_REQ: must answer as soon as one block is
        free; if none is, remember the debt."""
        granted = self._take_free(max(self.grant_ratio, 1))
        if not granted:
            self.pending_request = True
        return granted

    def on_block_freed(self) -> List[Credit]:
        """A consumer returned a block.  If a request is outstanding (or
        the policy is proactive and the source might be starving), satisfy
        it now."""
        if self.pending_request:
            granted = self._take_free(1)
            if granted:
                self.pending_request = False
            return granted
        if self.proactive:
            # Keep the pipeline primed: recycle the freed block as a fresh
            # credit right away.
            return self._take_free(1)
        return []
