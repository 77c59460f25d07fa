"""Protocol configuration knobs (and the ablation switches)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProtocolConfig"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunable parameters of the middleware protocol.

    Defaults follow the paper's recommendations: large blocks, several
    parallel data channels, a deep pool of in-flight blocks, proactive
    credits with the ×2 "slow-start" grant ramp.
    """

    #: Negotiated payload block size in bytes.
    block_size: int = 4 * 1024 * 1024
    #: Number of parallel data-channel queue pairs.
    num_channels: int = 4
    #: Source-side registered block pool size (bounds blocks in flight).
    source_blocks: int = 32
    #: Sink-side registered block pool size (bounds outstanding credits).
    sink_blocks: int = 32
    #: Max credits the sink grants per BLOCK_DONE notification (2 gives the
    #: exponential ramp of §IV-C; 1 gives a linear, ablation-only ramp).
    credit_grant_ratio: int = 2
    #: Credits pushed unprompted right after session setup.
    initial_credits: int = 2
    #: Proactive feedback (the paper's design).  False reproduces the
    #: request/response credit scheme of Tian et al. [19]: the source must
    #: spend an RTT asking whenever it runs dry.
    proactive_credits: bool = True
    #: Number of data-loading threads at the source.
    reader_threads: int = 2
    #: Number of consumer threads at the sink.
    writer_threads: int = 2
    #: Per-QP send queue depth.
    send_queue_depth: int = 512
    #: Control QP receive ring size.
    ctrl_recv_depth: int = 128
    #: Base timeout for control-plane request/reply exchanges (negotiation,
    #: MR_INFO_REQ when starved, DATASET_DONE_ACK).  Doubled per retry.
    #: Once the RTT estimator has samples it replaces this as the per-
    #: attempt base; before any sample, adaptive paths degrade to it.
    ctrl_timeout: float = 0.25
    #: Multiplier applied to ctrl_timeout after each failed attempt.
    ctrl_backoff: float = 2.0
    #: Ceiling on any single control-plane timeout step: the exponential
    #: backoff (previously unbounded) and the adaptive RTO both clamp
    #: here.  The default equals ctrl_timeout * ctrl_backoff^ctrl_retries
    #: with the stock knobs, so default behaviour is unchanged.
    ctrl_timeout_max: float = 8.0
    #: Floor under the adaptive RTO, so a µs-RTT LAN estimate can never
    #: collapse a timeout below the scheduler/processing noise floor.
    ctrl_timeout_min: float = 100e-6
    #: Retries (beyond the first attempt) before a control exchange aborts
    #: the session with a typed error.
    ctrl_retries: int = 5
    #: RDMA WRITE failures tolerated per block before the session aborts.
    max_block_resends: int = 16
    #: Sink-side: a session with no traffic for this long is reclaimed.
    session_idle_timeout: float = 5.0
    #: Sink-side garbage-collector sweep period.
    gc_interval: float = 0.5
    #: Stamp a per-block checksum into every BlockHeader and verify it at
    #: the sink before delivering the block (end-to-end integrity).
    checksum_blocks: bool = True
    #: Repair corrupt blocks via BLOCK_NACK selective re-send from the
    #: source's still-WAITING copy.  Requires ``checksum_blocks``.  When
    #: False a detected mismatch is counted and the block withheld, so
    #: the session dies with a typed error instead of delivering garbage.
    block_repair: bool = True
    #: Sink-side restart-marker cadence: one BLOCK_MARKER (cumulative
    #: consumed-prefix ack) per this many consumed blocks.  Markers both
    #: release the source's repair copies and anchor SESSION_RESUME.
    marker_interval_blocks: int = 4
    #: Accept SESSION_RESUME_REQ re-attachments at the sink.
    session_resume: bool = True
    #: Control-channel PING/PONG liveness probes on both engines, so an
    #: idle peer's death is detected in bounded time instead of at the
    #: next request.
    heartbeats: bool = True
    #: Clamp band for the adaptive heartbeat cadence.
    heartbeat_interval_min: float = 0.05
    heartbeat_interval_max: float = 2.0
    #: Heartbeat cadence in RTOs (clamped to the band above).
    heartbeat_rto_multiplier: float = 8.0
    #: Consecutive unanswered heartbeat intervals tolerated before the
    #: peer is declared dead (typed PeerDead abort / sink reclaim).
    heartbeat_misses: int = 3
    #: Consecutive completion errors that trip a data channel's circuit
    #: breaker OPEN (quarantined from the send rotation).
    breaker_failures: int = 3
    #: Floor on the breaker's quarantine cooldown, seconds.
    breaker_cooldown_min: float = 0.1
    #: Adaptive cooldown in RTOs (the larger of this and the floor wins).
    breaker_rto_multiplier: float = 8.0
    #: Sink-side idle GC patience in RTOs; the configured
    #: session_idle_timeout stays the floor, so on a long path sessions
    #: are reclaimed later, never sooner.
    idle_rto_multiplier: float = 64.0
    #: Degrade to a TCP connection through the same fabric when every
    #: data channel is dead (instead of the DataChannelsLost abort),
    #: resuming from the restart marker with checksums still verified.
    tcp_fallback: bool = True
    #: While degraded, periodically try to re-establish a data channel
    #: and promote the session back to RDMA (half-open probe WRITE).
    fallback_repromote: bool = True
    #: Sink-side cap on per-session bookkeeping retained after a session
    #: finishes or is reclaimed (the idempotent-ack ledger, restart-marker
    #: anchors, accounting epochs).  On a long-lived link multiplexing
    #: many short sessions this history previously grew without bound;
    #: the oldest retired session's state is evicted beyond the cap.
    sink_session_history: int = 4096
    #: Connection-scaling mode: sessions to the same (host, port) lease
    #: shared data channels from one per-host QP pool whose receive side
    #: is a shared receive queue, instead of each opening ``num_channels``
    #: dedicated QPs and a dedicated block pool.  Escape hatch like
    #: ``Engine(use_fluid=...)``: with the default False every code path,
    #: metric label and event order is bit-identical to the dedicated-QP
    #: protocol.
    use_srq: bool = False
    #: Shared receive-WQE budget per host pool (``use_srq`` only).  Sized
    #: for aggregate arrival rate, not per-connection: this bounds pinned
    #: receive memory regardless of how many sessions are multiplexed.
    srq_depth: int = 256
    #: Data QPs in the shared per-host pool (``use_srq`` only).  Replaces
    #: per-link ``num_channels`` fan-out: every session on the host pair
    #: stripes over these.
    qp_pool_size: int = 4
    #: Concurrent session leases one host pool hands out (``use_srq``
    #: only).  This is what the scheduler's door caps derive from — real
    #: pool capacity, not a config constant.
    pool_sessions: int = 32
    #: Eager/rendezvous switch (``use_srq`` only): a session whose block
    #: payloads fit under this many bytes rides SEND/RECV on the shared
    #: channels — one shared WQE per block, no MR exchange, no credit
    #: round trips.  Larger sessions keep the rendezvous path: credits
    #: carrying (addr, rkey) and dedicated RDMA WRITEs.  0 disables the
    #: eager path entirely.
    eager_threshold: int = 1024 * 1024

    def __post_init__(self) -> None:
        if self.block_size < 4096:
            raise ValueError("block size below 4 KiB is not supported")
        if self.num_channels < 1:
            raise ValueError("need at least one data channel")
        if self.source_blocks < 2 or self.sink_blocks < 2:
            raise ValueError("pools need at least two blocks")
        if self.credit_grant_ratio < 1:
            raise ValueError("credit_grant_ratio must be >= 1")
        if self.initial_credits < 1:
            raise ValueError("initial_credits must be >= 1")
        if self.initial_credits > self.sink_blocks:
            raise ValueError("initial_credits cannot exceed the sink pool")
        if self.reader_threads < 1 or self.writer_threads < 1:
            raise ValueError("need at least one reader and one writer thread")
        if self.ctrl_timeout <= 0:
            raise ValueError("ctrl_timeout must be positive")
        if self.ctrl_backoff < 1.0:
            raise ValueError("ctrl_backoff must be >= 1")
        if self.ctrl_retries < 0:
            raise ValueError("ctrl_retries must be >= 0")
        if self.max_block_resends < 1:
            raise ValueError("max_block_resends must be >= 1")
        if self.session_idle_timeout <= 0 or self.gc_interval <= 0:
            raise ValueError("GC timings must be positive")
        if self.block_repair and not self.checksum_blocks:
            raise ValueError("block_repair requires checksum_blocks")
        if self.marker_interval_blocks < 1:
            raise ValueError("marker_interval_blocks must be >= 1")
        if self.ctrl_timeout_max < self.ctrl_timeout:
            raise ValueError("ctrl_timeout_max must be >= ctrl_timeout")
        if not 0 < self.ctrl_timeout_min <= self.ctrl_timeout:
            raise ValueError("need 0 < ctrl_timeout_min <= ctrl_timeout")
        if self.heartbeat_interval_min <= 0:
            raise ValueError("heartbeat_interval_min must be positive")
        if self.heartbeat_interval_max < self.heartbeat_interval_min:
            raise ValueError(
                "heartbeat_interval_max must be >= heartbeat_interval_min"
            )
        if self.heartbeat_rto_multiplier <= 0:
            raise ValueError("heartbeat_rto_multiplier must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_cooldown_min <= 0:
            raise ValueError("breaker_cooldown_min must be positive")
        if self.breaker_rto_multiplier <= 0:
            raise ValueError("breaker_rto_multiplier must be positive")
        if self.idle_rto_multiplier <= 0:
            raise ValueError("idle_rto_multiplier must be positive")
        if self.sink_session_history < 1:
            raise ValueError("sink_session_history must be >= 1")
        if self.srq_depth < 1:
            raise ValueError("srq_depth must be >= 1")
        if self.qp_pool_size < 1:
            raise ValueError("qp_pool_size must be >= 1")
        if self.pool_sessions < 1:
            raise ValueError("pool_sessions must be >= 1")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")
