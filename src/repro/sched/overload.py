"""Overload control for the transfer broker: shed, budget, brown out.

The front door of a fleet-scale transfer service must stay up when
demand exceeds capacity.  PR 6-7 gave the broker fair share, admission
and crash durability; this module adds the three classic overload
defences, all deterministic and all journaled:

- **load shedding** — a hierarchy of token buckets (one global, one per
  tenant) meters job admission, and a bounded global submission queue
  caps how much work may wait.  A submission that would overflow either
  is rejected *whole* with a deterministic, jittered ``RETRY_AFTER``
  hint (cooperative backpressure: the runner honours the hint and
  resubmits later instead of hammering the door).  Priority buys an
  overdraft — high-priority jobs may dip the buckets below zero — and a
  job whose deadline cannot survive the backlog is shed immediately
  rather than admitted to die of old age in the queue.
- **retry budgets** — each tenant holds a budget of retries replenished
  by successes at a capped retry-to-success ratio.  A failure burst that
  exhausts the budget fails files immediately instead of parking ever
  more backoff timers: the metastable retry-storm amplifier is cut at
  the tenant boundary.
- **brownout** — high/low watermarks over active-session occupancy and
  pinned-pool occupancy drive a three-state FSM (NORMAL → BROWNOUT →
  RECOVERING, mirroring PR 4's breaker FSM).  While browned out the
  broker shrinks per-door session concurrency, suspends dedupe
  ride-alongs (duplicate submissions are shed instead of attached), and
  parks the lowest-weight tenants; recovery requires the load to stay
  below the low watermarks for a hysteresis dwell before re-promotion.

Everything is opt-in: a broker built without an :class:`OverloadConfig`
(or with the all-zero default) journals no new records and perturbs no
event, so the pre-existing bench anchors stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.core.jitter import jittered

__all__ = [
    "OverloadConfig",
    "OverloadController",
    "ShedDecision",
    "TokenBucket",
    "NORMAL",
    "BROWNOUT",
    "RECOVERING",
]

#: Brownout FSM states (ints so a gauge can export them directly).
NORMAL = 0
BROWNOUT = 1
RECOVERING = 2


@dataclass(frozen=True)
class OverloadConfig:
    """Overload-control knobs.  The default disables every mechanism."""

    #: Global bound on queued+parked primary files across all tenants;
    #: 0 disables the bound.
    max_queued_files: int = 0
    #: Global admission rate, primary files per second; 0 disables.
    global_rate: float = 0.0
    #: Global bucket depth (burst tolerance), files.
    global_burst: float = 64.0
    #: Per-tenant admission rate, primary files per second; 0 disables.
    tenant_rate: float = 0.0
    #: Per-tenant bucket depth, files.
    tenant_burst: float = 32.0
    #: Submissions with priority >= 1 may overdraw their buckets by this
    #: fraction of the bucket's burst (deadline/priority-aware shedding:
    #: important work keeps flowing a little longer under pressure).
    priority_overdraft: float = 0.5
    #: RETRY_AFTER floor, seconds.
    retry_after_base: float = 0.5
    #: RETRY_AFTER ceiling, seconds (before jitter).
    retry_after_cap: float = 30.0
    #: Jitter fraction in [0, 1]: the hint is stretched by a
    #: deterministic per-(job, shed-count) factor in [1, 1 + jitter] so
    #: a thundering herd of shed clients de-synchronises, replayably.
    retry_after_jitter: float = 0.5
    #: Retries a tenant earns per successful transfer; 0 disables the
    #: budget.  A capped retry-to-success ratio: once the budget is dry,
    #: failures go terminal immediately instead of parking a retry.
    retry_budget_ratio: float = 0.0
    #: Budget ceiling (and the initial allowance), retries.
    retry_budget_burst: float = 8.0
    #: Brownout entry watermark over active/max_active; 0 disables the
    #: session watermark.
    brownout_high: float = 0.0
    #: Brownout exit watermark (with :attr:`pool_low`, held for
    #: :attr:`brownout_hold` seconds before re-promotion).
    brownout_low: float = 0.5
    #: Brownout entry watermark over pinned-pool occupancy; > 1 disables
    #: the pool watermark.
    pool_high: float = 1.1
    #: Brownout exit watermark over pinned-pool occupancy.
    pool_low: float = 0.75
    #: Hysteresis dwell: seconds the load must stay below the low
    #: watermarks before RECOVERING re-promotes to NORMAL.
    brownout_hold: float = 2.0
    #: Per-door session-cap multiplier while browned out.
    brownout_session_factor: float = 0.5
    #: Lowest-weight tenants parked (queued work held, new submissions
    #: shed) while browned out.  Never parks every tenant.
    brownout_park_tenants: int = 1

    def __post_init__(self) -> None:
        if self.max_queued_files < 0:
            raise ValueError("max_queued_files must be >= 0")
        for name in ("global_rate", "tenant_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("global_burst", "tenant_burst"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.priority_overdraft < 0:
            raise ValueError("priority_overdraft must be >= 0")
        if self.retry_after_base <= 0:
            raise ValueError("retry_after_base must be positive")
        if self.retry_after_cap < self.retry_after_base:
            raise ValueError("retry_after_cap must be >= retry_after_base")
        if not 0.0 <= self.retry_after_jitter <= 1.0:
            raise ValueError("retry_after_jitter must be in [0, 1]")
        if self.retry_budget_ratio < 0:
            raise ValueError("retry_budget_ratio must be >= 0")
        if self.retry_budget_burst <= 0:
            raise ValueError("retry_budget_burst must be positive")
        if self.brownout_high < 0:
            raise ValueError("brownout_high must be >= 0")
        if self.brownout_high > 0 and not (
            0 <= self.brownout_low <= self.brownout_high
        ):
            raise ValueError("need 0 <= brownout_low <= brownout_high")
        if self.pool_high <= 1.0 and not (
            0 <= self.pool_low <= self.pool_high
        ):
            raise ValueError("need 0 <= pool_low <= pool_high")
        if self.brownout_hold < 0:
            raise ValueError("brownout_hold must be >= 0")
        if not 0.0 < self.brownout_session_factor <= 1.0:
            raise ValueError("brownout_session_factor must be in (0, 1]")
        if self.brownout_park_tenants < 0:
            raise ValueError("brownout_park_tenants must be >= 0")

    @property
    def brownout_enabled(self) -> bool:
        return self.brownout_high > 0 or self.pool_high <= 1.0

    @property
    def enabled(self) -> bool:
        """True when any mechanism is armed — an un-armed config builds
        no controller at all, keeping the idle broker byte-identical."""
        return bool(
            self.max_queued_files
            or self.global_rate
            or self.tenant_rate
            or self.retry_budget_ratio
            or self.brownout_enabled
        )

    @classmethod
    def from_spec(cls, obj: Dict[str, Any]) -> "OverloadConfig":
        """Build from a spec's ``overload`` object: any field by name;
        typo'd keys fail."""
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown overload keys: {sorted(unknown)}")
        return cls(**obj)


class TokenBucket:
    """A lazily-refilled token bucket over simulated time.

    Pure bookkeeping: refill happens arithmetically on access from the
    caller-supplied clock, so metering admission costs zero simulation
    events (the determinism anchors of rate-limit-free runs hold).
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = float(now)

    def _refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now

    def try_take(self, n: float, now: float, overdraft: float = 0.0) -> bool:
        """Take ``n`` tokens if the level (plus ``overdraft``) allows;
        an overdraft take may leave the level negative — the debt repays
        through refill before anyone else gets in."""
        self._refill(now)
        if self.tokens + overdraft >= n:
            self.tokens -= n
            return True
        return False

    def time_until(self, n: float, now: float) -> float:
        """Seconds until ``n`` tokens will be available (0 if already)."""
        self._refill(now)
        deficit = n - self.tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0:
            return float("inf")
        return deficit / self.rate


@dataclass(frozen=True)
class ShedDecision:
    """Why a submission is being shed and when to come back."""

    reason: str
    retry_after: float


class OverloadController:
    """The broker's overload brain: admission meters, retry budgets,
    and the brownout FSM.  Owned by :class:`TransferBroker`; every
    method is pure bookkeeping on the engine clock (no events)."""

    def __init__(
        self,
        engine: Any,
        config: OverloadConfig,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.config = config
        self.seed = int(seed)
        now = engine.now
        self._global_bucket = (
            TokenBucket(config.global_rate, config.global_burst, now)
            if config.global_rate > 0 else None
        )
        self._tenant_buckets: Dict[str, TokenBucket] = {}
        #: Tenant -> remaining retry allowance (success-replenished).
        self._retry_budget: Dict[str, float] = {}
        #: job_id -> times that id has been shed (jitter key component).
        self._shed_counts: Dict[str, int] = {}
        self.state = NORMAL
        #: Engine time the load first dropped below the low watermarks
        #: (hysteresis anchor while RECOVERING).
        self._calm_since: Optional[float] = None
        #: Tenants held out of dispatch while browned out.
        self._parked_tenants: Tuple[str, ...] = ()

        reg = engine.metrics
        self._m_shed_jobs = reg.counter("sched.overload.shed_jobs")
        self._m_shed_files = reg.counter("sched.overload.shed_files")
        self._m_retry_denied = reg.counter("sched.overload.retry_denied")
        self._m_brownout_entries = reg.counter(
            "sched.overload.brownout_entries"
        )
        self._m_brownout_exits = reg.counter("sched.overload.brownout_exits")
        self._m_retry_after = reg.histogram(
            "sched.overload.retry_after_seconds"
        )
        reg.gauge_fn("sched.overload.state", lambda: self.state)
        reg.gauge_fn(
            "sched.overload.parked_tenants",
            lambda: len(self._parked_tenants),
        )

    # -- admission / shedding ---------------------------------------------------
    def _tenant_bucket(self, tenant: str) -> Optional[TokenBucket]:
        cfg = self.config
        if cfg.tenant_rate <= 0:
            return None
        bucket = self._tenant_buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(cfg.tenant_rate, cfg.tenant_burst,
                                 self.engine.now)
            self._tenant_buckets[tenant] = bucket
        return bucket

    def retry_after(self, job_id: str, need: float) -> float:
        """The deterministic, jittered RETRY_AFTER hint for one shed.

        ``need`` is the mechanism's own estimate of when capacity frees
        (bucket deficit / backlog drain time); the hint doubles per
        prior shed of the same base job (resubmission incarnations
        ``<base>~rN`` share the count, so a job shed twice backs off
        4×), clamps to [base, cap], and stretches by a per-(job,
        shed-count) jittered factor so shed clients return
        de-synchronised instead of stampeding the refilled bucket
        together.  Keyed on the shed count, not the clock, so the hint
        replays identically across crash recovery.
        """
        cfg = self.config
        count = self.count_shed(job_id)
        if need == float("inf"):
            need = cfg.retry_after_cap
        need = max(cfg.retry_after_base, need) * (2.0 ** (count - 1))
        hint = min(cfg.retry_after_cap, need)
        hint = jittered(hint, cfg.retry_after_jitter,
                        self.seed, job_id, "shed", count)
        self._m_retry_after.observe(hint)
        return hint

    def count_shed(self, job_id: str) -> int:
        """Count one shed of ``job_id``'s base id (resubmission
        incarnations ``<base>~rN`` share it).  Recovery calls this per
        journaled ``shed`` record so back-off doubling survives a crash."""
        base_id = job_id.split("~r", 1)[0]
        count = self._shed_counts.get(base_id, 0) + 1
        self._shed_counts[base_id] = count
        return count

    def admit(
        self,
        job_id: str,
        tenant: str,
        n_primaries: int,
        n_duplicates: int,
        total_backlog: int,
        priority: int,
        deadline: Optional[float],
    ) -> Optional[ShedDecision]:
        """Gate one submission.  Returns ``None`` to admit or a
        :class:`ShedDecision` to shed the job whole.  Buckets are only
        debited when every gate passes (shedding must not starve the
        next, admissible submission)."""
        cfg = self.config
        now = self.engine.now
        n = max(1, n_primaries)

        if tenant in self._parked_tenants:
            return ShedDecision(
                f"brownout: tenant {tenant!r} parked",
                self.retry_after(job_id, cfg.brownout_hold),
            )
        if self.state == BROWNOUT and n_duplicates > 0:
            # Ride-along suspension: attaching duplicates grows mirror
            # cascades exactly when state must shrink.  Shed them; the
            # primary (someone else's job) keeps transferring.
            return ShedDecision(
                "brownout: dedupe ride-alongs suspended",
                self.retry_after(job_id, cfg.brownout_hold),
            )
        if cfg.max_queued_files and total_backlog + n > cfg.max_queued_files:
            drain = (
                total_backlog / cfg.global_rate if cfg.global_rate > 0
                else cfg.retry_after_base * 2
            )
            return ShedDecision(
                f"queue bound: {total_backlog}+{n} > {cfg.max_queued_files} "
                f"queued files",
                self.retry_after(job_id, drain),
            )
        if deadline is not None and cfg.global_rate > 0:
            wait = total_backlog / cfg.global_rate
            if wait > deadline:
                # Deadline-aware: admitting work that must miss its
                # deadline behind the backlog only wastes capacity.
                return ShedDecision(
                    f"deadline infeasible: ~{wait:.1f}s backlog > "
                    f"{deadline}s deadline",
                    self.retry_after(job_id, wait),
                )

        gbucket = self._global_bucket
        tbucket = self._tenant_bucket(tenant)
        g_over = (
            cfg.priority_overdraft * cfg.global_burst if priority >= 1 else 0.0
        )
        t_over = (
            cfg.priority_overdraft * cfg.tenant_burst if priority >= 1 else 0.0
        )
        if tbucket is not None and tbucket.time_until(n, now) > 0 \
                and tbucket.tokens + t_over < n:
            return ShedDecision(
                f"tenant {tenant!r} rate limit",
                self.retry_after(job_id, tbucket.time_until(n, now)),
            )
        if gbucket is not None and not gbucket.try_take(n, now, g_over):
            return ShedDecision(
                "global rate limit",
                self.retry_after(job_id, gbucket.time_until(n, now)),
            )
        if tbucket is not None:
            tbucket.try_take(n, now, t_over)
        return None

    def note_shed(self, tenant: str, n_files: int) -> None:
        self._m_shed_jobs.add()
        self._m_shed_files.add(n_files)

    # -- retry budgets ----------------------------------------------------------
    def allow_retry(self, tenant: str) -> bool:
        """Spend one retry from the tenant's budget; False means the
        budget is dry and the failure must go terminal now."""
        cfg = self.config
        if cfg.retry_budget_ratio <= 0:
            return True
        budget = self._retry_budget.get(tenant)
        if budget is None:
            budget = cfg.retry_budget_burst
        if budget < 1.0:
            self._m_retry_denied.add()
            return False
        self._retry_budget[tenant] = budget - 1.0
        return True

    def note_success(self, tenant: str) -> None:
        """A finished transfer replenishes the tenant's retry budget at
        the configured retry-to-success ratio (capped)."""
        cfg = self.config
        if cfg.retry_budget_ratio <= 0:
            return
        budget = self._retry_budget.get(tenant, cfg.retry_budget_burst)
        self._retry_budget[tenant] = min(
            cfg.retry_budget_burst, budget + cfg.retry_budget_ratio
        )

    # -- brownout FSM -----------------------------------------------------------
    def observe(
        self,
        active: int,
        max_active: int,
        pool_occupancy: float,
        tenant_weights: Dict[str, float],
    ) -> None:
        """One FSM step from the current load sample.  Called by the
        broker at dispatch and attempt-completion points — event-driven
        sampling, no timers of its own."""
        cfg = self.config
        if not cfg.brownout_enabled:
            return
        now = self.engine.now
        session_frac = active / max_active if max_active > 0 else 0.0
        hot = (
            (cfg.brownout_high > 0 and session_frac >= cfg.brownout_high)
            or (cfg.pool_high <= 1.0 and pool_occupancy >= cfg.pool_high)
        )
        calm = (
            (cfg.brownout_high <= 0 or session_frac <= cfg.brownout_low)
            and (cfg.pool_high > 1.0 or pool_occupancy <= cfg.pool_low)
        )
        if self.state == NORMAL:
            if hot:
                self._enter_brownout(tenant_weights, session_frac,
                                     pool_occupancy)
        elif self.state == BROWNOUT:
            if calm:
                self.state = RECOVERING
                self._calm_since = now
        else:  # RECOVERING
            if hot:
                self.state = BROWNOUT
                self._calm_since = None
            elif calm:
                if now - (self._calm_since or now) >= cfg.brownout_hold:
                    self._exit_brownout()
            else:
                # Between the watermarks: the dwell restarts when the
                # load next drops below low — strict hysteresis.
                self._calm_since = now

    def _enter_brownout(
        self,
        tenant_weights: Dict[str, float],
        session_frac: float,
        pool_occupancy: float,
    ) -> None:
        self.state = BROWNOUT
        self._calm_since = None
        self._m_brownout_entries.add()
        k = min(self.config.brownout_park_tenants,
                max(0, len(tenant_weights) - 1))
        if k > 0:
            ranked = sorted(tenant_weights, key=lambda n: (tenant_weights[n], n))
            self._parked_tenants = tuple(ranked[:k])
        self.engine.trace(
            "sched", "brownout_enter",
            sessions=round(session_frac, 6),
            pool=round(pool_occupancy, 6),
            parked=list(self._parked_tenants),
        )

    def _exit_brownout(self) -> None:
        self.state = NORMAL
        self._calm_since = None
        self._m_brownout_exits.add()
        unparked = list(self._parked_tenants)
        self._parked_tenants = ()
        self.engine.trace("sched", "brownout_exit", unparked=unparked)

    # -- brownout effects (queried by the broker) -------------------------------
    def tenant_parked(self, tenant: str) -> bool:
        return tenant in self._parked_tenants

    def door_session_cap(self, base: int) -> int:
        """The effective per-door session cap right now: shrunk while
        browned out (never below one — brownout degrades, halting is
        the failure mode it exists to avoid)."""
        if self.state != BROWNOUT:
            return base
        return max(1, int(base * self.config.brownout_session_factor))
