"""Gateway admission control and multi-tenant isolation.

Everything past the saturation point lives here: per-tenant traffic
classes (:class:`TenantSpec`, tier 0 = premium .. tier 2 =
best-effort), deterministic token-bucket quotas (:class:`TokenBucket`),
weighted-fair-queueing dequeue across tenants
(:class:`WeightedFairQueue`), a CoDel-style adaptive overload state
machine (:class:`AdmissionController`: NORMAL -> BROWNOUT ->
SHED, driven by sustained queue delay at deterministic evaluation
ticks), per-node circuit breakers (:class:`CircuitBreaker`:
CLOSED -> OPEN -> HALF_OPEN with deterministic reopen probes), and the
rolling-upgrade drain schedule (:class:`UpgradePlan`).

All state changes happen at fleet-event times on the shared virtual
clock -- no wall time, no unseeded randomness -- so fleet runs with
admission enabled stay byte-identical under journal resume.

Module-level counters mirror :mod:`repro.serving.engine_core`'s
``CORE_COUNTERS`` so ``repro top`` can surface tenant/admission/breaker
activity process-wide.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.audit import ConfigError

__all__ = [
    "ADMISSION_COUNTERS",
    "AdmissionController",
    "AdmissionMode",
    "AdmissionPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_TIER",
    "TenantSpec",
    "TokenBucket",
    "UpgradePlan",
    "WeightedFairQueue",
    "bump_counter",
    "parse_tenants_spec",
    "render_counters",
    "reset_counters",
    "snapshot_counters",
]

#: Tier assigned to requests that carry no tenant (standalone engine
#: runs, fleets without ``--tenants``).  Tier 0 outranks it; tier 2
#: yields to it.
DEFAULT_TIER = 1

#: Number of traffic classes (tier 0 .. NUM_TIERS - 1).
NUM_TIERS = 3


# -- process-wide counters (the ``repro top`` section) -----------------
ADMISSION_COUNTERS: Dict[str, int] = {
    "quota_denied": 0,
    "wfq_enqueues": 0,
    "wfq_dequeues": 0,
    "brownout_entries": 0,
    "overload_sheds": 0,
    "breaker_opens": 0,
    "breaker_probes": 0,
    "breaker_closes": 0,
    "breaker_short_circuits": 0,
    "upgrade_drains": 0,
}


def bump_counter(name: str, amount: int = 1) -> None:
    ADMISSION_COUNTERS[name] += amount


def snapshot_counters() -> Dict[str, int]:
    return dict(ADMISSION_COUNTERS)


def reset_counters() -> None:
    for key in ADMISSION_COUNTERS:
        ADMISSION_COUNTERS[key] = 0


def render_counters() -> str:
    """Fixed-format counter block for ``repro top``."""
    c = ADMISSION_COUNTERS
    return "\n".join([
        f"  quota      : {c['quota_denied']} denied by token buckets",
        f"  fair queue : {c['wfq_enqueues']} enqueued | "
        f"{c['wfq_dequeues']} dequeued",
        f"  overload   : {c['brownout_entries']} brownout entries | "
        f"{c['overload_sheds']} shed",
        f"  breakers   : {c['breaker_opens']} opened | "
        f"{c['breaker_probes']} probes | {c['breaker_closes']} closed | "
        f"{c['breaker_short_circuits']} short-circuits",
        f"  upgrades   : {c['upgrade_drains']} node drains",
    ])


# -- tenants -----------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic class, fairness weight, and quota."""

    name: str
    #: Traffic class: 0 = premium, 1 = standard, 2 = best-effort.
    tier: int = DEFAULT_TIER
    #: Fraction of the synthetic workload attributed to this tenant
    #: (normalized across the fleet's tenants).
    share: float = 1.0
    #: Weighted-fair-queueing weight (relative service rate).
    weight: float = 1.0
    #: Token-bucket refill in requests/second (None = unmetered).
    quota_rate: Optional[float] = None
    #: Token-bucket burst capacity in requests.
    quota_burst: float = 4.0
    #: Per-attempt TTFT SLO in seconds (None = no tenant deadline).
    ttft_slo: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant needs a non-empty name")
        if not 0 <= self.tier < NUM_TIERS:
            raise ConfigError(
                f"tenant {self.name!r} tier must be in 0..{NUM_TIERS - 1}, "
                f"got {self.tier}"
            )
        if self.share <= 0:
            raise ConfigError(
                f"tenant {self.name!r} share must be positive, got {self.share!r}"
            )
        if self.weight <= 0:
            raise ConfigError(
                f"tenant {self.name!r} weight must be positive, got {self.weight!r}"
            )
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ConfigError(
                f"tenant {self.name!r} quota_rate must be positive, "
                f"got {self.quota_rate!r}"
            )
        if self.quota_burst < 1:
            raise ConfigError(
                f"tenant {self.name!r} quota_burst must be >= 1, "
                f"got {self.quota_burst!r}"
            )
        if self.ttft_slo is not None and self.ttft_slo <= 0:
            raise ConfigError(
                f"tenant {self.name!r} ttft_slo must be positive, "
                f"got {self.ttft_slo!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "tier": self.tier,
            "share": self.share,
            "weight": self.weight,
            "quota_rate": self.quota_rate,
            "quota_burst": self.quota_burst,
            "ttft_slo": self.ttft_slo,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantSpec":
        return cls(
            name=str(data["name"]),
            tier=int(data.get("tier", DEFAULT_TIER)),
            share=float(data.get("share", 1.0)),
            weight=float(data.get("weight", 1.0)),
            quota_rate=(
                None if data.get("quota_rate") is None
                else float(data["quota_rate"])
            ),
            quota_burst=float(data.get("quota_burst", 4.0)),
            ttft_slo=(
                None if data.get("ttft_slo") is None
                else float(data["ttft_slo"])
            ),
        )


def parse_tenants_spec(spec: str) -> Tuple[TenantSpec, ...]:
    """Parse the ``--tenants`` CLI spec.

    ``;``-separated tenants of the form
    ``name:key=value[,key=value...]``, e.g.::

        gold:tier=0,share=0.25,weight=4,slo=2
        bronze:tier=2,share=0.5,weight=1,rate=4,burst=8
    """
    tenants: List[TenantSpec] = []
    seen: set = set()
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        name, sep, rest = item.partition(":")
        name = name.strip()
        if not sep or not name:
            raise ConfigError(
                f"bad tenant spec {item!r}: expected name:key=value[,...]"
            )
        kwargs: Dict[str, float] = {}
        for pair in filter(None, (p.strip() for p in rest.split(","))):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ConfigError(
                    f"bad tenant spec {item!r}: expected key=value, got {pair!r}"
                )
            try:
                kwargs[key.strip()] = float(value)
            except ValueError:
                raise ConfigError(
                    f"bad tenant spec {item!r}: {value!r} is not a number"
                ) from None
        known = {"tier", "share", "weight", "rate", "burst", "slo"}
        unknown = set(kwargs) - known
        if unknown:
            raise ConfigError(
                f"bad tenant spec {item!r}: unknown keys "
                f"{', '.join(sorted(unknown))} (expected {', '.join(sorted(known))})"
            )
        if name in seen:
            raise ConfigError(f"duplicate tenant name {name!r}")
        seen.add(name)
        tier = kwargs.get("tier", DEFAULT_TIER)
        if not float(tier).is_integer():
            raise ConfigError(f"bad tenant spec {item!r}: tier {tier!r} is not an integer")
        tenants.append(TenantSpec(
            name=name,
            tier=int(tier),
            share=kwargs.get("share", 1.0),
            weight=kwargs.get("weight", 1.0),
            quota_rate=kwargs.get("rate"),
            quota_burst=kwargs.get("burst", 4.0),
            ttft_slo=kwargs.get("slo"),
        ))
    if not tenants:
        raise ConfigError("tenants spec names no tenants")
    return tuple(tenants)


# -- token bucket ------------------------------------------------------
class TokenBucket:
    """Deterministic token bucket: refill-on-demand, one token/request.

    At any probe time ``now`` the bucket holds
    ``min(burst, tokens + (now - last) * rate)`` tokens, so over any
    window ``w`` it admits at most ``rate * w + burst`` requests --
    the property test pins exactly that bound.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigError(f"token-bucket rate must be positive, got {rate!r}")
        if burst < 1:
            raise ConfigError(f"token-bucket burst must be >= 1, got {burst!r}")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def admit(self, now: float) -> bool:
        """Spend one token if available; monotone ``now`` assumed."""
        elapsed = max(0.0, now - self._last)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._last = max(self._last, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


# -- weighted fair queueing --------------------------------------------
class WeightedFairQueue:
    """Start-time-fair queueing across per-tenant FIFO queues.

    Each tenant carries a virtual finish tag advanced by ``1 / weight``
    per dequeued item; :meth:`pop` serves the smallest tag (ties break
    by registration order).  A tenant with queued work is therefore
    served at least once every ``sum(weights) / weight`` dequeues --
    weighted fairness with no starvation.
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._weights: Dict[str, float] = {}
        self._queues: Dict[str, Deque[object]] = {}
        self._finish: Dict[str, float] = {}
        self._vtime = 0.0

    def register(self, name: str, weight: float) -> None:
        if weight <= 0:
            raise ConfigError(f"WFQ weight must be positive, got {weight!r}")
        if name in self._weights:
            raise ConfigError(f"duplicate WFQ tenant {name!r}")
        self._order.append(name)
        self._weights[name] = weight
        self._queues[name] = deque()
        self._finish[name] = 0.0

    def push(self, name: str, item: object) -> None:
        queue = self._queues[name]
        if not queue:
            # A tenant re-entering service restarts from the current
            # virtual time, so idle periods are not banked as credit.
            self._finish[name] = (
                max(self._vtime, self._finish[name]) + 1.0 / self._weights[name]
            )
        queue.append(item)
        bump_counter("wfq_enqueues")

    def pop(self) -> Optional[Tuple[str, object]]:
        """Dequeue from the backlogged tenant with the smallest tag."""
        best: Optional[str] = None
        for name in self._order:
            if not self._queues[name]:
                continue
            if best is None or self._finish[name] < self._finish[best]:
                best = name
        if best is None:
            return None
        item = self._queues[best].popleft()
        self._vtime = self._finish[best]
        if self._queues[best]:
            self._finish[best] += 1.0 / self._weights[best]
        bump_counter("wfq_dequeues")
        return best, item

    def peek_items(self) -> List[Tuple[str, object]]:
        """Every queued (tenant, item), registration-then-FIFO order."""
        out: List[Tuple[str, object]] = []
        for name in self._order:
            out.extend((name, item) for item in self._queues[name])
        return out

    def remove(self, name: str, item: object) -> None:
        self._queues[name].remove(item)

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())


# -- circuit breakers --------------------------------------------------
class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When a node's breaker opens and how it probes back closed."""

    #: Consecutive timeouts/failures that open the breaker.
    failure_threshold: int = 3
    #: Seconds the breaker stays OPEN before a half-open probe.
    cooldown: float = 2.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown <= 0:
            raise ConfigError(f"cooldown must be positive, got {self.cooldown!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown": self.cooldown,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BreakerPolicy":
        return cls(
            failure_threshold=int(data.get("failure_threshold", 3)),
            cooldown=float(data.get("cooldown", 2.0)),
        )


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN per-node failure isolation.

    ``failure_threshold`` consecutive timeouts/failures open the
    breaker; after ``cooldown`` the next dispatch becomes a single
    deterministic probe (HALF_OPEN).  The probe's outcome closes the
    breaker or reopens it for another cooldown.  This replaces the
    naive behavior of hammering a sick node with the full retry storm.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_inflight = False
        self.opens = 0
        self.closes = 0
        self.probes = 0

    def blocked(self, now: float) -> bool:
        """Should the gateway avoid this node right now?  Pure query."""
        if self.state is BreakerState.CLOSED:
            return False
        if self.state is BreakerState.OPEN:
            return now < self.opened_at + self.policy.cooldown
        return self.probe_inflight  # HALF_OPEN admits exactly one probe

    def on_dispatch(self, now: float) -> None:
        """An attempt was routed here; an eligible OPEN breaker turns
        this dispatch into its half-open probe."""
        if (
            self.state is BreakerState.OPEN
            and now >= self.opened_at + self.policy.cooldown
        ):
            self.state = BreakerState.HALF_OPEN
            self.probe_inflight = True
            self.probes += 1
            bump_counter("breaker_probes")
        elif self.state is BreakerState.HALF_OPEN:
            self.probe_inflight = True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            self.probe_inflight = False
            self.closes += 1
            bump_counter("breaker_closes")

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # Failed probe: reopen for another cooldown.
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.probe_inflight = False
            self.opens += 1
            bump_counter("breaker_opens")
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.opens += 1
            bump_counter("breaker_opens")


# -- adaptive admission ------------------------------------------------
class AdmissionMode(enum.Enum):
    NORMAL = "normal"
    #: Degraded service: cap new-token budgets, disable hedging.
    BROWNOUT = "brownout"
    #: Hard overload: shed queued lowest-tier work.
    SHED = "shed"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-delay targets for the CoDel-style overload response."""

    #: Sustained queue delay above this enters BROWNOUT.
    target_queue_delay: float = 0.5
    #: Sustained queue delay above this enters SHED.
    shed_queue_delay: float = 2.0
    #: Evaluation-tick period on the fleet clock.
    evaluate_interval: float = 0.25
    #: BROWNOUT caps each dispatched attempt to this many new tokens.
    brownout_max_new_tokens: int = 64
    #: Gateway concurrency cap per routable node (None = the fleet's
    #: ``max_decode_batch``); dispatch waits in the fair queue past it.
    max_inflight_per_node: Optional[int] = None
    #: Hard bound on time queued at the gateway: any request waiting
    #: longer is shed regardless of tier (keeps dead fleets finite).
    max_queue_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.target_queue_delay <= 0:
            raise ConfigError(
                f"target_queue_delay must be positive, "
                f"got {self.target_queue_delay!r}"
            )
        if self.shed_queue_delay <= self.target_queue_delay:
            raise ConfigError(
                f"shed_queue_delay ({self.shed_queue_delay!r}) must exceed "
                f"target_queue_delay ({self.target_queue_delay!r})"
            )
        if self.evaluate_interval <= 0:
            raise ConfigError(
                f"evaluate_interval must be positive, "
                f"got {self.evaluate_interval!r}"
            )
        if self.brownout_max_new_tokens < 1:
            raise ConfigError(
                f"brownout_max_new_tokens must be >= 1, "
                f"got {self.brownout_max_new_tokens}"
            )
        if self.max_inflight_per_node is not None and self.max_inflight_per_node < 1:
            raise ConfigError(
                f"max_inflight_per_node must be >= 1, "
                f"got {self.max_inflight_per_node}"
            )
        if self.max_queue_delay <= self.shed_queue_delay:
            raise ConfigError(
                f"max_queue_delay ({self.max_queue_delay!r}) must exceed "
                f"shed_queue_delay ({self.shed_queue_delay!r})"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "target_queue_delay": self.target_queue_delay,
            "shed_queue_delay": self.shed_queue_delay,
            "evaluate_interval": self.evaluate_interval,
            "brownout_max_new_tokens": self.brownout_max_new_tokens,
            "max_inflight_per_node": self.max_inflight_per_node,
            "max_queue_delay": self.max_queue_delay,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AdmissionPolicy":
        return cls(
            target_queue_delay=float(data.get("target_queue_delay", 0.5)),
            shed_queue_delay=float(data.get("shed_queue_delay", 2.0)),
            evaluate_interval=float(data.get("evaluate_interval", 0.25)),
            brownout_max_new_tokens=int(data.get("brownout_max_new_tokens", 64)),
            max_inflight_per_node=(
                None if data.get("max_inflight_per_node") is None
                else int(data["max_inflight_per_node"])
            ),
            max_queue_delay=float(data.get("max_queue_delay", 30.0)),
        )


@dataclass
class _QueueEntry:
    """One fleet request waiting at the gateway."""

    fleet_id: int
    tenant: str
    tier: int
    enqueued_at: float


class AdmissionController:
    """Per-tenant quotas + WFQ + CoDel-style overload state machine.

    The fleet pushes every arriving request through :meth:`offer`
    (token-bucket gate, then fair-queue), pumps the queue with
    :meth:`pop_dispatchable` whenever capacity frees, and calls
    :meth:`evaluate` at deterministic ticks to move between NORMAL,
    BROWNOUT, and SHED based on the oldest queued request's delay --
    the CoDel signal: *sojourn time*, not queue length.
    """

    def __init__(
        self, tenants: Tuple[TenantSpec, ...], policy: AdmissionPolicy
    ) -> None:
        if not tenants:
            raise ConfigError("admission control needs at least one tenant")
        self.policy = policy
        self.tenants: Dict[str, TenantSpec] = {}
        self.wfq = WeightedFairQueue()
        self.buckets: Dict[str, TokenBucket] = {}
        for spec in tenants:
            if spec.name in self.tenants:
                raise ConfigError(f"duplicate tenant name {spec.name!r}")
            self.tenants[spec.name] = spec
            self.wfq.register(spec.name, spec.weight)
            if spec.quota_rate is not None:
                self.buckets[spec.name] = TokenBucket(
                    spec.quota_rate, spec.quota_burst
                )
        self.mode = AdmissionMode.NORMAL
        self.quota_denied = 0
        self.brownout_entries = 0
        self.overload_sheds = 0
        self.queue_sheds_by_tier = [0] * NUM_TIERS
        self.mode_log: List[str] = []

    # -- intake --------------------------------------------------------
    def offer(self, fleet_id: int, tenant: str, now: float) -> Optional[str]:
        """Gate one arrival; returns a shed reason or None (queued)."""
        spec = self.tenants.get(tenant)
        if spec is None:
            raise ConfigError(f"arrival names unknown tenant {tenant!r}")
        bucket = self.buckets.get(tenant)
        if bucket is not None and not bucket.admit(now):
            self.quota_denied += 1
            bump_counter("quota_denied")
            return (
                f"quota: tenant {tenant} over "
                f"{bucket.rate:g} req/s (burst {bucket.burst:g})"
            )
        self.wfq.push(
            tenant, _QueueEntry(fleet_id, tenant, spec.tier, now)
        )
        return None

    # -- dequeue -------------------------------------------------------
    def pop_dispatchable(self) -> Optional[_QueueEntry]:
        popped = self.wfq.pop()
        if popped is None:
            return None
        _, entry = popped
        return entry

    @property
    def queued(self) -> int:
        return len(self.wfq)

    def oldest_delay(self, now: float) -> float:
        """Sojourn time of the oldest queued request (0 when empty)."""
        entries = self.wfq.peek_items()
        if not entries:
            return 0.0
        return max(now - entry.enqueued_at for _, entry in entries)

    # -- the CoDel-style state machine ---------------------------------
    def evaluate(self, now: float) -> List[Tuple[_QueueEntry, str]]:
        """One deterministic tick; returns (entry, reason) sheds.

        Mode transitions follow the oldest queued sojourn time:
        above ``shed_queue_delay`` -> SHED (drop queued work lowest
        tier first, never tier 0), above ``target_queue_delay`` ->
        BROWNOUT, else NORMAL.  Requests queued past
        ``max_queue_delay`` are shed regardless of tier.
        """
        delay = self.oldest_delay(now)
        previous = self.mode
        if delay > self.policy.shed_queue_delay:
            self.mode = AdmissionMode.SHED
        elif delay > self.policy.target_queue_delay:
            self.mode = AdmissionMode.BROWNOUT
        else:
            self.mode = AdmissionMode.NORMAL
        if self.mode is not previous:
            self.mode_log.append(
                f"t={now:g} {previous.value} -> {self.mode.value} "
                f"(queue delay {delay:.3f}s)"
            )
            if self.mode is AdmissionMode.BROWNOUT:
                self.brownout_entries += 1
                bump_counter("brownout_entries")
        sheds: List[Tuple[_QueueEntry, str]] = []
        for tenant, entry in self.wfq.peek_items():
            if now - entry.enqueued_at > self.policy.max_queue_delay:
                sheds.append((entry, (
                    f"admission-timeout: queued "
                    f"{now - entry.enqueued_at:.3f}s > "
                    f"{self.policy.max_queue_delay:g}s hard bound"
                )))
        if self.mode is AdmissionMode.SHED:
            # Shed lowest tier first; tier 0 is never overload-shed.
            already = {id(entry) for entry, _ in sheds}
            for tier in range(NUM_TIERS - 1, 0, -1):
                if self.oldest_surviving_delay(now, sheds) \
                        <= self.policy.shed_queue_delay:
                    break
                for tenant, entry in self.wfq.peek_items():
                    if entry.tier == tier and id(entry) not in already:
                        sheds.append((entry, (
                            f"overload: queue delay {delay:.3f}s > "
                            f"{self.policy.shed_queue_delay:g}s, "
                            f"tier {tier} shed first"
                        )))
                        already.add(id(entry))
        for entry, _ in sheds:
            self.wfq.remove(entry.tenant, entry)
            self.overload_sheds += 1
            self.queue_sheds_by_tier[entry.tier] += 1
            bump_counter("overload_sheds")
        return sheds

    def oldest_surviving_delay(
        self, now: float, sheds: List[Tuple[_QueueEntry, str]]
    ) -> float:
        doomed = {id(entry) for entry, _ in sheds}
        delays = [
            now - entry.enqueued_at
            for _, entry in self.wfq.peek_items()
            if id(entry) not in doomed
        ]
        return max(delays) if delays else 0.0

    # -- brownout effects ----------------------------------------------
    @property
    def brownout_active(self) -> bool:
        return self.mode is not AdmissionMode.NORMAL

    def cap_output_tokens(self, requested: int) -> int:
        """BROWNOUT/SHED cap on an attempt's new-token budget."""
        if self.brownout_active:
            return min(requested, self.policy.brownout_max_new_tokens)
        return requested


# -- rolling upgrades --------------------------------------------------
@dataclass(frozen=True)
class UpgradePlan:
    """A sequential zero-loss rolling upgrade across the fleet.

    Starting at ``start``, nodes are upgraded one at a time in
    registration order: mark DRAINING (no new routes), poll every
    ``poll_interval`` until in-flight work finishes, hold the node
    down (UPGRADING) for ``restart_delay``, rejoin, move on.  The
    :class:`~repro.audit.FleetDrainError` audit pass asserts no
    in-flight request was lost across any drain.
    """

    start: float = 0.0
    #: Node-offline time between drain completion and rejoin.
    restart_delay: float = 0.5
    #: Drain-completion polling period on the fleet clock.
    poll_interval: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.start < math.inf:
            raise ConfigError(f"upgrade start must be finite and >= 0, got {self.start!r}")
        if not 0 <= self.restart_delay < math.inf:
            raise ConfigError(
                f"restart_delay must be finite and >= 0, got {self.restart_delay!r}"
            )
        if not 0 < self.poll_interval < math.inf:
            raise ConfigError(
                f"poll_interval must be finite and positive, got {self.poll_interval!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "restart_delay": self.restart_delay,
            "poll_interval": self.poll_interval,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "UpgradePlan":
        return cls(
            start=float(data.get("start", 0.0)),
            restart_delay=float(data.get("restart_delay", 0.5)),
            poll_interval=float(data.get("poll_interval", 0.25)),
        )

    @classmethod
    def from_spec(cls, spec: str) -> "UpgradePlan":
        """Parse the ``--upgrade`` CLI spec:
        ``start=T[,restart=D][,poll=P]``."""
        kwargs: Dict[str, float] = {}
        for pair in filter(None, (p.strip() for p in spec.split(","))):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ConfigError(
                    f"bad upgrade spec {spec!r}: expected key=value, got {pair!r}"
                )
            try:
                kwargs[key.strip()] = float(value)
            except ValueError:
                raise ConfigError(
                    f"bad upgrade spec {spec!r}: {value!r} is not a number"
                ) from None
        unknown = set(kwargs) - {"start", "restart", "poll"}
        if unknown:
            raise ConfigError(
                f"bad upgrade spec {spec!r}: unknown keys "
                f"{', '.join(sorted(unknown))} (expected start, restart, poll)"
            )
        return cls(
            start=kwargs.get("start", 0.0),
            restart_delay=kwargs.get("restart", 0.5),
            poll_interval=kwargs.get("poll", 0.25),
        )
