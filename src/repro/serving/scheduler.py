"""Continuous-batching scheduler.

vLLM-style iteration-level scheduling: at every engine step, finished
requests leave, and waiting requests are admitted while (a) the running
decode batch is below ``max_decode_batch`` -- the knob swept in
Figure 17(d, e) -- and (b) the KV block pool can hold their prompts.

This is the object-level form of the policy: it owns per-request
queues over a :class:`~repro.serving.kv_cache.BlockManager`, and its
invariants (membership of ``waiting``/``running``, block ownership,
request-state transitions) live here -- callers ask for
:meth:`preempt` / :meth:`shed` instead of reaching into the queues.
:class:`~repro.serving.engine.LlmServingEngine` applies the same
admission rules over its struct-of-arrays core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.audit.errors import ConfigError
from repro.serving.kv_cache import BlockManager, KvCacheError
from repro.serving.request import Request, RequestState


def _insort_by_arrival(queue: List[Request], request: Request, left: bool = False) -> None:
    """Insert into a ``(tier, arrival_time)``-sorted queue by binary
    search.

    Ordering is tier first (premium tiers admit ahead of best-effort
    regardless of arrival), then arrival time -- for uniform-tier
    workloads this reduces to the historical pure-arrival order, so
    untiered runs are byte-identical.  ``left=False`` places the
    request after equal keys (stable FIFO for submissions);
    ``left=True`` places it before them (preempted victims re-admit
    ahead of later arrivals).  Manual bisection because
    :func:`bisect.insort`'s ``key=`` needs Python 3.10+.
    """
    key = (request.tier, request.arrival_time)
    lo, hi = 0, len(queue)
    while lo < hi:
        mid = (lo + hi) // 2
        probe = (queue[mid].tier, queue[mid].arrival_time)
        if probe < key or (not left and probe == key):
            lo = mid + 1
        else:
            hi = mid
    queue.insert(lo, request)


@dataclass
class ScheduleStep:
    """What the engine should execute next."""

    new_requests: List[Request] = field(default_factory=list)
    running: List[Request] = field(default_factory=list)

    @property
    def has_work(self) -> bool:
        return bool(self.new_requests or self.running)


class ContinuousBatchingScheduler:
    """Admission + batching policy over a shared block pool."""

    def __init__(
        self,
        block_manager: BlockManager,
        max_decode_batch: int,
        admission_watermark: float = 1.0,
    ) -> None:
        if max_decode_batch <= 0:
            raise ConfigError("max_decode_batch must be positive")
        if not 0.0 < admission_watermark <= 1.0:
            raise ConfigError("admission_watermark must be in (0, 1]")
        self.block_manager = block_manager
        self.max_decode_batch = max_decode_batch
        self.admission_watermark = admission_watermark
        #: Waiting queue, kept sorted by (tier, arrival time); mutate
        #: it through :meth:`submit` / :meth:`requeue` /
        #: :meth:`preempt` / :meth:`shed` so the invariant holds.
        self.waiting: List[Request] = []
        #: Distinct tiers submitted so far.  Single-tier queues keep
        #: the O(1) admission early-exit (the queue is then fully
        #: arrival-sorted); mixed tiers must scan past unarrived
        #: premium work to admit arrived best-effort work.
        self._tiers_seen: set = set()
        self.running: List[Request] = []
        #: Bumped whenever the running batch's membership changes.
        self.mutation_count = 0
        #: Per-run :class:`~repro.audit.RunAudit` handle (None = off):
        #: preemption/resubmission rollbacks enter its token ledger.
        self.audit = None

    def bind_audit(self, audit) -> None:
        """Attach a per-run audit handle (or None to detach)."""
        self.audit = audit

    def submit(self, request: Request) -> None:
        if request.state is not RequestState.WAITING:
            raise ValueError(f"request {request.request_id} is not schedulable")
        needed = self.block_manager.blocks_needed(request.input_tokens)
        if needed > self.block_manager.num_blocks:
            raise KvCacheError(
                f"request {request.request_id}'s prompt needs {needed} KV "
                f"blocks but the pool only has {self.block_manager.num_blocks}; "
                "it can never be scheduled"
            )
        self._tiers_seen.add(request.tier)
        _insort_by_arrival(self.waiting, request)

    def requeue(self, request: Request, at: float) -> None:
        """Pull a waiting request and resubmit it to arrive at ``at``
        (client-style deadline retry with backoff)."""
        self.waiting.remove(request)
        if self.audit is not None:
            # Resubmission discards checkpointed progress.
            self.audit.on_tokens_rolled_back(request.generated)
        request.resubmit(at)
        _insort_by_arrival(self.waiting, request)

    @property
    def has_unfinished(self) -> bool:
        return bool(self.waiting or self.running)

    def next_blocked(self, now: float):
        """The highest-priority waiting request that has already
        arrived (None when nothing has) -- the engine's kv-exhaustion
        probe.  For single-tier queues this is ``waiting[0]`` exactly
        when it has arrived."""
        for request in self.waiting:
            if request.arrival_time <= now:
                return request
        return None

    def next_arrival(self) -> float:
        """Earliest arrival among waiting requests (inf when empty);
        the engine's idle clock-jump target."""
        if not self.waiting:
            return float("inf")
        if len(self._tiers_seen) <= 1:
            return self.waiting[0].arrival_time
        return min(request.arrival_time for request in self.waiting)

    def step(self, now: float) -> ScheduleStep:
        """Admit what fits, retire what finished, return the batch."""
        # Retire finished requests and release their blocks.
        still_running: List[Request] = []
        retired = 0
        for request in self.running:
            if request.state is RequestState.FINISHED:
                self.block_manager.free(request.request_id)
                retired += 1
            else:
                still_running.append(request)
        self.running = still_running

        # Admit waiting requests in (tier, arrival) order -- no
        # reordering within a traffic class.  A restarted request
        # re-allocates its full context (prompt plus any checkpointed
        # tokens to recompute).  An arrived request that does not fit
        # the KV pool blocks everything behind it (head-of-line within
        # the priority order, the historical semantics); an *unarrived*
        # request is skipped only in mixed-tier queues, where a
        # premium request arriving later must not block an arrived
        # best-effort one.
        admitted: List[Request] = []
        index = 0
        single_tier = len(self._tiers_seen) <= 1
        while (
            index < len(self.waiting)
            and len(self.running) + len(admitted) < self.max_decode_batch
        ):
            request = self.waiting[index]
            if request.arrival_time > now:
                if single_tier:
                    break  # arrival-sorted: nothing behind has arrived
                index += 1
                continue
            if not self.block_manager.has_headroom(
                request.context_len, self.admission_watermark
            ):
                break
            self.waiting.pop(index)
            self.block_manager.allocate(request.request_id, request.context_len)
            request.start_running()
            admitted.append(request)
        self.running.extend(admitted)
        if admitted or retired:
            self.mutation_count += 1
        return ScheduleStep(new_requests=admitted, running=list(self.running))

    # -- degradation paths ------------------------------------------------
    def preempt(self, victim: Request, from_checkpoint: bool = False) -> None:
        """Evict a running request back to the head of the wait queue.

        Frees its KV blocks and rolls its progress back (to zero for
        capacity preemption, to the last checkpoint for fault
        recovery); the victim is re-admitted ahead of later arrivals.

        A victim that already FINISHED this step (but has not been
        retired by the next :meth:`step` yet) is retired here instead of
        restarted -- re-running a served request would double-serve it.
        """
        if victim not in self.running:
            raise ValueError(f"request {victim.request_id} is not running")
        self.running.remove(victim)
        self.mutation_count += 1
        self.block_manager.free(victim.request_id)
        if victim.state is RequestState.FINISHED:
            return
        if self.audit is not None:
            kept = victim.checkpoint if from_checkpoint else 0
            self.audit.on_tokens_rolled_back(victim.generated - kept)
        victim.restart(from_checkpoint=from_checkpoint)
        _insort_by_arrival(self.waiting, victim, left=True)

    def shed(self, request: Request, reason: str) -> None:
        """Drop a request from either queue with a rejection reason.

        Shedding a request that already FINISHED (still awaiting
        retirement) retires it instead -- it was served, not rejected.
        """
        if request in self.waiting:
            self.waiting.remove(request)
        elif request in self.running:
            self.running.remove(request)
            self.mutation_count += 1
            self.block_manager.free(request.request_id)
            if request.state is RequestState.FINISHED:
                return
        else:
            raise ValueError(f"request {request.request_id} is not scheduled")
        request.shed(reason)

    def fail_all(self, reason: str) -> List[Request]:
        """Terminally fail every scheduled request (e.g. total outage).

        Requests that FINISHED during the last step (awaiting retirement)
        are retired, not failed -- they were already served.
        """
        victims = [
            r for r in self.waiting + self.running
            if r.state is not RequestState.FINISHED
        ]
        for request in self.running:
            self.block_manager.free(request.request_id)
        if self.running:
            self.mutation_count += 1
        self.waiting = []
        self.running = []
        for request in victims:
            request.fail(reason)
        return victims
