"""Struct-of-arrays request store of the serving engine.

:class:`~repro.serving.engine.LlmServingEngine` keeps request state in
parallel numpy arrays keyed by a stable *slot* index instead of walking
live Python objects every virtual step:

* a slot is acquired when a request is fed and recycled once the
  request reaches a terminal state and has been materialized back onto
  its :class:`~repro.serving.request.Request` object, so live array
  size tracks the working set (waiting + running), not the run length;
* one decode burst prices many virtual steps against integer context
  aggregates (see ``LlamaCostModel.decode_stepper``) without touching
  any per-request object;
* the thin ``Request`` objects remain the API boundary: lifecycle
  transitions (admission, preemption, retry, shed, failure, finish)
  fire on them as they happen, the event-set fields (first-token time,
  checkpoint) are written through to them when the engine sets them,
  and ``advance()`` exit copies only what a decode burst can leave
  stale -- running slots' ``generated`` -- and materializes pending
  finishes, so reports, journaling, fleet polling and audit
  transitions see per-request state exactly as the engine defines it.

The module also owns the process-wide engine counters surfaced by
``repro top`` and :class:`ReportAggregates`, the constant-memory
folding sink used when the engine runs with ``retain_requests=False``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.serving.kv_cache import KvCacheStats
from repro.serving.request import Request, RequestState

__all__ = [
    "CORE_COUNTERS",
    "EngineCore",
    "ReportAggregates",
    "bump_counter",
    "counters_snapshot",
    "render_counters",
    "reset_counters",
]

# -- slot states (int8 codes of the live RequestStates) --------------------
SLOT_FREE = -1
SLOT_WAITING = 0
SLOT_RUNNING = 1
SLOT_FINISHED = 2

#: Process-wide engine counters (the ``repro top`` section).  Every run
#: steps the vectorized core; the ``scalar_*`` keys stay (reading 0)
#: for readers that sum both.
CORE_COUNTERS: Dict[str, int] = {
    "vectorized_steps": 0,
    "scalar_steps": 0,
    "vectorized_runs": 0,
    "scalar_runs": 0,
    "slot_high_water": 0,
    "arrival_buffer_peak": 0,
}


def bump_counter(name: str, amount: int = 1) -> None:
    """Increment one process-wide counter (``slot_high_water`` and
    ``arrival_buffer_peak`` are maxima, not sums)."""
    if name in ("slot_high_water", "arrival_buffer_peak"):
        if amount > CORE_COUNTERS[name]:
            CORE_COUNTERS[name] = amount
    else:
        CORE_COUNTERS[name] += amount


def counters_snapshot() -> Dict[str, int]:
    """A copy of the process-wide engine counters."""
    return dict(CORE_COUNTERS)


def reset_counters() -> None:
    """Zero every process-wide engine counter (test isolation)."""
    for key in CORE_COUNTERS:
        CORE_COUNTERS[key] = 0


def render_counters() -> str:
    """Fixed-format counter block for ``repro top``."""
    c = CORE_COUNTERS
    return "\n".join([
        f"  steps      : {c['vectorized_steps']} vectorized",
        f"  runs       : {c['vectorized_runs']} vectorized",
        f"  slots      : {c['slot_high_water']} high-water mark",
        f"  arrivals   : {c['arrival_buffer_peak']} peak buffered",
    ])


class EngineCore:
    """Slot-indexed struct-of-arrays request store for one run.

    Invariants (checked by ``Auditor.check_core_invariants``):

    * a slot id is owned by at most one live request; recycled slots
      re-enter circulation only after their previous occupant reached a
      terminal state and was materialized;
    * KV accounting conserves blocks: free plus the blocks held by
      running slots always equals the pool size;
    * ``wait_q[wait_head:]`` is sorted by (tier, arrival time).
    """

    __slots__ = (
        "block_size", "num_blocks", "free_blocks",
        "capacity", "input_tokens", "output_tokens", "generated",
        "arrival", "first_token", "finish", "retries",
        "tier", "checkpoint", "deadline",
        "state", "objs", "free_slots", "wait_q", "wait_head", "tiers_seen",
        "run_slots", "finished_pending", "slot_high_water",
    )

    _INT_COLUMNS = ("input_tokens", "output_tokens", "generated", "retries",
                    "tier", "checkpoint")
    _NAN_COLUMNS = ("first_token", "finish", "deadline")

    def __init__(self, num_blocks: int, block_size: int, capacity: int = 64) -> None:
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.free_blocks = num_blocks
        self.capacity = max(8, capacity)
        n = self.capacity
        for name in self._INT_COLUMNS:
            setattr(self, name, np.zeros(n, dtype=np.int64))
        for name in self._NAN_COLUMNS:
            setattr(self, name, np.full(n, np.nan))
        self.arrival = np.zeros(n, dtype=np.float64)
        self.state = np.full(n, SLOT_FREE, dtype=np.int8)
        self.objs: List[Optional[Request]] = [None] * n
        self.free_slots: List[int] = list(range(n - 1, -1, -1))
        self.wait_q: List[int] = []
        self.wait_head = 0
        #: Tiers fed so far: while only one is seen, the waiting queue
        #: is arrival-sorted and admission stops at the first unarrived
        #: request; mixed tiers scan past unarrived premium work.
        self.tiers_seen: set = set()
        self.run_slots: List[int] = []
        #: Slots that FINISHED and await retirement at the next virtual
        #: scheduler step (they still hold their KV blocks).
        self.finished_pending: List[int] = []
        self.slot_high_water = 0

    # -- slot lifecycle ------------------------------------------------
    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in self._INT_COLUMNS + self._NAN_COLUMNS + ("arrival", "state"):
            column = getattr(self, name)
            fill = SLOT_FREE if name == "state" else (
                np.nan if name in self._NAN_COLUMNS else 0)
            grown = np.full(new, fill, dtype=column.dtype)
            grown[:old] = column
            setattr(self, name, grown)
        self.objs.extend([None] * (new - old))
        self.free_slots.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def acquire(self, request: Request) -> int:
        """Bind a fed request to a slot and enqueue it as WAITING."""
        if not self.free_slots:
            self._grow()
        slot = self.free_slots.pop()
        self.objs[slot] = request
        self.load(slot)
        self.output_tokens[slot] = request.output_tokens
        self.tier[slot] = request.tier
        self.deadline[slot] = (
            np.nan if request.deadline is None else request.deadline
        )
        self.finish[slot] = np.nan
        self.state[slot] = SLOT_WAITING
        self.tiers_seen.add(request.tier)
        live = self.capacity - len(self.free_slots)
        if live > self.slot_high_water:
            self.slot_high_water = live
            bump_counter("slot_high_water", live)
        self.insort_waiting(slot)
        return slot

    def release(self, slot: int) -> None:
        """Recycle a terminal, materialized slot."""
        self.state[slot] = SLOT_FREE
        self.objs[slot] = None
        self.free_slots.append(slot)

    # -- waiting queue ((tier, arrival)-sorted) ------------------------
    def insort_waiting(self, slot: int, left: bool = False) -> None:
        """Insert into the active waiting region by (tier, arrival).

        ``left=False`` lands after equal keys (submission FIFO);
        ``left=True`` lands before them (preempted victims re-admit
        ahead of later arrivals).
        """
        key = (int(self.tier[slot]), float(self.arrival[slot]))
        tier, arrival = self.tier, self.arrival
        q = self.wait_q
        lo, hi = self.wait_head, len(q)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = (int(tier[q[mid]]), float(arrival[q[mid]]))
            if probe < key or (not left and probe == key):
                lo = mid + 1
            else:
                hi = mid
        q.insert(lo, slot)

    @property
    def waiting_count(self) -> int:
        return len(self.wait_q) - self.wait_head

    @property
    def single_tier(self) -> bool:
        return len(self.tiers_seen) <= 1

    def take_waiting(self, index: int) -> int:
        """Remove and return the waiting entry at queue ``index``."""
        if index > self.wait_head:
            return self.wait_q.pop(index)
        slot = self.wait_q[self.wait_head]
        self.wait_head += 1
        if self.wait_head > 512 and self.wait_head * 2 > len(self.wait_q):
            del self.wait_q[:self.wait_head]
            self.wait_head = 0
        return slot

    def remove_waiting(self, slot: int) -> None:
        self.take_waiting(self.wait_q.index(slot, self.wait_head))

    def waiting_slots(self) -> List[int]:
        return self.wait_q[self.wait_head:]

    def first_arrived(self, now: float) -> Optional[int]:
        """Queue index of the highest-priority waiting request that has
        arrived by ``now`` (None when none has)."""
        arrival = self.arrival
        for index in range(self.wait_head, len(self.wait_q)):
            if arrival[self.wait_q[index]] <= now:
                return index
            if self.single_tier:
                return None  # arrival-sorted: nothing behind has arrived
        return None

    def next_arrival(self) -> float:
        """Earliest arrival among waiting requests (inf when empty)."""
        if self.wait_head == len(self.wait_q):
            return math.inf
        if self.single_tier:
            return float(self.arrival[self.wait_q[self.wait_head]])
        return float(self.arrival[self.waiting_slots()].min())

    # -- KV accounting -------------------------------------------------
    def blocks_needed(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    def context_len(self, slot: int) -> int:
        return int(self.input_tokens[slot]) + int(self.generated[slot])

    def blocks_held(self, slot: int) -> int:
        """Blocks a post-prefill slot holds.

        Admission allocates the context; the prefill's first token bumps
        ``generated`` without an append, and every decode token appends
        one.  A slot with ``generated`` tokens therefore holds
        ``ceil((input + generated - 1) / block_size)`` blocks.
        """
        return self.blocks_needed(self.context_len(slot) - 1)

    def has_headroom(self, needed: int, watermark: float) -> bool:
        """``needed`` blocks fit the pool without pushing occupancy above
        ``watermark`` (an empty pool always admits a fitting request)."""
        if needed > self.free_blocks:
            return False
        allocated = self.num_blocks - self.free_blocks
        return allocated + needed <= max(watermark * self.num_blocks, needed)

    @property
    def allocated_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    def stats(self) -> KvCacheStats:
        """Occupancy snapshot of the pool."""
        return KvCacheStats(
            total_blocks=self.num_blocks,
            allocated_blocks=self.allocated_blocks,
            used_tokens=sum(self.context_len(s) - 1 for s in self.run_slots),
            block_size=self.block_size,
        )

    # -- materialization ------------------------------------------------
    def load(self, slot: int) -> None:
        """Copy a request object's progress into its slot."""
        request = self.objs[slot]
        self.input_tokens[slot] = request.input_tokens
        self.generated[slot] = request.generated
        self.arrival[slot] = request.arrival_time
        self.first_token[slot] = (
            np.nan if request.first_token_time is None else request.first_token_time
        )
        self.retries[slot] = request.retries
        self.checkpoint[slot] = request.checkpoint

    def sync_object(self, slot: int) -> Request:
        """Copy a live slot's progress onto its Request (no transition).

        Only ``generated`` can be stale: the engine writes the first
        token time and checkpoint through to the object when it sets
        them, and never changes ``restarts`` (the object owns it)."""
        request = self.objs[slot]
        request.generated = int(self.generated[slot])
        return request

    def materialize_finished(self, slot: int) -> Request:
        """Apply a FINISHED slot to its Request, firing the transition
        once (idempotent: a request read back at ``advance()`` exit is
        not finished again at retirement)."""
        request = self.objs[slot]
        if request.state is not RequestState.FINISHED:
            self.sync_object(slot)
            request.finish_time = float(self.finish[slot])
            request._transition(RequestState.FINISHED)
        return request

    def sync_live_objects(self) -> int:
        """Bring every live Request up to date -- called at ``advance()``
        exit so external observers (a fleet node polling
        ``request.state``) never see stale state; returns how many
        requests turned FINISHED.

        Only running slots can be stale: pending finishes are
        materialized and ``generated`` is copied in one pass.  Waiting
        slots are current by construction -- feed, preemption and
        deadline resubmission change the object, then :meth:`load` it."""
        finished = 0
        for slot in self.finished_pending:
            if self.objs[slot].state is not RequestState.FINISHED:
                self.materialize_finished(slot)
                finished += 1
        run, objs = self.run_slots, self.objs
        for slot, generated in zip(run, self.generated[run].tolist()):
            objs[slot].generated = generated
        return finished

    # -- aggregate views ------------------------------------------------
    @property
    def has_unfinished(self) -> bool:
        return bool(self.run_slots) or self.wait_head < len(self.wait_q)

    def live_slots(self) -> List[int]:
        return self.run_slots + self.waiting_slots()

    def live_generated_total(self) -> int:
        """Generated-token total over live (non-terminal) slots."""
        return sum(int(self.generated[slot]) for slot in self.live_slots())


#: Log-spaced TTFT histogram bin edges for the constant-memory p99
#: estimate: 12 bins per decade from 0.1 us to 100 ks.
_TTFT_EDGES = np.logspace(-7.0, 5.0, 145)


class ReportAggregates:
    """Constant-memory folding sink for ``retain_requests=False`` runs.

    Every terminal request is folded in *retirement order* -- so the
    latency sums can differ from the retained path's feed-order sums in
    the last ulp -- and the p99 TTFT is a histogram upper bound rather
    than an exact order statistic.  Byte-golden comparisons therefore
    always use retained runs; this sink is for scale, not goldens.
    """

    __slots__ = (
        "fed", "finished", "shed", "failed", "retried",
        "sum_ttft", "sum_tpot", "terminal_tokens", "ttft_hist",
        "max_arrival",
    )

    def __init__(self) -> None:
        self.fed = 0
        self.finished = 0
        self.shed = 0
        self.failed = 0
        self.retried = 0
        self.sum_ttft = 0.0
        self.sum_tpot = 0.0
        self.terminal_tokens = 0
        self.ttft_hist = np.zeros(len(_TTFT_EDGES) + 1, dtype=np.int64)
        self.max_arrival = 0.0

    def note_fed(self, request: Request) -> None:
        self.fed += 1
        if request.arrival_time > self.max_arrival:
            self.max_arrival = request.arrival_time

    def fold_terminal(self, request: Request) -> None:
        """Fold one terminal request and let its object be collected."""
        state = request.state
        self.terminal_tokens += request.generated
        if request.retries > 0:
            self.retried += 1
        if state is RequestState.FINISHED:
            self.finished += 1
            ttft = request.ttft
            self.sum_ttft += ttft
            self.sum_tpot += request.tpot
            self.ttft_hist[int(np.searchsorted(_TTFT_EDGES, ttft))] += 1
        elif state is RequestState.SHED:
            self.shed += 1
        elif state is RequestState.FAILED:
            self.failed += 1

    def p99_ttft(self) -> float:
        """Upper-bound p99 TTFT from the log histogram (the nearest-rank
        percentile of the bin upper edges)."""
        total = int(self.ttft_hist.sum())
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(0.99 * total))
        cumulative = np.cumsum(self.ttft_hist)
        bin_index = int(np.searchsorted(cumulative, rank))
        if bin_index >= len(_TTFT_EDGES):
            bin_index = len(_TTFT_EDGES) - 1
        return float(_TTFT_EDGES[bin_index])
