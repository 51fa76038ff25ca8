"""Step-driven LLM serving engine (the vLLM analog).

The engine advances a virtual clock: each iteration retires finished
requests and admits waiting ones by continuous batching, charges a
prefill phase for newly admitted prompts, then one decode step for the
whole running batch, using the bound
:class:`~repro.models.llama.LlamaCostModel` and the selected
decode-attention implementation.  Request state lives in the
struct-of-arrays :class:`~repro.serving.engine_core.EngineCore`, and
runs of pure decode steps are priced as one burst.  TTFT and TPOT fall
out of the per-request timestamps, which is how Figure 17(d, e) is
regenerated.

With a :class:`ResiliencePolicy` (and optionally a
:class:`~repro.faults.injector.FaultInjector`) bound, the engine
degrades gracefully instead of crashing: requests that can never fit
the KV pool are shed with a reason, TTFT deadlines trigger client-style
retries with exponential backoff, device faults preempt the running
batch into checkpointed recompute, and transient kernel failures cost a
wasted step rather than the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.audit import ConfigError, Watchdog, WatchdogExceeded, get_auditor
from repro.hw.power import ActivityAccumulator, PowerModel
from repro.models.llama import DecodeAttention, LlamaCostModel
from repro.models.tensor_parallel import CommEvent
from repro.serving.engine_core import (
    SLOT_FINISHED,
    SLOT_RUNNING,
    SLOT_WAITING,
    EngineCore,
    ReportAggregates,
    bump_counter,
)
from repro.serving.kv_cache import KvCacheError, KvCacheStats
from repro.serving.request import Request, RequestState, RetryPolicy

#: Default KV block size in tokens (matches the paged-attention kernel).
DEFAULT_BLOCK_SIZE = 128


@dataclass(frozen=True)
class ResiliencePolicy:
    """Graceful-degradation knobs for one serving run.

    ``deadline`` is a TTFT SLO in seconds: a request still waiting past
    it is retried (client-style, with exponential backoff per
    ``retry``) and finally shed.  ``checkpoint_interval`` bounds the
    recompute after a device fault; ``admission_watermark`` keeps a
    fraction of the KV pool free for decode growth.
    """

    shed_on_exhaustion: bool = True
    deadline: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_interval: int = 32
    admission_watermark: float = 1.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError("deadline must be positive")


@dataclass
class FaultStats:
    """Counters of degradation events during one run."""

    device_failures: int = 0
    device_recoveries: int = 0
    fault_preemptions: int = 0
    kernel_retries: int = 0
    deadline_retries: int = 0
    recovered_requests: int = 0


@dataclass(frozen=True)
class ServingReport:
    """Aggregate metrics of one serving run.

    Latency means are computed over *finished* requests only;
    ``num_requests`` counts everything submitted, partitioned into
    finished / shed / failed / unfinished.
    """

    device: str
    attention: str
    num_requests: int
    max_decode_batch: int
    total_time: float
    total_output_tokens: int
    mean_ttft: float
    mean_tpot: float
    average_power: float
    engine_steps: int
    preemptions: int
    finished_requests: int = 0
    shed_requests: int = 0
    failed_requests: int = 0
    unfinished_requests: int = 0
    retried_requests: int = 0
    kernel_retries: int = 0
    device_failures: int = 0
    #: Non-empty when a :class:`~repro.audit.Watchdog` stopped the run
    #: early -- the report is then a typed *partial* result.
    watchdog_reason: str = ""

    @property
    def watchdog_tripped(self) -> bool:
        return bool(self.watchdog_reason)

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.total_output_tokens / self.total_time if self.total_time > 0 else 0.0

    @property
    def requests_per_s(self) -> float:
        return self.num_requests / self.total_time if self.total_time > 0 else 0.0

    @property
    def energy_per_token(self) -> float:
        if self.total_output_tokens == 0:
            return 0.0
        return self.average_power * self.total_time / self.total_output_tokens

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted requests served to completion."""
        return self.finished_requests / self.num_requests if self.num_requests else 0.0

    # -- Report protocol ----------------------------------------------
    def to_dict(self) -> dict:
        """All fields plus the derived rates, as one plain dict."""
        return {
            "device": self.device,
            "attention": self.attention,
            "num_requests": self.num_requests,
            "max_decode_batch": self.max_decode_batch,
            "total_time": round(self.total_time, 9),
            "total_output_tokens": self.total_output_tokens,
            "throughput_tokens_per_s": round(self.throughput_tokens_per_s, 6),
            "requests_per_s": round(self.requests_per_s, 6),
            "mean_ttft": round(self.mean_ttft, 9),
            "mean_tpot": round(self.mean_tpot, 9),
            "average_power": round(self.average_power, 3),
            "energy_per_token": round(self.energy_per_token, 9),
            "engine_steps": self.engine_steps,
            "preemptions": self.preemptions,
            "finished_requests": self.finished_requests,
            "shed_requests": self.shed_requests,
            "failed_requests": self.failed_requests,
            "unfinished_requests": self.unfinished_requests,
            "retried_requests": self.retried_requests,
            "kernel_retries": self.kernel_retries,
            "device_failures": self.device_failures,
            "completion_rate": round(self.completion_rate, 6),
            "watchdog_reason": self.watchdog_reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServingReport":
        """Rebuild a report from its :meth:`to_dict` payload (derived
        rates are recomputed, not read back) -- the journal-resume path
        for sweep points."""
        return cls(
            device=data["device"],
            attention=data["attention"],
            num_requests=int(data["num_requests"]),
            max_decode_batch=int(data["max_decode_batch"]),
            total_time=float(data["total_time"]),
            total_output_tokens=int(data["total_output_tokens"]),
            mean_ttft=float(data["mean_ttft"]),
            mean_tpot=float(data["mean_tpot"]),
            average_power=float(data["average_power"]),
            engine_steps=int(data["engine_steps"]),
            preemptions=int(data["preemptions"]),
            finished_requests=int(data.get("finished_requests", 0)),
            shed_requests=int(data.get("shed_requests", 0)),
            failed_requests=int(data.get("failed_requests", 0)),
            unfinished_requests=int(data.get("unfinished_requests", 0)),
            retried_requests=int(data.get("retried_requests", 0)),
            kernel_retries=int(data.get("kernel_retries", 0)),
            device_failures=int(data.get("device_failures", 0)),
            watchdog_reason=str(data.get("watchdog_reason", "")),
        )

    def to_json(self) -> str:
        """The report as a JSON document."""
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The report as one CSV row."""
        from repro.api.report import rows_to_csv

        return rows_to_csv([self.to_dict()])

    def render(self) -> str:
        """Fixed-format text report (byte-identical per seed)."""
        lines = [
            f"Serving report: {self.device} "
            f"({self.attention}, max decode batch {self.max_decode_batch})",
            f"  requests   : {self.num_requests} submitted | "
            f"{self.finished_requests} finished | {self.shed_requests} shed | "
            f"{self.failed_requests} failed | {self.unfinished_requests} unfinished",
            f"  throughput : {self.throughput_tokens_per_s:.0f} tokens/s over "
            f"{self.total_time:.4f} s ({self.total_output_tokens} tokens)",
        ]
        if self.finished_requests == 0:
            lines.append("  latency    : no finished requests")
        else:
            lines.append(f"  mean TTFT  : {self.mean_ttft:.3f} s")
            lines.append(f"  mean TPOT  : {self.mean_tpot * 1e3:.1f} ms")
        lines += [
            f"  power      : {self.average_power:.0f} W",
            f"  energy     : {self.energy_per_token * 1e3:.2f} mJ/token",
            f"  engine     : {self.engine_steps} steps | {self.preemptions} "
            f"preemptions | {self.kernel_retries} kernel retries",
        ]
        if self.watchdog_reason:
            lines.append(f"  watchdog   : PARTIAL RESULT ({self.watchdog_reason})")
        return "\n".join(lines)


class LlmServingEngine:
    """Serves batches of requests over a Llama cost model."""

    def __init__(
        self,
        model: LlamaCostModel,
        attention: DecodeAttention = DecodeAttention.PAGED_OPT,
        max_decode_batch: int = 64,
        block_size: int = DEFAULT_BLOCK_SIZE,
        num_kv_blocks: Optional[int] = None,
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[object] = None,
        ctx: Optional[object] = None,
        auditor: Optional[object] = None,
        watchdog: Optional[object] = None,
        retain_requests: bool = True,
    ) -> None:
        """``injector`` is a :class:`~repro.faults.injector.FaultInjector`
        (duck-typed so the serving layer stays import-independent of
        :mod:`repro.faults`).  ``ctx`` is a
        :class:`~repro.api.RunContext`; with one bound, the run records
        hierarchical spans on the virtual clock and ``engine.*`` /
        ``kv.*`` / ``scheduler.*`` / ``power.*`` metrics (see
        :meth:`bind_context`).  ``auditor`` overrides the process
        auditor (``REPRO_AUDIT``); ``watchdog`` is a
        :class:`~repro.audit.Watchdog` bounding the run by steps/wall
        time -- tripping it yields a typed partial report instead of a
        wedged simulation.

        ``retain_requests=False`` folds terminal requests into constant-
        memory aggregates instead of keeping every object alive, which
        is what makes million-request streaming runs possible; latency
        means are then accumulated in retirement order (ulp-level
        differences from the retained path) and the run is excluded from
        byte-golden comparisons."""
        if max_decode_batch <= 0:
            raise ConfigError("max_decode_batch must be positive")
        if num_kv_blocks is None:
            num_kv_blocks = max(1, model.max_kv_tokens() // block_size)
        if num_kv_blocks <= 0 or block_size <= 0:
            raise ConfigError("num_kv_blocks and block_size must be positive")
        self._watermark = policy.admission_watermark if policy else 1.0
        if not 0.0 < self._watermark <= 1.0:
            raise ConfigError("admission_watermark must be in (0, 1]")
        self.model = model
        self.attention = attention
        self.max_decode_batch = max_decode_batch
        self.block_size = block_size
        self.num_kv_blocks = num_kv_blocks
        self.policy = policy
        self.injector = injector
        self.auditor = auditor if auditor is not None else get_auditor()
        self.watchdog = watchdog if watchdog is not None else Watchdog.from_env()
        self.retain_requests = retain_requests
        self.fault_stats = FaultStats()
        self._fault_restarted_ids: set = set()
        self._power_model = PowerModel(self.model.device.spec.power)
        self.ctx = None
        self._tracer = None
        self._metrics = None
        self._traced_request_ids: set = set()
        #: ``(request_id, state, generated)`` of traced requests folded
        #: in release mode, whose async spans close at :meth:`finish`.
        self._folded_traces: List[tuple] = []
        # Run state (see begin/feed/advance/finish).
        self._core = EngineCore(num_kv_blocks, block_size)
        self._aggregates: Optional[ReportAggregates] = None
        self._audit = None
        self._now = 0.0
        #: Virtual time of the last scheduler step: preempt/shed/fail
        #: events between steps are stamped with it.
        self._sched_now = 0.0
        self._steps = 0
        self._preemptions = 0
        self._activity: Optional[ActivityAccumulator] = None
        self._all_requests: List[Request] = []
        self._max_fed_arrival = 0.0
        self._request_deadlines = False
        #: Monotonic count of requests that reached a terminal state
        #: (finish, shed, failure, cancel), never reset by ``begin``: a
        #: poller that sees it unchanged knows no fed request's state
        #: turned terminal since it last looked.
        self.terminal_count = 0
        if ctx is not None:
            self.bind_context(ctx)

    def bind_context(self, ctx) -> None:
        """Bind a :class:`~repro.api.RunContext` (or None to unbind)."""
        self.ctx = ctx
        self._tracer = ctx.tracer if ctx is not None else None
        self._metrics = ctx.metrics if ctx is not None else None

    # -- observability helpers -----------------------------------------
    def _trace_request_begin(self, request: Request, now: float) -> None:
        """Open the per-request async span on first admission."""
        if self._tracer is None or request.request_id in self._traced_request_ids:
            return
        self._traced_request_ids.add(request.request_id)
        self._tracer.async_begin(
            f"request-{request.request_id}",
            "request",
            min(request.arrival_time, now),
            request.request_id,
            prompt_tokens=request.input_tokens,
        )

    def _observe_collectives(self, events: Sequence[CommEvent], end: float) -> None:
        """Record the collectives one model phase priced (its
        ``PhaseEstimate.collectives``): ``comm.<op>.*`` metrics, and
        back-to-back spans ending at ``end``.

        The cost model reports AllReduce durations, not timestamps, so
        the spans are reconstructed at the tail of the phase window --
        which is where they sit in a real execution: the activation
        AllReduce follows the sharded matmuls it synchronises."""
        if not events:
            return
        metrics = self._metrics
        if metrics is not None:
            for op, seconds, size_bytes in events:
                name = f"comm.{op.replace('_', '')}"
                metrics.counter(f"{name}.calls").inc()
                metrics.counter(f"{name}.bytes").inc(size_bytes)
                metrics.histogram(f"{name}.seconds").observe(seconds)
        tracer = self._tracer
        if tracer is None:
            return
        prefix = type(self.model.tp.library).__name__.replace("Library", "").lower()
        start = end - sum(seconds for _, seconds, _ in events)
        for op, seconds, size_bytes in events:
            tracer.record(
                f"{prefix}.{op}",
                "collective",
                start,
                start + seconds,
                size_bytes=size_bytes,
            )
            start += seconds

    def _observe_kv(self, kind: str, blocks: int) -> None:
        """``kv.*`` metrics of one pool operation: ``"allocate"``,
        ``"grow"`` (decode appends that took new blocks) or ``"free"``."""
        metrics = self._metrics
        if metrics is None:
            return
        if kind == "free":
            metrics.counter("kv.frees").inc()
            metrics.counter("kv.blocks_freed").inc(blocks)
        else:
            if kind == "allocate":
                metrics.counter("kv.allocations").inc()
            metrics.counter("kv.blocks_allocated").inc(blocks)
        core = self._core
        metrics.gauge("kv.occupancy").set(core.allocated_blocks / core.num_blocks)

    def _observe_event(self, name: str, metric: str, amount: int = 1, **args) -> None:
        """A scheduler-track instant at the last scheduler step plus its
        ``scheduler.*`` counter."""
        if self._tracer is not None:
            self._tracer.instant(name, "scheduler", self._sched_now, **args)
        if self._metrics is not None:
            self._metrics.counter(f"scheduler.{metric}").inc(amount)

    def _finish_step(
        self,
        step_span: Optional[object],
        step_start: float,
        now: float,
        step_activity: Optional[ActivityAccumulator],
        batch_size: int,
    ) -> None:
        """Close one iteration's span and record its samples: a power
        span on the ``power`` track, counter tracks for watts / KV
        occupancy / batch size, and the per-step metrics."""
        tracer = self._tracer
        metrics = self._metrics
        duration = now - step_start
        watts = 0.0
        if duration > 0:
            watts = self._power_model.power(step_activity.profile(duration))
        allocated = self._core.allocated_blocks
        if tracer is not None:
            tracer.record(
                "power.sample", "power", step_start, now, watts=round(watts, 3)
            )
            tracer.counter("power.watts", now, round(watts, 3))
            tracer.counter("kv.allocated_blocks", now, allocated)
            tracer.counter("batch.running", now, batch_size)
            tracer.end(step_span, now, batch=batch_size)
        if metrics is not None:
            metrics.counter("engine.steps").inc()
            metrics.histogram("engine.batch_size").observe(batch_size)
            metrics.histogram("power.watts").observe(watts)
            metrics.gauge("kv.allocated_blocks").set(allocated)
            step_activity.record_to(metrics)

    @property
    def _graceful(self) -> bool:
        return self.policy is not None and self.policy.shed_on_exhaustion

    # -- streaming run API ---------------------------------------------
    # ``run()`` packages the canonical one-shot flow; the four-phase
    # API below (begin / feed / advance / finish) lets an external
    # event loop -- a cluster Node on the shared fleet clock -- embed
    # the engine, feeding requests as a gateway routes them and
    # advancing the simulation in bounded horizons.

    def begin(self, requests: Sequence[Request] = ()) -> None:
        """Open a run: arm the audit ledger and watchdog, start the
        root span, and submit any up-front ``requests``."""
        self._core = EngineCore(self.num_kv_blocks, self.block_size)
        self._aggregates = None if self.retain_requests else ReportAggregates()
        self._max_fed_arrival = 0.0
        self._request_deadlines = any(r.deadline is not None for r in requests)
        bump_counter("vectorized_runs")
        self._audit = self.auditor.begin_run("serving.run") if self.auditor else None
        if self._audit is not None:
            self._audit.set_token_baseline(sum(r.generated for r in requests))
        if self.watchdog is not None:
            self.watchdog.start()
        self._now = 0.0
        self._sched_now = 0.0
        self._steps = 0
        self._preemptions = 0
        self._activity = ActivityAccumulator()
        self._all_requests = []
        if self._tracer is not None:
            self._tracer.begin(
                "serving.run", "engine", self._now,
                device=self.model.device.name,
                attention=self.attention.value,
                requests=len(requests),
            )
        for request in requests:
            self.feed(request)

    def feed(self, request: Request) -> None:
        """Submit one request to an open run (streaming admission).

        A prompt that can never fit the KV pool raises
        :class:`KvCacheError` without a policy and is shed with an
        ``oversized`` reason with one."""
        if self.policy and self.policy.deadline is not None and request.deadline is None:
            request.deadline = self.policy.deadline
        if self._audit is not None and request.generated:
            # Late-fed requests extend the conservation baseline.
            self._audit.set_token_baseline(
                self._audit._token_baseline + request.generated
            )
        if request.arrival_time > self._max_fed_arrival:
            self._max_fed_arrival = request.arrival_time
        if request.deadline is not None:
            self._request_deadlines = True
        if self._aggregates is not None:
            self._aggregates.note_fed(request)
        if self.retain_requests:
            self._all_requests.append(request)
        if request.state is not RequestState.WAITING:
            raise ValueError(f"request {request.request_id} is not schedulable")
        core = self._core
        needed = core.blocks_needed(request.input_tokens)
        if needed > core.num_blocks:
            error = KvCacheError(
                f"request {request.request_id}'s prompt needs {needed} KV "
                f"blocks but the pool only has {core.num_blocks}; "
                "it can never be scheduled"
            )
            if not self._graceful:
                raise error
            request.shed(f"oversized: {error}")
            self._fold_terminal(request)
            return
        core.acquire(request)

    def _fold_terminal(self, request: Request) -> None:
        """Retirement hook for ``retain_requests=False`` runs: fold the
        request into the aggregates, observe its latencies, and keep
        what its request span needs to close at :meth:`finish`.  Every
        terminal request passes through here, so it also bumps
        :attr:`terminal_count`."""
        self.terminal_count += 1
        if self._aggregates is None:
            return
        self._aggregates.fold_terminal(request)
        if self._metrics is not None and request.state is RequestState.FINISHED:
            self._metrics.histogram("request.ttft").observe(request.ttft)
            self._metrics.histogram("request.tpot").observe(request.tpot)
        if request.request_id in self._traced_request_ids:
            self._traced_request_ids.discard(request.request_id)
            self._folded_traces.append(
                (request.request_id, request.state.value, request.generated)
            )

    @property
    def now(self) -> float:
        """Current virtual time of the open run."""
        return self._now

    @property
    def requests(self) -> List[Request]:
        """Every request fed to the current run, in feed order (empty
        when ``retain_requests=False`` -- terminal requests are folded
        into aggregates instead of retained)."""
        return list(self._all_requests)

    @property
    def has_unfinished(self) -> bool:
        return self._core.has_unfinished

    def kv_stats(self) -> KvCacheStats:
        """Occupancy snapshot of the run's KV block pool."""
        return self._core.stats()

    def advance(self, horizon: float = math.inf) -> float:
        """Drive the step loop while work remains and steps start at or
        before ``horizon``; returns the clock.

        A step that *starts* within the horizon executes to completion
        (the batch-synchronous clock cannot split an iteration), so the
        returned time may overrun ``horizon`` -- callers observe
        completions at the next advance, exactly like polling a real
        engine between scheduler ticks.  Raises
        :class:`~repro.audit.WatchdogExceeded` when the armed watchdog
        budget is exhausted (``run()`` converts that into a typed
        partial report).
        """
        return self._advance(horizon)

    def _advance(self, horizon: float, sync_exit: bool = True) -> float:
        """The step loop over the slot arrays.

        One iteration is one virtual engine step: fault events, deadline
        enforcement, a scheduler step (retire, then admit), sequential
        prefills for admissions and capacity preemption, then a *decode
        burst* (see :meth:`_decode_burst`) that prices this step's
        decode and as many following pure-decode steps as no event can
        interrupt.  Request objects are touched only at lifecycle
        events (transitions, first token, checkpoints), and on exit
        running slots' ``generated`` is copied back and pending
        finishes are materialized.  ``sync_exit=False`` skips
        that exit sync -- only for the engine-internal loop of
        :meth:`run_streaming`, where nothing can observe live request
        objects before the next advance or :meth:`finish` syncs them.
        """
        core = self._core
        audit = self._audit
        watchdog = self.watchdog
        tracer = self._tracer
        observing = tracer is not None or self._metrics is not None
        model = self.model
        out, gen = core.output_tokens, core.generated
        first, finish, state = core.first_token, core.finish, core.state
        run_slots = core.run_slots
        activity = self._activity
        interval = self.policy.checkpoint_interval if self.policy else 0
        while core.has_unfinished:
            now = self._now
            if now > horizon:
                break
            if watchdog is not None:
                watchdog.check(self._steps)
            if self.injector is not None:
                now = self._advance_faults(now)
            if audit is not None:
                audit.observe_clock(now)
                if self.auditor is not None:
                    self.auditor.check_core_invariants(core)
            if self._deadlines_enforced:
                self._enforce_deadlines(now)
            admitted = self._schedule(now)
            if not run_slots:
                self._now = now
                if not core.waiting_count:
                    break  # everything retired in this step
                index = core.first_arrived(now)
                if index is not None:
                    # Nothing runs, nothing admits, and the highest-
                    # priority arrived request is blocked: the pool can
                    # never serve it.
                    slot = core.wait_q[index]
                    reason = (
                        f"kv-exhausted: {core.context_len(slot)} prompt tokens "
                        "exceed the free KV pool with no running request to retire"
                    )
                    if self._graceful:
                        self._shed(slot, reason)
                        continue
                    request_id = core.objs[slot].request_id
                    self._sync_objects()
                    raise KvCacheError(
                        f"request {request_id} cannot be admitted: {reason}"
                    )
                next_arrival = core.next_arrival()
                if next_arrival > horizon:
                    break  # idle until past the horizon; do not jump it
                # All remaining requests arrive later; jump the clock.
                self._now = max(now, next_arrival)
                continue
            slowdown = self.injector.compute_slowdown() if self.injector else 1.0
            step_start = now
            step_span = step_activity = None
            if observing:
                step_activity = ActivityAccumulator()
            if tracer is not None:
                step_span = tracer.begin(
                    "engine.step", "engine", now,
                    step=self._steps, admitted=len(admitted),
                )
            # Prefills run sequentially, one prompt at a time (vLLM
            # style, no padding waste).  A fault-restarted request
            # recomputes its checkpointed tokens too.
            for slot in admitted:
                prefill_span = None
                if tracer is not None:
                    self._trace_request_begin(core.objs[slot], now)
                    prefill_span = tracer.begin(
                        "prefill", "engine", now,
                        request_id=core.objs[slot].request_id,
                        prompt_tokens=core.context_len(slot),
                    )
                phase = model.prefill(1, core.context_len(slot))
                now += phase.time * slowdown
                activity.merge(phase.activity)
                if step_activity is not None:
                    step_activity.merge(phase.activity)
                    self._observe_collectives(phase.collectives, now)
                if prefill_span is not None:
                    tracer.end(prefill_span, now)
                gen[slot] += 1
                # First token and checkpoint are set only at events, so
                # they are written through to the object here and the
                # exit sync never has to copy them.
                if np.isnan(first[slot]):
                    first[slot] = now
                    core.objs[slot].first_token_time = float(now)
                if gen[slot] >= out[slot]:
                    state[slot] = SLOT_FINISHED
                    finish[slot] = now
                    core.finished_pending.append(slot)
                if interval and gen[slot] % interval == 0:
                    core.checkpoint[slot] = gen[slot]
                    core.objs[slot].checkpoint = int(gen[slot])
            if admitted and audit is not None:
                audit.on_tokens_emitted(len(admitted))
            if core.finished_pending:
                runners = [s for s in run_slots if state[s] == SLOT_RUNNING]
            else:
                runners = list(run_slots)
            if runners:
                # Capacity preemption: evict the newest runners until
                # every remaining one can grow a block.
                while core.free_blocks < len(runners) and len(runners) > 1:
                    self._preempt(runners.pop(), from_checkpoint=False)
                    self._preemptions += 1
                now = self._decode_burst(
                    runners, now, horizon, slowdown, step_activity
                )
            else:
                self._steps += 1
                self._now = now
            if observing:
                self._finish_step(
                    step_span, step_start, now, step_activity, len(runners)
                )
        if sync_exit:
            self._sync_objects()
        return self._now

    def _sync_objects(self) -> None:
        """Bring live request objects up to date; a pending finish
        that turns FINISHED here counts as a terminal transition."""
        self.terminal_count += self._core.sync_live_objects()

    def _decode_burst(
        self,
        runners: List[int],
        now: float,
        horizon: float,
        slowdown: float,
        step_activity: Optional[ActivityAccumulator],
    ) -> float:
        """Run this iteration's decode step and every following step
        that is a pure decode continuation; returns the clock.

        The burst ends at every event the step loop reacts to between
        steps: a runner finishing, a pending retirement, a waiting
        request arriving or becoming admissible, capacity preemption,
        a fault event falling due, a waiting request's deadline
        expiring, the watchdog's step budget, a transient kernel fault
        (drawn once per decode step, in order), and the horizon.  An
        observed run (``step_activity`` given) prices exactly one step
        per burst, so per-step spans and metrics come out of the outer
        loop.  Every step, observed or not, is priced by
        ``LlamaCostModel.decode_stepper``, whose integer recurrences are
        bit-identical to pricing a ``DecodeBatchStats`` per step.
        """
        core = self._core
        injector = self.injector
        bs = core.block_size
        n = len(runners)
        slots = np.asarray(runners, dtype=np.intp)
        gen0 = core.generated[slots]
        ctx0 = core.input_tokens[slots] + gen0
        rem = core.output_tokens[slots] - gen0
        min_rem = int(rem.min())
        total_context = int(ctx0.sum())
        total_blocks = int(np.sum(-(-ctx0 // 128)))
        max_context = int(ctx0.max())
        limit = min_rem
        if core.finished_pending or step_activity is not None:
            limit = 1
        watchdog = self.watchdog
        if watchdog is not None and watchdog.max_steps is not None:
            limit = min(limit, watchdog.max_steps - self._steps)
        # Pricing always buckets KV at the kernel's 128-token blocks;
        # the engine's pool may use a different block size, so growth
        # gets its own residue histogram.  A one-step burst only reads
        # the first step's growth and skips the histograms.
        if limit == 1:
            growth0 = int(np.count_nonzero(ctx0 % bs == 1 % bs))
            hist128 = hist_bs = None
        else:
            hist128 = np.bincount((ctx0 % 128).astype(np.int64), minlength=128)
            hist_bs = (
                hist128
                if bs == 128
                else np.bincount((ctx0 % bs).astype(np.int64), minlength=bs)
            )
        stepper = self.model.decode_stepper(n, self.attention)
        # Events between steps, fixed for the burst.
        room = n < self.max_decode_batch
        candidate, arrival_at = (
            self._admission_watch(now) if room else (None, math.inf)
        )
        candidate_needed = (
            core.blocks_needed(core.context_len(candidate))
            if candidate is not None else 0
        )
        event_at = math.inf
        if injector is not None and injector.next_event_time is not None:
            event_at = injector.next_event_time
        deadline_at = self._next_deadline() if self._deadlines_enforced else math.inf
        watermark = self._watermark
        activity = self._activity
        tracer = self._tracer
        j = 0  # completed steps this burst
        recorded = 0  # steps whose tokens were recorded
        exhausted = False
        while True:
            step_start = now
            if step_activity is None:
                now += stepper(total_context, total_blocks, max_context, activity) * slowdown
            else:
                # An observed step prices into its own accumulator (the
                # step's power sample) under a ``decode.step`` span,
                # with the collectives the step's batch size priced.
                decode_span = None
                if tracer is not None:
                    decode_span = tracer.begin("decode.step", "engine", now, batch=n)
                decode_activity = ActivityAccumulator()
                now += stepper(
                    total_context, total_blocks, max_context, decode_activity
                ) * slowdown
                activity.merge(decode_activity)
                step_activity.merge(decode_activity)
                self._observe_collectives(self.model._decode_terms(n)[1], now)
                if decode_span is not None:
                    tracer.end(decode_span, now)
            j += 1
            if injector is not None and injector.kernel_fault():
                # Transient kernel failure: the step's output is lost
                # and recomputed next iteration; the time still passed.
                self.fault_stats.kernel_retries += 1
                if tracer is not None:
                    tracer.instant("kernel_fault", "engine", now)
                if self._metrics is not None:
                    self._metrics.counter("engine.kernel_retries").inc()
                break
            # KV growth of step j (1-based): a runner with start context
            # c takes a new block at the steps where c + j - 2 is a
            # block-size multiple.
            growth = growth0 if limit == 1 else int(hist_bs[(2 - j) % bs])
            if growth > core.free_blocks:
                # Only reachable with a single runner (capacity
                # preemption keeps a block per runner otherwise): the
                # step's time is charged, then the append fails before
                # any token is recorded.
                exhausted = True
                break
            core.free_blocks -= growth
            if growth:
                self._observe_kv("grow", growth)
            recorded = j
            if j >= limit:
                break  # a runner finishes, a retirement, or the budget
            total_context += n
            max_context += 1
            total_blocks += int(hist128[(1 - j) % 128])
            if now > horizon or now >= event_at or now >= deadline_at:
                break
            if room and (
                now >= arrival_at
                or (candidate is not None
                    and core.has_headroom(candidate_needed, watermark))
            ):
                break  # the waiting queue may admit next step
            if core.free_blocks < n and n > 1:
                break  # capacity preemption due next step
        self._steps += j
        if j > 1:
            # Steps after the first each began with a scheduler step.
            self._sched_now = step_start
        self._now = now
        if recorded:
            gen1 = gen0 + recorded
            core.generated[slots] = gen1
            if self.policy is not None:
                interval = self.policy.checkpoint_interval
                mark = gen1 // interval * interval
                crossed = mark > gen0
                for slot, checkpoint in zip(
                    slots[crossed].tolist(), mark[crossed].tolist()
                ):
                    core.checkpoint[slot] = checkpoint
                    core.objs[slot].checkpoint = checkpoint
            if self._audit is not None:
                self._audit.on_tokens_emitted(n * recorded)
        if exhausted:
            if not self._graceful:
                self._sync_objects()
                raise KvCacheError("out of KV blocks during decode")
            self._shed(runners[0], "kv-exhausted: pool full during decode")
        elif recorded == min_rem:
            done = slots[rem == min_rem]
            core.state[done] = SLOT_FINISHED
            core.finish[done] = now
            core.finished_pending.extend(int(s) for s in done)
        return now

    def _admission_watch(self, now: float):
        """``(candidate, arrival_at)`` for a decode burst starting at
        ``now``: the first arrived waiting slot in admission order (it
        did not fit, so it is admitted only once it fits), and the
        earliest arrival among the waiting slots ahead of it, any of
        which would become the new candidate."""
        core = self._core
        index = core.first_arrived(now)
        if index is None:
            return None, core.next_arrival()
        ahead = core.wait_q[core.wait_head:index]
        arrival_at = float(core.arrival[ahead].min()) if ahead else math.inf
        return core.wait_q[index], arrival_at

    @property
    def _deadlines_enforced(self) -> bool:
        # Enforced when the policy sets a fleet-wide SLO *or* any fed
        # request carries its own (e.g. a tenant-tier TTFT deadline).
        return self.policy is not None and (
            self.policy.deadline is not None or self._request_deadlines
        )

    def _expiring(self):
        """``(slots, arrivals, deadlines)`` of the waiting slots still
        owed a first token under a TTFT deadline, in admission order."""
        core = self._core
        waiting = np.asarray(core.waiting_slots(), dtype=np.intp)
        deadline = core.deadline[waiting]
        owed = ~np.isnan(deadline) & np.isnan(core.first_token[waiting])
        return waiting[owed], core.arrival[waiting[owed]], deadline[owed]

    def _next_deadline(self) -> float:
        """A lower bound on when the next waiting deadline expires (the
        relative margin absorbs rounding of ``arrival + deadline``)."""
        _, arrival, deadline = self._expiring()
        if not len(arrival):
            return math.inf
        expiry = float((arrival + deadline).min())
        return expiry - 1e-9 * max(1.0, abs(expiry))

    def _enforce_deadlines(self, now: float) -> None:
        """Retry (with backoff) or shed every waiting request whose TTFT
        deadline expired, in admission order."""
        slots, arrival, deadline = self._expiring()
        missed = now - arrival > deadline
        if not missed.any():
            return
        core = self._core
        retry = self.policy.retry
        for slot in slots[missed].tolist():
            request = core.objs[slot]
            retries = int(core.retries[slot])
            if retries < retry.max_retries:
                delay = retry.backoff(retries, token=request.request_id)
                core.remove_waiting(slot)
                if self._audit is not None:
                    # Resubmission discards checkpointed progress.
                    self._audit.on_tokens_rolled_back(int(core.generated[slot]))
                core.sync_object(slot).resubmit(now + delay)
                core.load(slot)
                core.insort_waiting(slot)
                self.fault_stats.deadline_retries += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "deadline_retry", "engine", now,
                        request_id=request.request_id, retry=request.retries,
                    )
                if self._metrics is not None:
                    self._metrics.counter("engine.deadline_retries").inc()
            else:
                self._shed(
                    slot,
                    f"deadline: no first token within {request.deadline:g}s "
                    f"after {retries} retries",
                )

    def _schedule(self, now: float) -> List[int]:
        """One virtual scheduler step: retire finished runners (in batch
        order), then admit waiting requests in (tier, arrival) order
        while the batch has room and the pool has headroom.  Returns the
        admitted slots."""
        core = self._core
        tracer = self._tracer
        metrics = self._metrics
        self._sched_now = now
        run_slots = core.run_slots
        retired = 0
        if core.finished_pending:
            still_running = []
            for slot in run_slots:
                if core.state[slot] != SLOT_FINISHED:
                    still_running.append(slot)
                    continue
                blocks = self._release_blocks(slot)
                request = core.materialize_finished(slot)
                self._fold_terminal(request)
                core.release(slot)
                retired += 1
                if tracer is not None:
                    # Pool bookkeeping is instantaneous on the virtual
                    # clock; the zero-width span marks the event on the
                    # ``kv`` track with its block count.
                    tracer.record(
                        "kv.free", "kv", now, now,
                        request_id=request.request_id, blocks=blocks,
                    )
            run_slots[:] = still_running
            core.finished_pending.clear()
        # An arrived request that does not fit blocks everything behind
        # it (head-of-line within the priority order); an *unarrived*
        # one is skipped only in mixed-tier queues, where a premium
        # request arriving later must not block arrived best-effort
        # work.  A restarted request re-allocates its full context.
        admitted: List[int] = []
        room = self.max_decode_batch - len(run_slots)
        q = core.wait_q
        skipped = 0  # unarrived entries passed over at the queue head
        while core.wait_head + skipped < len(q) and len(admitted) < room:
            slot = q[core.wait_head + skipped]
            if core.arrival[slot] > now:
                if core.single_tier:
                    break  # arrival-sorted: nothing behind has arrived
                skipped += 1
                continue
            needed = core.blocks_needed(core.context_len(slot))
            if not core.has_headroom(needed, self._watermark):
                break
            core.take_waiting(core.wait_head + skipped)
            core.free_blocks -= needed
            core.objs[slot].start_running()
            core.state[slot] = SLOT_RUNNING
            admitted.append(slot)
            self._observe_kv("allocate", needed)
            if tracer is not None:
                tracer.record(
                    "kv.allocate", "kv", now, now,
                    request_id=core.objs[slot].request_id, blocks=needed,
                )
        run_slots.extend(admitted)
        if tracer is not None:
            # Scheduling is instantaneous on the virtual clock, so the
            # span is zero-width; its args carry the admission ledger.
            tracer.record(
                "scheduler.step", "scheduler", now, now,
                admitted=len(admitted), retired=retired,
                running=len(run_slots), waiting=core.waiting_count,
            )
        if metrics is not None:
            metrics.counter("scheduler.steps").inc()
            if admitted:
                metrics.counter("scheduler.admitted").inc(len(admitted))
            if retired:
                metrics.counter("scheduler.retired").inc(retired)
            metrics.gauge("scheduler.running").set(len(run_slots))
            metrics.gauge("scheduler.waiting").set(core.waiting_count)
        return admitted

    # -- lifecycle primitives --------------------------------------------
    def _release_blocks(self, slot: int) -> int:
        """Return a running slot's KV blocks to the pool."""
        blocks = self._core.blocks_held(slot)
        self._core.free_blocks += blocks
        self._observe_kv("free", blocks)
        return blocks

    def _preempt(self, slot: int, from_checkpoint: bool) -> None:
        """Evict a running slot back to the wait queue, rolling its
        progress back to zero (capacity) or its checkpoint (fault); it
        re-admits ahead of later arrivals."""
        core = self._core
        core.run_slots.remove(slot)
        self._release_blocks(slot)
        request = core.sync_object(slot)
        if self._audit is not None:
            kept = request.checkpoint if from_checkpoint else 0
            self._audit.on_tokens_rolled_back(request.generated - kept)
        request.restart(from_checkpoint=from_checkpoint)
        core.load(slot)
        core.state[slot] = SLOT_WAITING
        core.insort_waiting(slot, left=True)
        self._observe_event(
            "preempt", "preemptions",
            request_id=request.request_id, from_checkpoint=from_checkpoint,
        )

    def _shed(self, slot: int, reason: str) -> None:
        """Drop a live, unfinished slot with a rejection reason."""
        core = self._core
        if core.state[slot] == SLOT_WAITING:
            core.remove_waiting(slot)
        else:
            core.run_slots.remove(slot)
            self._release_blocks(slot)
        request = core.sync_object(slot)
        request.shed(reason)
        self._fold_terminal(request)
        core.release(slot)
        self._observe_event("shed", "sheds", request_id=request.request_id, reason=reason)

    def _release_all_blocks(self) -> None:
        """Free every held block (the watchdog's partial-result path)."""
        for slot in self._core.run_slots:
            self._release_blocks(slot)

    def finish(self, watchdog_reason: str = "") -> ServingReport:
        """Close the run: end the root span, unbind the audit handle,
        and return the aggregate report over every fed request."""
        if self._tracer is not None:
            self._tracer.finish(self._now)
        core = self._core
        self._sync_objects()
        bump_counter("vectorized_steps", self._steps)
        audit = self._audit
        self._audit = None
        requests = self._all_requests
        report = self._build_report(
            requests, self._now, self._steps, self._preemptions,
            self._activity, watchdog_reason,
        )
        if audit is not None:
            audit.observe_clock(self._now)
            audit.check_kv_drained(core)
            audit.check_token_conservation(self._total_generated())
            ttfts = None
            if self.retain_requests:
                ttfts = [r.ttft for r in requests if r.state is RequestState.FINISHED]
            audit.check_report(report, ttfts)
        return report

    @property
    def last_fed_arrival(self) -> float:
        """Latest ``arrival_time`` among fed requests -- the load
        generator's saturation denominator for streaming runs, where no
        materialized request list exists to take a ``max`` over."""
        return self._max_fed_arrival

    @property
    def retained_requests(self) -> List[Request]:
        """Every request fed to the current run (empty in
        ``retain_requests=False`` release mode, where terminal requests
        fold into constant-size aggregates instead)."""
        return list(self._all_requests)

    def ttft_p99(self) -> float:
        """P99 TTFT over finished requests: the exact nearest-rank
        percentile when requests are retained, else the release-mode
        histogram upper bound from :class:`ReportAggregates`."""
        if self._aggregates is not None:
            return self._aggregates.p99_ttft()
        ttfts = [
            r.ttft for r in self._all_requests
            if r.state is RequestState.FINISHED
        ]
        if not ttfts:
            return 0.0
        from repro.core.metrics import percentile

        return percentile(ttfts, 99)

    def _total_generated(self) -> int:
        """Generated-token total for the conservation check, covering
        both retained and folded (``retain_requests=False``) runs."""
        if self._aggregates is None:
            return sum(r.generated for r in self._all_requests)
        return self._aggregates.terminal_tokens + self._core.live_generated_total()

    def run(self, requests: Iterable[Request]) -> ServingReport:
        """Serve ``requests``; returns aggregate metrics.

        A :class:`Sequence` is fed up front (the canonical golden
        path); any other iterable -- a generator of arrivals -- is
        served through :meth:`run_streaming` without ever being
        materialized, which is how million-request traces run in
        bounded memory.

        Without a policy, an unservable request raises
        :class:`KvCacheError` (fail fast); with one, it is shed with a
        reason and the run continues.  An empty request list yields an
        empty report (rendered as "no finished requests") rather than
        raising.  With a watchdog armed, exceeding its step/wall budget
        stops the run and returns a partial report carrying the typed
        ``watchdog_reason``.
        """
        if not isinstance(requests, Sequence):
            return self.run_streaming(requests)
        self.begin(requests)
        return self._guarded(self.advance)

    def run_streaming(self, arrivals: Iterable[Request]) -> ServingReport:
        """Serve a lazily generated arrival stream in bounded memory.

        ``arrivals`` must yield requests in nondecreasing
        ``arrival_time`` order (:class:`~repro.audit.ConfigError`
        otherwise -- the single-pass clock cannot travel back to an
        earlier arrival).  At most one generated-but-unfed request is
        buffered: the engine advances to just before the next arrival,
        feeds it, and repeats, so the in-memory working set tracks the
        concurrent batch, not the trace length.  Combined with
        ``retain_requests=False`` the whole run is constant-memory.
        The report is byte-identical to feeding the same requests as a
        list up front (under the same ``retain_requests`` setting).
        """
        self.begin(())
        return self._guarded(lambda: self._stream(iter(arrivals)))

    def _stream(self, iterator) -> None:
        last_arrival = -math.inf
        pending = next(iterator, None)
        while pending is not None:
            if pending.arrival_time < last_arrival:
                raise ConfigError(
                    "streaming arrivals must be sorted by nondecreasing "
                    f"arrival_time (got {pending.arrival_time!r} after "
                    f"{last_arrival!r})"
                )
            if pending.arrival_time <= self._now or not self.has_unfinished:
                last_arrival = pending.arrival_time
                self.feed(pending)
                bump_counter("arrival_buffer_peak", self._core.waiting_count)
                pending = next(iterator, None)
                continue
            before = self._now
            # Advance to just before the next arrival: a step that
            # starts earlier may overrun it, exactly as in the
            # all-at-once run, so the report bytes match.  Inside this
            # engine-owned loop nothing reads live request objects
            # between advances, so the object sync is deferred to
            # lifecycle events and finish().  Even the event-driven
            # sync is not free here: with one advance per arrival it
            # costs about 4% of perfbench serve_stream's wall time
            # (1.99 -> 2.07 s median, 2-vCPU x86_64 host).
            self._advance(
                math.nextafter(pending.arrival_time, -math.inf), sync_exit=False
            )
            if self._now == before and pending.arrival_time > self._now:
                # Idle until an internal requeue at or past the next
                # external arrival: feed it so the clock can jump.
                last_arrival = pending.arrival_time
                self.feed(pending)
                bump_counter("arrival_buffer_peak", self._core.waiting_count)
                pending = next(iterator, None)
        self.advance()

    def _guarded(self, body) -> ServingReport:
        """Run ``body`` on an open run and close it: a watchdog trip
        becomes a typed partial report (every held block released);
        any other failure still closes the root span and unbinds the
        audit handle before propagating."""
        watchdog_reason = ""
        try:
            body()
        except WatchdogExceeded as error:
            watchdog_reason = str(error)
            self._release_all_blocks()
            if self._tracer is not None:
                self._tracer.instant("watchdog_exceeded", "engine", self._now)
            if self._metrics is not None:
                self._metrics.counter("engine.watchdog_trips").inc()
        except BaseException:
            if self._tracer is not None:
                self._tracer.finish(self._now)
            self._audit = None
            raise
        return self.finish(watchdog_reason)

    # -- cluster-facing lifecycle wrappers ------------------------------
    def fail_all(self, reason: str) -> List[Request]:
        """Terminally fail every in-flight request (a total outage, or
        the cluster node crash path).  Requests that FINISHED awaiting
        retirement are retired, not failed."""
        core = self._core
        run = list(core.run_slots)
        for slot in run:
            self._release_blocks(slot)
        finished = [s for s in run if core.state[s] == SLOT_FINISHED]
        victim_slots = core.waiting_slots() + [
            s for s in run if core.state[s] != SLOT_FINISHED
        ]
        core.run_slots.clear()
        core.finished_pending.clear()
        core.wait_q.clear()
        core.wait_head = 0
        victims: List[Request] = []
        for slot in victim_slots:
            request = core.sync_object(slot)
            request.fail(reason)
            victims.append(request)
        for slot in finished:
            self._fold_terminal(core.materialize_finished(slot))
            core.release(slot)
        for slot, request in zip(victim_slots, victims):
            self._fold_terminal(request)
            core.release(slot)
        if victims:
            self._observe_event(
                "fail_all", "failed", len(victims), victims=len(victims), reason=reason
            )
        return victims

    def cancel(self, request: Request, reason: str) -> None:
        """Shed one scheduled request (the gateway cancellation path);
        a FINISHED request awaiting retirement is retired instead."""
        core = self._core
        for slot in core.live_slots():
            if core.objs[slot] is not request:
                continue
            if core.state[slot] != SLOT_FINISHED:
                self._shed(slot, reason)
                return
            core.run_slots.remove(slot)
            core.finished_pending.remove(slot)
            self._release_blocks(slot)
            self._fold_terminal(core.materialize_finished(slot))
            core.release(slot)
            return
        raise ValueError(f"request {request.request_id} is not scheduled")

    # ------------------------------------------------------------------
    def _advance_faults(self, now: float) -> float:
        """Apply fault events due at ``now``; returns the clock, advanced
        past any total-outage window the run had to wait out."""
        self._apply_fault_summary(self.injector.advance(now), now)
        # Total outage: with every device down nothing can execute.  The
        # clock can only move to the next scheduled event (a recovery, if
        # one is coming); a permanent outage fails everything in flight.
        while self.injector.alive_devices() == 0:
            next_time = self.injector.next_event_time
            if next_time is None:
                self.fail_all("outage: all devices down")
                break
            now = max(now, next_time)
            self._apply_fault_summary(self.injector.advance(now), now)
        return now

    def _apply_fault_summary(self, summary: object, now: float) -> None:
        self.fault_stats.device_failures += summary.device_failures
        self.fault_stats.device_recoveries += summary.device_recoveries
        for count, name, metric in (
            (summary.device_failures, "device_failure", "device_failures"),
            (summary.device_recoveries, "device_recovery", "device_recoveries"),
        ):
            if not count:
                continue
            if self._tracer is not None:
                self._tracer.instant(name, "engine", now, count=count)
            if self._metrics is not None:
                self._metrics.counter(f"engine.{metric}").inc(count)
        if summary.device_failures:
            # A device fault kills the in-flight batch: preempt every
            # runner into checkpointed recompute.  A request that
            # FINISHED in the last step was already served; leave it for
            # retirement instead of restarting (double-serving) it.
            core = self._core
            for slot in list(core.run_slots):
                if core.state[slot] == SLOT_FINISHED:
                    continue
                self._fault_restarted_ids.add(core.objs[slot].request_id)
                self._preempt(slot, from_checkpoint=True)
                self.fault_stats.fault_preemptions += 1

    def _build_report(
        self,
        requests: Sequence[Request],
        now: float,
        steps: int,
        preemptions: int,
        activity: ActivityAccumulator,
        watchdog_reason: str = "",
    ) -> ServingReport:
        if self._aggregates is not None:
            return self._build_report_from_aggregates(
                now, steps, preemptions, activity, watchdog_reason
            )
        finished = [r for r in requests if r.state is RequestState.FINISHED]
        self.fault_stats.recovered_requests = sum(
            1 for r in finished if r.request_id in self._fault_restarted_ids
        )
        shed = [r for r in requests if r.state is RequestState.SHED]
        failed = [r for r in requests if r.state is RequestState.FAILED]
        unfinished = len(requests) - len(finished) - len(shed) - len(failed)
        mean_ttft = sum(r.ttft for r in finished) / len(finished) if finished else 0.0
        mean_tpot = sum(r.tpot for r in finished) / len(finished) if finished else 0.0
        total_tokens = sum(r.generated for r in requests)
        if self._tracer is not None:
            for request in requests:
                if request.request_id not in self._traced_request_ids:
                    continue
                self._tracer.async_end(
                    f"request-{request.request_id}",
                    "request",
                    now,
                    request.request_id,
                    state=request.state.value,
                    generated=request.generated,
                )
            self._traced_request_ids.clear()
        if self._metrics is not None:
            for request in finished:
                self._metrics.histogram("request.ttft").observe(request.ttft)
                self._metrics.histogram("request.tpot").observe(request.tpot)
        power = 0.0
        if now > 0:
            power = PowerModel(self.model.device.spec.power).power(activity.profile(now))
        return ServingReport(
            device=self.model.device.name,
            attention=self.attention.value,
            num_requests=len(requests),
            max_decode_batch=self.max_decode_batch,
            total_time=now,
            total_output_tokens=total_tokens,
            mean_ttft=mean_ttft,
            mean_tpot=mean_tpot,
            average_power=power,
            engine_steps=steps,
            preemptions=preemptions,
            finished_requests=len(finished),
            shed_requests=len(shed),
            failed_requests=len(failed),
            unfinished_requests=unfinished,
            retried_requests=sum(1 for r in requests if r.retries > 0),
            kernel_retries=self.fault_stats.kernel_retries,
            device_failures=self.fault_stats.device_failures,
            watchdog_reason=watchdog_reason,
        )

    def _build_report_from_aggregates(
        self,
        now: float,
        steps: int,
        preemptions: int,
        activity: ActivityAccumulator,
        watchdog_reason: str = "",
    ) -> ServingReport:
        """Constant-memory report for ``retain_requests=False`` runs:
        terminal requests were folded at retirement, so only the live
        (still-scheduled) remainder is walked here."""
        agg = self._aggregates
        core = self._core
        live = core.live_slots()
        if self._tracer is not None:
            # Close every traced request's span at the final clock, as
            # the retained path does: folded ones first, in retirement
            # order, then the still-scheduled ones.
            ends = self._folded_traces + [
                (request.request_id, request.state.value, request.generated)
                for request in (core.objs[slot] for slot in live)
                if request.request_id in self._traced_request_ids
            ]
            for request_id, state, generated in ends:
                self._tracer.async_end(
                    f"request-{request_id}", "request", now, request_id,
                    state=state, generated=generated,
                )
            self._folded_traces = []
            self._traced_request_ids.clear()
        live_tokens = core.live_generated_total()
        live_retried = sum(1 for slot in live if core.retries[slot] > 0)
        finished = agg.finished
        power = 0.0
        if now > 0:
            power = PowerModel(self.model.device.spec.power).power(activity.profile(now))
        return ServingReport(
            device=self.model.device.name,
            attention=self.attention.value,
            num_requests=agg.fed,
            max_decode_batch=self.max_decode_batch,
            total_time=now,
            total_output_tokens=agg.terminal_tokens + live_tokens,
            mean_ttft=agg.sum_ttft / finished if finished else 0.0,
            mean_tpot=agg.sum_tpot / finished if finished else 0.0,
            average_power=power,
            engine_steps=steps,
            preemptions=preemptions,
            finished_requests=finished,
            shed_requests=agg.shed,
            failed_requests=agg.failed,
            unfinished_requests=agg.fed - finished - agg.shed - agg.failed,
            retried_requests=agg.retried + live_retried,
            kernel_retries=self.fault_stats.kernel_retries,
            device_failures=self.fault_stats.device_failures,
            watchdog_reason=watchdog_reason,
        )
