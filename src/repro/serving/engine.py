"""Step-driven LLM serving engine (the vLLM analog).

The engine advances a virtual clock: each iteration admits requests
through the continuous-batching scheduler, charges a prefill phase for
newly admitted prompts, then one decode step for the whole running
batch, using the bound :class:`~repro.models.llama.LlamaCostModel` and
the selected decode-attention implementation.  TTFT and TPOT fall out
of the per-request timestamps, which is how Figure 17(d, e) is
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
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.audit import (
    ConfigError,
    KvConservationError,
    Watchdog,
    WatchdogExceeded,
    get_auditor,
)
from repro.hw.power import ActivityAccumulator, PowerModel
from repro.models.llama import DecodeAttention, DecodeBatchStats, LlamaCostModel
from repro.models.tensor_parallel import CommEvent
from repro.serving.engine_core import (
    SLOT_FAILED,
    SLOT_FINISHED,
    SLOT_RUNNING,
    SLOT_SHED,
    SLOT_WAITING,
    EngineCore,
    ReportAggregates,
    bump_counter,
)
from repro.serving.kv_cache import BlockManager, KvCacheError
from repro.serving.request import DEFAULT_TIER, Request, RequestState, RetryPolicy
from repro.serving.scheduler import ContinuousBatchingScheduler

#: Default KV block size in tokens (matches the paged-attention kernel).
DEFAULT_BLOCK_SIZE = 128

#: Accepted ``engine_mode`` / ``REPRO_ENGINE`` values.
_ENGINE_MODES = ("auto", "vectorized", "scalar")


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
            raise ValueError("checkpoint_interval must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")


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
        engine_mode: str = "auto",
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

        ``engine_mode`` selects the stepping core: ``"scalar"`` walks
        per-request objects (the reference semantics), ``"vectorized"``
        runs the struct-of-arrays fast path (and raises
        :class:`~repro.audit.ConfigError` when a bound policy / injector
        / watchdog / tracer makes it ineligible), and ``"auto"`` --
        overridable via ``REPRO_ENGINE`` -- picks the fast path whenever
        it is eligible.  Both cores produce byte-identical reports.
        ``retain_requests=False`` folds terminal requests into constant-
        memory aggregates instead of keeping every object alive, which
        is what makes million-request streaming runs possible; latency
        means are then accumulated in retirement order (ulp-level
        differences from the retained path) and the run is excluded from
        byte-golden comparisons."""
        self.model = model
        self.attention = attention
        if num_kv_blocks is None:
            capacity_tokens = model.max_kv_tokens()
            num_kv_blocks = max(1, capacity_tokens // block_size)
        self.block_manager = BlockManager(num_kv_blocks, block_size)
        self.policy = policy
        self.injector = injector
        self.auditor = auditor if auditor is not None else get_auditor()
        self.watchdog = watchdog if watchdog is not None else Watchdog.from_env()
        self.block_manager.bind_auditor(self.auditor)
        self.scheduler = ContinuousBatchingScheduler(
            self.block_manager,
            max_decode_batch,
            admission_watermark=policy.admission_watermark if policy else 1.0,
        )
        self.max_decode_batch = max_decode_batch
        self.fault_stats = FaultStats()
        self._fault_restarted_ids: set = set()
        self._power_model = PowerModel(self.model.device.spec.power)
        self.ctx = None
        self._tracer = None
        self._metrics = None
        self._traced_request_ids: set = set()
        # Streaming-run state (see begin/feed/advance/finish).
        self._audit = None
        self._now = 0.0
        self._steps = 0
        self._preemptions = 0
        self._activity: Optional[ActivityAccumulator] = None
        self._batch_stats: Optional[DecodeBatchStats] = None
        self._batch_version = -1
        self._all_requests: List[Request] = []
        if engine_mode not in _ENGINE_MODES:
            raise ConfigError(
                f"engine_mode must be one of {_ENGINE_MODES}, got {engine_mode!r}"
            )
        self.engine_mode = engine_mode
        self.retain_requests = retain_requests
        self._fast = False
        self._core: Optional[EngineCore] = None
        self._aggregates: Optional[ReportAggregates] = None
        self._max_fed_arrival = 0.0
        self._request_deadlines = False
        if ctx is not None:
            self.bind_context(ctx)

    def bind_context(self, ctx) -> None:
        """Bind a :class:`~repro.api.RunContext` (or None to unbind),
        propagating its tracer/metrics to the scheduler and KV block
        manager."""
        self.ctx = ctx
        self._tracer = ctx.tracer if ctx is not None else None
        self._metrics = ctx.metrics if ctx is not None else None
        self.scheduler.bind_observability(self._tracer, self._metrics)
        self.block_manager.bind_metrics(self._metrics)

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
        if tracer is None and metrics is None:
            return
        duration = now - step_start
        watts = 0.0
        if step_activity is not None and duration > 0:
            watts = self._power_model.power(step_activity.profile(duration))
        stats = self.block_manager.stats()
        if tracer is not None:
            tracer.record(
                "power.sample", "power", step_start, now, watts=round(watts, 3)
            )
            tracer.counter("power.watts", now, round(watts, 3))
            tracer.counter("kv.allocated_blocks", now, stats.allocated_blocks)
            tracer.counter("batch.running", now, batch_size)
            if step_span is not None:
                tracer.end(step_span, now, batch=batch_size)
        if metrics is not None:
            metrics.counter("engine.steps").inc()
            metrics.histogram("engine.batch_size").observe(batch_size)
            metrics.histogram("power.watts").observe(watts)
            metrics.gauge("kv.allocated_blocks").set(stats.allocated_blocks)
            if step_activity is not None:
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

    def _fast_block_reason(self) -> str:
        """Why the vectorized core cannot serve this configuration
        (empty string = eligible).  Fault paths, SLO policies, watchdogs
        and per-step observability all need the per-iteration object
        walk, so they pin the run to the scalar core."""
        if self.policy is not None:
            return "a ResiliencePolicy is bound"
        if self.injector is not None:
            return "a FaultInjector is bound"
        if self.watchdog is not None:
            return "a Watchdog is armed"
        if self._tracer is not None or self._metrics is not None:
            return "tracing/metrics observability is bound"
        return ""

    def _resolve_engine_mode(self) -> bool:
        """True when this run uses the vectorized core.

        An explicit constructor ``engine_mode`` wins; ``"auto"`` defers
        to ``REPRO_ENGINE`` and finally to eligibility.  Requesting
        ``"vectorized"`` via the constructor on an ineligible engine is
        a hard :class:`ConfigError`; via the environment it degrades to
        the scalar core (the env var is a fleet-wide soft preference).
        """
        mode = self.engine_mode
        if mode == "auto":
            env = os.environ.get("REPRO_ENGINE", "").strip().lower()
            if env and env not in _ENGINE_MODES:
                raise ConfigError(
                    f"REPRO_ENGINE must be one of {_ENGINE_MODES}, got {env!r}"
                )
            if env == "scalar":
                return False
            return not self._fast_block_reason()
        if mode == "scalar":
            return False
        reason = self._fast_block_reason()
        if reason:
            raise ConfigError(
                f"engine_mode='vectorized' is unavailable: {reason}; "
                "use 'auto' or 'scalar'"
            )
        return True

    def begin(self, requests: Sequence[Request] = ()) -> None:
        """Open a run: arm the audit ledger and watchdog, start the
        root span, and submit any up-front ``requests``."""
        self._fast = self._resolve_engine_mode()
        self._core = (
            EngineCore(self.block_manager.num_blocks, self.block_manager.block_size)
            if self._fast
            else None
        )
        self._aggregates = None if self.retain_requests else ReportAggregates()
        self.scheduler.on_retire = (
            self._fold_terminal
            if (self._aggregates is not None and not self._fast)
            else None
        )
        self._max_fed_arrival = 0.0
        self._request_deadlines = any(r.deadline is not None for r in requests)
        bump_counter("vectorized_runs" if self._fast else "scalar_runs")
        self._audit = self.auditor.begin_run("serving.run") if self.auditor else None
        self.scheduler.bind_audit(self._audit)
        if self._audit is not None:
            self._audit.set_token_baseline(sum(r.generated for r in requests))
        if self.watchdog is not None:
            self.watchdog.start()
        self._now = 0.0
        self._steps = 0
        self._preemptions = 0
        self._activity = ActivityAccumulator()
        # Incremental decode-batch statistics: valid while the running
        # batch's membership is unchanged (scheduler.mutation_count) and
        # every runner grew by exactly one token since they were built.
        self._batch_stats: Optional[DecodeBatchStats] = None
        self._batch_version = -1
        self._all_requests: List[Request] = []
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
        """Submit one request to an open run (streaming admission)."""
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
        if self._fast:
            self._feed_fast(request)
        else:
            self._submit(request)

    def _feed_fast(self, request: Request) -> None:
        """Fast-path submission: the scheduler's legality checks against
        the slot arrays, then slot acquisition (no policy in fast mode,
        so an oversized prompt fails hard exactly like the scalar
        no-policy path)."""
        if request.state is not RequestState.WAITING:
            raise ValueError(f"request {request.request_id} is not schedulable")
        if request.tier != DEFAULT_TIER:
            raise ConfigError(
                f"request {request.request_id} has tier {request.tier}, but "
                "the vectorized core admits in pure arrival order; run "
                "tiered traffic on the scalar core (engine_mode='scalar' "
                "or bind a ResiliencePolicy)"
            )
        needed = self.block_manager.blocks_needed(request.input_tokens)
        if needed > self.block_manager.num_blocks:
            raise KvCacheError(
                f"request {request.request_id}'s prompt needs {needed} KV "
                f"blocks but the pool only has {self.block_manager.num_blocks}; "
                "it can never be scheduled"
            )
        self._core.acquire(request)

    def _fold_terminal(self, request: Request) -> None:
        """Retirement hook for ``retain_requests=False`` runs."""
        if self._aggregates is not None:
            self._aggregates.fold_terminal(request)

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
        if self._fast and self._core is not None:
            return self._core.has_unfinished
        return self.scheduler.has_unfinished

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
        if self._fast:
            return self._advance_fast(horizon)
        audit = self._audit
        watchdog = self.watchdog
        tracer = self._tracer
        observing = tracer is not None or self._metrics is not None
        while self.scheduler.has_unfinished:
            if self._now > horizon:
                break
            if watchdog is not None:
                watchdog.check(self._steps)
            now = self._advance_faults(self._now)
            if audit is not None:
                audit.observe_clock(now)
            self._enforce_deadlines(now)
            schedule = self.scheduler.step(now)
            if not schedule.has_work:
                self._now = now
                if not self.scheduler.waiting:
                    break  # everything retired in this step
                head = self.scheduler.next_blocked(now)
                if head is not None:
                    # Nothing runs, nothing admits, and the highest-
                    # priority arrived request is blocked: the pool can
                    # never serve it.
                    reason = (
                        f"kv-exhausted: {head.context_len} prompt tokens exceed "
                        "the free KV pool with no running request to retire"
                    )
                    if self._graceful:
                        self.scheduler.shed(head, reason)
                        continue
                    raise KvCacheError(
                        f"request {head.request_id} cannot be admitted: {reason}"
                    )
                next_arrival = self.scheduler.next_arrival()
                if next_arrival > horizon:
                    break  # idle until past the horizon; do not jump it
                # All remaining requests arrive later; jump the clock.
                self._now = max(now, next_arrival)
                continue
            slowdown = self._slowdown()
            step_start = now
            step_span = None
            step_activity = None
            if observing:
                step_activity = ActivityAccumulator()
            if tracer is not None:
                step_span = tracer.begin(
                    "engine.step", "engine", now,
                    step=self._steps, admitted=len(schedule.new_requests),
                )
            for request in schedule.new_requests:
                # vLLM prefills prompts individually (no padding waste).
                # A fault-restarted request recomputes its checkpointed
                # tokens too, hence context_len rather than input_tokens.
                prefill_span = None
                if tracer is not None:
                    self._trace_request_begin(request, now)
                    prefill_span = tracer.begin(
                        "prefill", "engine", now,
                        request_id=request.request_id,
                        prompt_tokens=request.context_len,
                    )
                phase = self.model.prefill(1, request.context_len)
                now += phase.time * slowdown
                self._activity.merge(phase.activity)
                if step_activity is not None:
                    step_activity.merge(phase.activity)
                    self._observe_collectives(phase.collectives, now)
                if prefill_span is not None:
                    tracer.end(prefill_span, now)
                request.record_token(now)
                if audit is not None:
                    audit.on_tokens_emitted()
                self._maybe_checkpoint(request)
            running = [r for r in schedule.running if r.state is RequestState.RUNNING]
            if not running:
                self._steps += 1
                self._now = now
                if observing:
                    self._finish_step(step_span, step_start, now, step_activity, 0)
                continue
            self._preemptions += self._ensure_headroom(running)
            running = [r for r in running if r.state is RequestState.RUNNING]
            if not running:
                self._steps += 1
                self._now = now
                if observing:
                    self._finish_step(step_span, step_start, now, step_activity, 0)
                continue
            decode_span = None
            if tracer is not None:
                decode_span = tracer.begin(
                    "decode.step", "engine", now, batch=len(running)
                )
            version = self.scheduler.mutation_count
            if (
                self._batch_stats is None
                or self._batch_version != version
                or self._batch_stats.batch != len(running)
            ):
                self._batch_stats = DecodeBatchStats.from_context_lens(
                    [r.context_len for r in running]
                )
                self._batch_version = version
            phase = self.model.decode_step_stats(self._batch_stats, self.attention)
            now += phase.time * slowdown
            self._activity.merge(phase.activity)
            if step_activity is not None:
                step_activity.merge(phase.activity)
                self._observe_collectives(phase.collectives, now)
            if decode_span is not None:
                tracer.end(decode_span, now)
            self._steps += 1
            self._now = now
            if self.injector is not None and self.injector.kernel_fault():
                # Transient kernel failure: the step's output is lost
                # and recomputed next iteration; the time still passed.
                # No runner grew, so batch_stats stays valid as-is.
                self.fault_stats.kernel_retries += 1
                if tracer is not None:
                    tracer.instant("kernel_fault", "engine", now)
                if self._metrics is not None:
                    self._metrics.counter("engine.kernel_retries").inc()
                if observing:
                    self._finish_step(step_span, step_start, now, step_activity, len(running))
                continue
            grew_all = True
            for request in running:
                if not self._grow_kv(request):
                    grew_all = False
                    continue
                request.record_token(now)
                if audit is not None:
                    audit.on_tokens_emitted()
                self._maybe_checkpoint(request)
            if grew_all and self.scheduler.mutation_count == self._batch_version:
                # Every runner gained exactly one token: advance the
                # batch statistics in O(1) instead of rebuilding.
                self._batch_stats = self._batch_stats.advanced()
            else:
                self._batch_stats = None
            if observing:
                self._finish_step(step_span, step_start, now, step_activity, len(running))
        return self._now

    # -- vectorized fast path ------------------------------------------
    def _advance_fast(self, horizon: float, sync_exit: bool = True) -> float:
        """The struct-of-arrays twin of :meth:`advance`.

        One outer iteration mirrors one (or many) scalar iterations: a
        virtual scheduler step (retire, then admit) against the slot
        arrays, sequential prefills for admissions, capacity preemption,
        then a *decode burst* -- consecutive decode steps priced against
        integer context aggregates until the next membership-changing
        event.  Request objects are only touched at lifecycle events and
        re-synchronized on exit, so callers observe the exact scalar
        semantics.  ``sync_exit=False`` skips that exit sync -- only for
        engine-internal loops (:meth:`run_streaming`) where nothing can
        observe live request objects before the next advance or
        :meth:`finish` syncs them.
        """
        core = self._core
        audit = self._audit
        model = self.model
        max_batch = self.max_decode_batch
        inp = core.input_tokens
        out = core.output_tokens
        gen = core.generated
        first = core.first_token
        finish = core.finish
        arrival = core.arrival
        state = core.state
        run_slots = core.run_slots
        activity = self._activity
        while core.has_unfinished:
            now = self._now
            if now > horizon:
                break
            if audit is not None:
                audit.observe_clock(now)
                if self.auditor is not None:
                    self.auditor.check_core_invariants(core)
            # Virtual scheduler step: retire, then admit (the exact
            # order of ContinuousBatchingScheduler.step).
            if core.finished_pending:
                retired = set()
                for slot in core.finished_pending:
                    core.free_blocks += core.blocks_held(slot)
                    self._fold_terminal(core.materialize_terminal(slot))
                    core.release(slot)
                    retired.add(slot)
                core.finished_pending.clear()
                run_slots[:] = [s for s in run_slots if s not in retired]
            admitted: List[int] = []
            head = core.waiting_head()
            while (
                head is not None
                and len(run_slots) + len(admitted) < max_batch
                and arrival[head] <= now
                and core.blocks_needed(int(inp[head]) + int(gen[head]))
                <= core.free_blocks
            ):
                core.pop_waiting_head()
                core.allocate_shadow(head)
                core.objs[head].start_running()
                state[head] = SLOT_RUNNING
                admitted.append(head)
                head = core.waiting_head()
            run_slots.extend(admitted)
            if not run_slots:
                self._now = now
                head = core.waiting_head()
                if head is None:
                    break  # everything retired in this step
                if arrival[head] <= now:
                    # Nothing runs, nothing admits, and the head request
                    # has already arrived: the pool can never serve it.
                    core.sync_live_objects()
                    obj = core.objs[head]
                    reason = (
                        f"kv-exhausted: {obj.context_len} prompt tokens exceed "
                        "the free KV pool with no running request to retire"
                    )
                    raise KvCacheError(
                        f"request {obj.request_id} cannot be admitted: {reason}"
                    )
                if arrival[head] > horizon:
                    break  # idle until past the horizon; do not jump it
                # All remaining requests arrive later; jump the clock.
                self._now = max(now, float(arrival[head]))
                continue
            # Prefills run sequentially, one prompt at a time (vLLM
            # style, matching the scalar loop's clock arithmetic).
            for slot in admitted:
                phase = model.prefill(1, int(inp[slot]) + int(gen[slot]))
                now += phase.time
                activity.merge(phase.activity)
                gen[slot] += 1
                if np.isnan(first[slot]):
                    first[slot] = now
                if gen[slot] >= out[slot]:
                    state[slot] = SLOT_FINISHED
                    finish[slot] = now
                    core.finished_pending.append(slot)
            if admitted and audit is not None:
                audit.on_tokens_emitted(len(admitted))
            if core.finished_pending:
                runners = [s for s in run_slots if state[s] == SLOT_RUNNING]
            else:
                runners = list(run_slots)
            if not runners:
                self._steps += 1
                self._now = now
                continue
            # Capacity preemption: evict the newest runners until every
            # remaining one can grow a block (the scalar rule).
            while core.free_blocks < len(runners) and len(runners) > 1:
                victim = runners.pop()
                run_slots.remove(victim)
                core.free_blocks += core.blocks_held(victim)
                if audit is not None:
                    audit.on_tokens_rolled_back(int(gen[victim]))
                obj = core.objs[victim]
                obj.restart()
                gen[victim] = 0
                first[victim] = np.nan
                finish[victim] = np.nan
                core.restarts[victim] = obj.restarts
                state[victim] = SLOT_WAITING
                core.insort_waiting(victim, left=True)
                self._preemptions += 1
            now = self._decode_burst(runners, now, horizon)
        if sync_exit:
            core.sync_live_objects()
        return self._now

    def _decode_burst(self, runners: List[int], now: float, horizon: float) -> float:
        """Price consecutive decode steps for a fixed batch without any
        per-request object traffic; returns the clock after the burst.

        The burst ends just before the first virtual iteration whose
        scheduler step would diverge from a pure decode continuation: a
        runner finishing, a pending retirement, the waiting head
        becoming admissible, capacity preemption, or the horizon.  Step
        costs come from ``LlamaCostModel.decode_stepper``, whose integer
        recurrences are bit-identical to rebuilding
        ``DecodeBatchStats`` per step.
        """
        core = self._core
        bs = core.block_size
        n = len(runners)
        slots = np.asarray(runners, dtype=np.intp)
        ctx0 = core.input_tokens[slots] + core.generated[slots]
        rem = core.output_tokens[slots] - core.generated[slots]
        min_rem = int(rem.min())
        total_context = int(ctx0.sum())
        total_blocks = int(np.sum(-(-ctx0 // 128)))
        max_context = int(ctx0.max())
        # Pricing always buckets KV at the kernel's 128-token blocks;
        # the engine's pool may use a different block size, so shadow
        # growth gets its own residue histogram.  A burst that provably
        # stops after one step (a pending retirement, or a runner with
        # one token left) only ever reads the first-step KV growth, so
        # it skips the histograms -- at steady state most bursts end at
        # a retirement, making this the common case.
        single_step = bool(core.finished_pending) or min_rem <= 1
        if single_step:
            growth0 = int(np.count_nonzero(ctx0 % bs == 1))
            hist128 = hist_bs = None
        else:
            hist128 = np.bincount((ctx0 % 128).astype(np.int64), minlength=128)
            hist_bs = (
                hist128
                if bs == 128
                else np.bincount((ctx0 % bs).astype(np.int64), minlength=bs)
            )
        stepper = self.model.decode_stepper(n, self.attention)
        head = core.waiting_head()
        head_arrival = float(core.arrival[head]) if head is not None else math.inf
        head_needed = (
            core.blocks_needed(
                int(core.input_tokens[head]) + int(core.generated[head])
            )
            if head is not None
            else 0
        )
        room = n < self.max_decode_batch
        retire_pending = bool(core.finished_pending)
        activity = self._activity
        j = 0  # completed steps this burst
        recorded = 0  # steps whose tokens were recorded
        exhausted = False
        while True:
            # KV growth of the upcoming step (step j+1, 1-based): a
            # runner with start context c grows at steps where
            # c + step - 2 is a block-size multiple.
            growth = growth0 if single_step else int(hist_bs[(1 - j) % bs])
            now += stepper(total_context, total_blocks, max_context, activity)
            j += 1
            if growth > core.free_blocks:
                # Only reachable with a single runner (the headroom
                # guard below breaks first for n > 1): the step's time
                # is charged, then the append fails before any token is
                # recorded -- the scalar fail-fast path.
                exhausted = True
                break
            core.free_blocks -= growth
            recorded = j
            if single_step:
                break
            total_context += n
            max_context += 1
            total_blocks += int(hist128[(1 - j) % 128])
            if j >= min_rem:
                break  # at least one runner finished this step
            if retire_pending:
                break  # a prefill finisher awaits retirement next step
            if now > horizon:
                break
            if head_arrival <= now and room and head_needed <= core.free_blocks:
                break  # the waiting head becomes admissible next step
            if core.free_blocks < n and n > 1:
                break  # capacity preemption due next step
        core.generated[slots] += recorded
        self._steps += j
        core.vectorized_steps += j
        self._now = now
        if self._audit is not None and recorded:
            self._audit.on_tokens_emitted(n * recorded)
        if exhausted:
            core.sync_live_objects()
            raise KvCacheError("out of KV blocks during decode")
        if recorded == min_rem:
            done = slots[np.asarray(rem == min_rem)]
            core.state[done] = SLOT_FINISHED
            core.finish[done] = now
            core.finished_pending.extend(int(s) for s in done)
        return now

    def finish(self, watchdog_reason: str = "") -> ServingReport:
        """Close the run: end the root span, unbind the audit handle,
        and return the aggregate report over every fed request."""
        if self._tracer is not None:
            self._tracer.finish(self._now)
        if self._fast and self._core is not None:
            self._core.sync_live_objects()
        bump_counter(
            "vectorized_steps" if self._fast else "scalar_steps", self._steps
        )
        audit = self._audit
        self._audit = None
        self.scheduler.bind_audit(None)
        self.scheduler.on_retire = None
        requests = self._all_requests
        report = self._build_report(
            requests, self._now, self._steps, self._preemptions,
            self._activity, watchdog_reason,
        )
        if audit is not None:
            audit.observe_clock(self._now)
            audit.check_kv_drained(self.block_manager)
            if self._fast and self._core is not None and self.auditor is not None:
                core = self._core
                self.auditor.check(
                    core.free_blocks == core.num_blocks,
                    KvConservationError,
                    f"fast-path shadow pool not drained at end of run: "
                    f"{core.free_blocks}/{core.num_blocks} blocks free",
                )
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
        if self._fast and self._core is not None:
            live = self._core.live_generated_total()
        else:
            live = sum(
                r.generated
                for r in self.scheduler.waiting + self.scheduler.running
            )
        return self._aggregates.terminal_tokens + live

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
        watchdog_reason = ""
        try:
            self.advance()
        except WatchdogExceeded as error:
            # A wedged simulation becomes a typed partial result: release
            # every held block and report what completed so far.
            watchdog_reason = str(error)
            self.block_manager.free_all()
            if self._tracer is not None:
                self._tracer.instant("watchdog_exceeded", "engine", self._now)
            if self._metrics is not None:
                self._metrics.counter("engine.watchdog_trips").inc()
        except BaseException:
            # Fail-fast paths (e.g. KvCacheError without a policy) must
            # still close the root span and unbind the audit handle.
            if self._tracer is not None:
                self._tracer.finish(self._now)
            self._audit = None
            self.scheduler.bind_audit(None)
            raise
        return self.finish(watchdog_reason)

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
        iterator = iter(arrivals)
        self.begin(())
        watchdog_reason = ""
        try:
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
                    bump_counter("arrival_buffer_peak", self._waiting_count())
                    pending = next(iterator, None)
                    continue
                before = self._now
                # Advance to just before the next arrival: a step that
                # starts earlier may overrun it, exactly as in the
                # all-at-once run, so the report bytes match.  Inside
                # this engine-owned loop nothing reads live request
                # objects between advances, so the fast path defers its
                # object sync to lifecycle events and finish().
                inner_horizon = math.nextafter(pending.arrival_time, -math.inf)
                if self._fast:
                    self._advance_fast(inner_horizon, sync_exit=False)
                else:
                    self.advance(inner_horizon)
                if self._now == before and pending.arrival_time > self._now:
                    # Idle until an internal requeue at or past the next
                    # external arrival: feed it so the clock can jump.
                    last_arrival = pending.arrival_time
                    self.feed(pending)
                    bump_counter("arrival_buffer_peak", self._waiting_count())
                    pending = next(iterator, None)
            self.advance()
        except WatchdogExceeded as error:
            watchdog_reason = str(error)
            self.block_manager.free_all()
            if self._tracer is not None:
                self._tracer.instant("watchdog_exceeded", "engine", self._now)
            if self._metrics is not None:
                self._metrics.counter("engine.watchdog_trips").inc()
        except BaseException:
            if self._tracer is not None:
                self._tracer.finish(self._now)
            self._audit = None
            self.scheduler.bind_audit(None)
            raise
        return self.finish(watchdog_reason)

    def _waiting_count(self) -> int:
        if self._fast and self._core is not None:
            return self._core.waiting_count
        return len(self.scheduler.waiting)

    # -- cluster-facing lifecycle wrappers ------------------------------
    def fail_all(self, reason: str) -> List[Request]:
        """Terminally fail every in-flight request (the cluster node
        crash path).  Requests that FINISHED awaiting retirement are
        retired, not failed.  Dispatches to whichever core owns the
        run's state, so callers never reach into the scheduler."""
        if not self._fast or self._core is None:
            return self.scheduler.fail_all(reason)
        core = self._core
        waiting = core.waiting_slots()
        run = list(core.run_slots)
        for slot in run:
            core.free_blocks += core.blocks_held(slot)
        finished_slots = [s for s in run if int(core.state[s]) == SLOT_FINISHED]
        victim_slots = waiting + [
            s for s in run if int(core.state[s]) != SLOT_FINISHED
        ]
        core.run_slots.clear()
        core.finished_pending.clear()
        core.wait_q.clear()
        core.wait_head = 0
        for slot in finished_slots:
            self._fold_terminal(core.materialize_terminal(slot))
            core.release(slot)
        victims: List[Request] = []
        for slot in victim_slots:
            request = core.sync_object(slot)
            request.fail(reason)
            core.state[slot] = SLOT_FAILED
            victims.append(request)
            self._fold_terminal(request)
            core.release(slot)
        return victims

    def cancel(self, request: Request, reason: str) -> None:
        """Shed one scheduled request (the gateway cancellation path);
        a FINISHED request awaiting retirement is retired instead."""
        if not self._fast or self._core is None:
            self.scheduler.shed(request, reason)
            return
        core = self._core
        q = core.wait_q
        for i in range(core.wait_head, len(q)):
            slot = q[i]
            if core.objs[slot] is request:
                del q[i]
                core.sync_object(slot)
                request.shed(reason)
                core.state[slot] = SLOT_SHED
                self._fold_terminal(request)
                core.release(slot)
                return
        for slot in list(core.run_slots):
            if core.objs[slot] is not request:
                continue
            core.free_blocks += core.blocks_held(slot)
            core.run_slots.remove(slot)
            if int(core.state[slot]) == SLOT_FINISHED:
                if slot in core.finished_pending:
                    core.finished_pending.remove(slot)
                self._fold_terminal(core.materialize_terminal(slot))
            else:
                core.sync_object(slot)
                request.shed(reason)
                core.state[slot] = SLOT_SHED
                self._fold_terminal(request)
            core.release(slot)
            return
        raise ValueError(f"request {request.request_id} is not scheduled")

    # ------------------------------------------------------------------
    def _submit(self, request: Request) -> None:
        try:
            self.scheduler.submit(request)
        except KvCacheError as error:
            if not self._graceful:
                raise
            request.shed(f"oversized: {error}")
            self._fold_terminal(request)

    def _advance_faults(self, now: float) -> float:
        """Apply fault events due at ``now``; returns the clock, advanced
        past any total-outage window the run had to wait out."""
        if self.injector is None:
            return now
        self._apply_fault_summary(self.injector.advance(now), now)
        # Total outage: with every device down nothing can execute.  The
        # clock can only move to the next scheduled event (a recovery, if
        # one is coming); a permanent outage fails everything in flight.
        while self.injector.alive_devices() == 0:
            next_time = self.injector.next_event_time
            if next_time is None:
                self.scheduler.fail_all("outage: all devices down")
                break
            now = max(now, next_time)
            self._apply_fault_summary(self.injector.advance(now), now)
        return now

    def _apply_fault_summary(self, summary: object, now: float) -> None:
        self.fault_stats.device_failures += summary.device_failures
        self.fault_stats.device_recoveries += summary.device_recoveries
        if self._tracer is not None:
            if summary.device_failures:
                self._tracer.instant(
                    "device_failure", "engine", now, count=summary.device_failures
                )
            if summary.device_recoveries:
                self._tracer.instant(
                    "device_recovery", "engine", now, count=summary.device_recoveries
                )
        if self._metrics is not None:
            if summary.device_failures:
                self._metrics.counter("engine.device_failures").inc(
                    summary.device_failures
                )
            if summary.device_recoveries:
                self._metrics.counter("engine.device_recoveries").inc(
                    summary.device_recoveries
                )
        if summary.device_failures:
            # A device fault kills the in-flight batch: preempt every
            # runner into checkpointed recompute.  A request that
            # FINISHED in the last step was already served; leave it for
            # retirement instead of restarting (double-serving) it.
            for victim in list(self.scheduler.running):
                if victim.state is RequestState.FINISHED:
                    continue
                self.scheduler.preempt(victim, from_checkpoint=True)
                self.fault_stats.fault_preemptions += 1
                self._fault_restarted_ids.add(victim.request_id)

    def _enforce_deadlines(self, now: float) -> None:
        # Scan when the policy sets a fleet-wide SLO *or* any fed
        # request carries its own (e.g. a tenant-tier TTFT deadline).
        if self.policy is None or (
            self.policy.deadline is None and not self._request_deadlines
        ):
            return
        for request in list(self.scheduler.waiting):
            if not request.deadline_missed(now):
                continue
            if request.retries < self.policy.retry.max_retries:
                delay = self.policy.retry.backoff(
                    request.retries, token=request.request_id
                )
                self.scheduler.requeue(request, now + delay)
                self.fault_stats.deadline_retries += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "deadline_retry", "engine", now,
                        request_id=request.request_id, retry=request.retries,
                    )
                if self._metrics is not None:
                    self._metrics.counter("engine.deadline_retries").inc()
            else:
                self.scheduler.shed(
                    request,
                    f"deadline: no first token within {request.deadline:g}s "
                    f"after {request.retries} retries",
                )

    def _slowdown(self) -> float:
        return self.injector.compute_slowdown() if self.injector is not None else 1.0

    def _maybe_checkpoint(self, request: Request) -> None:
        if self.policy is None:
            return
        if request.generated % self.policy.checkpoint_interval == 0:
            request.checkpoint = request.generated

    def _grow_kv(self, request: Request) -> bool:
        """Extend a runner's KV allocation by one token; shed on a full
        pool in graceful mode (only reachable with a single runner)."""
        try:
            self.block_manager.append_token(request.request_id)
            return True
        except KvCacheError:
            if not self._graceful:
                raise
            self.scheduler.shed(request, "kv-exhausted: pool full during decode")
            return False

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
        live_tokens = 0
        live_retried = 0
        if self._fast and self._core is not None:
            core = self._core
            for slot in core.run_slots:
                live_tokens += int(core.generated[slot])
                if core.retries[slot] > 0:
                    live_retried += 1
            for slot in core.waiting_slots():
                live_tokens += int(core.generated[slot])
                if core.retries[slot] > 0:
                    live_retried += 1
        else:
            for request in self.scheduler.waiting + self.scheduler.running:
                live_tokens += request.generated
                if request.retries > 0:
                    live_retried += 1
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

    # ------------------------------------------------------------------
    def _ensure_headroom(self, running: List[Request]) -> int:
        """Preempt newest requests until every runner can grow a block."""
        preempted = 0
        while self.block_manager.free_blocks < len(running) and len(running) > 1:
            victim = running.pop()
            self.scheduler.preempt(victim)
            preempted += 1
        return preempted
