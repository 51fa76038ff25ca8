"""Pluggable runtime invariant auditor.

The auditor cross-checks the simulator's internal accounting while it
runs -- the same class of conservation checks detailed-simulator
validation work uses to keep results trustworthy.  It is wired through
the serving engine, scheduler, KV block manager, collectives, and the
memo caches; every hook is a cheap ``is None`` test when auditing is
off, so unaudited runs pay nothing.

Modes (env ``REPRO_AUDIT``, CLI ``--audit``):

* ``off``    -- no auditor; hooks are no-ops (the default).
* ``sample`` -- invariants are checked (expensive ones on a seeded
  sample); violations are *counted* and surfaced, never raised.
* ``strict`` -- every violation raises its typed
  :class:`~repro.audit.errors.AuditError` subclass immediately.

Invariants covered:

* **KV block conservation** -- free + allocated block counts always
  equal the pool size, block ids are never double-owned, and a
  completed run leaves ``allocated_blocks == 0``.
* **Request lifecycle legality** -- only
  ``waiting -> running -> {preempted(waiting), finished, shed,
  failed}`` transitions are legal.
* **Virtual-clock monotonicity** -- within one run the clock never
  moves backwards.
* **Token conservation** -- tokens held by requests at the end equal
  tokens emitted by prefill/decode steps minus tokens rolled back by
  preemption/resubmission.
* **Report consistency** -- p50 <= p99, latency aggregates are
  non-negative, and finished + shed + failed + unfinished == submitted.
* **Sampled memo equivalence** -- a seeded fraction of cost-cache hits
  is recomputed and compared against the cached value.
* **Sampled surrogate equivalence** -- a seeded fraction of fitted
  fast-path (surrogate) predictions is recomputed through the exact
  cost model and held to the surrogate's certified error bound.
* **Collective sanity** -- collective costs are finite, non-negative,
  and never involve more participants than the TP degree.
"""

from __future__ import annotations

import enum
import math
import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.audit.errors import (
    AuditError,
    ClockError,
    CollectiveAuditError,
    ConfigError,
    KvConservationError,
    LifecycleError,
    MemoEquivalenceError,
    ReportConsistencyError,
    SurrogateEquivalenceError,
    TokenConservationError,
)

__all__ = [
    "AuditMode",
    "Auditor",
    "RunAudit",
    "audit_scope",
    "configure",
    "get_auditor",
    "resolve_mode",
]

#: Default fraction of cache hits re-verified in sample/strict modes.
DEFAULT_SAMPLE_FRACTION = 0.05

#: Cap on retained violation messages (counters are never capped).
MAX_RECORDED_VIOLATIONS = 64


class AuditMode(enum.Enum):
    OFF = "off"
    SAMPLE = "sample"
    STRICT = "strict"


def resolve_mode(value: Optional[str] = None) -> AuditMode:
    """Resolve an explicit mode string, else the ``REPRO_AUDIT`` env
    variable, else ``off``.  Unknown values raise :class:`ConfigError`."""
    raw = value if value is not None else os.environ.get("REPRO_AUDIT", "off")
    raw = (raw or "off").strip().lower()
    aliases = {"": "off", "0": "off", "false": "off", "1": "strict", "true": "strict"}
    raw = aliases.get(raw, raw)
    try:
        return AuditMode(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_AUDIT/--audit must be one of off|sample|strict, got {value!r}"
        ) from None


class _SampleGate:
    """Deterministic Bernoulli gate (xorshift, seeded) -- avoids
    perturbing any :mod:`random`/:mod:`numpy` stream the simulator uses."""

    __slots__ = ("_state", "_threshold")

    def __init__(self, seed: int, fraction: float) -> None:
        self._state = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF or 1
        self._threshold = int(fraction * 2**32)

    def fire(self) -> bool:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x < self._threshold


class Auditor:
    """Process-wide invariant auditor (see module docstring).

    One auditor serves any number of runs: per-run state (clock, token
    ledger) lives in the :class:`RunAudit` handles that
    :meth:`begin_run` hands out, while violation counters aggregate
    here across the whole process.
    """

    def __init__(
        self,
        mode: AuditMode = AuditMode.STRICT,
        sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_fraction <= 1.0:
            raise ConfigError(
                f"sample_fraction must be in [0, 1], got {sample_fraction!r}"
            )
        self.mode = mode
        self.sample_fraction = sample_fraction
        self.checks: Counter = Counter()
        self.violation_counts: Counter = Counter()
        self.violations: List[Tuple[str, str]] = []
        self.memo_verified = 0
        self.surrogate_verified = 0
        self.runs_audited = 0
        self._memo_gate = _SampleGate(seed, sample_fraction)
        self._deep_gate = _SampleGate(seed + 1, sample_fraction)
        self._surrogate_gate = _SampleGate(seed + 2, sample_fraction)

    # -- core ----------------------------------------------------------
    @property
    def strict(self) -> bool:
        return self.mode is AuditMode.STRICT

    def record_violation(self, error: AuditError) -> None:
        """Count a violation; raise it in strict mode."""
        self.violation_counts[error.check] += 1
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append((error.check, str(error)))
        if self.strict:
            raise error

    def check(self, condition: bool, error_cls, message: str) -> bool:
        """Count one check; on failure record (and in strict, raise) a
        typed violation.  Returns the condition for convenience."""
        self.checks[error_cls.check] += 1
        if not condition:
            self.record_violation(error_cls(message))
        return condition

    @property
    def total_violations(self) -> int:
        return sum(self.violation_counts.values())

    # -- per-run handles ----------------------------------------------
    def begin_run(self, label: str = "run") -> "RunAudit":
        self.runs_audited += 1
        return RunAudit(self, label)

    # -- lifecycle -----------------------------------------------------
    _LEGAL_TRANSITIONS = frozenset({
        ("waiting", "running"),
        ("waiting", "waiting"),      # requeue / client resubmission
        ("waiting", "shed"),
        ("waiting", "failed"),
        ("running", "finished"),
        ("running", "waiting"),      # preemption (capacity or fault)
        ("running", "shed"),
        ("running", "failed"),
    })

    def on_transition(self, request_id: int, old, new) -> None:
        """Validate one request-state transition (enum or str values)."""
        old_v = getattr(old, "value", old)
        new_v = getattr(new, "value", new)
        self.check(
            (old_v, new_v) in self._LEGAL_TRANSITIONS,
            LifecycleError,
            f"request {request_id}: illegal transition {old_v} -> {new_v}",
        )

    # -- KV conservation ----------------------------------------------
    def on_kv_op(self, manager) -> None:
        """Cheap O(1) conservation after every pool mutation, plus a
        sampled deep scan for double-owned or out-of-range block ids."""
        free = manager.free_blocks
        allocated = manager.allocated_blocks
        self.check(
            free + allocated == manager.num_blocks,
            KvConservationError,
            f"block conservation broken: {free} free + {allocated} allocated "
            f"!= {manager.num_blocks} total",
        )
        if self._deep_gate.fire():
            self.deep_check_kv(manager)

    def deep_check_kv(self, manager) -> None:
        """Full O(blocks) ownership scan of the pool."""
        self.checks[KvConservationError.check] += 1
        owned: Dict[int, int] = {}
        for request_id, blocks in manager.iter_tables():
            for block in blocks:
                if not 0 <= block < manager.num_blocks:
                    self.record_violation(KvConservationError(
                        f"request {request_id} owns out-of-range block {block}"
                    ))
                elif block in owned:
                    self.record_violation(KvConservationError(
                        f"block {block} owned by both request {owned[block]} "
                        f"and request {request_id}"
                    ))
                owned[block] = request_id
        doubled = set(manager.free_block_ids()) & set(owned)
        if doubled:
            self.record_violation(KvConservationError(
                f"blocks {sorted(doubled)[:8]} are simultaneously free and allocated"
            ))

    def check_kv_drained(self, manager, where: str = "end of run") -> None:
        """A finished run must leave the pool empty (no leaked blocks)."""
        self.check(
            manager.allocated_blocks == 0,
            KvConservationError,
            f"KV pool not drained at {where}: {manager.allocated_blocks} "
            f"blocks still allocated",
        )

    # -- vectorized engine core ---------------------------------------
    def check_core_invariants(self, core) -> None:
        """Vectorized invariant sweep over the serving engine's
        :class:`~repro.serving.engine_core.EngineCore`.

        The struct-of-arrays core has no per-token object traffic, so
        its invariants are asserted directly on the slot arrays: cheap
        KV block conservation every call, plus a sampled deep scan for
        slot aliasing and per-slot state legality.
        """
        import numpy as np

        held = 0
        if core.run_slots:
            slots = np.asarray(core.run_slots, dtype=np.intp)
            context = core.input_tokens[slots] + core.generated[slots] - 1
            held = int(
                np.sum(-(-context // core.block_size))
            )
        self.check(
            core.free_blocks + held == core.num_blocks,
            KvConservationError,
            f"block conservation broken: {core.free_blocks} free + "
            f"{held} held != {core.num_blocks} total",
        )
        if not self._deep_gate.fire():
            return
        self.checks[LifecycleError.check] += 1
        live = core.run_slots + core.waiting_slots()
        if len(set(live)) != len(live):
            self.record_violation(LifecycleError(
                "engine core: a slot id appears twice in the live set"
            ))
        free = set(core.free_slots)
        aliased = free.intersection(live)
        if aliased:
            self.record_violation(LifecycleError(
                f"engine core: slots {sorted(aliased)[:8]} are simultaneously "
                "free and live"
            ))
        if live:
            slots = np.asarray(live, dtype=np.intp)
            over = core.generated[slots] > core.output_tokens[slots]
            if bool(np.any(over)):
                bad = slots[over][:8].tolist()
                self.record_violation(TokenConservationError(
                    f"engine core: slots {bad} generated past their output "
                    "budget"
                ))
            started = ~np.isnan(core.first_token[slots])
            unstarted_with_tokens = (core.generated[slots] > 0) & ~started
            if bool(np.any(unstarted_with_tokens)):
                bad = slots[unstarted_with_tokens][:8].tolist()
                self.record_violation(LifecycleError(
                    f"engine core: slots {bad} hold tokens without a "
                    "first-token timestamp"
                ))
        waiting = np.asarray(core.waiting_slots(), dtype=np.intp)
        if len(waiting) > 1:
            tiers, arrivals = core.tier[waiting], core.arrival[waiting]
            if bool(np.any(
                (tiers[1:] < tiers[:-1])
                | ((tiers[1:] == tiers[:-1]) & (arrivals[1:] < arrivals[:-1]))
            )):
                self.record_violation(LifecycleError(
                    "engine core: waiting queue is not (tier, arrival)-sorted"
                ))

    # -- collectives ---------------------------------------------------
    def check_collective(
        self, seconds: float, size_bytes: float, participants: int, degree: int
    ) -> None:
        self.check(
            seconds >= 0.0 and math.isfinite(seconds),
            CollectiveAuditError,
            f"collective reported an impossible cost {seconds!r}s "
            f"({size_bytes:.0f} bytes)",
        )
        self.check(
            2 <= participants <= degree,
            CollectiveAuditError,
            f"collective ran with {participants} participants "
            f"outside [2, degree={degree}]",
        )

    # -- memo equivalence ---------------------------------------------
    def should_verify_memo(self) -> bool:
        """Seeded gate: recompute this cache hit and compare?"""
        return self._memo_gate.fire()

    def on_memo_result(self, name: str, key, cached, fresh) -> None:
        self.checks[MemoEquivalenceError.check] += 1
        self.memo_verified += 1
        try:
            equal = cached == fresh
        except Exception:
            equal = False
        if not equal:
            self.record_violation(MemoEquivalenceError(
                f"cache {name!r} hit for key {key!r} diverged from recompute: "
                f"cached={cached!r} fresh={fresh!r}"
            ))

    # -- surrogate equivalence ----------------------------------------
    def should_verify_surrogate(self) -> bool:
        """Seeded gate: recompute this surrogate prediction exactly?"""
        return self._surrogate_gate.fire()

    def on_surrogate_result(
        self,
        surface: str,
        key,
        predicted: float,
        exact: float,
        tolerance: float,
        slack: float = 2.0,
    ) -> bool:
        """Compare one spot-sampled surrogate prediction to its exact
        recompute.

        ``tolerance`` is the surrogate's certified held-out max
        relative error; runtime queries may sit slightly off the
        held-out distribution, so the spot check allows ``slack`` times
        that bound before flagging a violation.  Returns whether the
        prediction passed.
        """
        self.checks[SurrogateEquivalenceError.check] += 1
        self.surrogate_verified += 1
        denom = abs(exact) if exact else 1.0
        rel = abs(predicted - exact) / denom
        ok = math.isfinite(rel) and rel <= slack * tolerance
        if not ok:
            self.record_violation(SurrogateEquivalenceError(
                f"surrogate {surface!r} prediction for {key!r} strayed "
                f"{rel:.2%} from the exact model (certified bound "
                f"{tolerance:.2%}, slack {slack:g}x): "
                f"predicted={predicted!r} exact={exact!r}"
            ))
        return ok

    # -- reporting -----------------------------------------------------
    def render(self) -> str:
        """Fixed-format audit summary (the ``repro top`` section)."""
        lines = [
            f"  mode       : {self.mode.value} "
            f"(sample fraction {self.sample_fraction:g})",
            f"  checks     : {sum(self.checks.values())} performed over "
            f"{self.runs_audited} audited runs | {self.memo_verified} memo "
            f"hits re-verified | {self.surrogate_verified} surrogate "
            "predictions spot-checked",
        ]
        if self.total_violations == 0:
            lines.append("  violations : 0")
        else:
            lines.append(f"  violations : {self.total_violations}")
            for check, count in sorted(self.violation_counts.items()):
                lines.append(f"    {check:<20s} {count}")
            for check, message in self.violations[:8]:
                lines.append(f"    [{check}] {message}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        return {
            "mode": self.mode.value,
            "checks": int(sum(self.checks.values())),
            "violations": int(self.total_violations),
            "violation_counts": dict(sorted(self.violation_counts.items())),
            "memo_verified": self.memo_verified,
            "surrogate_verified": self.surrogate_verified,
            "runs_audited": self.runs_audited,
        }

    def publish_metrics(self, registry) -> None:
        """Export counters as ``audit.*`` metrics (delta-idempotent)."""
        pairs = [("audit.checks", sum(self.checks.values())),
                 ("audit.violations", self.total_violations),
                 ("audit.memo_verified", self.memo_verified),
                 ("audit.surrogate_verified", self.surrogate_verified)]
        pairs += [
            (f"audit.violations.{check}", count)
            for check, count in self.violation_counts.items()
        ]
        for name, value in pairs:
            counter = registry.counter(name)
            delta = value - counter.value
            if delta > 0:
                counter.inc(delta)


class RunAudit:
    """Per-run audit state: the virtual clock and the token ledger.

    Violations still count (and raise) on the parent :class:`Auditor`;
    this handle only isolates state that must reset between runs so
    several engines in one process audit independently.
    """

    __slots__ = ("auditor", "label", "_last_clock", "tokens_emitted",
                 "tokens_rolled_back", "_token_baseline")

    def __init__(self, auditor: Auditor, label: str) -> None:
        self.auditor = auditor
        self.label = label
        self._last_clock = -math.inf
        self.tokens_emitted = 0
        self.tokens_rolled_back = 0
        self._token_baseline = 0

    # -- clock ---------------------------------------------------------
    def observe_clock(self, now: float) -> None:
        self.auditor.check(
            now >= self._last_clock,
            ClockError,
            f"{self.label}: virtual clock moved backwards "
            f"({self._last_clock!r} -> {now!r})",
        )
        if now > self._last_clock:
            self._last_clock = now

    # -- token ledger --------------------------------------------------
    def set_token_baseline(self, tokens: int) -> None:
        """Tokens already held by the submitted requests (normally 0)."""
        self._token_baseline = tokens

    def on_tokens_emitted(self, count: int = 1) -> None:
        self.tokens_emitted += count

    def on_tokens_rolled_back(self, count: int) -> None:
        if count > 0:
            self.tokens_rolled_back += count

    def check_token_conservation(self, total_generated: int) -> None:
        expected = self._token_baseline + self.tokens_emitted - self.tokens_rolled_back
        self.auditor.check(
            total_generated == expected,
            TokenConservationError,
            f"{self.label}: requests hold {total_generated} tokens but the "
            f"ledger expects {expected} ({self._token_baseline} baseline + "
            f"{self.tokens_emitted} emitted - {self.tokens_rolled_back} rolled back)",
        )

    # -- delegation conveniences --------------------------------------
    def on_transition(self, request_id: int, old, new) -> None:
        self.auditor.on_transition(request_id, old, new)

    def check_kv_drained(self, manager, where: str = "end of run") -> None:
        self.auditor.check_kv_drained(manager, where)

    def check_report(self, report, ttfts=None) -> None:
        """Consistency of one serving/resilience report.

        ``report`` needs the request-partition attributes; ``ttfts`` is
        the finished requests' TTFT list for the percentile ordering
        check (optional).
        """
        auditor = self.auditor
        parts = (
            report.finished_requests + report.shed_requests
            + report.failed_requests + report.unfinished_requests
        )
        auditor.check(
            parts == report.num_requests,
            ReportConsistencyError,
            f"{self.label}: finished+shed+failed+unfinished = {parts} "
            f"!= {report.num_requests} submitted",
        )
        auditor.check(
            report.total_time >= 0.0 and report.total_output_tokens >= 0,
            ReportConsistencyError,
            f"{self.label}: negative total_time/total_output_tokens",
        )
        auditor.check(
            report.mean_ttft >= 0.0 and report.mean_tpot >= 0.0,
            ReportConsistencyError,
            f"{self.label}: negative latency aggregate "
            f"(mean_ttft={report.mean_ttft!r}, mean_tpot={report.mean_tpot!r})",
        )
        if ttfts:
            ordered = sorted(ttfts)
            p50 = ordered[max(1, math.ceil(0.50 * len(ordered))) - 1]
            p99 = ordered[max(1, math.ceil(0.99 * len(ordered))) - 1]
            auditor.check(
                p50 <= p99,
                ReportConsistencyError,
                f"{self.label}: p50 TTFT {p50!r} > p99 TTFT {p99!r}",
            )


# -- process-global wiring ------------------------------------------------
_UNSET = object()
_AUDITOR = _UNSET


def get_auditor() -> Optional[Auditor]:
    """The process auditor, or None when auditing is off.

    Resolved lazily from ``REPRO_AUDIT`` on first use, so worker
    processes inherit the parent's audit mode through the environment.
    """
    global _AUDITOR
    if _AUDITOR is _UNSET:
        mode = resolve_mode()
        _AUDITOR = None if mode is AuditMode.OFF else Auditor(mode=mode)
    return _AUDITOR


def configure(
    mode: Optional[str] = None,
    sample_fraction: Optional[float] = None,
    seed: int = 0,
) -> Optional[Auditor]:
    """(Re)build the process auditor -- the CLI ``--audit`` hook.

    Also exports the mode to ``REPRO_AUDIT`` so process-pool workers
    spawned later audit at the same level.
    """
    global _AUDITOR
    resolved = resolve_mode(mode)
    os.environ["REPRO_AUDIT"] = resolved.value
    if resolved is AuditMode.OFF:
        _AUDITOR = None
    else:
        _AUDITOR = Auditor(
            mode=resolved,
            sample_fraction=(
                DEFAULT_SAMPLE_FRACTION if sample_fraction is None else sample_fraction
            ),
            seed=seed,
        )
    return _AUDITOR


class audit_scope:
    """Context manager pinning the global auditor (tests)."""

    def __init__(self, mode: str, **kwargs) -> None:
        self.mode = mode
        self.kwargs = kwargs
        self.auditor: Optional[Auditor] = None

    def __enter__(self) -> Optional[Auditor]:
        global _AUDITOR
        self._saved = _AUDITOR
        self._saved_env = os.environ.get("REPRO_AUDIT")
        self.auditor = configure(self.mode, **self.kwargs)
        return self.auditor

    def __exit__(self, *exc) -> None:
        global _AUDITOR
        _AUDITOR = self._saved
        if self._saved_env is None:
            os.environ.pop("REPRO_AUDIT", None)
        else:
            os.environ["REPRO_AUDIT"] = self._saved_env
        return None
