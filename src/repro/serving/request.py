"""Request lifecycle for the serving engine.

Every state change funnels through :meth:`Request._transition`, so a
process auditor (``REPRO_AUDIT``, see :mod:`repro.audit`) can verify
lifecycle legality -- ``waiting -> running -> {preempted(waiting),
finished, shed, failed}`` only -- no matter which layer drives the
transition.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.audit import ConfigError, get_auditor

#: Traffic class for requests that carry no tenant (mirrors
#: :data:`repro.cluster.admission.DEFAULT_TIER` without importing the
#: cluster layer into the serving layer).
DEFAULT_TIER = 1


class RequestState(enum.Enum):
    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"
    #: Rejected by admission control / load shedding (carries a reason).
    SHED = "shed"
    #: Permanently given up after exhausting the retry budget.
    FAILED = "failed"


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry with jittered exponential backoff.

    Shed or faulted requests are re-submitted after
    ``backoff_base * backoff_multiplier ** attempt`` seconds (capped at
    ``max_backoff``), up to ``max_retries`` attempts, mirroring how
    serving clients react to load-shedding responses.

    ``jitter`` spreads the delay uniformly over
    ``[1 - jitter, 1 + jitter]`` times the nominal backoff so retries
    from correlated failures do not re-arrive as a thundering herd.  The
    jitter is stateless and deterministic: it is derived from
    ``(seed, token, attempt)``, so the same request retrying for the
    same time always waits the same virtual-clock delay, which keeps
    chaos and fleet runs byte-reproducible.
    """

    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_multiplier: float = 2.0
    #: Relative jitter amplitude in ``[0, 1]``; 0 disables jitter.
    jitter: float = 0.0
    #: Upper bound on the (pre-jitter) delay; None = unbounded.
    max_backoff: Optional[float] = None
    #: Stream seed for the deterministic jitter.
    seed: int = 0

    def __post_init__(self) -> None:
        # ConfigError subclasses ValueError, so callers catching the
        # historical ValueError keep working.
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"need backoff_base >= 0 and backoff_multiplier >= 1, got "
                f"backoff_base={self.backoff_base!r} "
                f"backoff_multiplier={self.backoff_multiplier!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.max_backoff is not None and self.max_backoff <= 0:
            # Zero would silently collapse every backoff to an
            # immediate retry storm; reject it alongside negatives.
            raise ConfigError(
                f"max_backoff must be positive (or None), got {self.max_backoff!r}"
            )

    def backoff(self, attempt: int, token: int = 0) -> float:
        """Delay before retry number ``attempt`` (0-based).

        ``token`` identifies the retrying entity (e.g. a request id) so
        distinct requests draw decorrelated jitter from the same seed.
        """
        delay = self.backoff_base * self.backoff_multiplier ** attempt
        if self.max_backoff is not None:
            delay = min(delay, self.max_backoff)
        if self.jitter > 0.0:
            # String seeds hash through SHA-512 inside random.Random,
            # so the stream is stable across platforms and processes.
            rng = random.Random(f"{self.seed}/{token}/{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass
class Request:
    """One generation request and its latency bookkeeping."""

    request_id: int
    input_tokens: int
    output_tokens: int
    arrival_time: float = 0.0
    state: RequestState = RequestState.WAITING
    generated: int = 0
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Absolute TTFT budget in seconds from ``arrival_time`` (None = no SLO).
    deadline: Optional[float] = None
    #: Client-side re-submissions after shedding/timeouts.
    retries: int = 0
    #: Engine-side restarts (preemption-recompute and device faults).
    restarts: int = 0
    #: Last checkpointed token count; fault restarts resume from here.
    checkpoint: int = 0
    #: Owning tenant ("" = untenanted standalone traffic).
    tenant: str = ""
    #: Traffic class: 0 = premium, 1 = standard, 2 = best-effort.  The
    #: scheduler admits by (tier, arrival_time), so lower tiers never
    #: delay a queued premium request.
    tier: int = DEFAULT_TIER
    #: Why the request was shed/failed, if it was.
    shed_reason: Optional[str] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("input_tokens and output_tokens must be positive")
        if self.tier < 0:
            raise ValueError(f"tier must be >= 0, got {self.tier}")

    def _transition(self, new_state: RequestState) -> None:
        """Move to ``new_state``, auditing legality when enabled."""
        auditor = get_auditor()
        if auditor is not None:
            auditor.on_transition(self.request_id, self.state, new_state)
        self.state = new_state

    def start_running(self) -> None:
        """Admission: the scheduler moved this request into the batch."""
        self._transition(RequestState.RUNNING)

    @property
    def context_len(self) -> int:
        """Current KV length: prompt plus generated tokens."""
        return self.input_tokens + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.output_tokens

    def record_token(self, now: float) -> None:
        """Account one generated token at virtual time ``now``."""
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(f"request {self.request_id} is not running")
        self.generated += 1
        if self.first_token_time is None:
            self.first_token_time = now
        if self.done:
            self._transition(RequestState.FINISHED)
            self.finish_time = now

    # -- fault/degradation transitions -----------------------------------
    def restart(self, from_checkpoint: bool = False) -> None:
        """Send the request back to the wait queue for recompute.

        Capacity preemption (``from_checkpoint=False``) discards all
        progress, so the eventual TTFT reflects the restart.  Fault
        recovery resumes from the last checkpoint: tokens up to the
        checkpoint were already delivered, so the original
        ``first_token_time`` is kept.
        """
        self._transition(RequestState.WAITING)
        self.restarts += 1
        self.generated = self.checkpoint if from_checkpoint else 0
        if self.generated == 0:
            self.first_token_time = None
        self.finish_time = None

    def shed(self, reason: str) -> None:
        """Reject with a reason instead of crashing the run."""
        if self.state is RequestState.FINISHED:
            raise RuntimeError(f"request {self.request_id} already finished")
        self._transition(RequestState.SHED)
        self.shed_reason = reason

    def fail(self, reason: str) -> None:
        """Give up permanently (retry budget exhausted)."""
        self._transition(RequestState.FAILED)
        self.shed_reason = reason

    def resubmit(self, at: float) -> None:
        """Client retry: re-enter the wait queue as a fresh arrival."""
        self.retries += 1
        self.arrival_time = at
        self._transition(RequestState.WAITING)
        self.generated = 0
        self.checkpoint = 0
        self.first_token_time = None
        self.finish_time = None

    def deadline_missed(self, now: float) -> bool:
        """True when the TTFT SLO expired before the first token."""
        return (
            self.deadline is not None
            and self.first_token_time is None
            and now - self.arrival_time > self.deadline
        )

    # -- metrics ---------------------------------------------------------
    @property
    def ttft(self) -> float:
        """Time-To-First-Token."""
        if self.first_token_time is None:
            raise RuntimeError(f"request {self.request_id} has no first token yet")
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Time-Per-Output-Token (excluding the first token)."""
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} is not finished")
        if self.output_tokens == 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.output_tokens - 1)
