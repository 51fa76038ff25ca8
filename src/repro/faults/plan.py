"""Seeded, declarative schedules of fault events.

A :class:`FaultPlan` is built either programmatically (builder methods
chain) or from the compact CLI specs used by ``python -m repro chaos``::

    --fail-device  3@t=2.0            # kill device 3 at t=2s
    --fail-device  3@t=2.0,recover=5  # ...and bring it back at t=5s
    --degrade-link 0-1@t=1.0,factor=0.5,until=3.0
    --flap-link    0-1@t=1.0,period=0.5,cycles=4
    --throttle-hbm 0.7@t=1.5,until=4.0
    --straggler    2@t=1.0,factor=0.5

Everything is deterministic: the plan's ``seed`` drives the transient
kernel-fault RNG, and events replay in (time, insertion) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit import ConfigError
from repro.faults.events import FaultEvent, FaultKind


@dataclass
class FaultPlan:
    """An ordered, seeded schedule of fault events."""

    seed: int = 0
    #: Per-decode-step probability of a transient kernel failure.
    kernel_fault_rate: float = 0.0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.kernel_fault_rate < 1.0:
            raise ConfigError(
                f"kernel_fault_rate must be in [0, 1), got {self.kernel_fault_rate!r}"
            )

    # -- builders ------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def fail_device(
        self, device: int, at: float, recover_at: Optional[float] = None
    ) -> "FaultPlan":
        """Hard device failure, optionally followed by recovery."""
        if device < 0:
            raise ConfigError(f"device must be >= 0, got {device}")
        if at < 0:
            raise ConfigError(f"failure time must be >= 0, got {at!r}")
        self.add(FaultEvent(at, FaultKind.DEVICE_FAIL, device=device))
        if recover_at is not None:
            if recover_at <= at:
                raise ConfigError(
                    f"recovery (recover_at={recover_at!r}) must come after "
                    f"the failure (at={at!r})"
                )
            self.add(FaultEvent(recover_at, FaultKind.DEVICE_RECOVER, device=device))
        return self

    def degrade_link(
        self, a: int, b: int, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """Reduce one P2P link to ``factor`` of its bandwidth."""
        if a < 0 or b < 0:
            raise ConfigError(f"link devices must be >= 0, got {a}-{b}")
        if a == b:
            raise ConfigError(f"link endpoints must differ, got {a}-{b}")
        if not 0.0 <= factor <= 1.0:
            raise ConfigError(f"link factor must be in [0, 1], got {factor!r}")
        self.add(FaultEvent(at, FaultKind.LINK_DEGRADE, device=a, peer=b, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"restore (until={until!r}) must come after the "
                    f"degradation (at={at!r})"
                )
            self.add(FaultEvent(until, FaultKind.LINK_RESTORE, device=a, peer=b))
        return self

    def flap_link(
        self, a: int, b: int, at: float, period: float, cycles: int
    ) -> "FaultPlan":
        """A flapping link: down for ``period / 2``, up for ``period / 2``."""
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period!r}")
        if cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {cycles}")
        for i in range(cycles):
            start = at + i * period
            self.degrade_link(a, b, 0.0, start, until=start + period / 2)
        return self

    def throttle_hbm(
        self, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """Thermal HBM throttling: memory bandwidth drops to ``factor``."""
        if not 0.0 < factor <= 1.0:
            raise ConfigError(f"HBM throttle factor must be in (0, 1], got {factor!r}")
        self.add(FaultEvent(at, FaultKind.HBM_THROTTLE, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"restore (until={until!r}) must come after the "
                    f"throttle (at={at!r})"
                )
            self.add(FaultEvent(until, FaultKind.HBM_RESTORE))
        return self

    def straggler(
        self, device: int, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """One device's TPCs run at ``factor`` speed (batch-synchronous
        steps slow to the straggler's pace)."""
        if device < 0:
            raise ConfigError(f"device must be >= 0, got {device}")
        if not 0.0 < factor <= 1.0:
            raise ConfigError(f"straggler factor must be in (0, 1], got {factor!r}")
        self.add(FaultEvent(at, FaultKind.TPC_STRAGGLER, device=device, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"clear (until={until!r}) must come after the "
                    f"slowdown (at={at!r})"
                )
            self.add(FaultEvent(until, FaultKind.STRAGGLER_CLEAR, device=device))
        return self

    def kernel_fault_at(self, at: float) -> "FaultPlan":
        """Force one transient kernel failure at a specific time."""
        self.add(FaultEvent(at, FaultKind.KERNEL_FAULT))
        return self

    # -- queries -------------------------------------------------------
    def scheduled(self) -> List[FaultEvent]:
        """Events in replay order (stable sort by fire time)."""
        return sorted(self.events, key=lambda e: e.time)

    @property
    def empty(self) -> bool:
        return not self.events and self.kernel_fault_rate == 0.0

    # -- CLI spec parsing ----------------------------------------------
    @classmethod
    def from_specs(
        cls,
        seed: int = 0,
        fail_device: Sequence[str] = (),
        degrade_link: Sequence[str] = (),
        flap_link: Sequence[str] = (),
        throttle_hbm: Sequence[str] = (),
        straggler: Sequence[str] = (),
        kernel_fault_rate: float = 0.0,
    ) -> "FaultPlan":
        plan = cls(seed=seed, kernel_fault_rate=kernel_fault_rate)
        for spec in fail_device:
            head, kv = _parse_spec(spec, required=("t",), optional=("recover",))
            plan.fail_device(_integer(spec, head), kv["t"], recover_at=kv.get("recover"))
        for spec in degrade_link:
            head, kv = _parse_spec(spec, required=("t", "factor"), optional=("until",))
            a, b = _parse_link(spec, head)
            plan.degrade_link(a, b, kv["factor"], kv["t"], until=kv.get("until"))
        for spec in flap_link:
            head, kv = _parse_spec(spec, required=("t", "period", "cycles"))
            a, b = _parse_link(spec, head)
            plan.flap_link(a, b, kv["t"], kv["period"], _integer(spec, kv["cycles"]))
        for spec in throttle_hbm:
            head, kv = _parse_spec(spec, required=("t",), optional=("until",))
            plan.throttle_hbm(_number(spec, head), kv["t"], until=kv.get("until"))
        for spec in straggler:
            head, kv = _parse_spec(spec, required=("t", "factor"), optional=("until",))
            plan.straggler(_integer(spec, head), kv["factor"], kv["t"], until=kv.get("until"))
        return plan


def _parse_spec(
    spec: str,
    required: Tuple[str, ...] = (),
    optional: Tuple[str, ...] = (),
) -> Tuple[str, Dict[str, float]]:
    """Parse ``HEAD@key=value,key=value`` fault specs (every value a
    number; a malformed spec raises :class:`ConfigError`)."""
    head, sep, rest = spec.partition("@")
    if not sep or not head:
        raise ConfigError(f"bad fault spec {spec!r}: expected HEAD@t=TIME[,...]")
    kv: Dict[str, float] = {}
    for item in rest.split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"bad fault spec {spec!r}: {item!r} is not key=value")
        kv[key.strip()] = _number(spec, value)
    for key in required:
        if key not in kv:
            raise ConfigError(f"bad fault spec {spec!r}: missing {key}=")
    allowed = set(required) | set(optional)
    extra = set(kv) - allowed
    if extra:
        raise ConfigError(f"bad fault spec {spec!r}: unknown keys {sorted(extra)}")
    return head.strip(), kv


def _number(spec: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad fault spec {spec!r}: {text!r} is not a number") from None


def _integer(spec: str, value) -> int:
    """``value`` (text or a parsed number) as an exact integer."""
    number = _number(spec, value) if isinstance(value, str) else value
    if not float(number).is_integer():
        raise ConfigError(f"bad fault spec {spec!r}: {value!r} is not an integer")
    return int(number)


def _parse_link(spec: str, head: str) -> Tuple[int, int]:
    a, sep, b = head.partition("-")
    if not sep:
        raise ConfigError(f"bad link {head!r} in {spec!r}: expected A-B device pair")
    return _integer(spec, a), _integer(spec, b)
