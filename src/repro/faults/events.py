"""Timed fault events against the serving engine's virtual clock."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.audit import ConfigError


class FaultKind(enum.Enum):
    """What goes wrong (or comes back) at an event's fire time."""

    DEVICE_FAIL = "device-fail"
    DEVICE_RECOVER = "device-recover"
    LINK_DEGRADE = "link-degrade"
    LINK_RESTORE = "link-restore"
    HBM_THROTTLE = "hbm-throttle"
    HBM_RESTORE = "hbm-restore"
    TPC_STRAGGLER = "tpc-straggler"
    STRAGGLER_CLEAR = "straggler-clear"
    KERNEL_FAULT = "kernel-fault"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition.

    ``device``/``peer`` identify the affected device or link endpoints
    (-1 = not applicable).  ``factor`` is the remaining-capacity
    fraction for degradations (link bandwidth, HBM bandwidth, TPC
    speed): 1.0 is healthy, 0.0 is fully down.
    """

    time: float
    kind: FaultKind
    device: int = -1
    peer: int = -1
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ConfigError(f"event time must be finite and >= 0, got {self.time!r}")
        if not 0.0 <= self.factor <= 1.0:
            raise ConfigError(f"factor must be in [0, 1], got {self.factor!r}")

    def describe(self) -> str:
        """Stable one-line rendering (used by the resilience report)."""
        parts = [f"t={self.time:g}", self.kind.value]
        if self.device >= 0:
            target = f"dev{self.device}"
            if self.peer >= 0:
                target += f"-dev{self.peer}"
            parts.append(target)
        if self.kind in (
            FaultKind.LINK_DEGRADE,
            FaultKind.HBM_THROTTLE,
            FaultKind.TPC_STRAGGLER,
        ):
            parts.append(f"factor={self.factor:g}")
        return " ".join(parts)
