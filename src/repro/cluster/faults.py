"""Node-level fault vocabulary for fleet simulations.

Device-level chaos (:mod:`repro.faults`) mutates one box; a fleet run
instead schedules *node*-level events against named nodes: hard
crashes (with optional recovery), slow-node brownouts, fabric-link
degradation inside the node's box (re-priced through the node's own
:class:`~repro.comm.FabricHealth` on the Figure 10 port model), and
transient unavailability blips that make a node unroutable without
losing its in-flight work.

A :class:`NodeFaultPlan` is built programmatically (builder methods
chain) or parsed from the compact ``repro fleet --chaos`` spec, a
semicolon-separated list of events::

    crash:gaudi2-1@t=2,recover=6
    brownout:a100-0@t=1,factor=0.5,until=4
    fabric:gaudi2-0@t=3,factor=0.25,until=5
    blip:gaudi2-2@t=2.5,duration=1
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.audit import ConfigError
from repro.faults.plan import _parse_spec

__all__ = ["NodeFaultEvent", "NodeFaultKind", "NodeFaultPlan"]


class NodeFaultKind(enum.Enum):
    #: Hard node loss: every in-flight request on the node fails over.
    NODE_CRASH = "node_crash"
    #: A crashed node comes back (through RECOVERING, then HEALTHY).
    NODE_RECOVER = "node_recover"
    #: Slow node: every engine step runs at ``1 / factor`` speed.
    BROWNOUT = "brownout"
    BROWNOUT_CLEAR = "brownout_clear"
    #: One intra-node fabric link drops to ``factor`` bandwidth.
    FABRIC_DEGRADE = "fabric_degrade"
    FABRIC_RESTORE = "fabric_restore"
    #: Transient unavailability: unroutable, but in-flight work survives.
    BLIP = "blip"
    BLIP_CLEAR = "blip_clear"


@dataclass(frozen=True)
class NodeFaultEvent:
    """One scheduled node-level event."""

    time: float
    kind: NodeFaultKind
    node: str
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ConfigError(
                f"event time must be finite and >= 0, got {self.time!r}"
            )
        if not self.node:
            raise ConfigError("event must name a node")

    def describe(self) -> str:
        parts = [f"t={self.time:g}", self.kind.value, self.node]
        if self.factor is not None:
            parts.append(f"factor={self.factor:g}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "kind": self.kind.value,
            "node": self.node,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NodeFaultEvent":
        return cls(
            time=float(data["time"]),
            kind=NodeFaultKind(data["kind"]),
            node=str(data["node"]),
            factor=None if data.get("factor") is None else float(data["factor"]),
        )


@dataclass
class NodeFaultPlan:
    """An ordered schedule of node-level fault events."""

    events: List[NodeFaultEvent] = field(default_factory=list)

    # -- builders ------------------------------------------------------
    def add(self, event: NodeFaultEvent) -> "NodeFaultPlan":
        self.events.append(event)
        return self

    def crash(
        self, node: str, at: float, recover_at: Optional[float] = None
    ) -> "NodeFaultPlan":
        """Hard-crash ``node`` at ``at``; optionally recover later."""
        self.add(NodeFaultEvent(at, NodeFaultKind.NODE_CRASH, node))
        if recover_at is not None:
            if recover_at <= at:
                raise ConfigError(
                    f"recovery (recover_at={recover_at!r}) must come after "
                    f"the crash (at={at!r})"
                )
            self.add(NodeFaultEvent(recover_at, NodeFaultKind.NODE_RECOVER, node))
        return self

    def brownout(
        self, node: str, factor: float, at: float, until: Optional[float] = None
    ) -> "NodeFaultPlan":
        """Slow ``node`` to ``factor`` of its speed from ``at``."""
        if not 0.0 < factor <= 1.0:
            raise ConfigError(f"brownout factor must be in (0, 1], got {factor!r}")
        self.add(NodeFaultEvent(at, NodeFaultKind.BROWNOUT, node, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"clear (until={until!r}) must come after the brownout (at={at!r})"
                )
            self.add(NodeFaultEvent(until, NodeFaultKind.BROWNOUT_CLEAR, node))
        return self

    def degrade_fabric(
        self, node: str, factor: float, at: float, until: Optional[float] = None
    ) -> "NodeFaultPlan":
        """Degrade one intra-node fabric link to ``factor`` bandwidth."""
        if not 0.0 <= factor < 1.0:
            raise ConfigError(f"fabric factor must be in [0, 1), got {factor!r}")
        self.add(NodeFaultEvent(at, NodeFaultKind.FABRIC_DEGRADE, node, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"restore (until={until!r}) must come after the "
                    f"degradation (at={at!r})"
                )
            self.add(NodeFaultEvent(until, NodeFaultKind.FABRIC_RESTORE, node))
        return self

    def blip(self, node: str, at: float, duration: float) -> "NodeFaultPlan":
        """Make ``node`` unroutable for ``duration`` seconds."""
        if duration <= 0:
            raise ConfigError(f"blip duration must be positive, got {duration!r}")
        self.add(NodeFaultEvent(at, NodeFaultKind.BLIP, node))
        self.add(NodeFaultEvent(at + duration, NodeFaultKind.BLIP_CLEAR, node))
        return self

    # -- queries -------------------------------------------------------
    def scheduled(self) -> List[NodeFaultEvent]:
        """Events in replay order (stable sort by fire time)."""
        return sorted(self.events, key=lambda e: e.time)

    @property
    def empty(self) -> bool:
        return not self.events

    # -- (de)serialization ---------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NodeFaultPlan":
        return cls(events=[NodeFaultEvent.from_dict(e) for e in data.get("events", [])])

    # -- CLI spec parsing ----------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "NodeFaultPlan":
        """Parse a ``--chaos`` string: ``;``-separated event specs of
        the form ``kind:node@t=T[,key=value...]`` (see module doc)."""
        plan = cls()
        for item in spec.split(";"):
            item = item.strip()
            if not item:
                continue
            kind, sep, rest = item.partition(":")
            if not sep:
                raise ConfigError(
                    f"bad fleet fault spec {item!r}: expected kind:node@t=T[,...]"
                )
            plan._parse_one(kind.strip(), rest)
        return plan

    def _parse_one(self, kind: str, rest: str) -> None:
        if kind == "crash":
            head, kv = _parse_spec(rest, required=("t",), optional=("recover",))
            self.crash(head, kv["t"], recover_at=kv.get("recover"))
        elif kind == "brownout":
            head, kv = _parse_spec(rest, required=("t", "factor"), optional=("until",))
            self.brownout(head, kv["factor"], kv["t"], until=kv.get("until"))
        elif kind == "fabric":
            head, kv = _parse_spec(rest, required=("t", "factor"), optional=("until",))
            self.degrade_fabric(head, kv["factor"], kv["t"], until=kv.get("until"))
        elif kind == "blip":
            head, kv = _parse_spec(rest, required=("t", "duration"))
            self.blip(head, kv["t"], kv["duration"])
        else:
            raise ConfigError(
                f"unknown fleet fault kind {kind!r} "
                "(expected crash, brownout, fabric, or blip)"
            )
