"""Collective-communication algorithms on both fabrics.

Each algorithm estimates the completion time of one collective over
``participants`` devices moving ``size`` bytes per device.  Two
algorithm families are modelled:

* **Full-mesh direct exchange** (HCCL on the P2P mesh): every device
  exchanges shards with all peers simultaneously over its direct
  links.  Few steps, but the usable bandwidth is only the links to the
  participating peers.
* **Ring** (NCCL on NVSwitch): the classic ``(n-1)``- or
  ``2(n-1)``-step rings running at full injection bandwidth.

Small transfers are dominated by the per-step base latency, which is
what bends the curves of Figure 10 at 2 KB-128 KB sizes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.comm.topology import P2PMeshTopology, SwitchTopology, Topology


class CollectiveOp(enum.Enum):
    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    REDUCE = "reduce"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class CollectiveResult:
    """Timing of one collective operation."""

    op: CollectiveOp
    size_bytes: float
    participants: int
    time: float
    steps: int

    @property
    def algorithm_bandwidth(self) -> float:
        return self.size_bytes / self.time if self.time > 0 else 0.0


def _mesh_phases(op: CollectiveOp) -> float:
    """Effective number of full-mesh exchange phases for one collective.

    AllReduce's reduce-scatter and all-gather phases run back to back
    but each at full mesh bandwidth, hence 2.  Reduce is a two-phase
    (reduce-scatter, then gather-to-root) algorithm whose phases
    chunk-pipeline -- each reduced chunk is forwarded to the root while
    the next is still being reduced -- leaving only a pipeline-fill
    remainder.  Broadcast cannot pipeline the same way: the
    scatter-from-root phase must finish before peers can re-exchange,
    and the root's egress duplicates every byte, so it pays both phases
    in full (this is the one collective where the paper's data shows
    the NVSwitch system keeping its edge at 8 devices).
    """
    if op is CollectiveOp.ALL_REDUCE:
        return 2.0  # reduce-scatter + all-gather
    if op is CollectiveOp.REDUCE:
        return 1.15  # chunk-pipelined reduce-scatter + gather-to-root
    if op is CollectiveOp.BROADCAST:
        return 2.0  # scatter-from-root, then all-gather among peers
    return 1.0  # all-gather / reduce-scatter / all-to-all: one exchange


def mesh_collective_time(
    op: CollectiveOp,
    size_bytes: float,
    participants: int,
    topology: P2PMeshTopology,
    efficiency: float = 1.0,
) -> CollectiveResult:
    """Full-mesh direct-exchange algorithm on the P2P topology.

    Every phase moves one ``size / n`` shard per peer over that peer's
    dedicated links, so phase time is ``(size / n) / pair_bw``.
    """
    topology.validate_participants(participants)
    if size_bytes <= 0:
        raise ValueError("size_bytes must be positive")
    n = participants
    pair_bw = topology.pair_bandwidth(n) * efficiency
    phases = _mesh_phases(op)
    shard = size_bytes / n
    time = phases * (shard / pair_bw + topology.base_latency)
    return CollectiveResult(op, size_bytes, n, time, steps=math.ceil(phases))


def ring_collective_time(
    op: CollectiveOp,
    size_bytes: float,
    participants: int,
    topology: SwitchTopology,
    efficiency: float = 1.0,
) -> CollectiveResult:
    """Ring algorithms through the all-to-all switch."""
    topology.validate_participants(participants)
    if size_bytes <= 0:
        raise ValueError("size_bytes must be positive")
    n = participants
    inj = topology.injection_bandwidth(n) * efficiency
    if op is CollectiveOp.ALL_REDUCE:
        steps = 2 * (n - 1)
        volume = 2.0 * size_bytes * (n - 1) / n
    elif op in (CollectiveOp.ALL_GATHER, CollectiveOp.REDUCE_SCATTER, CollectiveOp.ALL_TO_ALL):
        steps = n - 1
        volume = size_bytes * (n - 1) / n
    elif op in (CollectiveOp.REDUCE, CollectiveOp.BROADCAST):
        # Pipelined chain through the switch: near-full injection rate.
        steps = n - 1
        volume = size_bytes
    else:
        raise ValueError(f"unknown collective op {op!r}")
    time = volume / inj + steps * topology.base_latency
    return CollectiveResult(op, size_bytes, n, time, steps=steps)


def collective_time(
    op: CollectiveOp,
    size_bytes: float,
    participants: int,
    topology: Topology,
    efficiency: float = 1.0,
    metrics=None,
) -> CollectiveResult:
    """Dispatch to the algorithm family matching the topology.

    With a :class:`~repro.obs.metrics.MetricsRegistry` passed as
    ``metrics``, the call is counted under ``collectives.*`` (per-op
    call counts, bytes moved, and a seconds histogram).
    """
    if isinstance(topology, P2PMeshTopology):
        result = mesh_collective_time(op, size_bytes, participants, topology, efficiency)
    elif isinstance(topology, SwitchTopology):
        result = ring_collective_time(op, size_bytes, participants, topology, efficiency)
    else:
        raise TypeError(f"unsupported topology {type(topology).__name__}")
    record_collective(result, metrics)
    return result


def record_collective(result: CollectiveResult, metrics) -> None:
    """Account one collective in the metrics registry (None = no-op)."""
    if metrics is None:
        return
    metrics.counter(f"collectives.{result.op.value}.calls").inc()
    metrics.counter(f"collectives.{result.op.value}.bytes").inc(result.size_bytes)
    metrics.histogram("collectives.seconds").observe(result.time)


def effective_participants(topology: Topology, requested: int) -> int:
    """Clamp a collective's participant count to its alive members.

    The group is devices ``0..requested-1`` (a TP group's ranks), so a
    failure elsewhere in the box leaves it whole.  Degraded topology
    views expose :meth:`alive_devices`; healthy topologies run with all
    requested participants."""
    alive = getattr(topology, "alive_devices", None)
    if alive is None:
        return requested
    return min(requested, alive(requested))


def degraded_collective_time(
    op: CollectiveOp,
    size_bytes: float,
    participants: int,
    topology: Topology,
    efficiency: float = 1.0,
    metrics=None,
) -> CollectiveResult:
    """Collective over whatever subset of ``participants`` is still up.

    With fewer than two survivors there is nothing to exchange: the
    result is a zero-time, zero-step collective (not counted in
    ``metrics`` -- no bytes moved).
    """
    alive = effective_participants(topology, participants)
    if alive < 2:
        return CollectiveResult(op, size_bytes, max(alive, 0), 0.0, steps=0)
    return collective_time(op, size_bytes, alive, topology, efficiency, metrics)
