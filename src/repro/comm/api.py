"""HCCL / NCCL-style collective library facades.

:class:`HcclLibrary` and :class:`NcclLibrary` bind a topology, a
protocol efficiency, and per-operation tuning factors, and report
results in the NCCL tests format the paper uses (algorithm bandwidth
and bus bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import copy

from repro.comm.busbw import bus_bandwidth_factor
from repro.core.memo import CostCache
from repro.comm.collectives import (
    CollectiveOp,
    CollectiveResult,
    collective_time,
    effective_participants,
)
from repro.comm.topology import (
    DegradedMeshTopology,
    DegradedSwitchTopology,
    FabricHealth,
    P2PMeshTopology,
    SwitchTopology,
    Topology,
)

#: Per-operation software efficiency on top of the protocol efficiency.
#: HCCL's direct-exchange kernels are uniformly tuned; NCCL's AlltoAll
#: path (send/recv based) is the one collective the paper's data shows
#: the switch losing its usual edge on.
_DEFAULT_OP_EFFICIENCY_HCCL: Dict[CollectiveOp, float] = {op: 1.0 for op in CollectiveOp}
_DEFAULT_OP_EFFICIENCY_NCCL: Dict[CollectiveOp, float] = {
    **{op: 1.0 for op in CollectiveOp},
    CollectiveOp.ALL_TO_ALL: 0.82,
    CollectiveOp.REDUCE: 0.95,
}


@dataclass(frozen=True)
class CollectiveReport:
    """One row of an ``nccl-tests``-style report."""

    op: CollectiveOp
    size_bytes: float
    participants: int
    time: float
    algorithm_bandwidth: float
    bus_bandwidth: float
    #: Bus bandwidth as a fraction of the node's 300 GB/s per-device cap.
    bus_utilization: float


class CollectiveLibrary:
    """A collective library bound to one topology."""

    #: Nominal per-device bandwidth both servers advertise (Table 1).
    NOMINAL_BANDWIDTH = 300e9

    def __init__(
        self,
        topology: Topology,
        protocol_efficiency: float,
        op_efficiency: Dict[CollectiveOp, float],
        name: str,
    ) -> None:
        self.topology = topology
        self.protocol_efficiency = protocol_efficiency
        self.op_efficiency = dict(op_efficiency)
        self.name = name
        self._run_cache = CostCache(f"comm.{name.lower()}", maxsize=2048)

    def run(self, op: CollectiveOp, size_bytes: float, participants: int) -> CollectiveReport:
        # Degraded topology views price against live fault state, which
        # their health key snapshots into the cache key.
        key = (op, float(size_bytes), participants, self.topology.health_key())
        report = self._run_cache.get(key)
        if report is not None:
            return report
        efficiency = self.protocol_efficiency * self.op_efficiency.get(op, 1.0)
        result: CollectiveResult = collective_time(
            op, size_bytes, participants, self.topology, efficiency
        )
        algbw = result.algorithm_bandwidth
        busbw = algbw * bus_bandwidth_factor(op, participants)
        report = CollectiveReport(
            op=op,
            size_bytes=size_bytes,
            participants=participants,
            time=result.time,
            algorithm_bandwidth=algbw,
            bus_bandwidth=busbw,
            bus_utilization=busbw / self.NOMINAL_BANDWIDTH,
        )
        self._run_cache.put(key, report)
        return report

    # -- fault awareness ----------------------------------------------
    def with_topology(self, topology: Topology) -> "CollectiveLibrary":
        """The same library (protocol/op tuning intact) rebound to
        another topology, e.g. a degraded view of the original."""
        other = copy.copy(self)
        other.topology = topology
        other.op_efficiency = dict(self.op_efficiency)
        # A shallow copy would share the memo across topologies.
        other._run_cache = CostCache(f"comm.{self.name.lower()}", maxsize=2048)
        return other

    def degraded(self, health: FabricHealth) -> "CollectiveLibrary":
        """Rebind onto a fault-state view of the current topology."""
        if isinstance(self.topology, P2PMeshTopology):
            return self.with_topology(DegradedMeshTopology(self.topology, health))
        if isinstance(self.topology, SwitchTopology):
            return self.with_topology(DegradedSwitchTopology(self.topology, health))
        raise TypeError(f"unsupported topology {type(self.topology).__name__}")

    def alive_participants(self, requested: int) -> int:
        """Participants actually reachable on the bound topology."""
        return effective_participants(self.topology, requested)

    # Convenience wrappers matching the library APIs.
    def all_reduce(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.ALL_REDUCE, size_bytes, participants)

    def all_gather(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.ALL_GATHER, size_bytes, participants)

    def reduce_scatter(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.REDUCE_SCATTER, size_bytes, participants)

    def all_to_all(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.ALL_TO_ALL, size_bytes, participants)

    def reduce(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.REDUCE, size_bytes, participants)

    def broadcast(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.BROADCAST, size_bytes, participants)


class HcclLibrary(CollectiveLibrary):
    """Intel's Habana Collective Communications Library on the P2P mesh."""

    def __init__(self, topology: P2PMeshTopology | None = None) -> None:
        super().__init__(
            topology=topology or P2PMeshTopology(),
            protocol_efficiency=0.87,
            op_efficiency=_DEFAULT_OP_EFFICIENCY_HCCL,
            name="HCCL",
        )


class NcclLibrary(CollectiveLibrary):
    """NVIDIA's NCCL over NVSwitch."""

    def __init__(self, topology: SwitchTopology | None = None) -> None:
        super().__init__(
            topology=topology or SwitchTopology(),
            protocol_efficiency=0.76,
            op_efficiency=_DEFAULT_OP_EFFICIENCY_NCCL,
            name="NCCL",
        )
