"""Intra-node interconnect topologies.

The two server nodes of Table 1 both advertise 300 GB/s of per-device
intra-node bandwidth, but deliver it very differently (Section 2.1);
the difference is the whole story of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.hw.spec import A100_SPEC, GAUDI2_SPEC, DeviceSpec


@dataclass
class FabricHealth:
    """Live fault state of one node's fabric.

    A mutable record shared between a fault injector (which marks
    devices down and links degraded) and the degraded topology views
    below (which read it when pricing collectives).  Link factors are
    the usable fraction of a link's bandwidth: 1.0 healthy, 0.0 down.
    """

    down_devices: Set[int] = field(default_factory=set)
    link_factors: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        if a == b:
            raise ValueError("a link connects two distinct devices")
        return (a, b) if a < b else (b, a)

    def fail_device(self, device: int) -> None:
        self.down_devices.add(device)

    def recover_device(self, device: int) -> None:
        self.down_devices.discard(device)

    def set_link_factor(self, a: int, b: int, factor: float) -> None:
        if not 0.0 <= factor <= 1.0:
            raise ValueError("link factor must be in [0, 1]")
        self.link_factors[self._key(a, b)] = factor

    def restore_link(self, a: int, b: int) -> None:
        self.link_factors.pop(self._key(a, b), None)

    def link_factor(self, a: int, b: int) -> float:
        return self.link_factors.get(self._key(a, b), 1.0)

    def alive(self, num_devices: int) -> int:
        return num_devices - sum(1 for d in self.down_devices if d < num_devices)

    def worst_link_factor(self, num_devices: int, floor: float = 0.0) -> float:
        """Bottleneck factor across links between alive devices.

        ``floor`` substitutes for fully-severed links (factor 0) where
        the fabric can reroute: the degraded views below pass their
        relay residual, so a down link degrades rather than zeroes the
        collective."""
        worst = 1.0
        for (a, b), factor in self.link_factors.items():
            if a >= num_devices or b >= num_devices:
                continue
            if a in self.down_devices or b in self.down_devices:
                continue
            worst = min(worst, factor if factor > 0 else floor)
        return worst

    @property
    def healthy(self) -> bool:
        return not self.down_devices and all(
            f >= 1.0 for f in self.link_factors.values()
        )


class Topology:
    """Common interface for intra-node fabrics."""

    num_devices: int
    base_latency: float

    def health_key(self) -> Optional[Tuple]:
        """The live fault state collective pricing reads, as a hashable
        snapshot for cost-cache keys; None for a static fabric."""
        return None

    def validate_participants(self, participants: int) -> None:
        if not 2 <= participants <= self.num_devices:
            raise ValueError(
                f"participants must be in [2, {self.num_devices}], got {participants}"
            )

    def injection_bandwidth(self, participants: int) -> float:
        """Usable per-device egress bandwidth (bytes/s) when
        ``participants`` devices communicate."""
        raise NotImplementedError

    def pair_bandwidth(self, participants: int) -> float:
        """Bandwidth between one pair of participating devices."""
        raise NotImplementedError


@dataclass
class P2PMeshTopology(Topology):
    """HLS-Gaudi-2: direct point-to-point links between every pair.

    Each Gaudi-2 dedicates 21 of its 24 RoCE ports to intra-node
    traffic, three 100 GbE links per peer.  When only ``p`` devices
    participate, each can use just ``3 * (p - 1)`` of its 21 ports --
    the root cause of the linear bus-bandwidth decline in Figure 10.
    """

    num_devices: int = 8
    links_per_pair: int = 3
    link_bandwidth: float = 12.5e9  # 100 GbE in bytes/s
    base_latency: float = GAUDI2_SPEC.interconnect.base_latency

    @classmethod
    def from_spec(cls, spec: DeviceSpec = GAUDI2_SPEC, num_devices: int = 8) -> "P2PMeshTopology":
        ic = spec.interconnect
        return cls(
            num_devices=num_devices,
            links_per_pair=ic.links_per_pair,
            link_bandwidth=ic.link_bandwidth,
            base_latency=ic.base_latency,
        )

    def pair_bandwidth(self, participants: int) -> float:
        self.validate_participants(participants)
        return self.links_per_pair * self.link_bandwidth

    def injection_bandwidth(self, participants: int) -> float:
        self.validate_participants(participants)
        return (participants - 1) * self.pair_bandwidth(participants)


@dataclass
class SwitchTopology(Topology):
    """DGX A100: an all-to-all NVSwitch.

    Every GPU talks to the switch at the full NVLink bandwidth, so the
    usable bandwidth is independent of how many GPUs participate.
    """

    num_devices: int = 8
    per_device_bandwidth: float = 300e9
    base_latency: float = A100_SPEC.interconnect.base_latency

    @classmethod
    def from_spec(cls, spec: DeviceSpec = A100_SPEC, num_devices: int = 8) -> "SwitchTopology":
        ic = spec.interconnect
        return cls(
            num_devices=num_devices,
            per_device_bandwidth=ic.per_device_bandwidth,
            base_latency=ic.base_latency,
        )

    def pair_bandwidth(self, participants: int) -> float:
        self.validate_participants(participants)
        # A pair can burst at the full injection bandwidth through the
        # switch (no static partitioning across peers).
        return self.per_device_bandwidth

    def injection_bandwidth(self, participants: int) -> float:
        self.validate_participants(participants)
        return self.per_device_bandwidth


class _FaultView:
    """Shared behaviour of the degraded topology views: they read a
    live :class:`FabricHealth` when pricing, so their cost-cache key
    carries a snapshot of it."""

    health: FabricHealth
    num_devices: int
    RELAY_FACTOR: float

    def alive_devices(self, within: Optional[int] = None) -> int:
        """Alive devices among ids ``0..within-1`` (default: the box)."""
        limit = self.num_devices if within is None else min(within, self.num_devices)
        return self.health.alive(limit)

    def health_key(self) -> Tuple:
        """Sorted down devices and sorted link factors: everything the
        pricing below reads from the fault state.  A recovered device
        or restored link snapshots back to the healthy key."""
        health = self.health
        return (
            tuple(sorted(health.down_devices)),
            tuple(sorted(health.link_factors.items())),
        )

    def pair_bandwidth(self, participants: int) -> float:
        healthy = super().pair_bandwidth(participants)
        return healthy * self.health.worst_link_factor(
            self.num_devices, floor=self.RELAY_FACTOR
        )


class DegradedMeshTopology(_FaultView, P2PMeshTopology):
    """A :class:`P2PMeshTopology` viewed through live fault state.

    When devices drop out of the mesh, each survivor can only use the
    ``3 * (alive - 1)`` of its 21 ports that lead to alive peers --
    collectives priced against this view reproduce the Figure 10
    port-count bandwidth cliff as an emergent fault response.  Degraded
    (but up) links gate the synchronous exchange phases at the
    bottleneck link's rate; a fully-severed link relays through an
    alive intermediate peer, paying both hops (half the direct rate).
    """

    #: Residual rate of a fully-down link after 2-hop relay rerouting.
    RELAY_FACTOR = 0.5

    def __init__(
        self,
        base: Optional[P2PMeshTopology] = None,
        health: Optional[FabricHealth] = None,
    ) -> None:
        base = base or P2PMeshTopology()
        super().__init__(
            num_devices=base.num_devices,
            links_per_pair=base.links_per_pair,
            link_bandwidth=base.link_bandwidth,
            base_latency=base.base_latency,
        )
        self.health = health if health is not None else FabricHealth()

    def injection_bandwidth(self, participants: int) -> float:
        self.validate_participants(participants)
        return (participants - 1) * self.pair_bandwidth(participants)


class DegradedSwitchTopology(_FaultView, SwitchTopology):
    """A :class:`SwitchTopology` viewed through live fault state.

    The switch isolates survivors from failed peers (usable bandwidth
    stays flat in the participant count), so only degraded uplinks --
    not lost devices -- reduce per-device bandwidth.  A fully-severed
    uplink falls back to spare switch planes at half rate."""

    #: Residual rate of a fully-down uplink via spare switch planes.
    RELAY_FACTOR = 0.5

    def __init__(
        self,
        base: Optional[SwitchTopology] = None,
        health: Optional[FabricHealth] = None,
    ) -> None:
        base = base or SwitchTopology()
        super().__init__(
            num_devices=base.num_devices,
            per_device_bandwidth=base.per_device_bandwidth,
            base_latency=base.base_latency,
        )
        self.health = health if health is not None else FabricHealth()

    def injection_bandwidth(self, participants: int) -> float:
        healthy = super().injection_bandwidth(participants)
        return healthy * self.health.worst_link_factor(
            self.num_devices, floor=self.RELAY_FACTOR
        )
