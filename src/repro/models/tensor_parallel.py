"""Tensor parallelism (Megatron-style) over the modelled fabrics.

Column/row-parallel sharding of the attention and MLP blocks induces
two AllReduces of the activation tensor per decoder layer, which is
where the interconnect contrast of Section 3.4 reaches end-to-end LLM
serving: the P2P mesh's AllReduce bandwidth grows with the number of
participating devices, so Gaudi's multi-device speedups *increase*
with TP degree (Figure 12(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.audit import ConfigError, get_auditor
from repro.comm import CollectiveLibrary
from repro.hw.device import Device


#: One priced collective as the serving engine observes it:
#: ``(op, seconds, bytes)``.
CommEvent = Tuple[str, float, float]


@dataclass
class TensorParallelConfig:
    """TP degree plus the collective library serving it.

    Pricing through it is pure: the bound fabric's live fault state
    enters cost-cache keys via :meth:`health_key`, and the collectives
    a phase prices travel back on its
    :class:`~repro.models.llama.PhaseEstimate` for the engine to
    observe.
    """

    degree: int = 1
    library: Optional[CollectiveLibrary] = None

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("TP degree must be >= 1")

    @classmethod
    def for_device(cls, device: Device, degree: int) -> "TensorParallelConfig":
        if degree == 1:
            return cls(degree=1, library=None)
        # Every backend names its own fabric library (Backend protocol).
        if not hasattr(device, "collective_library"):
            raise TypeError(f"unsupported device {device!r}")
        return cls(degree=degree, library=device.collective_library())

    def shard(self, size: int, what: str = "dimension") -> int:
        """Split a sharded dimension, validating divisibility."""
        if size % self.degree != 0:
            raise ConfigError(
                f"{what} of {size} not divisible by TP degree {self.degree}"
            )
        return size // self.degree

    def effective_degree(self) -> int:
        """TP participants still reachable on the bound fabric.

        With a degraded topology view bound (see
        :class:`repro.comm.DegradedMeshTopology`), failed devices drop
        out of the collective; healthy fabrics report the full degree.
        """
        if self.degree == 1 or self.library is None:
            return self.degree
        return self.library.alive_participants(self.degree)

    def health_key(self) -> Optional[Tuple]:
        """Fault-state key of the bound fabric (None when static)."""
        if self.library is None:
            return None
        return self.library.topology.health_key()

    def allreduce(self, size_bytes: float) -> Optional[CommEvent]:
        """One activation AllReduce across the (possibly degraded) TP
        group, or None when there is no exchange (degree 1, or fewer
        than two survivors)."""
        if self.degree == 1:
            return None
        assert self.library is not None
        participants = self.effective_degree()
        if participants < 2:
            return None
        time = self.library.all_reduce(size_bytes, participants).time
        auditor = get_auditor()
        if auditor is not None:
            auditor.check_collective(time, size_bytes, participants, self.degree)
        return ("all_reduce", time, size_bytes)

    def allreduce_time(self, size_bytes: float) -> float:
        """Seconds of :meth:`allreduce` (0.0 without an exchange)."""
        event = self.allreduce(size_bytes)
        return 0.0 if event is None else event[1]
