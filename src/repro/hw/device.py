"""Device facades tying the component models together.

:class:`Gaudi2Device` and :class:`A100Device` expose the
:class:`~repro.hw.backend.Backend` protocol (GEMM execution, HBM model,
vector-engine model, power model, collective fabric, launch overheads)
so kernels, the graph compiler, and the serving stack can be written
once and run against any registered platform -- the same property the
paper attributes to PyTorch's device abstraction (Figure 2(a)).

Platform lookup goes through the string-keyed registry of
:mod:`repro.hw.backend`; :func:`get_device` remains as the historical
alias of :func:`repro.hw.backend.get_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.memo import CostCache
from repro.hw.memory import HbmModel
from repro.hw.mme import MmeModel
from repro.hw.power import PowerModel
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC, DeviceSpec, DType
from repro.hw.tensorcore import TensorCoreModel
from repro.hw.vector_unit import VectorUnitModel


@dataclass(frozen=True)
class MatmulResult:
    """Device-independent GEMM execution estimate."""

    m: int
    k: int
    n: int
    batch: int
    dtype: DType
    time: float
    achieved_flops: float
    utilization: float
    memory_bound: bool
    #: Fraction of the matrix engine's MAC array powered during the op
    #: (less than 1.0 only for power-gated MME geometries).
    active_mac_fraction: float
    #: Human-readable description of the chosen engine configuration.
    config_label: str

    @property
    def flops(self) -> float:
        return 2.0 * self.batch * self.m * self.k * self.n


class Device:
    """Common base class of every modelled platform.

    Subclasses fill in the class-level capability attributes (what the
    :class:`~repro.hw.backend.Backend` protocol calls the kernel
    dialect) plus the :meth:`_gemm_uncached` hook; everything else --
    memory, vector, power models, caches, fabric -- derives from the
    spec sheet.
    """

    #: Kernel-dialect family: which kernel implementations apply
    #: ("gaudi" = graph-compiler fused MME + TPC-C; "cuda" = SIMT
    #: kernels + tensor cores).
    family = ""
    #: Default paged decode-attention implementation
    #: (a :class:`repro.models.llama.DecodeAttention` value string).
    decode_attention = "paged-opt"
    #: Which smi-style readout the tools layer renders.
    smi_style = "hl-smi"
    #: Fraction of matrix peak a fused dense-attention kernel sustains.
    attention_efficiency = 0.5

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.hbm = HbmModel(spec.memory)
        self.vector = VectorUnitModel(spec.vector)
        self.power = PowerModel(spec.power)
        # Shape-keyed result caches (the device model is stateless, so
        # every estimate is a pure function of the key).
        self._gemm_cache = CostCache(f"device.gemm[{spec.name}]", maxsize=16384)
        self._attention_cache = CostCache(f"kernels.attention[{spec.name}]")

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec.name})"

    # -- interface -----------------------------------------------------
    def gemm(
        self, m: int, k: int, n: int, dtype: DType = DType.BF16, batch: int = 1
    ) -> MatmulResult:
        """Execute one (optionally batched) GEMM on the matrix engine."""
        key = (m, k, n, dtype, batch)
        result = self._gemm_cache.get(key)
        if result is None:
            result = self._gemm_uncached(m, k, n, dtype, batch)
            self._gemm_cache.put(key, result)
        return result

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        """Subclass hook: derive one GEMM estimate from scratch."""
        raise NotImplementedError

    def gemm_times(self, m, k, n, dtype: DType = DType.BF16) -> np.ndarray:
        """``gemm(m, k, n, dtype).time`` for every shape of broadcast
        ``m``/``k``/``n`` arrays, bit for bit, in one vectorized pass
        (unbatched GEMMs; the shape cache is neither read nor filled)."""
        raise NotImplementedError

    def matrix_utilization(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> float:
        """Achieved/peak utilization of one GEMM shape."""
        return self.gemm(m, k, n, dtype).utilization

    @property
    def kernel_launch_overhead(self) -> float:
        return self.spec.kernel_launch_overhead

    @property
    def peak_matrix_flops(self) -> float:
        return self.spec.matrix.peak(DType.BF16)

    @property
    def peak_vector_flops(self) -> float:
        return self.spec.vector.peak(DType.BF16)

    @property
    def peak_bandwidth(self) -> float:
        return self.spec.memory.bandwidth

    def collective_library(self, num_devices: int = 8):
        """The healthy collective library for this platform's fabric
        (HCCL on a P2P mesh, NCCL behind a switch)."""
        from repro.comm.api import HcclLibrary, NcclLibrary
        from repro.comm.topology import P2PMeshTopology, SwitchTopology

        if self.spec.interconnect.kind == "p2p-mesh":
            return HcclLibrary(P2PMeshTopology(num_devices=num_devices))
        return NcclLibrary(SwitchTopology(num_devices=num_devices))


class Gaudi2Device(Device):
    """Intel Gaudi-2: reconfigurable MME + 24 programmable TPCs."""

    family = "gaudi"
    decode_attention = "paged-opt"
    smi_style = "hl-smi"
    attention_efficiency = 0.48

    def __init__(self, spec: DeviceSpec = GAUDI2_SPEC, mme_configurable: bool = True) -> None:
        super().__init__(spec)
        self.mme = MmeModel(spec, configurable=mme_configurable)

    def gemm_times(self, m, k, n, dtype: DType = DType.BF16) -> np.ndarray:
        return self.mme.gemm_times(m, k, n, dtype)

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        estimate = (
            self.mme.gemm(m, k, n, dtype)
            if batch == 1
            else self.mme.batched_gemm(batch, m, k, n, dtype)
        )
        return MatmulResult(
            m=m,
            k=k,
            n=n,
            batch=batch,
            dtype=dtype,
            time=estimate.time,
            achieved_flops=estimate.achieved_flops,
            utilization=estimate.utilization,
            memory_bound=estimate.memory_bound,
            active_mac_fraction=estimate.active_mac_fraction,
            config_label=f"MME {estimate.config_label}",
        )


class A100Device(Device):
    """NVIDIA A100: Tensor Cores + 108 SMs of SIMD cores."""

    family = "cuda"
    decode_attention = "paged-cuda"
    smi_style = "nvidia-smi"
    attention_efficiency = 0.55

    def __init__(self, spec: DeviceSpec = A100_SPEC) -> None:
        super().__init__(spec)
        self.tensorcore = TensorCoreModel(spec)

    def gemm_times(self, m, k, n, dtype: DType = DType.BF16) -> np.ndarray:
        return self.tensorcore.gemm_times(m, k, n, dtype)

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        estimate = (
            self.tensorcore.gemm(m, k, n, dtype)
            if batch == 1
            else self.tensorcore.batched_gemm(batch, m, k, n, dtype)
        )
        tm, tn = estimate.tile
        return MatmulResult(
            m=m,
            k=k,
            n=n,
            batch=batch,
            dtype=dtype,
            time=estimate.time,
            achieved_flops=estimate.achieved_flops,
            utilization=estimate.utilization,
            memory_bound=estimate.memory_bound,
            active_mac_fraction=1.0,
            config_label=f"CTA {tm}x{tn}, {estimate.waves} waves",
        )


def get_device(name: str, fresh: bool = False) -> Device:
    """Historical alias of :func:`repro.hw.backend.get_backend`.

    Accepts any registered backend key or alias ("gaudi2"/"hpu",
    "a100"/"cuda", "h100"/"hopper", "gaudi3", ...).  Devices are
    stateless, so instances are cached unless ``fresh``.
    """
    from repro.hw.backend import get_backend

    return get_backend(name, fresh=fresh)
