"""Gaudi-2 Matrix Multiplication Engine (MME) model.

The MME is modelled as a pool of ``2 x 256 x 256`` MAC units that the
graph compiler reshapes at kernel-launch time into one of a fixed set of
output-stationary geometries (Section 2.1 and Figure 6(b) of the
paper).  Figure 7(a)'s reverse engineering shows two families:

* *full-array* geometries that use all 131,072 MACs -- the native
  ``256x256x2`` pair plus merged shapes such as ``512x256`` and
  ``1024x128``; and
* *power-gated* geometries (gray in Figure 7(a)) that activate only a
  subset of the array for small GEMMs, trading peak throughput for
  energy.

The GEMM time model additionally applies a memory-bandwidth bound from
the SRAM-blocked tiling traffic (:func:`repro.hw.systolic.blocked_gemm_traffic`)
so tall-skinny "irregular" GEMMs come out memory bound, as in the
roofline of Figure 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.memo import CostCache
from repro.hw.spec import DeviceSpec, DType, GAUDI2_SPEC
from repro.hw.systolic import (
    SystolicArray,
    SystolicGeometry,
    best_geometry,
    best_geometry_cycles,
    blocked_gemm_traffic,
    blocked_gemm_traffic_batch,
    gemm_dims,
)

#: Geometry set recovered from Figure 7(a).  Full-array shapes first,
#: then the power-gated subsets used for small GEMMs.
DEFAULT_GEOMETRIES: Sequence[SystolicGeometry] = (
    SystolicGeometry(256, 256, 2),
    SystolicGeometry(512, 256, 1),
    SystolicGeometry(256, 512, 1),
    SystolicGeometry(1024, 128, 1),
    SystolicGeometry(128, 1024, 1),
    SystolicGeometry(2048, 64, 1),
    SystolicGeometry(64, 2048, 1),
    SystolicGeometry(4096, 32, 1),
    SystolicGeometry(32, 4096, 1),
    # Power-gated subsets (gray configurations in Figure 7(a)).
    SystolicGeometry(256, 256, 1),
    SystolicGeometry(512, 128, 1),
    SystolicGeometry(128, 512, 1),
    SystolicGeometry(128, 256, 1),
    SystolicGeometry(256, 128, 1),
    SystolicGeometry(128, 128, 1),
    SystolicGeometry(64, 128, 1),
    SystolicGeometry(128, 64, 1),
    SystolicGeometry(64, 64, 1),
)

#: Fixed pipeline/dispatch efficiency of the MME datapath; calibrated to
#: the 99.3 % peak utilization the paper measures at M=K=N=8192.
MME_PIPELINE_EFFICIENCY = 0.997


@dataclass(frozen=True)
class MmeConfig:
    """The configuration the compiler chose for one GEMM."""

    geometry: SystolicGeometry
    compute_time: float
    memory_time: float

    @property
    def time(self) -> float:
        return max(self.compute_time, self.memory_time)

    @property
    def memory_bound(self) -> bool:
        return self.memory_time > self.compute_time

    @property
    def power_gated(self) -> bool:
        return self.geometry.active_macs < GAUDI2_SPEC.matrix.total_macs


@dataclass(frozen=True)
class GemmEstimate:
    """Performance estimate for one GEMM execution."""

    m: int
    k: int
    n: int
    dtype: DType
    time: float
    achieved_flops: float
    utilization: float
    config_label: str
    memory_bound: bool
    active_mac_fraction: float


class MmeModel:
    """Performance model of the reconfigurable Gaudi-2 MME."""

    def __init__(
        self,
        spec: DeviceSpec = GAUDI2_SPEC,
        geometries: Sequence[SystolicGeometry] = DEFAULT_GEOMETRIES,
        configurable: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self._configurable = (
            spec.matrix.configurable if configurable is None else configurable
        )
        if self._configurable:
            self.geometries: List[SystolicGeometry] = list(geometries)
        else:
            # The Figure 7(c) baseline: a fixed, non-configurable
            # 256x256x2 output-stationary array with the same peak.
            self.geometries = [SystolicGeometry(256, 256, 2)]
        # The geometry search dominates the simulator's wall time; its
        # result depends only on the shape key and this model's fixed
        # geometry set, so it memoizes cleanly.
        self._config_cache = CostCache(f"mme.select_config[{spec.name}]", maxsize=8192)

    # ------------------------------------------------------------------
    def select_config(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> MmeConfig:
        """Choose the geometry the graph compiler would pick.

        The compiler minimizes compute cycles, breaking ties toward the
        configuration with fewer active MACs (power gating).
        """
        key = (m, k, n, dtype)
        config = self._config_cache.get(key)
        if config is None:
            config = self._select_config_uncached(m, k, n, dtype)
            self._config_cache.put(key, config)
        return config

    def _select_config_uncached(self, m: int, k: int, n: int, dtype: DType) -> MmeConfig:
        geo, timing = best_geometry(self.geometries, m, k, n)
        clock = self.spec.matrix.clock_hz
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        compute_time = timing.cycles / (clock * MME_PIPELINE_EFFICIENCY * dtype_scale)
        traffic = blocked_gemm_traffic(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        mem_bw = self.spec.memory.bandwidth * self.spec.memory.stream_efficiency
        memory_time = traffic / mem_bw
        return MmeConfig(geometry=geo, compute_time=compute_time, memory_time=memory_time)

    def gemm(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> GemmEstimate:
        """Estimate one GEMM's execution time and utilization."""
        config = self.select_config(m, k, n, dtype)
        flops = 2.0 * m * k * n
        time = config.time
        achieved = flops / time
        utilization = achieved / self.spec.matrix.peak(dtype)
        return GemmEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=utilization,
            config_label=config.geometry.label,
            memory_bound=config.memory_bound,
            active_mac_fraction=(
                config.geometry.active_macs / self.spec.matrix.total_macs
            ),
        )

    def gemm_time(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> float:
        return self.gemm(m, k, n, dtype).time

    def gemm_times(self, m, k, n, dtype: DType = DType.BF16) -> np.ndarray:
        """:meth:`gemm_time` over broadcast shape arrays, bit for bit.

        The same geometry search and blocked traffic as
        :meth:`_select_config_uncached`, one array operation per
        geometry instead of one Python call per shape.
        """
        m, k, n = gemm_dims(m, k, n)
        clock = self.spec.matrix.clock_hz
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        cycles = best_geometry_cycles(self.geometries, m, k, n)
        compute_time = cycles / (clock * MME_PIPELINE_EFFICIENCY * dtype_scale)
        traffic = blocked_gemm_traffic_batch(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        mem_bw = self.spec.memory.bandwidth * self.spec.memory.stream_efficiency
        return np.maximum(compute_time, traffic / mem_bw)

    # ------------------------------------------------------------------
    def fixed_array_utilization(self, m: int, k: int, n: int) -> float:
        """Utilization of the non-configurable baseline (Figure 7(c)).

        Same peak FLOPS, but the geometry is pinned to ``256x256x2``.
        """
        array = SystolicArray(SystolicGeometry(256, 256, 2), self.spec.matrix.clock_hz)
        return (
            array.utilization(m, k, n, self.spec.matrix.total_macs)
            * MME_PIPELINE_EFFICIENCY
        )

    def batched_gemm(
        self, batch: int, m: int, k: int, n: int, dtype: DType = DType.BF16
    ) -> GemmEstimate:
        """Batched GEMM: independent problems fill the tile pipeline.

        The graph compiler flattens a batched GEMM into a stream of
        tiles, so the fill cost is paid once and M is effectively
        ``batch * m`` for utilization purposes (each problem still tiles
        separately in M).
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        config = self.select_config(m, k, n, dtype)
        geo = config.geometry
        tiles = batch * math.ceil(m / geo.height) * math.ceil(n / geo.width)
        passes = math.ceil(tiles / geo.engines)
        cycles = passes * k + geo.height + geo.width
        clock = self.spec.matrix.clock_hz
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        compute_time = cycles / (clock * MME_PIPELINE_EFFICIENCY * dtype_scale)
        traffic = batch * blocked_gemm_traffic(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        mem_bw = self.spec.memory.bandwidth * self.spec.memory.stream_efficiency
        time = max(compute_time, traffic / mem_bw)
        flops = 2.0 * batch * m * k * n
        achieved = flops / time
        return GemmEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=achieved / self.spec.matrix.peak(dtype),
            config_label=geo.label,
            memory_bound=traffic / mem_bw > compute_time,
            active_mac_fraction=geo.active_macs / self.spec.matrix.total_macs,
        )
