"""Generic output-stationary systolic array cycle model.

This is the substrate for both the Gaudi MME model (which can pick from
several geometries at runtime) and the fixed-geometry baseline the paper
uses as the comparison point in Figure 7(c).

Model
-----
An output-stationary array of height ``H`` and width ``W`` computes an
``H x W`` tile of the output matrix per *pass*: operand matrix ``A``
rows stream in from the left, ``B`` columns from the top, and each PE
accumulates one output element over the full ``K`` reduction.  One pass
therefore takes ``K`` cycles in steady state, plus an ``H + W`` pipeline
fill/drain that is paid once because consecutive passes are pipelined
(the next tile's operands start streaming while the previous tile
drains).

A GEMM of shape ``(M, K, N)`` needs ``ceil(M/H) * ceil(N/W)`` tiles.
With ``E`` identical engines working on different tiles in parallel the
number of sequential passes is ``ceil(tiles / E)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np


@dataclass(frozen=True)
class SystolicGeometry:
    """One configuration of a systolic array.

    ``height x width`` is the output-tile shape; ``engines`` is the
    number of identical arrays operating on independent tiles (the
    native Gaudi-2 configuration is two 256x256 arrays -> ``(256, 256,
    2)``).
    """

    height: int
    width: int
    engines: int = 1

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0 or self.engines <= 0:
            raise ValueError(f"invalid geometry {self!r}")

    @property
    def active_macs(self) -> int:
        """Number of MAC units this configuration keeps powered."""
        return self.height * self.width * self.engines

    @property
    def label(self) -> str:
        if self.engines == 1:
            return f"{self.height}x{self.width}"
        return f"{self.height}x{self.width}x{self.engines}"


@dataclass(frozen=True)
class SystolicTiming:
    """Result of a GEMM cycle estimate on a systolic array."""

    geometry: SystolicGeometry
    tiles: int
    passes: int
    cycles: float

    def time_seconds(self, clock_hz: float) -> float:
        return self.cycles / clock_hz


class SystolicArray:
    """An output-stationary systolic array with a fixed geometry."""

    def __init__(self, geometry: SystolicGeometry, clock_hz: float) -> None:
        self.geometry = geometry
        self.clock_hz = clock_hz

    def gemm_timing(self, m: int, k: int, n: int) -> SystolicTiming:
        """Cycle count for an ``(M, K, N)`` GEMM on this geometry."""
        if min(m, k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
        geo = self.geometry
        tiles = math.ceil(m / geo.height) * math.ceil(n / geo.width)
        passes = math.ceil(tiles / geo.engines)
        fill = geo.height + geo.width
        cycles = passes * k + fill
        return SystolicTiming(geometry=geo, tiles=tiles, passes=passes, cycles=cycles)

    def gemm_time(self, m: int, k: int, n: int) -> float:
        """GEMM execution time in seconds (compute only)."""
        return self.gemm_timing(m, k, n).time_seconds(self.clock_hz)

    def utilization(self, m: int, k: int, n: int, total_macs: int) -> float:
        """Achieved/peak MAC utilization relative to ``total_macs``.

        ``total_macs`` is the full physical array size, so a power-gated
        geometry can never exceed ``active_macs / total_macs``.
        """
        timing = self.gemm_timing(m, k, n)
        ideal_cycles = (m * k * n) / float(total_macs)
        return ideal_cycles / timing.cycles


def blocked_gemm_traffic(
    m: int, k: int, n: int, itemsize: int, sram_bytes: int, k_panel: int = 512
) -> float:
    """Off-chip traffic of a GEMM blocked through on-chip SRAM, bytes.

    Both platforms stage operand panels on chip (the Gaudi graph
    compiler through the 48 MB shared SRAM, cuBLAS through the 40 MB
    L2), streaming K in panels of ``k_panel``.  With a square block of
    side ``b`` chosen so that an A panel, a B panel, and the output
    block fit on chip, A is re-read ``ceil(N/b)`` times and B
    ``ceil(M/b)`` times; C is written once.
    """
    block = max(64, (sram_bytes // itemsize) // (3 * min(k, k_panel)))
    a_reads = math.ceil(n / block) * m * k
    b_reads = math.ceil(m / block) * k * n
    c_writes = m * n
    return float(itemsize) * (a_reads + b_reads + c_writes)


def gemm_dims(m, k, n) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcast GEMM dimensions to int64 arrays of one common shape.

    The batched pricers do their ceil-divisions in int64, so they are
    exact while every operand count (``m * k * ceil(n / 64)`` and the
    like) fits in 63 bits.
    """
    dims = np.broadcast_arrays(*(np.asarray(d, dtype=np.int64) for d in (m, k, n)))
    if any((d <= 0).any() for d in dims):
        raise ValueError("GEMM dims must be positive")
    return dims[0], dims[1], dims[2]


def blocked_gemm_traffic_batch(
    m: np.ndarray, k: np.ndarray, n: np.ndarray, itemsize: int, sram_bytes: int,
    k_panel: int = 512,
) -> np.ndarray:
    """:func:`blocked_gemm_traffic` over int64 arrays, bit for bit.

    The ceil-divisions and the operand counts are exact in int64; the
    count is converted to float once, as the scalar form does.
    """
    block = np.maximum(64, (sram_bytes // itemsize) // (3 * np.minimum(k, k_panel)))
    a_reads = -(-n // block) * m * k
    b_reads = -(-m // block) * k * n
    return float(itemsize) * (a_reads + b_reads + m * n).astype(np.float64)


def best_geometry_cycles(
    geometries: Iterable[SystolicGeometry], m: np.ndarray, k: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """Cycle count of :func:`best_geometry`'s pick, per shape.

    A GEMM's time depends on its geometry only through the cycle count,
    and :func:`best_geometry` minimizes it (its fewer-MACs tie-break
    only chooses among equal counts), so the minimum over the geometry
    list is the winner's count.
    """
    best = None
    for geo in geometries:
        tiles = -(-m // geo.height) * -(-n // geo.width)
        cycles = -(-tiles // geo.engines) * k + (geo.height + geo.width)
        best = cycles if best is None else np.minimum(best, cycles)
    if best is None:
        raise ValueError("no geometries supplied")
    return best


def best_geometry(
    geometries: Iterable[SystolicGeometry],
    m: int,
    k: int,
    n: int,
) -> Tuple[SystolicGeometry, SystolicTiming]:
    """Pick the fastest geometry for a GEMM shape.

    Ties (same cycle count) are broken toward fewer active MACs, which
    models the power-gating preference observed for the gray configs in
    Figure 7(a).
    """
    if min(m, k, n) <= 0:
        raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
    # Hot path (every uncached GEMM estimate walks the whole geometry
    # list): compare raw cycle counts inline and only materialize the
    # SystolicTiming for the winner.
    best_geo: SystolicGeometry | None = None
    best_cycles = 0.0
    best_macs = 0
    for geo in geometries:
        tiles = math.ceil(m / geo.height) * math.ceil(n / geo.width)
        cycles = math.ceil(tiles / geo.engines) * k + geo.height + geo.width
        macs = geo.height * geo.width * geo.engines
        if (
            best_geo is None
            or cycles < best_cycles - 1e-9
            or (abs(cycles - best_cycles) <= 1e-9 and macs < best_macs)
        ):
            best_geo, best_cycles, best_macs = geo, cycles, macs
    if best_geo is None:
        raise ValueError("no geometries supplied")
    return best_geo, SystolicArray(best_geo, clock_hz=1.0).gemm_timing(m, k, n)
