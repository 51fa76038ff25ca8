"""Batched exact GEMM pricing equals the scalar path bit for bit.

``Device.gemm_times`` prices whole shape arrays with the same integer
and float arithmetic as ``Device.gemm``; every built-in exact backend
must agree with the scalar ``gemm(...).time`` exactly, for every dtype,
on shapes that straddle the model's boundaries: K around the 512-deep
traffic panel, ``min(m, n)`` around the 128 skinny-shape derate, and
square shapes where mirrored geometries and tiles tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.backend import get_backend
from repro.hw.device import Device, Gaudi2Device
from repro.hw.spec import GAUDI2_SPEC, DType
from repro.surrogate.sweep import gemm_grid_sweep

BACKENDS = ("gaudi2", "gaudi3", "a100", "h100")

#: Tile, geometry, wave and derate edges, with their neighbours.
_EDGES = sorted({
    v + d
    for v in (1, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
    for d in (-1, 0, 1)
    if v + d > 0
})
dims = st.one_of(st.sampled_from(_EDGES), st.integers(1, 20000))
k_dims = st.one_of(st.integers(500, 524), st.sampled_from(_EDGES), st.integers(1, 20000))


@st.composite
def shapes(draw):
    m = draw(dims)
    n = m if draw(st.booleans()) else draw(dims)  # square shapes tie mirrors
    return m, draw(k_dims), n


def _devices():
    return [get_backend(key) for key in BACKENDS] + [
        Gaudi2Device(GAUDI2_SPEC, mme_configurable=False)
    ]


@pytest.mark.parametrize("device", _devices(), ids=list(BACKENDS) + ["gaudi2-fixed"])
@pytest.mark.parametrize("dtype", list(DType), ids=lambda d: d.value)
@given(batch=st.lists(shapes(), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_gemm_times_equal_scalar(device, dtype, batch):
    m, k, n = (np.array(column) for column in zip(*batch))
    expected = np.array([device.gemm(*shape, dtype).time for shape in batch])
    assert np.array_equal(device.gemm_times(m, k, n, dtype), expected)


@pytest.mark.parametrize("key", BACKENDS)
def test_broadcasts_a_scalar_k_over_a_grid(key):
    device = get_backend(key)
    m, n = np.meshgrid([1, 100, 128, 3000], [5, 129, 4096], indexing="ij")
    times = device.gemm_times(m, 512, n)
    assert times.shape == m.shape
    for index in np.ndindex(m.shape):
        assert times[index] == device.gemm(int(m[index]), 512, int(n[index])).time


@pytest.mark.parametrize("key", BACKENDS)
def test_rejects_non_positive_dims(key):
    with pytest.raises(ValueError):
        get_backend(key).gemm_times(np.array([4, 0]), 16, 8)


def test_base_device_has_no_batched_pricer():
    with pytest.raises(NotImplementedError):
        Device(GAUDI2_SPEC).gemm_times(8, 8, 8)


@pytest.mark.parametrize("key", ("gaudi2", "a100"))
def test_exact_grid_matches_scalar_pricing(key):
    grid = gemm_grid_sweep(key, k=640, lo=16, hi=512, per_octave=3, exact=True)
    device = get_backend(key, fresh=True)
    axis = np.array(grid["axis"])
    m, n = np.meshgrid(axis, axis, indexing="ij")
    times = np.array([
        device.gemm(int(a), 640, int(b)).time for a, b in zip(m.ravel(), n.ravel())
    ])
    assert grid["points"] == times.size
    assert grid["total_time"] == float(np.sum(times.reshape(m.shape)))
