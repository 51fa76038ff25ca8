"""Gather/scatter microbenchmark (Figure 9)."""

import numpy as np
import pytest

from repro.kernels.gather_scatter import (
    reference_gather,
    reference_scatter,
    run_gather_scatter,
)

_FAST = dict(num_vectors=200_000)


class TestGaudiBehaviour:
    def test_large_vectors_near_random_ceiling(self, gaudi):
        result = run_gather_scatter(device=gaudi, vector_bytes=256, **_FAST)
        assert result.bandwidth_utilization == pytest.approx(0.68, abs=0.05)

    def test_sub_granule_waste(self, gaudi):
        """Utilization scales with vector_size / 256 below the granule."""
        u64 = run_gather_scatter(device=gaudi, vector_bytes=64, **_FAST).bandwidth_utilization
        u256 = run_gather_scatter(device=gaudi, vector_bytes=256, **_FAST).bandwidth_utilization
        assert u64 == pytest.approx(u256 / 4, rel=0.1)

    def test_scatter_rmw_penalty(self, gaudi):
        gather = run_gather_scatter(device=gaudi, vector_bytes=64, **_FAST)
        scatter = run_gather_scatter(device=gaudi, vector_bytes=64, is_scatter=True, **_FAST)
        assert scatter.bandwidth_utilization < gather.bandwidth_utilization

    def test_no_locality_benefit_from_small_fractions(self, gaudi):
        small = run_gather_scatter(device=gaudi, vector_bytes=128, fraction_accessed=0.05, **_FAST)
        full = run_gather_scatter(device=gaudi, vector_bytes=128, fraction_accessed=1.0, **_FAST)
        assert small.bandwidth_utilization == pytest.approx(
            full.bandwidth_utilization, rel=0.15
        )


class TestA100Behaviour:
    def test_paper_average_utilizations(self, a100):
        """Paper: ~72 % for >=256 B, ~36 % average for <=128 B."""
        large = [run_gather_scatter(device=a100, vector_bytes=s, **_FAST).bandwidth_utilization
                 for s in (256, 512, 1024, 2048)]
        small = [run_gather_scatter(device=a100, vector_bytes=s, **_FAST).bandwidth_utilization
                 for s in (16, 32, 64, 128)]
        assert sum(large) / 4 == pytest.approx(0.72, abs=0.04)
        assert sum(small) / 4 == pytest.approx(0.36, abs=0.06)

    def test_l2_resident_fraction_boosts_utilization(self, a100):
        hot = run_gather_scatter(device=a100, vector_bytes=128, fraction_accessed=0.02)
        cold = run_gather_scatter(device=a100, vector_bytes=128, fraction_accessed=1.0)
        assert hot.bandwidth_utilization > cold.bandwidth_utilization


class TestCrossDevice:
    def test_small_vector_gap_matches_paper(self, gaudi, a100):
        """Paper: a 2.4x gap for sub-256 B gathers."""
        gaudi_small = sum(
            run_gather_scatter(device=gaudi, vector_bytes=s, **_FAST).bandwidth_utilization * 2.45
            for s in (16, 32, 64, 128)
        )
        a100_small = sum(
            run_gather_scatter(device=a100, vector_bytes=s, **_FAST).bandwidth_utilization * 2.0
            for s in (16, 32, 64, 128)
        )
        assert a100_small / gaudi_small == pytest.approx(2.4, abs=0.7)

    def test_parity_at_large_vectors(self, gaudi, a100):
        rg = run_gather_scatter(device=gaudi, vector_bytes=1024, **_FAST)
        ra = run_gather_scatter(device=a100, vector_bytes=1024, **_FAST)
        ratio = (rg.bandwidth_utilization * 2.45) / (ra.bandwidth_utilization * 2.0)
        assert 0.85 < ratio < 1.4


class TestValidation:
    def test_invalid_vector_size(self, gaudi):
        with pytest.raises(ValueError):
            run_gather_scatter(device=gaudi, vector_bytes=0)

    def test_invalid_fraction(self, gaudi):
        with pytest.raises(ValueError):
            run_gather_scatter(device=gaudi, vector_bytes=256, fraction_accessed=0.0)
        with pytest.raises(ValueError):
            run_gather_scatter(device=gaudi, vector_bytes=256, fraction_accessed=1.5)


class TestFunctional:
    def test_gather_matches_numpy(self):
        table = np.arange(20.0).reshape(5, 4)
        idx = np.array([3, 1, 1])
        np.testing.assert_array_equal(reference_gather(table, idx), table[idx])

    def test_scatter_roundtrip(self):
        table = np.zeros((4, 2))
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = reference_scatter(table, np.array([0, 3]), rows)
        np.testing.assert_array_equal(out[[0, 3]], rows)
