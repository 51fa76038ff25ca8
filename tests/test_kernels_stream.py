"""STREAM kernels (Figure 8) -- timing shapes and functional semantics."""

import numpy as np
import pytest

from repro.kernels.stream import StreamOp, reference_result, run_stream

_N = 1_200_000  # small enough to keep tests fast


class TestOpProperties:
    def test_flops_per_element(self):
        assert StreamOp.ADD.flops_per_element == 1
        assert StreamOp.SCALE.flops_per_element == 1
        assert StreamOp.TRIAD.flops_per_element == 2

    def test_stream_counts(self):
        assert StreamOp.ADD.num_streams == 3
        assert StreamOp.SCALE.num_streams == 2
        assert StreamOp.TRIAD.num_streams == 3

    def test_only_triad_uses_fma(self):
        assert StreamOp.TRIAD.uses_fma
        assert not StreamOp.ADD.uses_fma


class TestGaudiShapes:
    def test_granularity_cliff_below_256b(self, gaudi):
        """Figure 8(a): throughput collapses below 256 B accesses."""
        low = run_stream(
            device=gaudi, op=StreamOp.SCALE, num_elements=_N, access_bytes=32, num_cores=1
        )
        high = run_stream(
            device=gaudi, op=StreamOp.SCALE, num_elements=_N, access_bytes=256, num_cores=1
        )
        assert high.achieved_gflops > 5 * low.achieved_gflops

    def test_saturates_above_512b(self, gaudi):
        """Wider accesses stop helping once the per-TPC port binds
        (above 256 B a wide access also acts as natural unrolling)."""
        a = run_stream(
            device=gaudi, op=StreamOp.SCALE, num_elements=_N, access_bytes=512, num_cores=1
        )
        b = run_stream(
            device=gaudi, op=StreamOp.SCALE, num_elements=_N, access_bytes=2048, num_cores=1
        )
        assert b.achieved_gflops == pytest.approx(a.achieved_gflops, rel=0.15)

    def test_scale_gains_most_from_unrolling(self, gaudi):
        """Figure 8(b): SCALE improves remarkably; ADD/TRIAD slightly."""
        gains = {}
        for op in StreamOp:
            base = run_stream(device=gaudi, op=op, num_elements=_N, unroll=1, num_cores=1)
            unrolled = run_stream(device=gaudi, op=op, num_elements=_N, unroll=4, num_cores=1)
            gains[op] = unrolled.achieved_gflops / base.achieved_gflops
        assert gains[StreamOp.SCALE] > gains[StreamOp.ADD]
        assert gains[StreamOp.SCALE] > gains[StreamOp.TRIAD]
        assert gains[StreamOp.SCALE] > 1.3
        assert gains[StreamOp.ADD] < 1.35

    def test_chip_saturation_levels(self, gaudi):
        """Figure 8(c): ~330 / ~530 / ~670 GFLOPS for ADD/SCALE/TRIAD."""
        targets = {StreamOp.ADD: 330, StreamOp.SCALE: 530, StreamOp.TRIAD: 670}
        for op, target in targets.items():
            result = run_stream(device=gaudi, op=op, num_elements=24_000_000, unroll=4)
            assert result.achieved_gflops == pytest.approx(target, rel=0.1)

    def test_intensity_saturation_split(self, gaudi):
        """Figure 8(d, f): ADD -> ~50 % of peak, TRIAD -> ~99 %."""
        add = run_stream(
            device=gaudi, op=StreamOp.ADD, num_elements=_N, unroll=4, compute_chain=256
        )
        triad = run_stream(
            device=gaudi, op=StreamOp.TRIAD, num_elements=_N, unroll=4, compute_chain=256
        )
        assert add.achieved_gflops / 11000 == pytest.approx(0.5, abs=0.05)
        assert triad.achieved_gflops / 11000 == pytest.approx(0.99, abs=0.05)


class TestA100Shapes:
    def test_a100_memory_bound_at_low_intensity(self, a100):
        result = run_stream(device=a100, op=StreamOp.TRIAD, num_elements=_N)
        assert result.bottleneck == "hbm-bandwidth"

    def test_a100_triad_saturates_near_peak(self, a100):
        result = run_stream(device=a100, op=StreamOp.TRIAD, num_elements=_N, compute_chain=512)
        assert result.achieved_gflops / 39000 == pytest.approx(1.0, abs=0.05)

    def test_a100_wins_compute_bound_gaudi_wins_memory_bound(self, gaudi, a100):
        """Figure 8(d-f): the crossover between the platforms."""
        mem_g = run_stream(device=gaudi, op=StreamOp.TRIAD, num_elements=_N, unroll=4)
        mem_a = run_stream(device=a100, op=StreamOp.TRIAD, num_elements=_N)
        assert mem_g.achieved_gflops > mem_a.achieved_gflops  # 1.2x bandwidth
        cmp_g = run_stream(
            device=gaudi, op=StreamOp.TRIAD, num_elements=_N, unroll=4, compute_chain=256
        )
        cmp_a = run_stream(device=a100, op=StreamOp.TRIAD, num_elements=_N, compute_chain=256)
        assert cmp_a.achieved_gflops > 3 * cmp_g.achieved_gflops  # 3.5x vector


class TestFunctional:
    def test_add_reference(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        np.testing.assert_allclose(reference_result(StreamOp.ADD, a, b), [4.0, 6.0])

    def test_scale_reference(self):
        np.testing.assert_allclose(
            reference_result(StreamOp.SCALE, np.array([2.0]), scalar=3.0), [6.0]
        )

    def test_triad_reference(self):
        out = reference_result(StreamOp.TRIAD, np.array([2.0]), np.array([1.0]), scalar=3.0)
        np.testing.assert_allclose(out, [7.0])

    def test_binary_ops_require_two_arrays(self):
        with pytest.raises(ValueError):
            reference_result(StreamOp.ADD, np.array([1.0]))

    def test_kernel_functional_attached(self, gaudi):
        result = run_stream(device=gaudi, op=StreamOp.ADD, num_elements=1000, num_cores=1)
        assert result.op is StreamOp.ADD  # timing ran; semantics live in reference


class TestValidation:
    def test_invalid_elements(self, gaudi):
        with pytest.raises(ValueError):
            run_stream(device=gaudi, op=StreamOp.ADD, num_elements=0)

    def test_invalid_chain(self, gaudi):
        with pytest.raises(ValueError):
            run_stream(device=gaudi, op=StreamOp.ADD, num_elements=100, compute_chain=0)

    def test_unknown_device_type(self):
        with pytest.raises(TypeError):
            run_stream(device=object(), op=StreamOp.ADD, num_elements=100)
