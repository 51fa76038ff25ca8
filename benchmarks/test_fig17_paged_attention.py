"""Figure 17: PagedAttention + end-to-end vLLM serving."""

import pytest

from repro.figures import run_figure


def test_fig17_paged_attention(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig17", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: 7.4x average opt-over-base speedup (up to 55.7x with
    # padding); ~45 % of the A100 kernel; comparable e2e throughput.
    assert 4.5 < result.summary["opt_over_base_mean"] < 9.0
    assert 30 < result.summary["opt_over_base_max_padding"] < 70
    assert result.summary["opt_vs_a100_mean"] == pytest.approx(0.45, abs=0.12)
    assert 0.8 < result.summary["e2e_throughput_ratio"] < 1.6
    assert result.summary["e2e_tpot_rises_with_batch"] == 1.0
