"""Figure 15: embedding-lookup operators (Section 4.1 case study)."""

import pytest

from repro.figures import run_figure


def test_fig15_embedding(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig15", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: BatchedTable peaks at ~70 % utilization, improves on
    # SingleTable by ~1.5x on average, reaches ~95 % of A100 for large
    # vectors but ~47 % below 256 B.
    assert result.summary["batched_peak_utilization"] == pytest.approx(0.70, abs=0.07)
    assert result.summary["batched_over_single_mean"] > 1.4
    assert result.summary["batched_vs_a100_large_vectors"] == pytest.approx(0.9, abs=0.15)
    assert result.summary["batched_vs_a100_small_vectors"] == pytest.approx(0.47, abs=0.15)
