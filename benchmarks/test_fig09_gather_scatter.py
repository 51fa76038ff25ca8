"""Figure 9: vector gather/scatter bandwidth utilization."""

import pytest

from repro.figures import run_figure


def test_fig09_gather_scatter(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig09", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: Gaudi 64 %/15 % for large/small gathers vs A100 72 %/36 %.
    assert result.summary["gaudi_gather_util_large"] == pytest.approx(0.64, abs=0.07)
    assert result.summary["a100_gather_util_large"] == pytest.approx(0.72, abs=0.05)
    assert result.summary["gaudi_gather_util_small"] == pytest.approx(0.15, abs=0.05)
    assert result.summary["a100_gather_util_small"] == pytest.approx(0.36, abs=0.07)
    assert result.summary["small_vector_gap"] == pytest.approx(2.4, abs=0.8)
