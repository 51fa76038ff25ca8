"""Figure 13: LLM serving energy-efficiency heatmaps."""

import pytest

from repro.figures import run_figure


def test_fig13_llm_energy(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig13", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: ~1.48x single-device energy efficiency; ~0.88x power and
    # ~1.5x energy efficiency in multi-device serving.
    assert 1.3 < result.summary["single_device_mean_energy_efficiency"] < 1.7
    assert result.summary["single_device_mean_power_ratio"] == pytest.approx(1.0, abs=0.12)
    assert result.summary["multi_device_mean_power_ratio"] == pytest.approx(0.88, abs=0.08)
    assert result.summary["multi_device_mean_energy_efficiency"] > 1.3
