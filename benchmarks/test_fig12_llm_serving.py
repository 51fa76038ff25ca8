"""Figure 12: LLM serving speedup heatmaps + latency breakdown."""

from repro.figures import run_figure


def test_fig12_llm_serving(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig12", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: 1.47x average single-device speedup; multi-device speedups
    # of 1.29x/1.32x/1.35x increasing with device count.
    assert 1.25 < result.summary["single_device_mean_speedup"] < 1.6
    assert result.summary["single_device_max_speedup"] > 1.3
    assert (
        result.summary["tp8_mean_speedup"]
        > result.summary["tp4_mean_speedup"]
        > 1.0
    )
