"""Figure 5: GEMM compute-utilization heatmaps."""

from repro.figures import run_figure


def test_fig05_gemm_utilization(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig05", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: Gaudi-2 averages higher compute utilization (4.5 pp; our
    # model lands higher -- see EXPERIMENTS.md) with a mid-size maximum.
    assert 0.0 < result.summary["mean_square_utilization_delta"] < 0.25
    assert 0.1 < result.summary["max_square_utilization_delta"] < 0.35
