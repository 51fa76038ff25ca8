"""Figure 11: RecSys RM1/RM2 performance and energy efficiency."""

from repro.figures import run_figure


def test_fig11_recsys(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig11", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: average slowdowns (RM1 -22 %, RM2 -18 %; our model is
    # milder -- see EXPERIMENTS.md), max ~1.36x at wide vectors, down to
    # ~0.3x at small vectors, and an energy-efficiency deficit.
    assert result.summary["rm1_mean_speedup"] < 1.0
    assert result.summary["rm2_mean_speedup"] < 1.0
    assert 1.2 < result.summary["max_speedup"] < 1.5
    assert result.summary["rm2_min_speedup_small_vectors"] < 0.65
    assert result.summary["mean_energy_efficiency"] < 1.0
