"""Figure 7: MME geometry selection + configurability ablation."""

from repro.figures import run_figure


def test_fig07_mme_geometry(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig07", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: up to ~15 pp utilization gain over the fixed array, several
    # distinct geometries, power-gated configs for small shapes.
    assert 0.08 < result.summary["max_configurability_gain"] < 0.22
    assert result.summary["distinct_geometries"] >= 6
    assert result.summary["num_power_gated_configs"] >= 1
