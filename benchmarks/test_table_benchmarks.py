"""Tables 1 and 2: spec comparison and microbenchmark inventory."""

from repro.figures import run_figure


def test_table1_spec_comparison(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "table1", "fast": True}, rounds=3, iterations=1
    )
    save_figure(result)
    import pytest

    assert result.summary["matrix_tflops_ratio"] == pytest.approx(432 / 312)
    assert result.summary["power_ratio"] == 1.5


def test_table2_microbenchmark_inventory(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "table2", "fast": True}, rounds=3, iterations=1
    )
    save_figure(result)
    assert result.summary["num_microbenchmarks"] == 4
