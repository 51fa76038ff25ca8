"""Figure 10: collective-communication bus bandwidth."""

from repro.figures import run_figure


def test_fig10_collectives(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig10", "fast": False}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: Gaudi wins 5 of 6 collectives at 8 devices; busBW declines
    # almost linearly with fewer devices; A100 stays flat.
    assert result.summary["gaudi_wins_of_6_at_8_devices"] == 5.0
    assert result.summary["gaudi_busbw_scales_with_devices"] == 1.0
    assert result.summary["gaudi_allreduce_util_2dev"] < 0.2
    assert result.summary["a100_allreduce_util_2dev"] > 0.5
