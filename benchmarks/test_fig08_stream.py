"""Figure 8: STREAM ADD/SCALE/TRIAD characterization."""

import pytest

from repro.figures import run_figure


def test_fig08_stream(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "fig08", "fast": True}, rounds=1, iterations=1
    )
    save_figure(result)
    # Paper: chip saturation at ~330/530/670 GFLOPS; SCALE gains most
    # from unrolling; 50 %/99 % intensity saturation split.
    assert result.summary["chip_saturation_gflops_add"] == pytest.approx(330, rel=0.1)
    assert result.summary["chip_saturation_gflops_scale"] == pytest.approx(530, rel=0.1)
    assert result.summary["chip_saturation_gflops_triad"] == pytest.approx(670, rel=0.1)
    assert result.summary["unroll_gain_scale"] > result.summary["unroll_gain_add"]
    assert result.summary["intensity_sat_util_triad_gaudi"] > 0.9
    assert result.summary["intensity_sat_util_add_a100"] == pytest.approx(0.5, abs=0.07)
