"""Headline scalar claims: the paper's quotable numbers in one table."""

from repro.figures import run_figure


def test_headline_claims(benchmark, save_figure):
    result = benchmark.pedantic(
        run_figure, kwargs={"figure_id": "headline", "fast": True}, rounds=1, iterations=1
    )
    save_figure(result)
    measured = result.summary
    assert measured["llm_single_device_speedup"] > 1.0
    assert measured["recsys_mean_speedup"] < 1.0
    assert measured["vllm_opt_over_base"] > 4.0
    assert measured["sdk_embedding_vs_a100"] < 0.55
