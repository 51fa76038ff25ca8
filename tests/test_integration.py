"""Cross-module integration: the full stacks wired end to end."""

import pytest

from repro import get_device
from repro.figures import generate_all
from repro.graph import Engine, Graph, GraphCompiler
from repro.models.dlrm import DlrmCostModel, RM2_CONFIG
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, RecSysServer, dynamic_sonnet_requests


class TestPublicApi:
    def test_quickstart_from_docstring(self):
        """The README/module-docstring quickstart must keep working."""
        gaudi, a100 = get_device("gaudi2"), get_device("a100")
        assert gaudi.gemm(8192, 8192, 8192).utilization == pytest.approx(0.997, abs=0.01)
        assert a100.gemm(8192, 8192, 8192).utilization == pytest.approx(0.91, abs=0.03)

    def test_version_exposed(self):
        import repro

        assert repro.__version__


class TestGraphCompilerOverDeviceModels:
    def test_gemm_activation_pipeline_on_real_costs(self, gaudi):
        """Build a graph from real device-model costs and compile it."""
        gemm_estimate = gaudi.gemm(4096, 4096, 4096)
        graph = Graph("layer")
        gemm = graph.add_op(
            "gemm", Engine.MME, gemm_estimate.time,
            input_bytes=2 * 2 * 4096 * 4096, output_bytes=2 * 4096 * 4096,
            sliceable=True,
        )
        gemm.annotations["gemm_shape"] = (1, 4096, 4096, 4096)
        graph.add_op(
            "gelu", Engine.TPC, 4096 * 4096 * 4 / 5.5e12,
            input_bytes=2 * 4096 * 4096, output_bytes=2 * 4096 * 4096,
            inputs=[gemm], fusable=True, sliceable=True,
        )
        compiled = GraphCompiler().compile(graph)
        assert compiled.total_time < gemm_estimate.time * 1.3
        assert compiled.graph.ops[0].annotations["pipelined"]


class TestServingPipelines:
    def test_llm_serving_full_stack(self, gaudi):
        """Requests -> scheduler -> paged KV -> cost model -> metrics."""
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=8,
        )
        report = engine.run(dynamic_sonnet_requests(10, seed=11))
        stats = engine.kv_stats()
        assert stats.allocated_blocks == 0  # everything freed at the end
        assert report.engine_steps > 0

    def test_recsys_serving_full_stack(self, gaudi, a100):
        for device in (gaudi, a100):
            report = RecSysServer(DlrmCostModel(RM2_CONFIG, device)).serve_batch(1024)
            assert report.latency > 0
            assert report.average_power >= device.spec.power.idle_watts


class TestFullReproduction:
    def test_generate_all_produces_every_artifact(self):
        results = generate_all(fast=True)
        assert len(results) == 16
        for figure_id, result in results.items():
            assert result.rows, f"{figure_id} produced no rows"
            assert result.summary, f"{figure_id} produced no summary"

    def test_generate_all_parallel_matches_serial(self):
        serial = generate_all(fast=True, workers=1)
        parallel = generate_all(fast=True, workers=2)
        assert list(serial) == list(parallel)  # deterministic ordering
        assert serial == parallel
