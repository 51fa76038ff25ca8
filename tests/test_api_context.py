"""Redesigned run API: RunContext, keyword-only entry points, Report protocol."""

import json

import pytest

from repro.api import Report, RunContext, render_report, rows_to_csv
from repro.hw.spec import DType
from repro.hw.device import Gaudi2Device
from repro.kernels.gather_scatter import run_gather_scatter
from repro.kernels.gemm import run_gemm
from repro.kernels.stream import StreamOp, run_stream
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, fixed_length_requests


class TestRunContext:
    def test_create_binds_tracer_and_metrics(self):
        ctx = RunContext.create(seed=7, device="gaudi2")
        assert ctx.tracer and ctx.metrics is not None
        assert ctx.seed == 7

    def test_create_can_disable_instruments(self):
        ctx = RunContext.create(trace=False, metrics=False)
        assert ctx.tracer is None and ctx.metrics is None

    def test_resolve_seed_explicit_wins(self):
        ctx = RunContext.create(seed=5)
        assert ctx.resolve_seed(9) == 9
        assert ctx.resolve_seed(None) == 5

    def test_resolve_device_explicit_wins(self, gaudi, a100):
        ctx = RunContext.create(device="gaudi2")
        assert ctx.resolve_device(a100) is a100
        assert ctx.resolve_device(None).name == "Gaudi-2"

    def test_resolve_device_without_default_rejected(self):
        ctx = RunContext.create()
        with pytest.raises(ValueError, match="no default"):
            ctx.resolve_device(None)

    def test_exports_require_bound_instruments(self):
        ctx = RunContext.create(trace=False, metrics=False)
        with pytest.raises(ValueError):
            ctx.chrome_trace()
        with pytest.raises(ValueError):
            ctx.metrics_summary()


class TestMigratedEntryPoints:
    """Every migrated run_* accepts ctx= and takes keyword arguments only."""

    def test_run_gemm_rejects_positional(self, gaudi):
        with pytest.raises(TypeError):
            run_gemm(gaudi, 128, 128, 128)
        assert run_gemm(device=gaudi, m=128, k=128, n=128).time > 0

    def test_run_gemm_uses_ctx_device_and_records(self):
        ctx = RunContext.create(device="gaudi2")
        point = run_gemm(m=64, k=64, n=64, dtype=DType.BF16, ctx=ctx)
        assert point.time > 0
        assert [s.name for s in ctx.tracer.spans] == ["gemm"]
        assert ctx.metrics.counter("kernels.gemm.calls").value == 1

    def test_run_gemm_without_device_anywhere_rejected(self):
        with pytest.raises(TypeError, match="device"):
            run_gemm(m=64, k=64, n=64)

    def test_run_stream_rejects_positional(self, gaudi):
        with pytest.raises(TypeError):
            run_stream(gaudi, StreamOp.ADD)
        assert run_stream(device=gaudi, op=StreamOp.ADD).time > 0

    def test_run_stream_records_kernel_span(self):
        ctx = RunContext.create(device="gaudi2")
        run_stream(op=StreamOp.TRIAD, ctx=ctx)
        assert ctx.tracer.spans[0].name == "stream.triad"
        assert ctx.tracer.spans[0].category == "kernel"

    def test_run_gather_scatter_both_forms(self, gaudi):
        explicit = run_gather_scatter(device=gaudi, vector_bytes=1024)
        ctx = RunContext.create(device="gaudi2")
        from_ctx = run_gather_scatter(vector_bytes=1024, ctx=ctx)
        assert explicit.time == from_ctx.time
        assert ctx.tracer.spans[0].name == "gather"

    def test_run_load_test_accepts_ctx(self, gaudi):
        from repro.serving.loadgen import run_load_test

        ctx = RunContext.create(seed=3)
        report = run_load_test(
            engine_factory=lambda: LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, gaudi), max_decode_batch=8
            ),
            request_factory=lambda: fixed_length_requests(4, 64, 8),
            offered_rate=50.0,
            ctx=ctx,
        )
        assert report.achieved_rate > 0
        assert ctx.tracer.open_spans == 0
        assert ctx.metrics.counter("engine.steps").value > 0

    def test_run_figure_rejects_positional(self):
        from repro.figures import run_figure

        with pytest.raises(TypeError):
            run_figure("fig04", True)
        ctx = RunContext.create(trace=False)
        result = run_figure(figure_id="fig04", fast=True, ctx=ctx)
        assert result.figure_id == "fig04"
        assert ctx.metrics.counter("figures.runs").value == 1

    def test_run_chaos_keyword_form(self):
        from repro.faults.chaos import ChaosConfig, run_chaos

        config = ChaosConfig(tp=1, num_requests=4, max_decode_batch=4)
        ctx = RunContext.create(seed=0)
        report = run_chaos(config=config, ctx=ctx)
        assert report.num_requests == 4
        assert ctx.tracer.open_spans == 0


class TestReportProtocol:
    def _serving_report(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi), max_decode_batch=8
        )
        return engine.run(fixed_length_requests(4, 64, 8))

    def test_reports_satisfy_protocol(self, gaudi):
        from repro.core.experiment import ExperimentResult
        from repro.faults.chaos import ChaosConfig, run_chaos
        from repro.graph import Engine, Graph, GraphCompiler
        from repro.tools import GaudiProfiler

        serving = self._serving_report(gaudi)
        resilience = run_chaos(config=ChaosConfig(tp=1, num_requests=4))
        experiment = ExperimentResult("exp")
        graph = Graph("g")
        graph.add_op("gemm", Engine.MME, 10e-6, 1e3, 1e3)
        profile = GaudiProfiler().profile(GraphCompiler().compile(graph))
        for report in (serving, resilience, experiment, profile):
            assert isinstance(report, Report), type(report).__name__

    def test_serving_report_formats(self, gaudi):
        report = self._serving_report(gaudi)
        rendered = report.render()
        assert "Serving report" in rendered and "Gaudi-2" in rendered
        payload = json.loads(report.to_json())
        assert payload["num_requests"] == 4
        header = report.to_csv().splitlines()[0]
        assert "num_requests" in header

    def test_render_report_dispatch(self, gaudi):
        report = self._serving_report(gaudi)
        assert render_report(report, "text") == report.render()
        assert render_report(report, "json") == report.to_json()
        assert render_report(report, "csv") == report.to_csv()

    def test_render_report_rejects_non_reports(self):
        with pytest.raises(TypeError):
            render_report(object(), "text")

    def test_render_report_rejects_unknown_format(self, gaudi):
        with pytest.raises(ValueError, match="format"):
            render_report(self._serving_report(gaudi), "yaml")

    def test_rows_to_csv_unions_fieldnames(self):
        text = rows_to_csv([{"a": 1}, {"b": 2}])
        assert text.splitlines()[0] == "a,b"
        with pytest.raises(ValueError, match="no rows"):
            rows_to_csv([])
