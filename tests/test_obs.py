"""Unit tests for the observability layer (repro.obs)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    flat_json,
    text_summary,
)


class TestSpanNesting:
    def test_begin_parents_under_innermost_open_span(self):
        tracer = Tracer()
        outer = tracer.begin("run", "engine", 0.0)
        inner = tracer.begin("step", "engine", 0.0)
        leaf = tracer.begin("prefill", "engine", 0.1)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id

    def test_span_ids_are_sequential(self):
        tracer = Tracer()
        spans = [tracer.begin(f"s{i}", "c", float(i)) for i in range(4)]
        assert [s.span_id for s in spans] == [1, 2, 3, 4]

    def test_end_requires_lifo_order(self):
        tracer = Tracer()
        outer = tracer.begin("outer", "c", 0.0)
        tracer.begin("inner", "c", 0.0)
        with pytest.raises(ValueError, match="innermost"):
            tracer.end(outer, 1.0)

    def test_end_before_start_rejected(self):
        tracer = Tracer()
        span = tracer.begin("s", "c", 5.0)
        with pytest.raises(ValueError, match="before it starts"):
            tracer.end(span, 4.0)

    def test_record_does_not_touch_the_stack(self):
        tracer = Tracer()
        parent = tracer.begin("step", "engine", 0.0)
        child = tracer.record("allreduce", "collective", 0.2, 0.3, size_bytes=1024)
        assert tracer.open_spans == 1
        assert child.parent_id == parent.span_id
        assert child.end == 0.3
        assert child.args["size_bytes"] == 1024

    def test_record_sequential_advances_cursor(self):
        tracer = Tracer()
        first = tracer.record_sequential("gemm", "kernel", 1.5)
        second = tracer.record_sequential("gemm", "kernel", 0.5)
        assert (first.start, first.end) == (0.0, 1.5)
        assert (second.start, second.end) == (1.5, 2.0)

    def test_finish_closes_open_spans_innermost_first(self):
        tracer = Tracer()
        outer = tracer.begin("outer", "c", 0.0)
        inner = tracer.begin("inner", "c", 1.0)
        tracer.finish(9.0)
        assert tracer.open_spans == 0
        assert outer.end == 9.0 and inner.end == 9.0

    def test_category_busy_sums_closed_spans(self):
        tracer = Tracer()
        tracer.record("a", "engine", 0.0, 1.0)
        tracer.record("b", "engine", 1.0, 1.5)
        tracer.begin("open", "engine", 2.0)  # open: not counted
        assert tracer.category_busy("engine") == pytest.approx(1.5)

    def test_truthiness(self):
        assert Tracer()
        assert not NullTracer()
        assert not NULL_TRACER

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        span = tracer.begin("s", "c", 0.0)
        tracer.end(span, 1.0)
        tracer.record("r", "c", 0.0, 1.0)
        tracer.counter("n", 0.0, 1.0)
        tracer.instant("i", "c", 0.0)
        tracer.async_begin("a", "c", 0.0, 1)
        tracer.async_end("a", "c", 1.0, 1)
        assert tracer.spans == []
        assert tracer.counters == []
        assert tracer.instants == []
        assert tracer.async_events == []


class TestExporters:
    def _tracer(self):
        tracer = Tracer("test-proc")
        run = tracer.begin("run", "engine", 0.0)
        tracer.record("alloc", "kv", 0.0, 0.0, blocks=2)
        tracer.counter("power.watts", 0.5, 123.0)
        tracer.instant("preempt", "scheduler", 0.25, request_id=7)
        tracer.async_begin("request-1", "request", 0.0, 1)
        tracer.async_end("request-1", "request", 1.0, 1)
        tracer.end(run, 1.0)
        return tracer

    def test_chrome_trace_structure(self):
        document = json.loads(chrome_trace_json(self._tracer()))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C", "i", "b", "e"} <= phases
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "test-proc" in names

    def test_tids_allocated_in_first_seen_order(self):
        events = chrome_trace_events(self._tracer())
        tracks = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tracks["engine"] == 1
        assert tracks["kv"] == 2
        assert tracks["scheduler"] == 3
        assert tracks["request"] == 4

    def test_timestamps_are_microseconds(self):
        events = chrome_trace_events(self._tracer())
        run = next(e for e in events if e.get("name") == "run")
        assert run["ts"] == 0.0
        assert run["dur"] == pytest.approx(1e6)

    def test_open_spans_not_exported(self):
        tracer = Tracer()
        tracer.begin("open", "engine", 0.0)
        events = chrome_trace_events(tracer)
        assert not [e for e in events if e["ph"] == "X"]

    def test_flat_json_round_trips(self):
        document = json.loads(flat_json(self._tracer()))
        assert document["process"] == "test-proc"
        assert document["spans"][0]["name"] == "run"
        assert document["counters"][0]["value"] == 123.0

    def test_text_summary_lists_categories(self):
        summary = text_summary(self._tracer())
        assert "engine" in summary and "kv" in summary
        assert "hottest spans" in summary


def oracle_events(tracer: Tracer, pid: int = 1) -> list:
    """The trace schema as event dicts: the reference the template
    writer in ``repro.obs.exporters`` must reproduce byte for byte."""
    tids: dict = {}
    for record in (*tracer.spans, *tracer.instants, *tracer.async_events):
        tids.setdefault(record.category, len(tids) + 1)
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": tracer.process_name}}
    ]
    for category, tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": category}}
        )
    for span in tracer.spans:
        if span.end is None:
            continue
        events.append({
            "name": span.name, "cat": span.category, "ph": "X", "pid": pid,
            "tid": tids[span.category], "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3), "args": span.args,
        })
    for sample in tracer.counters:
        events.append({
            "name": sample.name, "ph": "C", "pid": pid,
            "ts": round(sample.t * 1e6, 3), "args": {"value": sample.value},
        })
    for instant in tracer.instants:
        events.append({
            "name": instant.name, "cat": instant.category, "ph": "i", "s": "t",
            "pid": pid, "tid": tids[instant.category],
            "ts": round(instant.t * 1e6, 3), "args": instant.args,
        })
    for half in tracer.async_events:
        events.append({
            "name": half.name, "cat": half.category, "ph": half.phase,
            "id": half.async_id, "pid": pid, "tid": tids[half.category],
            "ts": round(half.t * 1e6, 3), "args": half.args,
        })
    return events


def oracle_json(tracer: Tracer, pid: int = 1) -> str:
    document = {"traceEvents": oracle_events(tracer, pid), "displayTimeUnit": "ms"}
    return json.dumps(document, indent=1, sort_keys=True)


def _nan_as_text(value):
    """``value`` with NaN floats replaced (NaN never equals itself)."""
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, dict):
        return {key: _nan_as_text(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_nan_as_text(item) for item in value]
    return value


_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\r\t\x00\x1f\x7f%é€\u2028😀'), st.characters()),
    max_size=6,
)
_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
)
_scalars = st.one_of(_text, st.integers(), st.booleans(), st.none(), _floats)
_values = st.one_of(
    _scalars,
    st.recursive(
        _scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
        max_leaves=6,
    ),
)
#: Keyword names the ``Tracer`` recording methods take positionally; an
#: args key equal to one cannot be passed through ``**args`` at all.
_TRACER_PARAMS = {"name", "category", "start", "end", "t", "async_id"}
_args = st.dictionaries(
    _text.filter(lambda key: key not in _TRACER_PARAMS), _values, max_size=4
)
_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_records = st.lists(
    st.one_of(
        st.tuples(st.just("span"), _text, _text, _times, _times, _args),
        st.tuples(st.just("open"), _text, _text, _times, _args),
        st.tuples(st.just("counter"), _text, _times, _floats),
        st.tuples(st.just("instant"), _text, _text, _times, _args),
        st.tuples(st.just("async"), _text, _text, _times, st.integers(), _args),
    ),
    max_size=12,
)


def _build_tracer(process_name: str, records) -> Tracer:
    tracer = Tracer(process_name)
    for kind, *fields in records:
        if kind == "span":
            name, category, start, length, args = fields
            tracer.record(name, category, start, start + length, **args)
        elif kind == "open":
            name, category, start, args = fields
            tracer.begin(name, category, start, **args)
        elif kind == "counter":
            tracer.counter(*fields)
        elif kind == "instant":
            name, category, t, args = fields
            tracer.instant(name, category, t, **args)
        else:
            name, category, t, async_id, args = fields
            tracer.async_begin(name, category, t, async_id, **args)
            tracer.async_end(name, category, t, async_id, **args)
    return tracer


class TestChromeTraceWriter:
    """The template writer equals ``json.dumps`` over event dicts."""

    @settings(max_examples=200, deadline=None)
    @given(_text, _records, st.integers(min_value=-(2**40), max_value=2**40))
    def test_matches_the_dict_oracle(self, process_name, records, pid):
        tracer = _build_tracer(process_name, records)
        assert chrome_trace_json(tracer, pid) == oracle_json(tracer, pid)
        assert _nan_as_text(chrome_trace_events(tracer, pid)) == _nan_as_text(
            oracle_events(tracer, pid)
        )

    def test_default_pid_is_one(self):
        tracer = TestExporters()._tracer()
        assert chrome_trace_json(tracer) == oracle_json(tracer, 1)

    def test_non_str_keys_and_tuples_take_the_json_fallback(self):
        tracer = Tracer()
        tracer.record("s", "c", 0.0, 1.0, shape=(2, 3))
        tracer.record("t", "c", 0.0, 1.0).args.update({7: "int", 3: [1.5, {"b": 1, "a": 2}]})
        tracer.instant("mark", "c", 0.5, empty={}, nested={"z": [], "y": "\n"})
        assert chrome_trace_json(tracer) == oracle_json(tracer)
        tracer.spans[0].args[None] = 1  # unsortable keys fail as in json
        with pytest.raises(TypeError):
            oracle_json(tracer)
        with pytest.raises(TypeError):
            chrome_trace_json(tracer)

    def test_profiler_document(self):
        from repro.graph import Engine, Graph, GraphCompiler
        from repro.tools import GaudiProfiler, chrome_trace
        from repro.tools.profiler import profile_tracer

        graph = Graph("layer")
        gemm = graph.add_op("gemm", Engine.MME, 100e-6, 1e6, 1e6, sliceable=True)
        graph.add_op("act", Engine.TPC, 40e-6, 1e6, 1e6, inputs=[gemm],
                     fusable=True, sliceable=True)
        report = GaudiProfiler().profile(GraphCompiler().compile(graph))
        assert chrome_trace(report) == oracle_json(profile_tracer(report, "Gaudi-2"))

    def test_serving_run_document(self):
        from repro.api import RunContext
        from repro.hw.device import get_device
        from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
        from repro.serving import LlmServingEngine, dynamic_sonnet_requests

        ctx = RunContext.create(seed=0, device="gaudi2")
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, get_device("gaudi2")), max_decode_batch=4, ctx=ctx
        )
        engine.run(dynamic_sonnet_requests(6, seed=2))
        assert chrome_trace_json(ctx.tracer) == oracle_json(ctx.tracer)


class TestMetrics:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_gauge_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 5.0

    def test_gauge_high_water_mark_handles_negative_start(self):
        gauge = Gauge("g")
        gauge.set(-3.0)
        assert gauge.max_value == -3.0

    def test_histogram_statistics(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0 and histogram.max == 4.0
        from repro.core.metrics import percentile

        assert histogram.percentile(50) == percentile([1.0, 2.0, 3.0, 4.0], 50)
        assert histogram.percentile(100) == 4.0

    def test_empty_histogram_is_zeroes(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0

    def test_registry_lazily_creates_and_reuses(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert registry.get("missing") is None

    def test_registry_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="not a Gauge"):
            registry.gauge("x")

    def test_snapshot_and_json_are_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(1.0)
        registry.counter("a").inc()
        registry.histogram("c").observe(2.0)
        assert list(registry.snapshot()) == ["a", "b", "c"]
        assert registry.to_json() == registry.to_json()

    def test_render_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.gauge("level").set(0.5)
        registry.histogram("lat").observe(1.0)
        rendered = registry.render()
        for name in ("events", "level", "lat"):
            assert name in rendered
        assert MetricsRegistry().render() == "  (no metrics recorded)"
