"""Traced runs: spans around each layer's public entry points.

A traced worker wraps the public entry points listed in
:data:`ENTRY_POINTS` (method on a class, or module function replaced
in every ``repro`` module that imported it) so that each call records
a span -- layer, start, end, parent -- into an in-memory
:class:`Recorder`.  Spans are only recorded while the recorder is
active, i.e. during the workload body, so the table covers exactly the
body's wall time: each layer's self time (span durations minus the
time their child spans cover) plus ``unattributed``, the time no span
covers, sums to it.

Layers are named after ``repro`` modules (``models.llama``,
``serving.engine``, ``cluster.gateway``...); packages whose modules
share one job (``hw``, ``kernels``, ``comm``, ``tpc``, ``graph``,
``obs``, ``audit``, ``surrogate``) form one layer each.  Figure runs
are recorded per figure as ``figures.<id>`` and grouped as
``figures``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections.abc import Iterator, Sequence
from typing import Dict, List, Tuple

#: (module, attribute path, layer, what the call returns).  ``iter``
#: marks a function returning a lazy iterator, whose ``next()`` calls
#: are timed; ``callable`` marks one returning a function whose calls
#: are timed.
ENTRY_POINTS: List[Tuple[str, str, str, str]] = [
    ("repro.models.llama", "LlamaCostModel.prefill", "models.llama", ""),
    ("repro.models.llama", "LlamaCostModel.decode_step", "models.llama", ""),
    ("repro.models.llama", "LlamaCostModel.decode_step_stats", "models.llama", ""),
    ("repro.models.llama", "LlamaCostModel.decode_stepper", "models.llama", "callable"),
    ("repro.models.llama", "LlamaCostModel.generate", "models.llama", ""),
    ("repro.hw.device", "Device.gemm", "hw", ""),
    ("repro.hw.mme", "MmeModel.gemm", "hw", ""),
    ("repro.hw.mme", "MmeModel.select_config", "hw", ""),
    ("repro.hw.tensorcore", "TensorCoreModel.gemm", "hw", ""),
    ("repro.kernels.attention", "attention_time", "kernels", ""),
    ("repro.kernels.elementwise", "elementwise_cost", "kernels", ""),
    ("repro.kernels.paged_attention", "vllm_base_paged_attention", "kernels", ""),
    ("repro.kernels.paged_attention", "vllm_opt_paged_attention", "kernels", ""),
    ("repro.kernels.paged_attention", "a100_paged_attention", "kernels", ""),
    ("repro.kernels.paged_attention", "build_paged_time_fn", "kernels", "callable"),
    ("repro.kernels.embedding", "GaudiEmbeddingOperator.run", "kernels", ""),
    ("repro.kernels.embedding", "GaudiSdkSingleTable.run", "kernels", ""),
    ("repro.kernels.embedding", "A100Fbgemm.run", "kernels", ""),
    ("repro.kernels.gemm", "run_gemm", "kernels", ""),
    ("repro.kernels.stream", "run_stream", "kernels", ""),
    ("repro.kernels.gather_scatter", "run_gather_scatter", "kernels", ""),
    ("repro.comm.api", "CollectiveLibrary.run", "comm", ""),
    ("repro.comm.collectives", "collective_time", "comm", ""),
    ("repro.comm.collectives", "degraded_collective_time", "comm", ""),
    ("repro.tpc.pipeline", "VliwPipeline.simulate", "tpc", ""),
    ("repro.tpc.launcher", "TpcLauncher.launch", "tpc", ""),
    ("repro.tpc.interpreter", "TpcInterpreter.run", "tpc", ""),
    ("repro.graph.compiler", "GraphCompiler.compile", "graph", ""),
    ("repro.graph.scheduler", "schedule", "graph", ""),
    ("repro.graph.fusion", "fuse_elementwise", "graph", ""),
    ("repro.graph.pipeliner", "pipeline_mme_tpc", "graph", ""),
    ("repro.serving.engine", "LlmServingEngine.run", "serving.engine", ""),
    ("repro.serving.engine", "LlmServingEngine.run_streaming", "serving.engine", ""),
    ("repro.serving.engine", "LlmServingEngine.begin", "serving.engine", ""),
    ("repro.serving.engine", "LlmServingEngine.feed", "serving.engine", ""),
    ("repro.serving.engine", "LlmServingEngine.advance", "serving.engine", ""),
    ("repro.serving.engine", "LlmServingEngine.finish", "serving.engine", ""),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler.submit", "serving.scheduler", ""),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler.requeue", "serving.scheduler", ""),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler.step", "serving.scheduler", ""),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler.preempt", "serving.scheduler", ""),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler.shed", "serving.scheduler", ""),
    ("repro.serving.kv_cache", "BlockManager.allocate", "serving.kv_cache", ""),
    ("repro.serving.kv_cache", "BlockManager.append_token", "serving.kv_cache", ""),
    ("repro.serving.kv_cache", "BlockManager.free", "serving.kv_cache", ""),
    ("repro.serving.kv_cache", "BlockManager.can_allocate", "serving.kv_cache", ""),
    ("repro.serving.kv_cache", "BlockManager.has_headroom", "serving.kv_cache", ""),
    ("repro.serving.dataset", "dynamic_sonnet_requests", "serving.loadgen", ""),
    ("repro.serving.dataset", "iter_dynamic_sonnet_requests", "serving.loadgen", "iter"),
    ("repro.serving.loadgen", "poisson_arrivals", "serving.loadgen", "iter"),
    ("repro.serving.loadgen", "diurnal_arrivals", "serving.loadgen", "iter"),
    ("repro.cluster.fleet", "run_fleet", "cluster.fleet", ""),
    ("repro.cluster.node", "Node.begin", "cluster.node", ""),
    ("repro.cluster.node", "Node.feed", "cluster.node", ""),
    ("repro.cluster.node", "Node.advance_to", "cluster.node", ""),
    ("repro.cluster.node", "Node.reap", "cluster.node", ""),
    ("repro.cluster.node", "Node.cancel", "cluster.node", ""),
    ("repro.cluster.node", "Node.crash", "cluster.node", ""),
    ("repro.cluster.node", "Node.finish", "cluster.node", ""),
    ("repro.cluster.gateway", "Gateway.pick", "cluster.gateway", ""),
    ("repro.cluster.gateway", "Gateway.dispatch", "cluster.gateway", ""),
    ("repro.cluster.gateway", "Gateway.probe", "cluster.gateway", ""),
    ("repro.cluster.admission", "AdmissionController.offer", "cluster.admission", ""),
    ("repro.cluster.admission", "AdmissionController.pop_dispatchable", "cluster.admission", ""),
    ("repro.cluster.admission", "AdmissionController.evaluate", "cluster.admission", ""),
    ("repro.cluster.admission", "AdmissionController.cap_output_tokens", "cluster.admission", ""),
    ("repro.cluster.admission", "CircuitBreaker.blocked", "cluster.admission", ""),
    ("repro.cluster.admission", "CircuitBreaker.on_dispatch", "cluster.admission", ""),
    ("repro.cluster.admission", "CircuitBreaker.record_success", "cluster.admission", ""),
    ("repro.cluster.admission", "CircuitBreaker.record_failure", "cluster.admission", ""),
    ("repro.obs.tracer", "Tracer.begin", "obs", ""),
    ("repro.obs.tracer", "Tracer.end", "obs", ""),
    ("repro.obs.tracer", "Tracer.record", "obs", ""),
    ("repro.obs.tracer", "Tracer.record_sequential", "obs", ""),
    ("repro.obs.tracer", "Tracer.counter", "obs", ""),
    ("repro.obs.tracer", "Tracer.instant", "obs", ""),
    ("repro.obs.tracer", "Tracer.async_begin", "obs", ""),
    ("repro.obs.tracer", "Tracer.async_end", "obs", ""),
    ("repro.obs.metrics", "Counter.inc", "obs", ""),
    ("repro.obs.metrics", "Gauge.set", "obs", ""),
    ("repro.obs.metrics", "Histogram.observe", "obs", ""),
    ("repro.obs.metrics", "MetricsRegistry.to_json", "obs", ""),
    ("repro.obs.exporters", "chrome_trace_json", "obs", ""),
    ("repro.audit.auditor", "Auditor.check", "audit", ""),
    ("repro.audit.auditor", "Auditor.on_transition", "audit", ""),
    ("repro.audit.auditor", "Auditor.on_kv_op", "audit", ""),
    ("repro.audit.auditor", "Auditor.deep_check_kv", "audit", ""),
    ("repro.audit.auditor", "Auditor.check_kv_drained", "audit", ""),
    ("repro.audit.auditor", "Auditor.check_core_invariants", "audit", ""),
    ("repro.audit.auditor", "Auditor.check_collective", "audit", ""),
    ("repro.audit.auditor", "Auditor.on_memo_result", "audit", ""),
    ("repro.audit.auditor", "RunAudit.check_report", "audit", ""),
    ("repro.audit.auditor", "RunAudit.check_token_conservation", "audit", ""),
    ("repro.surrogate.sweep", "design_space_sweep", "surrogate", ""),
    ("repro.surrogate.sweep", "gemm_grid_sweep", "surrogate", ""),
    ("repro.surrogate.fitting", "SurrogateModel.gemm_predict", "surrogate", ""),
    ("repro.surrogate.backend", "SurrogateCollectiveLibrary.run", "surrogate", ""),
    ("repro.figures.common", "run_figure", "figures", ""),
]

#: Table rows, in display order.
LAYERS = [
    "models.llama", "hw", "kernels", "comm", "tpc", "graph",
    "serving.engine", "serving.scheduler", "serving.kv_cache", "serving.loadgen",
    "cluster.fleet", "cluster.node", "cluster.gateway", "cluster.admission",
    "obs", "audit", "surrogate", "figures",
]
UNATTRIBUTED = "unattributed"


class Recorder:
    """In-memory spans: parallel lists of layer, start, end, parent."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        #: Calls per entry point (``"Gateway.pick"``...) while active.
        self.entry_calls: Dict[str, int] = {}
        self.active = False

    def enter(self, layer: str) -> int:
        index = len(self.starts)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()


def _timed(fn, recorder: Recorder, layer: str, returns: str = "", entry: str = ""):
    """``fn`` recording one span per call while the recorder is active."""

    def wrapper(*args, **kwargs):
        if recorder.active:
            if entry:
                recorder.entry_calls[entry] = recorder.entry_calls.get(entry, 0) + 1
            name = layer
            if layer == "figures":
                name = f"figures.{kwargs.get('figure_id', args[0] if args else '?')}"
            index = recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(index)
        else:
            result = fn(*args, **kwargs)
        # Iterators and closures made during set-up are consumed in the body.
        if returns == "callable":
            return _timed(result, recorder, layer)
        if returns == "iter" and isinstance(result, Iterator) and not isinstance(result, Sequence):
            return _TimedIterator(result, recorder, layer)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__doc__ = fn.__doc__
    return wrapper


class _TimedIterator:
    """A lazy iterator whose ``next()`` calls record spans."""

    __slots__ = ("_inner", "_recorder", "_layer")

    def __init__(self, inner, recorder: Recorder, layer: str) -> None:
        self._inner, self._recorder, self._layer = inner, recorder, layer

    def __iter__(self):
        return self

    def __next__(self):
        if not self._recorder.active:
            return next(self._inner)
        index = self._recorder.enter(self._layer)
        try:
            return next(self._inner)
        finally:
            self._recorder.exit(index)


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` for ``recorder``.

    Module functions are also replaced in every loaded ``repro`` module
    that bound them by name (``from x import f``).
    """
    for module_name, path, layer, returns in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{module_name}.{path} is not a plain function")
        wrapped = _timed(original, recorder, layer, returns, path)
        setattr(owner, attr, wrapped)
        if owner is module:
            for name, other in list(sys.modules.items()):
                if not name.startswith("repro") or other is None:
                    continue
                namespace = vars(other)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped


def _group(layer: str) -> str:
    return "figures" if layer.startswith("figures.") else layer


def layer_table(recorder: Recorder, wall_s: float) -> Dict[str, object]:
    """Self time and calls per layer over a body of ``wall_s`` seconds.

    ``calls`` counts entries into a layer from outside it (spans with
    no ancestor in the same layer); ``inclusive_s`` is their total
    duration.  ``figures`` holds per-figure inclusive times of the
    outermost figure runs.
    """
    groups = [_group(layer) for layer in recorder.layers]
    codes: Dict[str, int] = {}
    code_of = [codes.setdefault(g, len(codes)) for g in groups]
    durations = [end - start for start, end in zip(recorder.starts, recorder.ends)]
    child = [0.0] * len(durations)
    ancestry = [0] * len(durations)
    top_level = 0.0
    for index, parent in enumerate(recorder.parents):
        if parent < 0:
            top_level += durations[index]
        else:
            child[parent] += durations[index]
            ancestry[index] = ancestry[parent] | (1 << code_of[parent])
    rows = {layer: {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0} for layer in LAYERS}
    figures: Dict[str, float] = {}
    for index, group in enumerate(groups):
        row = rows[group]
        row["self_s"] += durations[index] - child[index]
        if not ancestry[index] >> code_of[index] & 1:
            row["calls"] += 1
            row["inclusive_s"] += durations[index]
            if group == "figures":
                figure_id = recorder.layers[index][len("figures."):]
                figures[figure_id] = figures.get(figure_id, 0.0) + durations[index]
    rows[UNATTRIBUTED] = {"self_s": wall_s - top_level, "calls": 0, "inclusive_s": 0.0}
    return {"wall_s": wall_s, "spans": len(durations), "rows": rows, "figures": figures,
            "entry_calls": dict(recorder.entry_calls)}


def write_spans(recorder: Recorder, path) -> None:
    """Write the spans as ``[layer, start_us, end_us, parent]`` rows,
    times relative to the first span."""
    origin = recorder.starts[0] if recorder.starts else 0.0
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"columns":["layer","start_us","end_us","parent"],"spans":[\n')
        for index, layer in enumerate(recorder.layers):
            row = [layer, round((recorder.starts[index] - origin) * 1e6, 3),
                   round((recorder.ends[index] - origin) * 1e6, 3), recorder.parents[index]]
            out.write(("," if index else "") + json.dumps(row) + "\n")
        out.write("]}\n")


def render_table(table: Dict[str, object]) -> str:
    """Fixed-format text of a :func:`layer_table` result."""
    wall = table["wall_s"]
    lines = [f"{'layer':<20s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
    for layer, row in table["rows"].items():
        share = row["self_s"] / wall if wall > 0 else 0.0
        lines.append(f"{layer:<20s} {row['calls']:>9d} {row['self_s']:>10.4f} {share:>7.1%}")
    total = sum(row["self_s"] for row in table["rows"].values())
    lines.append(f"{'total':<20s} {table['spans']:>9d} {total:>10.4f} (traced wall {wall:.4f} s)")
    return "\n".join(lines)


# -- per-layer metrics ---------------------------------------------------
#: Figures timed one by one on ``paper_sweep`` (``figures.<id>.s``).
FIGURE_IDS = ("design_space", "fig04", "fig05", "fig07", "fig08", "fig09", "fig10",
              "fig11", "fig12", "fig13", "fig15", "fig17", "headline", "table1", "table2")
LLAMA_CACHES = ("llama.prefill", "llama.decode_terms", "llama.decode_attn",
                "llama.decode_stepper")
COST_CACHES = ("device.gemm", "mme.select_config", "kernels.attention",
               "kernels.elementwise", "tpc.pipeline")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [("models.llama.calls", "count"), ("models.llama.self_s", "s")]
    + [(f"core.memo.hit_ratio.{c}", "ratio") for c in LLAMA_CACHES + COST_CACHES]
    + [(f"core.memo.evictions.{c}", "count") for c in LLAMA_CACHES + ("device.gemm",)]
    + [(f"{layer}.self_s", "s") for layer in ("hw", "kernels", "comm", "tpc", "graph")]
    + [("serving.engine.steps", "count"), ("serving.engine.self_s", "s"),
       ("serving.engine.host_us_per_step", "us"),
       ("serving.engine_core.vectorized_share", "ratio"),
       ("serving.scheduler.self_s", "s"), ("serving.kv_cache.self_s", "s"),
       ("serving.loadgen.self_s", "s"),
       ("cluster.fleet.self_s", "s"), ("cluster.node.self_s", "s"),
       ("cluster.gateway.picks", "count"), ("cluster.gateway.self_s", "s"),
       ("cluster.gateway.failovers", "count"), ("cluster.admission.self_s", "s"),
       ("cluster.admission.brownouts", "count"), ("cluster.admission.sheds", "count"),
       ("obs.self_s", "s"), ("obs.spans", "count"), ("obs.export_s", "s"),
       ("obs.export_mb", "MB"),
       ("audit.self_s", "s"), ("audit.checks", "count"), ("audit.memo_verified", "count"),
       ("surrogate.self_s", "s"), ("surrogate.fit_s", "s"), ("surrogate.fast_share", "ratio"),
       ("figures.self_s", "s")]
    + [(f"figures.{fid}.s", "s") for fid in FIGURE_IDS]
    + [("unattributed.self_s", "s"), ("trace.wall_s", "s"), ("trace.spans", "count"),
       ("trace.overhead", "ratio")]
)


def _memo_by_base(memo: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Cache counters merged over instances (``device.gemm[Gaudi-2]`` and
    ``device.gemm[A100]`` both count as ``device.gemm``)."""
    merged: Dict[str, List[int]] = {}
    for name, counts in memo.items():
        entry = merged.setdefault(name.split("[")[0], [0, 0, 0])
        for i, value in enumerate(counts):
            entry[i] += value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: Dict[str, object], untraced_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced worker record."""
    table = traced["layers"]
    rows = table["rows"]
    counters = traced["counters"]
    extra = traced["extra"]
    memo = _memo_by_base(counters["memo"])
    core = counters["core"]
    admission = counters["admission"]
    surrogate = counters["surrogate"]
    audit = counters["audit"]
    steps = core["vectorized_steps"] + core["scalar_steps"]
    predicted = sum(v for k, v in surrogate.items() if k.endswith(".predicted"))
    fallback = sum(v for k, v in surrogate.items() if k.endswith(".fallback"))
    values: Dict[str, float] = {
        "models.llama.calls": rows["models.llama"]["calls"],
        "serving.engine.steps": steps,
        "serving.engine.host_us_per_step":
            _ratio(rows["serving.engine"]["inclusive_s"] * 1e6, steps),
        "serving.engine_core.vectorized_share": _ratio(core["vectorized_steps"], steps),
        "cluster.gateway.picks": table["entry_calls"].get("Gateway.pick", 0),
        "cluster.gateway.failovers": extra.get("failovers", 0),
        "cluster.admission.brownouts": admission.get("brownout_entries", 0),
        "cluster.admission.sheds":
            admission.get("overload_sheds", 0) + admission.get("quota_denied", 0),
        "obs.spans": extra.get("obs_spans", 0),
        "obs.export_s": extra.get("obs_export_s", 0.0),
        "obs.export_mb": extra.get("obs_export_mb", 0.0),
        "audit.checks": audit.get("checks", 0),
        "audit.memo_verified": audit.get("memo_verified", 0),
        "surrogate.fit_s": extra.get("surrogate_fit_s", 0.0),
        "surrogate.fast_share": _ratio(predicted, predicted + fallback),
        "trace.wall_s": table["wall_s"],
        "trace.spans": table["spans"],
        "trace.overhead": _ratio(table["wall_s"], untraced_wall_s),
    }
    for layer in LAYERS + [UNATTRIBUTED]:
        values[f"{layer}.self_s"] = rows[layer]["self_s"]
    for cache in LLAMA_CACHES + COST_CACHES:
        hits, misses, _ = memo.get(cache, (0, 0, 0))
        values[f"core.memo.hit_ratio.{cache}"] = _ratio(hits, hits + misses)
    for cache in LLAMA_CACHES + ("device.gemm",):
        values[f"core.memo.evictions.{cache}"] = memo.get(cache, (0, 0, 0))[2]
    for fid in FIGURE_IDS:
        values[f"figures.{fid}.s"] = table["figures"].get(fid, 0.0)
    return values
