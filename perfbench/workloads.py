"""The four benchmark workloads: inputs from a seed, a body, output checks.

Each workload is a ``build(seed, scale)`` function.  Building is the
set-up the benchmark charges to ``setup_s`` (model and engine
construction, surrogate fitting, the lazy arrival stream); it returns
the body, a zero-argument callable whose host time is ``wall_s``.  The
body returns an :class:`Outcome`: the virtual-time payload the digest
is taken over, the number of work items it completed, and the output
checks that failed.

Only public ``repro`` entry points are called.  The benchmark measures
the simulator as it is; it never reaches into private state.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List

#: Work size of one body run per scale.  ``full`` is what the benchmark
#: measures; ``toy`` keeps the self-test fast.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {"serve_stream": 12_000, "fleet_diurnal": 3_000,
             "paper_sweep_per_octave": 16, "serve_observed": 1_000},
    "toy": {"serve_stream": 48, "fleet_diurnal": 60,
            "paper_sweep_per_octave": 2, "serve_observed": 24},
}

#: Poisson arrival rate of the single-engine workloads, just under the
#: sustainable rate of one Gaudi-2 Llama-3.1-8B engine at batch 64, so
#: the decode batch stays full while the waiting queue stays bounded.
SERVE_RATE = 11.0

#: Fleet traffic: diurnal mean rate and period (one period per body at
#: full size: 3,000 requests at 150 req/s).  Peaks (~270 req/s) sit just
#: above the four-node fleet's capacity, troughs far below it.
FLEET_RATE = 150.0
FLEET_PERIOD = 20.0

#: The paper figure ``paper_sweep`` leaves out: its fleet grid would
#: duplicate ``fleet_diurnal``.
SKIPPED_FIGURES = ("fleet_overload",)

#: Backends of the exact fig07-style GEMM grid.
GRID_BACKENDS = ("gaudi2", "a100")


@dataclass
class Outcome:
    """What one body run produced."""

    #: Virtual-time results; the digest is taken over their canonical JSON.
    payload: object
    #: Simulated requests that reached a terminal state, or cost-model
    #: grid points evaluated.
    items: int
    #: Failed output checks (empty when every check passed).
    problems: List[str] = field(default_factory=list)
    #: Workload-specific counters for the per-layer table.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Objects kept alive until the worker has read the memo counters.
    hold: List[object] = field(default_factory=list)


def canonical_json(value: object) -> str:
    """Sorted-key JSON with exact float reprs (numpy scalars as Python)."""

    def fallback(obj):
        if hasattr(obj, "item"):
            return obj.item()
        if hasattr(obj, "value"):  # enums
            return obj.value
        raise TypeError(f"cannot digest {type(obj).__name__}")

    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=fallback)


def digest(payload: object) -> str:
    """sha256 of the payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# -- serving -------------------------------------------------------------
def _serving_engine(ctx=None):
    from repro.hw.backend import GAUDI2
    from repro.hw.device import get_device
    from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel, default_decode_attention
    from repro.serving import LlmServingEngine

    device = get_device(GAUDI2)
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device),
        default_decode_attention(device),
        max_decode_batch=64,
        retain_requests=False,
        ctx=ctx,
    )


def _arrivals(count: int, seed: int):
    from repro.serving import iter_dynamic_sonnet_requests
    from repro.serving.loadgen import poisson_arrivals

    return poisson_arrivals(iter_dynamic_sonnet_requests(count, seed=seed), SERVE_RATE, seed=seed)


def serving_problems(report, sent: int) -> List[str]:
    """Conservation: every sent request is finished, shed, failed or
    still unfinished, and none is lost or counted twice."""
    accounted = (report.finished_requests + report.shed_requests
                 + report.failed_requests + report.unfinished_requests)
    problems = []
    if report.num_requests != sent or accounted != sent:
        problems.append(
            f"serve conservation: sent {sent}, report counts {report.num_requests}, "
            f"finished+shed+failed+unfinished = {accounted}"
        )
    return problems


def _serving_outcome(report, sent: int) -> Outcome:
    return Outcome(
        payload=asdict(report),
        items=report.finished_requests + report.shed_requests + report.failed_requests,
        problems=serving_problems(report, sent),
    )


def build_serve_stream(seed: int, scale: str) -> Callable[[], Outcome]:
    count = SIZES[scale]["serve_stream"]
    engine = _serving_engine()
    arrivals = _arrivals(count, seed)

    def body() -> Outcome:
        return _serving_outcome(engine.run(arrivals), count)

    return body


def build_serve_observed(seed: int, scale: str) -> Callable[[], Outcome]:
    """``serve_stream``'s engine and traffic, observed the way
    ``repro trace``/``repro top`` observe a run (audit comes from the
    pinned ``REPRO_AUDIT=sample`` environment)."""
    from repro.api import RunContext
    from repro.audit import get_auditor
    from repro.core import memo

    count = SIZES[scale]["serve_observed"]
    ctx = RunContext.create(seed=seed, device="gaudi2")
    engine = _serving_engine(ctx)
    arrivals = _arrivals(count, seed)

    def body() -> Outcome:
        outcome = _serving_outcome(engine.run(arrivals), count)
        start = time.perf_counter()
        memo.publish_metrics(ctx.metrics)
        auditor = get_auditor()
        if auditor is not None:
            auditor.publish_metrics(ctx.metrics)
        trace = ctx.chrome_trace()
        metrics = ctx.metrics.to_json()
        export_s = time.perf_counter() - start
        outcome.payload = {
            "report": outcome.payload,
            "chrome_trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
            "metrics_sha256": hashlib.sha256(metrics.encode()).hexdigest(),
        }
        if auditor is None:
            outcome.problems.append("serve_observed runs without an auditor")
        elif auditor.total_violations:
            outcome.problems.append(f"audit: {auditor.total_violations} violations")
        outcome.extra.update({
            "obs_spans": len(ctx.tracer.spans),
            "obs_export_s": export_s,
            "obs_export_mb": (len(trace) + len(metrics)) / 1e6,
        })
        return outcome

    return body


# -- fleet ---------------------------------------------------------------
def fleet_config(seed: int, scale: str):
    """Four Gaudi-2 TP8 nodes, three tenants (bronze on a quota),
    admission control and breakers; node 1 crashes and recovers and
    node 2's fabric degrades for part of the period."""
    from repro.cluster import (
        AdmissionPolicy,
        BreakerPolicy,
        FleetConfig,
        NodeFaultPlan,
        TenantSpec,
    )

    p = FLEET_PERIOD
    return FleetConfig(
        nodes=(("gaudi2", 4),),
        max_decode_batch=32,
        num_requests=SIZES[scale]["fleet_diurnal"],
        rate=FLEET_RATE,
        diurnal=True,
        diurnal_period=p,
        seed=seed,
        timeout=10.0,
        tenants=(
            TenantSpec(name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=2.0),
            TenantSpec(name="silver", tier=1, share=0.35, weight=2.0),
            TenantSpec(name="bronze", tier=2, share=0.40, weight=1.0,
                       quota_rate=40.0, quota_burst=40.0),
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8, max_queue_delay=20.0
        ),
        breaker=BreakerPolicy(),
        plan=NodeFaultPlan.from_spec(
            f"crash:gaudi2-1@t={0.3 * p},recover={0.5 * p};"
            f"fabric:gaudi2-2@t={0.1 * p},factor=0.5,until={0.6 * p}"
        ),
    )


def fleet_problems(report, sent: int) -> List[str]:
    """Fleet conservation and the tier-0 overload guarantee."""
    problems = []
    accounted = report.finished + report.shed + report.unfinished
    if report.admitted != sent or accounted != report.admitted:
        problems.append(
            f"fleet conservation: sent {sent}, admitted {report.admitted}, "
            f"finished+shed+unfinished = {accounted}"
        )
    for tenant in report.tenant_reports:
        if tenant.tier == 0 and tenant.overload_shed:
            problems.append(
                f"tier-0 tenant {tenant.name} lost {tenant.overload_shed} requests "
                "to overload shedding"
            )
    return problems


def build_fleet_diurnal(seed: int, scale: str) -> Callable[[], Outcome]:
    from repro.cluster import run_fleet

    config = fleet_config(seed, scale)

    def body() -> Outcome:
        report = run_fleet(config)
        return Outcome(
            payload=report.to_payload(),
            items=report.finished + report.shed,
            problems=fleet_problems(report, config.num_requests),
            extra={"failovers": report.failovers},
        )

    return body


# -- paper sweep ---------------------------------------------------------
def headline_error(rows) -> float:
    """Mean |ln(measured / paper)| over the headline figure's claims."""
    return sum(abs(math.log(row["measured"] / row["paper"])) for row in rows) / len(rows)


def sweep_problems(results: Dict[str, object], expected: List[str]) -> List[str]:
    """Every figure present, every headline value finite."""
    problems = []
    missing = sorted(set(expected) - set(results))
    if missing:
        problems.append(f"figures missing: {missing}")
    headline = results.get("headline")
    if headline is not None:
        bad = [key for key, value in headline.summary.items() if not math.isfinite(value)]
        if bad:
            problems.append(f"headline values not finite: {bad}")
    return problems


def build_paper_sweep(seed: int, scale: str) -> Callable[[], Outcome]:
    """Every figure from cold caches plus the exact GEMM grids.

    The paper's grids are fixed, so ``seed`` does not change this
    workload's inputs: its digest is the same for every seed.
    """
    import repro.hw.backend as backend_module
    from repro.core import memo
    from repro.figures import FIGURES, run_figure
    from repro.surrogate.backend import get_surrogate_model
    from repro.surrogate.sweep import gemm_grid_sweep

    del seed
    fast = scale != "full"
    per_octave = SIZES[scale]["paper_sweep_per_octave"]
    figure_ids = sorted(set(FIGURES) - set(SKIPPED_FIGURES))
    start = time.perf_counter()
    get_surrogate_model("gaudi2")  # the design_space figure's fitted model
    fit_s = time.perf_counter() - start

    def body() -> Outcome:
        memo.clear_caches()
        results = {fid: run_figure(figure_id=fid, fast=fast) for fid in figure_ids}
        # gemm_grid_sweep prices on a fresh backend instance that dies with
        # the call; keeping those instances until the end keeps their
        # memo counters visible to memo.cache_stats().
        fresh = []
        original = backend_module.get_backend

        def keep_alive(*args, **kwargs):
            instance = original(*args, **kwargs)
            fresh.append(instance)
            return instance

        backend_module.get_backend = keep_alive
        try:
            grids = [gemm_grid_sweep(b, per_octave=per_octave, exact=True)
                     for b in GRID_BACKENDS]
        finally:
            backend_module.get_backend = original
        payload = {
            "figures": {fid: {"rows": r.rows, "summary": r.summary}
                        for fid, r in results.items()},
            "gemm_grids": grids,
        }
        return Outcome(
            payload=payload,
            items=sum(len(r.rows) for r in results.values())
            + sum(g["points"] for g in grids),
            problems=sweep_problems(results, figure_ids),
            extra={"surrogate_fit_s": fit_s},
            hold=fresh,
        )

    return body


WORKLOADS: Dict[str, Callable[[int, str], Callable[[], Outcome]]] = {
    "serve_stream": build_serve_stream,
    "fleet_diurnal": build_fleet_diurnal,
    "paper_sweep": build_paper_sweep,
    "serve_observed": build_serve_observed,
}

#: ``REPRO_AUDIT`` pinned per workload; observation is part of
#: ``serve_observed``'s definition, and off everywhere else.
AUDIT_MODE = {"serve_stream": "off", "fleet_diurnal": "off",
              "paper_sweep": "off", "serve_observed": "sample"}
