"""Frozen serving goldens: fault, policy, tier, watchdog and fleet runs.

Each case runs one serving configuration end to end and pins the
sha256 of its canonical payload -- the report with exact float reprs
plus, where the test owns the request objects, every request's
``(id, state, generated, first_token_time, finish_time, restarts,
retries)``.  The pins were captured from the per-request reference
stepper the engine used to carry, so they hold the single engine core
to that reference's semantics on every path it served: device
failure and recovery, kernel faults, HBM throttling, stragglers, link
degradation and flapping, deadline retries and shedding, admission
watermarks, total outages, mixed-tier admission, watchdog trips,
resilient load tests, multi-tenant fleets, and observed (traced) runs.

Every case runs under a strict auditor and must record no violation.

Print the current digests with ``PYTHONPATH=src python
tests/test_engine_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict

import pytest

from repro.api import RunContext
from repro.audit import Watchdog, audit_scope
from repro.cluster import (
    AdmissionPolicy,
    BreakerPolicy,
    FleetConfig,
    NodeFaultPlan,
    TenantSpec,
    UpgradePlan,
    parse_tenants_spec,
    run_fleet,
)
from repro.faults import ChaosConfig, FaultPlan, run_chaos
from repro.hw.device import get_device
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    ResiliencePolicy,
    dynamic_sonnet_requests,
    run_resilient_load_test,
)
from repro.serving.loadgen import poisson_arrivals
from repro.serving.request import RetryPolicy


def canonical(value: object) -> str:
    """Sorted-key JSON with exact float reprs (enums and numpy scalars
    reduced to plain values)."""

    def fallback(obj):
        if dataclasses.is_dataclass(obj):
            return dataclasses.asdict(obj)
        if hasattr(obj, "item"):
            return obj.item()
        if hasattr(obj, "value"):
            return obj.value
        raise TypeError(f"cannot digest {type(obj).__name__}")

    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=fallback)


def states(requests):
    return [
        (r.request_id, r.state.value, r.generated, r.first_token_time,
         r.finish_time, r.restarts, r.retries)
        for r in requests
    ]


def _engine(**kwargs) -> LlmServingEngine:
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_device("gaudi2")), **kwargs
    )


def _engine_payload(engine: LlmServingEngine, requests) -> object:
    report = engine.run(requests)
    return {
        "report": dataclasses.asdict(report),
        "fault_stats": dataclasses.asdict(engine.fault_stats),
        "requests": states(requests),
    }


# -- chaos harness (tensor-parallel box with a fault injector) -----------
def _chaos_all_faults() -> ChaosConfig:
    """TP=8 under every fault kind at once, with a deadline SLO whose
    retries and sheds the small decode batch makes reachable."""
    return ChaosConfig(
        tp=8,
        max_decode_batch=8,
        num_requests=48,
        rate=12.0,
        seed=3,
        deadline=1.5,
        max_retries=2,
        checkpoint_interval=8,
        plan=FaultPlan.from_specs(
            seed=3,
            fail_device=["3@t=0.8,recover=2.5", "5@t=1.7"],
            degrade_link=["0-1@t=0.3,factor=0.5,until=1.5"],
            flap_link=["4-6@t=1.0,period=0.4,cycles=3"],
            throttle_hbm=["0.7@t=0.5,until=2.0"],
            straggler=["2@t=1.2,factor=0.6,until=3.0"],
            kernel_fault_rate=0.05,
        ),
    )


def case_chaos_tp8_all_faults() -> object:
    return run_chaos(config=_chaos_all_faults())


def case_chaos_small_pool_sheds() -> object:
    """A 40-block pool at a 0.8 admission watermark: kv-exhaustion and
    deadline sheds, deadline retries, capacity preemption."""
    return run_chaos(config=ChaosConfig(
        tp=8,
        num_requests=40,
        seed=1,
        num_kv_blocks=40,
        deadline=0.5,
        max_retries=1,
        admission_watermark=0.8,
        plan=FaultPlan.from_specs(seed=1, fail_device=["6@t=0.4,recover=0.9"]),
    ))


def case_chaos_tp1_outage_permanent() -> object:
    return run_chaos(config=ChaosConfig(
        tp=1, num_requests=24, rate=8.0, seed=2,
        plan=FaultPlan.from_specs(seed=2, fail_device=["0@t=1.0"]),
    ))


def case_chaos_tp1_outage_recovered() -> object:
    return run_chaos(config=ChaosConfig(
        tp=1, num_requests=24, rate=8.0, seed=2, checkpoint_interval=4,
        plan=FaultPlan.from_specs(seed=2, fail_device=["0@t=1.0,recover=2.0"]),
    ))


def case_chaos_observed() -> object:
    """An observed chaos run: its chrome trace and metrics bytes."""
    ctx = RunContext.create(seed=0, device="gaudi2")
    config = _chaos_all_faults()
    config.num_requests = 24
    report = run_chaos(config=config, ctx=ctx)
    return {
        "report": report,
        "chrome_trace_sha256": hashlib.sha256(
            ctx.chrome_trace().encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            ctx.metrics.to_json().encode()).hexdigest(),
    }


def case_observed_release_stream() -> object:
    """A streamed release-mode run under a tracer and metrics: terminal
    requests fold into aggregates in retirement order."""
    ctx = RunContext.create(seed=0, device="gaudi2")
    engine = _engine(max_decode_batch=8, retain_requests=False, ctx=ctx)
    arrivals = poisson_arrivals(dynamic_sonnet_requests(40, seed=8), 11.0, seed=8)
    report = engine.run(iter(arrivals))
    return {
        "report": report,
        "chrome_trace_sha256": hashlib.sha256(
            ctx.chrome_trace().encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            ctx.metrics.to_json().encode()).hexdigest(),
    }


# -- single engine, policy paths ----------------------------------------
def case_tiered_policy() -> object:
    """Three traffic classes through one engine: (tier, arrival)
    admission, skipping unarrived premium work, deadline retries."""
    requests = poisson_arrivals(dynamic_sonnet_requests(60, seed=4), 14.0, seed=4)
    for request in requests:
        request.tier = (request.request_id * 7) % 3
    engine = _engine(
        max_decode_batch=8,
        policy=ResiliencePolicy(
            deadline=1.2,
            retry=RetryPolicy(max_retries=2, jitter=0.3, seed=4),
            checkpoint_interval=16,
            admission_watermark=0.9,
        ),
    )
    return _engine_payload(engine, requests)


def case_policy_tiny_pool() -> object:
    """A six-block pool: oversized prompts shed at feed, a lone runner
    sheds when its decode growth finds the pool full."""
    requests = dynamic_sonnet_requests(20, seed=6)
    engine = _engine(max_decode_batch=4, num_kv_blocks=6, policy=ResiliencePolicy())
    return _engine_payload(engine, requests)


def case_watchdog_partial() -> object:
    requests = poisson_arrivals(dynamic_sonnet_requests(24, seed=5), 20.0, seed=5)
    engine = _engine(max_decode_batch=8, watchdog=Watchdog(max_steps=37))
    return _engine_payload(engine, requests)


def case_resilient_load_point() -> object:
    report = run_resilient_load_test(
        engine_factory=lambda: _engine(
            max_decode_batch=16, policy=ResiliencePolicy(deadline=1.0)
        ),
        request_factory=lambda: dynamic_sonnet_requests(48, seed=5),
        offered_rate=20.0,
        seed=5,
    )
    return report.to_dict()


# -- fleets ----------------------------------------------------------------
def _fleet_overload_chaos() -> FleetConfig:
    return FleetConfig(
        nodes=(("gaudi2", 3),),
        max_decode_batch=4,
        num_requests=96,
        rate=40.0,
        timeout=10.0,
        tenants=parse_tenants_spec(
            "gold:tier=0,share=0.25,weight=4,slo=2;"
            "silver:tier=1,share=0.35,weight=2;"
            "bronze:tier=2,share=0.4,rate=8,burst=8"
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8,
            evaluate_interval=0.25, brownout_max_new_tokens=64,
            max_queue_delay=30.0,
        ),
        breaker=BreakerPolicy(failure_threshold=3, cooldown=2.0),
        upgrade=UpgradePlan.from_spec("start=1"),
        plan=NodeFaultPlan.from_spec("crash:gaudi2-1@t=2,recover=6"),
    )


def case_fleet_overload_chaos() -> object:
    """The CI overload-chaos fleet: three tenants at twice the rate, a
    crash, breakers and a rolling upgrade."""
    return run_fleet(_fleet_overload_chaos()).to_payload()


def case_fleet_overload_chaos_observed() -> object:
    """The same fleet with every node engine traced."""
    ctx = RunContext.create(seed=0)
    report = run_fleet(_fleet_overload_chaos(), ctx=ctx)
    return {
        "report": report.to_payload(),
        "chrome_trace_sha256": hashlib.sha256(
            ctx.chrome_trace().encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            ctx.metrics.to_json().encode()).hexdigest(),
    }


def case_fleet_diurnal_toy() -> object:
    """Four TP8 nodes, diurnal traffic, a crash and a fabric fault (the
    benchmark's fleet workload at its smallest size)."""
    p = 20.0
    config = FleetConfig(
        nodes=(("gaudi2", 4),),
        max_decode_batch=32,
        num_requests=60,
        rate=150.0,
        diurnal=True,
        diurnal_period=p,
        seed=0,
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
    return run_fleet(config).to_payload()


CASES: Dict[str, Callable[[], object]] = {
    name[len("case_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("case_")
}

#: sha256 of each case's canonical payload.
GOLDEN: Dict[str, str] = {
    "chaos_observed": "0e396fe89c590a43fe2242d6fa2525c4c9f27ca6457a77f7784482c338e2089e",
    "chaos_small_pool_sheds": "bf8b2dcbca1b6f692c9bfb2beb8ab8206c6f3091b5a6a7e87acfb0fc342c2a27",
    "chaos_tp1_outage_permanent": "c1ec27ec0daa9540f988ca52b3ac4cb2e9677920b383066b8739fe8657618bc1",
    "chaos_tp1_outage_recovered": "9ca6ac11c1221095a83968cb0e1d28be6b3083ae6bafc6a4fa797eb7ee7e5fa7",
    "chaos_tp8_all_faults": "37bba0957b3c8bf53783f09312ff0c6b492f61feb8990e25194e7fbbcfb826d8",
    "fleet_diurnal_toy": "a574a6772c87bf76ba8cc17d898d7fbc379b39661cf3cbfb600ba19f56dee2f0",
    "fleet_overload_chaos": "f2824ca77ef3b923022bb9510a79d213dad8024921967abd02838a14f88cfaa0",
    "fleet_overload_chaos_observed": "adb48e255f3a7271ba2802e08b256daf7248ed4b17e5e3441730784c3db65c26",
    "observed_release_stream": "12c4f479440e2915558907c50ef16f254f80ea0cd1d498ffb93f057938d67e90",
    "policy_tiny_pool": "ae16ef4f42bfb118351278a3ec6f4ed182327b550a9ee12c1b27ec32013cd641",
    "resilient_load_point": "4b194085bc3dd8aff2fa62618b352db39b394daddce0386d6a46384c73b4f78c",
    "tiered_policy": "002cd9fa36d2aa72db604e52f38719b8368f23d2f682724f0c5ac9439912ca16",
    "watchdog_partial": "7f74725da98547eb310ff7d72796cec8bfdd640a803f56b6e19f78184af82b1b",
}


def digest(name: str) -> str:
    return hashlib.sha256(canonical(CASES[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    with audit_scope("strict") as auditor:
        assert digest(name) == GOLDEN[name]
    assert auditor.total_violations == 0


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{digest(case)}",')
