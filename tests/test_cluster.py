"""Fleet-level resilience: nodes, gateway, chaos, autoscaling, reports."""

import json
import math

import pytest

from repro.audit import ConfigError, JournalError, audit_scope
from repro.cluster import (
    AutoscalePolicy,
    FleetConfig,
    Gateway,
    Node,
    NodeClass,
    NodeFaultKind,
    NodeFaultPlan,
    NodeState,
    FleetResilienceReport,
    resume_fleet,
    run_fleet,
)
from repro.faults import GATEWAY_SHED_PREFIX, shed_reason_counts
from repro.serving.dataset import fixed_length_requests
from repro.serving.engine import LlmServingEngine
from repro.serving.loadgen import diurnal_arrivals, poisson_arrivals
from repro.serving.request import Request, RequestState, RetryPolicy


def _build_engine(**kwargs):
    from repro.hw.device import Gaudi2Device
    from repro.models.llama import LLAMA_3_1_8B, DecodeAttention, LlamaCostModel

    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, Gaudi2Device()),
        DecodeAttention.PAGED_OPT,
        **kwargs,
    )


class TestRetryPolicyJitter:
    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_multiplier=2.0, jitter=0.0)
        assert policy.backoff(0) == 0.5
        assert policy.backoff(1) == 1.0
        assert policy.backoff(2) == 2.0

    def test_jitter_is_deterministic_per_token_and_attempt(self):
        policy = RetryPolicy(jitter=0.5, seed=3)
        assert policy.backoff(1, token=7) == policy.backoff(1, token=7)
        assert policy.backoff(1, token=7) != policy.backoff(1, token=8)
        assert policy.backoff(1, token=7) != policy.backoff(2, token=7)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_multiplier=1.0, jitter=0.25)
        for token in range(50):
            delay = policy.backoff(0, token=token)
            assert 0.75 <= delay <= 1.25

    def test_max_backoff_caps_before_jitter(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_multiplier=10.0, jitter=0.0, max_backoff=3.0
        )
        assert policy.backoff(5) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff=-1.0)


class TestEngineStreamingApi:
    def test_streaming_matches_batch_run(self):
        requests = fixed_length_requests(8, input_len=128, output_len=32)
        batch = _build_engine().run(
            fixed_length_requests(8, input_len=128, output_len=32)
        )
        engine = _build_engine()
        engine.begin()
        for request in requests:
            engine.feed(request)
        while engine.has_unfinished:
            engine.advance(engine.now + 0.05)
        streamed = engine.finish()
        assert streamed.to_dict() == batch.to_dict()

    def test_advance_does_not_jump_past_idle_horizon(self):
        engine = _build_engine()
        engine.begin()
        request = fixed_length_requests(1, input_len=64, output_len=8)[0]
        request.arrival_time = 5.0
        engine.feed(request)
        assert engine.advance(1.0) <= 1.0
        engine.advance(math.inf)
        report = engine.finish()
        assert report.finished_requests == 1


class TestNodeFaultPlan:
    def test_from_spec_round_trip(self):
        plan = NodeFaultPlan.from_spec(
            "crash:gaudi2-1@t=2,recover=6;"
            "brownout:a100-0@t=1,factor=0.5,until=4;"
            "fabric:gaudi2-0@t=3,factor=0.25,until=5;"
            "blip:gaudi2-2@t=2.5,duration=1"
        )
        kinds = [event.kind for event in plan.scheduled()]
        assert kinds == [
            NodeFaultKind.BROWNOUT,
            NodeFaultKind.NODE_CRASH,
            NodeFaultKind.BLIP,
            NodeFaultKind.FABRIC_DEGRADE,
            NodeFaultKind.BLIP_CLEAR,
            NodeFaultKind.BROWNOUT_CLEAR,
            NodeFaultKind.FABRIC_RESTORE,
            NodeFaultKind.NODE_RECOVER,
        ]
        rebuilt = NodeFaultPlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == plan.to_dict()

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            NodeFaultPlan.from_spec("explode:n0@t=1")
        with pytest.raises(ConfigError):
            NodeFaultPlan.from_spec("crash:n0@recover=6")
        with pytest.raises(ConfigError):
            NodeFaultPlan().crash("n0", at=5.0, recover_at=2.0)
        with pytest.raises(ConfigError):
            NodeFaultPlan().brownout("n0", 1.5, at=1.0)


class TestNodeHealth:
    def _node(self):
        return Node("n0", NodeClass(name="gaudi2", device="gaudi2", tp=2))

    def test_state_machine_priorities(self):
        node = self._node()
        assert node.state is NodeState.HEALTHY and node.routable
        node.set_brownout(0.5)
        assert node.state is NodeState.DEGRADED and node.routable
        node.set_blip(True)
        assert node.state is NodeState.UNAVAILABLE and not node.routable
        node.crash()
        assert node.state is NodeState.DEAD
        node.begin_recovery()
        assert node.state is NodeState.RECOVERING and not node.routable
        node.warm()
        node.set_blip(False)
        node.clear_brownout()
        assert node.state is NodeState.HEALTHY

    def test_fabric_degradation_marks_degraded(self):
        node = self._node()
        node.degrade_fabric(0.5)
        assert node.state is NodeState.DEGRADED
        node.restore_fabric()
        assert node.state is NodeState.HEALTHY

    def test_crash_fails_inflight_attempts(self):
        node = self._node()
        node.begin()
        request = Request(
            request_id=0, input_tokens=64, output_tokens=16, arrival_time=0.0
        )
        node.feed(request)
        victims = node.crash()
        assert victims == [request]
        assert request.state is RequestState.FAILED
        assert node.inflight == []


class _NoScan(list):
    """An in-flight list that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("reap scanned the in-flight attempts")


class TestNodeReap:
    """``reap`` pops terminal attempts in feed order, and skips the scan
    while no attempt has turned terminal since the last one."""

    def _node(self, **kwargs):
        node = Node("n0", NodeClass(name="gaudi2", device="gaudi2", tp=2, **kwargs))
        node.begin()
        return node

    @staticmethod
    def _request(request_id, output_tokens=8, input_tokens=64):
        return Request(
            request_id=request_id, input_tokens=input_tokens,
            output_tokens=output_tokens, arrival_time=0.0,
        )

    @staticmethod
    def _ids(requests):
        return [r.request_id for r in requests]

    def test_reaps_attempt_shed_inside_feed(self):
        node = self._node(num_kv_blocks=4)
        request = self._request(0, input_tokens=128 * 4 + 1)
        node.feed(request)
        assert request.state is RequestState.SHED
        assert node.reap() == [request]
        assert node.inflight == []

    def test_reaps_cancelled_attempt(self):
        node = self._node()
        keep, cancel = self._request(0, 64), self._request(1, 64)
        node.feed(keep)
        node.feed(cancel)
        node.advance_to(0.01)
        assert node.cancel(cancel, "timeout: test")
        assert self._ids(node.reap()) == [1]
        assert self._ids(node.inflight) == [0]

    def test_cancel_racing_a_completion_is_reaped_once(self):
        node = self._node()
        request = self._request(0, output_tokens=4)
        node.feed(request)
        node.advance_to(math.inf)
        # The completion outran the gateway's cancel.
        assert not node.cancel(request, "timeout: test")
        assert node.reap() == [request]
        assert request.state is RequestState.FINISHED
        assert node.reap() == []

    def test_crash_victims_then_rejoin(self):
        node = self._node()
        first = self._request(0, output_tokens=64)
        node.feed(first)
        node.advance_to(0.01)
        assert node.crash() == [first]
        assert first.state is RequestState.FAILED
        assert node.reap() == []  # the crash handed its victims over
        node.begin_recovery()
        node.warm()
        second = self._request(1, output_tokens=4)
        node.feed(second)
        node.advance_to(math.inf)
        assert node.reap() == [second]
        assert second.state is RequestState.FINISHED

    def test_draining_node_retires_once_idle(self):
        node = self._node()
        request = self._request(0, output_tokens=4)
        node.feed(request)
        node.advance_to(math.inf)
        assert node.reap() == [request]
        node.drain()
        # Nothing turned terminal since the last reap, but a draining
        # node still scans, finds itself idle, and retires.
        assert node.reap() == []
        assert node.retired

    def test_no_terminal_transition_skips_the_scan(self):
        node = self._node()
        node.feed(self._request(0, output_tokens=64))
        node.feed(self._request(1, output_tokens=64))
        node.advance_to(0.005)
        node.reap()
        count = node.engine.terminal_count
        node.inflight = _NoScan(node.inflight)
        node.advance_to(0.01)
        assert node.engine.terminal_count == count
        assert node.reap() == []

    def test_every_terminal_attempt_is_reaped_at_once(self):
        node = self._node()
        for i, n in enumerate((40, 2, 20, 6, 1, 12)):
            node.feed(self._request(i, output_tokens=n))
        horizon = 0.0
        while node.inflight:
            horizon += 0.003
            node.advance_to(horizon)
            node.reap()
            assert all(
                r.state in (RequestState.WAITING, RequestState.RUNNING)
                for r in node.inflight
            )

    def test_reap_order_is_feed_order(self):
        node = self._node()
        requests = [
            self._request(i, output_tokens=n) for i, n in enumerate((40, 2, 20, 6))
        ]
        for request in requests:
            node.feed(request)
        node.advance_to(math.inf)
        finish_order = sorted(requests, key=lambda r: r.finish_time)
        assert self._ids(finish_order) == [1, 3, 2, 0]
        assert self._ids(node.reap()) == [0, 1, 2, 3]


class TestGatewayRouting:
    def _gateway(self, policy, n=3):
        gateway = Gateway(policy)
        for i in range(n):
            gateway.register(
                Node(f"n{i}", NodeClass(name="gaudi2", device="gaudi2", tp=2))
            )
        return gateway

    def test_round_robin_cycles(self):
        gateway = self._gateway("round-robin")
        names = [gateway.pick().name for _ in range(6)]
        assert names == ["n0", "n1", "n2", "n0", "n1", "n2"]

    def test_least_loaded_prefers_empty_node(self):
        gateway = self._gateway("least-loaded")
        gateway.nodes["n0"].inflight = [object(), object()]
        gateway.nodes["n1"].inflight = [object()]
        assert gateway.pick().name == "n2"

    def test_latency_aware_prefers_fast_node(self):
        gateway = self._gateway("latency-aware")
        gateway.nodes["n0"].latency_estimate = 0.5
        gateway.nodes["n1"].latency_estimate = 0.1
        gateway.nodes["n2"].latency_estimate = 0.9
        assert gateway.pick().name == "n1"

    def test_exclude_falls_back_when_all_tried(self):
        gateway = self._gateway("round-robin", n=1)
        assert gateway.pick(exclude={"n0"}).name == "n0"

    def test_unroutable_nodes_skipped(self):
        gateway = self._gateway("round-robin")
        gateway.nodes["n1"].crash()
        names = {gateway.pick().name for _ in range(4)}
        assert "n1" not in names

    def test_no_routable_node_returns_none(self):
        gateway = self._gateway("round-robin", n=1)
        gateway.nodes["n0"].crash()
        assert gateway.pick() is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            Gateway("random")


class TestShedReasonScoping:
    def test_gateway_vs_engine_split(self):
        requests = fixed_length_requests(3, input_len=64, output_len=8)
        requests[0].shed(f"{GATEWAY_SHED_PREFIX}timeout: too slow")
        requests[1].shed("kv-exhausted: no blocks")
        counts = shed_reason_counts(requests)
        assert counts == {f"{GATEWAY_SHED_PREFIX}timeout": 1, "kv-exhausted": 1}
        assert shed_reason_counts(requests, scope="gateway") == {
            f"{GATEWAY_SHED_PREFIX}timeout": 1
        }
        assert shed_reason_counts(requests, scope="engine") == {"kv-exhausted": 1}


class TestDiurnalArrivals:
    def test_monotone_and_deterministic(self):
        a = diurnal_arrivals(
            fixed_length_requests(32, input_len=64, output_len=8),
            rate=8.0, period=10.0, seed=3,
        )
        b = diurnal_arrivals(
            fixed_length_requests(32, input_len=64, output_len=8),
            rate=8.0, period=10.0, seed=3,
        )
        times = [r.arrival_time for r in a]
        assert times == [r.arrival_time for r in b]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_differs_from_poisson(self):
        diurnal = diurnal_arrivals(
            fixed_length_requests(32, input_len=64, output_len=8),
            rate=8.0, seed=0,
        )
        poisson = poisson_arrivals(
            fixed_length_requests(32, input_len=64, output_len=8),
            rate=8.0, seed=0,
        )
        assert [r.arrival_time for r in diurnal] != [r.arrival_time for r in poisson]

    def test_validation(self):
        requests = fixed_length_requests(2, input_len=64, output_len=8)
        with pytest.raises(ValueError):
            diurnal_arrivals(requests, rate=0.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(requests, rate=1.0, amplitude=1.0)


def _small_config(**overrides):
    defaults = dict(
        nodes=(("gaudi2", 2),),
        tp=2,
        num_requests=24,
        rate=8.0,
        seed=3,
        timeout=20.0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestFleetRuns:
    def test_kill_a_node_golden(self):
        """Mid-run node kill: every admitted request is still accounted
        for, the in-flight attempts fail over, and the run audits clean
        under strict mode."""
        plan = NodeFaultPlan().crash("gaudi2-0", at=1.0, recover_at=4.0)
        with audit_scope("strict"):
            report = run_fleet(_small_config(plan=plan))
        assert report.admitted == 24
        assert report.finished + report.shed + report.unfinished == 24
        assert report.unfinished == 0
        assert report.node_crashes == 1
        assert report.failovers >= 1
        assert report.attempt_failed >= 1
        crashed = next(n for n in report.node_reports if n.name == "gaudi2-0")
        assert crashed.crashes == 1
        assert crashed.final_state == "healthy"  # recovered by end of run
        assert report.fault_log == (
            "t=1 node_crash gaudi2-0",
            "t=4 node_recover gaudi2-0",
        )

    def test_same_seed_byte_identical_under_chaos(self):
        plan = NodeFaultPlan.from_spec(
            "crash:gaudi2-1@t=1,recover=4;brownout:gaudi2-0@t=2,factor=0.5,until=5"
        )
        config = _small_config(plan=plan, policy="least-loaded")
        first = run_fleet(config)
        second = run_fleet(config)
        assert first.to_payload() == second.to_payload()
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_different_seeds_differ(self):
        a = run_fleet(_small_config(seed=1))
        b = run_fleet(_small_config(seed=2))
        assert a.to_payload() != b.to_payload()

    def test_policy_changes_routing(self):
        rr = run_fleet(_small_config(policy="round-robin"))
        ll = run_fleet(_small_config(policy="least-loaded"))
        assert rr.finished == ll.finished == 24
        assert rr.policy == "round-robin" and ll.policy == "least-loaded"

    def test_all_nodes_dead_sheds_with_gateway_reason(self):
        plan = NodeFaultPlan().crash("gaudi2-0", at=0.0).crash("gaudi2-1", at=0.0)
        config = _small_config(
            plan=plan,
            retry=RetryPolicy(max_retries=1, backoff_base=0.1, jitter=0.0),
        )
        with audit_scope("strict"):
            report = run_fleet(config)
        assert report.finished == 0
        assert report.shed == 24
        assert report.unfinished == 0
        reasons = dict(report.shed_reasons_gateway)
        assert f"{GATEWAY_SHED_PREFIX}no-healthy-node" in reasons
        assert sum(reasons.values()) == 24

    def test_tight_timeout_triggers_retries(self):
        config = _small_config(
            nodes=(("gaudi2", 1),),
            num_requests=32,
            rate=32.0,
            timeout=0.05,
            retry=RetryPolicy(max_retries=2, backoff_base=0.05, jitter=0.0),
        )
        with audit_scope("strict"):
            report = run_fleet(config)
        assert report.timeouts > 0
        assert report.attempt_shed_gateway > 0
        assert report.finished + report.shed == 32
        assert dict(report.shed_reasons_engine) == {}

    def test_hedging_races_a_second_node(self):
        config = _small_config(
            num_requests=32, rate=32.0, hedge_after=0.02, timeout=None
        )
        with audit_scope("strict"):
            report = run_fleet(config)
        assert report.hedges > 0
        assert report.finished == 32
        # A hedge either wins (original cancelled) or loses (wasted).
        assert report.attempt_shed_gateway + report.hedge_wasted >= report.hedges

    def test_autoscaler_scales_up_under_slo_breach(self):
        auto = AutoscalePolicy(
            target_p99_ttft=0.02,
            evaluate_interval=0.5,
            cooldown=1.0,
            max_nodes=3,
            provision_delay=0.25,
        )
        config = _small_config(
            nodes=(("gaudi2", 1),),
            num_requests=64,
            rate=48.0,
            autoscale=auto,
            timeout=None,
        )
        with audit_scope("strict"):
            report = run_fleet(config)
        assert report.scale_ups > 0
        assert len(report.node_reports) == 1 + report.scale_ups
        assert report.autoscale_log
        assert report.finished == 64

    def test_heterogeneous_pools_route_to_both_devices(self):
        config = _small_config(nodes=(("gaudi2", 1), ("a100", 1)), num_requests=32)
        report = run_fleet(config)
        devices = {n.device for n in report.node_reports}
        assert devices == {"Gaudi-2", "A100"}
        assert all(n.attempts > 0 for n in report.node_reports)

    def test_unknown_fault_target_rejected(self):
        plan = NodeFaultPlan().crash("gaudi2-9", at=1.0)
        with pytest.raises(ConfigError):
            run_fleet(_small_config(plan=plan))

    def test_config_round_trip(self):
        plan = NodeFaultPlan().crash("gaudi2-0", at=1.0, recover_at=2.0)
        config = _small_config(
            plan=plan,
            autoscale=AutoscalePolicy(),
            retry=RetryPolicy(jitter=0.25, max_backoff=4.0),
            hedge_after=1.0,
            diurnal=True,
        )
        rebuilt = FleetConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt.to_dict() == config.to_dict()
        assert rebuilt == config

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FleetConfig(nodes=())
        with pytest.raises(ConfigError):
            FleetConfig(nodes=(("gaudi2", 0),))
        with pytest.raises(ConfigError):
            FleetConfig(policy="random")
        with pytest.raises(ConfigError):
            FleetConfig(timeout=-1.0)


class TestFleetJournal:
    def test_resume_is_byte_identical(self, tmp_path):
        plan = NodeFaultPlan().crash("gaudi2-0", at=1.0, recover_at=3.0)
        config = _small_config(plan=plan)
        original = run_fleet(config, journal=tmp_path)
        resumed = resume_fleet(tmp_path)
        assert resumed.to_payload() == original.to_payload()
        assert resumed.to_json() == original.to_json()

    def test_journal_records_node_tagged_points(self, tmp_path):
        from repro.core.journal import RunJournal

        run_fleet(_small_config(), journal=tmp_path)
        keys = set(RunJournal(tmp_path).completed_keys())
        assert "fleet" in keys
        assert "node-gaudi2-0" in keys and "node-gaudi2-1" in keys

    def test_resume_rejects_foreign_journal(self, tmp_path):
        from repro.core.journal import RunJournal

        journal = RunJournal(tmp_path)
        journal.write_header({"tool": "load_sweep"})
        with pytest.raises(JournalError):
            resume_fleet(tmp_path)

    def test_resume_rejects_missing_journal(self, tmp_path):
        with pytest.raises(JournalError):
            resume_fleet(tmp_path / "nope")

    def test_header_pins_config(self, tmp_path):
        run_fleet(_small_config(), journal=tmp_path)
        with pytest.raises(JournalError):
            run_fleet(_small_config(seed=99), journal=tmp_path)

    def test_report_payload_round_trip(self):
        report = run_fleet(_small_config())
        rebuilt = FleetResilienceReport.from_payload(
            json.loads(json.dumps(report.to_payload()))
        )
        assert rebuilt.to_payload() == report.to_payload()
        assert rebuilt == report


class TestFleetObservability:
    def test_fleet_run_emits_node_tagged_trace(self):
        from repro.api import RunContext

        ctx = RunContext.create(seed=3)
        plan = NodeFaultPlan().crash("gaudi2-0", at=1.0, recover_at=3.0)
        run_fleet(_small_config(plan=plan), ctx=ctx)
        names = {s.name for s in ctx.tracer.spans}
        assert "attempt" in names
        instants = {e.name for e in ctx.tracer.instants}
        assert "node.node_crash" in instants
        counters = {c.name for c in ctx.tracer.counters}
        assert "fleet.inflight" in counters
        assert json.loads(ctx.chrome_trace())["traceEvents"]

    def test_fleet_run_populates_metrics(self):
        from repro.api import RunContext

        ctx = RunContext.create(seed=3)
        run_fleet(_small_config(), ctx=ctx)
        summary = ctx.metrics_summary()
        assert "fleet.dispatches" in summary
        assert "fleet.ttft" in summary
