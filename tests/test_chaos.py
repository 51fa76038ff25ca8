"""Chaos runs: graceful degradation end to end (the acceptance scenario)."""

import pytest

from repro.faults import ChaosConfig, FaultPlan, run_chaos
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    ResiliencePolicy,
    RetryPolicy,
    fixed_length_requests,
    run_resilient_load_test,
)
from repro.serving.request import RequestState


def _config(**overrides):
    defaults = dict(tp=8, seed=0, num_requests=96, max_decode_batch=32)
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def _kill_plan():
    return FaultPlan(seed=0).fail_device(3, at=1.5)


class TestKillOneOfEight:
    """ISSUE acceptance: kill 1 of 8 devices mid-run at TP=8."""

    def test_completes_and_recovers(self):
        report = run_chaos(config=_config(plan=_kill_plan()))
        assert report.device_failures == 1
        assert report.alive_devices == 7
        assert report.fault_preemptions > 0
        assert report.recovered_requests > 0
        assert report.unfinished_requests == 0
        assert report.failed_requests == 0
        assert report.finished_requests + report.shed_requests == report.num_requests

    def test_goodput_degrades_consistently_with_port_loss(self):
        """Losing 1 of 8 devices leaves (7-1)*3 of 21 ports: the Fig. 10
        cliff must show up in both the fabric and the goodput."""
        faulty = run_chaos(config=_config(plan=_kill_plan()))
        healthy = run_chaos(config=_config())
        assert faulty.bandwidth_retention == pytest.approx(6 / 7, rel=0.01)
        assert healthy.bandwidth_retention == pytest.approx(1.0)
        assert faulty.goodput_tokens_per_s < healthy.goodput_tokens_per_s

    def test_same_seed_byte_identical_report(self):
        first = run_chaos(config=_config(plan=_kill_plan()))
        second = run_chaos(config=_config(plan=_kill_plan()))
        assert first.render() == second.render()
        assert first.to_dict() == second.to_dict()

    def test_different_seed_differs(self):
        base = run_chaos(config=_config(plan=_kill_plan()))
        other = run_chaos(config=_config(seed=1, plan=FaultPlan(seed=1).fail_device(3, at=1.5)))
        assert base.render() != other.render()


class TestDegradationModes:
    def test_hbm_throttle_slows_run(self):
        throttled = run_chaos(
            config=_config(plan=FaultPlan().throttle_hbm(0.5, at=0.0))
        )
        healthy = run_chaos(config=_config())
        assert throttled.total_time > 1.5 * healthy.total_time

    def test_straggler_paces_whole_batch(self):
        straggling = run_chaos(
            config=_config(plan=FaultPlan().straggler(2, 0.5, at=0.0))
        )
        healthy = run_chaos(config=_config())
        assert straggling.total_time > 1.5 * healthy.total_time

    def test_kernel_faults_cost_retries_not_requests(self):
        report = run_chaos(
            config=_config(plan=FaultPlan(seed=0, kernel_fault_rate=0.05))
        )
        assert report.kernel_retries > 0
        assert report.finished_requests == report.num_requests

    def test_link_flap_survives(self):
        report = run_chaos(
            config=_config(plan=FaultPlan().flap_link(0, 1, at=0.5, period=0.4, cycles=4))
        )
        assert report.finished_requests == report.num_requests

    def test_a100_switch_keeps_bandwidth_flat(self):
        report = run_chaos(
            config=_config(device="a100", plan=FaultPlan().fail_device(3, at=1.5))
        )
        assert report.device_failures == 1
        # NVSwitch isolates the failure: survivors keep ~full bandwidth
        # (small residual drift from the ring's (n-1)/n factor at 7 ranks).
        assert report.bandwidth_retention == pytest.approx(1.0, rel=0.02)
        assert report.bandwidth_retention > 6 / 7

    def test_total_outage_fails_remaining(self):
        plan = FaultPlan()
        for device in range(8):
            plan.fail_device(device, at=0.5)
        report = run_chaos(config=_config(plan=plan, num_requests=32))
        assert report.alive_devices == 0
        assert report.failed_requests > 0
        assert report.finished_requests + report.failed_requests == 32
        assert dict(report.shed_reasons)["outage"] == report.failed_requests

    def test_total_outage_with_recovery_waits_it_out(self):
        plan = FaultPlan()
        for device in range(8):
            plan.fail_device(device, at=0.5)
        plan.fail_device(7, at=0.6, recover_at=1.0)
        report = run_chaos(config=_config(plan=plan, num_requests=32))
        assert report.failed_requests == 0
        assert report.finished_requests == 32
        assert report.alive_devices == 1

    def test_tp1_runs_without_fabric(self):
        report = run_chaos(config=_config(tp=1, num_requests=16))
        assert report.healthy_allreduce_bw == 0.0
        assert report.finished_requests == 16


class TestGracefulEngine:
    def _engine(self, device, policy, injector=None, blocks=64, max_batch=4):
        return LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, device),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=max_batch,
            num_kv_blocks=blocks,
            policy=policy,
            injector=injector,
        )

    def test_oversized_request_shed_not_crash(self, gaudi):
        engine = self._engine(gaudi, ResiliencePolicy(), blocks=4)
        requests = fixed_length_requests(1, input_len=128, output_len=4)
        requests += fixed_length_requests(1, input_len=10_000, output_len=4)
        requests[1].request_id = 1
        report = engine.run(requests)
        assert report.finished_requests == 1
        assert report.shed_requests == 1
        assert requests[1].state is RequestState.SHED
        assert "oversized" in requests[1].shed_reason
        # latency means are over the finished partition only
        assert report.mean_ttft == pytest.approx(requests[0].ttft)

    def test_deadline_retry_then_shed(self, gaudi):
        policy = ResiliencePolicy(
            deadline=1e-4,
            retry=RetryPolicy(max_retries=2, backoff_base=0.05),
        )
        engine = self._engine(gaudi, policy, blocks=8, max_batch=1)
        requests = fixed_length_requests(3, input_len=512, output_len=64)
        report = engine.run(requests)
        shed = [r for r in requests if r.state is RequestState.SHED]
        assert report.retried_requests > 0
        assert shed and all(r.retries == 2 for r in shed)
        assert all("deadline" in r.shed_reason for r in shed)

    def test_strict_mode_unchanged(self, gaudi):
        from repro.serving import KvCacheError

        engine = self._engine(gaudi, policy=None, blocks=4)
        with pytest.raises(KvCacheError):
            engine.run(fixed_length_requests(1, input_len=10_000, output_len=4))


class TestResilientLoadgen:
    def test_overload_sheds_and_reports_goodput(self, gaudi):
        def engine_factory():
            return LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, gaudi),
                DecodeAttention.PAGED_OPT,
                max_decode_batch=2,
                num_kv_blocks=32,
                policy=ResiliencePolicy(
                    deadline=0.05, retry=RetryPolicy(max_retries=1)
                ),
            )

        report = run_resilient_load_test(
            engine_factory=engine_factory,
            request_factory=lambda: fixed_length_requests(24, input_len=256, output_len=32),
            offered_rate=400.0,
        )
        assert report.shed > 0
        assert report.retried > 0
        assert report.finished + report.shed + report.failed == 24
        assert 0.0 <= report.goodput_fraction < 1.0
        assert report.slo_violation_rate > 0.0

    def test_goodput_full_when_unloaded(self, gaudi):
        def engine_factory():
            return LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, gaudi),
                DecodeAttention.PAGED_OPT,
                max_decode_batch=8,
                policy=ResiliencePolicy(),
            )

        report = run_resilient_load_test(
            engine_factory=engine_factory,
            request_factory=lambda: fixed_length_requests(8, input_len=128, output_len=16),
            offered_rate=1.0,
        )
        assert report.finished == 8
        assert report.goodput_fraction == pytest.approx(1.0)
        assert report.slo_violation_rate == 0.0


class TestChaosCli:
    def test_chaos_verb_renders_report(self, capsys):
        from repro.cli import main

        assert main([
            "chaos", "--seed", "0", "--fail-device", "3@t=0.5",
            "--requests", "32", "--tp", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Resilience report" in out
        assert "device-fail dev3" in out
        assert "Fig. 10 port model" in out

    def test_chaos_json(self, capsys):
        import json

        from repro.cli import main

        assert main([
            "chaos", "--seed", "0", "--requests", "8", "--tp", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished_requests"] == 8
        assert payload["tp_degree"] == 2
