"""The struct-of-arrays engine core against pinned reference outputs.

The engine steps one struct-of-arrays core.  Its reports and
per-request terminal state are pinned (sha256) to the outputs of the
per-request reference stepper it replaced, across backends, attention
kernels, preemption, single-token outputs, strict audit and fuzzed
workloads; streaming feeds must match list feeds byte for byte.  Plus
the slot-recycling safety property and the constant-memory guarantee
of release-mode streaming runs.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ConfigError, audit_scope
from repro.faults import FaultInjector, FaultPlan
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    ResiliencePolicy,
    dynamic_sonnet_requests,
    iter_dynamic_sonnet_requests,
)
from repro.serving.engine_core import (
    SLOT_FINISHED,
    SLOT_RUNNING,
    EngineCore,
    counters_snapshot,
    render_counters,
    reset_counters,
)
from repro.serving.loadgen import poisson_arrivals
from repro.serving.request import Request, RequestState, RetryPolicy


def _engine(device, attention=DecodeAttention.PAGED_OPT, **kwargs):
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device), attention, **kwargs
    )


def _states(requests):
    return [
        (r.request_id, r.state.value, r.generated, r.first_token_time,
         r.finish_time, r.restarts, r.retries)
        for r in requests
    ]


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _run_digest(device, requests, attention=DecodeAttention.PAGED_OPT, **kwargs):
    """sha256 of one run's report JSON and per-request states."""
    report = _engine(device, attention, **kwargs).run(requests)
    return _sha([report.to_json(), _states(requests)])


#: Reference digests (report JSON + per-request states) of the cases
#: below, captured from the per-request reference stepper.
PINNED = {
    "attention_paged_base": "cbf0b918299c8b6b733513b840728df2656317e183d5035ef6a3bae4ce1fc4b3",
    "attention_paged_cuda": "932e0b4aca89e5fb378befec2f1f51750e31034453eaafc719b1a4ac15aae3eb",
    "attention_paged_opt": "d8eb65d01e9799a32638abd7908f2312020fe2f713ae4cf1e29e35b9cb6cd6df",
    "attention_static": "fc6afc300bcaed23e3b08aeffd8b78cf116ec7bcf0be314248ac167551c1b49d",
    "backlog": "3fbc051a99b6de0bfb4c5097e1a88dbeefa3ab21f4cc1cea5602b7653ec8db6d",
    "cancel": "4364655afc2459924bb70c7a967981a93d79cfb9c32d5b519f5ff960dcb3d299",
    "fail_all": "0686f24237dd238502ce6b216bd8d5b1c7d965cac535486559dbb67dc375ca1e",
    "fuzzed_workloads": "ada4ec0117ced5f52898b3753eb8933fa072fab5cbd3779fef03c4a77639ac7f",
    "other_backend": "c9dd1b0fb64cc40dfe4f0a83832e5ac16955edf6bb441386b1eb5d26a8cb5c8a",
    "poisson_arrivals": "4efcd985eee49e6841d3bb71bcb687fa9e6ebdb1d74aead3a6d7fa4513aac5df",
    "preemption_small_kv_pool": "44ee16c848dbe8816a722c8bf8552a7b3c1f4ceb78b37dcc8021ca2bdfb41146",
    "single_token_outputs": "92d214e693ed2ceb0b2d559b0f4e4be9947f6c9031379b116fed2eedc8d5de42",
    "under_strict_audit": "882621cbcc9dddc8e73e69a10b3c650a3f80b03103823272730316d416282cbe",
}


class TestGoldenEquivalence:
    """The core reproduces the reference stepper byte for byte."""

    def test_backlog(self, gaudi):
        digest = _run_digest(gaudi, dynamic_sonnet_requests(48, seed=7))
        assert digest == PINNED["backlog"]

    def test_poisson_arrivals(self, gaudi):
        digest = _run_digest(
            gaudi,
            poisson_arrivals(dynamic_sonnet_requests(64, seed=1), 20.0, seed=5),
        )
        assert digest == PINNED["poisson_arrivals"]

    def test_preemption_small_kv_pool(self, gaudi):
        digest = _run_digest(
            gaudi, dynamic_sonnet_requests(32, seed=11), num_kv_blocks=220
        )
        assert digest == PINNED["preemption_small_kv_pool"]

    def test_single_token_outputs_finish_at_prefill(self, gaudi):
        requests = [
            Request(r.request_id, r.input_tokens, 1, r.arrival_time)
            for r in dynamic_sonnet_requests(24, seed=9)
        ]
        assert _run_digest(gaudi, requests) == PINNED["single_token_outputs"]

    @pytest.mark.parametrize("attention", list(DecodeAttention))
    def test_every_attention_kernel(self, gaudi, attention):
        digest = _run_digest(
            gaudi, dynamic_sonnet_requests(24, seed=2), attention=attention
        )
        assert digest == PINNED[f"attention_{attention.name.lower()}"]

    def test_other_backend(self, a100):
        digest = _run_digest(
            a100, dynamic_sonnet_requests(32, seed=3),
            attention=DecodeAttention.PAGED_CUDA,
        )
        assert digest == PINNED["other_backend"]

    def test_under_strict_audit(self, gaudi):
        with audit_scope("strict") as auditor:
            digest = _run_digest(
                gaudi,
                poisson_arrivals(dynamic_sonnet_requests(40, seed=4), 15.0, seed=6),
            )
        assert digest == PINNED["under_strict_audit"]
        assert auditor.total_violations == 0


class TestStreamingRuns:
    def test_stream_matches_list_vectorized(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(64, seed=8), 25.0, seed=2
            )

        listed = _engine(gaudi).run(make()).to_json()
        streamed = _engine(gaudi).run(iter(make())).to_json()
        assert listed == streamed

    def test_stream_matches_list_with_policy(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(48, seed=8), 25.0, seed=2
            )

        def engine():
            return _engine(gaudi, policy=ResiliencePolicy(deadline=0.5))

        listed = engine().run(make()).to_json()
        streamed = engine().run(iter(make())).to_json()
        assert listed == streamed

    def test_unsorted_arrivals_rejected(self, gaudi):
        requests = dynamic_sonnet_requests(3, seed=0)
        requests[0].arrival_time = 5.0
        requests[1].arrival_time = 1.0
        with pytest.raises(ConfigError, match="nondecreasing"):
            _engine(gaudi).run(iter(requests))

    def test_lazy_dataset_prefix_stable(self):
        from itertools import islice

        a = list(iter_dynamic_sonnet_requests(100, seed=3))
        b = list(islice(iter_dynamic_sonnet_requests(10**9, seed=3), 100))
        assert [(r.input_tokens, r.output_tokens) for r in a] == [
            (r.input_tokens, r.output_tokens) for r in b
        ]
        # Laziness: taking 100 of a billion-request trace must not
        # materialize the trace (the islice above would never return).


class TestReleaseMode:
    """``retain_requests=False`` folds terminals into aggregates."""

    def test_counts_exact_and_latencies_close(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(96, seed=5), 20.0, seed=7
            )

        retained = json.loads(_engine(gaudi).run(make()).to_json())
        released = json.loads(
            _engine(gaudi, retain_requests=False)
            .run(iter(make())).to_json()
        )
        for key in ("num_requests", "finished_requests", "total_output_tokens",
                    "engine_steps", "preemptions", "shed_requests",
                    "failed_requests"):
            assert retained[key] == released[key], key
        # Retirement-order folding may differ from feed-order sums in
        # the last ulp (documented in ReportAggregates).
        assert released["mean_ttft"] == pytest.approx(
            retained["mean_ttft"], rel=1e-9
        )
        assert released["mean_tpot"] == pytest.approx(
            retained["mean_tpot"], rel=1e-9
        )

    def test_retained_requests_empty_in_release_mode(self, gaudi):
        engine = _engine(gaudi, retain_requests=False)
        engine.run(iter(dynamic_sonnet_requests(16, seed=1)))
        assert engine.retained_requests == []


class TestLifecycleOperations:
    def test_fail_all_matches_scalar(self, gaudi):
        requests = poisson_arrivals(
            dynamic_sonnet_requests(24, seed=6), 40.0, seed=1
        )
        engine = _engine(gaudi)
        engine.begin(requests)
        engine.advance(0.5)
        victims = engine.fail_all("outage: test")
        digest = _sha([sorted(v.request_id for v in victims), _states(requests)])
        assert digest == PINNED["fail_all"]

    def test_cancel_matches_scalar(self, gaudi):
        requests = poisson_arrivals(
            dynamic_sonnet_requests(16, seed=6), 40.0, seed=1
        )
        engine = _engine(gaudi)
        engine.begin(requests)
        engine.advance(0.4)
        alive = [r for r in requests if not r.done]
        engine.cancel(alive[-1], "timeout: test")
        engine.advance()
        assert _sha(_states(requests)) == PINNED["cancel"]


class TestLiveObjectFidelity:
    """After every ``advance()`` each live request object reads exactly
    what a full copy of its slot would write, though the engine only
    writes through at events and syncs ``generated`` on exit."""

    @staticmethod
    def _expected(core, slot, restarts_at_load):
        """The full per-slot sync: every column the core tracks, with
        ``restarts`` as it was when the slot was last loaded."""
        first = core.first_token[slot]
        if core.state[slot] == SLOT_FINISHED:
            state = RequestState.FINISHED
        elif core.state[slot] == SLOT_RUNNING:
            state = RequestState.RUNNING
        else:
            state = RequestState.WAITING
        return (
            int(core.generated[slot]),
            None if math.isnan(first) else float(first),
            int(core.checkpoint[slot]),
            restarts_at_load[slot],
            state,
        )

    def _check_objects(self, core, requests, restarts_at_load):
        live = {id(core.objs[slot]): slot for slot in core.live_slots()}
        for request in requests:
            slot = live.get(id(request))
            if slot is None:
                assert request.state in (
                    RequestState.FINISHED, RequestState.SHED, RequestState.FAILED,
                )
                continue
            actual = (
                request.generated, request.first_token_time,
                request.checkpoint, request.restarts, request.state,
            )
            assert actual == self._expected(core, slot, restarts_at_load)
        for slot in core.finished_pending:
            assert core.objs[slot].state is RequestState.FINISHED

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=1, max_value=24),
        horizons=st.lists(
            st.floats(min_value=0.001, max_value=0.4), min_size=1, max_size=12
        ),
        interval=st.integers(min_value=1, max_value=16),
        deadline=st.sampled_from([None, 0.05, 0.3]),
        max_retries=st.integers(min_value=0, max_value=2),
        failures=st.lists(
            st.floats(min_value=0.0, max_value=2.0), max_size=3
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_objects_match_full_sync(
        self, gaudi, seed, count, horizons, interval, deadline,
        max_retries, failures,
    ):
        gen = np.random.default_rng(seed)
        requests = []
        clock = 0.0
        for i in range(count):
            clock += float(gen.exponential(0.03))
            requests.append(Request(
                request_id=i,
                input_tokens=int(gen.integers(16, 600)),
                output_tokens=int(gen.integers(1, 80)),
                arrival_time=clock,
                tier=int(gen.integers(0, 3)),
            ))
        plan = FaultPlan()
        for index, at in enumerate(failures):
            plan.fail_device(index, at=at, recover_at=at + 0.2)
        engine = _engine(
            gaudi,
            max_decode_batch=8,
            num_kv_blocks=96,
            policy=ResiliencePolicy(
                deadline=deadline,
                retry=RetryPolicy(max_retries=max_retries, backoff_base=0.05),
                checkpoint_interval=interval,
            ),
            injector=FaultInjector(plan, num_devices=8),
        )
        # The object owns ``restarts``; the full sync copied back the
        # value the slot was last loaded with.
        restarts_at_load = {}
        load = EngineCore.load

        def recording_load(core, slot):
            load(core, slot)
            restarts_at_load[slot] = core.objs[slot].restarts

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EngineCore, "load", recording_load)
            engine.begin(requests)
            horizon = 0.0
            for step in horizons:
                horizon += step
                engine.advance(horizon)
                self._check_objects(engine._core, requests, restarts_at_load)
            engine.advance()
        assert all(
            r.state in (RequestState.FINISHED, RequestState.SHED, RequestState.FAILED)
            for r in requests
        )


class TestCounters:
    def test_run_counters(self, gaudi):
        reset_counters()
        _engine(gaudi).run(dynamic_sonnet_requests(8, seed=0))
        _engine(gaudi, policy=ResiliencePolicy()).run(
            dynamic_sonnet_requests(8, seed=0)
        )
        counters = counters_snapshot()
        # One core serves every run; the scalar keys stay and read 0.
        assert counters["vectorized_runs"] == 2
        assert counters["scalar_runs"] == 0
        assert counters["vectorized_steps"] > 0
        assert counters["scalar_steps"] == 0
        assert counters["slot_high_water"] > 0
        rendered = render_counters()
        assert "vectorized" in rendered and "high-water" in rendered

    def test_streaming_bumps_arrival_buffer_peak(self, gaudi):
        reset_counters()
        _engine(gaudi).run(
            iter(poisson_arrivals(
                dynamic_sonnet_requests(32, seed=2), 30.0, seed=3
            ))
        )
        assert counters_snapshot()["arrival_buffer_peak"] > 0


#: Seeds of the fuzzed-workload case.
FUZZ_SEEDS = (0, 1, 7, 42, 1009, 4242, 31337, 65535)


class TestSlotRecycling:
    """Recycled slots must never alias two live requests."""

    @given(
        ops=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                     max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_acquire_release_never_aliases(self, ops):
        core = EngineCore(num_blocks=4096, block_size=128, capacity=4)
        live = {}
        next_id = 0
        for op in ops:
            if op in (0, 1) or not live:
                request = Request(
                    request_id=next_id, input_tokens=64, output_tokens=8
                )
                slot = core.acquire(request)
                assert slot not in live, "slot handed out twice while live"
                live[slot] = request
                next_id += 1
            else:
                slot, request = next(iter(live.items()))
                del live[slot]
                core.release(slot)
            # Every live slot still maps to exactly its own request.
            for slot, request in live.items():
                assert core.objs[slot] is request
            assert len(set(live)) == len(live)
            free = set(core.free_slots)
            assert not free.intersection(live)

    def test_fuzzed_workload_equivalence(self, gaudi):
        """Random small workloads on a 512-block pool, at pinned seeds."""
        digests = []
        for seed in FUZZ_SEEDS:
            gen = np.random.default_rng(seed)
            count = int(gen.integers(1, 20))
            gen = np.random.default_rng(seed)
            requests = []
            clock = 0.0
            for i in range(count):
                clock += float(gen.exponential(0.05))
                requests.append(Request(
                    request_id=i,
                    input_tokens=int(gen.integers(16, 700)),
                    output_tokens=int(gen.integers(1, 60)),
                    arrival_time=clock,
                ))
            digests.append(_run_digest(gaudi, requests, num_kv_blocks=512))
        assert _sha(digests) == PINNED["fuzzed_workloads"]


class TestBoundedMemory:
    def test_streaming_peak_independent_of_trace_length(self, gaudi):
        def peak(n, trace=True):
            engine = _engine(gaudi, retain_requests=False)
            arrivals = poisson_arrivals(
                iter_dynamic_sonnet_requests(n, seed=0), 10.0, seed=0
            )
            if not trace:
                engine.run(arrivals)
                return 0
            tracemalloc.start()
            engine.run(arrivals)
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return high

        # Untraced warmup fills the bounded cost-model caches, so the
        # traced runs below measure only per-run engine state.
        peak(3000, trace=False)
        small, large = peak(300), peak(3000)
        # A 10x longer trace must not grow the peak footprint by more
        # than a small constant factor.
        assert large < 3 * small
