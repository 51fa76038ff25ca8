"""Performance-regression harness for the simulator itself.

``repro bench`` times canonical workloads (figure grids, serving runs,
a chaos load test) with the shape-keyed cost caches cleared first, so
every sample measures the cold-to-warm path a fresh process pays.  A
result can be written as ``BENCH_<stamp>.json`` and compared against a
committed baseline (``benchmarks/perf/baseline.json``) with a
tolerance gate -- that comparison is what CI runs as a smoke check.

Raw wall-clock seconds are not comparable across machines, so every
result embeds a *calibration* time: a fixed pure-Python workload whose
duration tracks the host's single-thread speed.  The gate compares
calibration-normalized times, which keeps a 2x tolerance meaningful on
both a laptop and a loaded CI runner.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import memo
from repro.hw.backend import GAUDI2, resolve_backend

__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "CASES",
    "compare_to_baseline",
    "load_baseline",
    "render_comparison",
    "render_result",
    "run_bench",
    "write_result",
]

BENCH_SCHEMA = "repro-bench/v1"

#: Backend the serving/chaos cases run on; ``run_bench(backend=...)``
#: swaps it so the regression harness can time any registered backend.
_BENCH_BACKEND = GAUDI2

#: Cases whose baseline time is below this are reported but never
#: gated: at millisecond scale the ratio is dominated by jitter.
MIN_GATE_SECONDS = 0.02

#: Pre-PR wall times measured on the reference machine before the
#: memoization fast path landed (see EXPERIMENTS.md, "Performance of
#: the simulator itself").  Cases without a pre-PR measurement are
#: omitted rather than guessed.
BEFORE_SECONDS: Dict[str, float] = {
    "reproduce_full": 8.67,
    "fig12_serving": 0.331,
    "fig17_serving": 3.528,
    "serve_256": 0.442,
    # Streaming runs on the per-request engine that preceded the
    # vectorized core, measured on the same machine as the entries above.
    "serve_50k": 22.545,
    "serve_1m": 549.22,
    # The same design-space sweeps priced through the exact cost models
    # (gemm_grid_sweep/design_space_sweep with exact=True) instead of
    # the fitted surrogate.
    "sweep_surrogate": 2.804,
}


@dataclass(frozen=True)
class BenchCase:
    """One timed workload."""

    name: str
    description: str
    fn: Callable[[bool], None]  # fn(fast)
    #: Whether the case runs in ``--check`` (fast) mode; the heavy
    #: full-grid cases only run for explicit ``repro bench --full``.
    in_fast_mode: bool = True


def _calibrate(_fast: bool) -> None:
    """Fixed pure-Python workload tracking single-thread host speed."""
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    if acc < 0:  # pragma: no cover - keeps the loop from folding away
        raise AssertionError


def _fig04_grid(_fast: bool) -> None:
    from repro.figures import run_figure

    # The full 24-shape grid even in fast mode: the fast grid is ~1 ms,
    # far too small for a wall-clock ratio gate.
    run_figure(figure_id="fig04", fast=False)


def _fig12_serving(_fast: bool) -> None:
    from repro.figures import run_figure

    # Full grid in both modes; the fast grid sits under the gate floor.
    run_figure(figure_id="fig12", fast=False)


def _fig17_serving(fast: bool) -> None:
    from repro.figures import run_figure

    run_figure(figure_id="fig17", fast=fast)


def _serving_run(num_requests: int) -> None:
    from repro.hw.device import get_device
    from repro.models.llama import (
        LLAMA_3_1_8B,
        LlamaCostModel,
        default_decode_attention,
    )
    from repro.serving import LlmServingEngine, dynamic_sonnet_requests

    device = get_device(_BENCH_BACKEND)
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device),
        default_decode_attention(device),
        max_decode_batch=64,
    )
    engine.run(dynamic_sonnet_requests(num_requests, seed=0))


def _serve_case(fast: bool) -> None:
    _serving_run(64 if fast else 256)


def _streaming_run(num_requests: int) -> None:
    """Streaming release-mode serve: lazy arrivals, folded aggregates.

    Requests and Poisson arrival stamps are generated lazily and every
    terminal request folds into constant-size aggregates
    (``retain_requests=False``), so peak memory is O(live slots)
    however large ``num_requests`` is -- the million-request
    configuration of EXPERIMENTS.md runs through this exact path.
    """
    from repro.hw.device import get_device
    from repro.models.llama import (
        LLAMA_3_1_8B,
        LlamaCostModel,
        default_decode_attention,
    )
    from repro.serving import LlmServingEngine, iter_dynamic_sonnet_requests
    from repro.serving.loadgen import poisson_arrivals

    device = get_device(_BENCH_BACKEND)
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device),
        default_decode_attention(device),
        max_decode_batch=64,
        retain_requests=False,
    )
    # Just under the engine's sustainable rate, so the decode batch
    # stays full while the waiting buffer stays bounded.
    engine.run(poisson_arrivals(
        iter_dynamic_sonnet_requests(num_requests, seed=0), 11.0, seed=0
    ))


def _serve_50k(fast: bool) -> None:
    _streaming_run(5_000 if fast else 50_000)


def _serve_1m(_fast: bool) -> None:
    _streaming_run(1_000_000)


def _chaos_load(fast: bool) -> None:
    from repro.faults import ChaosConfig, FaultPlan, run_chaos

    plan = FaultPlan.from_specs(
        seed=0,
        fail_device=["3@t=0.5,recover=1.5"],
        kernel_fault_rate=0.02,
    )
    run_chaos(config=ChaosConfig(
        model="8b",
        device=_BENCH_BACKEND,
        tp=4,
        max_decode_batch=32,
        num_requests=32 if fast else 96,
        rate=8.0,
        seed=0,
        deadline=4.0,
        plan=plan,
    ))


def _serve_overload(fast: bool) -> None:
    from repro.cluster import (
        AdmissionPolicy,
        BreakerPolicy,
        FleetConfig,
        TenantSpec,
        run_fleet,
    )

    run_fleet(FleetConfig(
        nodes=((_BENCH_BACKEND, 2),),
        max_decode_batch=4,
        num_requests=96 if fast else 256,
        rate=40.0,  # ~2x the small fleet's saturation rate
        seed=0,
        timeout=10.0,
        tenants=(
            TenantSpec(name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=2.0),
            TenantSpec(name="silver", tier=1, share=0.35, weight=2.0),
            TenantSpec(name="bronze", tier=2, share=0.40, weight=1.0,
                       quota_rate=8.0, quota_burst=8.0),
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8, max_queue_delay=20.0
        ),
        breaker=BreakerPolicy(),
    ))


def _sweep_surrogate(fast: bool) -> None:
    """Surrogate-speed design-space sweeps (fig07-style GEMM grid +
    the TP x batch x context grid).  The exact twin of this workload is
    the ``sweep_surrogate`` BEFORE_SECONDS entry; the first repeat may
    pay the one-time surrogate fit, and ``min(runs)`` keeps the warm
    fast-path time the baseline gates on."""
    from repro.surrogate.sweep import design_space_sweep, gemm_grid_sweep

    gemm_grid_sweep(_BENCH_BACKEND, per_octave=16 if fast else 32)
    design_space_sweep(_BENCH_BACKEND, fast=fast)


def _gemm_grid_exact(_fast: bool) -> None:
    """The exact fig07-style GEMM grid, priced in one batched call.

    308,025 shapes (``per_octave=64``) in both modes: the 25,600-shape
    ``per_octave=16`` grid takes a few milliseconds, under the gate floor.
    """
    from repro.surrogate.sweep import gemm_grid_sweep

    gemm_grid_sweep(_BENCH_BACKEND, per_octave=64, exact=True)


def _fig08_stream(_fast: bool) -> None:
    from repro.figures import run_figure

    # Full grid in both modes: the STREAM suite's TPC scoreboard runs.
    run_figure(figure_id="fig08", fast=False)


def _reproduce_full(_fast: bool) -> None:
    from repro.figures import generate_all

    generate_all(fast=False)


CASES: List[BenchCase] = [
    BenchCase("fig04_grid", "Figure 4 GEMM roofline grid", _fig04_grid),
    BenchCase("fig12_serving", "Figure 12 LLM serving sweep", _fig12_serving),
    BenchCase("fig17_serving", "Figure 17 vLLM batch sweep", _fig17_serving),
    BenchCase("serve_256", "direct serving-engine run", _serve_case),
    BenchCase("serve_50k", "streaming release-mode serve", _serve_50k),
    BenchCase("serve_1m", "million-request streaming serve", _serve_1m,
              in_fast_mode=False),
    BenchCase("chaos_load", "fault-injected load test", _chaos_load),
    BenchCase("serve_overload", "multi-tenant overloaded admission fleet",
              _serve_overload),
    BenchCase("sweep_surrogate", "surrogate-speed design-space sweeps",
              _sweep_surrogate),
    BenchCase("gemm_grid_exact", "exact batched fig07-style GEMM grid",
              _gemm_grid_exact),
    BenchCase("fig08_stream", "Figure 8 STREAM suite (TPC scoreboard)",
              _fig08_stream),
    BenchCase("reproduce_full", "generate_all(fast=False)", _reproduce_full,
              in_fast_mode=False),
]
#: Aliases accepted by --full runs for the serving case's real size.
_CASE_BY_NAME = {case.name: case for case in CASES}


def _time_case(case: BenchCase, fast: bool, repeats: int) -> Dict[str, object]:
    runs = []
    for _ in range(max(1, repeats)):
        # Each sample pays cache population: that is the path a fresh
        # process (CI, a user's first run) actually takes.
        memo.clear_caches()
        start = time.perf_counter()
        case.fn(fast)
        runs.append(round(time.perf_counter() - start, 6))
    return {"seconds": min(runs), "runs": runs, "description": case.description}


def run_bench(
    fast: bool = True,
    repeats: int = 3,
    cases: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Time the registered workloads; returns the result document.

    ``backend`` points the serving/chaos cases at another registered
    backend; the default (gaudi2) keeps baseline documents comparable.
    """
    global _BENCH_BACKEND
    _BENCH_BACKEND = resolve_backend(backend) if backend else GAUDI2
    if cases is None:
        selected = [c for c in CASES if c.in_fast_mode or not fast]
    else:
        unknown = sorted(set(cases) - set(_CASE_BY_NAME))
        if unknown:
            raise KeyError(
                f"unknown bench case(s) {unknown}; available: {sorted(_CASE_BY_NAME)}"
            )
        selected = [_CASE_BY_NAME[name] for name in cases]
    # Heavy imports (figures registry, faults, serving stack) must not
    # be charged to whichever case happens to run first.
    import repro.faults  # noqa: F401
    import repro.figures  # noqa: F401
    import repro.serving  # noqa: F401

    calibration = _time_case(
        BenchCase("calibrate", "host-speed calibration loop", _calibrate),
        fast, repeats,
    )
    result: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "mode": "fast" if fast else "full",
        "repeats": max(1, repeats),
        "calibration_seconds": calibration["seconds"],
        "cases": {case.name: _time_case(case, fast, repeats) for case in selected},
    }
    if _BENCH_BACKEND != GAUDI2:
        # Non-default backends are flagged so a result document is
        # never gated against a baseline timed on another platform.
        result["backend"] = _BENCH_BACKEND
    before = {
        name: BEFORE_SECONDS[name]
        for name in result["cases"]
        if not fast and name in BEFORE_SECONDS
    }
    if before:
        result["before_seconds"] = before
        result["speedup"] = {
            name: round(before[name] / result["cases"][name]["seconds"], 3)
            for name in before
            if result["cases"][name]["seconds"] > 0
        }
    return result


def write_result(result: Dict[str, object], out: Optional[str] = None) -> pathlib.Path:
    """Write ``result`` as ``BENCH_<stamp>.json`` (or to ``out``)."""
    if out is None:
        stamp = time.strftime("%Y%m%d_%H%M%S")
        out = f"BENCH_{stamp}.json"
    path = pathlib.Path(out)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str) -> Dict[str, object]:
    """Load a committed baseline result document."""
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, got {document.get('schema')!r}"
        )
    return document


def compare_to_baseline(
    result: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 2.0,
) -> Tuple[bool, List[Dict[str, object]]]:
    """Gate ``result`` against ``baseline``.

    Each case's time is divided by its run's calibration time, and the
    gate fails when that normalized time exceeds the baseline's by more
    than ``tolerance``x.  Cases present on only one side are reported
    but never fail the gate (new benchmarks should not brick CI).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if result.get("mode") != baseline.get("mode"):
        raise ValueError(
            f"mode mismatch: result is {result.get('mode')!r}, "
            f"baseline is {baseline.get('mode')!r}"
        )
    calib = float(result["calibration_seconds"])
    base_calib = float(baseline["calibration_seconds"])
    if calib <= 0 or base_calib <= 0:
        raise ValueError("calibration times must be positive")
    rows: List[Dict[str, object]] = []
    ok = True
    base_cases = baseline.get("cases", {})
    for name, entry in sorted(result.get("cases", {}).items()):
        base_entry = base_cases.get(name)
        if base_entry is None:
            rows.append({"case": name, "status": "new",
                         "seconds": entry["seconds"]})
            continue
        normalized = float(entry["seconds"]) / calib
        base_normalized = float(base_entry["seconds"]) / base_calib
        ratio = normalized / base_normalized if base_normalized > 0 else float("inf")
        if float(base_entry["seconds"]) < MIN_GATE_SECONDS:
            status = "too-small"  # jitter-dominated; reported, not gated
        elif ratio <= tolerance:
            status = "ok"
        else:
            status = "regressed"
            ok = False
        rows.append({
            "case": name,
            "status": status,
            "seconds": entry["seconds"],
            "baseline_seconds": base_entry["seconds"],
            "normalized_ratio": round(ratio, 3),
        })
    for name in sorted(set(base_cases) - set(result.get("cases", {}))):
        rows.append({"case": name, "status": "missing",
                     "baseline_seconds": base_cases[name]["seconds"]})
    return ok, rows


def render_result(result: Dict[str, object]) -> str:
    """Fixed-format text table of one bench result."""
    from repro.core.report import render_table

    rows = [
        (name, f"{entry['seconds']:.4f}",
         " ".join(f"{r:.4f}" for r in entry["runs"]),
         entry["description"])
        for name, entry in sorted(result["cases"].items())
    ]
    title = (
        f"repro bench ({result['mode']} mode, {result['repeats']} repeats, "
        f"calibration {result['calibration_seconds']:.4f}s)"
    )
    text = render_table(["Case", "Best (s)", "Runs (s)", "Workload"], rows, title=title)
    speedup = result.get("speedup")
    if speedup:
        gains = ", ".join(
            f"{name} {ratio:.2f}x" for name, ratio in sorted(speedup.items())
        )
        text += f"\nSpeedup vs pre-memoization baseline: {gains}"
    return text


def render_comparison(rows: List[Dict[str, object]], tolerance: float) -> str:
    """Fixed-format text table of a baseline comparison."""
    from repro.core.report import render_table

    table_rows = []
    for row in rows:
        table_rows.append((
            row["case"],
            row["status"],
            f"{row['seconds']:.4f}" if "seconds" in row else "-",
            f"{row['baseline_seconds']:.4f}" if "baseline_seconds" in row else "-",
            f"{row['normalized_ratio']:.2f}" if "normalized_ratio" in row else "-",
        ))
    return render_table(
        ["Case", "Status", "Now (s)", "Baseline (s)", "Norm. ratio"],
        table_rows,
        title=f"repro bench --check (tolerance {tolerance:g}x, calibration-normalized)",
    )
