"""Host-time benchmark of the simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve_stream --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the repository root.  Every measurement is a fresh interpreter
(``worker.py``) started one at a time with a pinned environment, so a
caller's shell cannot flip the engine core, memoization or audit mode.
With ``--trace 0`` the run repeats timed measurements for ``--seconds``
seconds, adds one untimed accuracy measurement, and reports the
medians of the end-to-end metrics, scaled to a reference host speed
(see ``REFERENCE_PROBE_S``); with ``--trace 1`` it takes untraced
measurements for half that time as the baseline, then one traced
measurement, and reports the per-layer metrics.  Every measurement's
outputs are checked (report conservation, tier-0 shedding, figure
presence, a virtual-time digest identical across the run, and -- for
the traced one -- the same digest and core/memo counters as the
untraced ones).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, including the host
fingerprint and the traced spans, are written under ``.perfbench/``.
``--workload all`` runs every workload, untraced and traced, one after
another, and ends with one JSON object over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from worker import SpeedProbe  # noqa: E402

#: Every end-to-end metric: name, unit.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("headline_error", "ln"),
]

#: Probe-loop time (``worker.PROBE_LOOP`` iterations) at the reference
#: host speed.  Reported times are scaled to this speed: measured
#: seconds x REFERENCE_PROBE_S / mean probe time during the measurement.
#: The value is the probe time of a quiet 2-vCPU x86_64 host, Python 3.11.
REFERENCE_PROBE_S = 0.015

#: Timed measurements per run, at least and at most.
MIN_SAMPLES, MAX_SAMPLES = 3, 40
#: Untraced measurements a traced run takes for its baseline.
MIN_TRACE_BASELINE = 2
#: A run must end within this many seconds of starting.
DEADLINE_S = 170.0
OUT_DIR = ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def hermetic_env(root: pathlib.Path, workload: str) -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` or ``PYTHON*``
    variable, then the pinned settings: the checkout's sources, one
    BLAS/OpenMP thread, serial figure generation, the automatic engine
    core, memoization on and the workload's audit mode."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update({name: "1" for name in THREAD_VARS})
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_AUDIT": workloads.AUDIT_MODE[workload],
        "REPRO_ENGINE": "auto",
        "REPRO_WORKERS": "1",
    })
    return env


def host_fingerprint() -> Dict[str, object]:
    """Informational: CPU count, interpreter, and the best of five
    speed-probe loop times in this process (the host's speed now)."""
    probe = SpeedProbe()
    for _ in range(5):
        probe.probe()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(),
            "calibration_s": min(seconds for _, seconds in probe.samples)}


class Runner:
    """Starts workers one at a time and keeps every record."""

    def __init__(self, root: pathlib.Path, workload: str, seed: int, scale: str,
                 deadline: float) -> None:
        self.root, self.workload, self.seed, self.scale = root, workload, seed, scale
        self.env = hermetic_env(root, workload)
        self.deadline = deadline

    def spawn(self, mode: str, spans_out: str = "") -> Dict[str, object]:
        """One worker; a crash, timeout or unreadable output becomes a
        record with a problem."""
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload,
                str(self.seed), self.scale]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return {"problems": ["no time left for this measurement"]}
        stamp = time.monotonic()
        try:
            done = subprocess.run(argv + [repr(stamp)] + ([spans_out] if spans_out else []),
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            return {"problems": [f"{mode} measurement timed out"]}
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-3:]
            return {"problems": [f"{mode} measurement exited {done.returncode}: "
                                 + " | ".join(tail)]}
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return {"problems": [f"{mode} measurement printed no record"]}

    def timed_set(self, seconds: float, minimum: int) -> List[Dict[str, object]]:
        records: List[Dict[str, object]] = []
        start = time.monotonic()
        while len(records) < MAX_SAMPLES and (
                len(records) < minimum or time.monotonic() - start < seconds):
            records.append(self.spawn("timed"))
            if "problems" in records[-1] and "digest" not in records[-1]:
                break  # a crashing workload will not recover by repetition
        return records


def _fingerprint(record: Dict[str, object]) -> Tuple[object, object, object]:
    counters = record["counters"]
    return record["digest"], counters["core"], counters["memo"]


def check_set(records: List[Dict[str, object]],
              traced: Optional[Dict[str, object]] = None) -> List[str]:
    """Mark records whose outputs fail a check; returns all problems.

    Every record's own checks must pass, every record must repeat the
    first one's digest and core/memo counters, and so must the traced
    record (the benchmark's tracing must not change what runs).
    """
    problems: List[str] = []
    reference = next((r for r in records if "digest" in r), None)
    for index, record in enumerate(records + ([traced] if traced else [])):
        own = list(record.get("problems", []))
        if reference is not None and "digest" in record and record is not reference:
            label = "traced" if record is traced else f"run {index}"
            if record["digest"] != reference["digest"]:
                own.append(f"{label}: digest {record['digest'][:12]} differs from "
                           f"{reference['digest'][:12]}")
            elif _fingerprint(record) != _fingerprint(reference):
                own.append(f"{label}: core or memo counters differ from the first run")
        record["failed"] = bool(own) or "digest" not in record
        problems.extend(own)
    return problems


def _median(records: List[Dict[str, object]], key) -> float:
    return statistics.median(key(r) for r in records)


def normalized(record: Dict[str, object], phase: str) -> float:
    """``setup_s`` or ``wall_s`` of a record at the reference host speed."""
    return record[f"{phase}_s"] * REFERENCE_PROBE_S / record[f"{phase}_speed_s"]


def end_to_end_metrics(good: List[Dict[str, object]], accuracy: Dict[str, object]
                       ) -> Dict[str, float]:
    """Every :data:`END_TO_END` metric from the successful timed records
    and the accuracy record."""
    return {
        "setup_s": _median(good, lambda r: normalized(r, "setup")),
        "wall_s": _median(good, lambda r: normalized(r, "wall")),
        "items_per_s": _median(good, lambda r: r["items"] / normalized(r, "wall")),
        "peak_rss_mb": _median(good, lambda r: r["peak_rss_mb"]),
        "headline_error": accuracy["headline_error"],
    }


def run_one(root: pathlib.Path, workload: str, seed: int, seconds: float, trace: bool,
            scale: str, deadline: float) -> Dict[str, object]:
    """One run's result document; its ``metrics`` is None when the run
    cannot produce them (no measurement, or the traced or accuracy
    measurement, succeeded)."""
    runner = Runner(root, workload, seed, scale, deadline)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if trace:
        records = runner.timed_set(seconds / 2, MIN_TRACE_BASELINE)
        last = runner.spawn("traced", str(out_dir / f"spans-{workload}-seed{seed}.json"))
        problems = check_set(records, last)
    else:
        records = runner.timed_set(seconds, MIN_SAMPLES)
        last = runner.spawn("accuracy")
        problems = check_set(records) + last.get("problems", [])
        last["failed"] = bool(last.get("problems")) or "headline_error" not in last
    everything = records + [last]
    good = [r for r in records if not r["failed"]]
    metrics = None
    if good and trace and "layers" in last:
        values = layers.per_layer_metrics(last, _median(good, lambda r: r["wall_s"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
    elif good and not trace and "headline_error" in last:
        values = end_to_end_metrics(good, last)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = sum(1 for r in everything if r["failed"])
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "scale": scale,
        "digest": good[0]["digest"] if good else None,
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "layer_table": last.get("layers"),
        "env": good[0]["env"] if good else None,
        "host": {**host_fingerprint(), "numpy": good[0]["numpy"] if good else None},
        "records": everything,
    }


def report(result: Dict[str, object]) -> str:
    """Human-readable lines printed before the JSON result."""
    lines = [
        f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{result['attempted']} measurements, {result['failed']} failed",
        "host: " + " ".join(f"{k}={v}" for k, v in result["host"].items()),
        "env: " + " ".join(f"{k}={v}" for k, v in result["env"].items()),
        f"digest {result['workload']} seed={result['seed']} {result['digest']}",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<40s} {metric['value']:>14.6g} {metric['unit']}")
    if result["layer_table"]:
        lines.append(layers.render_table(result["layer_table"]))
    lines.extend(f"FAILED CHECK: {p}" for p in result["problems"])
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="work per measurement (toy: the self-test's size)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    start = time.monotonic()
    if args.workload == "all":
        plan = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    for workload, trace in plan:
        result = run_one(root, workload, args.seed, args.seconds, trace, args.scale,
                         start + DEADLINE_S * len(plan))
        name = f"{workload}-seed{args.seed}-trace{int(trace)}.json"
        (root / OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
        if result["metrics"] is None:
            print("\n".join(f"FAILED CHECK: {p}" for p in result["problems"]), file=sys.stderr)
            print(f"perfbench: {workload} produced no metrics", file=sys.stderr)
            return 1
        print(report(result))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
