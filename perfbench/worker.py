"""One measurement in a fresh interpreter; prints one JSON record.

    python3 perfbench/worker.py <mode> <workload> <seed> <scale> <spawn_stamp> [<spans_out>]

``mode`` is ``timed`` (set-up and body, untraced), ``traced`` (the
same with layer spans recorded around the body; the spans are written
to ``spans_out``) or ``accuracy`` (the headline figure's error against
the paper).  ``spawn_stamp`` is the parent's ``time.monotonic()`` just
before it started this process, so ``setup_s`` includes interpreter
start-up and imports.  ``run.py`` starts this with a pinned
environment; it is not meant to be started by hand.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import sys
import time

import workloads

#: Environment variables recorded with every result, besides every
#: ``REPRO_*`` one: all that steer the simulator or its numeric libraries.
ENV_NAMES = ("PYTHONHASHSEED", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS")


def effective_env() -> dict:
    return {key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_") or key in ENV_NAMES}


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


#: The speed probe: a fixed pure-Python loop timed every
#: ``PROBE_INTERVAL_S`` seconds from a timer signal.
PROBE_LOOP = 200_000
PROBE_INTERVAL_S = 0.25


class SpeedProbe:
    """Samples how fast this host runs interpreter-bound code while a
    measurement runs, so times can be scaled to a reference speed.

    The probe only times its own loop; it touches no simulator state.
    """

    def __init__(self) -> None:
        self.samples = []  # (start, seconds)
        self._busy = False

    def probe(self, *_signal) -> None:
        if self._busy:  # the timer fired during an explicit probe
            return
        self._busy = True
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def taken(self, since: float):
        """Probe times of the samples taken since ``since``."""
        return [seconds for start, seconds in self.samples if start >= since]

    def mean(self, since: float, until: float) -> float:
        """Mean probe time of the samples taken in ``[since, until]``."""
        window = [seconds for start, seconds in self.samples if since <= start <= until]
        return sum(window) / len(window)


def counters() -> dict:
    """The public counter registries of every loaded layer.

    Memo counters are keyed by cache name; caches that saw no lookup
    are left out, so importing a module that creates an idle cache
    does not change the record.
    """
    from repro.core import memo
    from repro.serving import engine_core

    result = {
        "core": engine_core.counters_snapshot(),
        "memo": {name: [entry["hits"], entry["misses"], entry["evictions"]]
                 for name, entry in memo.cache_stats().items()
                 if entry["hits"] or entry["misses"]},
    }
    admission = sys.modules.get("repro.cluster.admission")
    result["admission"] = admission.snapshot_counters() if admission else {}
    surrogate = sys.modules.get("repro.surrogate.backend")
    result["surrogate"] = dict(surrogate.SURROGATE_COUNTERS) if surrogate else {}
    audit = sys.modules.get("repro.audit.auditor")
    auditor = audit.get_auditor() if audit else None
    result["audit"] = auditor.summary() if auditor is not None else {}
    return result


def measure(mode: str, workload: str, seed: int, scale: str, spawn_stamp: float,
            spans_out: str = "") -> dict:
    recorder = None
    probe = SpeedProbe()
    if mode == "traced":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    else:
        probe.start()
    setup_start = time.perf_counter()
    body = workloads.WORKLOADS[workload](seed, scale)
    setup_s = time.monotonic() - spawn_stamp
    setup_probes = probe.taken(setup_start)
    probe.probe()  # at least one speed sample per phase
    if recorder is not None:
        recorder.active = True
    start = time.perf_counter()
    outcome = body()
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.active = False
    wall_probes = probe.taken(start)
    probe.probe()
    probe.stop()
    record = {
        # Probe time spent inside a phase is not the simulator's.
        "setup_s": setup_s - sum(setup_probes),
        "wall_s": wall_s - sum(wall_probes),
        "setup_speed_s": probe.mean(setup_start, start),
        "wall_speed_s": probe.mean(start, time.perf_counter()),
        "items": outcome.items,
        "digest": workloads.digest(outcome.payload),
        "problems": outcome.problems,
        "extra": outcome.extra,
        "counters": counters(),
    }
    outcome.hold.clear()
    if recorder is not None:
        record["layers"] = layers.layer_table(recorder, wall_s)
        if spans_out:
            layers.write_spans(recorder, spans_out)
    return record


def accuracy(scale: str) -> dict:
    import math

    from repro.figures import run_figure

    rows = run_figure(figure_id="headline", fast=scale != "full").rows
    error = workloads.headline_error(rows)
    problems = [] if math.isfinite(error) else [f"headline error is {error}"]
    return {"headline_error": error, "problems": problems}


def main(argv) -> int:
    mode, workload, seed, scale, spawn_stamp = argv[:5]
    spans_out = argv[5] if len(argv) > 5 else ""
    if mode == "accuracy":
        record = accuracy(scale)
    else:
        record = measure(mode, workload, int(seed), scale, float(spawn_stamp), spans_out)
    import numpy

    record.update({
        "peak_rss_mb": peak_rss_mb(),
        "env": effective_env(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
