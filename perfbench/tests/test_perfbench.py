"""Self-test of the benchmark at toy sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced layer table sums to the traced wall time, and
that a corrupted digest, an observer effect or a broken invariant is
reported as a failure.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert f"digest {workload} seed=3 " in done.stdout
    if trace:
        document = json.loads(
            (ROOT / run.OUT_DIR / f"{workload}-seed3-trace1.json").read_text())
        table = document["layer_table"]
        total = sum(row["self_s"] for row in table["rows"].values())
        assert total == pytest.approx(table["wall_s"], rel=1e-9, abs=1e-12)
        assert (ROOT / run.OUT_DIR / f"spans-{workload}-seed3.json").is_file()


def test_layer_table_self_times_and_unattributed():
    recorder = layers.Recorder()
    # serving.engine [0, 10] > models.llama [1, 4] > hw [2, 3]; kernels [6, 7]
    spans = [("serving.engine", 0.0, 10.0, -1), ("models.llama", 1.0, 4.0, 0),
             ("hw", 2.0, 3.0, 1), ("kernels", 6.0, 7.0, 0), ("figures.fig04", 11.0, 12.0, -1)]
    for layer, start, end, parent in spans:
        recorder.layers.append(layer)
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
    table = layers.layer_table(recorder, wall_s=15.0)
    rows = table["rows"]
    assert rows["serving.engine"]["self_s"] == 6.0
    assert rows["models.llama"]["self_s"] == 2.0
    assert rows["hw"]["self_s"] == 1.0
    assert rows["figures"]["self_s"] == 1.0
    assert rows[layers.UNATTRIBUTED]["self_s"] == 4.0
    assert sum(row["self_s"] for row in rows.values()) == 15.0
    assert table["figures"] == {"fig04": 1.0}


def _record(digest="a" * 64, memo=None):
    return {"digest": digest, "problems": [],
            "counters": {"core": {"scalar_steps": 5}, "memo": memo or {"x": [1, 2, 0]}}}


def test_corrupted_digest_is_a_failure():
    records = [_record(), _record(), _record(digest="b" * 64)]
    problems = run.check_set(records)
    assert [r["failed"] for r in records] == [False, False, True]
    assert any("digest" in p for p in problems)


def test_observer_effect_is_a_failure():
    records = [_record(), _record()]
    traced = _record(memo={"x": [0, 3, 0]})
    problems = run.check_set(records, traced)
    assert traced["failed"] and not any(r["failed"] for r in records)
    assert any("traced" in p for p in problems)


def test_broken_invariants_are_reported():
    serve = SimpleNamespace(num_requests=10, finished_requests=8, shed_requests=1,
                            failed_requests=0, unfinished_requests=0)
    assert workloads.serving_problems(serve, 10)
    serve.unfinished_requests = 1
    assert not workloads.serving_problems(serve, 10)

    gold = SimpleNamespace(name="gold", tier=0, overload_shed=1)
    fleet = SimpleNamespace(admitted=10, finished=7, shed=2, unfinished=1,
                            tenant_reports=(gold,))
    assert any("tier-0" in p for p in workloads.fleet_problems(fleet, 10))
    gold.overload_shed = 0
    assert not workloads.fleet_problems(fleet, 10)
    fleet.unfinished = 0
    assert workloads.fleet_problems(fleet, 10)

    headline = SimpleNamespace(summary={"claim": float("nan")})
    problems = workloads.sweep_problems({"headline": headline}, ["headline", "fig04"])
    assert any("missing" in p for p in problems)
    assert any("finite" in p for p in problems)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("serve_stream", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
