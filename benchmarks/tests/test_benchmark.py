"""Self-tests of the benchmark: smoke runs, metric names and units, generator
determinism, and the exact work counts of the traced run.

    python -m pytest benchmarks/tests -q

Run from the repository root.  Each workload runs at smoke size (one round).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("benchmarks") / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def test_spec_lists_exactly_the_emitted_metrics():
    # sweep runs by name but is not listed (see README.md)
    assert [w["name"] for w in SPEC["workloads"]] == ["cli-oneshot", "library-varied"]
    assert set(run.WORKLOADS) == {"cli-oneshot", "sweep", "library-varied"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload):
    def first(seed, n=3):
        stream = workloads.rounds(workload, seed)
        return [next(stream) for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "request", "parent": None, "start": 0, "end": 100},
        {"id": 2, "name": "cli.main", "parent": 1, "start": 0, "end": 100},
        # two overlapping children (pool threads) and one disjoint child
        {"id": 3, "name": "pipeline.run_full", "parent": 2, "start": 10, "end": 40},
        {"id": 4, "name": "pipeline.run_full", "parent": 2, "start": 30, "end": 50},
        {"id": 5, "name": "noise.classify", "parent": 2, "start": 70, "end": 80, "family": "psi+"},
    ]
    metrics = tracer.layer_metrics([spans])
    assert metrics["cli.self_ms"] == pytest.approx((100 - 40 - 10) / 1e6)
    assert metrics["pipeline.run_full_calls"] == 2
    assert metrics["noise.family_reuse_ratio"] == 1.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and info["failed_frac"] == 0.0
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for key in ("python", "numpy", "nproc", "cpu", "commit", "seed", "size"):
        assert key in info
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    value = {n: m["value"] for n, m in result["metrics"].items()}
    assert value["states.fanout_applies"] == 32 * value["pipeline.branch_states_calls"]
    if workload == "sweep":
        assert value["pipeline.branch_recompute_ratio"] == 64
        assert value["noise.family_reuse_ratio"] == 16 / 128
    elif workload == "library-varied":
        assert value["pipeline.branch_recompute_ratio"] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
