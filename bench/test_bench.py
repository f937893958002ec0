"""Self-test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py

Runs every workload shrunk (7x7 mazes, T=16, N=4; two levels per holdout,
one episode each) for about a second, traced and untraced, and checks the
output contract: the metric names match BENCHMARK.json, every check passes,
the determinism digests repeat, and a directory holding only the benchmark
fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace=0, seed=3, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == run.per_layer_spec()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(bench(workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    res = result(bench(workload, trace=1))
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["trace.ops"] > 0
    if workload == "eval":
        assert metrics["rl_core.forward.rows_per_call"] == 1
        assert metrics["maze.shortest_path_distances.calls"] > 0
        assert metrics["rl_core.rollout.calls"] == 0
    else:
        assert metrics["rl_core.forward.rows_per_call"] >= 4
        assert metrics["rl_core.ppo_update.calls"] > 0
        assert metrics["ued.load_run_state.calls"] > 0
        assert metrics["evaluation.evaluate.calls"] == 0
    assert (metrics["level_sampler.insert_batch.calls"] > 0) == (workload == "accel")
    assert (metrics["maze.MazeEditorEnv.step.calls"] > 0) == (workload == "paired")
    assert (metrics["env_core.AutoResetWrapper.step.calls"] > 0) == (workload == "dr")


@pytest.mark.parametrize("workload", ["accel", "eval"])
def test_digests_repeat(workload):
    def digests(done):
        assert done.returncode == 0, done.stderr
        return [line for line in done.stdout.splitlines() if line.startswith("digest ")]

    first = digests(bench(workload, seed=5))
    assert first and first == digests(bench(workload, seed=5))
    assert first != digests(bench(workload, seed=6))


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("dr", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
