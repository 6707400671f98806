"""Tests of the benchmark harness itself: every workload path at smoke scale.

    python3 -m pytest -q perfbench/test_smoke.py

Kept out of the repository's Tier-1 suite, which collects only ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
# every runnable workload, including any left out of BENCHMARK.json as unsteady
WORKLOADS = ["study_ref", "train_long", "decode_bulk", "cli_pipeline"]


def _run(cwd, workload, trace, *extra):
    argv = [*BENCH["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_passes_its_checks(workload, trace):
    out = _run(ROOT, workload, trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(out.stdout.splitlines()[-2])["record"]
    assert record["env"]["blas_threads"] == 1 and record["env"]["nproc"] >= 1


def test_benchmark_names_only_runnable_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def test_recorder_patches_every_binding_and_restores_them():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    try:
        import tracer
        from crossdial import cli, experiment, model

        original = model.train
        with tracer.Recorder():
            assert model.train is not original
            assert experiment.train is model.train and cli.train is model.train
        assert model.train is experiment.train is cli.train is original
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".state", "__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
