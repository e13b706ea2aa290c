"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest tvkbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from tvk import training  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "tvkbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_round_passes_every_check(workload):
    result = _result(_cli("--workload", workload, "--seed", "5",
                          "--seconds", "0", "--trace", "0", "--quick"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > workloads.WORKLOADS[workload].ops_per_round
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_quick_run_reports_every_layer_metric():
    result = _result(_cli("--workload", "predict", "--seed", "5",
                          "--seconds", "0", "--trace", "1", "--quick"))
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for stage in ("boot_flow", "boot_dm", "iter_flow", "iter_dm", "refine"):
        for kind in ("x", "y", "sq", "up"):
            assert m[f"autodiff.{stage}.{kind}.fwd_s"] > 0
    assert m["autodiff.graph_nodes"] > 0 and m["autodiff.backward_s"] == 0
    assert m["network.iterative_s"] > 0 and m["baseline.ransac_s"] == 0


def test_speed_clock_divides_work_by_the_probe(monkeypatch):
    # A probe twice as slow as the reference halves the reference seconds.
    monkeypatch.setattr(run.SpeedClock, "_probe",
                        lambda self: 2 * run.PROBE_REF_S)
    clock = run.SpeedClock()

    def work(mark):
        for _ in range(4):
            time.sleep(0.1)
            mark()

    wall, ref, _ = clock.section(work)
    assert wall >= 0.4 and ref == pytest.approx(wall / 2, rel=0.05)


def test_corrupted_reference_weight_is_a_failed_operation(monkeypatch,
                                                          tmp_path):
    reference = workloads.boot_flow_ref

    def perturbed(img1, img2, params, cfg):
        params = dict(params)
        params["boot_flow.enc1.x.w"] = params["boot_flow.enc1.x.w"] * 1.01
        return reference(img1, img2, params, cfg)

    monkeypatch.setattr(workloads, "boot_flow_ref", perturbed)
    result = run.run_untraced(workloads.Predict(5, str(tmp_path)), 0, True)
    assert not result["correct"] and result["failed"] == 1


def test_changed_frozen_parameter_is_a_failed_operation(monkeypatch,
                                                        tmp_path):
    phase3 = training.Trainer.phase3

    def leaky_phase3(self):
        phase3(self)
        p = self.model.params["boot_flow.head1.w"]
        p.data = p.data * 1.5

    monkeypatch.setattr(training.Trainer, "phase3", leaky_phase3)
    result = run.run_untraced(workloads.Train(5, str(tmp_path)), 0, True)
    assert not result["correct"] and result["failed"] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "tvkbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "predict", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout.strip() == ""
