"""Tests of the benchmark itself: tiny workloads, checks that catch faults.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import coupled_serial, kmc_parallel, service_sweep
from perfbench.common import Checks, Rep
from perfbench.run import ROOT, measure, summarize

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}

TINY = {
    "coupled-serial": lambda seed, path: coupled_serial.CoupledSerial(
        seed,
        path,
        coupled_serial.Size(
            cells=5,
            md_steps=30,
            kmc_events=40,
            trajectory_every=5,
            table_points=500,
            eam_repeats=1,
            rate_eval_calls=10,
        ),
    ),
    "kmc-parallel": lambda seed, path: kmc_parallel.KMCParallel(
        seed,
        path,
        kmc_parallel.Size(cells=8, vacancies=10, cycles=2, table_points=500,
                          rate_eval_calls=10),
    ),
    "service-sweep": lambda seed, path: service_sweep.ServiceSweep(
        seed,
        path,
        service_sweep.Size(
            prior_jobs=3, sweep_specs=2, warm_hits=3, md_steps=5, kmc_events=5
        ),
    ),
}


def _run(workload, trace: bool):
    raw = measure(workload, 1e-3, trace)
    return summarize(workload, raw, BENCH, trace)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    for name, make in TINY.items():
        runs[name] = _run(make(1, tmp_path_factory.mktemp(name)), trace=True)
    return runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_and_reports_every_per_layer_metric(
    traced_runs, name
):
    result, record = traced_runs[name]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["error_rate"]["value"] == 0.0
    assert record["repetitions"] == {"untraced": 1, "traced": 1}
    assert len(record["steal_s"]) == len(record["traced_steal_s"]) == 1
    assert not record["undeclared"]


def test_every_per_layer_metric_is_measured_by_some_workload(traced_runs):
    unmeasured = set.intersection(
        *(set(record["not_exercised"]) for _result, record in traced_runs.values())
    )
    assert not unmeasured


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result, record = _run(TINY["service-sweep"](3, tmp_path), trace=False)
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["counts"]["service.queue_depth"] == 3 + 2 * 2


def _error_rate(workload) -> float:
    result, _record = _run(workload, trace=False)
    assert not result["correct"]
    return result["failed"] / result["attempted"]


def test_corrupted_store_frame_raises_error_rate(tmp_path, monkeypatch):
    class FlippedReader(coupled_serial.TrajectoryReader):
        def frame(self, frame):
            occ = super().frame(frame)
            occ[0] = 1 - occ[0]
            return occ

    monkeypatch.setattr(coupled_serial, "TrajectoryReader", FlippedReader)
    assert _error_rate(TINY["coupled-serial"](1, tmp_path)) > 0


def test_diverging_scheme_raises_error_rate(tmp_path, monkeypatch):
    workload = TINY["kmc-parallel"](1, tmp_path)
    setup = workload.setup

    def setup_with_faulty_scheme():
        setup()
        engine = workload.engines["onesided"]
        run = engine.run

        def corrupted_run(*args, **kwargs):
            result = run(*args, **kwargs)
            vac = np.flatnonzero(result.occupancy == kmc_parallel.VACANCY)[0]
            result.occupancy[vac] = 1  # a vacancy silently refilled
            return result

        engine.run = corrupted_run

    workload.setup = setup_with_faulty_scheme
    assert _error_rate(workload) > 0


def test_corrupted_cache_artifact_raises_error_rate(tmp_path, monkeypatch):
    workload = TINY["service-sweep"](1, tmp_path)
    submit = service_sweep.ServiceClient.submit
    cold_jobs = 2 * workload.size.sweep_specs

    def submit_then_corrupt(self, spec):
        record = submit(self, spec)
        if int(record.job_id.split("-")[1]) == workload.size.prior_jobs + cold_jobs + 1:
            # First warm hit: tamper with the published entry it will read.
            entry = self.cache.lookup(spec.key())
            with open(entry / "vacancies_after_kmc.npy", "ab") as fh:
                fh.write(b"corrupt")
        return record

    monkeypatch.setattr(service_sweep.ServiceClient, "submit", submit_then_corrupt)
    assert _error_rate(workload) > 0


class _Drifting:
    """A fake workload whose final state changes between repetitions."""

    name = "fake"
    seed = 0
    backend = None
    workers = None
    def __init__(self) -> None:
        self.calls = 0

    def setup(self) -> None:
        time.sleep(0.01)

    def run_once(self, traced: bool) -> Rep:
        self.calls += 1
        checks = Checks()
        checks.check("ran", True)
        return Rep(
            wall_s=0.01 * self.calls,
            digest=str(self.calls),
            checks=checks,
            headline={},
        )


def test_nondeterministic_repetitions_raise_error_rate():
    workload = _Drifting()
    raw = measure(workload, 0.05, trace=False)
    result, record = summarize(workload, raw, BENCH, trace=False)
    assert workload.calls >= 2
    assert result["failed"] == workload.calls - 1
    assert not result["correct"]
    assert any("same seed" in f for f in record["failures"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench-work").exists()
