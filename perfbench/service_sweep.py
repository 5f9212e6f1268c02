"""Workload ``service-sweep``: cold sweep plus warm cache hits on the service.

Set-up builds a service root that already holds ``prior_jobs`` completed
job records.  Each repetition starts from a fresh copy of that root.  One
client then submits a sweep of new, distinct small specs, each twice,
and drains them on 2 workers (cold runs that execute or attach, then
publish), and then makes ``warm_hits`` sequential re-submissions, each
awaited (cache hits).  See README.md for why these sizes.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro import observe as obs
from repro.service import DONE, FAILED, ScenarioSpec, ServiceClient, ServicePool
from repro.service import run_service

from perfbench.common import Checks, Rep, Spans, digest, percentile, ratio

WORKERS = 2
CELLS = 5


@dataclass(frozen=True)
class Size:
    #: Completed job records already in the root (pins the queue depth).
    prior_jobs: int = 200
    #: Distinct new specs in the cold sweep (each submitted twice).
    sweep_specs: int = 6
    #: Sequential warm re-submissions, each awaited.
    warm_hits: int = 100
    md_steps: int = 50
    kmc_events: int = 100


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ServiceSweep:
    name = "service-sweep"
    backend = "fork"
    workers = WORKERS

    def __init__(self, seed: int, workdir: Path, size: Size = Size()) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = size
        self.template = self.workdir / "template-root"
        self.root = self.workdir / "root"

    def _spec(self, index: int) -> ScenarioSpec:
        s = self.size
        return ScenarioSpec(
            cells=CELLS,
            md_steps=s.md_steps,
            kmc_max_events=s.kmc_events,
            seed=self.seed * 1000 + index,
        )

    def setup(self) -> None:
        """Specs and a template root holding ``prior_jobs`` completed jobs.

        The prior jobs are one spec submitted ``prior_jobs`` times and
        drained on one worker: one execution, the rest attach to it.
        """
        shutil.rmtree(self.template, ignore_errors=True)
        self.specs = [self._spec(i + 1) for i in range(self.size.sweep_specs)]
        records = run_service(
            self.template, [self._spec(0)] * self.size.prior_jobs, workers=1
        )
        failed = [r.job_id for r in records if r.state != DONE]
        if failed:
            raise RuntimeError(f"set-up jobs did not complete: {failed[:5]}")

    def run_once(self, traced: bool) -> Rep:
        shutil.rmtree(self.root, ignore_errors=True)
        shutil.copytree(self.template, self.root)
        spans = Spans()
        published: dict[str, float] = {}

        def on_event(message: str) -> None:
            # "key=<12 hex> published (...)": the cold job's completion.
            if message.startswith("key=") and " published " in message:
                published[message[4:16]] = time.perf_counter()

        client = ServiceClient(self.root)
        registry = obs.Registry(trace=False) if traced else None
        with obs.observing(registry) if traced else nullcontext():
            pool = ServicePool(self.root, workers=WORKERS, notify=on_event)
            t0 = time.perf_counter()
            cold = []
            for spec in self.specs:
                for _ in range(2):
                    with spans.span("service.submit"):
                        record = client.submit(spec)
                    cold.append((record, time.perf_counter()))
            pool.run(drain=True)
            t_cold = time.perf_counter()
            depth = len(client.jobs())
            t_warm = time.perf_counter()
            warm, latencies = [], []
            for k in range(self.size.warm_hits):
                spec = self.specs[k % len(self.specs)]
                start = time.perf_counter()
                with spans.span("service.submit"):
                    record = client.submit(spec)
                state = record.state
                while state not in (DONE, FAILED):
                    with spans.span("service.step"):
                        pool.step()
                    state = client.job(record.job_id).state
                with spans.span("service.result"):
                    if state == DONE:
                        client.result(record.job_id)
                latencies.append(time.perf_counter() - start)
                warm.append(record)
            t1 = time.perf_counter()
            pool.shutdown()
            for record in warm:
                with spans.span("service.cache.lookup"):
                    client.cache.lookup(record.key)
        wall = (t_cold - t0) + (t1 - t_warm)
        cold_s = t_cold - t0
        checks = Checks()
        # Failed jobs have no entry; the checks count them.
        done = [r for r, _ in cold if client.job(r.job_id).state == DONE]
        entries = {r.key: client.result(r.job_id) for r in done}
        artifacts = {
            key: self._artifacts(checks, entry) for key, entry in entries.items()
        }
        modes = self._check(checks, client, cold, warm, artifacts)
        summaries = {key: entry.summary for key, entry in entries.items()}
        rep = Rep(
            wall_s=wall,
            digest=digest(sorted(artifacts.items())),
            checks=checks,
            headline={
                "jobs_per_s": ratio(len(cold), cold_s),
                "job_warm_p50_s": percentile(latencies, 50),
                "job_warm_p90_s": percentile(latencies, 90),
            },
            counts={
                "service.queue_depth": depth,
                "md.vacancies": sum(v["vacancies_after_md"] for v in summaries.values()),
                "kmc.events": sum(v["kmc_events"] for v in summaries.values()),
            },
        )
        if traced:
            compute = {}
            for record, _ in cold:
                snapshot = client.observe_snapshot(record.job_id) or {}
                compute[record.key] = sum(
                    p["total_s"]
                    for p in snapshot.get("phases", [])
                    if p["name"] == "service.execute"
                )
            overhead = [
                published.get(record.key[:12], t_cold) - submitted - compute[record.key]
                for record, submitted in cold
            ]
            jobs = len(cold)
            rep.layers = {
                "service.submit_s": spans.mean("service.submit"),
                "service.step_s": spans.mean("service.step"),
                "service.queue_depth": float(depth),
                "service.cache.lookup_s": spans.mean("service.cache.lookup"),
                "service.result_s": spans.mean("service.result"),
                "service.job_compute_s": ratio(sum(compute.values()), len(compute)),
                "service.job_overhead_s": ratio(sum(overhead), jobs),
                "service.executions": float(modes["executed"]),
                "service.attached": float(modes["attached"]),
                "service.cached": float(modes["warm_cached"]),
                "service.dedup_ratio": ratio(
                    modes["attached"] + modes["cached"], jobs
                ),
            }
        return rep

    @staticmethod
    def _artifacts(checks: Checks, entry) -> tuple:
        """SHA-256 of every deterministic artifact of a cache entry.

        Each file is read from disk once and compared with the hash its
        MANIFEST.json recorded at publish time, so an entry whose bytes
        changed after publishing, or were published wrong, fails.  Warm
        hits read these same entries, so they return exactly these bytes.
        """
        hashes = []
        for rel, meta in sorted(entry.manifest["artifacts"].items()):
            if not meta["deterministic"]:
                continue
            sha = _file_sha256(entry.path / rel)
            checks.check(
                f"{entry.key[:12]}/{rel} matches its manifest",
                sha == meta["sha256"],
            )
            hashes.append((rel, sha))
        return tuple(hashes)

    def _check(self, checks, client, cold, warm, artifacts) -> dict:
        # Modes of the cold sweep's jobs, plus the warm hits served cached.
        modes = {"executed": 0, "attached": 0, "cached": 0, "warm_cached": 0}
        executed_keys: dict[str, int] = {}
        for record, _ in cold:
            final = client.job(record.job_id)
            checks.check(f"{record.job_id} done", final.state == DONE, final.state)
            modes[final.mode] = modes.get(final.mode, 0) + 1
            if final.mode == "executed":
                executed_keys[final.key] = executed_keys.get(final.key, 0) + 1
        checks.check(
            "each distinct key executes once",
            sorted(executed_keys.values()) == [1] * len(self.specs)
            and len(artifacts) == len(self.specs),
            f"{executed_keys}",
        )
        for record in warm:
            final = client.job(record.job_id)
            ok = final.state == DONE and final.mode == "cached"
            checks.check(
                f"{record.job_id} warm hit served from a cold entry",
                ok and record.key in artifacts,
                f"{final.state}/{final.mode}",
            )
            modes["warm_cached"] += int(ok)
        return modes
