"""Client API of the service layer: submit, wait, fetch results.

:class:`ServiceClient` talks to a service root purely through the
on-disk queue and cache — no sockets, no daemon handshake — so it works
against a live ``serve`` pool, a pool in another process, or a pool
run inline afterwards.  :func:`run_service` is the one-shot embedded
mode: submit a batch of specs and drain a pool in-process (what the
sweep-shaped workloads and the tests use).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.cache import MANIFEST_NAME, ResultCache
from repro.service.queue import (
    DONE,
    FAILED,
    FINAL,
    JobQueue,
    JobRecord,
    ServiceError,
)
from repro.service.scheduler import ServicePool, check_poll
from repro.service.spec import ScenarioSpec


@dataclass
class JobResult:
    """A completed job's published artifacts."""

    job_id: str
    key: str
    #: The immutable cache entry directory.
    path: Path
    #: The entry's MANIFEST.json payload (per-file sha256 + sizes).
    manifest: dict
    #: The deterministic ``result.json`` payload.
    summary: dict

    def artifact(self, rel_path: str) -> Path:
        """Absolute path of one published artifact."""
        path = self.path / rel_path
        if not path.exists():
            raise ServiceError(
                f"job {self.job_id}: no artifact {rel_path!r} under {self.path}"
            )
        return path


class ServiceClient:
    """Handle on one service root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.queue = JobQueue(self.root)
        self.cache = ResultCache(self.root)

    # ------------------------------------------------------------------
    # Submission and inspection
    # ------------------------------------------------------------------
    def submit(self, spec: ScenarioSpec) -> JobRecord:
        """Durably enqueue one scenario; returns its pending record."""
        return self.queue.submit(spec)

    def job(self, job_id: str) -> JobRecord:
        return self.queue.get(job_id)

    def jobs(self) -> list[JobRecord]:
        return self.queue.jobs()

    def observe_snapshot(self, job_id: str) -> dict | None:
        """The live streamed registry snapshot of a job's execution."""
        record = self.queue.get(job_id)
        path = self.root / "obs" / f"{record.key}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            # Not streamed yet (job pending) or mid-rotation; callers
            # poll, so "no snapshot right now" is an answer, not an
            # error.
            return None

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def wait(
        self,
        job_ids=None,
        *,
        timeout: float | None = None,
        poll: float = 0.05,
    ) -> list[JobRecord]:
        """Block until the given jobs (default: all) are done or failed.

        Requires a scheduler draining the root somewhere (a ``serve``
        process or another thread); raises :class:`ServiceError` on
        timeout.  Without ``job_ids`` each poll parses only the records
        not yet seen finished (see :meth:`JobQueue.scan`).
        """
        check_poll(poll)
        deadline = None if timeout is None else time.monotonic() + timeout
        final: set[str] = set()
        seen: dict[str, JobRecord] = {}
        while True:
            if job_ids is None:
                seen.update((r.job_id, r) for r in self.queue.scan(final))
                records = [seen[job_id] for job_id in sorted(seen)]
            else:
                records = [self.queue.get(job_id) for job_id in job_ids]
            open_ids = [r.job_id for r in records if r.state not in FINAL]
            if not open_ids:
                return records
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for job(s) {', '.join(open_ids)} "
                    "(is a scheduler serving this root?)"
                )
            time.sleep(poll)

    def result(self, job_id: str) -> JobResult:
        """The published artifacts of a completed job."""
        record = self.queue.get(job_id)
        if record.state == FAILED:
            raise ServiceError(f"job {job_id} failed: {record.error}")
        if record.state != DONE:
            raise ServiceError(f"job {job_id} is {record.state}, not done")
        entry = self.cache.lookup(record.key)
        if entry is None:
            raise ServiceError(
                f"job {job_id} is done but cache entry {record.key} is gone"
            )
        manifest = json.loads((entry / MANIFEST_NAME).read_text())
        summary = json.loads((entry / "result.json").read_text())
        return JobResult(
            job_id=job_id,
            key=record.key,
            path=entry,
            manifest=manifest,
            summary=summary,
        )


def run_service(
    root,
    specs,
    *,
    workers: int = 2,
    max_attempts: int = 3,
    target=None,
    notify=None,
) -> list[JobRecord]:
    """Submit ``specs`` and drain an inline pool; returns final records.

    The embedded one-shot mode: everything a ``submit``+``serve
    --drain`` pair does, in-process, in submission order.
    """
    client = ServiceClient(root)
    submitted = [client.submit(spec) for spec in specs]
    pool = ServicePool(
        root,
        workers=workers,
        max_attempts=max_attempts,
        target=target,
        notify=notify,
    )
    pool.run(drain=True)
    return [client.job(record.job_id) for record in submitted]
