"""Persistent on-disk job queue: one journaled JSON record per job.

The queue is a directory of ``job-NNNNNN.json`` files.  Two invariants
make it crash-safe without a database:

* **Accepted means durable.**  :meth:`JobQueue.submit` writes the full
  record to a unique fsynced temp file first and then *hard-links* it
  to the next free slot name.  ``link(2)`` is atomic and fails with
  ``EEXIST`` on a taken name, so concurrent submitters can never claim
  the same id and a crash at any instant leaves either no record or one
  complete record — never a torn or duplicated job.
* **Single-writer transitions.**  After submission only the scheduler
  rewrites a record (``pending → running → done | failed``), through
  :func:`repro.io.atomic.atomic_write`, so readers always parse a
  complete JSON document.  ``done`` and ``failed`` are final: nothing
  rewrites a record after it reaches either, which is what lets
  :meth:`JobQueue.scan` skip them.

Job ids are their file names; the record payload carries the spec and
the mutable scheduling state.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro import observe as obs
from repro.io.atomic import _fsync_dir, atomic_write
from repro.service.spec import ScenarioSpec, SpecError, canonical_json

#: Record format tag, checked on every load.
JOB_FORMAT = "repro-service-job-v1"

#: Job states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, RUNNING, DONE, FAILED)
#: States a record never leaves.
FINAL = (DONE, FAILED)

#: How a finished job got its result.
MODES = ("executed", "attached", "cached")


class ServiceError(RuntimeError):
    """The service layer hit an inconsistent queue, cache, or request."""


@dataclass
class JobRecord:
    """One job: an accepted spec plus its scheduling state."""

    job_id: str
    spec: ScenarioSpec
    state: str = PENDING
    #: Execution attempts consumed by this job's key when it finished
    #: (shared across attached jobs of one execution).
    attempts: int = 0
    #: ``executed`` ran the simulation, ``attached`` joined an in-flight
    #: execution of the same key, ``cached`` hit a published entry.
    mode: str | None = None
    #: Failure description once ``state == FAILED``.
    error: str | None = None
    #: Cache key (derived from the spec; cached here for display).
    key: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.key:
            self.key = self.spec.key()

    def to_payload(self) -> dict:
        return {
            "format": JOB_FORMAT,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "mode": self.mode,
            "error": self.error,
            "key": self.key,
        }

    @classmethod
    def from_payload(cls, job_id: str, payload: dict) -> JobRecord:
        if payload.get("format") != JOB_FORMAT:
            raise ServiceError(
                f"job {job_id}: not a {JOB_FORMAT} record "
                f"(format={payload.get('format')!r})"
            )
        try:
            spec = ScenarioSpec.from_dict(payload["spec"])
        except (KeyError, TypeError, SpecError) as exc:
            raise ServiceError(f"job {job_id}: bad spec: {exc}") from exc
        record = cls(
            job_id=job_id,
            spec=spec,
            state=payload.get("state", PENDING),
            attempts=int(payload.get("attempts", 0)),
            mode=payload.get("mode"),
            error=payload.get("error"),
        )
        if record.state not in STATES:
            raise ServiceError(f"job {job_id}: unknown state {record.state!r}")
        return record


class JobQueue:
    """The ``queue/`` directory of a service root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.dir = self.root / "queue"
        self.dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Submission (crash-safe, multi-submitter)
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        highest = 0
        for name in os.listdir(self.dir):
            if name.startswith("job-") and name.endswith(".json"):
                try:
                    highest = max(highest, int(name[4:-5]))
                except ValueError:
                    continue
        return highest + 1

    def submit(self, spec: ScenarioSpec) -> JobRecord:
        """Durably accept one job; returns its record (state pending).

        Identical specs submitted twice create two *jobs* on purpose —
        deduplication is the scheduler's concern (both jobs attach to
        one execution / cache entry), and each submitter gets its own
        handle to wait on.
        """
        record = JobRecord(job_id="", spec=spec)
        fd, tmp_name = tempfile.mkstemp(
            prefix="submit.", suffix=".tmp", dir=self.dir
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                # The payload never contains the id: the slot name the
                # link lands on *is* the id, so the record cannot
                # disagree with its file name.
                fh.write(canonical_json(record.to_payload()))
                fh.flush()
                os.fsync(fh.fileno())
            n = self._next_id()
            while True:
                final = self.dir / f"job-{n:06d}.json"
                try:
                    os.link(tmp_name, final)
                    break
                except FileExistsError:
                    # Another submitter claimed the slot between our
                    # scan and the link; take the next one.
                    n += 1
        finally:
            os.unlink(tmp_name)
        _fsync_dir(self.dir)
        record.job_id = f"job-{n:06d}"
        return record

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _load(self, path: Path) -> JobRecord:
        obs.add("service.records_loaded")
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ServiceError(f"cannot read job record {path}: {exc}") from exc
        return JobRecord.from_payload(path.stem, payload)

    def get(self, job_id: str) -> JobRecord:
        path = self.dir / f"{job_id}.json"
        if not path.exists():
            raise ServiceError(f"no such job {job_id!r} in {self.dir}")
        return self._load(path)

    def jobs(self) -> list[JobRecord]:
        """All records in id order (submission order)."""
        return self.scan(set())

    def scan(self, final: set) -> list[JobRecord]:
        """The records whose ids are not in ``final``, in id order.

        ``final`` is the caller's set of ids known to be done or failed;
        each parsed record that is final joins it, so a caller that keeps
        the set across calls parses every finished record once and every
        pending or running record on every call.
        """
        names = sorted(
            name
            for name in os.listdir(self.dir)
            if name.startswith("job-") and name.endswith(".json")
        )
        records = []
        for name in names:
            job_id = name[:-5]
            if job_id in final:
                continue
            record = self._load(self.dir / name)
            if record.state in FINAL:
                final.add(job_id)
            records.append(record)
        return records

    def counts(self) -> dict:
        """State histogram of the queue."""
        out = dict.fromkeys(STATES, 0)
        for record in self.jobs():
            out[record.state] += 1
        return out

    # ------------------------------------------------------------------
    # State transitions (scheduler-owned)
    # ------------------------------------------------------------------
    def update(self, record: JobRecord) -> None:
        """Atomically rewrite one record (scheduler state transition)."""
        if not record.job_id:
            raise ServiceError("cannot update a record with no job id")
        path = self.dir / f"{record.job_id}.json"
        if not path.exists():
            raise ServiceError(f"no such job {record.job_id!r} in {self.dir}")
        with atomic_write(path) as fh:
            fh.write(canonical_json(record.to_payload()).encode("ascii"))
