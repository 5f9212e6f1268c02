"""Scheduling cost and scheduler loss: O(active) passes, adoption, waits.

* a pass parses only new and non-terminal job records (final records
  are immutable), counted by ``service.records_loaded``;
* ``running`` jobs of a dead scheduler are adopted by the next pool;
* a draining pool wakes when a worker exits, not a full ``poll`` later;
* ``poll`` is validated before any worker is forked.
"""

import json
import multiprocessing
import threading
import time
from collections import Counter

import pytest

from repro import observe as obs
from repro.cli import main
from repro.service import (
    DONE,
    PENDING,
    RUNNING,
    JobQueue,
    ScenarioSpec,
    ServiceClient,
    ServiceError,
    ServicePool,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected worker targets require the fork start method",
)


def _spec(seed=7):
    """A ~0.3 s scenario (serial KMC on the smallest MD-legal box)."""
    return ScenarioSpec(
        cells=5, md_steps=5, kmc_max_events=5, seed=seed, table_points=500
    )


# Module-level so the fork-context Process can target them.
def _block(spec_dict, staging, root, obs_path=None, attempt=1):
    time.sleep(60)


def _never_publish(spec_dict, staging, root, obs_path=None, attempt=1):
    pass


def _write_final(root, count):
    """``count`` done records, written directly (no execution needed)."""
    queue = JobQueue(root)
    for seed in range(count):
        record = queue.submit(_spec(seed=1000 + seed))
        record.state, record.mode = DONE, "executed"
        queue.update(record)


def _loads(pool):
    """Records parsed by one ``pool.step()``."""
    registry = obs.Registry(trace=False)
    with obs.observing(registry):
        pool.step()
    return registry.counters.get("service.records_loaded", 0)


class _SchedulerDied(Exception):
    pass


def _crash_scheduler_on(marker):
    """A ``notify`` that kills the scheduler at its first ``marker`` line."""

    def notify(message):
        if marker in message:
            raise _SchedulerDied(message)

    return notify


def _join_workers():
    for proc in multiprocessing.active_children():
        proc.join(timeout=30)


class TestIncrementalScan:
    @needs_fork
    def test_later_passes_load_only_new_and_non_terminal(self, tmp_path):
        _write_final(tmp_path, 50)
        client = ServiceClient(tmp_path)
        client.submit(_spec())
        pool = ServicePool(tmp_path, workers=1, target=_block)
        try:
            assert _loads(pool) == 51  # first pass: everything, once
            assert _loads(pool) == 1  # the running job only
            assert _loads(pool) == 1
            client.submit(_spec(seed=8))  # waits for the busy worker
            assert _loads(pool) == 2  # running + new pending
            assert _loads(pool) == 2  # both stay non-terminal
        finally:
            pool.shutdown(kill=True)

    @needs_fork
    def test_record_written_after_first_pass_is_scheduled(self, tmp_path):
        _write_final(tmp_path, 3)
        pool = ServicePool(tmp_path, workers=1, target=_block)
        try:
            assert pool.step() is False
            record = ServiceClient(tmp_path).submit(_spec())
            assert pool.step() is True
            assert list(pool.in_flight()) == [record.key]
            assert JobQueue(tmp_path).get(record.job_id).state == RUNNING
        finally:
            pool.shutdown(kill=True)

    def test_job_completed_by_second_pool_is_not_rerun(self, tmp_path):
        first = ServicePool(tmp_path, workers=1)
        assert first.step() is False
        record = ServiceClient(tmp_path).submit(_spec())
        ServicePool(tmp_path, workers=1).run(drain=True)
        registry = obs.Registry(trace=False)
        with obs.observing(registry):
            assert first.step() is False
        assert registry.counters.get("service.executions", 0) == 0
        assert first.in_flight() == {}
        final = JobQueue(tmp_path).get(record.job_id)
        assert (final.state, final.mode, final.attempts) == (DONE, "executed", 1)

    def test_tampered_final_record_still_fails_full_scan(self, tmp_path):
        _write_final(tmp_path, 2)
        pool = ServicePool(tmp_path, workers=1)
        pool.step()
        path = tmp_path / "queue" / "job-000002.json"
        payload = json.loads(path.read_text())
        payload["spec"]["cells"] = "many"
        path.write_text(json.dumps(payload))
        # The pool never re-reads a final record...
        assert pool.step() is False
        # ...but every full scan still validates each one.
        with pytest.raises(ServiceError, match="job-000002"):
            ServiceClient(tmp_path).jobs()

    def test_key_is_recomputed_not_trusted(self, tmp_path):
        record = ServiceClient(tmp_path).submit(_spec())
        path = tmp_path / "queue" / f"{record.job_id}.json"
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert JobQueue(tmp_path).scan(set())[0].key == record.key

    def test_client_wait_reads_finished_records_once(self, tmp_path,
                                                      monkeypatch):
        _write_final(tmp_path, 20)
        queue = JobQueue(tmp_path)
        late = queue.submit(_spec())
        loaded = Counter()
        real_load = JobQueue._load

        def counting_load(self, path):
            loaded[path.stem] += 1
            return real_load(self, path)

        monkeypatch.setattr(JobQueue, "_load", counting_load)

        def finish_late():
            time.sleep(0.2)
            late.state, late.mode = DONE, "executed"
            queue.update(late)

        finisher = threading.Thread(target=finish_late)
        finisher.start()
        records = ServiceClient(tmp_path).wait(timeout=10, poll=0.01)
        finisher.join()
        assert [r.job_id for r in records] == [
            f"job-{n:06d}" for n in range(1, 22)
        ]
        assert all(r.state == DONE for r in records)
        assert loaded[late.job_id] >= 2  # re-read on every poll
        del loaded[late.job_id]
        assert set(loaded.values()) == {1}  # the rest read once
        assert len(loaded) == 20


class TestAdoption:
    @needs_fork
    def test_published_running_jobs_complete_without_reexecution(
        self, tmp_path
    ):
        client = ServiceClient(tmp_path)
        a, b = client.submit(_spec()), client.submit(_spec())
        dead = ServicePool(
            tmp_path, workers=1, notify=_crash_scheduler_on("attached")
        )
        with pytest.raises(_SchedulerDied):
            dead.run(drain=True)
        _join_workers()  # the orphaned worker publishes, then exits
        assert [client.job(r.job_id).state for r in (a, b)] == [RUNNING] * 2
        registry = obs.Registry(trace=False)
        with obs.observing(registry):
            ServicePool(tmp_path, workers=1).run(drain=True)
        assert registry.counters.get("service.executions", 0) == 0
        finals = [client.job(r.job_id) for r in (a, b)]
        assert [(r.state, r.mode, r.attempts) for r in finals] == [
            (DONE, "executed", 1),
            (DONE, "attached", 1),
        ]
        assert client.result(b.job_id).summary["format"]

    @needs_fork
    def test_unpublished_running_job_is_reexecuted(self, tmp_path):
        client = ServiceClient(tmp_path)
        record = client.submit(_spec())
        dead = ServicePool(
            tmp_path,
            workers=1,
            target=_never_publish,
            notify=_crash_scheduler_on("executing"),
        )
        with pytest.raises(_SchedulerDied):
            dead.run(drain=True)
        _join_workers()
        assert client.job(record.job_id).state == RUNNING
        lines = []
        registry = obs.Registry(trace=False)
        with obs.observing(registry):
            ServicePool(tmp_path, workers=1, notify=lines.append).run(
                drain=True
            )
        assert registry.counters["service.executions"] == 1
        assert any(f"{record.job_id} -> {PENDING} (adopted" in s for s in lines)
        final = client.job(record.job_id)
        assert (final.state, final.mode, final.attempts) == (DONE, "executed", 1)

    @needs_fork
    def test_adopted_job_waits_as_a_fresh_pending_job(self, tmp_path):
        # Two unpublished jobs left running; one worker slot re-runs the
        # first, and the second waits as if it had never been scheduled.
        queue = JobQueue(tmp_path)
        for seed in (7, 8):
            record = queue.submit(_spec(seed=seed))
            record.state, record.mode, record.attempts = RUNNING, "executed", 2
            queue.update(record)
        pool = ServicePool(tmp_path, workers=1, target=_block)
        try:
            assert pool.step() is True
            first, second = queue.jobs()
            assert (first.state, first.mode, first.attempts) == (
                RUNNING, "executed", 1,
            )
            assert (second.state, second.mode, second.attempts) == (
                PENDING, None, 0,
            )
        finally:
            pool.shutdown(kill=True)

    @needs_fork
    def test_running_jobs_of_a_live_pool_are_not_adopted(self, tmp_path):
        # Adoption is a first-pass act: a job another live pool started
        # after this pool's first pass is left to that pool.
        first = ServicePool(tmp_path, workers=1)
        assert first.step() is False
        record = ServiceClient(tmp_path).submit(_spec())
        second = ServicePool(tmp_path, workers=1, target=_block)
        try:
            assert second.step() is True
            assert first.step() is False
            assert first.in_flight() == {}
            assert JobQueue(tmp_path).get(record.job_id).state == RUNNING
        finally:
            second.shutdown(kill=True)


class TestWakeAndPoll:
    def test_drain_wakes_on_worker_exit(self, tmp_path):
        record = ServiceClient(tmp_path).submit(_spec())
        start = time.monotonic()
        ServicePool(tmp_path, workers=1).run(drain=True, poll=5.0)
        assert time.monotonic() - start < 2.5
        assert JobQueue(tmp_path).get(record.job_id).state == DONE

    @pytest.mark.parametrize("poll", [0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("surface", ["pool", "client", "serve"])
    def test_poll_validated_before_any_fork(self, tmp_path, surface, poll):
        record = ServiceClient(tmp_path).submit(_spec())
        if surface == "pool":
            with pytest.raises(ValueError, match="poll"):
                ServicePool(tmp_path, workers=1).run(drain=True, poll=poll)
        elif surface == "client":
            with pytest.raises(ValueError, match="poll"):
                ServiceClient(tmp_path).wait(timeout=1, poll=poll)
        else:
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--root", str(tmp_path), "--drain",
                      "--poll", str(poll)])
            assert exc.value.code == 2
        assert JobQueue(tmp_path).get(record.job_id).state == PENDING
        assert multiprocessing.active_children() == []

