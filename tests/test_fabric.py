"""Durable-fabric tests: sqlite journal, recovery, leases, worker fleet.

Locks down the guarantees of the durable sweep fabric (DESIGN.md,
"Durable fabric"):

* :class:`repro.service.db.ServiceDB` — WAL mode, fsync-on-commit,
  schema versioning, job/worker/lease journaling round-trips.
* Boot recovery — terminal jobs replay from the journal (same id,
  payload and record keys), queued and orphaned *running* jobs
  re-enqueue and complete; the id counter never reuses sequence
  numbers across incarnations.
* The lease state machine — grant, heartbeat renewal, TTL expiry with
  requeue, explicit failure, validated + idempotent ingest, and the
  local-fallback paths (no workers, fleet died, failure budget burned).
* The wire round-trip — ``SweepPoint.to_dict``/``from_dict`` preserve
  cache keys exactly, which is what lets a worker verify a lease.
* End-to-end crash recovery (slow, subprocess): ``kill -9`` a worker
  mid-unit and the job still completes with records byte-identical to
  a single-process serial run; SIGKILL the *server* mid-job and the
  restarted process recovers the same job id to ``done`` with
  byte-identical records.
* The satellites: ``GET /jobs`` filtering + pagination and audit-log
  size rotation.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
import repro.service.fleet as fleet_module
from repro.experiments.common import TINY
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig12 import run_fig12
from repro.runner import ArtifactStore, ResultCache, SweepEngine, SweepPoint, WorkloadSpec
from repro.service import (
    DONE,
    QUEUED,
    RUNNING,
    AuditLog,
    FleetCoordinator,
    FleetError,
    FleetWorker,
    JobRequest,
    JobService,
    RetryPolicy,
    SchemaMismatch,
    ServiceClient,
    ServiceDB,
    ServiceError,
    UnknownWorker,
    serve,
)

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02, jitter=0.0)


def tiny_spec(model: str = "vgg16", dataset: str = "cifar10") -> WorkloadSpec:
    return WorkloadSpec(model=model, dataset=dataset, batch_size=2, num_steps=2)


def tiny_point(**overrides) -> SweepPoint:
    params = {
        "workload": tiny_spec(),
        "arch": TINY.arch_config(),
        "phi": TINY.phi_config(),
    }
    params.update(overrides)
    return SweepPoint(**params)


def canonical(records: dict[str, dict]) -> dict[str, bytes]:
    """Records as canonical JSON bytes, for byte-identity comparisons."""
    return {
        key: json.dumps(record, sort_keys=True).encode()
        for key, record in records.items()
    }


def sample_row(request: JobRequest, *, job_id="job-000001", seq=1, status=QUEUED):
    """A journal row as ``ServiceDB.save_job`` expects it."""
    return {
        "id": job_id,
        "seq": seq,
        "key": request.key,
        "status": status,
        "request": request.to_dict(),
        "error": None,
        "payload": None,
        "record_keys": [],
        "created": time.time(),
        "started": time.time() if status == RUNNING else None,
        "finished": None,
    }


@contextmanager
def served(tmp_path, *, name="svc", db=True, lease_ttl=10.0, workers=2):
    """A live in-process service (cache + store + optional journal)."""
    engine = SweepEngine(
        cache=ResultCache(tmp_path / f"{name}-cache"),
        store=ArtifactStore(tmp_path / f"{name}-store"),
    )
    journal = ServiceDB(tmp_path / f"{name}-cache" / "service.db") if db else None
    service = JobService(engine, workers=workers, db=journal, lease_ttl=lease_ttl)
    server = serve(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url, retry=FAST_RETRY), service, server
    finally:
        service.drain()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# --------------------------------------------------------------------- #
# ServiceDB
# --------------------------------------------------------------------- #
class TestServiceDB:
    def test_job_rows_round_trip_and_delete(self, tmp_path):
        db = ServiceDB(tmp_path / "svc.db")
        request = JobRequest(experiment="fig12", scale="tiny")
        row = sample_row(request)
        db.save_job(row)
        db.save_job({**row, "status": DONE, "payload": {"x": 1}, "record_keys": ["a" * 64]})
        (loaded,) = db.load_jobs()
        assert loaded["status"] == DONE
        assert loaded["payload"] == {"x": 1}
        assert loaded["record_keys"] == ["a" * 64]
        assert loaded["request"] == request.to_dict()
        assert db.max_job_seq() == 1
        db.delete_job(row["id"])
        assert db.load_jobs() == []
        db.close()

    def test_wal_mode_and_full_sync_are_active(self, tmp_path):
        db = ServiceDB(tmp_path / "svc.db")
        assert db._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # 2 == FULL (sqlite numeric pragma value)
        assert db._conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        db.close()

    def test_reopen_preserves_rows_and_schema(self, tmp_path):
        path = tmp_path / "svc.db"
        request = JobRequest(experiment="fig12", scale="tiny")
        with ServiceDB(path) as db:
            db.save_job(sample_row(request))
            db.save_worker("worker-abc", "alive")
            db.lease_event("unit-000001", "worker-abc", "granted", points=3)
        with ServiceDB(path) as db:
            assert len(db.load_jobs()) == 1
            (worker,) = db.load_workers()
            assert worker["id"] == "worker-abc" and worker["state"] == "alive"
            (event,) = db.lease_events()
            assert event["event"] == "granted"
            assert event["detail"] == {"points": 3}

    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        path = tmp_path / "svc.db"
        ServiceDB(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaMismatch):
            ServiceDB(path)

    def test_concurrent_writers_do_not_corrupt(self, tmp_path):
        db = ServiceDB(tmp_path / "svc.db")
        request = JobRequest(experiment="fig12", scale="tiny")
        barrier = threading.Barrier(4)

        def hammer(i: int) -> None:
            barrier.wait()
            for j in range(25):
                db.save_job(sample_row(request, job_id=f"job-{i:03d}{j:03d}", seq=i * 100 + j))
                db.lease_event(f"unit-{i}", None, "granted")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(db.load_jobs()) == 100
        assert len(db.lease_events()) == 100
        db.close()


# --------------------------------------------------------------------- #
# Wire round-trip
# --------------------------------------------------------------------- #
class TestPointSerialization:
    def test_to_dict_round_trips_through_json_preserving_cache_key(self):
        points = [
            tiny_point(),
            tiny_point(label="labelled"),
            tiny_point(accelerator="sato", phi=None),
            tiny_point(workload=WorkloadSpec.random(0.3, seed=7)),
            tiny_point(buffer_scale=0.5),
        ]
        for point in points:
            wire = json.loads(json.dumps(point.to_dict()))
            rebuilt = SweepPoint.from_dict(wire)
            assert rebuilt == point
            assert rebuilt.cache_key() == point.cache_key()
            assert rebuilt.label == point.label


# --------------------------------------------------------------------- #
# Lease state machine (in-process coordinator)
# --------------------------------------------------------------------- #
VALID_STUB = {"stub": True}


@pytest.fixture
def accept_records(monkeypatch):
    """Treat any dict as a valid record (protocol-level tests only)."""
    monkeypatch.setattr(fleet_module, "validate_record", lambda record: [])


class TestFleetCoordinator:
    def _dispatch_async(self, coord, points_by_key):
        holder: dict[str, dict] = {}

        def run() -> None:
            holder.update(coord.dispatch(points_by_key))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return holder, thread

    def _lease_until(self, coord, worker_id, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            grant = coord.lease(worker_id)
            if grant is not None:
                return grant
            time.sleep(0.02)
        raise AssertionError("no lease granted within timeout")

    def test_dispatch_with_no_workers_returns_nothing(self):
        coord = FleetCoordinator(lease_ttl=1.0)
        point = tiny_point()
        assert coord.dispatch({point.cache_key(): point}) == {}

    def test_lease_ingest_completes_dispatch(self, tmp_path, accept_records):
        cache = ResultCache(tmp_path / "cache")
        coord = FleetCoordinator(cache=cache, lease_ttl=5.0)
        worker = coord.register()["worker_id"]
        point = tiny_point()
        key = point.cache_key()
        holder, thread = self._dispatch_async(coord, {key: point})
        grant = self._lease_until(coord, worker)
        assert grant["keys"] == [key]
        assert grant["points"] == [point.to_dict()]
        result = coord.ingest(worker, grant["id"], {key: VALID_STUB})
        assert result["done"] is True and result["ingested"] == 1
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert holder == {key: VALID_STUB}
        # Write-through: the record is durable before the engine settles.
        assert cache.get(key) == VALID_STUB

    def test_duplicate_ingest_is_idempotent(self, accept_records):
        coord = FleetCoordinator(lease_ttl=5.0)
        worker = coord.register()["worker_id"]
        # Same (workload, phi) → one unit with two keys.
        p1, p2 = tiny_point(), tiny_point(buffer_scale=0.5)
        k1, k2 = p1.cache_key(), p2.cache_key()
        holder, thread = self._dispatch_async(coord, {k1: p1, k2: p2})
        grant = self._lease_until(coord, worker)
        assert set(grant["keys"]) == {k1, k2}
        first = coord.ingest(worker, grant["id"], {k1: VALID_STUB})
        assert first == {"ingested": 1, "duplicates": 0, "done": False}
        second = coord.ingest(worker, grant["id"], {k1: VALID_STUB, k2: VALID_STUB})
        assert second == {"ingested": 1, "duplicates": 1, "done": True}
        thread.join(timeout=5)
        assert holder == {k1: VALID_STUB, k2: VALID_STUB}

    def test_ingest_rejects_unexpected_keys_and_invalid_records(self):
        coord = FleetCoordinator(lease_ttl=5.0)
        worker = coord.register()["worker_id"]
        point = tiny_point()
        key = point.cache_key()
        holder, thread = self._dispatch_async(coord, {key: point})
        grant = self._lease_until(coord, worker)
        with pytest.raises(FleetError, match="unexpected record key"):
            coord.ingest(worker, grant["id"], {"f" * 64: VALID_STUB})
        with pytest.raises(FleetError, match="rejected ingest"):
            # A real validate_record run: garbage fails the v3 schema.
            coord.ingest(worker, grant["id"], {key: {"not": "a record"}})
        with pytest.raises(UnknownWorker):
            coord.ingest("worker-bogus", grant["id"], {key: VALID_STUB})
        coord.drain()
        thread.join(timeout=5)
        assert holder == {}

    def test_expired_lease_requeues_to_next_worker(self, tmp_path, accept_records):
        audit = AuditLog(tmp_path / "audit.jsonl")
        db = ServiceDB(tmp_path / "svc.db")
        coord = FleetCoordinator(lease_ttl=0.3, audit=audit, db=db)
        dead = coord.register()["worker_id"]
        point = tiny_point()
        key = point.cache_key()
        holder, thread = self._dispatch_async(coord, {key: point})
        grant = self._lease_until(coord, dead)
        # `dead` never heartbeats and never ingests: its lease must
        # lapse and the unit must be re-granted to the live worker.
        # Register `live` *before* the expiry so the fleet never empties
        # (an empty fleet would withdraw the unit to local fallback);
        # polling lease() keeps `live`'s own registration renewed.
        live = coord.register()["worker_id"]
        regrant = self._lease_until(coord, live, timeout=10.0)
        assert regrant["id"] == grant["id"]
        coord.ingest(live, regrant["id"], {key: VALID_STUB})
        thread.join(timeout=5)
        assert holder == {key: VALID_STUB}
        events = [entry["event"] for entry in audit.entries()]
        assert "lease.granted" in events
        assert "lease.expired" in events
        assert "unit.requeued" in events
        assert "lease.completed" in events
        journal = [event["event"] for event in db.lease_events()]
        assert journal.count("granted") == 2
        assert "expired" in journal and "completed" in journal
        db.close()

    def test_fleet_dying_entirely_falls_back_to_local(self):
        coord = FleetCoordinator(lease_ttl=0.2)
        worker = coord.register()["worker_id"]
        point = tiny_point()
        key = point.cache_key()
        holder, thread = self._dispatch_async(coord, {key: point})
        self._lease_until(coord, worker)
        # The only worker dies holding the lease: expiry requeues the
        # unit, and with zero live workers dispatch must give it back
        # to the engine instead of waiting forever.
        thread.join(timeout=10)
        assert not thread.is_alive(), "dispatch wedged on a dead fleet"
        assert holder == {}

    def test_failure_budget_withdraws_unit(self, accept_records):
        coord = FleetCoordinator(lease_ttl=5.0, max_unit_failures=2)
        worker = coord.register()["worker_id"]
        point = tiny_point()
        key = point.cache_key()
        holder, thread = self._dispatch_async(coord, {key: point})
        for _ in range(2):
            grant = self._lease_until(coord, worker)
            coord.fail(worker, grant["id"], "synthetic failure")
        thread.join(timeout=10)
        assert not thread.is_alive(), "dispatch wedged on a poisoned unit"
        assert holder == {}

    def test_heartbeat_renews_leases_past_ttl(self, accept_records):
        coord = FleetCoordinator(lease_ttl=0.3)
        worker = coord.register()["worker_id"]
        point = tiny_point()
        key = point.cache_key()
        holder, thread = self._dispatch_async(coord, {key: point})
        grant = self._lease_until(coord, worker)
        for _ in range(4):
            time.sleep(0.15)
            coord.heartbeat(worker)
        # 0.6s > ttl elapsed, but heartbeats kept the lease alive.
        result = coord.ingest(worker, grant["id"], {key: VALID_STUB})
        assert result["done"] is True
        thread.join(timeout=5)
        assert holder == {key: VALID_STUB}


class TestEngineDispatcherHook:
    def test_remote_records_settle_like_local_ones(self, tmp_path, stub_simulate):
        simulated: list[str] = []

        def fake_simulate(point):
            simulated.append(point.cache_key())
            return {"schema": 3, "key": point.cache_key()}

        stub_simulate(fake_simulate)
        points = [tiny_point(), tiny_point(phi=TINY.phi_config(num_patterns=8))]
        remote_key = points[0].cache_key()
        remote_record = {"schema": 3, "key": remote_key, "remote": True}

        class OneShotDispatcher:
            def dispatch(self, reps):
                assert set(reps) == {p.cache_key() for p in points}
                return {remote_key: remote_record}

        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(cache=cache, dispatcher=OneShotDispatcher())
        records = engine.run(points)
        assert records[0] == remote_record
        assert simulated == [points[1].cache_key()]
        assert engine.stats.remote_hits == 1
        assert engine.stats.executed == 2  # remote counts as executed
        assert cache.get(remote_key) == remote_record

    def test_raising_dispatcher_is_ignored(self, stub_simulate):
        stub_simulate(lambda point: {"schema": 3, "key": point.cache_key()})

        class BrokenDispatcher:
            def dispatch(self, reps):
                raise RuntimeError("fleet on fire")

        engine = SweepEngine(dispatcher=BrokenDispatcher())
        point = tiny_point()
        assert engine.run([point])[0]["key"] == point.cache_key()
        assert engine.stats.remote_hits == 0


# --------------------------------------------------------------------- #
# Boot recovery
# --------------------------------------------------------------------- #
class TestServiceRecovery:
    def test_terminal_jobs_replay_and_counter_resumes(self, tmp_path):
        path = tmp_path / "svc.db"
        cache = ResultCache(tmp_path / "cache")
        store = ArtifactStore(tmp_path / "store")
        request = JobRequest(experiment="fig12", scale="tiny")

        service = JobService(
            SweepEngine(cache=cache, store=store), workers=1, db=ServiceDB(path)
        )
        job, _ = service.submit(request)
        assert job.wait(timeout=300)
        assert job.status == DONE
        payload, keys = job.payload, sorted(job._record_keys)
        service.drain()

        revived = JobService(
            SweepEngine(cache=cache, store=store), workers=1, db=ServiceDB(path)
        )
        try:
            restored = revived.get(job.id)
            assert restored is not None and restored is not job
            assert restored.status == DONE
            assert restored.payload == payload
            assert sorted(restored._record_keys) == keys
            # Terminal jobs are not dedup targets; a resubmit is a fresh
            # job whose seq continues past the journaled maximum.
            fresh, deduplicated = revived.submit(request)
            assert not deduplicated
            assert fresh.seq == job.seq + 1
            assert fresh.wait(timeout=300) and fresh.status == DONE
        finally:
            revived.drain()

    def test_queued_and_orphaned_running_jobs_rerun_to_done(self, tmp_path):
        path = tmp_path / "svc.db"
        request = JobRequest(experiment="fig12", scale="tiny")
        with ServiceDB(path) as db:
            db.save_job(sample_row(request, job_id="job-000001", seq=1, status=RUNNING))
            db.save_job(sample_row(request, job_id="job-000002", seq=2, status=QUEUED))
        audit = AuditLog(tmp_path / "audit.jsonl")
        service = JobService(
            SweepEngine(
                cache=ResultCache(tmp_path / "cache"),
                store=ArtifactStore(tmp_path / "store"),
            ),
            workers=1,
            db=ServiceDB(path),
            audit=audit,
        )
        try:
            for job_id in ("job-000001", "job-000002"):
                job = service.get(job_id)
                assert job is not None
                assert job.wait(timeout=300), f"{job_id} never finished"
                assert job.status == DONE
            events = [entry["event"] for entry in audit.entries()]
            assert "service.recovered" in events
            assert "job.requeued" in events  # the orphaned RUNNING row
        finally:
            # Joining the dispatchers (drain) is what guarantees the
            # final journal upserts landed before we inspect them.
            service.drain()
        with ServiceDB(path) as db:
            statuses = {row["id"]: row["status"] for row in db.load_jobs()}
        assert statuses["job-000001"] == DONE
        assert statuses["job-000002"] == DONE

    def test_unrecoverable_rows_are_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "svc.db"
        request = JobRequest(experiment="fig12", scale="tiny")
        row = sample_row(request, job_id="job-000001", seq=1, status=QUEUED)
        row["request"] = {"experiment": "vanished-experiment", "scale": "tiny"}
        with ServiceDB(path) as db:
            db.save_job(row)
        audit = AuditLog(tmp_path / "audit.jsonl")
        service = JobService(
            SweepEngine(), workers=1, db=ServiceDB(path), audit=audit
        )
        try:
            assert service.get("job-000001") is None
            events = [entry["event"] for entry in audit.entries()]
            assert "job.dropped" in events
        finally:
            service.drain()
        with ServiceDB(path) as db:
            assert db.load_jobs() == []


# --------------------------------------------------------------------- #
# HTTP surface: worker protocol, /jobs index, fleet e2e (in-process)
# --------------------------------------------------------------------- #
class TestJobsIndexEndpoint:
    def test_filtering_and_pagination(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            done = client.run("fig12", scale="tiny", timeout=300)
            assert done["status"] == DONE
            page = client.job_page()
            assert page["total"] == 1 and len(page["jobs"]) == 1
            assert page["jobs"][0]["id"] == done["id"]
            # Summaries never carry payloads (listing stays O(jobs)).
            assert "payload" not in page["jobs"][0]
            assert client.jobs(status=DONE)[0]["id"] == done["id"]
            assert client.jobs(status="failed") == []
            empty = client.job_page(offset=1, limit=10)
            assert empty["jobs"] == [] and empty["total"] == 1
            with pytest.raises(ServiceError) as excinfo:
                client.jobs(status="bogus")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.job_page(offset=-1)
            assert excinfo.value.status == 400

    def test_limit_zero_returns_count_only(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            client.run("fig12", scale="tiny", timeout=300)
            page = client.job_page(limit=0)
            assert page["jobs"] == [] and page["total"] == 1


class TestFleetEndToEndInProcess:
    def test_remote_run_matches_serial_and_hides_the_fleet(self, tmp_path):
        with served(tmp_path, lease_ttl=5.0) as (client, service, server):
            stop = threading.Event()
            worker = FleetWorker(
                server.url,
                store=ArtifactStore(tmp_path / "svc-store"),
                poll=0.05,
            )
            thread = threading.Thread(
                target=worker.run, args=(stop,), daemon=True
            )
            thread.start()
            try:
                job = client.run("fig12", scale="tiny", timeout=300)
                assert job["status"] == DONE
                # The fleet actually did the work...
                assert service.engine.stats.remote_hits > 0
                assert service.fleet.counts()["units_completed"] > 0
                # ...but the client-visible views never say so: progress
                # counts remote execution as plain "executed".
                assert "worker" not in json.dumps(job["progress"])
                # Remote completions surface as plain "executed" — the
                # job view has no remote/local split at all.
                assert job["progress"]["executed"] > 0
                assert "remote_hits" not in job["progress"]
                records = canonical(client.records_for(job))
            finally:
                stop.set()
                thread.join(timeout=10)

        serial_cache = ResultCache(tmp_path / "serial-cache")
        with SweepEngine(
            cache=serial_cache, store=ArtifactStore(tmp_path / "serial-store")
        ) as serial_engine:
            run_fig12(TINY, engine=serial_engine)
        serial = canonical(serial_cache.snapshot())
        assert records == {key: serial[key] for key in records}
        assert set(records) <= set(serial)
        assert records, "remote job returned no records"

    def test_worker_re_registers_after_server_side_amnesia(self, tmp_path):
        with served(tmp_path, lease_ttl=0.5) as (client, service, server):
            contract = client.register_worker()
            worker_id = contract["worker_id"]
            assert client.worker_heartbeat(worker_id)["ok"] is True
            # Silence past the TTL: the server forgets the worker, and
            # the protocol says so with a 404 + unknown_worker marker.
            time.sleep(0.7)
            with pytest.raises(ServiceError) as excinfo:
                client.worker_heartbeat(worker_id)
            assert excinfo.value.status == 404
            assert excinfo.value.details.get("unknown_worker") is True
            with pytest.raises(ServiceError) as excinfo:
                client.lease(worker_id)
            assert excinfo.value.status == 404
            # Re-registration mints a fresh identity.
            again = client.register_worker()
            assert again["worker_id"] != worker_id
            assert client.worker_heartbeat(again["worker_id"])["ok"] is True

    def test_healthz_reports_fleet_and_journal(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            health = client.health()
            assert health["fleet"]["workers"] == 0
            assert health["db"].endswith("service.db")
            client.register_worker()
            assert client.health()["fleet"]["workers"] == 1


# --------------------------------------------------------------------- #
# Audit rotation satellite
# --------------------------------------------------------------------- #
class TestAuditRotation:
    def test_rotation_keeps_one_parseable_generation(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl", max_bytes=600)
        for i in range(50):
            log.record("spam.event", index=i, padding="x" * 40)
        log.close()
        assert log.path.exists() and log.rotated_path.exists()
        assert log.path.stat().st_size <= 600
        assert log.rotated_path.stat().st_size <= 600
        current = list(log.entries())
        combined = list(log.entries(include_rotated=True))
        assert len(combined) > len(current) > 0
        # Every surviving line parses, rotation never tears a line.
        indices = [entry["index"] for entry in combined]
        assert indices == sorted(indices)
        assert indices[-1] == 49

    def test_unbounded_by_default(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        for i in range(50):
            log.record("spam.event", index=i, padding="x" * 40)
        log.close()
        assert not log.rotated_path.exists()
        assert len(list(log.entries())) == 50

    def test_restart_resumes_size_accounting(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        first = AuditLog(path, max_bytes=300)
        first.record("one", padding="x" * 100)
        first.close()
        second = AuditLog(path, max_bytes=300)
        second.record("two", padding="x" * 100)
        second.record("three", padding="x" * 100)
        second.close()
        assert second.rotated_path.exists(), "restart lost the size counter"


# --------------------------------------------------------------------- #
# Subprocess end-to-end crash recovery (the acceptance tests)
# --------------------------------------------------------------------- #
def _env(tmp_path):
    return {
        **os.environ,
        "PYTHONUNBUFFERED": "1",
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
    }


def _spawn_server(tmp_path, *extra):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--port",
            "0",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--store-dir",
            str(tmp_path / "store"),
            "--audit-log",
            str(tmp_path / "audit.jsonl"),
            "--lease-ttl",
            "2.0",
            "--quiet",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(tmp_path),
        env=_env(tmp_path),
    )
    try:
        for line in process.stdout:
            if line.startswith("serving on "):
                return process, line.split()[-1]
        raise AssertionError(f"service never reported its URL (rc={process.poll()})")
    except BaseException:
        process.kill()
        process.wait()
        raise


def _spawn_worker(tmp_path, url, *extra):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "worker",
            "--server",
            url,
            "--store-dir",
            str(tmp_path / "store"),
            "--poll",
            "0.2",
            "--quiet",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(tmp_path),
        env=_env(tmp_path),
    )
    try:
        for line in process.stdout:
            if line.startswith("worker ") and " registered " in line:
                return process, line.split()[1]
        raise AssertionError(f"worker never registered (rc={process.poll()})")
    except BaseException:
        process.kill()
        process.wait()
        raise


def _wait_for_audit_event(audit_path, predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    log = AuditLog(audit_path)
    while time.monotonic() < deadline:
        for entry in log.entries():
            if predicate(entry):
                return entry
        time.sleep(0.1)
    raise AssertionError("audit event never appeared")


def _serial_fig7_records(tmp_path):
    serial_cache = ResultCache(tmp_path / "serial-cache")
    with SweepEngine(
        cache=serial_cache, store=ArtifactStore(tmp_path / "serial-store")
    ) as serial_engine:
        run_fig7(TINY, engine=serial_engine)
    return canonical(serial_cache.snapshot())


@pytest.mark.slow
class TestWorkerKilledMidSweep:
    """The ROADMAP acceptance test: kill -9 a worker, lose nothing."""

    def test_job_completes_with_byte_identical_records(self, tmp_path):
        server = victim = survivor = None
        try:
            server, url = _spawn_server(tmp_path)
            # The victim drags before simulating: killing it is
            # guaranteed to strike mid-unit, with a lease held.
            victim, victim_id = _spawn_worker(tmp_path, url, "--drag", "120")
            survivor, _ = _spawn_worker(tmp_path, url)

            client = ServiceClient(url, retry=FAST_RETRY)
            submitted = client.submit("fig7", scale="tiny")

            _wait_for_audit_event(
                tmp_path / "audit.jsonl",
                lambda entry: entry["event"] == "lease.granted"
                and entry.get("worker") == victim_id,
                timeout=120,
            )
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

            job = client.wait_for(
                submitted["id"],
                timeout=600,
                request={"experiment": "fig7", "scale": "tiny"},
            )
            assert job["status"] == DONE
            records = canonical(client.records_for(job))

            # The audit trail shows the crash being detected + healed.
            events = [
                entry["event"]
                for entry in AuditLog(tmp_path / "audit.jsonl").entries()
            ]
            assert "lease.expired" in events
            assert "unit.requeued" in events
        finally:
            for process in (victim, survivor):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
            if server is not None:
                server.kill()
                server.wait(timeout=30)

        serial = _serial_fig7_records(tmp_path)
        assert set(records) == set(serial)
        assert records == serial


@pytest.mark.slow
class TestServerKilledMidSweep:
    """SIGKILL the server mid-job; the restart recovers the same job id."""

    def test_restarted_server_recovers_job_to_done(self, tmp_path):
        server = None
        try:
            server, url = _spawn_server(tmp_path)
            client = ServiceClient(url, retry=FAST_RETRY)
            submitted = client.submit("fig7", scale="tiny")
            job_id = submitted["id"]
            # Let it start running, then murder the server process.
            time.sleep(1.0)
        finally:
            if server is not None:
                server.kill()
                server.wait(timeout=30)

        server = None
        try:
            server, url = _spawn_server(tmp_path)
            client = ServiceClient(url, retry=FAST_RETRY)
            # The SAME job id survived the crash: recovered from the
            # journal, requeued, and run to completion — no resubmit.
            job = client.wait_for(job_id, timeout=600)
            assert job["status"] == DONE
            assert job["id"] == job_id
            records = canonical(client.records_for(job))
            # The jobs index sees it too (satellite integration).
            listed = client.jobs(status=DONE)
            assert job_id in {entry["id"] for entry in listed}
            shutdown_ok = True
            try:
                client.shutdown()
            except ServiceError:
                shutdown_ok = False
            if shutdown_ok:
                server.wait(timeout=60)
        finally:
            if server is not None and server.poll() is None:
                server.kill()
                server.wait(timeout=30)

        serial = _serial_fig7_records(tmp_path)
        assert set(records) == set(serial)
        assert records == serial
