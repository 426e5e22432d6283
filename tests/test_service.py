"""Concurrency and protocol tests for the sweep service.

The suite locks down the guarantees DESIGN.md's service section makes:

* N clients hammering one served engine with overlapping fig7-TINY jobs
  get byte-identical v3 records versus a plain serial run, while every
  ``(spec, config)`` unit is simulated exactly once (asserted by
  counting the points the engine simulates).
* No client ever observes a torn JSON response, even while progress
  counts stream mid-job.
* Request round-tripping is lossless (property-tested) and unknown
  fields / experiments / scales fail with a 4xx — never a dispatcher
  crash.
* The service refuses to serve cached records that fail
  ``validate_record``, and draining refuses new jobs while finishing
  accepted ones.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.engine as engine_module
from repro.experiments.common import TINY
from repro.experiments.fig7 import run_fig7
from repro.experiments.registry import (
    REGISTRY,
    SCALES,
    ExperimentSpec,
    experiment_names,
)
from repro.experiments.registry import _jsonify as jsonify
from repro.runner import ArtifactStore, ResultCache, SweepEngine
from repro.service import (
    DONE,
    JobRequest,
    JobService,
    RequestError,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    serve,
)

#: Tests talk to an in-process server: deterministic errors (404/502)
#: should fail fast, not back off for seconds like the production policy.
FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02, jitter=0.0)


@contextmanager
def served(tmp_path, *, workers=2, cache=True, name="svc"):
    """A live in-process service over fresh cache/store directories."""
    engine = SweepEngine(
        cache=ResultCache(tmp_path / f"{name}-cache") if cache else None,
        store=ArtifactStore(tmp_path / f"{name}-store"),
    )
    service = JobService(engine, workers=workers)
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


def canonical(records: dict[str, dict]) -> dict[str, bytes]:
    """Records as canonical JSON bytes, for byte-identity comparisons."""
    return {
        key: json.dumps(record, sort_keys=True).encode()
        for key, record in records.items()
    }


class TestConcurrentClients:
    """The headline suite: overlapping fig7-TINY jobs on one engine."""

    def test_overlapping_fig7_jobs_run_each_unit_once_and_match_serial(
        self, tmp_path, stub_simulate
    ):
        calls: list[str] = []
        lock = threading.Lock()
        real_simulate = engine_module.simulate_point

        def counting_simulate(point):
            with lock:
                calls.append(point.cache_key())
            return real_simulate(point)

        stub_simulate(counting_simulate)

        clients = 4
        with served(tmp_path, workers=3) as (client, service, server):
            jobs: list[dict | None] = [None] * clients
            torn: list[str] = []
            stop_polling = threading.Event()

            def poll() -> None:
                # Hammer the server while the job runs; every body must
                # parse — a torn response would fail json.loads.
                while not stop_polling.is_set():
                    for path in ("/jobs", "/experiments", "/healthz"):
                        with urllib.request.urlopen(server.url + path) as response:
                            body = response.read()
                        try:
                            json.loads(body)
                        except ValueError:
                            torn.append(body.decode(errors="replace")[:200])

            def submit(i: int) -> None:
                jobs[i] = client.run("fig7", scale="tiny", timeout=600)

            pollers = [threading.Thread(target=poll) for _ in range(2)]
            submitters = [
                threading.Thread(target=submit, args=(i,)) for i in range(clients)
            ]
            for thread in pollers + submitters:
                thread.start()
            for thread in submitters:
                thread.join()
            stop_polling.set()
            for thread in pollers:
                thread.join()

            assert torn == [], "client observed a torn JSON response"
            assert all(job is not None and job["status"] == DONE for job in jobs)

            # Identical in-flight requests collapse onto one job...
            assert len({job["id"] for job in jobs}) == 1
            # ...which simulated every distinct point exactly once.
            assert len(calls) == len(set(calls))
            assert len(calls) > 0

            # Every client sees the same record set, and each raw record
            # is byte-identical to a from-scratch serial run's.
            record_sets = [canonical(client.records_for(job)) for job in jobs]
            assert all(records == record_sets[0] for records in record_sets)

            serial_cache = ResultCache(tmp_path / "serial-cache")
            with SweepEngine(
                cache=serial_cache, store=ArtifactStore(tmp_path / "serial-store")
            ) as serial_engine:
                run_fig7(TINY, engine=serial_engine)
            serial_records = canonical(serial_cache.snapshot())
            assert record_sets[0] == {
                key: serial_records[key] for key in record_sets[0]
            }
            # The served job covered the full fig7 grid, not a subset.
            assert set(record_sets[0]) == set(serial_records)

    def test_resubmitting_finished_job_serves_from_cache(self, tmp_path, stub_simulate):
        calls = []
        real_simulate = engine_module.simulate_point

        def counting_simulate(point):
            calls.append(point)
            return real_simulate(point)

        stub_simulate(counting_simulate)
        with served(tmp_path) as (client, service, server):
            first = client.run("fig12", scale="tiny", timeout=600)
            executed = len(calls)
            assert executed > 0
            second = client.run("fig12", scale="tiny", timeout=600)
            assert len(calls) == executed, "warm resubmit must not re-simulate"
            assert second["id"] != first["id"]
            assert second["progress"]["cache_hits"] == first["progress"]["points"]
            assert canonical(client.records_for(second)) == canonical(
                client.records_for(first)
            )


class TestRequestValidation:
    """4xx on anything malformed; dispatcher workers never crash."""

    def test_unknown_fields_experiments_and_scales_are_rejected(self, tmp_path):
        with served(tmp_path, cache=False) as (client, service, server):
            for payload, fragment in [
                ({"experiment": "fig12", "scale": "tiny", "bogus": 1}, "unknown request fields"),
                ({"experiment": "not-an-experiment"}, "unknown experiment"),
                ({"experiment": "fig12", "scale": "galactic"}, "unknown scale"),
                ({"scale": "tiny"}, "experiment"),
                ({"experiment": "fig12", "overrides": [1, 2]}, "overrides"),
                ({"experiment": "fig12", "overrides": {"1": 1, "x": {"y": [None]}}, "nope": 0}, "unknown request fields"),
            ]:
                with pytest.raises(ServiceError) as err:
                    client._request("POST", "/jobs", payload)
                assert err.value.status == 400
                assert fragment in str(err.value)

            # Raw garbage bodies are 400s too, not handler crashes.
            for raw in (b"", b"{not json", b"[1, 2, 3]", b'"fig12"'):
                request = urllib.request.Request(
                    server.url + "/jobs", data=raw, method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as http_err:
                    urllib.request.urlopen(request)
                assert http_err.value.code == 400
                json.loads(http_err.value.read())  # error body is valid JSON

            # After all that abuse the workers still serve real jobs.
            job = client.run("table3", scale="tiny", timeout=300)
            assert job["status"] == DONE

    def test_harness_failure_fails_the_job_not_the_worker(self, tmp_path):
        with served(tmp_path, cache=False) as (client, service, server):
            with pytest.raises(ServiceError) as err:
                client.run(
                    "table3", scale="tiny", overrides={"no_such_kwarg": 1}, timeout=300
                )
            assert "failed" in str(err.value)
            job = client.run("table3", scale="tiny", timeout=300)
            assert job["status"] == DONE

    def test_unknown_job_and_record_are_404(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            for path in ("/jobs/job-999999", "/records/" + "ab" * 32, "/nope"):
                with pytest.raises(ServiceError) as err:
                    client._request("GET", path)
                assert err.value.status == 404

    def test_hostile_content_length_is_a_400_not_a_hang(self, tmp_path):
        import http.client

        with served(tmp_path, cache=False) as (client, service, server):
            for bad_length in ("-1", "abc", str(100 * 1024 * 1024)):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10
                )
                try:
                    connection.putrequest("POST", "/jobs")
                    connection.putheader("Content-Length", bad_length)
                    connection.endheaders()
                    response = connection.getresponse()
                    assert response.status == 400, bad_length
                    json.loads(response.read())
                finally:
                    connection.close()
            assert client.health()["status"] == "ok"

    def test_record_keys_cannot_traverse_paths(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            secret = tmp_path / "secret.json"
            secret.write_text('{"schema": 3}')
            for key in ("../../" + str(tmp_path.name) + "/secret", "..%2f..", "ab/cd"):
                with pytest.raises(ServiceError) as err:
                    client._request("POST", "/records", {"keys": [key]})
                assert err.value.status == 404, key
            # In-process too: a malformed key never touches the filesystem.
            assert service.record("../evil") == (None, [])

    def test_service_refuses_invalid_cached_records(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            cache = service.engine.cache
            bad_key = "ef" * 32
            cache.put(bad_key, {"schema": 3, "accelerator": "phi"})
            with pytest.raises(ServiceError) as err:
                client.record(bad_key)
            assert err.value.status == 502
            assert err.value.details["problems"]


class TestRetention:
    def test_finished_jobs_evicted_beyond_cap_running_jobs_kept(self, tmp_path):
        """A long-lived service must not retain every job ever accepted."""
        engine = SweepEngine()
        service = JobService(engine, workers=1, max_finished=2)
        try:
            jobs = []
            for i in range(5):
                # Distinct overrides defeat request dedup; the unknown
                # kwarg fails each job quickly, which is still terminal.
                job, _ = service.submit(
                    JobRequest(
                        experiment="table3", scale="tiny", overrides={"tag": i}
                    )
                )
                jobs.append(job)
                assert job.wait(timeout=60)
            retained = service.jobs()
            assert len(retained) == 2
            assert [job.id for job in retained] == [jobs[-2].id, jobs[-1].id]
            assert service.get(jobs[0].id) is None
        finally:
            service.drain()


class TestDrain:
    def test_drain_finishes_accepted_jobs_then_refuses_new_ones(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            job = client.submit("fig12", scale="tiny")
            service.drain()
            view = service.get(job["id"]).snapshot()
            assert view["status"] == DONE, "accepted job must finish during drain"
            with pytest.raises(ServiceUnavailable):
                service.submit(JobRequest(experiment="fig12", scale="tiny"))
            with pytest.raises(ServiceError) as err:
                client.submit("fig12", scale="tiny")
            assert err.value.status == 503
            assert client.health()["status"] == "draining"
            assert service.engine._pool is None


# --------------------------------------------------------------------- #
# Property tests: request/job round-tripping
# --------------------------------------------------------------------- #
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=10,
)

requests = st.builds(
    JobRequest,
    experiment=st.sampled_from(experiment_names()),
    scale=st.sampled_from(sorted(SCALES)),
    overrides=st.dictionaries(st.text(max_size=12), json_values, max_size=4),
)


class TestRequestRoundtrip:
    @given(request=requests)
    @settings(max_examples=60, deadline=None)
    def test_request_survives_the_wire_format(self, request):
        """serialize → JSON bytes → deserialize is lossless, key-stable."""
        wire = json.loads(json.dumps(request.to_dict()))
        parsed = JobRequest.from_payload(wire)
        assert parsed == request
        assert parsed.key == request.key

    @given(
        spec=st.sampled_from(REGISTRY),
        scale=st.sampled_from(sorted(SCALES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_spec_export_roundtrip_preserves_kwargs_for(self, spec, scale):
        """GET /experiments payloads rebuild into equivalent specs."""
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert jsonify(clone.kwargs_for(scale)) == jsonify(spec.kwargs_for(scale))
        assert clone.name == spec.name
        assert clone.uses_engine == spec.uses_engine

    @given(payload=st.dictionaries(st.text(max_size=12), json_values, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_payloads_raise_request_errors_only(self, payload):
        """Malformed payloads surface as RequestError (HTTP 400), never
        an unexpected exception that could take down a worker."""
        try:
            JobRequest.from_payload(payload)
        except RequestError:
            pass

    def test_tricky_overrides_echo_back_over_http(self, tmp_path):
        """Overrides survive the real HTTP hop bit-for-bit."""
        tricky = [
            {"epochs": 3, "ratio": 0.25},
            {"unicode": "spîke–Φ", "nested": {"a": [1, 2, [3, None]]}},
            {"workloads": [["vgg16", "cifar10"]], "flag": False},
        ]
        with served(tmp_path, cache=False) as (client, service, server):
            for overrides in tricky:
                job = client.submit("fig7", scale="tiny", overrides=overrides)
                assert job["request"]["overrides"] == overrides
                assert job["request"]["experiment"] == "fig7"
            service.drain()
