"""The repository benchmark: five workloads, end-to-end and per-layer host time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7_cold --seed 0 --seconds 30 --trace 0

The benchmark runs the program from the checkout's ``src`` tree and
repeats *passes* of the chosen workload until ``--seconds`` have been
measured.  Every sweep pass runs in fresh processes with fresh
directories, so no in-process memo survives from one pass to the next;
the ``service_mix`` passes share one warmed-up server.

Workloads (see README.md for why each exists):

``fig7_cold``
    The Fig. 7 SMALL grid (16 points), serial, with an empty result cache
    and an empty artifact store: workload generation, k-means calibration,
    decomposition and store writes.
``fig7_cold_pool``
    The same grid with ``--jobs 2``: pool dispatch, the shared-memory
    handoff and BLAS oversubscription.  Its cache and store contents must
    equal a serial pass's.
``fig8_warm_store``
    The Fig. 8 SMALL grid (49 points, Phi, PAFT and five baselines),
    serial, over an artifact store primed during set-up and an empty
    result cache: the simulators and the store-read path.
``fig8_warm_pool``
    The same grid and primed store with ``--jobs 2``: pool dispatch and
    the shared-memory handoff without k-means.  Its cache contents must
    equal a serial pass's.
``service_mix``
    One long-lived ``python -m repro.service serve`` with auth, audit log
    and journal on, over a store and result cache primed in-process; two
    closed-loop clients submit a seeded sequence of SMALL jobs and fetch
    each job's records, pass after pass, after one warm-up pass.

``--seed`` sets the workload-spec seed of the sweep grids (0 is the
registered grid) and the ``service_mix`` job order.  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` the
passes alternate between untraced and traced (see ``tracer.py``) and the
last line reports the per-layer metrics, the tracing overhead and the
share of the pass no layer span covers.  Every record is checked with
``validate_record`` and by digest; any failure makes ``correct`` false
and the exit code 1.  The line before the result is a JSON report with
the environment (``env``), sample counts and every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
PROGRAM = HERE / "program.py"
#: Scratch space in the checkout; only the latest service_mix prime outlives a run.
WORK_ROOT = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

from program import SERVICE_EXPERIMENTS, records_digest  # noqa: E402
from tracer import collect  # noqa: E402

#: Artifacts a cold Fig. 7 SMALL pass writes (workloads, calibrations,
#: decompositions), independent of the workload seed.
FIG7_COLD_ARTIFACTS = 21
#: Jobs per service_mix pass and concurrent closed-loop clients.  Every job
#: is served from a primed result cache, so latency is one population (no
#: slow first occurrences) and a pass is short: a run holds a dozen or more
#: passes and reports their median, which a transient slow-down of the host
#: moves less than it moves one long pass.
SERVICE_JOBS = 60
SERVICE_CLIENTS = 2
#: Measured passes a service_mix run makes at least: 4 x 60 jobs leave at
#: least 12 samples beyond the pooled p95.
SERVICE_MIN_PASSES = 4
#: Server boots per service_mix run; setup_s is their median.
SERVICE_BOOTS = 3
SERVICE_TOKEN = "perfbench-token"
#: Seconds any single program process may take before the pass fails.
PROCESS_TIMEOUT_S = 60

WORKLOADS = {
    "fig7_cold": {"experiment": "fig7", "jobs": 1, "store": "cold"},
    "fig7_cold_pool": {"experiment": "fig7", "jobs": 2, "store": "cold"},
    "fig8_warm_store": {"experiment": "fig8", "jobs": 1, "store": "primed"},
    "fig8_warm_pool": {"experiment": "fig8", "jobs": 2, "store": "primed"},
    "service_mix": {},
}

PER_LAYER_SPANS = {
    "workloads.generate_s": "workloads.generate",
    "core.calibrate_s": "core.calibrate",
    "core.kmeans_s": "core.kmeans",
    "core.decompose_s": "core.decompose",
    "hw.simulate_s": "hw.simulate",
    "hw.pack_s": "hw.pack",
    "baselines.simulate_s": "baselines.simulate",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "engine.run_s": "engine.run",
    "pool.wait_s": "pool.wait",
}
PER_LAYER_COUNTS = (
    "workloads.generate_calls",
    "core.kmeans_calls",
    "core.calibration_rows",
    "core.calibration_unique_rows",
    "core.decompose_calls",
    "hw.simulate_calls",
    "hw.layers",
    "baselines.layers",
    "store.hits",
    "store.misses",
    "cache.hits",
    "cache.misses",
    "engine.points",
    "pool.tasks",
)
SERVICE_FIELDS = (
    "service.submit_ms", "service.wait_ms", "service.fetch_ms",
    "service.requests", "service.retries", "service.dedup_hits",
    "service.queue_ms", "service.exec_ms", "service.inflight_hits",
)
UNITS = {"per_s": "1/s", "_ms": "ms", "_s": "s", "_pct": "%", "_mb": "MB"}


def unit_of(name: str) -> str:
    """The unit a metric name implies (suffix convention; else ``count``)."""
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name == "store.bytes_written":
        return "bytes"
    return "count"


# --------------------------------------------------------------------- #
# Environment and small helpers
# --------------------------------------------------------------------- #
def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS would use, read through its C API."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        if not path.startswith("/"):
            continue
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def env_block() -> dict:
    """nproc, BLAS vendor and thread count, and the thread variables."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        **{
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def tree_contents(root: pathlib.Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every regular file under ``root``."""
    if not root.exists():
        return {}
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_bytes(root: pathlib.Path) -> int:
    """Total size of the regular files under ``root``."""
    if not root.exists():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def children_cpu_s() -> float:
    """CPU seconds of every reaped descendant of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fresh_dir(path: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def launch(cmd: list[str], **kwargs) -> subprocess.Popen:
    """Start ``cmd`` in its own process group, from the checkout root."""
    return subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), start_new_session=True, **kwargs
    )


def kill_group(pid: int) -> None:
    """SIGKILL process group ``pid`` if it still exists."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(proc: subprocess.Popen, timeout: float = PROCESS_TIMEOUT_S) -> int:
    """Wait for ``proc``; past ``timeout`` (or on error) kill its whole group.

    The wait blocks in ``waitpid`` rather than polling (as
    ``Popen.wait(timeout=...)`` does, in steps of up to 50 ms), so the
    pass wall time is not rounded to the polling step.
    """
    timer = threading.Timer(timeout, kill_group, (proc.pid,))
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()


def run_process(cmd: list[str], log: pathlib.Path) -> tuple[int, float, float]:
    """Run ``cmd`` to completion; returns (exit code, wall s, CPU s)."""
    cpu0 = children_cpu_s()
    start = time.monotonic()
    with open(log, "w") as handle:
        code = reap(launch(cmd, stdout=handle, stderr=subprocess.STDOUT))
    return code, time.monotonic() - start, children_cpu_s() - cpu0


# --------------------------------------------------------------------- #
# Sweep workloads (fig7_cold, fig7_cold_pool, fig8_warm_store, fig8_warm_pool)
# --------------------------------------------------------------------- #
def sweep_pass(
    work: pathlib.Path,
    experiment: str,
    seed: int,
    jobs: int,
    store: pathlib.Path,
    trace: bool,
) -> dict:
    """One pass: launch ``program.py sweep`` in a fresh process and measure it."""
    cache = fresh_dir(work / "cache")
    out = work / "pass.json"
    out.unlink(missing_ok=True)
    trace_dir = fresh_dir(work / "trace") if trace else None
    store_before = tree_bytes(store)
    cmd = [
        sys.executable, str(PROGRAM), "sweep", "--experiment", experiment,
        "--seed", str(seed), "--jobs", str(jobs), "--cache-dir", str(cache),
        "--store-dir", str(store), "--out", str(out),
        "--t0", repr(time.monotonic()),
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    code, wall, cpu = run_process(cmd, work / "pass.log")
    result = {"traced": trace, "exit": code, "wall_s": wall, "cpu_s": cpu}
    if code != 0 or not out.exists():
        result["problems"] = [f"exit code {code}: " + (work / "pass.log").read_text()[-400:]]
        return result
    summary = json.loads(out.read_text())
    result.update(summary)
    result["peak_rss_mb"] = (
        max(summary["self"]["maxrss_kb"], summary["children"]["maxrss_kb"]) / 1024
    )
    result["store_files"] = sum(1 for p in store.rglob("*.npy"))
    result["store_bytes_written"] = tree_bytes(store) - store_before
    result["store_tree"] = tree_contents(store)
    result["cache_tree"] = tree_contents(cache)
    if trace_dir is not None:
        result["trace"] = collect(trace_dir)
    return result


def run_sweep_workload(name: str, args, work: pathlib.Path, expected: dict) -> dict:
    """Set up, run passes for ``args.seconds`` and check every one."""
    spec = WORKLOADS[name]
    experiment, jobs = spec["experiment"], spec["jobs"]
    setup_problems: list[str] = []
    reference = None
    primed_store = None
    # Cross-workload equality: a pooled pass must reproduce a serial
    # pass's records and its cache (and, cold, store) bytes exactly.
    if spec["store"] == "cold" and jobs > 1:
        reference = sweep_pass(
            work, experiment, args.seed, 1, fresh_dir(work / "store"), False
        )
    elif spec["store"] == "primed":
        primed_store = fresh_dir(work / "primed-store")
        reference = sweep_pass(work, experiment, args.seed, 1, primed_store, False)
    if reference is not None and reference["problems"]:
        setup_problems += [f"reference pass: {p}" for p in reference["problems"]]
        reference = None
    recorded = expected.get(experiment) if args.seed == 0 else None

    primed_tree = tree_contents(primed_store) if primed_store else None
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds or (
        args.trace and len(passes) < 2
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        store = primed_store or fresh_dir(work / "store")
        result = sweep_pass(work, experiment, args.seed, jobs, store, traced)
        if reference is None and not result["problems"]:
            reference = result
        passes.append(result)
        problems = result["problems"]
        if problems:
            continue
        if recorded is not None and result["digest"] != recorded:
            problems.append(f"record digest {result['digest']} != recorded {recorded}")
        if reference is not None:
            if result["digest"] != reference["digest"]:
                problems.append("record digest differs from the reference pass")
            if result["executed"] != reference["executed"]:
                problems.append(
                    f"executed {result['executed']} != reference {reference['executed']}"
                )
            if result["cache_tree"] != reference["cache_tree"]:
                problems.append("cache bytes differ from the reference pass")
        if spec["store"] == "cold":
            if result["store_files"] != FIG7_COLD_ARTIFACTS:
                problems.append(
                    f"{result['store_files']} artifacts written, "
                    f"expected {FIG7_COLD_ARTIFACTS} (cold)"
                )
            if jobs == 1 and result["store_misses"] != FIG7_COLD_ARTIFACTS:
                problems.append(
                    f"{result['store_misses']} store misses, "
                    f"expected {FIG7_COLD_ARTIFACTS} (cold)"
                )
            if reference is not None and result["store_tree"] != reference["store_tree"]:
                problems.append("store bytes differ from the reference pass")
        else:
            if result["store_misses"] != 0:
                problems.append(f"{result['store_misses']} store misses on a primed store")
            if tree_contents(store) != primed_tree:
                problems.append("the primed store changed during the pass")
    return {
        "passes": passes,
        "setup_problems": setup_problems,
        "reference_digest": reference["digest"] if reference else None,
    }


def traced_layers(
    trace: dict, executed: float, bytes_written: float, passes: int = 1
) -> dict:
    """The span- and counter-based per-layer metrics of traced work, per pass."""
    seconds, counts, child = trace["seconds"], trace["counts"], trace["child"]
    metrics = {
        name: seconds.get(span, 0.0) / passes for name, span in PER_LAYER_SPANS.items()
    }
    metrics.update({name: counts.get(name, 0.0) / passes for name in PER_LAYER_COUNTS})
    calls = counts.get("hw.simulate_calls", 0.0)
    metrics["hw.points_per_call"] = counts.get("hw.points", 0.0) / calls if calls else 0.0
    metrics["engine.self_s"] = (
        seconds.get("engine.run", 0.0) - child.get("engine.run", 0.0)
    ) / passes
    metrics["engine.executed"] = executed / passes
    metrics["store.bytes_written"] = bytes_written / passes
    return metrics


def sweep_per_layer(result: dict) -> dict:
    """Per-layer metrics of one traced sweep pass."""
    metrics = traced_layers(
        result["trace"], result["executed"], result["store_bytes_written"]
    )
    metrics["pool.child_cpu_s"] = result["children"]["cpu_s"]
    metrics["trace.uncovered_s"] = (
        result["wall_s"] - result["trace"]["seconds"].get("trace.top_level", 0.0)
    )
    metrics.update({name: 0.0 for name in SERVICE_FIELDS})
    return metrics


# --------------------------------------------------------------------- #
# service_mix
# --------------------------------------------------------------------- #
def source_digest() -> str:
    """SHA-256 over the checkout's ``src`` tree (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def prime_service(work: pathlib.Path) -> tuple[pathlib.Path, dict, dict, list[str]]:
    """The prime directory, keys, reference records and problems of service_mix.

    The prime holds an artifact store and a result cache filled by running
    the six experiments in-process; the cache's records are the reference
    every served record must equal.

    The prime does not depend on the seed and takes about 30 s, so it is
    built once per program source and kept under ``.perfbench-work`` for
    later runs in the same checkout; building a new one removes every
    other.  ``keys.json`` is written last and the directory is renamed
    into place whole, so an interrupted prime is never reused.
    """
    from repro.runner.cache import ResultCache

    prime = WORK_ROOT / f"service-prime-{source_digest()[:16]}"
    if not (prime / "keys.json").is_file():
        for stale in WORK_ROOT.glob("service-prime-*"):
            shutil.rmtree(stale, ignore_errors=True)
        fresh = fresh_dir(work / "prime")
        cmd = [
            sys.executable, str(PROGRAM), "prime-service",
            "--cache-dir", str(fresh / "cache"), "--store-dir", str(fresh / "store"),
            "--out", str(fresh / "keys.json"),
        ]
        code, _, _ = run_process(cmd, work / "prime.log")
        if code != 0:
            log = (work / "prime.log").read_text()[-400:]
            return fresh, {}, {}, [f"prime exit code {code}: {log}"]
        try:
            fresh.rename(prime)
        except OSError:
            pass  # another run put an identical prime in place first
    keys = json.loads((prime / "keys.json").read_text())["keys"]
    results = ResultCache(prime / "cache")
    reference = {key: results.get(key) for exp_keys in keys.values() for key in exp_keys}
    problems = [f"prime record {key} missing" for key, rec in reference.items() if rec is None]
    return prime, keys, reference, problems


class _Server:
    """One ``repro.service serve`` process, booted and later drained.

    It serves over the prime's store and a fresh copy of the prime's
    result cache, so every job reads its records from the cache.
    """

    def __init__(self, work: pathlib.Path, prime: pathlib.Path, trace_dir) -> None:
        cache = work / "service-cache"
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(prime / "cache", cache)
        serve_args = [
            "--port", "0", "--jobs", "1", "--cache-dir", str(cache),
            "--store-dir", str(prime / "store"), "--auth-token", SERVICE_TOKEN,
            "--audit-log", str(cache / "audit.jsonl"), "--quiet",
        ]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.service", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(PROGRAM), "serve", str(trace_dir), *serve_args]
        self.started = time.monotonic()
        self.log = open(work / "server.log", "w")
        self.proc = launch(cmd, stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.url: str | None = None
        ready = threading.Event()

        def read() -> None:
            # Drains stdout for the server's whole life, so it never blocks.
            for line in self.proc.stdout:
                if line.startswith("serving on ") and self.url is None:
                    self.url = line.split()[-1]
                    self.setup_s = time.monotonic() - self.started
                    ready.set()
            ready.set()

        self.reader = threading.Thread(target=read, daemon=True)
        self.reader.start()
        ready.wait(timeout=PROCESS_TIMEOUT_S)

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server (all its threads) so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> int:
        """Drain and reap the server; returns its exit code."""
        from repro.service.client import ServiceClient, ServiceError

        try:
            if self.url is not None:
                ServiceClient(self.url, token=SERVICE_TOKEN).shutdown()
        except ServiceError:
            pass  # reap() kills a server that did not drain
        code = reap(self.proc)
        self.reader.join(timeout=10)
        self.log.close()
        return code


def service_job(client, experiment: str) -> dict:
    """Submit one job, wait for it and fetch its records; checked later."""
    outcome = {"experiment": experiment, "ok": False}
    try:
        t0 = time.perf_counter()
        job = client.submit(experiment, scale="small")
        t1 = time.perf_counter()
        if job["status"] != "done":
            job = client.wait_for(
                job["id"],
                request={"experiment": experiment, "scale": "small"},
                timeout=PROCESS_TIMEOUT_S,
            )
        t2 = time.perf_counter()
        records = client.records_for(job)
        t3 = time.perf_counter()
        progress = job["progress"]
        outcome.update(
            ok=True,
            span=(t0, t3),
            latency_ms=(t3 - t0) * 1e3,
            submit_ms=(t1 - t0) * 1e3,
            wait_ms=(t2 - t1) * 1e3,
            fetch_ms=(t3 - t2) * 1e3,
            dedup=bool(job.get("deduplicated")),
            queue_ms=(job["started"] - job["created"]) * 1e3,
            exec_ms=(job["finished"] - job["started"]) * 1e3,
            inflight_hits=progress["inflight_hits"],
            executed=progress["executed"],
            job_id=job["id"],
            records=records,
        )
    except Exception as error:  # noqa: BLE001 - every failed job is counted
        outcome["error"] = f"{experiment}: {type(error).__name__}: {error}"
    return outcome


def check_job(outcome: dict, keys: dict, reference: dict) -> None:
    """Check a fetched job's records against the in-process run, in place."""
    from repro.runner.engine import validate_record

    if not outcome["ok"]:
        return
    experiment, records = outcome["experiment"], outcome["records"]
    problems = []
    if sorted(records) != keys[experiment]:
        problems.append("record keys differ from the in-process run")
    for key, record in records.items():
        problems += validate_record(record)
        # Compare as canonical JSON only when the dicts differ, so a
        # NaN field (never equal to itself) is not a false mismatch.
        if record != reference.get(key) and json.dumps(
            record, sort_keys=True
        ) != json.dumps(reference.get(key), sort_keys=True):
            problems.append(f"record {key} differs from the in-process run")
    if problems:
        outcome["ok"] = False
        outcome["error"] = f"{experiment}: " + "; ".join(problems[:3])


def service_pass(
    server: _Server, sequence: list[str], keys: dict, reference: dict, trace: bool
) -> dict:
    """Run the closed-loop job mix once against a running server.

    The clients only time and fetch; every record is checked after the
    load loop, so checking takes no CPU from the jobs being timed.
    """
    from repro.service.client import ServiceClient

    result = {"traced": trace, "problems": [], "jobs": []}
    counters = {"requests": 0, "retries": 0}
    lock = threading.Lock()
    pending = iter(sequence)

    def client_loop() -> None:
        def counting_sleep(delay: float) -> None:
            with lock:
                counters["retries"] += 1
            time.sleep(delay)

        client = ServiceClient(server.url, token=SERVICE_TOKEN, sleep=counting_sleep)
        open_exchange = client._open

        def counted_open(request, timeout):
            with lock:
                counters["requests"] += 1
            return open_exchange(request, timeout)

        client._open = counted_open
        while True:
            with lock:
                experiment = next(pending, None)
            if experiment is None:
                return
            outcome = service_job(client, experiment)
            with lock:
                result["jobs"].append(outcome)

    # Daemon threads: a SIGTERM exit need not wait for clients of a stopped server.
    threads = [
        threading.Thread(target=client_loop, daemon=True) for _ in range(SERVICE_CLIENTS)
    ]
    cpu0 = server.cpu_s()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = server.cpu_s() - cpu0
    result["peak_rss_mb"] = server.peak_rss_mb()
    result["counters"] = counters
    fetched: dict[str, dict] = {}
    for job in result["jobs"]:
        check_job(job, keys, reference)
        fetched.update(job.pop("records", {}))
    result["digest"] = records_digest(fetched.values())
    # Both clients can hold the same (deduplicated) job: count it once.
    by_id = {job["job_id"]: job["executed"] for job in result["jobs"] if "job_id" in job}
    result["executed"] = sum(by_id.values())
    return result


def service_session(
    work: pathlib.Path,
    prime: pathlib.Path,
    sequence: list[str],
    keys: dict,
    reference: dict,
    trace: bool,
    seconds: float,
    min_passes: int,
) -> dict:
    """Boot one server, warm it up with one pass, then measure passes.

    Passes repeat on the same long-lived server, as deployed, until
    ``seconds`` have passed and at least ``min_passes`` were measured.
    The warm-up pass is checked like the others but flagged, so it is
    left out of the metrics.
    """
    trace_dir = fresh_dir(work / "trace") if trace else None
    store = prime / "store"
    store_tree = tree_contents(store)
    session = {"problems": [], "passes": [], "setup_s": None}
    server = _Server(work, prime, trace_dir)
    try:
        if server.url is None:
            session["problems"].append(
                "server did not start: " + (work / "server.log").read_text()[-400:]
            )
            return session
        session["setup_s"] = server.setup_s
        start = None
        while start is None or (
            len(session["passes"]) <= min_passes or time.monotonic() - start < seconds
        ):
            result = service_pass(server, sequence, keys, reference, trace)
            result["warmup"] = start is None
            first = session["passes"][0] if session["passes"] else result
            if result["digest"] != first["digest"]:
                result["problems"].append("records differ from the first pass")
            if result["executed"] != first["executed"]:
                result["problems"].append("executed count differs from the first pass")
            session["passes"].append(result)
            if start is None:
                start = time.monotonic()
    finally:
        code = server.stop()
    if code != 0:
        session["problems"].append(f"server exit code {code}")
    if tree_contents(store) != store_tree:
        session["problems"].append("the primed store changed during the session")
    if trace_dir is not None:
        session["trace"] = collect(trace_dir)
    return session


def run_service_workload(args, work: pathlib.Path, expected: dict) -> dict:
    prime, keys, reference, setup_problems = prime_service(work)
    recorded = expected.get("service", {})
    for experiment, exp_keys in keys.items():
        digest = records_digest(reference[key] for key in exp_keys)
        if recorded.get(experiment) not in (None, digest):
            setup_problems.append(f"{experiment}: in-process digest {digest} != recorded")
    # Equal shares of every experiment, in a seeded order: the seed moves
    # duplicates and overlaps, not the mix itself.
    sequence = [
        SERVICE_EXPERIMENTS[i % len(SERVICE_EXPERIMENTS)] for i in range(SERVICE_JOBS)
    ]
    random.Random(args.seed).shuffle(sequence)
    sessions, setup_s = [], []
    # The servers and the client threads, all started from this thread,
    # inherit its CPU: the whole load runs on one CPU.  Spread over two, a
    # job's hand-offs between client and server threads keep waking an
    # idle vCPU, which on a shared host waits on the hypervisor; in A/B
    # runs on a 2-vCPU host the median 60-job pass then took 1.37-2.29 s
    # (steal 5-27%) against 1.61-1.85 s (steal 6-16%) on one CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not setup_problems:
        # Boot-only servers, so that setup_s is a median over several boots.
        for _ in range(SERVICE_BOOTS - 1):
            server = _Server(work, prime, None)
            if server.url is None:
                setup_problems.append("server did not start")
            else:
                setup_s.append(server.setup_s)
            if server.stop() != 0:
                setup_problems.append("boot-only server did not drain cleanly")
        modes = [(False, args.seconds)]
        if args.trace:
            modes = [(False, args.seconds / 2), (True, args.seconds / 2)]
        for traced, seconds in modes:
            session = service_session(
                work, prime, sequence, keys, reference, traced, seconds,
                SERVICE_MIN_PASSES if not args.trace else 2,
            )
            sessions.append(session)
            setup_problems += session["problems"]
            if session["setup_s"] is not None:
                setup_s.append(session["setup_s"])
    return {
        "passes": [p for session in sessions for p in session["passes"]],
        "sessions": sessions,
        "setup_s": setup_s,
        "cpus": [cpu],
        "setup_problems": setup_problems,
        "reference_digest": {
            exp: records_digest(reference[k] for k in exp_keys)
            for exp, exp_keys in keys.items()
        },
    }


def service_per_layer(outcome: dict) -> dict:
    """Per-layer metrics of the traced service session, per pass.

    Server-side spans and counters are the traced server's totals over its
    whole life (warm-up included) divided by its passes; client-side times
    are means per job over the measured traced passes.
    """
    session = next(s for s in outcome["sessions"] if "trace" in s)
    all_passes = session["passes"]
    measured = [p for p in all_passes if not p["warmup"]]
    metrics = traced_layers(
        session["trace"],
        sum(p["executed"] for p in all_passes),
        0.0,  # the session checks that the primed store is not written
        len(all_passes),
    )
    metrics["pool.child_cpu_s"] = 0.0  # the server runs with --jobs 1
    jobs = [job for p in measured for job in p["jobs"] if "latency_ms" in job]

    def mean(field: str) -> float:
        return statistics.fmean(job[field] for job in jobs) if jobs else 0.0

    def per_pass(value) -> float:
        return statistics.median(value(p) for p in measured)

    metrics.update(
        {
            "service.submit_ms": mean("submit_ms"),
            "service.wait_ms": mean("wait_ms"),
            "service.fetch_ms": mean("fetch_ms"),
            "service.queue_ms": mean("queue_ms"),
            "service.exec_ms": mean("exec_ms"),
            "service.requests": per_pass(lambda p: p["counters"]["requests"]),
            "service.retries": per_pass(lambda p: p["counters"]["retries"]),
            "service.dedup_hits": per_pass(
                lambda p: sum(job.get("dedup", False) for job in p["jobs"])
            ),
            "service.inflight_hits": per_pass(
                lambda p: sum(job.get("inflight_hits", 0) for job in p["jobs"])
            ),
            # Load-loop time in which no client is inside a job's span.
            "trace.uncovered_s": per_pass(
                lambda p: p["wall_s"]
                - covered_s([job["span"] for job in p["jobs"] if "span" in job])
            ),
        }
    )
    return metrics


def covered_s(spans: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# --------------------------------------------------------------------- #
# Aggregation and output
# --------------------------------------------------------------------- #
def end_to_end(name: str, passes: list[dict], outcome: dict) -> dict:
    """The end-to-end metrics over measured passes (medians; peak RSS is the max)."""
    median = statistics.median
    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "setup_s": median(
            outcome["setup_s"] if name == "service_mix" else [p["setup_s"] for p in passes]
        ),
        # For service_mix each pass reads the long-lived server's
        # high-water mark, so the maximum is the server's peak.
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if name == "service_mix":
        latencies = [j["latency_ms"] for p in passes for j in p["jobs"] if j["ok"]]
        throughput = [
            sum(j["ok"] for j in p["jobs"]) / p["wall_s"] for p in passes
        ]
        metrics.update(
            job_p50_ms=percentile(latencies, 50) if latencies else float("nan"),
            job_p95_ms=percentile(latencies, 95) if latencies else float("nan"),
            jobs_per_s=median(throughput),
        )
    else:
        # The job metrics belong to service_mix.  The result must still
        # carry every end-to-end metric, so for a sweep (one command, one
        # job) all three restate the median wall_s; job_p95_ms is no tail.
        metrics.update(
            job_p50_ms=metrics["wall_s"] * 1e3,
            job_p95_ms=metrics["wall_s"] * 1e3,
            jobs_per_s=1.0 / metrics["wall_s"],
        )
    return metrics


def per_layer(name: str, passes: list[dict], outcome: dict) -> dict:
    """Per-layer metrics: medians over traced passes, plus tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if name == "service_mix":
        metrics = service_per_layer(outcome)
    else:
        rows = [sweep_per_layer(p) for p in traced]
        metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    return metrics


def operations(name: str, passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed): jobs for service_mix, passes for the sweeps."""
    if name == "service_mix":
        jobs = [job for p in passes for job in p["jobs"]]
        return max(len(jobs), 1), sum(not job["ok"] for job in jobs)
    return max(len(passes), 1), sum(bool(p["problems"]) for p in passes)


def check_trace_pairs(passes: list[dict]) -> list[str]:
    """Traced passes must reproduce the untraced records and executed count."""
    problems = []
    plain = [p for p in passes if not p["traced"] and "digest" in p]
    for result in passes:
        if result["traced"] and plain and "digest" in result:
            if result["digest"] != plain[0]["digest"]:
                problems.append("traced pass records differ from untraced")
            if result["executed"] != plain[0]["executed"]:
                problems.append("traced pass executed count differs from untraced")
    return problems


def summarise_pass(result: dict) -> dict:
    keep = ("traced", "warmup", "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "executed",
            "store_misses", "store_files", "digest", "problems")
    summary = {key: result[key] for key in keep if key in result}
    if "jobs" in result:
        summary["jobs"] = len(result["jobs"])
        summary["failed_jobs"] = [j for j in result["jobs"] if not j["ok"]][:3]
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an error, so every finally block reaps its processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    expected = json.loads((HERE / "expected.json").read_text())
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        fresh_dir(work)
        env = env_block()
        if args.workload == "service_mix":
            outcome = run_service_workload(args, work, expected)
        else:
            outcome = run_sweep_workload(args.workload, args, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = outcome["passes"]
    problems = list(outcome["setup_problems"])
    problems += [f"pass {i}: {p}" for i, r in enumerate(passes) for p in r["problems"]]
    problems += check_trace_pairs(passes)
    attempted, failed = operations(args.workload, passes)
    if problems:
        failed = max(failed, 1)
    # Warm-up passes (service_mix) are checked but not measured.
    good = [p for p in passes if not p["problems"] and not p.get("warmup")]
    correct = not problems and failed == 0 and bool(good)
    metrics = {}
    plain_good = [p for p in good if not p["traced"]]
    if plain_good and (not args.trace or len(plain_good) < len(good)):
        values = (
            per_layer(args.workload, good, outcome)
            if args.trace
            else end_to_end(args.workload, plain_good, outcome)
        )
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "samples": {
            "passes": len(passes),
            "traced_passes": sum(p["traced"] for p in passes),
            "jobs": sum(len(p.get("jobs", ())) for p in passes),
        },
        "fail_ratio": failed / attempted,
        "reference_digest": outcome["reference_digest"],
        "cpus": outcome.get("cpus"),
        "problems": problems[:20],
        "passes": [summarise_pass(p) for p in passes],
    }
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
