"""Span and counter tracing for traced benchmark passes.

The tracer wraps public functions of the ``repro`` modules from the
outside (no source file is edited) and accumulates, per process, the
time spent in each named span, the part of it covered by nested spans
(for self time) and named counters.  A process appends its deltas as one
JSON line to ``<trace dir>/<pid>.jsonl`` whenever a top-level span of
its main thread closes, so forked pool workers (which exit without
running ``atexit`` hooks) report after every task; other threads flush
periodically and at interpreter exit.  :func:`collect` sums every line
of a directory.

``repro.runner.engine.simulate_point`` is deliberately never wrapped:
the engine routes phi points through the batched simulator only while
that seam is the original function, so replacing it would trace a
different program.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import pathlib
import threading
import time
from collections import defaultdict

#: Top-level spans of non-main threads (the job server's dispatcher and
#: HTTP threads) flush at most this often; the rest is flushed at exit.
FLUSH_INTERVAL_S = 0.5


class Tracer:
    """Per-process span/counter accumulator that flushes to a directory."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self._root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child inherits the parent's open spans and unflushed
        # totals; it must report only its own work.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_flush = time.perf_counter()
        self._seconds: dict[str, float] = defaultdict(float)
        self._child: dict[str, float] = defaultdict(float)
        self._counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        with self._lock:
            self._counts[name] += n

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args, kwargs)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                with self._lock:
                    self._seconds[name] += elapsed
                    self._child[name] += frame[1]
                    self._counts[name + "_calls"] += 1
                    if stack:
                        stack[-1][1] += elapsed
                    elif (
                        threading.current_thread() is threading.main_thread()
                        and os.getpid() == self._root_pid
                    ):
                        # What the traced process's own layer spans cover.
                        self._seconds["trace.top_level"] += elapsed
                if not stack and (
                    threading.current_thread() is threading.main_thread()
                    or time.perf_counter() - self._last_flush > FLUSH_INTERVAL_S
                ):
                    self.flush()

        return traced

    def flush(self) -> None:
        """Append the deltas since the last flush to this process's file."""
        with self._lock:
            line = {
                "seconds": dict(self._seconds),
                "child": dict(self._child),
                "counts": dict(self._counts),
            }
            self._last_flush = time.perf_counter()
            self._seconds.clear()
            self._child.clear()
            self._counts.clear()
        if not (line["seconds"] or line["counts"]):
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(line) + "\n")


def _patch(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))


def install(out_dir: str | os.PathLike) -> Tracer:
    """Wrap the layer entry points of every ``repro`` module; returns the tracer."""
    import concurrent.futures

    from repro.baselines import base as baselines_base
    from repro.core import calibration, kmeans, paft
    from repro.hw import simulator
    from repro.runner import cache, engine, store
    from repro.workloads import generator, temporal

    tracer = Tracer(out_dir)
    atexit.register(tracer.flush)

    # workloads: the generators behind the engine's lru-cached entry
    # points, so memo hits are not counted as generation.
    _patch(tracer, generator, "generate_workload", "workloads.generate")
    _patch(tracer, temporal, "generate_temporal_workload", "workloads.generate")
    _patch(tracer, engine, "generate_random_workload", "workloads.generate")

    # core: calibration, the k-means inside it, and decomposition.
    _patch(tracer, calibration.PhiCalibrator, "calibrate_model", "core.calibrate")

    def kmeans_rows(result, args, kwargs):
        tracer.count("core.calibration_rows", len(args[0]))
        unique = kwargs.get("unique_rows")
        if unique is not None:
            tracer.count("core.calibration_unique_rows", len(unique))

    _patch(tracer, kmeans, "binary_kmeans", "core.kmeans", kmeans_rows)
    for module in (calibration, simulator, paft):
        _patch(tracer, module, "decompose_matrix", "core.decompose")

    # hw: the batched Phi simulator and its lockstep packer.
    def simulate_counts(result, args, kwargs):
        tasks = args[0]
        tracer.count("hw.points", len(tasks))
        tracer.count("hw.layers", sum(len(task[1]) for task in tasks))

    _patch(tracer, simulator, "simulate_phi_many", "hw.simulate", simulate_counts)
    _patch(tracer, simulator, "pack_counts_batch", "hw.pack")

    def baseline_layers(result, args, kwargs):
        tracer.count("baselines.layers", len(result.layers))

    _patch(
        tracer,
        baselines_base.BaselineAccelerator,
        "simulate",
        "baselines.simulate",
        baseline_layers,
    )

    # store / cache: reads split into hits and misses by their result.
    def outcome(prefix):
        def after(result, args, kwargs):
            tracer.count(prefix + (".misses" if result is None else ".hits"))

        return after

    _patch(tracer, store.ArtifactStore, "get", "store.get", outcome("store"))
    _patch(tracer, store.ArtifactStore, "put", "store.put")
    _patch(tracer, cache.ResultCache, "get", "cache.get", outcome("cache"))
    _patch(tracer, cache.ResultCache, "put", "cache.put")

    # engine and pool dispatch.
    def engine_points(result, args, kwargs):
        tracer.count("engine.points", len(result))

    _patch(tracer, engine.SweepEngine, "run", "engine.run", engine_points)
    _patch(tracer, engine, "wait", "pool.wait")
    _patch(tracer, concurrent.futures.Future, "result", "pool.wait")

    executor = concurrent.futures.ProcessPoolExecutor
    original_submit = executor.submit

    @functools.wraps(original_submit)
    def submit(*args, **kwargs):
        tracer.count("pool.tasks")
        return original_submit(*args, **kwargs)

    executor.submit = submit
    return tracer


def collect(out_dir: str | os.PathLike) -> dict:
    """Sum every flushed line under ``out_dir`` into one totals mapping.

    Returns ``{"seconds": {...}, "child": {...}, "counts": {...}}``; a
    line cut short by a killed process is skipped.
    """
    totals = {"seconds": defaultdict(float), "child": defaultdict(float),
              "counts": defaultdict(float)}
    root = pathlib.Path(out_dir)
    if not root.exists():
        return {key: {} for key in totals}
    for path in sorted(root.glob("*.jsonl")):
        for raw in path.read_text().splitlines():
            try:
                line = json.loads(raw)
            except ValueError:
                continue
            for key in totals:
                for name, value in line.get(key, {}).items():
                    totals[key][name] += value
    return {key: dict(value) for key, value in totals.items()}
