"""The program side of one benchmark pass, run in its own process.

``run.py`` launches this script with the checkout's ``src`` on
``PYTHONPATH``, so every pass starts from a fresh interpreter: no
``lru_cache``, calibration memo or artifact-store memo survives from an
earlier pass.  Three modes:

``sweep``
    Build a :class:`~repro.runner.SweepEngine` over the given cache and
    store directories, exactly as ``python -m repro.runner`` does, and
    drive the registered Fig. 7 or Fig. 8 SMALL harness through it.  Every
    point's workload-spec seed is replaced by ``--seed`` (seed 0 is the
    registered grid).  Writes a JSON summary to ``--out``: set-up time
    (launch to engine ready), record digest and validation problems,
    engine and store counters, and this process's and its reaped pool
    workers' resource usage.
``prime-service``
    Run the six experiments of the ``service_mix`` job mix in-process on
    one engine, filling the artifact store and the result cache (which
    each ``service_mix`` server is given a copy of) and recording which
    record keys each experiment touches: the reference the served records
    are compared with.
``serve TRACE_DIR|-``
    Start ``python -m repro.service serve`` with the remaining arguments,
    after installing the tracer into ``TRACE_DIR`` (``-``: untraced).

``--trace-dir`` installs :mod:`tracer` before the engine is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import resource
import sys
import time

#: The experiments of the service_mix job mix (all at SMALL scale).
SERVICE_EXPERIMENTS = ("fig7", "fig8", "fig12", "table2", "temporal", "table4")


def records_digest(records) -> str:
    """SHA-256 over the sorted canonical JSON of ``records``."""
    lines = sorted(json.dumps(record, sort_keys=True) for record in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _usage(who: int) -> dict:
    usage = resource.getrusage(who)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def _recording(engine, seed: int | None, keys: list, records: list) -> None:
    """Make ``engine.run`` re-seed each point and record what it returns."""
    run = engine.run

    def recorded_run(points):
        points = list(points)
        if seed is not None:
            points = [
                dataclasses.replace(
                    point, workload=dataclasses.replace(point.workload, seed=seed)
                )
                for point in points
            ]
        out = run(points)
        keys.extend(point.cache_key() for point in points)
        records.extend(out)
        return out

    engine.run = recorded_run


def _sweep(args: argparse.Namespace) -> dict:
    from repro.experiments.common import SMALL
    from repro.runner.cache import ResultCache
    from repro.runner.engine import SweepEngine, validate_record
    from repro.runner.store import ArtifactStore

    if args.experiment == "fig7":
        from repro.experiments.fig7 import run_fig7 as harness
    else:
        from repro.experiments.fig8 import run_fig8 as harness
    if args.trace_dir:
        import tracer

        tracer.install(args.trace_dir)
    store = ArtifactStore(args.store_dir)
    engine = SweepEngine(cache=ResultCache(args.cache_dir), jobs=args.jobs, store=store)
    ready = time.monotonic()
    keys: list[str] = []
    records: list[dict] = []
    _recording(engine, args.seed, keys, records)
    with engine:
        harness(SMALL, engine=engine)
    problems = [problem for record in records for problem in validate_record(record)]
    return {
        "setup_s": ready - args.t0,
        "run_s": time.monotonic() - ready,
        "points": len(records),
        "digest": records_digest(records),
        "problems": problems[:10],
        "executed": engine.stats.executed,
        "cache_hits": engine.stats.cache_hits,
        # In-process counters: exact for serial passes only, since pool
        # workers keep their own store instances.
        "store_hits": store.hits,
        "store_misses": store.misses,
        "self": _usage(resource.RUSAGE_SELF),
        "children": _usage(resource.RUSAGE_CHILDREN),
    }


def _prime_service(args: argparse.Namespace) -> dict:
    from repro.experiments.registry import get_experiment
    from repro.runner.cache import ResultCache
    from repro.runner.engine import SweepEngine
    from repro.runner.store import ArtifactStore

    engine = SweepEngine(
        cache=ResultCache(args.cache_dir), store=ArtifactStore(args.store_dir)
    )
    keys_by_experiment = {}
    with engine:
        for name in SERVICE_EXPERIMENTS:
            keys: list[str] = []
            _recording(engine, None, keys, [])
            get_experiment(name).run("small", engine=engine)
            keys_by_experiment[name] = sorted(set(keys))
            del engine.run
    return {"keys": keys_by_experiment}


def main(argv: list[str] | None = None) -> int:
    """Parse the mode and run it; writes the JSON summary to ``--out``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        # serve TRACE_DIR|- <python -m repro.service serve arguments>
        if argv[1] != "-":
            import tracer

            tracer.install(argv[1])
        from repro.service.cli import main as serve_main

        return serve_main(["serve", *argv[2:]])
    parser = argparse.ArgumentParser(prog="perfbench/program.py")
    parser.add_argument("mode", choices=("sweep", "prime-service"))
    parser.add_argument("--experiment", choices=("fig7", "fig8"), default="fig7")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir")
    parser.add_argument("--store-dir")
    parser.add_argument("--out")
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    summary = _sweep(args) if args.mode == "sweep" else _prime_service(args)
    pathlib.Path(args.out).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
