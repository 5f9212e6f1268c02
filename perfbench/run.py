"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coupled-serial --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` times repetitions with observation off and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` alternates
untraced and traced repetitions (``repro.observe`` enabled, plus the
benchmark's own spans) and reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full run record
(environment, the wall time and host CPU steal of every repetition,
headline numbers, counts, labels, failed checks).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-up runs at least this often and until this much set-up time has
#: accumulated; the median is ``setup_s``.  A set-up of well under a
#: millisecond (``coupled-serial``) needs hundreds of samples before its
#: median stops moving between runs.
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 1.0

#: How each rank-side registry total adds up (ROADMAP aim 4).  Names not
#: listed are wall time of the benchmark process, counts or ratios.
LABELS = {
    "kmc.ghost_sync_s": "rank-summed over 8 ranks (registry phase totals)",
    "kmc.dt_sync_s": "rank-summed over 8 ranks (registry phase totals)",
    "kmc.catalog_update_s": "per event; rank-summed on kmc-parallel",
    "kmc.event_selection_s": "per event; rank-summed on kmc-parallel",
    "runtime.probe_s": "rank-summed over 8 ranks (registry phase totals)",
    "runtime.collective_s": "rank-summed over 8 ranks (registry phase totals)",
    "runtime.per_message_s": "rank-summed probe+recv time per point-to-point message",
    "runtime.comm_measured_s": "rank-summed probe+recv+collective time",
    "runtime.comm_modeled_s": "rank-summed alpha-beta model time "
    "(runtime.comm_time_modeled_s)",
    "io.gather_s": "rank-summed allgather time of the trajectory frames",
    "md.force_s": "wall time (serial engine, one thread)",
    "md.integrate_s": "wall time (serial engine, one thread)",
    "md.neighbor_s": "wall time (serial engine, one thread)",
    "md.eam.scatter_s": "derived: eam_evaluate minus the three spline lookups",
    "md.neighbor.rebuilds": "count of run-away/neighbor update passes",
    "observe.trace_overhead_frac": "median traced wall / median untraced wall - 1",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_benchmark() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return None
    return json.loads(path.read_text())


def _workloads():
    from perfbench.coupled_serial import CoupledSerial
    from perfbench.kmc_parallel import KMCParallel
    from perfbench.service_sweep import ServiceSweep

    return {w.name: w for w in (CoupledSerial, KMCParallel, ServiceSweep)}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up several times, then repeat the workload for ``seconds``.

    Returns the raw measurements: set-up times, untraced and traced
    repetitions, and the cross-repetition digest checks.
    """
    from perfbench.common import Checks, host_steal_s

    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        want_traced = trace and len(traced) < len(plain)
        steal = host_steal_s()
        rep = workload.run_once(want_traced)
        rep.steal_s = round(host_steal_s() - steal, 2)
        (traced if want_traced else plain).append(rep)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= 1 and (not trace or len(traced) >= 1)
        if enough and elapsed + elapsed / done > seconds:
            break
    same = Checks()
    reps = plain + traced
    for rep in reps[1:]:
        same.check(
            "same seed gives the same final-state digest",
            rep.digest == reps[0].digest,
            f"{rep.digest[:12]} vs {reps[0].digest[:12]}",
        )
    return {"setups": setups, "plain": plain, "traced": traced, "same": same}


def summarize(workload, raw: dict, bench: dict, trace: bool) -> tuple[dict, dict]:
    """The printed result object and the full run record."""
    from perfbench.common import environment, median, peak_rss_mb

    plain, traced = raw["plain"], raw["traced"]
    reps = plain + traced
    attempted = raw["same"].attempted + sum(r.checks.attempted for r in reps)
    failed = raw["same"].failed + sum(r.checks.failed for r in reps)
    failures = raw["same"].failures()
    for rep in reps:
        failures.extend(rep.checks.failures())
    headline = {
        name: median(r.headline[name] for r in plain) for name in plain[0].headline
    }
    error_rate = failed / attempted if attempted else 0.0
    wall_s = median(r.wall_s for r in plain)
    if trace:
        measured = {}
        for name in traced[0].layers:
            measured[name] = median(r.layers[name] for r in traced)
        measured.update(headline)
        measured["error_rate"] = error_rate
        measured["observe.trace_overhead_frac"] = (
            median(r.wall_s for r in traced) / wall_s - 1.0
        )
        specs = bench["per_layer"]
    else:
        measured = {
            "setup_s": median(raw["setups"]),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        specs = bench["end_to_end"]
    metrics = {}
    not_exercised = []
    for spec in specs:
        name = spec["name"]
        if name not in measured:
            not_exercised.append(name)
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": spec["unit"]}
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "environment": environment(workload.backend, workload.workers),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "setup_s": {
            "repeats": len(raw["setups"]),
            "min": min(raw["setups"]),
            "median": median(raw["setups"]),
            "max": max(raw["setups"]),
        },
        "wall_s": [r.wall_s for r in plain],
        "steal_s": [r.steal_s for r in plain],
        "traced_wall_s": [r.wall_s for r in traced],
        "traced_steal_s": [r.steal_s for r in traced],
        "headline": headline,
        "error_rate": error_rate,
        "counts": plain[0].counts,
        "not_exercised": not_exercised,
        "undeclared": sorted(set(measured) - set(metrics)),
        "labels": {k: v for k, v in LABELS.items() if k in metrics},
        "failures": failures[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    The runtime's shared-memory transport starts it lazily as a child of
    this process; without this it would outlive the run unreaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = _load_benchmark()
    if bench is None:
        return _fail(f"{ROOT} is not a checkout of the program (no src/repro)")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workloads = _workloads()
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; choose {sorted(workloads)}")
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Everything the run writes, temporary files included, stays here.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        workload = workloads[args.workload](args.seed, workdir)
        raw = measure(workload, args.seconds, bool(args.trace))
        result, record = summarize(workload, raw, bench, bool(args.trace))
    finally:
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
