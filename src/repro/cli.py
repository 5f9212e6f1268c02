"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library, machine-model, and experiment inventory.
``coupled``
    Run the coupled MD-KMC pipeline at a chosen box size (a thin
    client of the same :class:`~repro.service.ScenarioSpec` path the
    service uses).
``cascade``
    Run one MD cascade and report the damage inventory.
``kmc-schemes``
    Compare the three parallel-KMC communication schemes.
``figure <id>``
    Regenerate a paper figure (``fig09`` .. ``fig17``, ``memory``).
``submit`` / ``serve`` / ``status`` / ``result``
    The simulation-as-a-service surface: enqueue scenario jobs on a
    service root, drain them with a worker pool, inspect the queue,
    and fetch published (content-addressed, deduplicated) results.

All argument validation — including cross-flag checks and fault-plan
parsing — routes through ``argparse``, so every usage error exits with
status 2 and a ``usage:`` message on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

#: Figure id -> experiment module name.
FIGURES = {
    "fig09": "fig09_md_optimizations",
    "fig10": "fig10_md_strong_scaling",
    "fig11": "fig11_md_weak_scaling",
    "fig12": "fig12_kmc_comm_volume",
    "fig13": "fig13_kmc_comm_time",
    "fig14": "fig14_kmc_strong_scaling",
    "fig15": "fig15_kmc_weak_scaling",
    "fig16": "fig16_coupled_weak_scaling",
    "fig17": "fig17_vacancy_clustering",
    "memory": "memory_table",
}


#: Smallest box the MD neighbor machinery accepts (cells per axis).
MIN_CELLS = 5


def _fault_plan_arg(value: str) -> str:
    """Validate a ``--faults`` plan at parse time (argparse ``type=``).

    Returns the DSL string unchanged — specs and configs carry the
    serializable form — but a malformed plan fails with argparse's own
    exit-2 usage error instead of a hand-rolled print-and-return.
    """
    from repro.runtime.faults import FaultPlan, FaultPlanError

    try:
        FaultPlan.parse(value)
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(f"bad --faults plan: {exc}") from exc
    return value


def _poll_arg(value: str) -> float:
    """Validate ``serve --poll`` at parse time, before any worker forks."""
    from repro.service.scheduler import check_poll

    try:
        poll = float(value)
        check_poll(poll)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return poll


def _add_observe_flags(parser) -> None:
    """The shared profiling/tracing options of the run commands."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the observed phase tree and counters after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome-trace JSON (chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--kernels",
        choices=("numpy", "numba", "auto"),
        default=None,
        help=(
            "compute-kernel backend for the EAM and rate evaluations: "
            "'numpy' (vectorized reference), 'numba' (compiled loops, "
            "bit-identical, falls back to numpy with a warning if numba "
            "is missing), or 'auto' (numba when importable; the "
            "default); the REPRO_KERNELS environment variable sets the "
            "default"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Coupled MD-KMC metal damage simulation "
            "(ICPP 2018 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and machine-model inventory")

    coupled = sub.add_parser("coupled", help="run the coupled MD-KMC pipeline")
    coupled.add_argument("--cells", type=int, default=8)
    coupled.add_argument("--events", type=int, default=500)
    coupled.add_argument("--temperature", type=float, default=600.0)
    coupled.add_argument("--seed", type=int, default=2018)
    coupled.add_argument(
        "--md-steps",
        type=int,
        default=None,
        help="MD cascade steps (default: the CascadeConfig default)",
    )
    coupled.add_argument(
        "--kmc-ranks",
        type=int,
        default=None,
        help=(
            "run the KMC stage on the parallel engine with N ranks "
            "(0 forces the serial engine; default: serial, or 1 rank "
            "when profiling so the trace covers the runtime layer)"
        ),
    )
    coupled.add_argument(
        "--kmc-cycles",
        type=int,
        default=50,
        help="parallel-KMC cycle budget (with --kmc-ranks)",
    )
    coupled.add_argument(
        "--faults",
        metavar="PLAN",
        type=_fault_plan_arg,
        default=None,
        help=(
            "fault-injection plan for the KMC stage, e.g. "
            '"crash:rank=1,cycle=3; dup:rank=0,nth=2"; the run recovers '
            "from the last checkpoint and finishes bit-identically to a "
            "fault-free run (see repro.runtime.faults for the syntax)"
        ),
    )
    coupled.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "write a resumable KMC checkpoint every N cycles (parallel) "
            "or N events (serial)"
        ),
    )
    coupled.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for checkpoints (default: a fresh temporary "
            "directory, so nothing lands in the working tree)"
        ),
    )
    coupled.add_argument(
        "--trajectory",
        metavar="PATH",
        default=None,
        help=(
            "record the KMC occupancy trajectory into a chunked on-disk "
            "store at PATH (a directory); frames stream to disk as the "
            "run progresses, so memory stays bounded, and the store "
            "survives crash/recovery cycles (see repro.io.store)"
        ),
    )
    coupled.add_argument(
        "--trajectory-every",
        type=int,
        default=1,
        metavar="N",
        help=(
            "record a trajectory frame every N events (serial) or "
            "N cycles (parallel); requires --trajectory (default: 1)"
        ),
    )
    coupled.add_argument(
        "--watchdog",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline for each blocking recv/probe/collective of the "
            "parallel KMC runtime (default: no deadline)"
        ),
    )
    coupled.add_argument(
        "--backend",
        choices=("thread", "process", "overdecomposed"),
        default=None,
        help=(
            "execution backend for the parallel KMC ranks: 'thread' "
            "(default), 'process' (one OS process per rank, real "
            "multi-core parallelism), or 'overdecomposed' (R logical "
            "ranks cooperatively scheduled on --workers OS workers; "
            "results are bit-identical across all three); "
            "the REPRO_BACKEND environment variable sets the default"
        ),
    )
    coupled.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="P",
        help=(
            "physical workers for the overdecomposed/rank-group "
            "backends (default: REPRO_WORKERS or the cpu count)"
        ),
    )
    coupled.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run with the communication sanitizer (vector-clock "
            "happens-before checking of every simmpi world; equivalent "
            "to REPRO_SANITIZE=1): unmatched sends, wildcard recv "
            "races, collective-order divergence, and leaked shm slots "
            "fail the run with a per-violation report"
        ),
    )
    _add_observe_flags(coupled)
    # Cross-flag validation in cmd_coupled routes through this parser's
    # own error() so it exits 2 exactly like argparse's built-in checks.
    coupled.set_defaults(_parser=coupled)

    cascade = sub.add_parser("cascade", help="run one MD cascade")
    cascade.add_argument("--cells", type=int, default=6)
    cascade.add_argument("--pka", type=float, default=120.0)
    cascade.add_argument("--steps", type=int, default=150)
    cascade.add_argument("--temperature", type=float, default=300.0)
    cascade.add_argument("--seed", type=int, default=3)
    _add_observe_flags(cascade)

    schemes = sub.add_parser(
        "kmc-schemes", help="compare parallel-KMC communication schemes"
    )
    schemes.add_argument("--cells", type=int, default=8)
    schemes.add_argument("--ranks", type=int, default=8)
    schemes.add_argument("--cycles", type=int, default=8)
    schemes.add_argument("--vacancies", type=int, default=20)
    schemes.add_argument("--seed", type=int, default=5)
    schemes.add_argument(
        "--backend",
        choices=("thread", "process", "overdecomposed"),
        default=None,
        help="simmpi execution backend (default: REPRO_BACKEND or thread)",
    )
    schemes.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="P",
        help=(
            "physical workers for the overdecomposed/rank-group "
            "backends (default: REPRO_WORKERS or the cpu count)"
        ),
    )
    _add_observe_flags(schemes)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", choices=sorted(FIGURES))
    _add_observe_flags(figure)

    # ------------------------------------------------------------------
    # Simulation-as-a-service surface
    # ------------------------------------------------------------------
    def _root_flag(p) -> None:
        p.add_argument(
            "--root",
            required=True,
            metavar="DIR",
            help="service root directory (queue/, cache/, obs/ live here)",
        )

    submit = sub.add_parser(
        "submit",
        help="enqueue one scenario job on a service root",
        description=(
            "Build a declarative ScenarioSpec from the flags and append "
            "it durably to the service queue.  Identical specs dedupe "
            "to one execution when scheduled; results are published "
            "under the spec's content-addressed key."
        ),
    )
    _root_flag(submit)
    submit.add_argument("--cells", type=int, default=8)
    submit.add_argument("--events", type=int, default=500,
                        help="KMC event budget (serial engine)")
    submit.add_argument("--temperature", type=float, default=600.0)
    submit.add_argument("--seed", type=int, default=2018)
    submit.add_argument("--md-steps", type=int, default=None,
                        help="MD cascade steps (default: cascade default)")
    submit.add_argument("--pka", type=float, default=None, metavar="EV",
                        help="PKA energy (default: cascade default)")
    submit.add_argument("--table-points", type=int, default=2000)
    submit.add_argument("--recombination-radius", type=float, default=None,
                        metavar="A")
    submit.add_argument("--kmc-ranks", type=int, default=None,
                        help="parallel KMC rank count (default: serial)")
    submit.add_argument("--kmc-cycles", type=int, default=50)
    submit.add_argument("--kmc-scheme", default="ondemand",
                        choices=("traditional", "ondemand", "onesided"))
    submit.add_argument(
        "--trajectory-every", type=int, default=None, metavar="N",
        help=(
            "publish a chunked trajectory store recorded every N "
            "events/cycles as part of the result (default: no store)"
        ),
    )
    submit.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg,
                        default=None,
                        help="fault-injection plan for the KMC stage")
    submit.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N")
    submit.add_argument("--backend", default=None,
                        choices=("thread", "process", "overdecomposed"))
    submit.add_argument("--workers", type=int, default=None, metavar="P")
    submit.set_defaults(_parser=submit)

    serve = sub.add_parser(
        "serve",
        help="run a worker pool draining a service root",
        description=(
            "Schedule pending jobs onto forked worker processes: "
            "identical specs share one execution, cached keys complete "
            "immediately, crashed workers are retried with bounded "
            "attempts."
        ),
    )
    _root_flag(serve)
    serve.add_argument("--workers", type=int, default=2, metavar="P",
                       help="concurrent worker processes (default: 2)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="execution attempts per job key (default: 3)")
    serve.add_argument(
        "--drain", action="store_true",
        help="exit once the queue is fully processed (default: keep "
             "watching for new submissions)",
    )
    serve.add_argument("--poll", type=_poll_arg, default=0.05, metavar="SECONDS",
                       help="scheduler poll interval (default: 0.05)")
    serve.set_defaults(_parser=serve)

    status = sub.add_parser(
        "status", help="show job states and queue statistics of a root"
    )
    _root_flag(status)
    status.add_argument("--job", default=None, metavar="ID",
                        help="show one job (with its live observe snapshot)")
    status.set_defaults(_parser=status)

    result = sub.add_parser(
        "result", help="show a completed job's published artifacts"
    )
    _root_flag(result)
    result.add_argument("job", metavar="ID", help="job id (e.g. job-000001)")
    result.add_argument("--json", action="store_true",
                        help="print the raw result.json payload")
    result.set_defaults(_parser=result)

    return parser


def _profiling_requested(args) -> bool:
    return bool(getattr(args, "profile", False) or getattr(args, "trace", None))


def _start_observation(args):
    """Activate a fresh registry when ``--profile``/``--trace`` ask for one."""
    if not _profiling_requested(args):
        return None
    from repro import observe as obs

    return obs.enable()


def _finish_observation(args, registry) -> None:
    """Render/export the observation collected by a run command."""
    if registry is None:
        return
    from repro import observe as obs

    obs.disable()
    if args.profile:
        print()
        print(obs.format_report(registry))
    if args.trace:
        try:
            obs.write_chrome_trace(registry, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            raise SystemExit(1) from exc
        print(f"\ntrace written to {args.trace} (open in chrome://tracing)")


def cmd_info() -> int:
    import repro
    from repro.perfmodel.machine import TAIHULIGHT

    print(f"repro {repro.__version__} — ICPP 2018 reproduction")
    print(
        "paper: Massively Scaling the Metal Microscopic Damage Simulation "
        "on Sunway TaihuLight Supercomputer (Li et al.)"
    )
    arch = TAIHULIGHT.arch
    print(
        f"\nmachine model: {TAIHULIGHT.nodes:,} nodes x "
        f"{TAIHULIGHT.cgs_per_node} CGs x {arch.cores_per_cg} cores = "
        f"{TAIHULIGHT.total_cores:,} cores"
    )
    print(
        f"  CPE local store {arch.local_store_bytes // 1024} KB, "
        f"{arch.memory_per_cg / 1024**3:.0f} GB/CG, "
        f"{arch.clock_hz / 1e9:.2f} GHz"
    )
    print("\nregenerable figures:")
    for fid, module in sorted(FIGURES.items()):
        print(f"  {fid:7s} -> repro.experiments.{module}")
    return 0


def cmd_coupled(args) -> int:
    from repro.core.coupling import CoupledSimulation
    from repro.runtime.faults import FaultPlan
    from repro.service import ScenarioSpec, SpecError

    if args.trajectory is None and args.trajectory_every != 1:
        args._parser.error("--trajectory-every requires --trajectory")
    if args.sanitize:
        # The env knob is the cross-process carrier: forked backend
        # children and service workers inherit it, and World.run reads
        # it at dispatch time.
        os.environ["REPRO_SANITIZE"] = "1"
    if args.faults is not None:
        # Parse-time validated (argparse type); describe for the log.
        print(f"fault plan: {FaultPlan.parse(args.faults).describe()}")
    profiling = _profiling_requested(args)
    cells = args.cells
    if cells < MIN_CELLS:
        print(
            f"note: --cells raised from {cells} to {MIN_CELLS} "
            "(minimum box for the MD cutoff)"
        )
        cells = MIN_CELLS
    kmc_nranks = args.kmc_ranks
    if kmc_nranks is None and profiling:
        # Route the KMC stage through the parallel engine so the profile
        # covers the simulated-MPI runtime layer too (override with
        # --kmc-ranks 0 to keep the serial BKL engine).
        kmc_nranks = 1
        print("note: profiling runs the KMC stage on the parallel engine "
              "(1 rank); pass --kmc-ranks 0 to force the serial engine")
    if kmc_nranks == 0:
        kmc_nranks = None
    # One spec path for batch and service runs: `coupled` builds the
    # same declarative ScenarioSpec `submit` enqueues, then executes it
    # inline with the run-local knobs (paths, profiling) layered on top.
    try:
        spec = ScenarioSpec(
            cells=cells,
            temperature=args.temperature,
            md_steps=args.md_steps,
            kmc_max_events=args.events,
            kmc_nranks=kmc_nranks,
            kmc_max_cycles=args.kmc_cycles,
            seed=args.seed,
            trajectory_every=(
                args.trajectory_every if args.trajectory is not None else None
            ),
            faults=args.faults,
            checkpoint_every=args.checkpoint_every,
            backend=args.backend,
            workers=args.workers,
            watchdog=args.watchdog,
        )
    except SpecError as exc:
        args._parser.error(str(exc))
    registry = _start_observation(args)
    sim = CoupledSimulation(
        spec.to_coupled_config(
            trajectory=args.trajectory,
            checkpoint_dir=args.checkpoint_dir,
            sunway_model=profiling,
        )
    )
    print(f"coupled MD-KMC over {sim.lattice.nsites} sites ...")
    result = sim.run()
    print(f"after MD : {result.report_after_md}")
    print(f"after KMC: {result.report_after_kmc}")
    print(
        f"{result.kmc_events} events over {result.kmc_time:.3g} ps "
        f"-> {result.real_time_seconds:.3g} s real time"
    )
    if result.sunway_report is not None:
        sw = result.sunway_report
        print(
            f"modeled SW26010 force step ({sw['strategy']}): "
            f"{sw['modeled_step_time_s']:.3g} s, "
            f"{sw['dma_operations']:,} DMA ops / {sw['dma_bytes']:,} B"
        )
    if result.fault_report is not None:
        fr = result.fault_report
        print(
            f"faults injected: {fr['injected']} "
            f"({fr['crashes']} crashes, {fr['delays']} delays, "
            f"{fr['duplicates']} duplicates, {fr['stalls']} stalls); "
            f"recoveries: {result.recoveries}"
        )
    elif result.recoveries:
        print(f"recoveries: {result.recoveries}")
    if result.migrations:
        print(f"migrations: {result.migrations}")
    if result.trajectory_path is not None:
        print(
            f"trajectory: {result.trajectory_frames} frames "
            f"-> {result.trajectory_path}"
        )
    if args.sanitize:
        from repro.runtime.sanitize import SUMMARY

        # A violation raises SanitizerError long before this line, so
        # reaching it means every checked world validated clean.
        print(f"sanitizer: clean ({SUMMARY['worlds']} world(s) checked)")
    _finish_observation(args, registry)
    return 0


def _spec_from_submit_args(args):
    from repro.service import ScenarioSpec, SpecError

    try:
        return ScenarioSpec(
            cells=args.cells,
            temperature=args.temperature,
            table_points=args.table_points,
            md_steps=args.md_steps,
            pka_energy=args.pka,
            kmc_max_events=args.events,
            kmc_nranks=args.kmc_ranks,
            kmc_max_cycles=args.kmc_cycles,
            recombination_radius=args.recombination_radius,
            trajectory_every=args.trajectory_every,
            seed=args.seed,
            kmc_scheme=args.kmc_scheme,
            backend=args.backend,
            workers=args.workers,
            faults=args.faults,
            checkpoint_every=args.checkpoint_every,
        )
    except SpecError as exc:
        args._parser.error(str(exc))


def cmd_submit(args) -> int:
    from repro.service import ServiceClient

    spec = _spec_from_submit_args(args)
    record = ServiceClient(args.root).submit(spec)
    print(
        f"submitted {record.job_id} key={record.key[:12]} "
        f"({record.state}) -> {args.root}"
    )
    return 0


def cmd_serve(args) -> int:
    from repro.service import ServicePool

    pool = ServicePool(
        args.root,
        workers=args.workers,
        max_attempts=args.max_attempts,
        notify=print,
    )
    mode = "drain" if args.drain else "watch"
    print(
        f"serving {args.root} with {args.workers} worker(s) "
        f"(max {args.max_attempts} attempt(s)/job, {mode} mode)"
    )
    try:
        pool.run(drain=args.drain, poll=args.poll)
    except KeyboardInterrupt:
        print("interrupted; leaving in-flight workers to finish")
        pool.shutdown(kill=False)
        return 130
    print("queue drained")
    return 0


def cmd_status(args) -> int:
    import json

    from repro.service import ServiceClient
    from repro.service.scheduler import summarize

    client = ServiceClient(args.root)
    if args.job is not None:
        record = client.job(args.job)
        print(
            f"{record.job_id}  {record.state:8s} key={record.key[:12]}  "
            f"attempts={record.attempts}  {record.mode or '-'}"
        )
        if record.error:
            print(f"  error: {record.error}")
        snapshot = client.observe_snapshot(args.job)
        if snapshot is not None:
            counters = snapshot.get("counters", {})
            print(f"  stage: {snapshot.get('stage', '?')}")
            for name in sorted(counters):
                print(f"  {name}: {counters[name]:g}")
        return 0
    records = client.jobs()
    for record in records:
        line = (
            f"{record.job_id}  {record.state:8s} key={record.key[:12]}  "
            f"attempts={record.attempts}  {record.mode or '-'}"
        )
        if record.error:
            line += f"  error: {record.error}"
        print(line)
    stats = summarize(records)
    states = stats["states"]
    print(
        f"jobs: {stats['total']} total, {states['done']} done, "
        f"{states['failed']} failed, {states['running']} running, "
        f"{states['pending']} pending"
    )
    print(
        f"executions: {stats['executions']}, "
        f"deduplicated: {stats['deduplicated']}, "
        f"retries: {stats['retries']}"
    )
    # Greppable by scripts (the CI smoke asserts on it).
    print("summary:", json.dumps(stats, sort_keys=True))
    return 0


def cmd_result(args) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.root)
    try:
        result = client.result(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.summary, indent=2, sort_keys=True))
        return 0
    summary = result.summary
    print(f"{result.job_id} key={result.key}")
    print(f"entry: {result.path}")
    print(
        f"{summary['kmc_events']} events over {summary['kmc_time_ps']:.3g} ps "
        f"-> {summary['real_time_seconds']:.3g} s real time"
    )
    print(
        f"vacancies: {summary['vacancies_after_md']} after MD, "
        f"{summary['vacancies_after_kmc']} after KMC"
    )
    if summary.get("trajectory_frames") is not None:
        print(f"trajectory: {summary['trajectory_frames']} frames")
    print("artifacts:")
    for rel, meta in sorted(result.manifest["artifacts"].items()):
        marker = "*" if meta.get("deterministic") else " "
        print(f" {marker} {rel}  {meta['bytes']} B  sha256={meta['sha256'][:12]}")
    print("(* = bit-deterministic artifact)")
    return 0


def cmd_cascade(args) -> int:
    from repro.lattice.bcc import BCCLattice
    from repro.md.cascade import CascadeConfig, run_cascade
    from repro.md.engine import MDConfig, MDEngine
    from repro.potential.fe import make_fe_potential

    registry = _start_observation(args)
    engine = MDEngine(
        BCCLattice(args.cells, args.cells, args.cells),
        make_fe_potential(n=2000),
        MDConfig(temperature=args.temperature, seed=args.seed),
    )
    result = run_cascade(
        engine,
        CascadeConfig(
            pka_energy=args.pka,
            nsteps=args.steps,
            temperature=args.temperature,
        ),
    )
    print(
        f"PKA {args.pka} eV -> {len(result.vacancy_rows)} vacancies, "
        f"{result.n_runaways} interstitials "
        f"({result.n_frenkel_pairs} Frenkel pairs); "
        f"final T {result.final_temperature:.0f} K"
    )
    _finish_observation(args, registry)
    return 0


def cmd_kmc_schemes(args) -> int:
    import numpy as np

    from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
    from repro.kmc.events import KMCModel, RateParameters
    from repro.lattice.bcc import BCCLattice
    from repro.potential.fe import make_fe_potential

    lattice = BCCLattice(args.cells, args.cells, args.cells)
    potential = make_fe_potential(n=1000)
    params = RateParameters()
    occ0 = place_random_vacancies(
        KMCModel(lattice, potential, params),
        args.vacancies,
        np.random.default_rng(args.seed),
    )
    registry = _start_observation(args)
    reference = None
    print(f"{'scheme':>12} {'events':>7} {'bytes':>12} {'messages':>9}")
    for scheme in ("traditional", "ondemand", "onesided"):
        engine = ParallelAKMC(
            lattice,
            potential,
            params,
            nranks=args.ranks,
            scheme=scheme,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
        )
        result = engine.run(occ0, max_cycles=args.cycles)
        stats = result.comm_stats
        print(
            f"{scheme:>12} {result.events:>7} "
            f"{stats['total_sent_bytes']:>12,} "
            f"{stats['total_messages']:>9,}"
        )
        if reference is None:
            reference = result.occupancy
        elif not np.array_equal(result.occupancy, reference):
            print("ERROR: schemes diverged", file=sys.stderr)
            _finish_observation(args, registry)
            return 1
    print("all schemes produced identical trajectories")
    _finish_observation(args, registry)
    return 0


def cmd_figure(args) -> int:
    import importlib

    registry = _start_observation(args)
    module = importlib.import_module(
        f"repro.experiments.{FIGURES[args.id]}"
    )
    module.main()
    _finish_observation(args, registry)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    import os

    args = build_parser().parse_args(argv)
    if getattr(args, "kernels", None):
        # Every dispatch site resolves REPRO_KERNELS, so the flag just
        # pins the environment for this process (children inherit it).
        os.environ["REPRO_KERNELS"] = args.kernels
    if args.command == "info":
        return cmd_info()
    if args.command == "coupled":
        return cmd_coupled(args)
    if args.command == "cascade":
        return cmd_cascade(args)
    if args.command == "kmc-schemes":
        return cmd_kmc_schemes(args)
    if args.command == "figure":
        return cmd_figure(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "status":
        return cmd_status(args)
    if args.command == "result":
        return cmd_result(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
