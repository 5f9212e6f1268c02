"""Workload ``kmc-parallel``: the three parallel KMC schemes on one runtime.

One repetition runs ``ParallelAKMC`` on a 16^3-cell lattice (8,192
sites) with 160 seeded vacancies and 8 ranks (2x2x2) on the process
backend with 2 workers, once per communication scheme in a fixed order
(``ondemand``, ``traditional``, ``onesided``), each from the same
occupancy for the same cycle budget, streaming a trajectory frame every
cycle.  See README.md for why these sizes.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import observe as obs
from repro.io.store import TrajectoryReader
from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import VACANCY, KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.potential.fe import make_fe_potential

from perfbench.common import (
    Checks,
    Rep,
    Spans,
    counter,
    digest,
    phase_count,
    phase_total,
    ratio,
)
from perfbench.coupled_serial import TEMPERATURE, time_rate_eval

SCHEMES = ("ondemand", "traditional", "onesided")
BACKEND = "process"
WORKERS = 2
GRID = (2, 2, 2)


@dataclass(frozen=True)
class Size:
    cells: int = 16
    vacancies: int = 160
    cycles: int = 30
    table_points: int = 2000
    rate_eval_calls: int = 400


class KMCParallel:
    name = "kmc-parallel"
    backend = BACKEND
    workers = WORKERS

    def __init__(self, seed: int, workdir: Path, size: Size = Size()) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = size

    def setup(self) -> None:
        """Potential, lattice, seeded occupancy and one engine per scheme."""
        s = self.size
        self.potential = make_fe_potential(n=s.table_points)
        self.lattice = BCCLattice(s.cells, s.cells, s.cells)
        self.params = RateParameters(temperature=TEMPERATURE)
        model = KMCModel(self.lattice, self.potential, self.params)
        rng = np.random.default_rng(self.seed)
        self.occupancy = place_random_vacancies(model, s.vacancies, rng)
        self.engines = {
            scheme: ParallelAKMC(
                self.lattice,
                self.potential,
                self.params,
                grid=GRID,
                scheme=scheme,
                seed=self.seed,
                backend=BACKEND,
                workers=WORKERS,
            )
            for scheme in SCHEMES
        }

    def _store(self, scheme: str) -> Path:
        return self.workdir / f"trajectory-{scheme}"

    def run_once(self, traced: bool) -> Rep:
        for scheme in SCHEMES:
            shutil.rmtree(self._store(scheme), ignore_errors=True)
        spans = Spans()
        results = {}
        registry = obs.Registry(trace=False) if traced else None
        with obs.observing(registry) if traced else nullcontext():
            t0 = time.perf_counter()
            for scheme in SCHEMES:
                with spans.span(f"kmc.scheme.{scheme}"):
                    results[scheme] = self.engines[scheme].run(
                        self.occupancy,
                        max_cycles=self.size.cycles,
                        trajectory=str(self._store(scheme)),
                        trajectory_every=1,
                    )
            t1 = time.perf_counter()
        events = sum(r.events for r in results.values())
        first = results[SCHEMES[0]]
        rep = Rep(
            wall_s=t1 - t0,
            digest=digest(first.occupancy, repr(first.time), first.events),
            checks=self._check(results),
            headline={"kmc_events_per_s": ratio(events, t1 - t0)},
            counts={
                "md.vacancies": 0,
                "kmc.vacancies": int(first.nvacancies),
                "kmc.events": int(events),
            },
        )
        if traced:
            rep.layers = self._layers(registry.summary(), spans, results)
        return rep

    def _check(self, results) -> Checks:
        checks = Checks()
        ref = results[SCHEMES[0]]
        for scheme in SCHEMES:
            r = results[scheme]
            if scheme != SCHEMES[0]:
                checks.check(
                    f"{scheme} ends on the {SCHEMES[0]} digest",
                    np.array_equal(r.occupancy, ref.occupancy)
                    and r.time == ref.time
                    and r.events == ref.events,
                )
            checks.check(
                f"{scheme} keeps the vacancy count",
                r.nvacancies == self.size.vacancies,
                f"{r.nvacancies}",
            )
            checks.check(
                f"{scheme} ran its cycle budget",
                r.cycles == self.size.cycles,
                f"{r.cycles} cycles",
            )
            last = TrajectoryReader(self._store(scheme)).frame(-1)
            checks.check(
                f"{scheme} last store frame equals the final occupancy",
                np.array_equal(last, r.occupancy),
            )
        return checks

    def _layers(self, summary, spans, results) -> dict:
        s = self.size
        layers = {}
        messages = 0
        for scheme in SCHEMES:
            stats = results[scheme].comm_stats
            layers[f"kmc.cycle_s.{scheme}"] = ratio(
                spans.total(f"kmc.scheme.{scheme}"), results[scheme].cycles
            )
            layers[f"runtime.messages.{scheme}"] = float(stats["total_messages"])
            layers[f"runtime.bytes.{scheme}"] = float(stats["total_sent_bytes"])
            messages += stats["total_messages"]
        events = sum(r.events for r in results.values())
        reused = counter(summary, "kmc.catalog.rows_reused")
        refreshed = counter(summary, "kmc.catalog.rows_refreshed")
        probe = phase_total(summary, "runtime.probe")
        recv = phase_total(summary, "runtime.recv")
        collective = phase_total(summary, "runtime.collective")
        measured = probe + recv + collective
        modeled = counter(summary, "runtime.comm_time_modeled_s")
        final = results[SCHEMES[0]]
        layers.update(
            {
                "kmc.catalog_update_s": ratio(
                    phase_total(summary, "kmc.catalog_update"), events
                ),
                "kmc.event_selection_s": ratio(
                    phase_total(summary, "kmc.event_selection"), events
                ),
                "kmc.catalog.reuse_ratio": ratio(reused, reused + refreshed),
                "kmc.rate_eval_s": time_rate_eval(
                    self.lattice,
                    self.potential,
                    np.flatnonzero(final.occupancy == VACANCY),
                    s.rate_eval_calls,
                ),
                "kmc.ghost_sync_s": phase_total(summary, "kmc.ghost_sync"),
                "kmc.dt_sync_s": phase_total(summary, "kmc.dt_sync"),
                "kmc.rate_bound.clamped": counter(summary, "kmc.rate_bound.clamped"),
                "runtime.collectives": float(
                    sum(r.comm_stats["total_collectives"] for r in results.values())
                ),
                "runtime.probe_s": probe,
                "runtime.collective_s": collective,
                "runtime.per_message_s": ratio(probe + recv, messages),
                "runtime.comm_modeled_s": modeled,
                "runtime.comm_measured_s": measured,
                "runtime.measured_over_modeled": ratio(measured, modeled),
                "runtime.shm.msgs": counter(summary, "runtime.shm.slot_msgs")
                + counter(summary, "runtime.shm.oneshot_msgs"),
                "runtime.shm.bytes": counter(summary, "runtime.shm.bytes"),
                "io.append_s": ratio(
                    phase_total(summary, "io.trajectory.append"),
                    phase_count(summary, "io.trajectory.append"),
                ),
                "io.frames": float(counter(summary, "io.trajectory.frames")),
                "io.bytes_written": counter(summary, "io.trajectory.bytes_written"),
                "io.gather_s": phase_total(summary, "io.trajectory.gather"),
            }
        )
        return layers
