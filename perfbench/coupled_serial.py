"""Workload ``coupled-serial``: the canonical coupled MD -> KMC cascade.

One repetition is ``CoupledSimulation(...).run()`` on 10^3 cells (2,000
atoms) with a 400 eV PKA, 200 MD steps and 5,000 serial catalog KMC
events, recording a trajectory frame every 10 events, followed by the
Figure 17 clustering series over every stored frame.  See README.md for
why these sizes.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import observe as obs
from repro.core import CoupledConfig, CoupledSimulation
from repro.core.clusters import clustering_report_from_store
from repro.io.store import TrajectoryReader
from repro.kmc.events import VACANCY, KMCModel, RateParameters
from repro.md.cascade import CascadeConfig, run_cascade
from repro.md.engine import MDConfig, MDEngine
from repro.potential.fe import make_fe_potential

from perfbench.common import (
    Checks,
    Rep,
    Spans,
    counter,
    digest,
    median,
    phase_count,
    phase_total,
    ratio,
)

TEMPERATURE = 600.0
PKA_ENERGY = 400.0


@dataclass(frozen=True)
class Size:
    cells: int = 10
    md_steps: int = 200
    kmc_events: int = 5000
    trajectory_every: int = 10
    table_points: int = 2000
    #: Timings taken of each EAM piece on the post-cascade state.
    eam_repeats: int = 7
    #: ``KMCModel.vacancy_events`` calls timed on the final state.
    rate_eval_calls: int = 400


def store_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def time_rate_eval(lattice, potential, vacancy_ranks, calls: int) -> float:
    """Mean time of one ``KMCModel.vacancy_events`` call on a final state."""
    model = KMCModel(lattice, potential, RateParameters(temperature=TEMPERATURE))
    occ = model.perfect_occupancy()
    rows = np.searchsorted(model.sites, np.asarray(vacancy_ranks, dtype=np.int64))
    if not len(rows):
        return 0.0
    occ[rows] = VACANCY
    order = [int(rows[k % len(rows)]) for k in range(calls)]
    t0 = time.perf_counter()
    for row in order:
        model.vacancy_events(row, occ)
    return (time.perf_counter() - t0) / calls


class CoupledSerial:
    name = "coupled-serial"
    backend = None
    workers = None

    def __init__(self, seed: int, workdir: Path, size: Size = Size()) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = size
        self.store = self.workdir / "trajectory"
        self._marks: list[tuple[str, float]] = []
        self._eam = None

    def setup(self) -> None:
        """Potential tables, configuration and driver (no simulation)."""
        s = self.size
        self.potential = make_fe_potential(n=s.table_points)
        self.cascade = CascadeConfig(
            pka_energy=PKA_ENERGY, nsteps=s.md_steps, temperature=TEMPERATURE
        )
        self.config = CoupledConfig(
            cells=s.cells,
            temperature=TEMPERATURE,
            cascade=self.cascade,
            kmc_max_events=s.kmc_events,
            seed=self.seed,
            table_points=s.table_points,
            trajectory=str(self.store),
            trajectory_every=s.trajectory_every,
        )
        self.sim = CoupledSimulation(
            self.config, potential=self.potential, progress=self._on_stage
        )

    def _on_stage(self, stage: str) -> None:
        self._marks.append((stage, time.perf_counter()))

    def run_once(self, traced: bool) -> Rep:
        shutil.rmtree(self.store, ignore_errors=True)
        self._marks = []
        spans = Spans()
        registry = obs.Registry(trace=False) if traced else None
        with obs.observing(registry) if traced else nullcontext():
            t0 = time.perf_counter()
            result = self.sim.run()
            t_run = time.perf_counter()
            with spans.span("core.clusters.series"):
                reader = TrajectoryReader(self.store)
                series = [
                    clustering_report_from_store(reader, i) for i in range(len(reader))
                ]
            t1 = time.perf_counter()
        marks = self._marks + [("end", t_run)]
        for (stage, start), (_next, end) in zip(marks, marks[1:]):
            spans.add(f"core.stage.{stage}", start, end)

        s = self.size
        natoms = self.sim.lattice.nsites
        cascade_s = spans.total("core.stage.cascade")
        kmc_s = spans.total("core.stage.kmc")
        headline = {
            "md_atom_steps_per_s": ratio(natoms * s.md_steps, cascade_s),
            "kmc_events_per_s": ratio(result.kmc_events, kmc_s),
        }
        counts = {
            "md.vacancies": int(len(result.vacancies_after_md)),
            "kmc.events": int(result.kmc_events),
        }
        checks = self._check(result, reader, series)
        rep = Rep(
            wall_s=t1 - t0,
            digest=digest(
                result.vacancies_after_md,
                result.vacancies_after_kmc,
                repr(result.kmc_time),
                result.kmc_events,
                [(r.n_vacancies, r.n_clusters, r.max_cluster) for r in series],
            ),
            checks=checks,
            headline=headline,
            counts=counts,
        )
        if traced:
            rep.layers = self._layers(registry.summary(), spans, result, reader, checks)
        return rep

    def _check(self, result, reader, series) -> Checks:
        checks = Checks()
        n_md = len(result.vacancies_after_md)
        n_kmc = len(result.vacancies_after_kmc)
        checks.check(
            "kmc keeps the vacancy count", n_md == n_kmc, f"{n_md} -> {n_kmc}"
        )
        last = np.sort(reader.vacancy_ranks(-1))
        checks.check(
            "last store frame equals vacancies_after_kmc",
            np.array_equal(last, np.sort(result.vacancies_after_kmc)),
        )
        checks.check(
            "store holds the reported frames",
            len(reader) == result.trajectory_frames,
            f"{len(reader)} vs {result.trajectory_frames}",
        )
        if n_md:
            checks.check(
                "kmc ran its event budget",
                result.kmc_events == self.size.kmc_events,
                f"{result.kmc_events} events",
            )
        final = series[-1]
        checks.check(
            "clustering series ends on the run's final report",
            (final.n_vacancies, final.n_clusters, final.max_cluster)
            == (
                result.report_after_kmc.n_vacancies,
                result.report_after_kmc.n_clusters,
                result.report_after_kmc.max_cluster,
            ),
        )
        return checks

    def _post_cascade_engine(self):
        """The MD engine in the run's post-cascade state (built once)."""
        if self._eam is None:
            engine = MDEngine(
                self.sim.lattice,
                self.potential,
                MDConfig(temperature=TEMPERATURE, seed=self.seed),
            )
            run_cascade(engine, self.cascade)
            self._eam = engine
        return self._eam

    def _eam_split(self, checks: Checks, vacancies_after_md) -> dict:
        """Geometry, spline lookups and scatter of one EAM evaluation."""
        from repro.md.forces import build_pair_table, eam_evaluate

        engine = self._post_cascade_engine()
        checks.check(
            "EAM split runs on the coupled run's post-cascade state",
            np.array_equal(
                np.sort(engine.state.vacancy_rows()), np.sort(vacancies_after_md)
            ),
        )
        pot = self.potential
        tables = pot.tables
        geometry, lookups, evaluate = [], [], []
        for _ in range(self.size.eam_repeats):
            t0 = time.perf_counter()
            table, x, active, _runs = build_pair_table(engine.state, engine.nblist, pot)
            t1 = time.perf_counter()
            result = eam_evaluate(pot, len(x), table, active)
            t2 = time.perf_counter()
            tables.pair.value_and_derivative(table.r)
            tables.density.value_and_derivative(table.r)
            tables.embedding.value_and_derivative(result.rho)
            t3 = time.perf_counter()
            geometry.append(t1 - t0)
            evaluate.append(t2 - t1)
            lookups.append(t3 - t2)
        geometry_s, evaluate_s, lookup_s = (
            median(geometry),
            median(evaluate),
            median(lookups),
        )
        return {
            "md.eam.geometry_s": geometry_s,
            "md.eam.lookup_s": lookup_s,
            "md.eam.scatter_s": max(evaluate_s - lookup_s, 0.0),
            "md.eam.pairs": float(len(table)),
            "md.eam.atom_updates_per_s": ratio(
                engine.state.n, geometry_s + evaluate_s
            ),
        }

    def _layers(self, summary, spans, result, reader, checks) -> dict:
        s = self.size
        events = result.kmc_events
        reused = counter(summary, "kmc.catalog.rows_reused")
        refreshed = counter(summary, "kmc.catalog.rows_refreshed")
        frames = len(reader)
        nsites = reader.lattice.nsites
        t0 = time.perf_counter()
        for _time, _occ in TrajectoryReader(self.store).iter_frames():
            pass
        read_s = time.perf_counter() - t0
        layers = {
            "core.stage.cascade_s": spans.total("core.stage.cascade"),
            "core.stage.map_damage_s": spans.total("core.stage.map_damage"),
            "core.stage.kmc_s": spans.total("core.stage.kmc"),
            "core.stage.analysis_s": spans.total("core.stage.analysis"),
            "core.clusters.series_s": spans.total("core.clusters.series"),
            "md.step_mean_s": ratio(
                phase_total(summary, "md.step"), phase_count(summary, "md.step")
            ),
            "md.force_s": phase_total(summary, "md.force"),
            "md.integrate_s": phase_total(summary, "md.integrate"),
            "md.neighbor_s": phase_total(summary, "md.neighbor"),
            "md.neighbor.rebuilds": float(phase_count(summary, "md.neighbor")),
            "kmc.catalog_update_s": ratio(
                phase_total(summary, "kmc.catalog_update"), events
            ),
            "kmc.event_selection_s": ratio(
                phase_total(summary, "kmc.event_selection"), events
            ),
            "kmc.catalog.reuse_ratio": ratio(reused, reused + refreshed),
            "kmc.rate_eval_s": time_rate_eval(
                self.sim.lattice,
                self.potential,
                result.vacancies_after_kmc,
                s.rate_eval_calls,
            ),
            "kmc.rate_bound.clamped": counter(summary, "kmc.rate_bound.clamped"),
            "io.append_s": ratio(
                phase_total(summary, "io.trajectory.append"),
                phase_count(summary, "io.trajectory.append"),
            ),
            "io.frames": float(frames),
            "io.bytes_written": counter(summary, "io.trajectory.bytes_written"),
            "io.compression_ratio": ratio(frames * nsites, store_bytes(self.store)),
            "io.read_mb_per_s": ratio(frames * nsites / 1e6, read_s),
        }
        layers.update(self._eam_split(checks, result.vacancies_after_md))
        return layers
