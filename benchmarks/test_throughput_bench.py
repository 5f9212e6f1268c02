"""Throughput benchmarks: wall-clock speed of the hot kernels.

Unlike the figure benchmarks (which report *modeled* Sunway times), these
measure this Python implementation's own throughput — the numbers a
downstream user sizing a workstation run cares about.
"""

import itertools

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.forces import compute_energy_forces
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState


@pytest.fixture(scope="module")
def md_system(potential_bench):
    lattice = BCCLattice(10, 10, 10)
    state = AtomState.perfect(lattice)
    state.x = state.x + np.random.default_rng(0).normal(
        0, 0.05, state.x.shape
    )
    nbl = LatticeNeighborList(lattice, potential_bench.cutoff)
    return lattice, state, nbl


def test_eam_force_evaluation(benchmark, potential_bench, md_system):
    """Full two-pass EAM force evaluation (2,000 atoms, 58 neighbors)."""
    lattice, state, nbl = md_system
    energy = benchmark(compute_energy_forces, potential_bench, state, nbl)
    assert energy < 0
    atoms_per_s = lattice.nsites / benchmark.stats["mean"]
    print(f"\nMD force throughput: {atoms_per_s:,.0f} atom-updates/s")


def test_md_step(benchmark, potential_bench):
    """One velocity-Verlet step incl. forces (1,024 atoms)."""
    from repro.md.engine import MDConfig, MDEngine

    engine = MDEngine(
        BCCLattice(8, 8, 8), potential_bench, MDConfig(temperature=300.0)
    )
    engine.initialize()
    benchmark(engine.run, nsteps=1)
    steps_per_s = 1.0 / benchmark.stats["mean"]
    print(f"\nMD step rate at 1,024 atoms: {steps_per_s:.1f} steps/s")


def test_kmc_event_throughput(benchmark, potential_bench):
    """Serial BKL events with rate caching (20 vacancies, 1,024 sites)."""
    from repro.kmc.akmc import SerialAKMC, place_random_vacancies
    from repro.kmc.events import KMCModel, RateParameters

    lattice = BCCLattice(8, 8, 8)
    params = RateParameters()
    model = KMCModel(lattice, potential_bench, params)
    occ0 = place_random_vacancies(model, 20, np.random.default_rng(1))

    def run_events():
        engine = SerialAKMC(
            lattice, potential_bench, params, occ0, seed=1
        )
        engine.run(max_events=100)
        return engine.events

    events = benchmark(run_events)
    assert events == 100
    rate = 100 / benchmark.stats["mean"]
    print(f"\nKMC event throughput: {rate:,.0f} events/s")


def test_vacancy_rate_computation(benchmark, potential_bench):
    """A single vacancy's 8-event rate evaluation (the KMC inner loop)."""
    from repro.kmc.events import KMCModel, RateParameters, VACANCY

    model = KMCModel(
        BCCLattice(8, 8, 8), potential_bench, RateParameters()
    )
    occ = model.perfect_occupancy()
    occ[100] = VACANCY
    targets, rates = benchmark(model.vacancy_events, 100, occ)
    assert len(targets) == 8
    per_s = 1.0 / benchmark.stats["mean"]
    print(f"\nvacancy rate evaluations: {per_s:,.0f}/s")


def test_pair_enumeration_structures(benchmark, potential_bench, md_system):
    """Pair enumeration with the lattice neighbor list (static indexes).

    ``lattice_pairs`` reuses its last result while occupancy is
    unchanged, so the timed calls alternate between two occupancies and
    every call enumerates afresh.
    """
    _lattice, state, nbl = md_system
    vacant = state.copy()
    vacant.make_vacancy(0)
    states = itertools.cycle([state, vacant])
    i, j = benchmark(lambda: nbl.lattice_pairs(next(states)))
    assert len(i) > 0


def test_table_evaluation_compacted(benchmark, potential_bench):
    """Vectorized compacted-table evaluation (100k queries)."""
    compacted = potential_bench.with_layout("compacted")
    x = np.random.default_rng(0).uniform(0.5, 5.5, 100_000)
    values = benchmark(compacted.phi, x)
    assert values.shape == x.shape
    per_s = len(x) / benchmark.stats["mean"]
    print(f"\ncompacted-table throughput: {per_s:,.0f} lookups/s")
