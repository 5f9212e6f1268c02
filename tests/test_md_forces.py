"""EAM force kernel tests: correctness, conservation, run-away paths."""

import numpy as np
import pytest

from repro.lattice.box import Box
from repro.md.forces import (
    PairTable,
    build_pair_table,
    compute_energy_forces,
    compute_energy_forces_pairs,
    eam_evaluate,
)
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.neighbors.verlet_list import VerletNeighborList
from repro.md.state import AtomState
from tests import reference_eam


@pytest.fixture()
def system(lattice5, potential):
    state = AtomState.perfect(lattice5)
    rng = np.random.default_rng(5)
    state.x = state.x + rng.normal(0, 0.05, state.x.shape)
    nbl = LatticeNeighborList(lattice5, potential.cutoff)
    return state, nbl


class TestPairTable:
    def test_filters_beyond_cutoff(self, box5):
        x = np.array([[0.0, 0, 0], [1.0, 0, 0], [8.0, 0, 0]])
        t = PairTable.from_pairs(x, [0, 0], [1, 2], box5, cutoff=2.0)
        assert len(t) == 1
        assert t.r[0] == pytest.approx(1.0)

    def test_empty_input(self, box5):
        t = PairTable.from_pairs(np.zeros((2, 3)), [], [], box5, cutoff=2.0)
        assert len(t) == 0

    def test_minimum_image_applied(self, box5):
        L = box5.lengths[0]
        x = np.array([[0.2, 0, 0], [L - 0.2, 0, 0]])
        t = PairTable.from_pairs(x, [0], [1], box5, cutoff=1.0)
        assert len(t) == 1
        assert t.r[0] == pytest.approx(0.4)


class TestKernelCorrectness:
    def test_matches_reference_O_n2(self, system, potential, box5):
        state, nbl = system
        energy = compute_energy_forces(potential, state, nbl)
        ref_e = reference_eam.total_energy(potential, state.x, box5)
        ref_f = reference_eam.pairwise_forces(potential, state.x, box5)
        assert energy == pytest.approx(ref_e, rel=1e-12)
        assert np.allclose(state.f, ref_f, atol=1e-12)

    def test_rho_written_to_state(self, system, potential):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        assert np.all(state.rho[state.occupied] > 0)

    def test_newtons_third_law_total_force(self, system, potential):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        assert np.allclose(state.f.sum(axis=0), 0.0, atol=1e-9)

    def test_vacancy_gets_zero_force(self, system, potential):
        state, nbl = system
        state.make_vacancy(13)
        compute_energy_forces(potential, state, nbl)
        assert np.all(state.f[13] == 0.0)
        assert state.rho[13] == 0.0

    def test_vacancy_changes_neighbor_forces(self, system, potential):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        f_before = state.f.copy()
        state.make_vacancy(13)
        compute_energy_forces(potential, state, nbl)
        nbrs = nbl.neighbor_rows(13)
        assert not np.allclose(state.f[nbrs], f_before[nbrs])

    def test_empty_pairtable_returns_zero(self, potential):
        result = eam_evaluate(potential, 3, PairTable(
            i=np.empty(0, dtype=np.int64),
            j=np.empty(0, dtype=np.int64),
            axes=(np.empty(0),) * 3,
            r=np.empty(0),
        ))
        assert result.energy == 0.0
        assert np.all(result.forces == 0.0)

    def test_bincount_scatter_matches_add_at(self, system, potential):
        """The bincount rho/force scatter must agree with the np.add.at
        accumulation it replaced (identical up to summation-order ulps)."""
        state, nbl = system
        table, x, active, _runs = build_pair_table(state, nbl, potential)
        result = eam_evaluate(potential, len(x), table, active)
        rho = np.zeros(len(x))
        fd = potential.tables.density(table.r)
        np.add.at(rho, table.i, fd)
        np.add.at(rho, table.j, fd)
        assert np.allclose(result.rho, rho, rtol=1e-14, atol=0.0)
        dphi = potential.tables.pair.derivative(table.r)
        dfd = potential.tables.density.derivative(table.r)
        demb = potential.tables.embedding.derivative(rho)
        coeff = (dphi + (demb[table.i] + demb[table.j]) * dfd) / table.r
        fvec = coeff[:, None] * table.d
        forces = np.zeros((len(x), 3))
        np.add.at(forces, table.i, fvec)
        np.add.at(forces, table.j, -fvec)
        assert np.allclose(result.forces, forces, rtol=1e-12, atol=1e-12)

    def test_pairs_kernel_matches_lattice_kernel(self, system, potential, box5):
        state, nbl = system
        e1 = compute_energy_forces(potential, state, nbl)
        vi, vj = VerletNeighborList(box5, potential.cutoff).pairs(state.x)
        res = compute_energy_forces_pairs(potential, state.x, vi, vj, box5)
        assert res.energy == pytest.approx(e1, rel=1e-12)
        assert np.allclose(res.forces, state.f, atol=1e-12)


class TestRunawayForces:
    def test_runaway_participates_in_forces(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.5, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        energy = compute_energy_forces(potential, state, nbl)
        atom = nbl.runaways[0]
        assert np.linalg.norm(atom.f) > 0
        assert atom.rho > 0
        # Energy must match the flat-particle reference including the
        # off-lattice atom.
        box = Box.for_lattice(lattice5)
        x_all = np.vstack([state.x[state.occupied], atom.x])
        assert energy == pytest.approx(
            reference_eam.total_energy(potential, x_all, box), rel=1e-10
        )

    def test_runaway_force_reaction_on_lattice(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.5, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        compute_energy_forces(potential, state, nbl)
        total = state.f.sum(axis=0) + nbl.runaways[0].f
        assert np.allclose(total, 0.0, atol=1e-9)

    def test_pair_table_includes_runaway_pairs(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.4, 0.0, 0.0])
        state.x[22] += np.array([1.4, 0.2, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        table, x, _active, runs = build_pair_table(state, nbl, potential)
        assert len(runs) == 2
        run_rows = {state.n, state.n + 1}
        has_rr = any(
            int(a) in run_rows and int(b) in run_rows
            for a, b in zip(table.i, table.j, strict=True)
        )
        assert has_rr


def _cascade_engine(lattice, potential, layout, reference, monkeypatch):
    """A 5-cell cascade engine, optionally on the reference force path."""
    from repro.md import engine as md_engine
    from repro.md.cascade import CascadeConfig, insert_pka
    from repro.md.engine import MDConfig, MDEngine

    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(
                md_engine, "compute_energy_forces", reference_eam.compute_energy_forces
            )
        eng = MDEngine(lattice, potential.with_layout(layout), MDConfig(seed=3))
        eng.initialize(600.0)
        insert_pka(eng.state, CascadeConfig(pka_energy=400.0), lattice)
        eng.run(40, displacement_threshold=1.2, runaway_check_interval=5)
    return eng


class TestReferenceOracle:
    """The fast force path against the test-side reference, bit for bit."""

    @pytest.mark.parametrize("layout", ["traditional", "compacted"])
    def test_cascade_bit_identical(self, lattice5, potential, layout, monkeypatch):
        fast = _cascade_engine(lattice5, potential, layout, False, monkeypatch)
        ref = _cascade_engine(lattice5, potential, layout, True, monkeypatch)
        assert fast.nblist.n_runaways > 0
        for name in ("ids", "x", "v", "f", "rho"):
            assert np.array_equal(getattr(fast.state, name), getattr(ref.state, name))
        assert [r.potential_energy for r in fast.trace] == [
            r.potential_energy for r in ref.trace
        ]
        assert [r.kinetic_energy for r in fast.trace] == [
            r.kinetic_energy for r in ref.trace
        ]
        for a, b in zip(fast.nblist.runaways, ref.nblist.runaways, strict=True):
            assert (a.id, a.host, a.rho) == (b.id, b.host, b.rho)
            for name in ("x", "v", "f"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_build_pair_table_identical(self, lattice5, potential, monkeypatch):
        eng = _cascade_engine(lattice5, potential, "traditional", False, monkeypatch)
        state, nbl = eng.state, eng.nblist
        assert nbl.n_runaways > 0 and state.nvacancies > 0
        table, x, active, runs = build_pair_table(state, nbl, potential)
        want, want_x, want_active, want_runs = reference_eam.build_pair_table(
            state, nbl, potential
        )
        for name in ("i", "j", "d", "r"):
            assert np.array_equal(getattr(table, name), getattr(want, name))
        assert np.array_equal(x, want_x)
        assert np.array_equal(active, want_active)
        assert runs == want_runs

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_from_pairs_identical(self, lattice5, potential, box5, dtype, periodic):
        state = AtomState.perfect(lattice5)
        rng = np.random.default_rng(9)
        x = (state.x + rng.normal(0, 0.3, state.x.shape)).astype(dtype)
        box = box5 if periodic else None
        i, j = VerletNeighborList(box5, potential.cutoff).pairs(state.x)
        got = PairTable.from_pairs(x, i, j, box, potential.cutoff)
        want = reference_eam.pair_table(x, i, j, box, potential.cutoff)
        for name in ("i", "j", "d", "r"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype
        fast = eam_evaluate(potential, state.n, got)
        ref = reference_eam.eam_evaluate(potential, state.n, want)
        assert np.array_equal(fast.forces, ref.forces)
        assert np.array_equal(fast.rho, ref.rho)
        assert fast.energy == ref.energy

    def test_d_stacks_axes(self):
        d = np.arange(12.0).reshape(4, 3)
        t = PairTable(
            i=np.arange(4), j=np.arange(4), axes=reference_eam.axes_of(d), r=np.ones(4)
        )
        assert np.array_equal(t.d, d)
        assert all(a.flags.c_contiguous for a in t.axes)
