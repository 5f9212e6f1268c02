"""EAM potential tests: Equations (1)-(3), forces, layout invariance."""

import numpy as np
import pytest

from repro.lattice.box import Box
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_tables
from tests import reference_eam


class TestTableSet:
    def test_layout_conversion_roundtrip(self, potential):
        comp = potential.tables.compacted()
        trad = comp.traditional()
        assert comp.layout == "compacted"
        assert trad.layout == "traditional"
        assert np.allclose(trad.pair.samples, potential.tables.pair.samples)

    def test_nbytes_ordering(self, potential):
        comp = potential.tables.compacted()
        assert comp.nbytes * 6 < potential.tables.nbytes

    def test_cutoff_validation(self):
        tables = make_fe_tables(n=100)
        with pytest.raises(ValueError, match="cutoff"):
            EAMPotential(tables, cutoff=100.0)
        with pytest.raises(ValueError, match="cutoff"):
            EAMPotential(tables, cutoff=-1.0)

    def test_unknown_layout_rejected(self, potential):
        with pytest.raises(ValueError, match="layout"):
            potential.with_layout("mystery")


class TestPointQueries:
    def test_phi_zero_beyond_cutoff(self, potential):
        assert potential.phi(potential.cutoff + 0.1) == 0.0
        assert reference_eam.dphi(potential, potential.cutoff + 1.0) == 0.0

    def test_density_zero_beyond_cutoff(self, potential):
        assert potential.fdens(potential.cutoff + 0.1) == 0.0

    def test_phi_repulsive_at_short_range(self, potential):
        assert potential.phi(1.0) > 0
        assert potential.phi(0.5) > potential.phi(1.0)

    def test_phi_attractive_at_first_shell(self, potential, fe_params):
        assert potential.phi(fe_params.r0) < 0

    def test_density_decreasing(self, potential):
        r = np.linspace(1.0, 5.0, 50)
        f = potential.fdens(r)
        assert np.all(np.diff(f) < 0)

    def test_embedding_negative_and_decreasing(self, potential):
        rho = np.linspace(0.5, 10.0, 20)
        emb = potential.embed(rho)
        assert np.all(emb < 0)
        assert np.all(np.diff(emb) < 0)


class TestEnergies:
    def test_site_energy_of_isolated_atom_zero(self, potential):
        assert potential.site_energy(np.array([])) == pytest.approx(0.0)

    def test_site_energy_counts_half_bonds(self, potential):
        d = np.array([2.4])
        e = potential.site_energy(d)
        expected = 0.5 * float(potential.phi(2.4)) + float(
            potential.embed(potential.fdens(2.4))
        )
        assert e == pytest.approx(expected)

    def test_dimer_total_energy(self, potential):
        pos = np.array([[0.0, 0, 0], [2.4, 0, 0]])
        e = reference_eam.total_energy(potential, pos)
        expected = float(potential.phi(2.4)) + 2 * float(
            potential.embed(potential.fdens(2.4))
        )
        assert e == pytest.approx(expected)

    def test_total_energy_negative_for_crystal(self, potential, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        assert reference_eam.total_energy(potential, pos, box) < 0

    def test_cohesive_energy_per_atom_reasonable(self, potential, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        per_atom = reference_eam.total_energy(potential, pos, box) / len(pos)
        # Order of magnitude of metallic cohesion (not calibrated to Fe).
        assert -15.0 < per_atom < -0.5


class TestForces:
    def test_perfect_lattice_forces_vanish(self, potential, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        f = reference_eam.pairwise_forces(potential, pos, box)
        assert np.max(np.abs(f)) < 1e-10

    def test_dimer_forces_equal_opposite(self, potential):
        pos = np.array([[0.0, 0, 0], [2.2, 0, 0]])
        f = reference_eam.pairwise_forces(potential, pos)
        assert np.allclose(f[0], -f[1])

    def test_dimer_force_matches_energy_gradient(self, potential):
        h = 1e-6
        def dimer(r):
            return np.array([[0.0, 0, 0], [r, 0, 0]])
        def energy(r):
            return reference_eam.total_energy(potential, dimer(r))
        r = 2.3
        grad = (energy(r + h) - energy(r - h)) / (2 * h)
        f = reference_eam.pairwise_forces(potential, dimer(r))
        assert f[1][0] == pytest.approx(-grad, rel=1e-4)

    def test_force_restoring_for_displaced_atom(self, potential, lattice5):
        # A small displacement must produce a restoring force (crystal
        # stability around the perfect configuration).
        pos = lattice5.all_positions().copy()
        box = Box.for_lattice(lattice5)
        pos[10, 0] += 0.15
        f = reference_eam.pairwise_forces(potential, pos, box)
        assert f[10, 0] < 0

    def test_total_force_zero(self, potential, lattice5):
        rng = np.random.default_rng(4)
        pos = lattice5.all_positions() + rng.normal(0, 0.08, (lattice5.nsites, 3))
        box = Box.for_lattice(lattice5)
        f = reference_eam.pairwise_forces(potential, pos, box)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-9)


class TestLayoutInvariance:
    def test_energies_identical_across_layouts(
        self, potential, potential_compacted, lattice5
    ):
        rng = np.random.default_rng(11)
        pos = lattice5.all_positions() + rng.normal(0, 0.05, (lattice5.nsites, 3))
        box = Box.for_lattice(lattice5)
        e1 = reference_eam.total_energy(potential, pos, box)
        e2 = reference_eam.total_energy(potential_compacted, pos, box)
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_forces_identical_across_layouts(
        self, potential, potential_compacted, lattice5
    ):
        rng = np.random.default_rng(12)
        pos = lattice5.all_positions() + rng.normal(0, 0.05, (lattice5.nsites, 3))
        box = Box.for_lattice(lattice5)
        f1 = reference_eam.pairwise_forces(potential, pos, box)
        f2 = reference_eam.pairwise_forces(potential_compacted, pos, box)
        assert np.allclose(f1, f2, atol=1e-10)


class TestPairAndDensity:
    """One located segment serves both distance tables, bit for bit."""

    @staticmethod
    def _queries(xmax):
        below = np.nextafter(xmax, 0.0)
        rng = np.random.default_rng(2)
        return np.concatenate(
            [[0.0, below, xmax, xmax + 0.5, 2.0 * xmax], rng.uniform(0, xmax, 500)]
        )

    @pytest.mark.parametrize("layout", ["traditional", "compacted"])
    def test_matches_separate_lookups(self, potential, layout):
        tables = potential.with_layout(layout).tables
        r = self._queries(tables.pair.xmax)
        phi, dphi, fd, dfd = tables.pair_and_density(r)
        want_phi, want_dphi = tables.pair.value_and_derivative(r)
        want_fd, want_dfd = tables.density.value_and_derivative(r)
        for got, want in [
            (phi, want_phi), (dphi, want_dphi), (fd, want_fd), (dfd, want_dfd)
        ]:
            assert np.array_equal(got, want)
        # ...the single-purpose methods...
        assert np.array_equal(phi, tables.pair(r))
        assert np.array_equal(dphi, tables.pair.derivative(r))
        assert np.array_equal(fd, tables.density(r))
        assert np.array_equal(dfd, tables.density.derivative(r))
        # ...and the out-of-place, row-gather lookups of the test oracle.
        want = (
            *reference_eam.value_and_derivative(tables.pair, r),
            *reference_eam.value_and_derivative(tables.density, r),
        )
        for got, ref in zip((phi, dphi, fd, dfd), want, strict=True):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("layout", ["traditional", "compacted"])
    def test_empty_input(self, potential, layout):
        tables = potential.with_layout(layout).tables
        out = tables.pair_and_density(np.empty(0))
        assert [a.shape for a in out] == [(0,)] * 4

    def test_tables_on_different_grids(self, potential):
        from repro.potential.eam import TableSet
        from repro.potential.fe import FeParameters
        from repro.potential.spline import SplineTable

        params = FeParameters()
        density = SplineTable.from_function(params.density, params.cutoff, n=700)
        tables = TableSet(potential.tables.pair, density, potential.tables.embedding)
        r = self._queries(params.cutoff)
        phi, dphi, fd, dfd = tables.pair_and_density(r)
        assert np.array_equal(phi, potential.tables.pair(r))
        assert np.array_equal(dphi, potential.tables.pair.derivative(r))
        assert np.array_equal(fd, density(r))
        assert np.array_equal(dfd, density.derivative(r))

    def test_columns_built_lazily(self):
        tables = make_fe_tables(n=100)
        assert "columns" not in vars(tables.pair)
        tables.pair.value_and_derivative(np.array([1.0]))
        assert len(tables.pair.columns) == 7
        assert all(c.flags.c_contiguous for c in tables.pair.columns)
