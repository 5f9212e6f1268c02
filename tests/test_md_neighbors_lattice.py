"""Lattice neighbor list tests: static indexing, run-away linked lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import VACANCY_ID, AtomState

CUTOFF = 5.6


@pytest.fixture(scope="module")
def nblist5():
    return LatticeNeighborList(BCCLattice(5, 5, 5), CUTOFF)


class TestConstruction:
    def test_small_box_rejected(self):
        # 4^3 box (11.42 A) < 2*(cutoff+skin).
        with pytest.raises(ValueError, match="2\\*\\(cutoff\\+skin\\)"):
            LatticeNeighborList(BCCLattice(4, 4, 4), CUTOFF)

    def test_bad_cutoff_rejected(self, lattice5):
        with pytest.raises(ValueError, match="cutoff"):
            LatticeNeighborList(lattice5, -1.0)

    def test_matrix_covers_cutoff_plus_skin(self, nblist5):
        lat = nblist5.lattice
        count = len(lat.offsets_within(CUTOFF + nblist5.skin).corner)
        assert nblist5.max_neighbors == count

    def test_subdomain_site_set(self, lattice8):
        from repro.lattice.domain import DomainDecomposition

        decomp = DomainDecomposition(lattice8, (2, 2, 2))
        sub = decomp.subdomain(0)
        owned = sub.owned_site_ranks(lattice8)
        ghosts = sub.all_ghost_site_ranks(lattice8, 3)
        sites = np.union1d(owned, ghosts)
        centrals = np.searchsorted(sites, owned)
        nbl = LatticeNeighborList(lattice8, CUTOFF, sites=sites, centrals=centrals)
        assert nbl.matrix.shape[0] == len(owned)
        # All neighbor rows must reference real local sites.
        assert np.all(nbl.matrix < len(sites))

    def test_thin_ghost_shell_rejected(self, lattice8):
        from repro.lattice.domain import DomainDecomposition

        decomp = DomainDecomposition(lattice8, (2, 2, 2))
        sub = decomp.subdomain(0)
        owned = sub.owned_site_ranks(lattice8)
        ghosts = sub.all_ghost_site_ranks(lattice8, 1)  # too thin for 5.6 A
        sites = np.union1d(owned, ghosts)
        centrals = np.searchsorted(sites, owned)
        with pytest.raises(ValueError, match="ghost shell"):
            LatticeNeighborList(lattice8, CUTOFF, sites=sites, centrals=centrals)

    def test_unsorted_sites_rejected(self, lattice8):
        with pytest.raises(ValueError, match="increasing"):
            LatticeNeighborList(lattice8, CUTOFF, sites=np.array([5, 3, 1]))


class TestLatticePairs:
    def test_pair_count_matches_brute_force(self, nblist5):
        state = AtomState.perfect(nblist5.lattice)
        i, j = nblist5.lattice_pairs(state)
        # With the skin, candidate pairs exceed the cutoff census; the
        # force kernel filters by true distance.  Dedupe check here:
        assert len(np.unique(i * state.n + j)) == len(i)
        assert np.all(i < j)

    def test_vacancy_excluded_from_pairs(self, nblist5):
        state = AtomState.perfect(nblist5.lattice)
        state.make_vacancy(10)
        i, j = nblist5.lattice_pairs(state)
        assert 10 not in i
        assert 10 not in j

    def test_neighbor_rows_symmetric(self, nblist5):
        for row in (0, 7, 100):
            for nbr in nblist5.neighbor_rows(row):
                assert row in nblist5.neighbor_rows(int(nbr))

    def test_neighbor_rows_requires_central(self, lattice8):
        sites = np.arange(lattice8.nsites)
        nbl = LatticeNeighborList(
            lattice8, CUTOFF, sites=sites, centrals=np.array([0, 1])
        )
        with pytest.raises(ValueError, match="central"):
            nbl.neighbor_rows(5)


class TestPairMemo:
    """The memoized half pairs always equal a fresh list's."""

    @staticmethod
    def _assert_fresh(nbl, state):
        i, j = nbl.lattice_pairs(state)
        want_i, want_j = LatticeNeighborList(nbl.lattice, CUTOFF).lattice_pairs(state)
        assert np.array_equal(i, want_i)
        assert np.array_equal(j, want_j)

    def test_reused_until_occupancy_changes(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        i, j = nbl.lattice_pairs(state)
        state.x += 0.1  # positions alone never invalidate
        assert nbl.lattice_pairs(state)[0] is i
        assert not i.flags.writeable and not j.flags.writeable
        state.make_vacancy(10)
        assert nbl.lattice_pairs(state)[0] is not i

    def test_after_make_vacancy_and_occupy(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        self._assert_fresh(nbl, state)
        state.make_vacancy(10)
        self._assert_fresh(nbl, state)
        state.occupy(10, 10, state.site_pos[10], np.zeros(3))
        self._assert_fresh(nbl, state)

    def test_after_runaway_escape_and_capture(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        self._assert_fresh(nbl, state)
        state.x[20] += np.array([1.5, 0.0, 0.0])
        assert nbl.update_runaways(state, threshold=1.2)["escaped"] == 1
        self._assert_fresh(nbl, state)
        nbl.runaways[0].x = state.site_pos[20] + 0.05
        assert nbl.update_runaways(state, threshold=1.2)["captured"] == 1
        self._assert_fresh(nbl, state)

    @given(
        grid=st.tuples(*[st.sampled_from((1, 2))] * 3),
        rank=st.integers(0, 7),
        fill=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_subset_pairs_match_full_list(self, lattice8, grid, rank, fill, seed):
        # Owned + ghost rows of a random subdomain, random occupancy: the
        # subset pairs are the full list's pairs with a central endpoint,
        # in the same relative order.
        from repro.lattice.domain import DomainDecomposition

        decomp = DomainDecomposition(lattice8, grid)
        sub = decomp.subdomain(rank % decomp.nprocs)
        owned = sub.owned_site_ranks(lattice8)
        sites = np.union1d(owned, sub.all_ghost_site_ranks(lattice8, 3))
        nbl = LatticeNeighborList(
            lattice8, CUTOFF, sites=sites, centrals=np.searchsorted(sites, owned)
        )
        occ = np.random.default_rng(seed).random(lattice8.nsites) < fill
        full = AtomState.perfect(lattice8)
        full.ids[~occ] = VACANCY_ID
        local = AtomState.for_sites(lattice8, sites)
        local.ids[~occ[sites]] = VACANCY_ID
        i, j = nbl.lattice_pairs(local)
        want_i, want_j = LatticeNeighborList(lattice8, CUTOFF).lattice_pairs(full)
        central = np.zeros(lattice8.nsites, dtype=bool)
        central[owned] = True
        touch = central[want_i] | central[want_j]
        assert np.array_equal(sites[i], want_i[touch])
        assert np.array_equal(sites[j], want_j[touch])

    def test_stencil_cached_read_only(self, lattice5):
        from tests.reference_eam import runaway_stencil

        nbl = LatticeNeighborList(lattice5, CUTOFF)
        stencil = nbl._runaway_stencil(20)
        assert nbl._runaway_stencil(20) is stencil
        assert not stencil.flags.writeable
        assert np.array_equal(stencil, runaway_stencil(nbl, 20))


class TestRunaways:
    def _escaped_state(self, nblist):
        state = AtomState.perfect(nblist.lattice)
        state.x[20] = state.x[20] + np.array([1.5, 0.0, 0.0])
        state.v[20] = [9.0, 0.0, 0.0]
        return state

    def test_escape_creates_vacancy_and_linked_atom(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["escaped"] == 1
        assert state.ids[20] == VACANCY_ID
        assert nbl.n_runaways == 1
        atom = nbl.runaways[0]
        assert atom.id == 20
        assert np.allclose(atom.v, [9.0, 0.0, 0.0])

    def test_atom_count_conserved_through_escape(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        assert state.natoms + nbl.n_runaways == state.n

    def test_linked_to_nearest_lattice_point(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        atom = nbl.runaways[0]
        assert atom.host == int(lattice5.nearest_site(atom.x))

    def test_capture_into_vacancy(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        # Walk the atom back onto its (now vacant) lattice point.
        atom = nbl.runaways[0]
        atom.x = state.site_pos[20].copy()
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["captured"] == 1
        assert nbl.n_runaways == 0
        assert state.ids[20] == 20

    def test_relink_when_atom_wanders(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        atom = nbl.runaways[0]
        old_host = atom.host
        atom.x = atom.x + np.array([2.855, 0.0, 0.0])
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["relinked"] >= 1
        assert nbl.runaways[0].host != old_host

    def test_no_capture_into_occupied_site(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        atom = nbl.runaways[0]
        # Park the run-away next to an *occupied* site.
        atom.x = state.site_pos[40] + np.array([0.1, 0.0, 0.0])
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["captured"] == 0
        assert nbl.n_runaways == 1

    def test_runaway_candidates_cover_cutoff_sphere(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        (atom, rows), = nbl.runaway_candidates()
        # Superset of the host's own stencil...
        host_stencil = set(nbl.neighbor_rows(atom.host).tolist()) | {atom.host}
        assert host_stencil <= set(rows.tolist())
        # ...and covers every occupied site within the true cutoff of the
        # atom's actual (off-lattice) position.
        box = Box.for_lattice(lattice5)
        d = box.distance(atom.x, state.x)
        within = set(
            np.flatnonzero((d <= CUTOFF) & state.occupied).tolist()
        )
        assert within <= set(rows.tolist())

    def test_runaway_pairs_found_through_linked_lists(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        # Two adjacent atoms both escape near each other.
        state.x[20] += np.array([1.4, 0.0, 0.0])
        state.x[22] += np.array([1.4, 0.2, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        assert nbl.n_runaways == 2
        pairs = nbl.runaway_pairs()
        assert len(pairs) == 1

    def test_distant_runaways_not_paired(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        # Cells (0,0,0) and (2,2,2): ~9.9 A apart, beyond cutoff + skin.
        state.x[0] += np.array([1.4, 0.0, 0.0])
        far = int(lattice5.rank_of(0, 2, 2, 2))
        state.x[far] += np.array([1.4, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        assert nbl.n_runaways == 2
        assert nbl.runaway_pairs() == []

    def test_threshold_validation(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        with pytest.raises(ValueError, match="threshold"):
            nbl.update_runaways(AtomState.perfect(lattice5), threshold=0.0)

    def test_linked_list_grows_dynamically(self, lattice5):
        # The paper's improvement over [11]: no fixed-size array bound.
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        rows = [10, 12, 14, 16, 18, 30, 32, 34]
        for r in rows:
            state.x[r] += np.array([1.5, 0.3, 0.1])
        nbl.update_runaways(state, threshold=1.2)
        assert nbl.n_runaways == len(rows)
        assert state.nvacancies == len(rows)
