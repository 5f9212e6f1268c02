"""Bit-identity of the kernel-dispatch backends (numpy vs compiled loops).

The loop kernels in :mod:`repro.kernels.impl` are plain Python when
numba is absent, so every test here runs the *exact algorithm* the
compiled path executes and asserts bitwise equality against the NumPy
reference expressions — table evaluation, pairwise summation, the
two-pass EAM evaluation, and the batched vacancy-rate kernel, across
both table layouts, float32/float64 pair geometry, empty pair lists,
and single-atom worlds.  Forcing ``HAVE_NUMBA`` on exercises the full
dispatch wiring inside ``eam_evaluate``/``vacancy_events_batch`` without
numba installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.kernels import impl
from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.forces import PairTable, eam_evaluate
from repro.md.state import AtomState
from repro.potential.fe import make_fe_potential


@pytest.fixture(scope="module")
def potential():
    return make_fe_potential(n=500)


@pytest.fixture
def force_kernel_backend(monkeypatch):
    """Route dispatch to the loop kernels without numba installed."""
    monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    assert kernels.selected() == "numba"


def _pair_workload(potential, dtype=np.float64, cells=5, seed=0):
    from repro.md.neighbors.verlet_list import VerletNeighborList

    lattice = BCCLattice(cells, cells, cells)
    state = AtomState.perfect(lattice)
    x = state.x + np.random.default_rng(seed).normal(0, 0.08, state.x.shape)
    x = x.astype(dtype)
    box = Box.for_lattice(lattice)
    i, j = VerletNeighborList(box, potential.cutoff).pairs(x)
    return state.n, PairTable.from_pairs(x, i, j, box, potential.cutoff)


class TestPairwiseSum:
    def test_matches_numpy_for_all_guarded_widths(self):
        rng = np.random.default_rng(1)
        for n in range(0, kernels.MAX_ROW_WIDTH + 1):
            a = rng.normal(size=n) * 10.0 ** rng.integers(
                -3, 4, size=n
            ).astype(float)
            assert impl.pairwise_sum(a, n) == np.sum(a)

    def test_row_sums_match_2d_reduction(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(40, 14))
        rows = m.sum(axis=1)
        for q in range(len(m)):
            assert impl.pairwise_sum(m[q], m.shape[1]) == rows[q]


class TestTableEvaluation:
    @pytest.mark.parametrize("layout", ["traditional", "compacted"])
    def test_value_and_derivative_bit_identity(self, potential, layout):
        pot = potential.with_layout(layout)
        rng = np.random.default_rng(3)
        for table in (
            pot.tables.pair,
            pot.tables.density,
            pot.tables.embedding,
        ):
            payload = kernels.table_payload(table)
            assert payload is not None
            xs = np.concatenate(
                [
                    rng.uniform(0.0, table.xmax, 200),
                    np.arange(6) * table.dx,  # exactly on knots
                    [0.0, table.xmax, table.xmax * 1.5, -0.3],  # clamped
                ]
            )
            want_v, want_d = table.value_and_derivative(xs)
            got_v, got_d = impl.table_vd(*payload, xs)
            assert np.array_equal(got_v, want_v)
            assert np.array_equal(got_d, want_d)
            for x in xs[:20]:
                assert impl._table_v(*payload, float(x)) == table(float(x))

    def test_unsupported_table_returns_none(self):
        class Other:
            layout = "exotic"

        assert kernels.table_payload(Other()) is None
        assert kernels.table_payload(Other()) is None  # cached miss


class TestEAMBitIdentity:
    @pytest.mark.parametrize("layout", ["traditional", "compacted"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_eam_evaluate_matches_numpy(
        self, potential, force_kernel_backend, monkeypatch, layout, dtype
    ):
        pot = potential.with_layout(layout)
        n, table = _pair_workload(pot, dtype=dtype)
        kernel = eam_evaluate(pot, n, table)
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        reference = eam_evaluate(pot, n, table)
        assert np.array_equal(kernel.forces, reference.forces)
        assert np.array_equal(kernel.rho, reference.rho)
        assert kernel.energy == reference.energy
        assert kernel.pair_energy == reference.pair_energy
        assert kernel.embed_energy == reference.embed_energy

    def test_empty_pair_list(self, potential, force_kernel_backend):
        empty = PairTable(
            i=np.empty(0, np.int64),
            j=np.empty(0, np.int64),
            axes=(np.empty(0),) * 3,
            r=np.empty(0),
        )
        result = eam_evaluate(potential, 5, empty)
        assert result.energy == 0.0
        assert np.array_equal(result.forces, np.zeros((5, 3)))

    def test_single_atom_world(self, potential, force_kernel_backend):
        x = np.zeros((1, 3))
        table = PairTable.from_pairs(x, [], [], None, potential.cutoff)
        result = eam_evaluate(potential, 1, table)
        assert result.energy == 0.0
        assert np.array_equal(result.rho, np.zeros(1))

    def test_partial_active_mask(
        self, potential, force_kernel_backend, monkeypatch
    ):
        n, table = _pair_workload(potential, seed=4)
        active = np.random.default_rng(5).random(n) < 0.7
        kernel = eam_evaluate(potential, n, table, active)
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        reference = eam_evaluate(potential, n, table, active)
        assert kernel.embed_energy == reference.embed_energy
        assert np.array_equal(kernel.forces, reference.forces)


class TestRateBatchBitIdentity:
    @pytest.mark.parametrize("layout", ["traditional", "compacted"])
    def test_batch_matches_numpy(
        self, potential, force_kernel_backend, monkeypatch, layout
    ):
        from repro.kmc.akmc import place_random_vacancies
        from repro.kmc.events import KMCModel, RateParameters

        pot = potential.with_layout(layout)
        model = KMCModel(BCCLattice(6, 6, 6), pot, RateParameters())
        occ = place_random_vacancies(model, 40, np.random.default_rng(7))
        vrows = np.flatnonzero(occ == 0)
        counts_k, targets_k, rates_k = model.vacancy_events_batch(vrows, occ)
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        counts_n, targets_n, rates_n = model.vacancy_events_batch(vrows, occ)
        assert np.array_equal(counts_k, counts_n)
        assert np.array_equal(targets_k, targets_n)
        assert np.array_equal(rates_k, rates_n)

    def test_vacancy_with_no_targets(self, potential, force_kernel_backend):
        from repro.kmc.events import KMCModel, RateParameters, VACANCY

        model = KMCModel(BCCLattice(3, 3, 3), potential, RateParameters())
        occ = np.full(model.nrows, VACANCY, dtype=np.int8)
        vrows = np.arange(model.nrows, dtype=np.int64)
        counts, targets, rates = model.vacancy_events_batch(vrows, occ)
        assert counts.sum() == 0
        assert len(targets) == 0
        assert len(rates) == 0

    def test_serial_akmc_trajectory_identical(
        self, potential, force_kernel_backend, monkeypatch
    ):
        from repro.kmc.akmc import SerialAKMC, place_random_vacancies
        from repro.kmc.events import KMCModel, RateParameters

        lattice = BCCLattice(5, 5, 5)
        params = RateParameters()
        model = KMCModel(lattice, potential, params)
        occ0 = place_random_vacancies(model, 12, np.random.default_rng(11))

        def run():
            engine = SerialAKMC(
                lattice, potential, params, occ0.copy(), seed=13
            )
            for _ in range(25):
                engine.step()
            return engine.occ.copy(), engine.time

        occ_k, t_k = run()
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        occ_n, t_n = run()
        assert np.array_equal(occ_k, occ_n)
        assert t_k == t_n


class TestDispatch:
    def test_default_is_numpy_without_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        if not kernels.numba_available():
            assert kernels.selected() == "numpy"

    def test_explicit_numpy(self):
        assert kernels.resolve_kernels("numpy") == "numpy"
        assert kernels.resolve_kernels(" NumPy ") == "numpy"

    def test_env_var_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert kernels.selected() == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "   ")
        assert kernels.selected() in ("numpy", "numba")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_kernels("fortran")

    def test_numba_without_numba_degrades_with_warning(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMBA", False)
        monkeypatch.setattr(kernels, "_warned_missing_numba", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert kernels.resolve_kernels("numba") == "numpy"
        # One-shot: a second resolution stays quiet.
        assert kernels.resolve_kernels("numba") == "numpy"

    def test_forced_numba_reaches_kernels(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernels.selected() == "numba"
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        assert kernels.resolve_kernels(None) == "numba"
