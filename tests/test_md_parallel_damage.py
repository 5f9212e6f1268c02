"""Distributed damage MD tests: the full §2.1.1 run-away protocol.

The strongest assertion in the suite: a parallel cascade — vacancies in
ghost exchanges, run-away migration between ranks, run-away ghost copies
in the force loop — reproduces the serial engine's trajectory and defect
inventory bit for bit.
"""

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.md import parallel_damage
from repro.md.cascade import CascadeConfig, insert_pka
from repro.md.engine import MDConfig, MDEngine
from repro.md.parallel_damage import ParallelDamageMD


def run_pair(
    lattice, potential, pka_site, nranks, nsteps=35, seed=3, pka_energy=120.0
):
    """(serial engine, parallel result) for the same run.

    ``pka_energy=None`` runs a thermal trajectory without a knock-on.
    """
    cfg = MDConfig(temperature=300.0, seed=seed)
    serial = MDEngine(lattice, potential, cfg)
    serial.initialize()
    pka = None
    if pka_energy is not None:
        row = insert_pka(
            serial.state,
            CascadeConfig(pka_energy=pka_energy, pka_site=pka_site),
            lattice,
        )
        pka = (row, serial.state.v[row].copy())
    serial.run(
        nsteps=nsteps, displacement_threshold=1.2, runaway_check_interval=5
    )
    parallel = ParallelDamageMD(lattice, potential, cfg, nranks=nranks)
    result = parallel.run(
        nsteps=nsteps,
        displacement_threshold=1.2,
        runaway_check_interval=5,
        pka=pka,
    )
    return serial, result


@pytest.fixture(scope="module")
def centered(potential):
    # PKA near the box center: the cascade lives inside one octant.
    lattice = BCCLattice(8, 8, 8)
    return run_pair(lattice, potential, pka_site=None, nranks=8)


@pytest.fixture(scope="module")
def boundary(potential):
    # PKA at a subdomain corner: damage and run-aways cross ranks.
    lattice = BCCLattice(8, 8, 8)
    corner_site = int(lattice.rank_of(1, 3, 3, 3))  # at the 2x2x2 seam
    return run_pair(lattice, potential, pka_site=corner_site, nranks=8)


def _assert_matches_serial(serial, result):
    assert np.array_equal(result.positions, serial.state.x)
    assert np.array_equal(result.velocities, serial.state.v)
    assert np.array_equal(result.vacancy_ranks, serial.state.vacancy_rows())
    runs = sorted(serial.nblist.runaways, key=lambda a: a.id)
    assert result.runaway_ids.tolist() == [a.id for a in runs]
    assert np.array_equal(
        result.runaway_positions, np.array([a.x for a in runs]).reshape(-1, 3)
    )
    assert result.comm_stats["total_messages"] > 0
    assert result.comm_stats["total_sent_bytes"] > 0


class TestCenteredCascade:
    def test_produces_damage(self, centered):
        serial, _result = centered
        assert serial.state.nvacancies >= 1

    def test_matches_serial(self, centered):
        serial, result = centered
        _assert_matches_serial(serial, result)


class TestBoundaryCascade:
    def test_produces_damage(self, boundary):
        serial, _result = boundary
        assert serial.state.nvacancies >= 1

    def test_damage_spans_multiple_ranks(self, boundary):
        # The point of this fixture: the defect inventory is distributed.
        serial, result = boundary
        from repro.lattice.domain import DomainDecomposition

        lattice = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lattice, (2, 2, 2))
        touched = {
            decomp.owner_of_site(int(r)) for r in result.vacancy_ranks
        }
        touched |= {
            decomp.owner_of_site(int(lattice.nearest_site(x)))
            for x in result.runaway_positions
        }
        assert len(touched) >= 2

    def test_matches_serial(self, boundary):
        serial, result = boundary
        _assert_matches_serial(serial, result)


@pytest.fixture()
def no_world(monkeypatch):
    """Fail the test if a rank world starts."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a rank world started before validation")

    monkeypatch.setattr(parallel_damage, "World", refuse)


#: Bad ``run()`` arguments each engine must reject before it steps.
BAD_RUN_ARGS = [
    ({"dt": -0.001}, "dt"),
    ({"runaway_check_interval": 0}, "runaway_check_interval"),
    ({"displacement_threshold": -1.0}, "displacement_threshold"),
]


class TestMechanics:
    def test_rank_count_invariance(self, potential):
        lattice = BCCLattice(8, 8, 8)
        results = {}
        for nranks in (2, 8):
            _s, results[nranks] = run_pair(
                lattice, potential, pka_site=None, nranks=nranks, nsteps=20
            )
        assert np.array_equal(results[2].positions, results[8].positions)
        assert np.array_equal(results[2].velocities, results[8].velocities)
        assert np.array_equal(
            results[2].vacancy_ranks, results[8].vacancy_ranks
        )

    def test_nsteps_validated(self, potential):
        pmd = ParallelDamageMD(BCCLattice(8, 8, 8), potential, nranks=2)
        with pytest.raises(ValueError, match="nsteps"):
            pmd.run(nsteps=0)

    def test_grid_or_ranks_required(self, lattice5, potential):
        with pytest.raises(ValueError, match="grid or nranks"):
            ParallelDamageMD(lattice5, potential)

    @pytest.mark.parametrize("engine", ["serial", "parallel"])
    @pytest.mark.parametrize(("bad", "match"), BAD_RUN_ARGS)
    def test_run_args_validated_up_front(
        self, potential, no_world, engine, bad, match
    ):
        lattice = BCCLattice(8, 8, 8)
        if engine == "serial":
            md = MDEngine(lattice, potential)
        else:
            md = ParallelDamageMD(lattice, potential, nranks=2)
        kwargs = {"nsteps": 3, "displacement_threshold": 1.2, **bad}
        with pytest.raises(ValueError, match=match):
            md.run(**kwargs)

    @pytest.mark.parametrize(
        ("pka", "match"),
        [
            ((-1, [10.0, 0.0, 0.0]), "pka site"),
            ((1024, [10.0, 0.0, 0.0]), "pka site"),
            ((0, [10.0, 0.0]), "pka velocity"),
            ((0, [np.nan, 0.0, 0.0]), "pka velocity"),
        ],
    )
    def test_pka_validated_up_front(self, potential, no_world, pka, match):
        pmd = ParallelDamageMD(BCCLattice(8, 8, 8), potential, nranks=2)
        with pytest.raises(ValueError, match=match):
            pmd.run(nsteps=3, pka=pka)

    def test_no_damage_without_pka(self, potential):
        # A thermal run: nothing escapes, and the decomposed trajectory
        # is still the serial one.
        serial, result = run_pair(
            BCCLattice(8, 8, 8),
            potential,
            pka_site=None,
            nranks=8,
            nsteps=10,
            seed=1,
            pka_energy=None,
        )
        assert len(result.vacancy_ranks) == 0
        assert len(result.runaway_ids) == 0
        _assert_matches_serial(serial, result)
