"""Domain-decomposed MD with run-away atoms: the full §2.1.1 protocol.

:class:`ParallelDamageMD` runs cascades distributed over the in-process
runtime, with the serial engine's EAM kernel and integrator:

* vacancies propagate through the static ghost exchange ("the lattice
  points (either an atom or a vacancy) in the ghost region is packed
  (unpacked) and sent (received) according to the indexes in the array");
* run-away atoms migrate between ranks and appear as ghosts — "For the
  run-away atoms, if they move into the subdomain or the ghost region of
  the neighbor processes, we pack their information and send it to the
  corresponding neighbor processes."

Per step the protocol is:

1. half-kick + drift of owned atoms and owned run-aways
   (:class:`~repro.md.integrator.VelocityVerlet`);
2. every ``runaway_check_interval`` steps: escape/capture/relink
   bookkeeping, then *migration* — a run-away whose nearest lattice point
   is owned elsewhere is packed and shipped to its new owner;
3. static ghost exchange of positions + occupancy (IDs);
4. run-away ghost broadcast: copies of owned run-aways hosted in a
   neighbor's interest region travel with their positions;
5. density pass (:func:`~repro.md.forces.eam_density`) over the local
   half pairs, then the second exchange phase ships densities — for
   lattice sites through the static pattern, for run-aways with
   refreshed ghost copies;
6. force pass (:func:`~repro.md.forces.eam_forces`), second half-kick.

Every half pair with an owned endpoint is evaluated in the serial pair
order (:meth:`~repro.md.neighbors.lattice_list.LatticeNeighborList.lattice_pairs`),
so owned densities and forces are the serial sums term for term and the
result equals the serial engine bit for bit (asserted by tests): same
trajectories, same vacancy inventory, same run-away population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.lattice.domain import DIRECTIONS, DomainDecomposition, choose_grid
from repro.md.engine import MDConfig, validate_run, wrap_positions
from repro.md.forces import build_pair_table, eam_density, eam_forces, store_result
from repro.md.ghost import GhostExchanger
from repro.md.integrator import VelocityVerlet
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayAtom
from repro.md.state import AtomState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential
from repro.runtime.simmpi import World

TAG_X = 0
TAG_RHO = 100
TAG_RUNAWAY_MIGRATE = 300
TAG_RUNAWAY_GHOST_X = 400
TAG_RUNAWAY_GHOST_RHO = 500


@dataclass
class ParallelDamageResult:
    """Global outcome of a distributed damage run."""

    positions: np.ndarray
    velocities: np.ndarray
    vacancy_ranks: np.ndarray
    runaway_ids: np.ndarray
    runaway_positions: np.ndarray
    comm_stats: dict
    nranks: int


def _pack_runaways(atoms: list[RunawayAtom], sites: np.ndarray):
    """Wire format: (ids, host global ranks, x, v) arrays."""
    return (
        np.array([a.id for a in atoms], dtype=np.int64),
        sites[[a.host for a in atoms]].astype(np.int64),
        np.array([a.x for a in atoms]).reshape(-1, 3),
        np.array([a.v for a in atoms]).reshape(-1, 3),
    )


class ParallelDamageMD:
    """Domain-decomposed MD with vacancies and run-away atoms.

    Parameters
    ----------
    lattice, potential, config:
        As for :class:`~repro.md.engine.MDEngine`.
    grid:
        Process grid; ``None`` lets :func:`choose_grid` pick one for
        ``nranks``.
    nranks:
        World size when ``grid`` is None.
    network, backend, workers:
        Passed to the :class:`~repro.runtime.simmpi.World`.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential | None = None,
        config: MDConfig | None = None,
        grid: tuple[int, int, int] | None = None,
        nranks: int | None = None,
        network=None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        self.lattice = lattice
        self.config = config or MDConfig()
        self.potential = potential or make_fe_potential(
            layout=self.config.table_layout
        )
        if grid is None:
            if nranks is None:
                raise ValueError("provide either grid or nranks")
            grid = choose_grid(nranks, (lattice.nx, lattice.ny, lattice.nz))
        self.decomp = DomainDecomposition(lattice, grid)
        self.box = Box.for_lattice(lattice)
        self.network = network
        self.backend = backend
        self.workers = workers

    @property
    def nranks(self) -> int:
        return self.decomp.nprocs

    def _initial_velocities(self) -> np.ndarray:
        state = AtomState.perfect(self.lattice)
        rng = np.random.default_rng(self.config.seed)
        maxwell_boltzmann_velocities(state, self.config.temperature, rng)
        return state.v

    def run(
        self,
        nsteps: int,
        dt: float | None = None,
        displacement_threshold: float = 1.2,
        runaway_check_interval: int = 5,
        pka: tuple[int, np.ndarray] | None = None,
    ) -> ParallelDamageResult:
        """Run a distributed damage simulation.

        ``pka`` optionally injects a primary knock-on atom: a (global
        site rank, velocity vector) pair applied after thermalization.
        """
        validate_run(nsteps, dt, displacement_threshold, runaway_check_interval)
        if pka is not None:
            site, velocity = int(pka[0]), np.asarray(pka[1], dtype=float)
            if not 0 <= site < self.lattice.nsites:
                raise ValueError(
                    f"pka site must be in [0, {self.lattice.nsites}), got {site}"
                )
            if velocity.shape != (3,) or not np.all(np.isfinite(velocity)):
                raise ValueError(
                    f"pka velocity must be a finite 3-vector, got {velocity}"
                )
        dt = dt if dt is not None else self.config.dt
        v_global = self._initial_velocities()
        if pka is not None:
            v_global[site] = velocity
        lattice = self.lattice
        pot = self.potential
        decomp = self.decomp
        # One extra ghost cell beyond the MD cutoff: a run-away atom sits
        # up to half a first-shell from its host, so its interaction
        # sphere (and its ghost-copy relevance) reaches that much past
        # the lattice stencil.
        width = decomp.ghost_width_cells(pot.cutoff) + 1

        def rank_main(comm):
            sub = decomp.subdomain(comm.rank)
            owned = sub.owned_site_ranks(lattice)
            ghosts = sub.all_ghost_site_ranks(lattice, width)
            sites = np.union1d(owned, ghosts)
            central_rows = np.searchsorted(sites, owned)
            own_mask = np.zeros(len(sites), dtype=bool)
            own_mask[central_rows] = True
            state = AtomState.for_sites(lattice, sites)
            state.v[:] = v_global[sites]
            nbl = LatticeNeighborList(
                lattice, pot.cutoff, sites=sites, centrals=central_rows
            )
            ex = GhostExchanger(decomp, comm.rank, sites, width)
            # Ranks my ghost region could host run-aways for / from.
            neighbor_ranks = sorted(
                {decomp.neighbor_rank(comm.rank, d) for d in DIRECTIONS}
                - {comm.rank}
            )
            interest: dict[int, set] = {}
            for n in neighbor_ranks:
                nsub = decomp.subdomain(n)
                interest[n] = set(
                    np.union1d(
                        nsub.owned_site_ranks(lattice),
                        nsub.all_ghost_site_ranks(lattice, width),
                    ).tolist()
                )
            integ = VelocityVerlet(dt)
            ids_f = np.empty(len(sites), dtype=float)

            def owned_runaways() -> list[RunawayAtom]:
                return nbl.runaways

            def exchange_ids_and_x() -> None:
                ids_f[:] = state.ids
                ex.exchange(comm, TAG_X, [state.x, ids_f])
                state.ids[:] = ids_f.astype(np.int64)

            def migrate_runaways() -> None:
                """Ship run-aways whose nearest site belongs elsewhere."""
                outgoing: dict[int, list[RunawayAtom]] = {n: [] for n in neighbor_ranks}
                for atom in list(owned_runaways()):
                    owner = decomp.owner_of_site(int(sites[atom.host]))
                    if owner != comm.rank:
                        nbl._unlink(atom)
                        outgoing[owner].append(atom)
                for n in neighbor_ranks:
                    comm.send(
                        n,
                        TAG_RUNAWAY_MIGRATE,
                        _pack_runaways(outgoing[n], sites),
                    )
                for n in neighbor_ranks:
                    _s, _t, payload = comm.recv(
                        source=n, tag=TAG_RUNAWAY_MIGRATE
                    )
                    ids, hosts, xs, vs = payload
                    for k in range(len(ids)):
                        host_row = int(np.searchsorted(sites, hosts[k]))
                        atom = RunawayAtom(
                            id=int(ids[k]),
                            x=xs[k].copy(),
                            v=vs[k].copy(),
                            host=host_row,
                        )
                        nbl._link(atom)

            def broadcast_ghost_runaways() -> list[RunawayAtom]:
                """Copies of owned run-aways for neighbors that see them."""
                for n in neighbor_ranks:
                    copies = [
                        a
                        for a in owned_runaways()
                        if int(sites[a.host]) in interest[n]
                    ]
                    comm.send(
                        n, TAG_RUNAWAY_GHOST_X, _pack_runaways(copies, sites)
                    )
                ghosts_in: list[RunawayAtom] = []
                for n in neighbor_ranks:
                    _s, _t, payload = comm.recv(
                        source=n, tag=TAG_RUNAWAY_GHOST_X
                    )
                    ids, hosts, xs, vs = payload
                    for k in range(len(ids)):
                        idx = int(np.searchsorted(sites, hosts[k]))
                        if idx >= len(sites) or sites[idx] != hosts[k]:
                            continue  # outside my coverage
                        ghosts_in.append(
                            RunawayAtom(
                                id=int(ids[k]),
                                x=xs[k].copy(),
                                v=vs[k].copy(),
                                host=idx,
                            )
                        )
                return ghosts_in

            def exchange_runaway_rho(
                ghost_runs: list[RunawayAtom],
            ) -> None:
                """Refresh ghost run-away densities from their owners."""
                for n in neighbor_ranks:
                    mine = [
                        a
                        for a in owned_runaways()
                        if int(sites[a.host]) in interest[n]
                    ]
                    comm.send(
                        n,
                        TAG_RUNAWAY_GHOST_RHO,
                        (
                            np.array([a.id for a in mine], dtype=np.int64),
                            np.array([a.rho for a in mine]),
                        ),
                    )
                rho_by_id: dict[int, float] = {}
                for n in neighbor_ranks:
                    _s, _t, (ids, rhos) = comm.recv(
                        source=n, tag=TAG_RUNAWAY_GHOST_RHO
                    )
                    for k in range(len(ids)):
                        rho_by_id[int(ids[k])] = float(rhos[k])
                for atom in ghost_runs:
                    if atom.id in rho_by_id:
                        atom.rho = rho_by_id[atom.id]

            def compute_forces(ghost_runs: list[RunawayAtom]) -> None:
                """Density pass, density exchange (§2.1.1), force pass.

                Owned densities are complete after pass 1; ghost rows and
                ghost run-aways take their owners' values before pass 2.
                """
                # Host order is the serial run-away order.
                runs = sorted(owned_runaways() + ghost_runs, key=lambda a: a.host)
                table, x, active, runs = build_pair_table(state, nbl, pot, runs)
                density = eam_density(pot, len(x), table)
                n = state.n
                state.rho[:] = density.rho[:n]
                ex.exchange(comm, TAG_RHO, [state.rho])
                density.rho[:n] = state.rho
                for k, atom in enumerate(runs):
                    atom.rho = float(density.rho[n + k])
                exchange_runaway_rho(ghost_runs)
                for k, atom in enumerate(runs):
                    density.rho[n + k] = atom.rho
                store_result(state, runs, eam_forces(pot, table, density, active))

            # ----------------------------------------------------------
            # main loop
            # ----------------------------------------------------------
            exchange_ids_and_x()
            compute_forces(broadcast_ghost_runaways())
            for step in range(nsteps):
                # Ghost rows move too, but the position exchange below
                # overwrites them before anything reads them.
                integ.first_half(state, nbl)
                wrap_positions(state, nbl)
                if step % runaway_check_interval == 0:
                    # Escape + relink over owned rows (ghosts parked),
                    # then ownership migration, then the capture pass —
                    # each capture decision is taken by the vacancy's
                    # owner, after the run-away has reached it.
                    _escape_and_relink(
                        state, nbl, own_mask, displacement_threshold
                    )
                    migrate_runaways()
                    _capture_pass(state, nbl, displacement_threshold)
                exchange_ids_and_x()
                compute_forces(broadcast_ghost_runaways())
                integ.second_half(state, nbl)
            runs = owned_runaways()
            return {
                "owned": owned,
                "x": state.x[central_rows].copy(),
                "v": state.v[central_rows].copy(),
                "ids": state.ids[central_rows].copy(),
                "runaway_ids": np.array([a.id for a in runs], dtype=np.int64),
                "runaway_x": np.array([a.x for a in runs]).reshape(-1, 3),
            }

        world = World(
            self.nranks,
            network=self.network,
            backend=self.backend,
            workers=self.workers,
        )
        results = world.run(rank_main)
        nsites = lattice.nsites
        x = np.zeros((nsites, 3))
        v = np.zeros((nsites, 3))
        ids = np.zeros(nsites, dtype=np.int64)
        run_ids = []
        run_x = []
        for res in results:
            x[res["owned"]] = res["x"]
            v[res["owned"]] = res["v"]
            ids[res["owned"]] = res["ids"]
            run_ids.append(res["runaway_ids"])
            run_x.append(res["runaway_x"])
        run_ids = np.concatenate(run_ids)
        run_x = (
            np.concatenate(run_x) if len(run_ids) else np.empty((0, 3))
        )
        order = np.argsort(run_ids)
        return ParallelDamageResult(
            positions=x,
            velocities=v,
            vacancy_ranks=np.flatnonzero(ids < 0),
            runaway_ids=run_ids[order],
            runaway_positions=run_x[order],
            comm_stats=world.stats.snapshot(),
            nranks=self.nranks,
        )


def _escape_and_relink(
    state: AtomState,
    nbl: LatticeNeighborList,
    own_mask: np.ndarray,
    threshold: float,
) -> None:
    """Escape detection + relinking restricted to owned rows, no capture.

    Ghost rows mirror remote atoms; their owners do their bookkeeping.
    Temporarily parking ghost rows on their lattice points keeps the
    shared scan (which is global over the local state) from
    double-detecting, and a zero capture radius defers captures to the
    owner-side pass after migration.
    """
    saved_x = state.x.copy()
    saved_ids = state.ids.copy()
    ghost_rows = np.flatnonzero(~own_mask)
    state.x[ghost_rows] = state.site_pos[ghost_rows]
    state.ids[ghost_rows] = np.abs(state.ids[ghost_rows])
    try:
        nbl.update_runaways(state, threshold, capture_radius=0.0)
    finally:
        state.x[ghost_rows] = saved_x[ghost_rows]
        state.ids[ghost_rows] = saved_ids[ghost_rows]


def _capture_pass(
    state: AtomState, nbl: LatticeNeighborList, threshold: float
) -> None:
    """Owner-side capture: a run-away on a vacant host re-occupies it.

    Uses the serial engine's capture radius (threshold / 2) and the same
    host-sorted processing order, so trajectories match the serial
    bookkeeping exactly.
    """
    cap = threshold / 2.0
    for atom in list(nbl.runaways):
        dist = float(
            np.linalg.norm(
                nbl.box.minimum_image(atom.x - state.site_pos[atom.host])
            )
        )
        if state.ids[atom.host] < 0 and dist <= cap:
            nbl._unlink(atom)
            state.occupy(atom.host, atom.id, atom.x, atom.v)
