"""Vectorized EAM energy/force kernels.

The core computation of both MD and KMC (paper §2): a two-pass EAM
evaluation over a half pair list produced by any of the neighbor
structures.  :func:`eam_density` accumulates densities (pass 1);
:func:`eam_forces` takes the embedding derivative and scatters pair +
embedding forces (pass 2).  Serial MD runs them back to back
(:func:`eam_evaluate`); decomposed MD exchanges ghost densities between
them (§2.1.1).  All hot loops are NumPy gather/scatter operations; the
scatters run through ``np.bincount(..., minlength=n)`` rather than
``np.add.at``, whose unbuffered ufunc path is the known slow scatter in
NumPy (an order of magnitude on large pair lists).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayAtom
from repro.md.state import AtomState
from repro.potential.eam import EAMPotential


@dataclass
class PairTable:
    """A half pair list with precomputed geometry.

    ``i``/``j`` index a flat particle array; ``axes`` holds the x, y and
    z components of the minimum-image vector from i to j as three
    contiguous arrays, and ``r`` its length.  Pairs beyond the cutoff
    have already been dropped.
    """

    i: np.ndarray
    j: np.ndarray
    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    r: np.ndarray

    @property
    def d(self) -> np.ndarray:
        """The ``(P, 3)`` displacement vectors, stacked on access."""
        return np.stack(self.axes, axis=1)

    @classmethod
    def from_pairs(cls, x: np.ndarray, i, j, box, cutoff: float) -> "PairTable":
        """Geometry of candidate pairs ``(i, j)`` over positions ``x``.

        Works per axis on contiguous columns: gather, subtract, fold to
        the minimum image, then ``r = sqrt(dx*dx + dy*dy + dz*dz)``.  The
        arithmetic is element for element that of ``Box.minimum_image``
        and ``np.linalg.norm`` on ``(P, 3)`` vectors, so the table is
        bit-identical to one built from them.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        columns = np.ascontiguousarray(np.asarray(x).T)
        axes = []
        for k in range(3):
            dk = columns[k].take(j)
            dk -= columns[k].take(i)
            if box is not None:
                dk = np.asarray(dk, dtype=float)
                length = box.lengths[k]
                shift = dk / length
                np.rint(shift, out=shift)
                shift *= length
                dk -= shift
            axes.append(dk)
        dx, dy, dz = axes
        r = dx * dx
        r += dy * dy
        r += dz * dz
        np.sqrt(r, out=r)
        keep = np.flatnonzero((r > 1e-12) & (r <= cutoff))
        return cls(
            i=i.take(keep),
            j=j.take(keep),
            axes=tuple(dk.take(keep) for dk in axes),
            r=r.take(keep),
        )

    def __len__(self) -> int:
        return len(self.i)


@dataclass
class EAMResult:
    """Outcome of one EAM evaluation over a flat particle array."""

    energy: float
    forces: np.ndarray
    rho: np.ndarray
    pair_energy: float
    embed_energy: float


@dataclass
class DensityPass:
    """Pass-1 output: per-pair table values and per-particle densities.

    ``rho`` may be reconciled in place (a decomposed run overwrites its
    ghost entries with the owners' values) before pass 2 reads it.
    """

    phi: np.ndarray
    dphi: np.ndarray
    dfd: np.ndarray
    rho: np.ndarray


def _compiled_payloads(pot: EAMPotential):
    """Table payloads when the compiled kernels are selected, else None."""
    if kernels.selected() == "numba":
        return kernels.eam_payloads(pot.tables)
    return None


def eam_density(pot: EAMPotential, n: int, pairs: PairTable) -> DensityPass:
    """Pass 1: pair energy and density accumulation over ``n`` particles.

    Both tables are read at one located segment per pair.  bincount
    scatters: one contiguous accumulation per endpoint array instead of
    the element-wise np.add.at loop.
    """
    if len(pairs) == 0:
        empty = np.empty(0)
        return DensityPass(empty, empty, empty, np.zeros(n))
    payloads = _compiled_payloads(pot)
    if payloads is not None:
        # Compiled path: bit-identical to the NumPy expressions below by
        # construction (same accumulation order).
        return DensityPass(*kernels.eam_pass1(payloads, pairs.i, pairs.j, pairs.r, n))
    phi, dphi, fd, dfd = pot.tables.pair_and_density(pairs.r)
    rho = np.bincount(pairs.i, weights=fd, minlength=n) + np.bincount(
        pairs.j, weights=fd, minlength=n
    )
    return DensityPass(phi, dphi, dfd, rho)


def eam_forces(
    pot: EAMPotential,
    pairs: PairTable,
    density: DensityPass,
    active: np.ndarray | None = None,
) -> EAMResult:
    """Pass 2: the embedding derivative closes the force expression.

    ``(dphi + (F'_i + F'_j) * df) / r`` is evaluated in place and
    scattered per axis.  ``density.rho`` must hold converged densities
    for every particle a pair touches.  ``active`` masks the particles
    whose embedding energy is summed (``None`` means all); the energy
    reductions stay NumPy-side on both kernel paths.
    """
    rho = density.rho
    n = len(rho)
    if active is None:
        active = np.ones(n, dtype=bool)
    if len(pairs) == 0:
        return EAMResult(0.0, np.zeros((n, 3)), rho, 0.0, 0.0)
    payloads = _compiled_payloads(pot)
    if payloads is not None:
        emb, forces = kernels.eam_pass2(
            payloads, pairs.i, pairs.j, pairs.axes, pairs.r,
            density.dphi, density.dfd, rho,
        )
    else:
        emb, demb = pot.tables.embedding.value_and_derivative(rho)
        coeff = demb[pairs.i]
        coeff += demb[pairs.j]
        coeff *= density.dfd
        coeff += density.dphi
        coeff /= pairs.r
        forces = np.empty((n, 3))
        for k, dk in enumerate(pairs.axes):
            fk = coeff * dk
            forces[:, k] = np.bincount(
                pairs.i, weights=fk, minlength=n
            ) - np.bincount(pairs.j, weights=fk, minlength=n)
    pair_energy = float(np.sum(density.phi))
    embed_energy = float(np.sum(emb[active]))
    return EAMResult(
        energy=pair_energy + embed_energy,
        forces=forces,
        rho=rho,
        pair_energy=pair_energy,
        embed_energy=embed_energy,
    )


def eam_evaluate(
    pot: EAMPotential,
    n: int,
    pairs: PairTable,
    active: np.ndarray | None = None,
) -> EAMResult:
    """Two-pass EAM evaluation over ``n`` particles and a half pair list.

    :func:`eam_density` then :func:`eam_forces`, with nothing in between
    (a decomposed run exchanges densities there).

    Parameters
    ----------
    pot:
        The potential (either table layout).
    n:
        Flat particle count; forces/rho arrays get this length.
    pairs:
        Interacting half pairs with geometry.
    active:
        Boolean mask of particles that exist (embedding energy is summed
        over these).  ``None`` means all.
    """
    return eam_forces(pot, pairs, eam_density(pot, n, pairs), active)


def gather_particles(
    state: AtomState, runs: list[RunawayAtom]
) -> tuple[np.ndarray, np.ndarray]:
    """Flat particle array: occupied/vacancy rows first, run-aways appended.

    Returns ``(x_flat, active_mask)``; run-away atom ``runs[k]`` is flat
    particle ``state.n + k``.
    """
    if runs:
        x = np.vstack([state.x, np.array([a.x for a in runs])])
    else:
        x = state.x
    active = np.concatenate(
        [state.occupied, np.ones(len(runs), dtype=bool)]
    )
    return x, active


def build_pair_table(
    state: AtomState,
    nblist: LatticeNeighborList,
    pot: EAMPotential,
    runs: list[RunawayAtom] | None = None,
) -> tuple[PairTable, np.ndarray, np.ndarray, list]:
    """All interacting half pairs of a state under the lattice list.

    Combines (1) on-lattice pairs from static index arithmetic, (2)
    run-away/lattice pairs from each run-away's host neighborhood, and
    (3) run-away/run-away pairs from adjacent linked lists.  ``runs``
    defaults to the list's own run-aways; a decomposed run passes its
    owned run-aways plus ghost copies, in host order.  Pairs come in the
    serial order, so every particle whose partners are all present
    accumulates the same sums, bit for bit, as in a serial run.
    """
    if runs is None:
        runs = nblist.runaways
    x, active = gather_particles(state, runs)
    li, lj = nblist.lattice_pairs(state)
    pi = [li]
    pj = [lj]
    if runs:
        run_index = {id(a): state.n + k for k, a in enumerate(runs)}
        occ = state.occupied
        for atom, rows in nblist.runaway_candidates(runs):
            rows = rows[occ[rows]]
            if len(rows):
                pi.append(np.full(len(rows), run_index[id(atom)], dtype=np.int64))
                pj.append(rows.astype(np.int64))
        rr = nblist.runaway_pairs(runs)
        if rr:
            pi.append(np.asarray([run_index[id(a)] for a, _b in rr], dtype=np.int64))
            pj.append(np.asarray([run_index[id(b)] for _a, b in rr], dtype=np.int64))
    i = np.concatenate(pi)
    j = np.concatenate(pj)
    table = PairTable.from_pairs(x, i, j, nblist.box, pot.cutoff)
    return table, x, active, runs


def store_result(state: AtomState, runs: list[RunawayAtom], result: EAMResult) -> float:
    """Write forces and rho back to ``state`` and ``runs``; returns the energy.

    Vacancy rows get zero force and density.
    """
    state.f[:] = result.forces[: state.n]
    state.f[~state.occupied] = 0.0
    state.rho[:] = result.rho[: state.n]
    state.rho[~state.occupied] = 0.0
    for k, atom in enumerate(runs):
        atom.f = result.forces[state.n + k].copy()
        atom.rho = float(result.rho[state.n + k])
    return result.energy


def compute_energy_forces(
    pot: EAMPotential, state: AtomState, nblist: LatticeNeighborList
) -> float:
    """Full EAM evaluation; writes forces and rho into ``state`` in place.

    Run-away atoms get their ``f``/``rho`` fields updated too.  Returns
    the total potential energy (eV).
    """
    table, x, active, runs = build_pair_table(state, nblist, pot)
    return store_result(state, runs, eam_evaluate(pot, len(x), table, active))


def compute_energy_forces_pairs(
    pot: EAMPotential,
    x: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    box,
) -> EAMResult:
    """EAM evaluation from an externally produced pair list.

    Used with the baseline neighbor structures (Verlet / linked cell) and
    by the cross-structure equivalence tests.
    """
    table = PairTable.from_pairs(x, i, j, box, pot.cutoff)
    return eam_evaluate(pot, len(x), table)
