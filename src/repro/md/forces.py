"""Vectorized EAM energy/force kernels.

The core computation of both MD and KMC (paper §2): a two-pass EAM
evaluation — density accumulation, embedding derivative, then pair +
embedding forces — over a half pair list produced by any of the neighbor
structures.  All hot loops are NumPy gather/scatter operations; the
scatters run through ``np.bincount(..., minlength=n)`` rather than
``np.add.at``, whose unbuffered ufunc path is the known slow scatter in
NumPy (an order of magnitude on large pair lists).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.md.neighbors.lattice_list import LatticeNeighborList
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


def eam_evaluate(
    pot: EAMPotential,
    n: int,
    pairs: PairTable,
    active: np.ndarray | None = None,
) -> EAMResult:
    """Two-pass EAM evaluation over ``n`` particles and a half pair list.

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
    if active is None:
        active = np.ones(n, dtype=bool)
    if len(pairs) == 0:
        return EAMResult(0.0, np.zeros((n, 3)), np.zeros(n), 0.0, 0.0)
    if kernels.selected() == "numba":
        payloads = kernels.eam_payloads(pot.tables)
        if payloads is not None:
            # Compiled path: bit-identical to the NumPy expressions below
            # by construction (same accumulation order, same pairwise
            # sums); the energy reductions stay NumPy-side in both paths.
            phi, rho, emb, forces = kernels.eam_fused(
                payloads, pairs.i, pairs.j, pairs.axes, pairs.r, n
            )
            pair_energy = float(np.sum(phi))
            embed_energy = float(np.sum(emb[active]))
            return EAMResult(
                energy=pair_energy + embed_energy,
                forces=forces,
                rho=rho,
                pair_energy=pair_energy,
                embed_energy=embed_energy,
            )
    # Pass 1: pair energy and density accumulation, both tables read at
    # one located segment per pair.  bincount scatters: one contiguous
    # accumulation per endpoint array instead of the element-wise
    # np.add.at loop.
    phi, dphi, fd, dfd = pot.tables.pair_and_density(pairs.r)
    rho = np.bincount(pairs.i, weights=fd, minlength=n) + np.bincount(
        pairs.j, weights=fd, minlength=n
    )
    # Pass 2: embedding derivative closes the force expression,
    # (dphi + (F'_i + F'_j) * df) / r evaluated in place.
    emb, demb = pot.tables.embedding.value_and_derivative(rho)
    coeff = demb[pairs.i]
    coeff += demb[pairs.j]
    coeff *= dfd
    coeff += dphi
    coeff /= pairs.r
    forces = np.empty((n, 3))
    for k, dk in enumerate(pairs.axes):
        fk = coeff * dk
        forces[:, k] = np.bincount(pairs.i, weights=fk, minlength=n) - np.bincount(
            pairs.j, weights=fk, minlength=n
        )
    pair_energy = float(np.sum(phi))
    embed_energy = float(np.sum(emb[active]))
    return EAMResult(
        energy=pair_energy + embed_energy,
        forces=forces,
        rho=rho,
        pair_energy=pair_energy,
        embed_energy=embed_energy,
    )


def gather_particles(
    state: AtomState, nblist: LatticeNeighborList
) -> tuple[np.ndarray, np.ndarray, list]:
    """Flat particle array: occupied/vacancy rows first, run-aways appended.

    Returns ``(x_flat, active_mask, runaway_atoms)``; run-away atom ``k``
    is flat particle ``state.n + k``.
    """
    runs = nblist.runaways
    if runs:
        x = np.vstack([state.x, np.array([a.x for a in runs])])
    else:
        x = state.x
    active = np.concatenate(
        [state.occupied, np.ones(len(runs), dtype=bool)]
    )
    return x, active, runs


def build_pair_table(
    state: AtomState, nblist: LatticeNeighborList, pot: EAMPotential
) -> tuple[PairTable, np.ndarray, np.ndarray, list]:
    """All interacting half pairs of a state under the lattice list.

    Combines (1) on-lattice pairs from static index arithmetic, (2)
    run-away/lattice pairs from each run-away's host neighborhood, and
    (3) run-away/run-away pairs from adjacent linked lists.
    """
    x, active, runs = gather_particles(state, nblist)
    li, lj = nblist.lattice_pairs(state)
    pi = [li]
    pj = [lj]
    if runs:
        run_index = {id(a): state.n + k for k, a in enumerate(runs)}
        occ = state.occupied
        for atom, rows in nblist.runaway_candidates():
            rows = rows[occ[rows]]
            if len(rows):
                pi.append(np.full(len(rows), run_index[id(atom)], dtype=np.int64))
                pj.append(rows.astype(np.int64))
        rr = nblist.runaway_pairs()
        if rr:
            pi.append(np.asarray([run_index[id(a)] for a, _b in rr], dtype=np.int64))
            pj.append(np.asarray([run_index[id(b)] for _a, b in rr], dtype=np.int64))
    i = np.concatenate(pi)
    j = np.concatenate(pj)
    table = PairTable.from_pairs(x, i, j, nblist.box, pot.cutoff)
    return table, x, active, runs


def compute_energy_forces(
    pot: EAMPotential, state: AtomState, nblist: LatticeNeighborList
) -> float:
    """Full EAM evaluation; writes forces and rho into ``state`` in place.

    Run-away atoms get their ``f``/``rho`` fields updated too.  Returns
    the total potential energy (eV).
    """
    table, x, active, runs = build_pair_table(state, nblist, pot)
    result = eam_evaluate(pot, len(x), table, active)
    state.f[:] = result.forces[: state.n]
    state.f[~state.occupied] = 0.0
    state.rho[:] = result.rho[: state.n]
    state.rho[~state.occupied] = 0.0
    for k, atom in enumerate(runs):
        atom.f = result.forces[state.n + k].copy()
        atom.rho = float(result.rho[state.n + k])
    return result.energy


def star_geometry(
    x: np.ndarray,
    occupied: np.ndarray,
    centrals: np.ndarray,
    matrix: np.ndarray,
    valid: np.ndarray,
    box,
    cutoff: float,
):
    """Distances from each central row to its static neighbors.

    Returns ``(d, r, mask)`` with shapes ``(C, m, 3)``, ``(C, m)``,
    ``(C, m)``: the displacement vectors, distances, and the mask of
    genuine interactions (valid slot, both occupied, within cutoff).
    Used by the parallel engine, where each owned central accumulates its
    full interaction star (ghost neighbors included).
    """
    xc = x[centrals]
    xn = x[matrix]
    d = xn - xc[:, None, :]
    if box is not None:
        d = box.minimum_image(d)
    r = np.linalg.norm(d, axis=2)
    mask = (
        valid
        & occupied[matrix]
        & occupied[centrals][:, None]
        & (r > 1e-12)
        & (r <= cutoff)
    )
    return d, r, mask


def star_density(
    pot: EAMPotential,
    x: np.ndarray,
    occupied: np.ndarray,
    centrals: np.ndarray,
    matrix: np.ndarray,
    valid: np.ndarray,
    box,
) -> tuple[np.ndarray, float]:
    """Density pass of the parallel kernel.

    Returns ``(rho_centrals, local_pair_energy)``; the pair energy carries
    the EAM 1/2 factor, so summing it over ranks gives the global pair
    term exactly (every bond is seen from both ends).
    """
    _d, r, mask = star_geometry(x, occupied, centrals, matrix, valid, box, pot.cutoff)
    rsafe = np.where(mask, r, pot.cutoff)
    rho_c = np.sum(pot.tables.density(rsafe) * mask, axis=1)
    pair_e = 0.5 * float(np.sum(pot.tables.pair(rsafe) * mask))
    return rho_c, pair_e


def star_forces(
    pot: EAMPotential,
    x: np.ndarray,
    occupied: np.ndarray,
    rho: np.ndarray,
    centrals: np.ndarray,
    matrix: np.ndarray,
    valid: np.ndarray,
    box,
) -> np.ndarray:
    """Force pass of the parallel kernel; forces on the central rows only.

    ``rho`` must hold *converged* densities for every row the matrix can
    touch — ghosts included, which is why the engine exchanges densities
    between the two passes.
    """
    d, r, mask = star_geometry(x, occupied, centrals, matrix, valid, box, pot.cutoff)
    rsafe = np.where(mask, r, pot.cutoff)
    dphi = pot.tables.pair.derivative(rsafe)
    dfd = pot.tables.density.derivative(rsafe)
    demb = pot.tables.embedding.derivative(rho)
    coeff = (dphi + (demb[centrals][:, None] + demb[matrix]) * dfd) / rsafe
    coeff = np.where(mask, coeff, 0.0)
    return np.einsum("cm,cmk->ck", coeff, d)


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
