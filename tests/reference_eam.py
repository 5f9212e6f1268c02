"""Reference EAM force path: the oracle the fast path must match bit for bit.

This is the straightforward formulation :mod:`repro.md.forces` is
checked against: the lattice half pairs enumerated from the static
matrix on every call, run-away stencils rebuilt on every call, pair
geometry on ``(P, 3)`` vectors (``Box.minimum_image`` and
``np.linalg.norm``), and three independent table lookups, each locating
its queries out of place and gathering whole coefficient rows.  The
production path moves far less data but must produce the same bits.

It also holds the O(N^2) all-pairs energy and forces of small
configurations, the physics oracle for both paths.
"""

from __future__ import annotations

import math

import numpy as np

from repro.md.forces import EAMResult, PairTable, gather_particles


def lattice_pairs(nblist, state):
    """Half pairs from the static matrix, enumerated afresh."""
    occ = state.occupied
    c = nblist.centrals[:, None]
    nbr = nblist.matrix
    mask = nblist.valid & (nbr > c) & occ[nbr] & occ[nblist.centrals][:, None]
    ci, mi = np.nonzero(mask)
    return nblist.centrals[ci], nbr[ci, mi]


def runaway_stencil(nblist, host_row):
    """Candidate rows around a host lattice point (full lattice list)."""
    link = math.sqrt(3.0) / 4.0 * nblist.lattice.a
    reach = nblist.cutoff + 2.0 * link + nblist.skin
    rank = int(nblist.sites[host_row])
    rows = nblist.lattice.neighbor_ranks_within(rank, reach)
    return np.unique(np.append(rows, host_row))


def pair_table(x, i, j, box, cutoff):
    """Pair geometry on ``(P, 3)`` vectors."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    d = np.asarray(x)[j] - np.asarray(x)[i]
    if box is not None:
        d = box.minimum_image(d)
    r = np.linalg.norm(d, axis=-1) if len(i) else np.empty(0)
    keep = (r > 1e-12) & (r <= cutoff)
    return PairTable(i=i[keep], j=j[keep], axes=axes_of(d[keep]), r=r[keep])


def axes_of(d):
    """The three contiguous axis columns of ``(P, 3)`` vectors ``d``."""
    return tuple(np.ascontiguousarray(c) for c in np.asarray(d).T)


def build_pair_table(state, nblist, pot):
    """All interacting half pairs: lattice, run-away/lattice, run-away pairs."""
    runs = nblist.runaways
    x, active = gather_particles(state, runs)
    li, lj = lattice_pairs(nblist, state)
    pi, pj = [li], [lj]
    if runs:
        run_index = {id(a): state.n + k for k, a in enumerate(runs)}
        order = {id(a): k for k, a in enumerate(runs)}
        occ = state.occupied
        for atom in runs:
            rows = runaway_stencil(nblist, atom.host)
            rows = rows[occ[rows]]
            if len(rows):
                pi.append(np.full(len(rows), run_index[id(atom)], dtype=np.int64))
                pj.append(rows.astype(np.int64))
        rr = [
            (atom, other)
            for atom in runs
            for host in runaway_stencil(nblist, atom.host).tolist()
            for other in nblist.hosts.get(host, ())
            if order[id(other)] > order[id(atom)]
        ]
        if rr:
            pi.append(np.asarray([run_index[id(a)] for a, _b in rr], dtype=np.int64))
            pj.append(np.asarray([run_index[id(b)] for _a, b in rr], dtype=np.int64))
    i = np.concatenate(pi)
    j = np.concatenate(pj)
    return pair_table(x, i, j, nblist.box, pot.cutoff), x, active, runs


def locate(x, dx, n):
    """Segment index and clamped fractional position, out of place."""
    x = np.asarray(x, dtype=float)
    scaled = x / dx
    m = np.clip(scaled.astype(int), 0, n - 1)
    p = np.clip(scaled - m, 0.0, 1.0)
    return m, p


def value_and_derivative(table, x):
    """One table's value and derivative from its own lookup.

    A traditional table gathers whole ``(P, 7)`` coefficient rows; a
    compacted one rebuilds the cubic of each located segment.
    """
    m, p = locate(x, table.dx, table.n)
    if table.layout == "traditional":
        c = table.coeff[m]
        value = ((c[..., 3] * p + c[..., 4]) * p + c[..., 5]) * p + c[..., 6]
        deriv = (c[..., 0] * p + c[..., 1]) * p + c[..., 2]
        return value, deriv
    c3, c4, c5, c6 = table._segment(m)
    value = ((c3 * p + c4) * p + c5) * p + c6
    deriv = ((3.0 * c3 * p + 2.0 * c4) * p + c5) / table.dx
    return value, deriv


def eam_evaluate(pot, n, pairs, active=None):
    """Two-pass EAM with three separate table lookups."""
    if active is None:
        active = np.ones(n, dtype=bool)
    if len(pairs) == 0:
        return EAMResult(0.0, np.zeros((n, 3)), np.zeros(n), 0.0, 0.0)
    phi, dphi = value_and_derivative(pot.tables.pair, pairs.r)
    fd, dfd = value_and_derivative(pot.tables.density, pairs.r)
    rho = np.bincount(pairs.i, weights=fd, minlength=n) + np.bincount(
        pairs.j, weights=fd, minlength=n
    )
    emb, demb = value_and_derivative(pot.tables.embedding, rho)
    coeff = (dphi + (demb[pairs.i] + demb[pairs.j]) * dfd) / pairs.r
    fvec = coeff[:, None] * pairs.d
    forces = np.empty((n, 3))
    for k in range(3):
        forces[:, k] = np.bincount(
            pairs.i, weights=fvec[:, k], minlength=n
        ) - np.bincount(pairs.j, weights=fvec[:, k], minlength=n)
    pair_energy = float(np.sum(phi))
    embed_energy = float(np.sum(emb[active]))
    return EAMResult(
        energy=pair_energy + embed_energy,
        forces=forces,
        rho=rho,
        pair_energy=pair_energy,
        embed_energy=embed_energy,
    )


def compute_energy_forces(pot, state, nblist):
    """Reference twin of :func:`repro.md.forces.compute_energy_forces`."""
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


def dphi(pot, r):
    """Pair potential derivative; zero beyond the cutoff."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= pot.cutoff, pot.tables.pair.derivative(r), 0.0)


def dfdens(pot, r):
    """Density contribution derivative; zero beyond the cutoff."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= pot.cutoff, pot.tables.density.derivative(r), 0.0)


def dembed(pot, rho):
    """Embedding energy derivative."""
    return pot.tables.embedding.derivative(rho)


def total_energy(pot, positions, box=None):
    """O(N^2) total energy of a small configuration."""
    pos = np.asarray(positions, dtype=float)
    delta = pos[None, :, :] - pos[:, None, :]
    if box is not None:
        delta = box.minimum_image(delta)
    r = np.linalg.norm(delta, axis=-1)
    mask = (r > 0) & (r <= pot.cutoff)
    pair = 0.5 * np.sum(pot.phi(np.where(mask, r, pot.cutoff + 1.0)) * mask)
    rho = np.sum(pot.fdens(np.where(mask, r, pot.cutoff + 1.0)) * mask, axis=1)
    return float(pair + np.sum(pot.embed(rho)))


def pairwise_forces(pot, positions, box=None):
    """O(N^2) forces of a small configuration (eV/A)."""
    pos = np.asarray(positions, dtype=float)
    delta = pos[None, :, :] - pos[:, None, :]  # delta[i, j] = r_j - r_i
    if box is not None:
        delta = box.minimum_image(delta)
    r = np.linalg.norm(delta, axis=-1)
    mask = (r > 0) & (r <= pot.cutoff)
    rsafe = np.where(mask, r, 1.0)
    rho = np.sum(pot.fdens(rsafe) * mask, axis=1)
    demb = dembed(pot, rho)
    # Scalar bond force magnitude / r for each pair.
    coeff = dphi(pot, rsafe) + (demb[:, None] + demb[None, :]) * dfdens(pot, rsafe)
    coeff = np.where(mask, coeff / rsafe, 0.0)
    # F_i = -sum_j coeff_ij * (r_i - r_j) = +sum_j coeff_ij * delta_ij
    return np.einsum("ij,ijk->ik", coeff, delta)
