"""The paper's lattice neighbor list (§2.1.1, Figures 2-3).

For a metal under irradiation "most of the atoms stay very close to the
lattice point and only a few atoms would break the constrain and run away".
The structure exploits that:

* On-lattice atoms are stored in rank order; the neighbor *indexes* of any
  site follow from a static per-basis offset table
  (:meth:`repro.lattice.bcc.BCCLattice.offsets_within`) — no per-atom
  neighbor storage at all.
* An atom displaced beyond a threshold becomes a *run-away atom*: its row
  turns into a vacancy (negative ID, position = the lattice point) and the
  atom's record moves to a **linked list** hanging off the nearest lattice
  point.  This is the paper's improvement over the array storage of
  Hu et al. [11]: linked lists grow dynamically and keep run-away/run-away
  neighbor finding O(N) by locality ("the run-away atoms are linked to the
  nearest lattice point").
* A run-away atom that reaches a vacancy re-occupies it ("the information
  of the vacancy in the array is overlapped by the run-away atom").

Note on vectorization: the paper computes neighbor indexes on the fly to
save memory; we materialize them once as a NumPy index matrix because
per-element arithmetic is the expensive operation in Python.  The matrix
is shared, static, and derived — the *algorithmic* memory accounting of
:mod:`repro.md.neighbors.memory` follows the paper's storage scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.state import AtomState


@dataclass
class RunawayAtom:
    """An off-lattice atom linked to its nearest lattice point.

    Attributes
    ----------
    id:
        The atom's ID (its original site rank).
    x, v, f:
        Position, velocity, force (3-vectors).
    host:
        Row index (into the owning state's arrays) of the nearest lattice
        point — the entry whose linked list holds this atom.
    rho:
        Electron density at the atom.
    """

    id: int
    x: np.ndarray
    v: np.ndarray
    host: int
    f: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rho: float = 0.0


class LatticeNeighborList:
    """Static-offset neighbor structure over a (sub)set of lattice sites.

    Parameters
    ----------
    lattice:
        The global BCC lattice.
    cutoff:
        Interaction cutoff (angstrom).  The periodic box must be at least
        twice the cutoff along every axis (minimum-image requirement).
    sites:
        Optional sorted array of global site ranks this instance covers
        (owned + ghost sites of a subdomain).  ``None`` means the full
        lattice with periodic neighbor wrapping.
    centrals:
        Optional row indices (into ``sites``) of the sites for which
        neighbor information is required (a subdomain's *owned* sites).
        Defaults to all rows.
    skin:
        Margin added to the cutoff when building the static offset table.
        Thermal displacement can bring a pair whose *lattice-point*
        separation slightly exceeds the cutoff inside interaction range;
        the skin keeps such pairs in the candidate set (interactions are
        always distance-filtered against the true cutoff downstream).

        Exactness contract: the candidate set is complete while every
        on-lattice atom stays within ``skin / 2`` of its lattice point.
        Rare thermal excursions beyond that can only drop pairs whose
        separation is already in the smoothly-switched-to-zero tail of
        the potential (the same tolerance every skin-based MD code
        accepts); displacements beyond the run-away threshold leave the
        on-lattice population entirely.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        cutoff: float,
        sites: np.ndarray | None = None,
        centrals: np.ndarray | None = None,
        skin: float = 0.6,
    ) -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        self.lattice = lattice
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.box = Box.for_lattice(lattice)
        reach = self.cutoff + self.skin
        if np.any(lattice.lengths < 2.0 * reach - 1e-9):
            raise ValueError(
                f"box {lattice.lengths} must be >= 2*(cutoff+skin)={2 * reach} "
                "on every axis, or a static offset and its periodic image "
                "would alias onto the same neighbor (double counting)"
            )
        if sites is None:
            self.sites = np.arange(lattice.nsites, dtype=np.int64)
            self._full = True
        else:
            self.sites = np.asarray(sites, dtype=np.int64)
            if np.any(np.diff(self.sites) <= 0):
                raise ValueError("sites must be strictly increasing")
            self._full = False
        if centrals is None:
            self.centrals = np.arange(len(self.sites), dtype=np.int64)
        else:
            self.centrals = np.asarray(centrals, dtype=np.int64)
        #: Linked lists of run-away atoms keyed by host row.
        self.hosts: dict[int, list[RunawayAtom]] = {}
        #: ``(occupancy, i, j)`` of the last :meth:`lattice_pairs` call.
        self._pair_memo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Run-away stencils by host row (static: they depend on the row only).
        self._stencils: dict[int, np.ndarray] = {}
        self._build_matrix()

    # ------------------------------------------------------------------
    # Static neighbor index matrix
    # ------------------------------------------------------------------
    def _build_matrix(self) -> None:
        """Materialize neighbor rows for every central site.

        ``matrix[c, m]`` is the row index of the m-th neighbor of central
        row ``self.centrals[c]``; ``valid[c, m]`` is False for padding
        (the two bases have different neighbor counts only in principle;
        for BCC they are equal, but padding keeps the code general).
        """
        offsets = self.lattice.offsets_within(self.cutoff + self.skin)
        central_ranks = self.sites[self.centrals]
        b, i, j, k = self.lattice.coords_of(central_ranks)
        m = offsets.max_count
        matrix_global = np.empty((len(central_ranks), m), dtype=np.int64)
        valid = np.zeros((len(central_ranks), m), dtype=bool)
        for basis in (0, 1):
            rows = offsets.for_basis(basis)
            sel = np.flatnonzero(b == basis)
            if len(sel) == 0:
                continue
            # Relative basis flip: 0 keeps the basis, 1 flips it.
            nb = np.where(rows[:, 0] == 0, basis, 1 - basis)
            gi = i[sel, None] + rows[None, :, 1]
            gj = j[sel, None] + rows[None, :, 2]
            gk = k[sel, None] + rows[None, :, 3]
            ranks = self.lattice.rank_of(
                np.broadcast_to(nb, gi.shape), gi, gj, gk
            )
            matrix_global[sel[:, None], np.arange(len(rows))[None, :]] = ranks
            valid[sel, : len(rows)] = True
        if self._full:
            self.matrix = matrix_global
        else:
            rows = np.searchsorted(self.sites, matrix_global)
            rows = np.clip(rows, 0, len(self.sites) - 1)
            found = self.sites[rows] == matrix_global
            if np.any(valid & ~found):
                raise ValueError(
                    "a central site's neighbor falls outside the provided "
                    "site set; the ghost shell is too thin for the cutoff"
                )
            self.matrix = rows
        self.valid = valid
        # Padding entries point at row 0; the valid mask excludes them.
        self.matrix[~self.valid] = 0
        # reverse[basis, m]: index of offset m's reverse in the table of
        # the neighbor it reaches, i.e. offset m as seen from the other end.
        tables = [offsets.for_basis(basis).tolist() for basis in (0, 1)]
        index = [{tuple(row): col for col, row in enumerate(t)} for t in tables]
        self._reverse = np.zeros((2, m), dtype=np.int64)
        for basis, table in enumerate(tables):
            for col, (flip, di, dj, dk) in enumerate(table):
                other = basis if flip == 0 else 1 - basis
                self._reverse[basis, col] = index[other][(flip, -di, -dj, -dk)]
        self._central_basis = b

    @property
    def max_neighbors(self) -> int:
        """Width of the static neighbor matrix."""
        return self.matrix.shape[1]

    # ------------------------------------------------------------------
    # Pair enumeration (on-lattice atoms)
    # ------------------------------------------------------------------
    def lattice_pairs(self, state: AtomState) -> tuple[np.ndarray, np.ndarray]:
        """Half pair list (i, j) of interacting on-lattice atoms.

        Row indices into ``state``; each unordered pair appears once as
        (lower row, upper row), in the canonical order keyed by (lower
        row, offset index as seen from the lower row).  A subset list
        (owned + ghost sites) returns every pair with at least one
        central endpoint.  Rows are sorted by global rank, so each
        central sees the same pairs in the same order as in the full
        list.

        The pairs depend only on occupancy, which changes far less often
        than positions, so the last result is memoized and reused until
        the occupancy differs.  The returned arrays are read-only.
        """
        occ = state.occupied
        memo = self._pair_memo
        if memo is None or not np.array_equal(memo[0], occ):
            i, j = self._enumerate_pairs(occ)
            i.flags.writeable = False
            j.flags.writeable = False
            memo = self._pair_memo = (occ, i, j)
        return memo[1], memo[2]

    def _enumerate_pairs(self, occ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncached half pair enumeration behind :meth:`lattice_pairs`."""
        c = self.centrals[:, None]
        nbr = self.matrix
        live = self.valid & occ[nbr] & occ[self.centrals][:, None]
        ci, mi = np.nonzero(live & (nbr > c))
        lo, hi = self.centrals[ci], nbr[ci, mi]
        if len(self.centrals) == len(self.sites):
            return lo, hi
        # A pair whose lower end is not a central is only seen from its
        # upper end; key it by the reverse offset, as seen from below.
        central = np.zeros(len(self.sites), dtype=bool)
        central[self.centrals] = True
        gi, gm = np.nonzero(live & (nbr < c) & ~central[nbr])
        lo = np.concatenate([lo, nbr[gi, gm]])
        hi = np.concatenate([hi, self.centrals[gi]])
        key = np.concatenate([mi, self._reverse[self._central_basis[gi], gm]])
        order = np.lexsort((key, lo))
        return lo[order], hi[order]

    def neighbor_rows(self, row: int) -> np.ndarray:
        """Row indices of the static neighbors of central row ``row``."""
        c = np.searchsorted(self.centrals, row)
        if c >= len(self.centrals) or self.centrals[c] != row:
            raise ValueError(f"row {row} is not a central site")
        return self.matrix[c][self.valid[c]]

    # ------------------------------------------------------------------
    # Run-away atom management (Figure 3)
    # ------------------------------------------------------------------
    @property
    def runaways(self) -> list[RunawayAtom]:
        """All run-away atoms, in deterministic host-then-insertion order."""
        out: list[RunawayAtom] = []
        for host in sorted(self.hosts):
            out.extend(self.hosts[host])
        return out

    @property
    def n_runaways(self) -> int:
        return sum(len(v) for v in self.hosts.values())

    def _nearest_row(self, x: np.ndarray) -> int:
        """Row index of the lattice point nearest to position ``x``."""
        rank = int(self.lattice.nearest_site(self.box.wrap(x)))
        if self._full:
            return rank
        row = int(np.searchsorted(self.sites, rank))
        if row >= len(self.sites) or self.sites[row] != rank:
            raise KeyError(f"nearest site {rank} not covered by this list")
        return row

    def _link(self, atom: RunawayAtom) -> None:
        self.hosts.setdefault(atom.host, []).append(atom)

    def _unlink(self, atom: RunawayAtom) -> None:
        bucket = self.hosts[atom.host]
        bucket.remove(atom)
        if not bucket:
            del self.hosts[atom.host]

    def update_runaways(
        self,
        state: AtomState,
        threshold: float,
        capture_radius: float | None = None,
    ) -> dict:
        """Detect new run-away atoms and re-home/capture existing ones.

        Parameters
        ----------
        state:
            The atom state to scan and mutate.
        threshold:
            Displacement from the lattice point beyond which an on-lattice
            atom is converted to a run-away (+ vacancy).
        capture_radius:
            A run-away atom within this distance of a *vacant* lattice
            point re-occupies it.  Defaults to ``threshold / 2``.

        Returns
        -------
        dict with counters: ``escaped``, ``captured``, ``relinked``.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        cap = threshold / 2.0 if capture_radius is None else capture_radius
        stats = {"escaped": 0, "captured": 0, "relinked": 0}

        # 1. New escapes: occupied rows displaced beyond the threshold.
        disp = state.displacement(self.box)
        for row in np.flatnonzero(disp > threshold):
            row = int(row)
            atom = RunawayAtom(
                id=int(state.ids[row]),
                x=state.x[row].copy(),
                v=state.v[row].copy(),
                host=row,
                f=state.f[row].copy(),
                rho=float(state.rho[row]),
            )
            state.make_vacancy(row)
            atom.host = self._nearest_row(atom.x)
            self._link(atom)
            stats["escaped"] += 1

        # 2. Existing run-aways: re-link to the now-nearest lattice point;
        #    capture into a vacancy when close enough.
        for atom in list(self.runaways):
            host = self._nearest_row(atom.x)
            if host != atom.host:
                self._unlink(atom)
                atom.host = host
                self._link(atom)
                stats["relinked"] += 1
            dist = float(
                np.linalg.norm(
                    self.box.minimum_image(atom.x - state.site_pos[atom.host])
                )
            )
            if state.ids[atom.host] < 0 and dist <= cap:
                self._unlink(atom)
                state.occupy(atom.host, atom.id, atom.x, atom.v)
                stats["captured"] += 1
        return stats

    # ------------------------------------------------------------------
    # Run-away interaction candidates
    # ------------------------------------------------------------------
    def _runaway_stencil(self, host_row: int) -> np.ndarray:
        """Candidate rows around a run-away atom's host lattice point.

        The paper says a run-away "checks the same neighbor atoms as the
        nearest lattice point it is linked to"; taken literally that
        misses partners near the cutoff edge, because the atom sits up to
        half the first-shell distance from its host (and another run-away
        partner adds the same slack on its side).  The stencil therefore
        reaches ``cutoff + 2 * link + skin``; duplicates from periodic
        aliasing are removed (safe: two images of one site can never both
        be within the cutoff of a point once the box exceeds 2*cutoff).
        The stencil depends on the host row alone, so each is built once
        and cached as a read-only array.
        """
        stencil = self._stencils.get(host_row)
        if stencil is not None:
            return stencil
        link = math.sqrt(3.0) / 4.0 * self.lattice.a
        reach = self.cutoff + 2.0 * link + self.skin
        rank = int(self.sites[host_row])
        neighbors = self.lattice.neighbor_ranks_within(rank, reach)
        if self._full:
            rows = neighbors
        else:
            idx = np.searchsorted(self.sites, neighbors)
            idx = np.minimum(idx, len(self.sites) - 1)
            rows = idx[self.sites[idx] == neighbors]
        stencil = np.unique(np.append(rows, host_row))
        stencil.flags.writeable = False
        self._stencils[host_row] = stencil
        return stencil

    def runaway_candidates(
        self, runs: list[RunawayAtom] | None = None
    ) -> list[tuple[RunawayAtom, np.ndarray]]:
        """(atom, candidate rows) per run-away atom.

        ``runs`` defaults to this list's run-aways.  Candidate partners
        are distance-filtered against the true cutoff by the force
        kernel; this list only needs to be a superset.
        """
        if runs is None:
            runs = self.runaways
        return [(atom, self._runaway_stencil(atom.host)) for atom in runs]

    def runaway_pairs(
        self, runs: list[RunawayAtom] | None = None
    ) -> list[tuple[RunawayAtom, RunawayAtom]]:
        """Unordered run-away/run-away pairs from neighboring linked lists.

        ``runs`` (default: this list's run-aways) must be in host order.
        O(N) in the run-away count: each atom only scans the linked lists
        hanging off its host's static stencil.
        """
        if runs is None:
            runs = self.runaways
        by_host: dict[int, list[RunawayAtom]] = {}
        for atom in runs:
            by_host.setdefault(atom.host, []).append(atom)
        order = {id(a): idx for idx, a in enumerate(runs)}
        hosts = np.array(sorted(by_host), dtype=np.int64)
        pairs = []
        for atom in runs:
            # Stencils are sorted, so the hosts found come in stencil order.
            stencil = self._runaway_stencil(atom.host)
            found = stencil.take(np.searchsorted(stencil, hosts), mode="clip")
            for host in hosts[found == hosts].tolist():
                for other in by_host[host]:
                    if order[id(other)] > order[id(atom)]:
                        pairs.append((atom, other))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatticeNeighborList(sites={len(self.sites)}, "
            f"centrals={len(self.centrals)}, cutoff={self.cutoff}, "
            f"runaways={self.n_runaways})"
        )
