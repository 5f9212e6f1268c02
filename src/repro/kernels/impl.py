"""Loop-form EAM and KMC rate kernels (numba-compatible, numpy-faithful).

Every function here is a scalar-loop twin of a vectorized NumPy
expression in :mod:`repro.md.forces` or :mod:`repro.kmc.events`, written
so its floating-point result is **bit-identical** to the NumPy path on
the same inputs.  That requires replicating NumPy's evaluation order,
not just its mathematics:

* ``np.bincount(idx, weights=w)`` accumulates per bin in input order —
  so do the scatter loops, with separate i/j accumulators combined by
  one elementwise add/subtract at the end, exactly like the
  ``bincount(i) - bincount(j)`` expressions they mirror.
* ``np.sum(a, axis=1)`` over a contiguous row uses NumPy's pairwise
  summation: sequential below 8 elements, one eight-accumulator unrolled
  block with the fixed combine tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
  up to 128.  :func:`pairwise_sum` replicates that block exactly; the
  dispatch layer guards row widths to ``<= 128`` so the recursive-split
  regime is never needed.
* Masked products keep NumPy's ``0.0 * x`` semantics (signed zeros)
  instead of skipping masked slots.
* ``exp`` stays **out** of the kernels: libm's ``exp`` and NumPy's SIMD
  ``exp`` differ in the last ulp, so the rate kernel returns migration
  energies and the caller applies ``nu * np.exp(-de/kt)`` with NumPy in
  both backends.

Tables are passed unpacked as ``(kind, coeff, samples, dx, nseg)``:
``kind == 0`` is the traditional ``(n+1, 7)`` coefficient layout of
:class:`~repro.potential.spline.SplineTable`; ``kind == 1`` is the
compacted sampled-value layout of
:class:`~repro.potential.compact.CompactTable` with on-the-fly
five-point reconstruction (paper §2.1.2).  The unused array is passed
empty so numba sees one stable signature.
"""

from __future__ import annotations

import numpy as np

from repro.kernels._jit import jit

#: Table-kind codes of the unpacked payloads.
KIND_SPLINE = 0
KIND_COMPACT = 1


@jit
def _locate(dx, nseg, x):
    """Segment index and clamped fractional position, as ``spline.locate``.

    Mirrors ``scaled.astype(int)`` (truncation toward zero) and the two
    ``np.clip`` calls, including their sign-of-zero behaviour: a
    negative-zero ``scaled - m`` survives the lower clip exactly as it
    does through ``np.clip(p, 0.0, 1.0)``.
    """
    scaled = x / dx
    m = int(scaled)
    if m < 0:
        m = 0
    elif m > nseg - 1:
        m = nseg - 1
    p = scaled - m
    if p < 0.0:
        p = 0.0
    elif p > 1.0:
        p = 1.0
    return m, p


@jit
def _compact_knot_d(s, nseg, m):
    """Five-point knot derivative with the boundary fallbacks of
    ``CompactTable._knot_derivative`` (conditions are disjoint for the
    ``nseg >= 4`` the constructor guarantees, so order is immaterial)."""
    if m == 0:
        return s[1] - s[0]
    if m == 1:
        return 0.5 * (s[2] - s[0])
    if m == nseg - 1:
        return 0.5 * (s[nseg] - s[nseg - 2])
    if m == nseg:
        return s[nseg] - s[nseg - 1]
    return (s[m - 2] - s[m + 2] + 8.0 * (s[m + 1] - s[m - 1])) / 12.0


@jit
def _table_vd(kind, coeff, samples, dx, nseg, x):
    """Scalar (value, derivative) of either table layout at ``x``."""
    m, p = _locate(dx, nseg, x)
    if kind == KIND_SPLINE:
        v = ((coeff[m, 3] * p + coeff[m, 4]) * p + coeff[m, 5]) * p + coeff[m, 6]
        dv = (coeff[m, 0] * p + coeff[m, 1]) * p + coeff[m, 2]
        return v, dv
    d0 = _compact_knot_d(samples, nseg, m)
    d1 = _compact_knot_d(samples, nseg, m + 1)
    df = samples[m + 1] - samples[m]
    c6 = samples[m]
    c5 = d0
    c4 = 3.0 * df - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * df
    v = ((c3 * p + c4) * p + c5) * p + c6
    dv = ((3.0 * c3 * p + 2.0 * c4) * p + c5) / dx
    return v, dv


@jit
def _table_v(kind, coeff, samples, dx, nseg, x):
    """Scalar value only (``table(x)``); same cubic as :func:`_table_vd`."""
    v, _dv = _table_vd(kind, coeff, samples, dx, nseg, x)
    return v


@jit
def table_vd(kind, coeff, samples, dx, nseg, x):
    """Vectorized (value, derivative) over a 1-D float64 array ``x``."""
    nx = x.shape[0]
    v = np.empty(nx)
    dv = np.empty(nx)
    for q in range(nx):
        a, b = _table_vd(kind, coeff, samples, dx, nseg, x[q])
        v[q] = a
        dv[q] = b
    return v, dv


@jit
def pairwise_sum(a, n):
    """``np.sum(a[:n])`` replicated bit-for-bit for ``n <= 128``.

    NumPy's pairwise reduction runs one unrolled eight-accumulator block
    below 129 elements; the combine tree and the sequential remainder
    tail below are copied from its loop structure.  Callers guard
    ``n <= 128`` (the dispatch layer refuses wider rows).
    """
    if n < 8:
        res = 0.0
        for k in range(n):
            res += a[k]
        return res
    r0 = a[0]
    r1 = a[1]
    r2 = a[2]
    r3 = a[3]
    r4 = a[4]
    r5 = a[5]
    r6 = a[6]
    r7 = a[7]
    i = 8
    lim = n - (n % 8)
    while i < lim:
        r0 += a[i]
        r1 += a[i + 1]
        r2 += a[i + 2]
        r3 += a[i + 3]
        r4 += a[i + 4]
        r5 += a[i + 5]
        r6 += a[i + 6]
        r7 += a[i + 7]
        i += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for k in range(i, n):
        res += a[k]
    return res


@jit
def eam_pass1(
    pk, pc, ps, pdx, pn,
    dk, dc, ds, ddx, dn,
    i, j, r, n,
):
    """Pass 1 of the two-pass EAM evaluation over a half pair list.

    Twin of :func:`repro.md.forces.eam_density`:
    pair/density table lookups per pair, then the density scatter as two
    bincount-order accumulations combined elementwise.  Returns
    ``(phi, dphi, dfd, rho)``; ``fd`` is consumed internally.
    """
    m = r.shape[0]
    phi = np.empty(m)
    dphi = np.empty(m)
    fd = np.empty(m)
    dfd = np.empty(m)
    for q in range(m):
        v, dv = _table_vd(pk, pc, ps, pdx, pn, r[q])
        phi[q] = v
        dphi[q] = dv
        v, dv = _table_vd(dk, dc, ds, ddx, dn, r[q])
        fd[q] = v
        dfd[q] = dv
    acc_i = np.zeros(n)
    acc_j = np.zeros(n)
    for q in range(m):
        acc_i[i[q]] += fd[q]
    for q in range(m):
        acc_j[j[q]] += fd[q]
    rho = acc_i + acc_j
    return phi, dphi, dfd, rho


@jit
def eam_pass2(i, j, dx, dy, dz, r, dphi, dfd, demb, n):
    """Pass 2: force coefficients and the per-axis bincount scatter.

    Twin of :func:`repro.md.forces.eam_forces` after its embedding
    lookup: ``forces[:, k] = bincount(i, c*d_k) - bincount(j, c*d_k)`` over the
    displacement components ``dx``, ``dy``, ``dz`` becomes two
    accumulator matrices subtracted elementwise at the end.
    """
    m = r.shape[0]
    acc_i = np.zeros((n, 3))
    acc_j = np.zeros((n, 3))
    for q in range(m):
        c = (dphi[q] + (demb[i[q]] + demb[j[q]]) * dfd[q]) / r[q]
        wx = c * dx[q]
        wy = c * dy[q]
        wz = c * dz[q]
        acc_i[i[q], 0] += wx
        acc_i[i[q], 1] += wy
        acc_i[i[q], 2] += wz
        acc_j[j[q], 0] += wx
        acc_j[j[q], 1] += wy
        acc_j[j[q], 2] += wz
    return acc_i - acc_j


@jit
def rate_batch(
    ek, ec, es, edx, en,
    e_matrix, e_valid, phi_slots, f_slots,
    first_matrix, first_valid, occ, vrows,
    e_m0, de_min,
):
    """Batched vacancy-hop migration energies (Equation 4, minus the exp).

    Twin of :meth:`repro.kmc.events.KMCModel.vacancy_events_batch` up to
    (but excluding) ``rates = nu * exp(-de/kt)``: returns ``(counts,
    targets, de)`` with events in the same row-major per-vacancy order,
    every row reduction running NumPy's pairwise order via
    :func:`pairwise_sum`.  ``occ`` uses the ATOM=1/VACANCY=0 codes.
    """
    nv = vrows.shape[0]
    mf = first_matrix.shape[1]
    me = e_matrix.shape[1]
    counts = np.zeros(nv, np.int64)
    ntot = 0
    for a in range(nv):
        v = vrows[a]
        c = 0
        for s in range(mf):
            if first_valid[v, s] and occ[first_matrix[v, s]] == 1:
                c += 1
        counts[a] = c
        ntot += c
    targets = np.empty(ntot, np.int64)
    vidx = np.empty(ntot, np.int64)
    pos = 0
    for a in range(nv):
        v = vrows[a]
        for s in range(mf):
            t = first_matrix[v, s]
            if first_valid[v, s] and occ[t] == 1:
                targets[pos] = t
                vidx[pos] = a
                pos += 1
    de = np.empty(ntot)
    if ntot == 0:
        return counts, targets, de
    # Per-vacancy (sum phi, sum f) under current occupancy; masked slots
    # contribute 0.0 * slot exactly as the occ_n product does.
    s_phi = np.empty(nv)
    s_f = np.empty(nv)
    tmp = np.empty(me)
    for a in range(nv):
        v = vrows[a]
        for s in range(me):
            w = float(occ[e_matrix[v, s]]) if e_valid[v, s] else 0.0
            tmp[s] = w * phi_slots[v, s]
        s_phi[a] = pairwise_sum(tmp, me)
        for s in range(me):
            w = float(occ[e_matrix[v, s]]) if e_valid[v, s] else 0.0
            tmp[s] = w * f_slots[v, s]
        s_f[a] = pairwise_sum(tmp, me)
    for e in range(ntot):
        t = targets[e]
        # E_before: EAM site energy of the hopping atom at its origin t.
        for s in range(me):
            w = float(occ[e_matrix[t, s]]) if e_valid[t, s] else 0.0
            tmp[s] = w * phi_slots[t, s]
        bp = pairwise_sum(tmp, me)
        for s in range(me):
            w = float(occ[e_matrix[t, s]]) if e_valid[t, s] else 0.0
            tmp[s] = w * f_slots[t, s]
        bf = pairwise_sum(tmp, me)
        e_before = 0.5 * bp + _table_v(ek, ec, es, edx, en, bf)
        # E_after: sums at the vacancy row minus the target's own slots
        # (the match-product keeps 0.0 * phi ordering of the NumPy path).
        v = vrows[vidx[e]]
        for s in range(me):
            mm = 1.0 if (e_valid[v, s] and e_matrix[v, s] == t) else 0.0
            tmp[s] = phi_slots[v, s] * mm
        dphi = pairwise_sum(tmp, me)
        for s in range(me):
            mm = 1.0 if (e_valid[v, s] and e_matrix[v, s] == t) else 0.0
            tmp[s] = f_slots[v, s] * mm
        df = pairwise_sum(tmp, me)
        e_after = 0.5 * (s_phi[vidx[e]] - dphi) + _table_v(
            ek, ec, es, edx, en, s_f[vidx[e]] - df
        )
        val = e_m0 + 0.5 * (e_after - e_before)
        de[e] = val if val > de_min else de_min
    return counts, targets, de
