"""Reference forms of the solver's block normal equations, for the tests.

``solver.solve`` accumulates the Gauss-Newton system straight from the
dense per-group blocks of a ``BlockJacobian``.  The helpers here build the
same matrices the general way, triplet by triplet into a CSR Jacobian, and
convert a ``solver._Normal`` and its reduced block, a
``solver._BandArrow``, to and from a full matrix.  ``pair_band_layout``,
``unique_point_plan`` and ``reference_normal`` plan and accumulate the
normal equations the first way the solver did: the column graph from every
product pair, distinct keys by ``np.unique`` and advanced indexing.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from splinefusion import solver


def assemble_csr(J):
    """The CSR matrix of a ``BlockJacobian``, from one triplet per entry
    in a free column."""
    rows, cols, vals = [], [], []
    row0 = 0
    for M, c in J.blocks:
        num, dim, _ = M.shape
        r = np.broadcast_to(row0 + np.arange(num * dim).reshape(num, dim, 1), M.shape)
        c = np.broadcast_to(c[:, None, :], M.shape)
        free = c >= 0
        rows.append(r[free])
        cols.append(c[free])
        vals.append(M[free])
        row0 += num * dim
    assert row0 == J.shape[0], "the blocks do not cover every residual row"
    if not vals:
        return sp.csr_matrix(J.shape)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=J.shape).tocsr()


def dense_band_arrow(S):
    """The full symmetric matrix of a ``solver._BandArrow``."""
    nc, (w1, nb) = S.order.size, S.band.shape
    A = np.zeros((nc, nc))  # in the permuted order first
    for off in range(w1):
        j = np.arange(nb - off)
        A[j + off, j] = A[j, j + off] = S.band[off, : nb - off]
    A[:, nb:] = S.arrow
    A[nb:, :] = S.arrow.T
    out = np.empty_like(A)
    out[np.ix_(S.order, S.order)] = A
    return out


def dense_normal(H):
    """The full symmetric matrix of a ``solver._Normal``."""
    nc, m = H.cc.order.size, len(H.ll)
    A = np.zeros((nc + 3 * m, nc + 3 * m))
    A[:nc, :nc] = dense_band_arrow(H.cc)
    for j in range(m):
        A[nc + 3 * j : nc + 3 * j + 3, nc + 3 * j : nc + 3 * j + 3] = H.ll[j]
    for row, pt, val in zip(H.rows, H.pts, H.cl):
        A[row, nc + 3 * pt : nc + 3 * pt + 3] = val
        A[nc + 3 * pt : nc + 3 * pt + 3, row] = val
    return A


def block_normal(A, n_points):
    """A symmetric matrix whose last ``n_points`` columns are points, as a
    ``solver._Normal``: the other columns' block a ``solver._BandArrow``
    over the pattern of its nonzero entries, the rows coupled to a point
    in the arrow, as ``solver._normal_equations`` stores it."""
    A = A.toarray() if sp.issparse(A) else np.asarray(A)
    nc, m = A.shape[0] - n_points, n_points // 3
    ll = np.array([A[nc + 3 * j : nc + 3 * j + 3, nc + 3 * j : nc + 3 * j + 3]
                   for j in range(m)]).reshape(m, 3, 3)
    rows, pts = np.nonzero(A[:nc, nc:].reshape(nc, m, 3).any(axis=2))
    cl = A[:nc, nc:].reshape(nc, m, 3)[rows, pts].reshape(-1, 3)
    pairs = np.argwhere(A[:nc, :nc])  # each entry as the set of its two columns
    cc, [(tgt, inv)] = solver._band_layout([pairs], nc, np.unique(rows))
    flat = np.zeros(cc.band.size + cc.arrow.size + 1)
    flat[np.r_[tgt, -1][inv]] = A[pairs[:, :, None], pairs[:, None, :]].ravel()
    cc = solver._BandArrow(cc.order, flat[: cc.band.size].reshape(cc.band.shape),
                           flat[cc.band.size : -1].reshape(cc.arrow.shape))
    return solver._Normal(cc, ll, cl, rows, pts, _arrow_places(cc, rows, pts, m))


def oracle_errors(problem, state):
    """The largest differences of the solver's blockwise H and g from
    J^T J and J^T r of the CSR assembly at ``state``, each relative to the
    largest reference entry, and the nonzero counts of the block Jacobian
    and of the CSR matrix."""
    r, J, _ = problem.linearize(state)
    _, H, g = solver._normal_equations(r, J, problem.num_point_cols)
    Jc = assemble_csr(J)
    H_ref, g_ref = (Jc.T @ Jc).toarray(), Jc.T @ r
    return (np.abs(dense_normal(H) - H_ref).max() / np.abs(H_ref).max(),
            np.abs(g - g_ref).max() / np.abs(g_ref).max(), J.nnz, Jc.nnz)


def _arrow_places(cc, rows, pts, m):
    """The flat places in the (arrow, 3 m) panel of the couplings of the
    arrow ``rows`` of the ``solver._BandArrow`` ``cc`` to the points ``pts``."""
    at = (np.argsort(cc.order)[rows] - cc.band.shape[1]) * 3 * m + 3 * pts
    return (at[:, None] + np.arange(3)).ravel()


def pair_band_layout(sets, nc, coupled):
    """``solver._band_layout`` from a COO matrix of every product pair of
    the ``sets``; the places of each group by ``pair_band_places``."""
    on = [(s[:, :, None] >= 0) & (s[:, None, :] >= 0) for s in sets]
    i, j = (np.concatenate([np.zeros(0, int)] + [
        np.broadcast_to(s[:, :, None] if a else s[:, None, :], o.shape)[o]
        for s, o in zip(sets, on)]) for a in (1, 0))
    rest = np.setdiff1d(np.arange(nc), coupled)
    P = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(nc, nc))[rest][:, rest]
    n = np.diff(P.indptr)
    by_n = np.argsort(-n, kind="stable")
    k = int(np.argmin(np.r_[np.arange(rest.size) + n[by_n] // 2, rest.size]))
    band = np.sort(by_n[k:])
    P = P[band][:, band]
    if band.size:
        rcm = reverse_cuthill_mckee(P, symmetric_mode=True)
        band, P = band[rcm], P[rcm][:, rcm]
    P = P.tocoo()
    w = int(np.max(P.row - P.col, initial=0))
    order = np.r_[rest[band], np.sort(np.r_[coupled, rest[by_n[:k]]])].astype(int)
    zero = solver._BandArrow(order, np.zeros((w + 1, band.size)), np.zeros((nc, nc - band.size)))
    return zero, [pair_band_places(zero, s) for s in sets]


def pair_band_places(zero, sets):
    """``solver._band_places`` with the distinct places by ``np.unique``."""
    nc, (w1, nb) = zero.order.size, zero.band.shape
    at = np.argsort(zero.order)[sets]
    pi = np.where((sets[:, :, None] >= 0) & (sets[:, None, :] >= 0), at[:, :, None], -1)
    pj = at[:, None, :]
    band = (pi >= pj) & (pi < nb)
    if np.any(band & (pi - pj >= w1)):
        return None
    idx = np.where(pi < 0, -1, np.where(pj >= nb, zero.band.size + pi * (nc - nb) + pj - nb,
                                        np.where(band, (pi - pj) * nb + pj, -1))).ravel()
    tgt, inv = np.unique(idx, return_inverse=True)
    if tgt.size and tgt[0] < 0:  # -1 ranks after the places
        tgt, inv = tgt[1:], np.where(inv == 0, tgt.size - 1, inv - 1)
    return tgt, inv


def unique_point_plan(cols, nc, m):
    """``solver._point_plan`` keyed ``row * m + point`` and ranked by
    ``np.unique``, over the picked (factor, column) entries."""
    groups, keys = [], []
    for c in cols:
        pc = np.flatnonzero((c >= nc).any(axis=0))
        pcol = c[:, pc, None] - nc
        pt = np.where(pcol >= 0, pcol // 3, -1).max(axis=(1, 2), initial=-1)
        on = np.flatnonzero((c >= 0) & (pt >= 0)[:, None])
        keys.append((c * m + pt[:, None]).ravel()[on])
        groups.append((pc, (pcol >= 0) & (pcol % 3 == np.arange(3)), on) if pc.size else None)
    keys, inv = np.unique(np.concatenate([np.zeros(0, int)] + keys), return_inverse=True)
    rows, pts = np.divmod(keys, max(m, 1))
    own = rows >= nc
    return dict(groups=groups, inv=inv, n=keys.size, own=own,
                ll=(pts[own], (rows[own] - nc) % 3), rows=rows[~own], pts=pts[~own])


def reference_normal(r, J, n_points, zero=None):
    """``(H, g, places)``: ``solver._normal_equations`` on the plan of
    ``pair_band_layout`` (or the places of ``pair_band_places`` in the
    layout ``zero``) and ``unique_point_plan``, with advanced indexing."""
    nc, m, cols = J.shape[1] - n_points, n_points // 3, [c for _, c in J.blocks]
    sets, points = [solver._set_plan(c, nc) for c in cols], unique_point_plan(cols, nc, m)
    if zero is None:
        zero, places = pair_band_layout([s["sets"] for s in sets], nc, np.unique(points["rows"]))
    else:
        places = [pair_band_places(zero, s["sets"]) for s in sets]
    g, flat, row0, pv = np.zeros(J.shape[1]), np.zeros(zero.band.size + zero.arrow.size), 0, []
    for (M, c), s, (tgt, inv), p in zip(J.blocks, sets, places, points["groups"]):
        num, dim, _ = M.shape
        g += np.bincount(c.ravel() + 1, np.einsum(
            "ndw,nd->nw", M, r[row0 : row0 + num * dim].reshape(num, dim)).ravel(),
            J.shape[1] + 1)[1:]
        row0 += num * dim
        (k, most), u = s["stack"], s["sets"].shape[1]
        P = np.zeros((k, most * dim, u))
        P.reshape(k * most, dim, u)[s["dst"]] = M[:, :, s["used"]]
        flat[tgt] += np.bincount(inv, (np.swapaxes(P, 1, 2) @ P).ravel(), tgt.size + 1)[:-1]
        if p is not None:
            pv.append((np.swapaxes(M, 1, 2) @ (M[:, :, p[0]] @ p[1])).reshape(-1, 3)[p[2]])
    pv = np.concatenate([np.zeros((0, 3))] + pv).T
    pv = np.stack([np.bincount(points["inv"], v, points["n"]) for v in pv], -1)
    ll = np.zeros((m, 3, 3))
    ll[points["ll"]] = pv[points["own"]]
    cc = solver._BandArrow(zero.order, flat[: zero.band.size].reshape(zero.band.shape),
                           flat[zero.band.size :].reshape(zero.arrow.shape))
    rows, pts = points["rows"], points["pts"]
    return (solver._Normal(cc, ll, pv[~points["own"]], rows, pts,
                           _arrow_places(cc, rows, pts, m)), g, places)
