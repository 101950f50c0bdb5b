"""Reference forms of the solver's block normal equations, for the tests.

``solver.solve`` accumulates the Gauss-Newton system straight from the
dense per-group blocks of a ``BlockJacobian``.  The helpers here build the
same matrices the general way, triplet by triplet into a CSR Jacobian, and
convert a ``solver._Normal`` and its reduced block, a
``solver._BandArrow``, to and from a full matrix.
"""

import numpy as np
import scipy.sparse as sp

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
    return solver._Normal(cc, ll, cl, rows, pts)


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
