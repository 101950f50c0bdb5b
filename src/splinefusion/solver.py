"""Levenberg-Marquardt least squares over heterogeneous parameter blocks.

Parameter blocks are either euclidean vectors or rotations; rotation blocks
are updated on the manifold with the right retraction ``R <- R @ Exp(delta)``.
Residuals are supplied by *factor groups*: vectorized batches of identically
shaped factors.  A group names the blocks each factor reads as *slots*,
fixed ones in its ``slots`` attribute or state-dependent ones from its own
``build``; a slot gives each factor one block or a *window* of blocks of one
kind, such as the k nodes a spline sample reads.  Each group gathers its
per-factor block values (a shared window once) into dense arrays and
evaluates all residuals at once; a kernel call with ``jacobians=True`` also
returns the exact per-slot Jacobians, a window's blocks side by side, and
central differences on the gathered values fill the other slots: those of
DT preintegration.  Each family declares the factors on a jump of its
residuals through ``FactorGroup.jumps``.

The normal equations are accumulated from each group's dense per-factor
Jacobians, as block-sparse bundle adjusters do, after a plan made once per
Jacobian structure (the symbolic/numeric split of sparse Cholesky, Davis,
"Direct Methods for Sparse Linear Systems", 2006).  Blocks declared as
*points* (free 3-vectors that no factor joins to another point, such as
bundle-adjustment landmarks) take the last columns; each damped system
eliminates them by Schur complement, with one batched Cholesky
factorization of their 3x3 diagonal blocks.  The reduced system over the
other columns is a band plus an arrow (:class:`_BandArrow`), after Triggs
et al., "Bundle Adjustment - A Modern Synthesis" (2000): the columns
coupled to a point and the densest others form the arrow, which takes the
point fill and is eliminated last by a dense Schur complement; the rest
form a band in reverse Cuthill-McKee order of the pattern of S^T S, S the
incidence of factor column sets on them.  Rows move by ``np.take``/``np.put``.

One LM loop, :func:`_levenberg_marquardt`, holds the damping (from a fixed
start), acceptance and termination rules: :func:`solve` runs it on a
:class:`Problem`, the PnP refinement on its dense 6-column system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import (InvalidArgumentError, NumericalFailureError, OutOfDomainError,
                     require_finite, require_int)
from .rotations import so3_exp

EUCLIDEAN = "euclidean"
ROTATION = "rotation"

CONVERGED = "converged"
MAX_ITER = "max_iter"
STALLED = "stalled"
DISCONTINUOUS = "discontinuous"

# The LM loop starts with damping _LM_LAMBDA0, stops as converged when the
# gradient's largest entry is below _ABS_TOL, and raises after _MAX_REJECTS
# damped systems of one iteration all fail to factor into a finite step.
_LM_LAMBDA0 = 1e-4
_ABS_TOL = 1e-12
_MAX_REJECTS = 40


@dataclass
class State:
    """Snapshot of all block values; immutable by convention during evaluation."""

    euc: np.ndarray  # flat storage of all euclidean blocks
    rot: np.ndarray  # (n_rot, 3, 3) storage of all rotation blocks

    def copy(self):
        return State(self.euc.copy(), self.rot.copy())


@dataclass
class _BlockMeta:
    name: str
    kind: str
    dim: int  # tangent dimension (3 for rotations)
    store: int  # offset into euc, or index into rot
    fixed: bool
    bounds: tuple | None
    point: bool = False
    col: int = -1  # tangent column offset, -1 if fixed


class Slot:
    """One parameter slot of a factor group.

    ``block_ids`` maps each factor to the block filling this slot (a scalar
    means the block is shared by all factors in the group), or, of shape
    (num, w), to a window of w blocks of the slot's ``kind`` and ``dim``.
    With ``rows`` (num,), each factor's window among them, ``block_ids``
    gives each distinct window once and the slot gathers those.  The slot's
    Jacobian is (num, dim_r, w * dim), per factor: the blocks' columns side
    by side, w = 1 for a single block.
    """

    def __init__(self, block_ids, kind, dim, rows=None):
        self.block_ids = np.atleast_1d(np.asarray(block_ids, dtype=int))
        self.kind = kind
        self.dim = dim
        self.width = self.block_ids.shape[1] if self.block_ids.ndim == 2 else 1
        self.rows = None if rows is None else np.asarray(rows, dtype=int)

    def factor_blocks(self):
        return self.block_ids if self.rows is None else self.block_ids[self.rows]


def window_jacobian(J):
    """The Jacobian (..., a, w * b) of a window slot from its per-block
    Jacobians J (..., w, a, b)."""
    return np.swapaxes(J, -3, -2).reshape(J.shape[:-3] + (J.shape[-2], -1))


class FactorGroup:
    """Base class for vectorized residual families.

    Subclasses implement :meth:`kernel` and give their slots: a family
    whose slots do not depend on the state sets ``slots`` (and ``ctx``, if
    its kernel reads one) and takes the default :meth:`build`; one whose
    slots or context move with the state overrides :meth:`build`.  A
    family's residuals are a function of the state alone: the discrete-time
    preintegration, for one, is integrated once when the group is made, at
    the initial biases of its problem, and sets a fixed ``ctx``.  The
    kernel is the one Jacobian protocol: ``kernel(ctx, gathered)``
    returns the whitened residuals, and ``kernel(ctx, gathered,
    jacobians=True)`` returns ``(r, jacs)`` with the same ``r`` and the
    exact Jacobians it has, slot index -> (num, dim, width * tdim), a
    window slot's blocks side by side (:func:`window_jacobian`).  A slot
    missing from ``jacs`` gets central finite differences
    (:meth:`_fd_slot`), which are also the test oracle of the exact ones;
    each of their kernel calls passes the unmoved slots as the same
    arrays, so a kernel may keep the parts of its residual that read only
    those.  Every family is exact in every slot except the discrete-time
    preintegration group; the continuous-time families that sample the
    pose state their derivatives in the sampled pose and get the ones in
    the spline window from ``estimators._SplineGroup``.  A family whose
    residuals jump (the SO(3) spline families, at a control pair near
    angle pi) names the factors on a jump through :meth:`jumps`, which
    reads the kernel's inputs, ``jumps(ctx, gathered)``; nothing else
    looks for them.
    """

    name = "group"
    dim = 1  # residual dimension per factor
    fd_step = 1e-6
    ctx = None

    def build(self, problem, state):
        """Return (ctx, [Slot, ...]) at the current state: by default the
        ``ctx`` and ``slots`` that a family with fixed slots sets."""
        return self.ctx, self.slots

    def kernel(self, ctx, gathered, jacobians=False):
        """Whitened residuals (num, dim) from gathered slot values, or
        ``(r, jacs)`` with ``jacobians=True``."""
        raise NotImplementedError

    def jumps(self, ctx, gathered):
        """Mask of the factors whose residuals jump within ``fd_step`` of
        the gathered slot values; none by default."""
        return False

    # -- shared machinery ---------------------------------------------------

    def inputs(self, problem, state):
        """``(ctx, slots, gathered)``: :meth:`build` at ``state`` and the
        slot values the kernel reads."""
        ctx, slots = self.build(problem, state)
        return ctx, slots, [problem.gather(state, s) for s in slots]

    def residuals(self, problem, state):
        ctx, _, gathered = self.inputs(problem, state)
        return self.kernel(ctx, gathered)

    def linearize(self, problem, state):
        """Residuals, per-slot Jacobians and the factors on a jump.

        Returns ``(r, slots, jacs, jumps)``; ``jumps`` is the (num,) bool
        mask of the factors :meth:`jumps` names.
        """
        ctx, slots, gathered = self.inputs(problem, state)
        r, jacs = self.kernel(ctx, gathered, jacobians=True)
        jumps = np.zeros(r.shape[0], dtype=bool) | self.jumps(ctx, gathered)
        for si, slot in enumerate(slots):
            if si not in jacs:
                jacs[si] = self._fd_slot(ctx, gathered, si, slot)
        return r, slots, jacs, jumps

    def _fd_slot(self, ctx, gathered, si, slot):
        """Central differences (num, dim, width * tdim) in the tangent space
        of slot ``si``, one block of each factor's window at a time:
        euclidean steps, or ``R <- R Exp(+-h e_a)`` for a rotation."""
        h, value = self.fd_step, gathered[si]
        item = (3, 3) if slot.kind == ROTATION else (slot.dim,)
        blocks = value.reshape((len(value), slot.width) + item)
        cols = []
        for j, a in np.ndindex(slot.width, slot.dim):
            if slot.kind == ROTATION:
                dR = so3_exp(h * np.eye(3)[a])
                moved = (blocks[:, j] @ dR, blocks[:, j] @ dR.T)
            else:
                step = h * np.eye(slot.dim)[a]
                moved = (blocks[:, j] + step, blocks[:, j] - step)
            f = []
            for m in moved:
                window = blocks.copy()
                window[:, j] = m
                f.append(self.kernel(ctx, gathered[:si] + [window.reshape(value.shape)]
                                     + gathered[si + 1:]))
            cols.append((f[0] - f[1]) / (2 * h))
        return np.stack(cols, axis=-1)


@dataclass
class BlockJacobian:
    """The Jacobian of :meth:`Problem.linearize` as ``blocks``, one ``(M,
    cols)`` per group in residual order: ``M`` (num, dim, w) holds the
    Jacobians of its slots with a free block side by side, ``cols`` (num, w)
    their columns, -1 if fixed; a group with no free slot has w = 0."""

    blocks: list
    shape: tuple

    @property
    def nnz(self):
        """Entries of a sparse assembly: each row's distinct free columns."""
        return sum(M.shape[1] * np.count_nonzero(
            np.diff(np.sort(c, axis=1), axis=1, prepend=-1)) for M, c in self.blocks)


class Problem:
    """Ordered parameter blocks plus factor groups.

    A euclidean block added with ``point=True`` is a *point*: a free
    3-vector, such as a landmark, that no factor joins to another point.
    The builder states this about the block; the solver relies on it to
    eliminate the points from every damped system (see :func:`_solve_normal`)
    and :meth:`linearize` raises :class:`InvalidArgumentError` for a factor
    that joins two points.  Free points take the last tangent columns.
    """

    def __init__(self):
        self.blocks: list[_BlockMeta] = []
        self._by_name: dict[str, int] = {}
        self.groups: list[FactorGroup] = []
        self._euc_size = 0
        self._rot_count = 0
        self._euc_init: list[np.ndarray] = []
        self._rot_init: list[np.ndarray] = []
        self._layout_dirty = True
        self.num_cols = 0
        self.num_point_cols = 0
        # set by the problem's builder, e.g. state field -> block ids
        self.meta = {}

    # -- blocks -------------------------------------------------------------

    def add_euclidean(self, name, value, fixed=False, bounds=None, point=False):
        value = np.atleast_1d(np.asarray(value, dtype=float))
        if not np.all(np.isfinite(value)):
            raise InvalidArgumentError(f"non-finite initial value for block {name}")
        if point and (value.size != 3 or bounds is not None):
            raise InvalidArgumentError(
                f"point block {name} must be an unbounded 3-vector")
        meta = _BlockMeta(name, EUCLIDEAN, value.size, self._euc_size, fixed,
                          bounds, point)
        self._euc_size += value.size
        self._euc_init.append(value)
        return self._register(meta)

    def add_rotation(self, name, value):
        value = np.asarray(value, dtype=float)
        if value.shape != (3, 3):
            raise InvalidArgumentError("rotation block must be a 3x3 matrix")
        meta = _BlockMeta(name, ROTATION, 3, self._rot_count, False, None)
        self._rot_count += 1
        self._rot_init.append(value)
        return self._register(meta)

    def _register(self, meta):
        if meta.name in self._by_name:
            raise InvalidArgumentError(f"duplicate block name {meta.name}")
        bid = len(self.blocks)
        self.blocks.append(meta)
        self._by_name[meta.name] = bid
        self._layout_dirty = True
        return bid

    def add_group(self, group):
        self.groups.append(group)

    # -- state access -------------------------------------------------------

    def initial_state(self):
        euc = (
            np.concatenate(self._euc_init) if self._euc_init else np.zeros(0)
        )
        rot = (
            np.stack(self._rot_init) if self._rot_init else np.zeros((0, 3, 3))
        )
        return State(euc, rot)

    def block_value(self, state, block):
        meta = self.blocks[block] if isinstance(block, (int, np.integer)) else (
            self.blocks[self._by_name[block]]
        )
        if meta.kind == ROTATION:
            return state.rot[meta.store]
        return state.euc[meta.store : meta.store + meta.dim]

    def gather(self, state, slot: Slot):
        """Per-factor values for a slot: (num, dim) or (num, 3, 3), a
        window's (num, w, dim) or (num, w, 3, 3), for ``rows`` per window."""
        stores = self._store_array.take(slot.block_ids)
        if slot.kind == ROTATION:
            return state.rot.take(stores, axis=0)
        return state.euc.take(stores[..., None] + np.arange(slot.dim))

    # -- layout -------------------------------------------------------------

    def _layout(self):
        """Assign tangent columns (free points last) and the index arrays
        :meth:`retract` applies a step with."""
        if not self._layout_dirty:
            return
        free = [m for m in self.blocks if not m.fixed]
        for meta in self.blocks:
            meta.col = -1
        col = 0
        for meta in [m for m in free if not m.point] + [m for m in free if m.point]:
            meta.col = col
            col += meta.dim
        self.num_cols = col
        self._columns_memo = {}
        self._point_names = [m.name for m in free if m.point]
        self.num_point_cols = 3 * len(self._point_names)
        self._store_array = np.array([m.store for m in self.blocks], dtype=int)
        self._col_array = np.array([m.col for m in self.blocks], dtype=int)

        def spans(metas, attr):
            return np.array([getattr(m, attr) + i for m in metas for i in range(m.dim)],
                            dtype=int)

        rot = [m for m in free if m.kind == ROTATION]
        euc = [m for m in free if m.kind == EUCLIDEAN]
        self._rot_stores = np.array([m.store for m in rot], dtype=int)
        self._rot_cols = spans(rot, "col").reshape(-1, 3)
        self._euc_stores = spans(euc, "store")
        self._euc_cols = spans(euc, "col")
        self._bounded = [m for m in euc if m.bounds is not None]
        self._bounded_stores = spans(self._bounded, "store")
        self._bounds = np.array(
            [[b for m in self._bounded for b in np.broadcast_to(m.bounds[side], m.dim)]
             for side in (0, 1)], dtype=float).reshape(2, -1)
        self._layout_dirty = False

    @property
    def free_cols(self):
        self._layout()
        return self.num_cols

    def retract(self, state, delta):
        """Apply a tangent step; clamps bounded euclidean blocks."""
        self._layout()
        new = state.copy()
        if self._rot_stores.size:
            new.rot[self._rot_stores] = (
                state.rot[self._rot_stores] @ so3_exp(delta[self._rot_cols]))
        new.euc[self._euc_stores] += delta[self._euc_cols]
        b = self._bounded_stores
        new.euc[b] = np.clip(new.euc[b], *self._bounds)
        return new

    def at_bound(self, state):
        """Names of the free bounded blocks with an entry on a bound."""
        self._layout()
        names = []
        for meta in self._bounded:
            v = state.euc[meta.store : meta.store + meta.dim]
            if np.any((v == meta.bounds[0]) | (v == meta.bounds[1])):
                names.append(meta.name)
        return names

    # -- evaluation ---------------------------------------------------------

    def residual_vector(self, state):
        self._layout()
        parts = [g.residuals(self, state).ravel() for g in self.groups]
        return np.concatenate(parts) if parts else np.zeros(0)

    def linearize(self, state):
        """Full residual vector, its :class:`BlockJacobian` over the free
        tangent columns (a slot whose blocks are all fixed is left out), and
        the number of factors on a jump (see :meth:`FactorGroup.linearize`).

        Raises :class:`InvalidArgumentError` when a factor's columns fall in
        two point blocks, through two slots or through one slot wider than a
        point.
        """
        self._layout()
        res, blocks, jump_rows = [], [], 0
        for gi, group in enumerate(self.groups):
            r, slots, jacs, jumps = group.linearize(self, state)
            jump_rows += int(np.count_nonzero(jumps))
            num, dim = r.shape
            res.append(r.ravel())
            # the columns of the block, built and checked once per slot structure
            key = (num, [(s.dim, s.block_ids.shape, s.block_ids.tobytes(),
                          None if s.rows is None else s.rows.tobytes())
                         for s in slots])
            if self._columns_memo.get(gi, (None,))[0] != key:
                self._columns_memo[gi] = (key, *self._columns(group, slots, num))
            free, cols = self._columns_memo[gi][1:]
            if num:  # the normal equations take no empty group
                blocks.append((np.concatenate([np.zeros((num, dim, 0))] + [
                    np.broadcast_to(jacs[si], (num, dim, slots[si].width * slots[si].dim))
                    for si in free], axis=2), cols))
        r_all = np.concatenate(res) if res else np.zeros(0)
        return r_all, BlockJacobian(blocks, (r_all.size, self.num_cols)), jump_rows

    def _columns(self, group, slots, num):
        """The slots with a free block and the (num, w) columns of their
        blocks, a window's side by side; raises unless each factor's columns
        fall in at most one point."""
        # each block's first column per factor, -1 if fixed
        starts = [np.broadcast_to(self._col_array[s.factor_blocks()].reshape(-1, s.width),
                                  (num, s.width))[..., None] for s in slots]
        free = [si for si, c in enumerate(starts) if (c >= 0).any()]
        cols = np.hstack([np.zeros((num, 0), int)] + [
            np.where(starts[si] >= 0, starts[si] + np.arange(slots[si].dim), -1)
            .reshape(num, -1) for si in free])
        p0 = self.num_cols - self.num_point_cols  # first point column
        points = np.where(cols >= p0, (cols - p0) // 3, -1)
        top = points.max(axis=1, keepdims=True, initial=-1)
        bad = np.argwhere((points >= 0) & (points != top))
        if bad.size:
            i, j = bad[0]
            raise InvalidArgumentError(
                f"a factor of group {group.name} joins the point blocks "
                f"{self._point_names[points[i, j]]} and {self._point_names[top[i, 0]]}")
        return free, cols


@dataclass
class SolveOptions:
    """Iteration cap (an int >= 1) and the relative cost drop (finite >= 0)
    below which an accepted step ends the solve as converged."""

    max_iter: int = 50
    rel_tol: float = 1e-8

    def __post_init__(self):
        require_int("max_iter", self.max_iter, 1)
        require_finite("rel_tol", self.rel_tol, positive=False)


@dataclass
class SolveReport:
    """Outcome of :func:`solve`.

    ``termination`` is one of:

    - ``"converged"``: the relative cost drop fell below ``rel_tol``, the
      gradient vanished, or no damped step lowered a cost whose gradient is
      already below 1e-6;
    - ``"max_iter"``: the iteration cap was reached first;
    - ``"stalled"``: no damped step lowered the cost;
    - ``"discontinuous"``: the groups name ``jump_rows`` factors on a jump
      at the returned state (:meth:`FactorGroup.jumps`), so it is not a
      stationary point of a smooth cost.  This overrides the other three.

    ``converged`` is True only for ``"converged"``.  ``at_bound`` names the
    bounded blocks whose returned value lies on a bound (see
    :meth:`Problem.at_bound`); it does not change ``termination``.
    ``grad_norm`` is the gradient's inf-norm at the start of the last
    iteration, not at the returned state.
    """

    iterations: int
    initial_cost: float
    final_cost: float
    termination: str
    cost_history: list = field(default_factory=list)
    grad_norm: float = float("nan")
    jump_rows: int = 0
    at_bound: list = field(default_factory=list)

    @property
    def converged(self):
        return self.termination == CONVERGED


@dataclass
class _Normal:
    """J^T J in blocks: ``cc`` the :class:`_BandArrow` over the non-point
    columns, ``ll`` the (m, 3, 3) point blocks, ``cl`` (K, 3) the coupling
    of row ``rows[k]`` (ascending), an arrow column of ``cc``, to point
    ``pts[k]``, ``yat`` (3K,) its flat places in the (arrow, 3m) panel."""

    cc: object
    ll: np.ndarray
    cl: np.ndarray
    rows: np.ndarray
    pts: np.ndarray
    yat: np.ndarray

    def diagonal(self):
        return np.concatenate([self.cc.diagonal(), np.einsum("nii->ni", self.ll).ravel()])


@dataclass
class _BandArrow:
    """A symmetric matrix over nc columns, taken in the permuted order
    ``order``: its first nb as the lower band ``band`` (w + 1, nb) that
    ``scipy.linalg.cholesky_banded`` takes, ``band[i - j, j]`` holding entry
    (i, j), and the rest, the arrow, as the panel ``arrow`` (nc, nc - nb)
    of their columns, whose rows are in ``order`` too."""

    order: np.ndarray
    band: np.ndarray
    arrow: np.ndarray

    def diagonal(self):
        d = np.r_[self.band[0], np.diagonal(self.arrow[self.band.shape[1]:])]
        return d[np.argsort(self.order)]


def _band_layout(sets, nc, coupled):
    """A :class:`_BandArrow` of read-only zeros for the products of the
    groups' ``sets``, the columns ``coupled`` to a point in the arrow, where
    the point fill lands; and per group the :func:`_band_places` of its
    products."""
    on = [(s >= 0) & ~np.isin(s, coupled) for s in sets]
    ptr = np.cumsum(np.concatenate([[0]] + [o.sum(axis=1) for o in on]))
    S = sp.csr_matrix((np.ones(ptr[-1]), np.concatenate([np.zeros(0, int)] + [
        s[o] for s, o in zip(sets, on)]), ptr), shape=(ptr.size - 1, nc))
    rest = np.setdiff1d(np.arange(nc), coupled)
    P = (S.T @ S).tocsr()[rest][:, rest]
    # A column with n entries puts one at least n // 2 places off the
    # diagonal in any order.  The k densest columns go to the arrow, for the
    # k that makes k plus that bound over the other columns least.
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
    zero = _BandArrow(order, np.broadcast_to(0.0, (w + 1, band.size)),
                      np.broadcast_to(0.0, (nc, nc - band.size)))
    return zero, [_band_places(zero, s) for s in sets]


def _band_places(zero, sets):
    """The distinct places ``tgt`` in the flat band and arrow of the
    :class:`_BandArrow` ``zero`` of the products of one group's ``sets``,
    and each product's int32 index ``inv`` in ``tgt`` (:func:`_rank`); None
    when a product falls outside the band."""
    nc, (w1, nb) = zero.order.size, zero.band.shape
    at = np.argsort(zero.order)[sets]
    pi = np.where((sets[:, :, None] >= 0) & (sets[:, None, :] >= 0), at[:, :, None], -1)
    pj = at[:, None, :]
    band = (pi >= pj) & (pi < nb)
    if np.any(band & (pi - pj >= w1)):
        return None
    idx = np.where(pi < 0, -1, np.where(pj >= nb, zero.band.size + pi * (nc - nb) + pj - nb,
                                        np.where(band, (pi - pj) * nb + pj, -1))).ravel()
    return _rank(idx, zero.band.size + zero.arrow.size)


def _rank(keys, size):
    """The sorted distinct ``keys`` in range(size) and their int32 ranks, -1 last."""
    seen = np.zeros(size + 1, bool)
    seen[keys] = True  # -1 marks the last
    tgt, rank = np.flatnonzero(seen), np.empty(size + 1, np.int32)
    rank[tgt] = np.arange(tgt.size, dtype=np.int32)
    return tgt[: tgt.size - seen[-1]], rank[keys]


def _set_plan(cols, nc):
    """One group's sets, the runs of its factors that share their non-point
    columns once stably sorted on them: those columns ``sets`` and the place
    ``dst`` of each factor's rows in the (sets, largest set) stack."""
    num, cam = len(cols), np.where(cols < nc, cols, -1)
    used = np.flatnonzero((cam >= 0).any(axis=0))
    order = np.argsort(cam[:, used] @ (np.arange(used.size) + 1), kind="stable")
    sets = cam[order][:, used]
    start = np.flatnonzero(np.r_[True, (sets[1:] != sets[:-1]).any(axis=1)])
    size = np.diff(np.append(start, num))
    dst = np.empty(num, np.intp)
    dst[order] = np.repeat(np.arange(start.size) * size.max() - start, size) + np.arange(num)
    return dict(used=slice(None) if used.size == cols.shape[1] else used, dst=dst,
                stack=(start.size, size.max()), sets=sets[start])


def _point_plan(cols, nc, m):
    """Per group with a point, its columns holding one and each factor's
    pick of its point's columns; ``inv`` ranks each free (factor, column,
    axis) entry of those groups among the (row, point) keys: ``ncl`` coupling
    rows ``row * m + point``, then the own rows ``nc * m + row - nc``."""
    groups, keys = [], []
    for c in cols:
        pc = np.flatnonzero((c >= nc).any(axis=0))
        pcol = c[:, pc, None] - nc
        pt = np.where(pcol >= 0, pcol // 3, -1).max(axis=(1, 2), initial=-1)
        groups.append((pc, (pcol >= 0) & (pcol % 3 == np.arange(3))) if pc.size else None)
        keys += [np.where((c >= 0) & (pt >= 0)[:, None], np.where(
            c < nc, c * m + pt[:, None], nc * m - nc + c), -1).ravel()] if pc.size else []
    keys, inv = _rank(np.concatenate([np.zeros(0, int)] + keys), (nc + 3) * m)
    ncl = int(np.searchsorted(keys, nc * m))
    (rows, pts), own = np.divmod(keys[:ncl], max(m, 1)), keys[ncl:] - nc * m
    return dict(groups=groups, inv=(3 * inv[:, None] + np.arange(3)).ravel(), n=keys.size,
                ncl=ncl, rows=rows, pts=pts, ll=(3 * own[:, None] + np.arange(3)).ravel())


def _plan(J, n_points, memo):
    """The pattern work of :func:`_normal_equations`, kept in ``memo`` until
    a group's ``cols`` change: the groups' sets, point couplings and layout.
    Changed groups without points are planned again and placed in the kept
    layout; a changed group with points, or a product outside the band,
    plans all anew."""
    nc, cols, old = J.shape[1] - n_points, [c for _, c in J.blocks], memo.get("cols")
    if old is not None and len(old) == len(cols):
        moved = [gi for gi, (a, c) in enumerate(zip(old, cols)) if not np.array_equal(a, c)]
        sets = {gi: _set_plan(cols[gi], nc) for gi in moved
                if memo["points"]["groups"][gi] is None and not np.any(cols[gi] >= nc)}
        at = {gi: _band_places(memo["zero"], s["sets"]) for gi, s in sets.items()}
        if len(sets) == len(moved) and None not in at.values():
            for gi in moved:
                memo["sets"][gi], memo["at"][gi] = sets[gi], at[gi]
            memo["cols"] = cols
            return memo
    memo.clear()  # the old plan goes before the new one is made
    sets, points = [_set_plan(c, nc) for c in cols], _point_plan(cols, nc, n_points // 3)
    zero, at = _band_layout([s["sets"] for s in sets], nc, np.unique(points["rows"]))
    y = (np.argsort(zero.order)[points["rows"]] - zero.band.shape[1]) * n_points
    points["yat"] = ((y + 3 * points["pts"])[:, None] + np.arange(3)).ravel()
    memo.update(cols=cols, sets=sets, points=points, zero=zero, at=at)
    return memo


def _normal_equations(r, J, n_points, memo=None):
    """``(r, H, g)``: ``r``, J^T J as a :class:`_Normal` and J^T r from the
    :class:`BlockJacobian` J whose last ``n_points`` columns are points,
    after the :func:`_plan` kept in the dict ``memo``, if given.  Per group
    one gather stacks each set's factors, one batched M^T M per set goes on
    by one ``bincount``, and each factor's M^T M_point on its point's rows."""
    plan = _plan(J, n_points, {} if memo is None else memo)
    n, points, zero, row0, pv = J.shape[1], plan["points"], plan["zero"], 0, [np.zeros(0)]
    g, flat = np.zeros(n), np.zeros(zero.band.size + zero.arrow.size)
    for (M, cols), s, (tgt, inv), p in zip(J.blocks, plan["sets"], plan["at"], points["groups"]):
        num, dim, _ = M.shape
        rows = r[row0 : row0 + num * dim].reshape(num, dim)
        row0 += num * dim
        g += np.bincount(cols.ravel() + 1, np.einsum("ndw,nd->nw", M, rows).ravel(),
                         n + 1)[1:]  # fixed columns (-1) fall in bin 0
        (sets, most), u = s["stack"], s["sets"].shape[1]
        P = np.zeros((sets, most * dim, u))
        P.reshape(sets * most, dim, u)[s["dst"]] = M[:, :, s["used"]]
        flat[tgt] += np.bincount(inv, (np.swapaxes(P, 1, 2) @ P).ravel(), tgt.size + 1)[:-1]
        if p is not None:
            pv.append((np.swapaxes(M, 1, 2) @ (M[:, :, p[0]] @ p[1])).ravel())
    n3, ncl = 3 * points["n"], points["ncl"]
    pv = np.bincount(points["inv"], np.concatenate(pv), n3 + 3)[:n3].reshape(-1, 3)
    ll = np.zeros((n_points // 3, 3, 3))
    np.put(ll, points["ll"], pv[ncl:])
    cc = _BandArrow(zero.order, flat[: zero.band.size].reshape(zero.band.shape),
                    flat[zero.band.size :].reshape(zero.arrow.shape))
    return r, _Normal(cc, ll, pv[:ncl], points["rows"], points["pts"], points["yat"]), g


def _solve_normal(H, d, g):
    """The step x of ``(H + diag(d)) x = -g`` for a :class:`_Normal` H.  The
    points' damped 3x3 blocks are factored as L L^T in one batch and
    eliminated: with Y = H_cl L^-T, S = H_cc + diag(d_c) - Y Y^T gives x_c,
    and x_l = L^-T (L^-1 b_l - Y^T x_c), b = -g.  Y has rows in the arrow
    alone, so Y Y^T is one dense product there.  S = [B C; C^T E] is
    factored blockwise: B = L_B L_B^T by banded Cholesky, then E - Z^T Z,
    Z = L_B^-1 C, by dense Cholesky.  An S or a point block that is not
    positive definite raises ``np.linalg.LinAlgError``."""
    A, m, nc, nb = H.cc, len(H.ll), H.cc.order.size, H.cc.band.shape[1]
    Linv = np.linalg.inv(np.linalg.cholesky(H.ll + d[nc:].reshape(m, 3, 1) * np.eye(3)))
    Y = np.zeros((nc - nb, 3 * m))  # the arrow rows of Y
    np.put(Y, H.yat, np.einsum("ka,kba->kb", H.cl, Linv.take(H.pts, axis=0)))
    y = np.einsum("nij,nj->ni", Linv, -g[nc:].reshape(m, 3)).ravel()
    dc, b = d[:nc][A.order], -g[:nc][A.order]
    b[nb:] -= Y @ y
    L = sla.cholesky_banded(np.r_[A.band[:1] + dc[:nb], A.band[1:]], lower=True,
                            check_finite=False)
    Z = _band_solve(L, np.column_stack([A.arrow[:nb], b[:nb]]), "N")  # L_B^-1 [C b]
    Zc, z = Z[:, :-1], Z[:, -1]
    E = A.arrow[nb:] + np.diag(dc[nb:]) - Y @ Y.T - Zc.T @ Zc
    x2 = sla.cho_solve(sla.cho_factor(E, overwrite_a=True, check_finite=False),
                       b[nb:] - Zc.T @ z, check_finite=False)
    x = np.r_[_band_solve(L, (z - Zc @ x2)[:, None], "T")[:, 0], x2][np.argsort(A.order)]
    return np.concatenate(
        [x, np.einsum("nji,nj->ni", Linv, (y - Y.T @ x2).reshape(m, 3)).ravel()])


def _band_solve(L, B, trans):
    """L^-1 B (``trans`` "N") or L^-T B ("T") for the lower banded factor
    L of ``scipy.linalg.cholesky_banded``; B itself for an empty band, on
    which ``dtbtrs`` writes out of bounds."""
    if not L.shape[1]:
        return B
    X, info = lapack.dtbtrs(L, B, uplo="L", trans=trans)
    if info:
        raise np.linalg.LinAlgError(f"banded triangular solve failed (info {info})")
    return X


def _same_state(a, b):
    """True when the states ``a`` and ``b``, each a :class:`State` or a tuple
    of arrays, hold equal values."""
    pairs = ((a.euc, b.euc), (a.rot, b.rot)) if isinstance(a, State) else zip(a, b)
    return all(np.array_equal(x, y) for x, y in pairs)


def _levenberg_marquardt(state, linearize, residuals, solve_damped, retract, opts):
    """Levenberg-Marquardt from ``state``; returns (final state, SolveReport
    with an empty ``at_bound``).  ``linearize(state)`` returns the residual
    vector r, J^T J (with a ``diagonal()``) and J^T r, at the start and after
    each accepted step another iteration follows; ``residuals(state)`` the
    residual vector; ``solve_damped(H, d, g)`` the step x of ``(H + diag(d))
    x = -g``, or raises ``np.linalg.LinAlgError``; ``retract(state, x)`` the
    stepped state, a :class:`State` or a tuple of arrays.  Damping starts at
    ``_LM_LAMBDA0`` and is multiplicative on ``clip(diag(H), 1e-12)``:
    divided by 10 on an accepted step, multiplied by 10 on a rejected one.
    An iteration ends with no step once a damped step leaves the state
    unchanged, since a larger damping only shortens the step.  Raises
    :class:`NumericalFailureError` when none of the ``_MAX_REJECTS`` damped
    systems of an iteration gives a finite step.
    """
    r, H, g = linearize(state)
    cost = float(r @ r)
    history = [cost]
    lam = _LM_LAMBDA0
    termination = MAX_ITER
    grad_norm = float("inf")
    iterations = 0

    for it in range(1, opts.max_iter + 1):
        iterations = it
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm < _ABS_TOL or cost == 0.0:
            termination = CONVERGED
            iterations = it - 1
            break
        D = np.clip(H.diagonal(), 1e-12, None)
        accepted = False
        failed = 0  # damped systems with no finite solution
        for _ in range(_MAX_REJECTS):
            try:
                delta = solve_damped(H, lam * D, g)
            except np.linalg.LinAlgError:  # not positive definite
                delta = None
            if delta is None or not np.all(np.isfinite(delta)):
                failed += 1
                lam *= 10.0
                continue
            trial = retract(state, delta)
            if _same_state(trial, state):
                break
            try:
                r_new = residuals(trial)
            except OutOfDomainError:
                lam *= 10.0
                continue
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new < cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                state = trial
                cost = cost_new
                history.append(cost)
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                if rel_drop < opts.rel_tol:
                    termination = CONVERGED
                elif it < opts.max_iter:
                    H = None  # free J^T J before the next is accumulated
                    r, H, g = linearize(state)
                break
            lam *= 10.0
        if failed and failed == _MAX_REJECTS:
            raise NumericalFailureError(
                f"LM iteration {it}: none of {failed} damped normal systems "
                f"(lambda up to {lam / 10.0:.3g}) gave a finite step")
        if not accepted:
            termination = CONVERGED if grad_norm < 1e-6 else STALLED
            break
        if termination == CONVERGED:
            break

    return state, SolveReport(iterations, history[0], cost, termination, history,
                              grad_norm)


def solve(problem: Problem, opts: SolveOptions | None = None):
    """:func:`_levenberg_marquardt` on :func:`_normal_equations` and
    :func:`_solve_normal`; returns (final State, SolveReport), ``jump_rows``
    named at the returned state by :meth:`FactorGroup.jumps`.  Raises
    :class:`InvalidArgumentError` when the problem has no free blocks or a
    factor joins two point blocks (see :meth:`Problem.linearize`).
    """
    opts = opts or SolveOptions()
    if problem.free_cols == 0:
        raise InvalidArgumentError("problem has no free parameter blocks")
    memo = {}
    state, report = _levenberg_marquardt(
        problem.initial_state(),
        lambda s: _normal_equations(*problem.linearize(s)[:2], problem.num_point_cols,
                                    memo),
        problem.residual_vector, _solve_normal, problem.retract, opts)
    report.jump_rows = sum(int(np.count_nonzero(g.jumps(*g.inputs(problem, state)[::2])))
                           for g in problem.groups)
    if report.jump_rows:
        report.termination = DISCONTINUOUS
    report.at_bound = problem.at_bound(state)
    return state, report
