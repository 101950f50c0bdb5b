"""Levenberg-Marquardt least squares over heterogeneous parameter blocks.

Parameter blocks are either euclidean vectors or rotations; rotation blocks
are updated on the manifold with the right retraction ``R <- R @ Exp(delta)``.
Residuals are supplied by *factor groups*: vectorized batches of identically
shaped factors.  Each group gathers its per-factor block values into dense
arrays and evaluates all residuals at once; one kernel call with
``jacobians=True`` also returns the exact per-slot Jacobians the group has,
and central differences on the gathered values fill the other slots
(one-sided where a rotation step straddles a jump of the residuals).

The normal equations are assembled sparsely from group triplets and solved
with a sparse LU factorization (a dense LU solve below 2000 unknowns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgumentError, NumericalFailureError, OutOfDomainError
from .rotations import so3_exp

EUCLIDEAN = "euclidean"
ROTATION = "rotation"

CONVERGED = "converged"
MAX_ITER = "max_iter"
STALLED = "stalled"
DISCONTINUOUS = "discontinuous"

_DENSE_LIMIT = 2000
# A rotation-slot FD entry straddles a jump when its forward and backward
# differences disagree by more than this fraction of a step-h change.  A
# smooth kernel makes them disagree by h * |f''| / |f'|, about 1e-6.
_JUMP_TOL = 1e-2


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
    col: int = -1  # tangent column offset, -1 if fixed


class Slot:
    """One parameter slot of a factor group.

    ``block_ids`` maps each factor to the block filling this slot (a scalar
    means the block is shared by all factors in the group).
    """

    def __init__(self, block_ids, kind, dim):
        self.block_ids = np.atleast_1d(np.asarray(block_ids, dtype=int))
        self.kind = kind
        self.dim = dim


class FactorGroup:
    """Base class for vectorized residual families.

    Subclasses implement :meth:`build` (slots plus any cached context) and
    :meth:`kernel`, the one Jacobian protocol: ``kernel(ctx, gathered)``
    returns the whitened residuals, and ``kernel(ctx, gathered,
    jacobians=True)`` returns ``(r, jacs)`` with the same ``r`` and the
    exact Jacobians it has, slot index -> (num, dim, tdim).  A slot missing
    from ``jacs`` gets central finite differences (:meth:`_fd_slot`), which
    are also the test oracle of the exact ones.  The continuous-time
    families, the bias groups, the position-spline fit and a
    :class:`Factor` with ``jac_fn`` are exact in every slot; the
    discrete-time preintegration and GPS groups, the DT reprojection
    rotation slot, the rotation-spline fit and the PnP refinement still use
    finite differences.
    """

    name = "group"
    dim = 1  # residual dimension per factor
    fd_step = 1e-6

    def build(self, problem, state):
        """Return (ctx, [Slot, ...]) at the current state."""
        raise NotImplementedError

    def kernel(self, ctx, gathered, jacobians=False):
        """Whitened residuals (num, dim) from gathered slot values, or
        ``(r, jacs)`` with ``jacobians=True``."""
        raise NotImplementedError

    def jumps(self, problem, state, ctx):
        """Mask of the factors whose residuals jump within ``fd_step`` of
        ``state`` where the kernel's exact Jacobians cannot see it; none by
        default."""
        return False

    # -- shared machinery ---------------------------------------------------

    def residuals(self, problem, state):
        ctx, slots = self.build(problem, state)
        gathered = [problem.gather(state, s) for s in slots]
        return self.kernel(ctx, gathered)

    def linearize(self, problem, state):
        """Residuals, per-slot Jacobians and the factors on a jump.

        Returns ``(r, slots, jacs, jumps)``; ``jumps`` is a (num,) bool mask
        of the factors on a discontinuity of the kernel: those named by
        :meth:`jumps`, plus those whose finite-difference rotation slots
        straddled one (see :meth:`_fd_slot`).
        """
        ctx, slots = self.build(problem, state)
        gathered = [problem.gather(state, s) for s in slots]
        r, jacs = self.kernel(ctx, gathered, jacobians=True)
        jumps = np.zeros(r.shape[0], dtype=bool) | self.jumps(problem, state, ctx)
        for si, slot in enumerate(slots):
            if si in jacs:
                continue
            jacs[si], jump = self._fd_slot(ctx, gathered, si, slot, r)
            jumps |= jump
        return r, slots, jacs, jumps

    def _fd_slot(self, ctx, gathered, si, slot, base):
        """Central differences in the tangent space of slot ``si``.

        ``base`` holds the residuals (num, dim) at the current state.
        Returns ``(J, jump)``: J is (num, dim, tdim) and ``jump`` the (num,)
        mask of factors where the differences straddle a jump.  Jumps are
        looked for in rotation slots only: a cumulative SO(3) spline whose
        consecutive nodes sit near angle pi flips the branch of its Log
        difference under a step of h.  There the forward quotient
        (f+ - f0)/h and the backward one (f0 - f-)/h differ by O(1/h), not
        by the O(h) of a smooth kernel, and the factor gets the one-sided
        quotient on the side that stays on the current branch.  Every other
        entry is the central quotient.
        """
        h = self.fd_step
        f_plus = np.empty(base.shape + (slot.dim,))
        f_minus = np.empty_like(f_plus)
        value = gathered[si]
        for a in range(slot.dim):
            if slot.kind == ROTATION:
                step = np.zeros(3)
                step[a] = h
                dR = so3_exp(step)
                plus = value @ dR
                minus = value @ dR.T
            else:
                plus = value.copy()
                plus[..., a] += h
                minus = value.copy()
                minus[..., a] -= h
            g_plus = list(gathered)
            g_plus[si] = plus
            g_minus = list(gathered)
            g_minus[si] = minus
            f_plus[..., a] = self.kernel(ctx, g_plus)
            f_minus[..., a] = self.kernel(ctx, g_minus)
        J = (f_plus - f_minus) / (2 * h)
        if slot.kind != ROTATION:
            return J, np.zeros(base.shape[0], dtype=bool)
        fwd = f_plus - base[..., None]
        bwd = base[..., None] - f_minus
        n_fwd = np.linalg.norm(fwd, axis=1)  # (num, tdim)
        n_bwd = np.linalg.norm(bwd, axis=1)
        gap = np.linalg.norm(fwd - bwd, axis=1)
        # Size of a step-h change on the smooth side, per factor and (for
        # factors that barely depend on the slot) per group.
        smooth = np.minimum(n_fwd, n_bwd).max(axis=1)
        scale = np.maximum(smooth, np.median(smooth))
        straddle = gap > _JUMP_TOL * scale[:, None]
        one_sided = np.where((n_fwd <= n_bwd)[:, None, :], fwd, bwd) / h
        return np.where(straddle[:, None, :], one_sided, J), straddle.any(axis=1)


class Factor(FactorGroup):
    """Convenience wrapper: a single residual over named blocks.

    ``fn(*values)`` returns the raw residual; ``sqrt_info`` (optional)
    whitens it.  Jacobians are finite differences unless ``jac_fn`` returns
    a list of per-block ``(dim, tdim)`` matrices.
    """

    def __init__(self, block_names, fn, dim, sqrt_info=None, jac_fn=None, name="factor"):
        self.block_names = list(block_names)
        self.fn = fn
        self.dim = dim
        self.sqrt_info = None if sqrt_info is None else np.asarray(sqrt_info, float)
        self.jac_fn = jac_fn
        self.name = name

    def build(self, problem, state):
        slots = []
        for bn in self.block_names:
            bid = problem.block_id(bn)
            meta = problem.blocks[bid]
            slots.append(Slot(np.array([bid]), meta.kind, meta.dim))
        return None, slots

    def kernel(self, ctx, gathered, jacobians=False):
        values = [g[0] for g in gathered]
        r = np.asarray(self.fn(*values), dtype=float).reshape(self.dim)
        if self.sqrt_info is not None:
            r = self.sqrt_info @ r
        if not jacobians:
            return r[None, :]
        jacs = {}
        for si, J in enumerate(self.jac_fn(*values) if self.jac_fn else []):
            if J is None:
                continue
            J = np.asarray(J, dtype=float)
            if self.sqrt_info is not None:
                J = self.sqrt_info @ J
            jacs[si] = J[None, :, :]
        return r[None, :], jacs


class Problem:
    """Ordered parameter blocks plus factor groups."""

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
        # set by the problem's builder, e.g. state field -> block ids
        self.meta = {}

    # -- blocks -------------------------------------------------------------

    def add_euclidean(self, name, value, fixed=False, bounds=None):
        value = np.atleast_1d(np.asarray(value, dtype=float))
        if not np.all(np.isfinite(value)):
            raise InvalidArgumentError(f"non-finite initial value for block {name}")
        meta = _BlockMeta(name, EUCLIDEAN, value.size, self._euc_size, fixed, bounds)
        self._euc_size += value.size
        self._euc_init.append(value)
        return self._register(meta)

    def add_rotation(self, name, value, fixed=False):
        value = np.asarray(value, dtype=float)
        if value.shape != (3, 3):
            raise InvalidArgumentError("rotation block must be a 3x3 matrix")
        meta = _BlockMeta(name, ROTATION, 3, self._rot_count, fixed, None)
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

    def block_id(self, name):
        return self._by_name[name]

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
        """Per-factor values for a slot: (num, dim) or (num, 3, 3)."""
        ids = slot.block_ids
        if slot.kind == ROTATION:
            stores = self._store_array[ids]
            return state.rot[stores]
        offs = self._store_array[ids]
        cols = offs[:, None] + np.arange(slot.dim)
        return state.euc[cols]

    # -- layout -------------------------------------------------------------

    def _layout(self):
        if not self._layout_dirty:
            return
        col = 0
        for meta in self.blocks:
            if meta.fixed:
                meta.col = -1
            else:
                meta.col = col
                col += meta.dim
        self.num_cols = col
        self._store_array = np.array([m.store for m in self.blocks], dtype=int)
        self._col_array = np.array([m.col for m in self.blocks], dtype=int)
        self._layout_dirty = False

    @property
    def free_cols(self):
        self._layout()
        return self.num_cols

    def retract(self, state, delta):
        """Apply a tangent step; clamps bounded euclidean blocks."""
        self._layout()
        new = state.copy()
        for meta in self.blocks:
            if meta.col < 0:
                continue
            d = delta[meta.col : meta.col + meta.dim]
            if meta.kind == ROTATION:
                new.rot[meta.store] = new.rot[meta.store] @ so3_exp(d)
            else:
                seg = slice(meta.store, meta.store + meta.dim)
                new.euc[seg] = new.euc[seg] + d
                if meta.bounds is not None:
                    new.euc[seg] = np.clip(new.euc[seg], meta.bounds[0], meta.bounds[1])
        return new

    # -- evaluation ---------------------------------------------------------

    def residual_vector(self, state):
        self._layout()
        parts = [g.residuals(self, state).ravel() for g in self.groups]
        return np.concatenate(parts) if parts else np.zeros(0)

    def linearize(self, state):
        """Full residual vector, sparse Jacobian over free tangent columns,
        and the number of factors on a jump (see :meth:`FactorGroup.linearize`)."""
        self._layout()
        res_parts = []
        rows_l, cols_l, vals_l = [], [], []
        row0 = 0
        jump_rows = 0
        for group in self.groups:
            r, slots, jacs, jumps = group.linearize(self, state)
            jump_rows += int(np.count_nonzero(jumps))
            num, dim = r.shape
            res_parts.append(r.ravel())
            local_rows = row0 + np.arange(num * dim).reshape(num, dim)
            for si, slot in enumerate(slots):
                J = jacs[si]
                ids = slot.block_ids
                if ids.size == 1 and num > 1:
                    ids = np.broadcast_to(ids, (num,))
                bcols = self._col_array[ids]
                free = bcols >= 0
                if not np.any(free):
                    continue
                cshape = bcols[:, None, None] + np.arange(slot.dim)[None, None, :]
                cmat = np.broadcast_to(cshape, (num, dim, slot.dim))
                rmat = np.broadcast_to(local_rows[:, :, None], (num, dim, slot.dim))
                mask = np.broadcast_to(free[:, None, None], (num, dim, slot.dim))
                rows_l.append(rmat[mask])
                cols_l.append(cmat[mask])
                vals_l.append(J[mask])
            row0 += num * dim
        r_all = np.concatenate(res_parts) if res_parts else np.zeros(0)
        if rows_l:
            J_all = sp.coo_matrix(
                (np.concatenate(vals_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
                shape=(row0, self.num_cols),
            ).tocsr()
        else:
            J_all = sp.csr_matrix((row0, self.num_cols))
        return r_all, J_all, jump_rows


@dataclass
class SolveOptions:
    max_iter: int = 50
    lm_lambda0: float = 1e-4
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_rejects: int = 40


@dataclass
class SolveReport:
    """Outcome of :func:`solve`.

    ``termination`` is one of:

    - ``"converged"``: the relative cost drop fell below ``rel_tol``, the
      gradient vanished, or no damped step lowered a cost whose gradient is
      already below 1e-6;
    - ``"max_iter"``: the iteration cap was reached first;
    - ``"stalled"``: no damped step lowered the cost;
    - ``"discontinuous"``: the linearization at the returned state has
      factors on a jump of the residual (``jump_rows`` of them; see
      :meth:`FactorGroup.linearize`), so the returned state is not a
      stationary point of a smooth cost.  This overrides the other three.

    ``converged`` is True only for ``"converged"``.
    """

    iterations: int
    initial_cost: float
    final_cost: float
    termination: str
    cost_history: list = field(default_factory=list)
    grad_norm: float = float("nan")
    lm_lambda: float = float("nan")
    rel_tol: float = float("nan")
    jump_rows: int = 0

    @property
    def converged(self):
        return self.termination == CONVERGED


def _solve_normal(H, g, n):
    if n < _DENSE_LIMIT:
        return np.linalg.solve(H.toarray(), -g)
    return spla.splu(H.tocsc()).solve(-g)


def solve(problem: Problem, opts: SolveOptions | None = None):
    """Run Levenberg-Marquardt; returns (final State, SolveReport).

    Damping is multiplicative on the scaled diagonal: divided by 10 on an
    accepted step, multiplied by 10 on a rejected one.
    """
    opts = opts or SolveOptions()
    if problem.free_cols == 0:
        raise InvalidArgumentError("problem has no free parameter blocks")
    state = problem.initial_state()
    r, J, jump_rows = problem.linearize(state)
    cost = float(r @ r)
    initial_cost = cost
    history = [cost]
    lam = opts.lm_lambda0
    termination = MAX_ITER
    grad_norm = float("inf")
    iterations = 0

    for it in range(1, opts.max_iter + 1):
        iterations = it
        g = J.T @ r
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm < opts.abs_tol or cost == 0.0:
            termination = CONVERGED
            iterations = it - 1
            break
        H = (J.T @ J).tocsr()
        D = H.diagonal()
        D = np.clip(D, 1e-12, None)
        accepted = False
        for _ in range(opts.max_rejects):
            A = H + sp.diags(lam * D)
            try:
                delta = _solve_normal(A, g, problem.num_cols)
            except (np.linalg.LinAlgError, RuntimeError):  # singular system
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            trial = problem.retract(state, delta)
            try:
                r_new = problem.residual_vector(trial)
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
                r, J, jump_rows = problem.linearize(state)
                accepted = True
                if rel_drop < opts.rel_tol:
                    termination = CONVERGED
                break
            lam *= 10.0
        if not accepted:
            termination = CONVERGED if grad_norm < 1e-6 else STALLED
            break
        if termination == CONVERGED:
            break
    if jump_rows:
        termination = DISCONTINUOUS

    report = SolveReport(
        iterations=iterations,
        initial_cost=initial_cost,
        final_cost=cost,
        termination=termination,
        cost_history=history,
        grad_norm=grad_norm,
        lm_lambda=lam,
        rel_tol=opts.rel_tol,
        jump_rows=jump_rows,
    )
    return state, report
