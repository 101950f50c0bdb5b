
import numpy as np
import pytest
from scipy.interpolate import BSpline

from splinefusion import bsplines as bs
from splinefusion.errors import InvalidArgumentError, OutOfDomainError
from splinefusion.rotations import so3_exp, so3_log

from conftest import random_rotation


def scipy_reference(grid, nodes):
    """Independent reference: an unclamped uniform scipy BSpline whose domain
    matches KnotGrid (control point j is supported on segments starting at
    knot j - order + 1)."""
    k = grid.order
    knots = grid.t0 + (np.arange(grid.count + k) - (k - 1)) * grid.dt
    return BSpline(knots, nodes, k - 1, extrapolate=False)


def random_spline(rng, order, count=None, t0=None, dt=None):
    count = count or int(rng.integers(order + 2, order + 12))
    t0 = float(rng.uniform(-5, 5)) if t0 is None else t0
    dt = float(rng.uniform(0.05, 1.5)) if dt is None else dt
    grid = bs.KnotGrid(t0=t0, dt=dt, count=count, order=order)
    nodes = rng.normal(scale=3.0, size=(count, 3))
    return bs.SplineR3(grid, nodes)


def test_r3_matches_scipy_reference(rng):
    """200 random splines across orders 4..7 agree with scipy to 1e-12."""
    for trial in range(200):
        order = 4 + trial % 4
        spline = random_spline(rng, order)
        ref = scipy_reference(spline.grid, spline.nodes)
        lo, hi = spline.grid.domain
        ts = rng.uniform(lo, hi - 1e-9, size=20)
        ours = spline.sample_many(ts)
        theirs = ref(ts)
        assert np.max(np.abs(ours - theirs)) < 1e-12


def test_r3_derivatives_match_scipy(rng):
    for trial in range(20):
        order = 4 + trial % 4
        spline = random_spline(rng, order)
        ref = scipy_reference(spline.grid, spline.nodes)
        lo, hi = spline.grid.domain
        ts = rng.uniform(lo, hi - 1e-9, size=20)
        for d in (1, 2):
            ours = spline.sample_many(ts, derivative=d)
            theirs = ref.derivative(d)(ts)
            scale = max(np.abs(theirs).max(), 1.0)
            assert np.max(np.abs(ours - theirs)) / scale < 1e-10


def test_r3_derivatives_match_finite_differences(rng):
    h = 1e-6
    for order in (4, 5, 6, 7):
        spline = random_spline(rng, order, count=order + 8, dt=0.5)
        lo, hi = spline.grid.domain
        ts = rng.uniform(lo + 2 * h, hi - 2 * h, size=15)
        for t in ts:
            v1 = spline.sample_many(t, derivative=1)
            fd1 = (spline.sample_many(t + h) - spline.sample_many(t - h)) / (2 * h)
            assert np.linalg.norm(v1 - fd1) / max(np.linalg.norm(fd1), 1.0) < 1e-6
            v2 = spline.sample_many(t, derivative=2)
            fd2 = (
                spline.sample_many(t + h, derivative=1)
                - spline.sample_many(t - h, derivative=1)
            ) / (2 * h)
            assert np.linalg.norm(v2 - fd2) / max(np.linalg.norm(fd2), 1.0) < 1e-6


def random_so3_spline(rng, order, count=None, scale=0.5):
    count = count or order + 8
    grid = bs.KnotGrid(t0=0.0, dt=0.4, count=count, order=order)
    nodes = [random_rotation(rng)]
    for _ in range(count - 1):
        nodes.append(nodes[-1] @ so3_exp(rng.normal(scale=scale, size=3)))
    return bs.SplineSO3(grid, np.stack(nodes))


def test_so3_angular_velocity_matches_log_difference(rng):
    h = 1e-6
    for order in (4, 5, 6, 7):
        spline = random_so3_spline(rng, order)
        lo, hi = spline.grid.domain
        for t in rng.uniform(lo + 2 * h, hi - 2 * h, size=15):
            w = spline.angular_velocity_many(t)
            fd = so3_log(
                spline.sample_many(t - h).T @ spline.sample_many(t + h),
                validate=False,
            ) / (2 * h)
            assert np.linalg.norm(w - fd) < 1e-5


def test_so3_order2_is_slerp(rng):
    """Order 2 reduces to piecewise geodesic interpolation of the nodes."""
    grid = bs.KnotGrid(t0=0.0, dt=1.0, count=5, order=2)
    nodes = np.stack([random_rotation(rng) for _ in range(5)])
    spline = bs.SplineSO3(grid, nodes)
    for i in range(4):
        assert np.allclose(spline.sample_many(float(i)), nodes[i], atol=1e-12)
        mid = spline.sample_many(i + 0.5)
        d = so3_log(nodes[i].T @ nodes[i + 1], validate=False)
        assert np.allclose(mid, nodes[i] @ so3_exp(0.5 * d), atol=1e-12)


def test_partition_of_unity():
    for order in range(2, 9):
        M = bs.basis_matrix(order)
        u = np.linspace(0, 0.999, 7)
        pows = u[:, None] ** np.arange(order)
        total = (pows @ M.T).sum(axis=1)
        assert np.allclose(total, 1.0, atol=1e-12)


def test_window_node_coefficients_consistency(rng):
    for order in (3, 4, 6):
        window = rng.normal(size=(order, 3))
        for d in (0, 1, 2):
            u = np.array([0.37])
            c = bs.window_node_coefficients(order, u, d)
            direct = bs.r3_window_eval(window, u, order, 1.0, d)
            assert np.allclose(c[0] @ window, direct[0], atol=1e-12)


def test_grid_domain_and_errors():
    grid = bs.KnotGrid(t0=1.0, dt=0.5, count=10, order=4)
    lo, hi = grid.domain
    assert lo == 1.0 and np.isclose(hi, 1.0 + 7 * 0.5)
    i, u = grid.normalized_times(1.0)
    assert i == 0 and u == 0.0
    with pytest.raises(OutOfDomainError):
        grid.normalized_times(hi)
    with pytest.raises(OutOfDomainError):
        grid.normalized_times(lo - 1e-9)
    with pytest.raises(OutOfDomainError):
        grid.normalized_times(np.array([lo, hi + 1.0]))
    with pytest.raises(InvalidArgumentError):
        bs.KnotGrid(t0=0.0, dt=-1.0, count=10, order=4)
    with pytest.raises(InvalidArgumentError):
        bs.KnotGrid(t0=0.0, dt=1.0, count=3, order=4)
    with pytest.raises(InvalidArgumentError):
        bs.KnotGrid(t0=0.0, dt=1.0, count=10, order=9)


def _one_sample_cases():
    """(name, call, sample shape) of every batched sampling function, each
    taking a time (or a Python float) and returning its samples."""
    rng = np.random.default_rng(11)
    grid = bs.KnotGrid(t0=-2.0, dt=0.3, count=20, order=5)
    pos = bs.SplineR3(grid, rng.normal(size=(grid.count, 3)))
    rot = bs.SplineSO3(grid, np.stack(
        [so3_exp(rng.normal(scale=0.5, size=3)) for _ in range(grid.count)]))
    cases = [(f"r3_derivative_{d}",
              lambda ts, d=d: pos.sample_many(ts, derivative=d), (3,))
             for d in (0, 1, 2)]
    cases += [
        ("so3", rot.sample_many, (3, 3)),
        ("so3_angular_velocity", rot.angular_velocity_many, (3,)),
        ("normalized_times", lambda ts: np.stack(grid.normalized_times(ts), -1),
         (2,)),
    ]
    return grid, cases


_GRID, _CASES = _one_sample_cases()


@pytest.fixture
def batch_times(rng):
    lo, hi = _GRID.domain
    return rng.uniform(lo, hi - 1e-12, size=50)


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_float_time_gives_one_sample_equal_to_batch_row(case, batch_times):
    """A Python float is a 0-d batch: it yields one sample's shape, equal
    bit for bit to its row of a batched call, and raises at the domain end
    like any out-of-domain time."""
    _, call, shape = case
    lo, hi = _GRID.domain
    ts = np.concatenate([batch_times, [lo, lo + 3 * _GRID.dt,
                                       np.nextafter(hi, lo)]])
    batch = call(ts)
    assert batch.shape == (len(ts),) + shape
    for t, row in zip(ts.tolist(), batch):
        one = call(t)
        assert one.shape == shape
        assert np.array_equal(one, row)
    with pytest.raises(OutOfDomainError):
        call(float(hi))


def test_grid_covering():
    grid = bs.grid_covering(0.0, 10.0, 0.5, 4)
    lo, hi = grid.domain
    assert lo <= 0.0 and hi > 10.0
    assert grid.num_segments == grid.count - grid.order + 1


@pytest.mark.parametrize("count", [10.5, 10.0, 3, "10"])
def test_knot_grid_count_must_be_an_int_of_at_least_order(count):
    """A node count that is not an integer would give a fractional domain
    and float segment indices; it is named at construction."""
    with pytest.raises(InvalidArgumentError, match="count"):
        bs.KnotGrid(t0=0.0, dt=1.0, count=count, order=4)
    assert bs.KnotGrid(t0=0.0, dt=1.0, count=np.int64(10), order=4).domain == (
        0.0, 7.0)


@pytest.mark.parametrize("args, name", [
    ((0.0, 1.0, 0.0, 4), "dt"), ((0.0, 1.0, -0.1, 4), "dt"),
    ((0.0, 1.0, np.nan, 4), "dt"), ((0.0, 1.0, np.inf, 4), "dt"),
    ((0.0, np.inf, 0.1, 4), "t_max"), ((np.nan, 1.0, 0.1, 4), "t_min")])
def test_grid_covering_rejects_non_finite_bounds_and_steps(args, name):
    with pytest.raises(InvalidArgumentError, match=name):
        bs.grid_covering(*args)


@pytest.mark.parametrize("order", [4.5, 4.0, True, 1, 9])
def test_spline_order_must_be_an_int_in_range(order):
    """A non-integer order is rejected, not truncated."""
    with pytest.raises(InvalidArgumentError, match="spline order"):
        bs.KnotGrid(t0=0.0, dt=1.0, count=10, order=order)


def test_spline_validation():
    grid = bs.KnotGrid(t0=0.0, dt=1.0, count=6, order=4)
    with pytest.raises(InvalidArgumentError):
        bs.SplineR3(grid, np.zeros((5, 3)))
    with pytest.raises(InvalidArgumentError):
        bs.SplineR3(grid, np.full((6, 3), np.nan))
    with pytest.raises(InvalidArgumentError):
        bs.SplineSO3(grid, np.zeros((6, 3, 3)))


def test_angular_velocity_needs_order3():
    grid = bs.KnotGrid(t0=0.0, dt=1.0, count=6, order=2)
    spline = bs.SplineSO3(grid, np.stack([np.eye(3)] * 6))
    with pytest.raises(InvalidArgumentError):
        spline.angular_velocity_many(0.5)


def _window(rng, order, big_step=None):
    """Random SO(3) node window; ``big_step`` sets one node difference."""
    nodes = [random_rotation(rng)]
    for j in range(order - 1):
        step = rng.normal(scale=0.5, size=3)
        if j == order // 2 and big_step is not None:
            step *= big_step / np.linalg.norm(step)
        nodes.append(nodes[-1] @ so3_exp(step))
    return np.stack(nodes)


def _fd_node_jacobians(fn, windows, u, order, h=1e-6):
    """Central differences of ``fn`` under R_s <- R_s Exp(delta_s); ``fn``
    returns a (N, a) vector per window."""
    J = np.empty(windows.shape[:1] + (order,) + fn(windows).shape[1:] + (3,))
    for s in range(order):
        for a in range(3):
            step = np.zeros(3)
            step[a] = h
            plus, minus = windows.copy(), windows.copy()
            plus[:, s] = windows[:, s] @ so3_exp(step)
            minus[:, s] = windows[:, s] @ so3_exp(-step)
            J[:, s, ..., a] = (fn(plus) - fn(minus)) / (2 * h)
    return J


@pytest.mark.parametrize("order", [3, 4, 6, 8])
def test_so3_window_node_jacobians_match_finite_differences(rng, order):
    """Value and angular-velocity node Jacobians against central
    differences, at both ends of the segment and across a 2.5 rad node
    difference."""
    dt = 0.1
    windows = np.stack([_window(rng, order), _window(rng, order),
                        _window(rng, order, big_step=2.5),
                        _window(rng, order, big_step=2.8)])
    diffs = np.linalg.norm(bs.so3_window_diffs(windows), axis=-1)
    assert diffs[2:].max(axis=-1).min() >= 2.5
    for u0 in (0.0, np.nextafter(1.0, 0.0), 0.43):
        u = np.full(len(windows), u0)
        R, JR = bs.so3_window_eval(windows, u, order, jacobians=True)
        omega, JW = bs.so3_window_angvel(windows, u, order, dt, jacobians=True)
        assert np.array_equal(R, bs.so3_window_eval(windows, u, order))
        assert np.array_equal(omega, bs.so3_window_angvel(windows, u, order, dt))

        # the value Jacobian as the right perturbation of R(u) about R
        def rotvec(w):
            return so3_log(np.swapaxes(R, -1, -2)
                           @ bs.so3_window_eval(w, u, order), validate=False)

        fd_R = _fd_node_jacobians(rotvec, windows, u, order)
        assert np.abs(JR - fd_R).max() < 1e-7
        fd_W = _fd_node_jacobians(
            lambda w: bs.so3_window_angvel(w, u, order, dt), windows, u, order)
        assert np.abs(JW - fd_W).max() / np.abs(fd_W).max() < 1e-7


@pytest.mark.parametrize("order", [4, 6])
def test_segment_shared_kernels_match_per_sample_reference(rng, order):
    """The window kernels on distinct windows with each sample's window
    ``at`` give, bit for bit, the kernels on the windows taken per sample,
    with and without Jacobians; so does a memo, reused at equal windows and
    recomputed at a finite-difference-stepped window and back."""
    dt = 0.1
    windows = np.stack([_window(rng, order) for _ in range(5)])
    at = np.repeat(np.arange(5), [7, 1, 12, 3, 9])  # repeated segments
    u = rng.uniform(0.0, 1.0, at.size)
    stepped = windows.copy()
    stepped[:, 2] = windows[:, 2] @ so3_exp(np.array([0.0, 1e-6, 0.0]))
    kernels = ((bs.so3_window_eval, (order,)),
               (bs.so3_window_angvel, (order, dt)))
    memo = {}
    for w in (windows, windows, stepped, windows):
        for jacobians in (False, True):
            for fn, args in kernels:
                ref = fn(w.take(at, axis=0), u, *args, jacobians=jacobians)
                for kw in ({}, {"memo": memo}):
                    got = fn(w, u, *args, jacobians=jacobians, at=at, **kw)
                    pairs = zip(ref, got) if jacobians else [(ref, got)]
                    assert all(np.array_equal(x, y) for x, y in pairs)
        assert np.array_equal(memo["windows"], w)


def test_branch_cut_rule_flags_pairs_near_pi():
    """A control pair within ``reach`` of angle pi is on the cut of the Log
    difference; a window is flagged when it spans both nodes."""
    z = np.array([0.0, 0.0, 1.0])
    angles = [0.3, np.pi - 1e-9, 0.5, np.pi - 1e-3, 0.2]
    nodes = [np.eye(3)]
    for a in angles:
        nodes.append(nodes[-1] @ so3_exp(a * z))
    # only the pair (1, 2) is on the cut; order-3 windows start at nodes 0..3
    windows = np.stack(nodes)[np.arange(4)[:, None] + np.arange(3)]
    assert bs.so3_cut_windows(windows, 1e-6).tolist() == [True, True, False, False]
    assert not bs.so3_cut_windows(windows, 1e-10).any()


def _cut_windows_over_all_nodes(nodes, seg, order, reach):
    """Reference: the branch-cut rule over the whole node chain, a prefix
    count of its cut pairs read at each window's first and last pair."""
    cut = np.linalg.norm(bs.so3_window_diffs(nodes), axis=-1) > np.pi - reach
    before = np.concatenate([[0], np.cumsum(cut)])  # cut pairs (i, i+1) < i
    return before[seg + order - 1] > before[seg]


@pytest.mark.parametrize("order", range(bs.MIN_ORDER, bs.MAX_ORDER + 1))
def test_cut_windows_match_the_rule_over_all_nodes(order):
    """The rule on gathered windows, taken per factor through repeated rows,
    flags exactly the factors the rule over all nodes flags, with pairs
    placed at pi - {0.2, 0.5, 1, 1.0000001, 2} reach, on both sides of and
    at its threshold; the node-pair norms it compares are equal bit for bit."""
    rng = np.random.default_rng(order)
    reach = 1e-6
    flagged = factors = 0
    for _ in range(50):
        n = int(rng.integers(order + 1, order + 12))
        angles = rng.uniform(0.1, 3.0, n - 1)
        near = rng.choice(n - 1, size=int(rng.integers(1, 3)), replace=False)
        near_pi = rng.choice([0.2, 0.5, 1.0, 1.0000001, 2.0], near.size) * reach
        angles[near] = np.pi - near_pi
        axes = rng.normal(size=(n - 1, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        steps = so3_exp(angles[:, None] * axes)
        nodes = [random_rotation(rng)]
        for dR in steps:
            nodes.append(nodes[-1] @ dR)
        nodes = np.stack(nodes)
        seg = np.unique(rng.integers(0, n - order + 1, size=n))
        rows = rng.integers(0, seg.size, size=3 * seg.size)
        windows = nodes[seg[:, None] + np.arange(order)]
        got = bs.so3_cut_windows(windows, reach).take(rows)
        ref = _cut_windows_over_all_nodes(nodes, seg.take(rows), order, reach)
        assert np.array_equal(got, ref)
        pairs = seg[:, None] + np.arange(order - 1)
        assert np.array_equal(np.linalg.norm(bs.so3_window_diffs(windows), axis=-1),
                              np.linalg.norm(bs.so3_window_diffs(nodes), axis=-1)[pairs])
        flagged, factors = flagged + got.sum(), factors + got.size
    assert 0 < flagged < factors
