import numpy as np
import pytest

from splinefusion import preintegration as pre
from splinefusion.errors import DataError, InvalidArgumentError
from splinefusion.preintegration import GRAVITY
from splinefusion.rotations import (
    hat,
    so3_exp,
    so3_log,
    so3_right_jacobian,
)

from conftest import concatenate, random_rotation


def constant_input(T=0.5, hz=200.0, omega=(0.0, 0.0, 0.0), a=(0.0, 0.0, 0.0)):
    times = np.arange(0.0, T + 0.5 / hz, 1.0 / hz)
    gyro = np.tile(np.asarray(omega, float), (times.size, 1))
    accel = np.tile(np.asarray(a, float), (times.size, 1))
    return times, gyro, accel


def _interp_row(times, values, t):
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0,
                    len(times) - 2))
    a = (t - times[k]) / (times[k + 1] - times[k])
    return (1.0 - a) * values[k] + a * values[k + 1]


def reference_integrate(times, gyro, accel, bias_lin, gyro_sigma, accel_sigma,
                        t_start, t_end):
    """The per-sample loop ``integrate`` replaced: one step at a time, each
    building its own 9x9 transition.  The midpoint rotation R_mid = dR
    Exp(phi/2) moves with the rotation error through Exp(phi/2)^T and with
    the gyroscope bias through the half step Exp(phi/2) as well.  Returns
    (dR, dv, dp, covariance, J_bias)."""
    b_a, b_g = bias_lin
    inner = (times > t_start) & (times < t_end)
    ts = np.concatenate([[t_start], times[inner], [t_end]])
    ws = np.vstack([[_interp_row(times, gyro, t_start)], gyro[inner],
                    [_interp_row(times, gyro, t_end)]])
    accs = np.vstack([[_interp_row(times, accel, t_start)], accel[inner],
                      [_interp_row(times, accel, t_end)]])
    dR = np.eye(3)
    dv = np.zeros(3)
    dp = np.zeros(3)
    cov = np.zeros((9, 9))
    J = np.zeros((9, 6))
    eye = np.eye(3)
    for n in range(len(ts) - 1):
        dt = ts[n + 1] - ts[n]
        if dt <= 0:
            continue
        w = 0.5 * (ws[n] + ws[n + 1]) - b_g
        a = 0.5 * (accs[n] + accs[n + 1]) - b_a
        phi = w * dt
        E = so3_exp(phi)
        Jr = so3_right_jacobian(phi)
        half = so3_exp(0.5 * phi)
        R_mid = dR @ half
        Ra = R_mid @ a
        # d(R_mid a) / d(rotation error) and / d b_g through the half step
        D_rot = -R_mid @ hat(a) @ half.T
        D_bg = R_mid @ hat(a) @ so3_right_jacobian(0.5 * phi) * (0.5 * dt)
        A = np.zeros((9, 9))
        A[0:3, 0:3] = E.T
        A[3:6, 0:3] = D_rot * dt
        A[3:6, 3:6] = eye
        A[6:9, 0:3] = 0.5 * D_rot * dt * dt
        A[6:9, 3:6] = eye * dt
        A[6:9, 6:9] = eye
        # gyroscope noise enters as a negative gyroscope-bias change
        B = np.zeros((9, 6))
        B[0:3, 0:3] = Jr * dt
        B[3:6, 0:3] = -D_bg * dt
        B[3:6, 3:6] = R_mid * dt
        B[6:9, 0:3] = -0.5 * D_bg * dt * dt
        B[6:9, 3:6] = 0.5 * R_mid * dt * dt
        Q = np.zeros((6, 6))
        Q[0:3, 0:3] = gyro_sigma**2 * eye
        Q[3:6, 3:6] = accel_sigma**2 * eye
        cov = A @ cov @ A.T + B @ Q @ B.T
        Jn = np.zeros((9, 6))
        Jn[0:3, 3:6] = E.T @ J[0:3, 3:6] - Jr * dt
        Jn[3:6, 0:3] = J[3:6, 0:3] - R_mid * dt
        Jn[3:6, 3:6] = J[3:6, 3:6] + (D_rot @ J[0:3, 3:6] + D_bg) * dt
        Jn[6:9, 0:3] = J[6:9, 0:3] + J[3:6, 0:3] * dt - 0.5 * R_mid * dt * dt
        Jn[6:9, 3:6] = (
            J[6:9, 3:6]
            + J[3:6, 3:6] * dt
            + 0.5 * (D_rot @ J[0:3, 3:6] + D_bg) * dt * dt
        )
        J = Jn
        dp = dp + dv * dt + 0.5 * Ra * dt * dt
        dv = dv + Ra * dt
        dR = dR @ E
    return dR, dv, dp, 0.5 * (cov + cov.T), J


def test_integrate_matches_per_sample_reference():
    """The batched ``integrate`` agrees with the per-sample loop to 1e-12
    relative in every output, on jittered 200 Hz samples with random rates
    and a nonzero linearization bias, for segments of 1 to 119 steps."""
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.004, 0.006, size=120))
    gyro = rng.normal(scale=1.5, size=(times.size, 3))
    accel = rng.normal(scale=2.0, size=(times.size, 3)) + [0.0, 0.0, 9.81]
    bias_lin = (rng.normal(scale=0.05, size=3), rng.normal(scale=0.01, size=3))
    segments = [
        (times[0] + 0.0013, times[-1] - 0.0021),  # both edges off the stamps
        (times[5], times[60]),  # both edges on stamps
        (times[7], times[30] + 0.001),  # one on, one off
        (times[-2], times[-1]),  # one step, the segment's own samples
        (times[40] + 0.001, times[41] - 0.001),  # no sample inside
    ]
    # step counts on both sides of the powers of two that the running
    # products double through
    segments += [(times[10] + 0.001, times[10 + n - 1] + 0.001)
                 for n in (2, 3, 4, 5, 16, 17, 33)]
    for t_start, t_end in segments:
        pim = pre.integrate(times, gyro, accel, bias_lin=bias_lin,
                            gyro_sigma=2e-3, accel_sigma=3e-2,
                            t_start=t_start, t_end=t_end)
        ref = reference_integrate(times, gyro, accel, bias_lin, 2e-3, 3e-2,
                                  t_start, t_end)
        got = (pim.dR, pim.dv, pim.dp, pim.covariance, pim.J_bias)
        for name, x, y in zip(("dR", "dv", "dp", "covariance", "J_bias"),
                              got, ref):
            assert x.shape == y.shape, name
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), name


def test_constant_acceleration_closed_form():
    """With zero rotation rate the deltas are dv = a T and dp = a T^2 / 2."""
    T = 0.5
    a = np.array([0.3, -1.2, 9.81])
    times, gyro, accel = constant_input(T=T, a=a)
    pim = pre.integrate(times, gyro, accel, t_start=0.0, t_end=T)
    assert np.max(np.abs(pim.dR - np.eye(3))) < 1e-8
    assert np.max(np.abs(pim.dv - a * T)) < 1e-8
    assert np.max(np.abs(pim.dp - 0.5 * a * T * T)) < 1e-8


def test_constant_rotation_closed_form():
    """With zero specific force the rotation delta is Exp(omega T)."""
    T = 0.4
    w = np.array([0.7, -0.3, 1.1])
    times, gyro, accel = constant_input(T=T, omega=w)
    pim = pre.integrate(times, gyro, accel, t_start=0.0, t_end=T)
    assert np.max(np.abs(pim.dR - so3_exp(w * T))) < 1e-8
    assert np.max(np.abs(pim.dv)) < 1e-8
    assert np.max(np.abs(pim.dp)) < 1e-8


def test_concatenation_matches_full_integration(rng):
    times = np.arange(0.0, 1.0 + 1e-9, 1.0 / 200.0)
    gyro = 0.5 * np.sin(times)[:, None] * np.array([1.0, -0.4, 0.2])
    accel = np.cos(2 * times)[:, None] * np.array([0.3, 1.0, -0.7]) + np.array(
        [0.0, 0.0, 9.81]
    )
    full = pre.integrate(times, gyro, accel, t_start=0.0, t_end=1.0)
    a = pre.integrate(times, gyro, accel, t_start=0.0, t_end=0.4)
    b = pre.integrate(times, gyro, accel, t_start=0.4, t_end=1.0)
    dR, dv, dp = concatenate(a, b)
    assert np.max(np.abs(dR - full.dR)) < 1e-8
    assert np.max(np.abs(dv - full.dv)) < 1e-8
    assert np.max(np.abs(dp - full.dp)) < 1e-8
    assert np.isclose(a.dt_total + b.dt_total, full.dt_total)


def test_bias_correction_first_order():
    times, gyro, accel = constant_input(
        T=0.5, omega=(0.4, -0.2, 0.6), a=(1.0, 0.5, 9.0)
    )
    pim = pre.integrate(times, gyro, accel, t_start=0.0, t_end=0.5)
    db_a = np.array([2e-3, -1e-3, 3e-3])
    db_g = np.array([-1e-3, 2e-3, 1e-3])
    exact = pre.integrate(
        times, gyro, accel, bias_lin=(db_a, db_g), t_start=0.0, t_end=0.5
    )
    dR, dv, dp = pim.corrected(db_a, db_g)
    # first-order correction should match reintegration to O(|db|^2)
    assert np.max(np.abs(dR - exact.dR)) < 1e-4
    assert np.max(np.abs(dv - exact.dv)) < 1e-4
    assert np.max(np.abs(dp - exact.dp)) < 1e-4
    # and be much better than no correction at all
    assert np.max(np.abs(dv - exact.dv)) < 0.05 * np.max(np.abs(pim.dv - exact.dv))


def _varying_segment(T=0.1):
    """A 200 Hz stream of varying rates and forces over [0, T], and its
    preintegration at a nonzero bias."""
    times = np.arange(0.0, T + 1e-9, 1.0 / 200.0)
    gyro = (0.5 * np.sin(3 * times)[:, None] * np.array([1.0, -0.4, 0.2])
            + [0.3, 0.1, -0.2])
    accel = np.cos(2 * times)[:, None] * np.array([0.3, 1.0, -0.7]) + np.array(
        [0.0, 0.0, 9.81])
    bias = (np.array([0.02, -0.01, 0.03]), np.array([1e-3, -2e-3, 3e-3]))
    pim = pre.integrate(times, gyro, accel, bias_lin=bias, t_start=0.0, t_end=T)

    def at(b_accel, b_gyro):
        return pre.integrate(times, gyro, accel, bias_lin=(b_accel, b_gyro),
                             t_start=0.0, t_end=T)
    return pim, bias, at


def test_accel_bias_correction_is_exact():
    """dv and dp are linear in the accelerometer bias, so the correction of
    a 0.5 m/s^2 bias change equals re-integration at the new bias: DT can
    keep a segment's preintegration through a whole solve."""
    pim, (b_a, b_g), at = _varying_segment()
    b_new = b_a + np.array([0.5, -0.5, 0.5])
    exact = at(b_new, b_g)
    for got, want in zip(pim.corrected(b_new, b_g), (exact.dR, exact.dv, exact.dp)):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_bias_jacobian_matches_central_differences():
    """Each column of ``J_bias`` equals central differences of ``integrate``
    in that bias to 1e-8: dR in its right perturbation, dv and dp as
    vectors.  The gyroscope columns of dv and dp include the half step of
    the midpoint rotation."""
    pim, (b_a, b_g), at = _varying_segment()
    h = 1e-6
    fd = np.zeros((9, 6))
    for j in range(6):
        step = h * np.eye(6)[j]
        plus, minus = (at(b_a + s * step[:3], b_g + s * step[3:]) for s in (1, -1))
        fd[0:3, j] = so3_log(minus.dR.T @ plus.dR) / (2 * h)
        fd[3:6, j] = (plus.dv - minus.dv) / (2 * h)
        fd[6:9, j] = (plus.dp - minus.dp) / (2 * h)
    assert np.max(np.abs(fd[3:6, 3:6])) > 0.01  # the gyroscope columns of dv
    assert np.max(np.abs(pim.J_bias - fd)) < 1e-8


def test_gyro_bias_correction_is_first_order_only():
    """A gyroscope-bias change is corrected to first order: the corrected
    deltas differ from re-integration, the rotation by an error that
    shrinks fourfold when the change halves, and every delta by far less
    than without the correction."""
    pim, (b_a, b_g), at = _varying_segment()
    axis = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    errors = []
    for step in (0.1, 0.05):
        exact = at(b_a, b_g + step * axis)
        want = (exact.dR, exact.dv, exact.dp)
        got = pim.corrected(b_a, b_g + step * axis)
        err = [np.max(np.abs(x - y)) for x, y in zip(got, want)]
        raw = [np.max(np.abs(x - y)) for x, y in zip((pim.dR, pim.dv, pim.dp), want)]
        assert min(err) > 1e-9
        assert all(e < 0.1 * r for e, r in zip(err, raw))
        errors.append(err[0])
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_covariance_properties():
    times, gyro, accel = constant_input(T=0.5, omega=(0.2, 0.1, -0.3),
                                        a=(0.5, -0.2, 9.8))
    pim = pre.integrate(times, gyro, accel, gyro_sigma=1e-3, accel_sigma=1e-2,
                        t_start=0.0, t_end=0.5)
    cov = pim.covariance
    assert np.allclose(cov, cov.T, atol=1e-18)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-18)
    W = pim.sqrt_info()
    eye = W @ (cov + 1e-16 * np.eye(9)) @ W.T
    assert np.allclose(eye, np.eye(9), atol=1e-4)


def test_residual_zero_for_consistent_states(rng):
    times, gyro, accel = constant_input(T=0.3, omega=(0.3, -0.5, 0.2),
                                        a=(0.4, 1.0, 9.5))
    pim = pre.integrate(times, gyro, accel, t_start=0.0, t_end=0.3)
    R_i = random_rotation(rng)
    p_i = rng.normal(size=3)
    v_i = rng.normal(size=3)
    dt = pim.dt_total
    R_j = R_i @ pim.dR
    v_j = v_i - GRAVITY * dt + R_i @ pim.dv
    p_j = p_i + v_i * dt - 0.5 * GRAVITY * dt * dt + R_i @ pim.dp
    r = pre.preint_residual(
        R_i, p_i, v_i, np.zeros(3), np.zeros(3), R_j, p_j, v_j, pim
    )
    assert np.max(np.abs(r)) < 1e-12


def test_zero_length_segment():
    times, gyro, accel = constant_input(T=0.2)
    pim = pre.integrate(times, gyro, accel, t_start=0.1, t_end=0.1)
    assert pim.dt_total == 0.0
    assert np.allclose(pim.dR, np.eye(3))


def test_coverage_errors():
    times, gyro, accel = constant_input(T=0.2)
    with pytest.raises(DataError):
        pre.integrate(times, gyro, accel, t_start=0.0, t_end=0.5)
    with pytest.raises(InvalidArgumentError):
        pre.integrate(times, gyro, accel, t_start=0.2, t_end=0.1)
    with pytest.raises(InvalidArgumentError):
        pre.integrate(np.zeros(0), gyro, accel)
    bad = times.copy()
    bad[3] = bad[2]
    with pytest.raises(DataError):
        pre.integrate(bad, gyro, accel, t_start=0.0, t_end=0.2)


def test_stacked_residual_matches_per_segment_calls(rng):
    """With a leading segment axis, ``preint_residual`` gives row n the
    residual of segment n alone."""
    times = np.arange(0.0, 1.0 + 1e-9, 1.0 / 200.0)
    gyro = 0.5 * np.sin(3 * times)[:, None] * np.array([1.0, -0.4, 0.2])
    accel = np.cos(2 * times)[:, None] * np.array([0.3, 1.0, -0.7]) + np.array(
        [0.0, 0.0, 9.81]
    )
    edges = [0.0, 0.3, 0.55, 1.0]
    pims = [
        pre.integrate(times, gyro, accel,
                      bias_lin=(rng.normal(scale=1e-2, size=3),
                                rng.normal(scale=1e-3, size=3)),
                      t_start=a, t_end=b)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    n = len(pims)
    R_i = np.stack([random_rotation(rng) for _ in range(n)])
    R_j = np.stack([random_rotation(rng) for _ in range(n)])
    p_i, v_i, p_j, v_j = (rng.normal(size=(n, 3)) for _ in range(4))
    b_a = rng.normal(scale=1e-2, size=(n, 3))
    b_g = rng.normal(scale=1e-3, size=(n, 3))
    stacked = pre.stack(pims)
    assert stacked.dR.shape == (n, 3, 3)
    assert stacked.bias_lin[0].shape == (n, 3)
    r = pre.preint_residual(R_i, p_i, v_i, b_a, b_g, R_j, p_j, v_j, stacked)
    assert r.shape == (n, 9)
    for k, pim in enumerate(pims):
        r_k = pre.preint_residual(R_i[k], p_i[k], v_i[k], b_a[k], b_g[k],
                                  R_j[k], p_j[k], v_j[k], pim)
        assert np.allclose(r[k], r_k, rtol=0.0, atol=1e-12)


def test_gravity_is_read_only():
    """The constant every estimator and the simulator import cannot be
    changed in place through the package export."""
    import splinefusion as sf
    from splinefusion import estimators, simulate

    with pytest.raises(ValueError):
        sf.GRAVITY[2] = -9.7
    for module in (estimators, simulate):
        assert np.array_equal(module.GRAVITY, [0.0, 0.0, -9.81])
