import numpy as np
import pytest

from vortexlab.geometry import (
    ZeroSpeed,
    _meridional_kinematics,
    frame_from_derivatives,
)
from vortexlab.ring_model import embed_kinematics

from oracles import fd_curvature_torsion, richardson_time_derivative


def helix_pos(u, a=1.0, c=1.0):
    return np.array([a * np.cos(u), a * np.sin(u), c * u])


def helix_derivatives(u, a=1.0, c=1.0):
    d1 = np.array([-a * np.sin(u), a * np.cos(u), c])
    d2 = np.array([-a * np.cos(u), -a * np.sin(u), 0.0])
    d3 = np.array([a * np.sin(u), -a * np.cos(u), 0.0])
    return d1, d2, d3


def trig_curve(coeffs):
    """Closed-form trig-polynomial curve and its first three derivatives."""

    def pos(u):
        out = np.zeros(3)
        for m, (a, b) in enumerate(coeffs, start=1):
            out += a * np.cos(m * u) + b * np.sin(m * u)
        return out

    def derivs(u):
        d = [np.zeros(3) for _ in range(3)]
        for m, (a, b) in enumerate(coeffs, start=1):
            cos, sin = np.cos(m * u), np.sin(m * u)
            d[0] += m * (-a * sin + b * cos)
            d[1] += m**2 * (-a * cos - b * sin)
            d[2] += m**3 * (a * sin - b * cos)
        return d

    return pos, derivs


def test_helix_curvature_torsion():
    kin = frame_from_derivatives(*helix_derivatives(0.0))
    assert kin.kappa == pytest.approx(0.5, abs=1e-12)
    assert kin.torsion == pytest.approx(0.5, abs=1e-12)
    assert not kin.degenerate
    # independent brute-force oracle on the sampled helix
    kappa_fd, torsion_fd = fd_curvature_torsion(helix_pos, 0.0)
    assert kin.kappa == pytest.approx(kappa_fd, rel=1e-6)
    assert kin.torsion == pytest.approx(torsion_fd, rel=1e-6)


def test_parabola_curvature_rate_closed_form():
    # (t, t^2, 0): kappa = 2 (1 + 4t^2)^(-3/2), kappa' = -24 t (1 + 4t^2)^(-5/2)
    t = np.linspace(-1.5, 1.5, 13)
    zeros = np.zeros_like(t)
    d1 = np.stack([np.ones_like(t), 2.0 * t, zeros], axis=-1)
    d2 = np.broadcast_to([0.0, 2.0, 0.0], d1.shape)
    kin = frame_from_derivatives(d1, d2, np.zeros_like(d1))
    np.testing.assert_allclose(kin.kappa, 2.0 * (1.0 + 4.0 * t**2) ** -1.5, rtol=1e-14)
    np.testing.assert_allclose(kin.kappa_t, -24.0 * t * (1.0 + 4.0 * t**2) ** -2.5, rtol=1e-13, atol=1e-15)
    single = frame_from_derivatives(d1[3], d2[3], np.zeros(3))
    assert isinstance(single.kappa_t, float)
    assert single.kappa_t == pytest.approx(kin.kappa_t[3], rel=1e-15)


def test_curvature_rate_zero_where_cross_product_vanishes():
    d1 = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.5], [0.0, 3.0, 0.0]])
    d2 = np.array([[0.0, 0.0, 0.0], [4.0, 2.0, 1.0], [0.0, -1.0, 0.0]])
    d3 = np.array([[0.0, 5.0, 1.0], [0.1, -0.2, 0.3], [7.0, 0.0, 2.0]])
    kin = frame_from_derivatives(d1, d2, d3)
    assert np.all(np.cross(d1, d2) == 0.0)
    assert np.all(kin.kappa_t == 0.0)


def test_curvature_rate_matches_derivative_of_curvature():
    rng = np.random.default_rng(5)
    for _ in range(10):
        _, derivs = trig_curve(rng.standard_normal((3, 2, 3)))
        u = rng.uniform(0, 2 * np.pi)
        kin = frame_from_derivatives(*derivs(u))
        if kin.kappa < 1e-3:
            continue
        oracle = richardson_time_derivative(
            lambda uu: frame_from_derivatives(*derivs(uu)).kappa, u, 1e-3
        )
        assert kin.kappa_t == pytest.approx(oracle, rel=1e-7, abs=1e-9)


def test_straight_line_degenerate_fallback():
    kin = frame_from_derivatives(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3))
    assert kin.degenerate
    assert kin.kappa == 0.0
    assert kin.torsion == 0.0
    np.testing.assert_allclose(kin.frame.n, [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(kin.frame.b, [0.0, 0.0, 1.0], atol=1e-15)


def test_vertical_tangent_uses_x_fallback():
    kin = frame_from_derivatives(np.array([0.0, 0.0, 2.0]), np.zeros(3), np.zeros(3))
    assert kin.degenerate
    assert abs(kin.frame.n @ kin.frame.tau) < 1e-15
    np.testing.assert_allclose(np.cross(kin.frame.tau, kin.frame.n), kin.frame.b, atol=1e-15)


def test_unit_circle():
    kin = frame_from_derivatives(
        np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])
    )
    assert kin.kappa == pytest.approx(1.0, abs=1e-14)
    assert kin.torsion == 0.0
    np.testing.assert_allclose(kin.frame.tau, [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(kin.frame.n, [-1.0, 0.0, 0.0], atol=1e-15)


def test_zero_speed_raises():
    with pytest.raises(ZeroSpeed):
        frame_from_derivatives(np.zeros(3), np.ones(3), np.ones(3))


def test_frame_orthonormal_right_handed_random_sweep():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d1, d2, d3 = rng.standard_normal((3, 3))
        kin = frame_from_derivatives(d1, d2, d3)
        f = kin.frame
        for vec in (f.tau, f.n, f.b):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(f.tau @ f.n) < 1e-12
        assert abs(f.tau @ f.b) < 1e-12
        assert abs(f.n @ f.b) < 1e-12
        np.testing.assert_allclose(np.cross(f.tau, f.n), f.b, atol=1e-12)
        assert kin.kappa >= 0.0


def test_speed_derivatives_match_fd():
    rng = np.random.default_rng(2)
    coeffs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
    pos, derivs = trig_curve(coeffs)
    u = 0.37
    kin = frame_from_derivatives(*derivs(u))
    h = 1e-5

    def speed(uu):
        return np.linalg.norm(derivs(uu)[0])

    v_t_fd = (speed(u + h) - speed(u - h)) / (2 * h)
    v_tt_fd = (speed(u + h) - 2 * speed(u) + speed(u - h)) / h**2
    assert kin.v == pytest.approx(speed(u), rel=1e-12)
    assert kin.v_t == pytest.approx(v_t_fd, rel=1e-8)
    assert kin.v_tt == pytest.approx(v_tt_fd, rel=1e-4)


def test_frenet_serret_residuals_on_helix():
    # d(tau)/dz = kappa n and d(n)/dz = -kappa tau + T b, z the arc length
    a, c = 1.3, 0.6
    v = np.hypot(a, c)
    h = 1e-4
    for u in (0.0, 0.7, 2.1):
        kins = [
            frame_from_derivatives(*helix_derivatives(uu, a, c))
            for uu in (u - h, u, u + h)
        ]
        kin = kins[1]
        dtau_dz = (kins[2].frame.tau - kins[0].frame.tau) / (2 * h * v)
        res1 = dtau_dz - kin.kappa * kin.frame.n
        assert np.linalg.norm(res1) < 1e-6
        dn_dz = (kins[2].frame.n - kins[0].frame.n) / (2 * h * v)
        res2 = dn_dz + kin.kappa * kin.frame.tau - kin.torsion * kin.frame.b
        assert np.linalg.norm(res2) < 1e-6


def test_curvature_torsion_match_fd_oracle_random_curves():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 25:
        coeffs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
        pos, derivs = trig_curve(coeffs)
        u = rng.uniform(0, 2 * np.pi)
        kin = frame_from_derivatives(*derivs(u))
        if kin.degenerate or kin.kappa < 1e-3 or abs(kin.torsion) < 1e-3:
            continue
        kappa_fd, torsion_fd = fd_curvature_torsion(pos, u)
        assert kin.kappa == pytest.approx(kappa_fd, rel=1e-6)
        assert kin.torsion == pytest.approx(torsion_fd, rel=1e-6)
        checked += 1


def test_degenerate_flag_convention():
    # curvature below threshold: torsion forced to 0, n orthogonal to tau
    d1 = np.array([2.0, 1.0, 0.5])
    kin = frame_from_derivatives(d1, d1 * 3.0, np.array([0.1, -0.2, 0.3]))
    assert kin.degenerate  # d2 parallel to d1
    assert kin.torsion == 0.0
    assert abs(kin.frame.n @ kin.frame.tau) < 1e-15


def test_batched_inputs_match_scalar_path():
    rng = np.random.default_rng(4)
    d1, d2, d3 = rng.standard_normal((3, 5, 3))
    batch = frame_from_derivatives(d1, d2, d3)
    for i in range(5):
        single = frame_from_derivatives(d1[i], d2[i], d3[i])
        assert batch.v[i] == pytest.approx(single.v, rel=1e-15)
        assert batch.kappa[i] == pytest.approx(single.kappa, rel=1e-15)
        assert batch.torsion[i] == pytest.approx(single.torsion, rel=1e-15)
        np.testing.assert_allclose(batch.frame.n[i], single.frame.n, atol=1e-15)


def test_meridional_kernel_matches_generic_frame():
    # random meridional components embedded at random angles: regular rows,
    # then W = 0 rows (radial motion, d1 x d2 = 0), then vertical rows (x_hat fallback)
    rng = np.random.default_rng(14)
    n = 300
    a, b = rng.standard_normal((2, 3, n))
    b[:2, 100:200] = 0.0
    a[:2, 200:] = 0.0
    s = rng.uniform(0.0, 1.0, n)
    azimuth = 2.0 * np.pi * s
    e_r = np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros(n)], axis=-1)
    d1, d2, d3 = (a[k][:, None] * e_r + b[k][:, None] * np.array([0.0, 0.0, 1.0]) for k in range(3))

    oracle = frame_from_derivatives(d1, d2, d3)
    kin = _meridional_kinematics(a, b, azimuth)
    np.testing.assert_array_equal(kin.degenerate, oracle.degenerate)
    np.testing.assert_array_equal(kin.degenerate, np.arange(n) >= 100)
    assert np.all(kin.torsion == 0.0)
    # the inputs are O(1), so an absolute 1e-12 is relative to their scale
    for name in ("v", "v_t", "v_tt", "kappa"):
        np.testing.assert_allclose(getattr(kin, name), getattr(oracle, name), rtol=1e-12, atol=1e-12)
    # kappa' relative to the size of its terms; where W = 0 the oracle's d1 x d2
    # is rounding noise and its rate term reads that noise, the kernel's is exactly 0
    scale = np.linalg.norm(d1, axis=-1) * np.linalg.norm(d3, axis=-1) / kin.v**3
    assert np.all(np.abs(kin.kappa_t - oracle.kappa_t) <= 1e-12 * (scale + np.abs(kin.kappa_t)))
    assert np.all(kin.kappa_t[100:] == 0.0)
    frame = embed_kinematics(kin, s).frame
    for name in ("tau", "n", "b"):
        np.testing.assert_allclose(getattr(frame, name), getattr(oracle.frame, name), rtol=0, atol=1e-12)
    # the vertical rows took the x_hat branch: n has an e_r component there
    assert np.all(np.abs(kin.frame.n_m[200:]) > 0.0)
