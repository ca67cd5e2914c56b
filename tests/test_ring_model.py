import dataclasses
import json

import numpy as np
import pytest

from vortexlab.geometry import frame_from_derivatives
from vortexlab.ring_model import (
    CoefficientTensor,
    RingConfig,
    deformation_eval,
    embed,
    kinematics_at,
    phi_eval,
    radius_profile,
    radius_profile_deriv,
    transport_gamma,
)
from vortexlab.wave_dynamics import _rate_stencil, _rk4_abscissae, _trial_grid

from oracles import fd_derivatives, richardson_time_derivative


@pytest.fixture
def desk_cfg():
    return RingConfig(J=4, K=6, n_s=64)


def random_tensor(rng, cfg, scale=1.0):
    flat = rng.uniform(-scale, scale, 4 * (cfg.J + 1) * (cfg.K + 1))
    return CoefficientTensor.from_flat(flat, cfg.J, cfg.K)


def test_radius_profile_values():
    assert radius_profile(0.0, 0.02) == pytest.approx(0.51, abs=1e-15)
    assert radius_profile(0.25, 0.02) == pytest.approx(0.49, abs=1e-15)
    for s in (0.0, 0.123, 0.77):
        assert radius_profile(s, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_radius_profile_periodic_under_turns():
    s = np.linspace(0, 1, 13)
    np.testing.assert_allclose(radius_profile(s, 0.02), radius_profile(s + 1.0, 0.02), rtol=1e-14)


def test_radius_profile_deriv_matches_fd():
    h = 1e-6
    for s in (0.03, 0.2, 0.61, 0.9):
        fd = (radius_profile(s + h, 0.02) - radius_profile(s - h, 0.02)) / (2 * h)
        assert radius_profile_deriv(s, 0.02) == pytest.approx(fd, abs=1e-8)


def test_transport_gamma_values():
    g, g1, _, _ = transport_gamma(1.0 / 24.0)
    assert g == pytest.approx(1.0, abs=1e-14)
    assert g1 == pytest.approx(12 * np.pi, rel=1e-14)
    g, g1, _, _ = transport_gamma(0.0)
    assert g == 0.0 and g1 == 0.0
    g, _, _, _ = transport_gamma(1.0 / 48.0)
    assert g == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-14)
    assert g == pytest.approx(0.292893, abs=1e-6)


def test_deformation_zero_tensor(desk_cfg):
    c = CoefficientTensor.zeros(desk_cfg.J, desk_cfg.K)
    d = deformation_eval(0.03, np.linspace(0, 1, 9), c, desk_cfg)
    for name in ("g1", "g1_t", "g1_tt", "g1_ttt", "g1_s", "g2", "g2_t", "g2_tt", "g2_ttt", "g2_s"):
        assert np.all(getattr(d, name) == 0.0)


def test_deformation_k0_sine_mode_is_identically_zero():
    cfg = RingConfig(J=20, K=10)
    arr = np.zeros((2, 2, 21, 11))
    arr[0, 0, 0, 0] = 1.0  # sine mode k=0: sin(0) = 0 everywhere
    c = CoefficientTensor(arr)
    d = deformation_eval(0.03, np.linspace(0, 1, 17), c, cfg)
    assert np.all(d.g1 == 0.0)
    assert np.all(d.g1_t == 0.0)


def test_deformation_single_cosine_mode():
    cfg = RingConfig(J=20, K=10)
    arr = np.zeros((2, 2, 21, 11))
    arr[0, 1, 0, 1] = 11.0  # (K+1) cancels the normalization at s=0
    c = CoefficientTensor(arr)
    t = cfg.t0 + 0.005
    d = deformation_eval(t, 0.0, c, cfg)
    assert d.g1 == pytest.approx(t - cfg.t0, rel=1e-14)
    assert d.g1_t == pytest.approx(1.0, rel=1e-14)


def test_deformation_vanishes_at_t0(desk_cfg):
    rng = np.random.default_rng(5)
    c = random_tensor(rng, desk_cfg, scale=30.0)
    s = np.linspace(0, 1, 33)
    d = deformation_eval(desk_cfg.t0, s, c, desk_cfg)
    assert np.all(d.g1 == 0.0) and np.all(d.g2 == 0.0)
    assert np.all(d.g1_s == 0.0) and np.all(d.g2_s == 0.0)
    # initial rate picks out the j=0 row
    k = np.arange(desk_cfg.K + 1)
    expected = (
        c.c[0, 0, 0] @ np.sin(2 * np.pi * k * 0.3) + c.c[0, 1, 0] @ np.cos(2 * np.pi * k * 0.3)
    ) / (desk_cfg.K + 1)
    d_point = deformation_eval(desk_cfg.t0, 0.3, c, desk_cfg)
    assert d_point.g1_t == pytest.approx(expected, rel=1e-12)


def test_phi_eval_baseline_values():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    p = phi_eval(1.0 / 24.0, 0.0, c, cfg)
    np.testing.assert_allclose(p.position, [1.51, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(p.ds, [0.0, 2 * np.pi * 1.51, 0.0], atol=1e-12)
    # purely radial transport: |d1| = Gamma'(t)
    for t in (cfg.t0, 0.03, cfg.t1):
        for s in (0.0, 0.37):
            p = phi_eval(t, s, c, cfg)
            assert np.linalg.norm(p.d1) == pytest.approx(transport_gamma(t)[1], rel=1e-14)


def test_phi_eval_periodic_in_s(desk_cfg):
    rng = np.random.default_rng(6)
    c = random_tensor(rng, desk_cfg, scale=5.0)
    a = phi_eval(0.03, 0.21, c, desk_cfg)
    b = phi_eval(0.03, 1.21, c, desk_cfg)
    np.testing.assert_allclose(a.position, b.position, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.ds, b.ds, rtol=0, atol=1e-11)


def test_closed_form_derivatives_match_fd(desk_cfg):
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        c = random_tensor(rng, desk_cfg)
        t = rng.uniform(desk_cfg.t0, desk_cfg.t1)
        s = rng.uniform(0, 1)
        p = phi_eval(t, s, c, desk_cfg)
        pp, pm = phi_eval(t + h, s, c, desk_cfg), phi_eval(t - h, s, c, desk_cfg)
        sp, sm = phi_eval(t, s + h, c, desk_cfg), phi_eval(t, s - h, c, desk_cfg)
        pairs = [
            (p.d1, (pp.position - pm.position) / (2 * h)),
            (p.d2, (pp.d1 - pm.d1) / (2 * h)),
            (p.d3, (pp.d2 - pm.d2) / (2 * h)),
            (p.ds, (sp.position - sm.position) / (2 * h)),
        ]
        for closed, fd in pairs:
            err = np.linalg.norm(closed - fd) / max(np.linalg.norm(closed), 1e-9)
            assert err < 1e-6


def test_kinematics_baseline_straight_rays():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    kin = kinematics_at(1.0 / 24.0, np.array([0.0, 0.125, 0.6]), c, cfg)
    np.testing.assert_allclose(kin.kappa, 0.0, atol=1e-15)
    np.testing.assert_allclose(kin.kappa_t, 0.0, atol=1e-12)
    assert np.all(kin.degenerate)
    np.testing.assert_allclose(kin.v, 12 * np.pi, rtol=1e-12)
    np.testing.assert_allclose(kin.v_t, 0.0, atol=1e-9)


def test_trial_grid_matches_generic_frame(desk_cfg):
    # the trial path's meridional kernels against the generic Cartesian routine
    # at the grid's own rows: the outer rate-stencil times, then the RK4 nodes,
    # then the RK4 midpoints
    c = random_tensor(np.random.default_rng(15), desk_cfg, scale=5.0)
    rk4 = _rk4_abscissae(desk_cfg.t0, desk_cfg.t1, desk_cfg.n_time)
    times = np.concatenate([_rate_stencil(desk_cfg)[::2], rk4[::2], rk4[1::2]])
    grid = _trial_grid(desk_cfg)
    (v, v_t, kappa, _), frame, tangent, zero = grid.evaluate(c.c[None], desk_cfg)
    assert zero.tolist() == [False]
    assert times[grid.rate_rows].tolist() == [desk_cfg.t0]
    # the one trial of the stack
    v, v_t, kappa = (x[:, 0] for x in (v, v_t, kappa))
    frame, tangent = frame[:, 0], [x[:, 0] for x in tangent]
    p = phi_eval(times, desk_cfg.s_grid, c, desk_cfg)
    oracle = frame_from_derivatives(p.d1, p.d2, p.d3, desk_cfg.eps_kappa, desk_cfg.eps_v)
    np.testing.assert_array_equal(kappa < desk_cfg.eps_kappa, oracle.degenerate)
    for got, want in ((v, oracle.v), (v_t, oracle.v_t[grid.rate_rows]), (kappa, oracle.kappa)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    # the frame and the unit ring tangent on the tangent rows, the stencil and
    # the nodes; the generic b = unit(d1 x d2) carries rounding of relative size
    # |d1| |d2| / |d1 x d2|
    rows = slice(desk_cfg.n_time + 3)
    assert len(frame.tau_r) == len(tangent[0]) == desk_cfg.n_time + 3
    cond = np.linalg.norm(p.d1, axis=-1) * np.linalg.norm(p.d2, axis=-1) / (oracle.kappa * oracle.v**3)
    cond = np.where(oracle.degenerate, 1.0, cond)[rows]
    axes = [getattr(oracle.frame, name)[rows] for name in ("tau", "n", "b")]
    ds = p.ds[rows] / np.linalg.norm(p.ds[rows], axis=-1, keepdims=True)
    for unit, axis, component in zip(np.eye(3), axes, tangent):
        error = np.abs(embed(frame.vector(*unit), desk_cfg.s_grid) - axis)
        assert np.all(error <= 1e-12 * cond[..., None])
        assert np.all(np.abs(component - np.sum(ds * axis, axis=-1)) <= 1e-12 * cond)


def test_kinematics_kappa_matches_sampled_trajectory(desk_cfg):
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 20:
        c = random_tensor(rng, desk_cfg, scale=0.3)
        t = rng.uniform(desk_cfg.t0 + 0.002, desk_cfg.t1 - 0.002)
        s = rng.uniform(0, 1)
        kin = kinematics_at(t, s, c, desk_cfg)
        if kin.degenerate or kin.kappa < 1e-3:
            continue
        d1, d2, _ = fd_derivatives(lambda tt: phi_eval(tt, s, c, desk_cfg).position, t, 1e-5)
        kappa_fd = np.linalg.norm(np.cross(d1, d2)) / np.linalg.norm(d1) ** 3
        assert kin.kappa == pytest.approx(kappa_fd, rel=1e-5)
        checked += 1


def test_kappa_t_matches_richardson_oracle(desk_cfg):
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 10:
        c = random_tensor(rng, desk_cfg, scale=0.5)
        t = rng.uniform(desk_cfg.t0 + 0.002, desk_cfg.t1 - 0.002)
        s = rng.uniform(0, 1)
        kin = kinematics_at(t, s, c, desk_cfg)
        if kin.degenerate or kin.kappa < 1e-3:
            continue

        def kappa_of_t(tt):
            p = phi_eval(tt, s, c, desk_cfg)
            return np.linalg.norm(np.cross(p.d1, p.d2)) / np.linalg.norm(p.d1) ** 3

        oracle = richardson_time_derivative(kappa_of_t, t, 1e-4)
        assert abs(kin.kappa_t - oracle) / max(abs(oracle), 1.0) < 1e-5
        checked += 1


def test_kappa_t_is_independent_of_fd_step(desk_cfg):
    # closed form: the finite-difference step of the time stencils must not enter
    c = random_tensor(np.random.default_rng(10), desk_cfg, scale=5.0)
    coarse = dataclasses.replace(desk_cfg, fd_step_factor=2.0**-3)
    fine = dataclasses.replace(desk_cfg, fd_step_factor=2.0**-10)
    for t in (desk_cfg.t0, 0.03, desk_cfg.t1):
        a = kinematics_at(t, desk_cfg.s_grid, c, coarse).kappa_t
        b = kinematics_at(t, desk_cfg.s_grid, c, fine).kappa_t
        assert np.any(a != 0.0)
        np.testing.assert_array_equal(a, b)


def test_array_of_times_matches_per_time_calls(desk_cfg):
    c = random_tensor(np.random.default_rng(13), desk_cfg, scale=5.0)
    times = np.array([desk_cfg.t0 - desk_cfg.fd_step, desk_cfg.t0, 0.03, desk_cfg.t1])
    s = desk_cfg.s_grid
    grid = phi_eval(times, s, c, desk_cfg)
    kin = kinematics_at(times, s, c, desk_cfg)
    assert grid.position.shape == (len(times), len(s), 3)
    assert kin.v.shape == (len(times), len(s))
    for i, t in enumerate(times):
        point = phi_eval(t, s, c, desk_cfg)
        for name in ("position", "d1", "d2", "d3", "ds"):
            np.testing.assert_allclose(
                getattr(grid, name)[i], getattr(point, name), rtol=1e-13, atol=1e-12
            )
        one = kinematics_at(t, s, c, desk_cfg)
        for name in ("v", "v_t", "v_tt", "kappa", "kappa_t", "torsion"):
            np.testing.assert_allclose(getattr(kin, name)[i], getattr(one, name), rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(kin.frame.tau[i], one.frame.tau, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(kin.frame.n[i], one.frame.n, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(kin.degenerate[i], one.degenerate)
    # a scalar s with an array of times gives one point per time
    assert phi_eval(times, 0.3, c, desk_cfg).d1.shape == (len(times), 3)


def test_stacked_tensors_match_single_tensor_calls(desk_cfg):
    # a (B, 2, 2, J+1, K+1) stack, each tensor at its own times and one angle
    rng = np.random.default_rng(14)
    coeffs = rng.uniform(-0.5, 0.5, (100, 2, 2, desk_cfg.J + 1, desk_cfg.K + 1))
    h = desk_cfg.fd_step
    times = np.add.outer(rng.uniform(desk_cfg.t0, desk_cfg.t1, 100), [-h, 0.0, h])
    s = rng.uniform(0.0, 1.0, 100)
    stack = phi_eval(times, s, coeffs, desk_cfg)
    assert stack.d2.shape == (100, 3, 3)
    for b in range(100):
        single = phi_eval(times[b], s[b], CoefficientTensor(coeffs[b]), desk_cfg)
        for name in ("position", "d1", "d2", "d3", "ds"):
            want = getattr(single, name)
            # relative to each vector's size: a component can cancel to ~0
            error = np.abs(getattr(stack, name)[b] - want).max(axis=-1)
            assert np.all(error <= 1e-13 * np.abs(want).max(axis=-1)), name
    deformation = deformation_eval(times, s, coeffs, desk_cfg)
    assert deformation.g1_s.shape == times.shape


def test_coefficient_tensor_shape_and_bounds():
    with pytest.raises(ValueError):
        CoefficientTensor(np.zeros((2, 3, 4, 5)))
    with pytest.raises(ValueError):
        CoefficientTensor(np.full((2, 2, 2, 2), np.nan))
    c = CoefficientTensor.zeros(2, 3)
    assert c.J == 2 and c.K == 3
    with pytest.raises(ValueError):
        c.c[0, 0, 0, 0] = 1.0  # frozen


def test_coefficient_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    flat = rng.uniform(-30, 30, 4 * 3 * 4)
    c = CoefficientTensor.from_flat(flat, 2, 3)
    path = tmp_path / "coeffs.json"
    c.save(path)
    again = CoefficientTensor.load(path)
    assert np.array_equal(c.c, again.c)  # exact, not approx
    d = json.loads(path.read_text())
    assert d["J"] == 2 and d["K"] == 3
    with pytest.raises(ValueError):
        CoefficientTensor.from_json_dict({"J": 1, "K": 3, "c": c.c.tolist()})


def test_flatten_order_row_major():
    arr = np.arange(4 * 2 * 3, dtype=float).reshape(2, 2, 2, 3)
    c = CoefficientTensor(arr)
    np.testing.assert_array_equal(c.flatten(), np.arange(24.0))
    again = CoefficientTensor.from_flat(c.flatten(), 1, 2)
    np.testing.assert_array_equal(again.c, arr)


def test_ring_config_validation():
    with pytest.raises(ValueError):
        RingConfig(t0=0.5, t1=0.1)
    with pytest.raises(ValueError):
        RingConfig(n_time=1)
    with pytest.raises(ValueError):
        RingConfig(n_s=2)
    with pytest.raises(ValueError):
        RingConfig(delta=1.0)
    with pytest.raises(ValueError):
        RingConfig(c_max=0.0)
    # every float field must be finite, and the stencil step positive
    for name in ("delta", "t0", "t1", "c_max", "eps_v", "eps_kappa", "eps_align", "fd_step_factor"):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RingConfig(**{name: value})
    for value in (0.0, -(2.0**-10)):
        with pytest.raises(ValueError, match="fd_step_factor must be > 0"):
            RingConfig(fd_step_factor=value)
    # eps_v <= 0 disables the zero-speed gate, eps_kappa <= 0 the frame's fallback
    for name in ("eps_v", "eps_kappa"):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be > 0"):
                RingConfig(**{name: value})
    with pytest.raises(ValueError, match="eps_align must be >= 0"):
        RingConfig(eps_align=-0.5)
    assert RingConfig(eps_align=0.0).eps_align == 0.0
