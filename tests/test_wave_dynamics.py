import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from vortexlab.geometry import frame_from_derivatives
from vortexlab.ring_model import CoefficientTensor, RingConfig, kinematics_at, phi_eval
from vortexlab.wave_dynamics import (
    aligned_initial_state,
    axis_field,
    integrate_alpha,
    integrate_wave_system,
    solve_initial_alignment,
    wave_coefficients,
)
import vortexlab.wave_dynamics as wave_dynamics

from oracles import fd_derivatives, richardson_time_derivative


@pytest.fixture
def circle_frame():
    kin = frame_from_derivatives(
        np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])
    )
    return kin.frame


def test_alignment_already_aligned(circle_frame):
    a1, a2, feasible = solve_initial_alignment(circle_frame, circle_frame.tau)
    assert feasible
    assert a1 == pytest.approx(0.0, abs=1e-15)
    assert a2 == pytest.approx(0.0, abs=1e-15)


def test_alignment_tau_plus_n(circle_frame):
    target = (circle_frame.tau + circle_frame.n) / np.sqrt(2)
    a1, a2, feasible = solve_initial_alignment(circle_frame, target)
    assert feasible
    assert a1 == pytest.approx(-1.0, rel=1e-14)
    assert a2 == pytest.approx(0.0, abs=1e-15)


def test_alignment_normal_is_infeasible(circle_frame):
    a1, a2, feasible = solve_initial_alignment(circle_frame, circle_frame.n)
    assert not feasible
    assert np.isnan(a1) and np.isnan(a2)


def test_alignment_gives_exact_unit_correlation(circle_frame):
    targets = np.random.default_rng(11).standard_normal((200, 3))
    a1, a2, feasible = solve_initial_alignment(circle_frame, targets)
    expect = targets @ circle_frame.tau > 1e-6 * np.linalg.norm(targets, axis=-1)
    np.testing.assert_array_equal(feasible, expect)
    assert np.all(np.isnan(a1[~feasible])) and np.all(np.isnan(a2[~feasible]))
    a1, a2, targets = a1[feasible], a2[feasible], targets[feasible]
    zeta = circle_frame.tau - a1[:, None] * circle_frame.n - a2[:, None] * circle_frame.b
    corr = np.sum(zeta * targets, axis=-1) / (
        np.linalg.norm(zeta, axis=-1) * np.linalg.norm(targets, axis=-1)
    )
    np.testing.assert_allclose(corr, 1.0, atol=1e-12)
    # swirl axis keeps unit tangent component and |zeta|^2 = 1 + a1^2 + a2^2
    np.testing.assert_allclose(zeta @ circle_frame.tau, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(zeta * zeta, axis=-1), 1.0 + a1**2 + a2**2, rtol=1e-12)


def test_initial_rates_zero_for_stationary_alignment(monkeypatch):
    cfg = RingConfig(J=2, K=2, n_s=8)
    c = CoefficientTensor.zeros(2, 2)

    def frozen_alignment(a, b, c, eps_align):
        shape = a.shape  # (t0 - h, t0, t0 + h) x s-grid
        return np.full(shape, 0.7), np.full(shape, -0.2), np.ones(shape, dtype=bool)

    monkeypatch.setattr(wave_dynamics, "_alignment", frozen_alignment)
    init, feasible = aligned_initial_state(c, cfg)
    assert np.all(feasible)
    np.testing.assert_allclose(init.alpha1, 0.7)
    np.testing.assert_allclose(init.alpha1_t, 0.0, atol=1e-15)
    np.testing.assert_allclose(init.alpha2_t, 0.0, atol=1e-15)


def test_initial_rates_match_richardson_oracle():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    col = 48
    s = cfg.s_grid[col]
    assert s == 0.375  # feasible for the undeformed ring

    def alignment_solution(t):
        kin = kinematics_at(t, s, c, cfg)
        zs = phi_eval(t, s, c, cfg).ds
        return np.array(solve_initial_alignment(kin.frame, zs, cfg.eps_align)[:2])

    oracle = richardson_time_derivative(alignment_solution, cfg.t0, cfg.fd_step)
    init, feasible = aligned_initial_state(c, cfg)
    assert feasible[col]
    assert init.alpha1_t[col] == pytest.approx(oracle[0], rel=1e-6)
    assert init.alpha2_t[col] == pytest.approx(oracle[1], abs=1e-8)


def test_initial_rates_propagate_infeasibility():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    init, feasible = aligned_initial_state(c, cfg)
    assert not feasible[0]  # symmetry point of the ellipse
    assert np.isnan(init.alpha1_t[0]) and np.isnan(init.alpha2_t[0])


def test_synthetic_oscillator_alpha2_tracks_speed():
    # v = 2 + sin t solves alpha'' = (v''/v) alpha when started on it
    t0, t1 = 0.3, 0.3 + 1.0 / 48.0

    def coeff_fn(t):
        return np.array([-np.sin(t) / (2.0 + np.sin(t))]), np.array([0.0])

    y0 = np.array([[0.0], [0.0], [2.0 + np.sin(t0)], [np.cos(t0)]])
    states = integrate_wave_system(coeff_fn, t0, t1, 32, y0)
    exact = 2.0 + np.sin(t1)
    assert abs(states[-1][2, 0] - exact) / exact < 1e-8


def test_homogeneous_symmetry_alpha1_equals_alpha2():
    # with zero forcing both components obey the same equation
    def coeff_fn(t):
        return np.array([0.3 * np.cos(t)]), np.array([0.0])

    y0 = np.array([[1.2], [-0.4], [1.2], [-0.4]])
    states = integrate_wave_system(coeff_fn, 0.0, 1.0, 64, y0)
    for y in states:
        assert y[0, 0] == pytest.approx(y[2, 0], rel=1e-14)
        assert y[1, 0] == pytest.approx(y[3, 0], rel=1e-14)


def test_rk4_self_convergence_against_fine_reference():
    # integrate_alpha's closed-form solve (cumulative Simpson) is fourth
    # order in the step, like the RK4 it replaced
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    init, feas = aligned_initial_state(c, cfg)
    coarse = integrate_alpha(c, cfg, init)[0][-1]
    fine = integrate_alpha(c, dataclasses.replace(cfg, n_time=320), init)[0][-1]
    halved = integrate_alpha(c, dataclasses.replace(cfg, n_time=64), init)[0][-1]

    def rel_err(state):
        num = np.abs(state.alpha1 - fine.alpha1)[feas]
        den = np.maximum(np.abs(fine.alpha1)[feas], 1.0)
        return np.max(num / den)

    err32, err64 = rel_err(coarse), rel_err(halved)
    assert err32 < 1e-9
    # order 4: halving the step cuts the error ~16x (within a factor 2)
    assert 8.0 < err32 / err64 < 32.0


@pytest.mark.parametrize("scale", [1.0, 5.0, 30.0])
def test_closed_form_alpha_matches_rk4_on_wave_coefficients(scale):
    # integrate_alpha solves the wave equations through their first
    # integrals; RK4 on wave_coefficients, the coefficients `vortexlab verify`
    # certifies, solves them as written, asking for coefficients at the same
    # half-step rows.  On the feasible columns of the desk golden tensors,
    # relative to the largest |alpha| there, the gaps measured 7.7e-6 for
    # alpha1 (largest where kappa passes near 0 and |W| kinks) and 1.2e-7
    # for alpha2: tolerances 1e-4 and 2e-6 keep >= 13x headroom.
    cfg = RingConfig(J=4, K=6, n_s=64)
    golden = json.loads((Path(__file__).parent / "golden_scores.json").read_text())
    seeds = [e["seed"] for e in golden if e["ring"] == "desk" and e["scale"] == scale]
    assert seeds
    for seed in seeds:
        flat = np.random.default_rng(seed).uniform(-scale, scale, 140)
        c = CoefficientTensor.from_flat(flat, 4, 6)
        init, feas = aligned_initial_state(c, cfg)
        assert feas.any()
        states = integrate_alpha(c, cfg, init)[0]

        def coeff_fn(t):
            return wave_coefficients(kinematics_at(t, cfg.s_grid, c, cfg))

        y0 = np.stack([init.alpha1, init.alpha1_t, init.alpha2, init.alpha2_t])
        ref = np.array(integrate_wave_system(coeff_fn, cfg.t0, cfg.t1, cfg.n_time, y0))
        for name, row, tol in (("alpha1", 0, 1e-4), ("alpha2", 2, 2e-6)):
            got = np.array([getattr(state, name) for state in states])[:, feas]
            want = ref[:, row][:, feas]
            gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert gap < tol, (seed, name, gap)


def test_axis_field_baseline():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    field = axis_field(c, cfg)
    # ellipse symmetry points never align for the undeformed ring
    for idx in (0, cfg.n_s // 4, cfg.n_s // 2, 3 * cfg.n_s // 4):
        assert not field.feasible[idx]
    assert 0.0 < field.feasible.mean() < 1.0
    # construction gives perfect initial correlation on feasible columns
    corr0 = field.corr[0, field.feasible]
    np.testing.assert_allclose(corr0, 1.0, atol=1e-12)
    # infeasible columns carry NaN, feasible stay within [-1, 1]
    assert np.all(np.isnan(field.corr[:, ~field.feasible]))
    ok = field.corr[:, field.feasible]
    assert np.all(np.abs(ok) <= 1.0)
    # unit axes where feasible
    norms = np.linalg.norm(field.zeta_hat[:, field.feasible], axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    norms = np.linalg.norm(field.zeta_star_hat, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("scale", [0.0, 1.0, 5.0, 30.0])
def test_axis_field_axes_on_access_match_cartesian_reference(scale):
    # axis_field keeps frame components and forms the Cartesian axes on
    # access; the reference builds them from integrate_alpha's Cartesian
    # FrenetFrames and from dPhi/ds at the time nodes.
    cfg = RingConfig(J=4, K=6, n_s=64)
    golden = json.loads((Path(__file__).parent / "golden_scores.json").read_text())
    seeds = [e["seed"] for e in golden if e["ring"] == "desk" and e["scale"] == scale]
    assert seeds
    for seed in seeds:
        flat = np.random.default_rng(seed).uniform(-scale, scale, 140)
        c = CoefficientTensor.from_flat(flat, 4, 6)
        field = axis_field(c, cfg)
        states, node_kins = integrate_alpha(c, cfg, aligned_initial_state(c, cfg)[0])
        zeta = np.stack(
            [
                kin.frame.tau - st.alpha1[:, None] * kin.frame.n - st.alpha2[:, None] * kin.frame.b
                for st, kin in zip(states, node_kins)
            ]
        )
        zeta /= np.linalg.norm(zeta, axis=-1, keepdims=True)
        zeta_star = phi_eval(cfg.t_grid, cfg.s_grid, c, cfg).ds
        zeta_star /= np.linalg.norm(zeta_star, axis=-1, keepdims=True)
        assert field.zeta_hat.shape == field.zeta_star_hat.shape == (cfg.n_time + 1, cfg.n_s, 3)
        feas = field.feasible
        np.testing.assert_allclose(field.zeta_hat[:, feas], zeta[:, feas], rtol=0, atol=1e-12)
        assert np.all(np.isnan(field.zeta_hat[:, ~feas]))
        np.testing.assert_allclose(field.zeta_star_hat, zeta_star, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "change",
    [{"n_time": 16}, {"fd_step_factor": 2.0**-12}, {"delta": 0.05}, {"K": 3}],
)
def test_trial_grid_constants_cached_per_config(change):
    cfg = RingConfig(J=2, K=2, n_s=16, n_time=8)
    grid = wave_dynamics._trial_grid(cfg)
    assert wave_dynamics._trial_grid(dataclasses.replace(cfg)) is grid
    other = wave_dynamics._trial_grid(dataclasses.replace(cfg, **change))
    assert other is not grid
    differs = [
        f.name
        for f in dataclasses.fields(grid)
        if not np.array_equal(getattr(grid, f.name), getattr(other, f.name))
    ]
    assert differs, change
    for f in dataclasses.fields(grid):
        with pytest.raises(ValueError):
            getattr(grid, f.name)[...] = 0.0


def test_axis_field_alignment_rate_vanishes_at_t0():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    field = axis_field(c, cfg)
    dt = (cfg.t1 - cfg.t0) / cfg.n_time
    rate = (field.corr[1, field.feasible] - field.corr[0, field.feasible]) / dt
    assert np.max(np.abs(rate)) < 1e-6


def test_initial_corr_rate_central_difference():
    cfg = RingConfig(J=4, K=6, n_s=64)
    rng = np.random.default_rng(30)
    for scale in (0.0, 2.0, 10.0):
        flat = rng.uniform(-scale, scale, 4 * 5 * 7)
        c = CoefficientTensor.from_flat(flat, 4, 6)
        rate = wave_dynamics.initial_corr_rate(c, cfg)
        feas = ~np.isnan(rate)
        assert feas.any()
        assert np.max(np.abs(rate[feas])) < 1e-6


def test_axis_field_deformed_keeps_contracts():
    cfg = RingConfig(J=4, K=6, n_s=64)
    rng = np.random.default_rng(12)
    flat = rng.uniform(-5, 5, 4 * 5 * 7)
    c = CoefficientTensor.from_flat(flat, 4, 6)
    field = axis_field(c, cfg)
    assert field.feasible.any()
    corr0 = field.corr[0, field.feasible]
    np.testing.assert_allclose(corr0, 1.0, atol=1e-12)
    states, node_kins = integrate_alpha(c, cfg, aligned_initial_state(c, cfg)[0])
    assert len(states) == len(node_kins) == cfg.n_time + 1
    # zeta keeps unit tangent component before normalization
    kin = kinematics_at(cfg.t1, cfg.s_grid, c, cfg)
    # the returned kinematics are those of the time nodes, the last at t1
    np.testing.assert_allclose(node_kins[-1].frame.tau, kin.frame.tau, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(node_kins[-1].v, kin.v, rtol=1e-12)
    last = states[-1]
    zeta = kin.frame.tau - last.alpha1[:, None] * kin.frame.n - last.alpha2[:, None] * kin.frame.b
    dots = np.sum(zeta * kin.frame.tau, axis=-1)[field.feasible]
    np.testing.assert_allclose(dots, 1.0, atol=1e-12)
    mag = np.sum(zeta * zeta, axis=-1)[field.feasible]
    expect = (1.0 + last.alpha1**2 + last.alpha2**2)[field.feasible]
    np.testing.assert_allclose(mag, expect, rtol=1e-12)


def test_axis_correlation_matches_independent_wave_integration():
    # The paper's alpha equations integrated by solve_ivp on kinematics from
    # finite differences of sampled positions and the generic 3-D frame; the
    # aligned start is formed as axis_field defines it (rate: central
    # difference over fd_step), from those frames.  Measured agreement 2.7e-8.
    cfg = RingConfig(J=4, K=6, n_s=64)
    c = CoefficientTensor.from_flat(np.random.default_rng(3).uniform(-5, 5, 4 * 5 * 7), 4, 6)
    field = axis_field(c, cfg)
    cols = np.flatnonzero(field.feasible)[::5]
    s = cfg.s_grid[cols]

    def kinematics(t, h=1e-3):
        # the stencil points of steps h and h/2, sampled in one phi_eval call
        times = [t + k * step for step in (h, h / 2.0) for k in range(-2, 3)]
        samples = phi_eval(np.array(times), s, c, cfg).position.reshape(len(times), -1)
        position = dict(zip(times, samples)).__getitem__
        d1, d2, d3 = fd_derivatives(position, t, h)
        d3 = (4.0 * fd_derivatives(position, t, h / 2.0)[2] - d3) / 3.0  # O(h^4) like d1, d2
        return frame_from_derivatives(*(d.reshape(-1, 3) for d in (d1, d2, d3)))

    def alignment(t):
        # -b/a, -c/a for the components (a, b, c) of the unit ring tangent in the frame
        frame = kinematics(t).frame
        zs = phi_eval(t, s, c, cfg).ds
        a, b, cc = (np.sum(zs * axis, axis=-1) for axis in (frame.tau, frame.n, frame.b))
        return np.array([-b / a, -cc / a])

    def rhs(t, y):
        kin = kinematics(t)
        a1, a1_t, a2, a2_t = y.reshape(4, -1)
        ratio = kin.v_tt / kin.v
        forcing = 2.0 * kin.v * kin.kappa_t + 4.0 * kin.v_t * kin.kappa
        return np.concatenate([a1_t, ratio * a1 + forcing, a2_t, ratio * a2])

    mid = kinematics(0.5 * (cfg.t0 + cfg.t1))
    assert np.all(np.abs(4.0 * mid.v_t * mid.kappa) > 1.0)  # the 4 v' kappa term matters

    h = cfg.fd_step
    start = alignment(cfg.t0)
    rate = (alignment(cfg.t0 + h) - alignment(cfg.t0 - h)) / (2.0 * h)
    y0 = np.concatenate([start[0], rate[0], start[1], rate[1]])
    sol = solve_ivp(
        rhs, (cfg.t0, cfg.t1), y0, method="DOP853", rtol=1e-12, atol=1e-12, t_eval=cfg.t_grid
    )
    assert sol.success

    for i, t in enumerate(cfg.t_grid):
        alpha1, _, alpha2, _ = sol.y[:, i].reshape(4, -1)
        frame = kinematics(t).frame
        zeta = frame.tau - alpha1[:, None] * frame.n - alpha2[:, None] * frame.b
        zs = phi_eval(t, s, c, cfg).ds
        corr = np.sum(zeta * zs, axis=-1) / (
            np.linalg.norm(zeta, axis=-1) * np.linalg.norm(zs, axis=-1)
        )
        np.testing.assert_allclose(field.corr[i, cols], corr, rtol=0, atol=1e-6)
