"""Swirl-axis dynamics: initial alignment, wave-equation integration, axis field.

Per angular point s the trajectory t -> Phi(t, s) carries a Frenet frame
(tau, n, b) and two scalar coefficients alpha1, alpha2 obeying

    alpha1'' = (v''/v) alpha1 + 2 v kappa' + 4 v' kappa
    alpha2'' = (v''/v) alpha2

(primes are time derivatives).  The swirl axis is
zeta = tau - alpha1 n - alpha2 b; the ring tangent zeta* = dPhi/ds is the
vortex axis.  Initial data are chosen so the two unit axes start perfectly
aligned with vanishing alignment rate; columns where that is impossible
(zeta* has no positive tangent component) are flagged infeasible and carry
NaN correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import FrenetFrame, TrajectoryKinematics
from .ring_model import CoefficientTensor, RingConfig, kinematics_at, phi_eval

__all__ = [
    "AlphaState",
    "AxisField",
    "solve_initial_alignment",
    "aligned_initial_state",
    "initial_corr_rate",
    "integrate_wave_system",
    "integrate_alpha",
    "axis_field",
]


@dataclass(frozen=True)
class AlphaState:
    """Wave-equation state over the s-grid at one time."""

    t: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha1_t: np.ndarray
    alpha2_t: np.ndarray


@dataclass(frozen=True)
class AxisField:
    """Unit vortex/swirl axes and their correlation on the (t, s) grid.

    ``corr[i, j]`` is NaN on infeasible columns; ``feasible`` marks columns
    where the initial alignment (including its finite-difference rate
    stencil) succeeded.
    """

    t_nodes: np.ndarray
    s_grid: np.ndarray
    zeta_hat: np.ndarray
    zeta_star_hat: np.ndarray
    corr: np.ndarray
    feasible: np.ndarray


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.sum(vec * vec, axis=-1))
    safe = np.where(norm > 0.0, norm, 1.0)
    out = vec / safe[..., None]
    return np.where(norm[..., None] > 0.0, out, np.nan)


def solve_initial_alignment(frame: FrenetFrame, zeta_star: np.ndarray, eps_align: float = 1e-6):
    """(alpha1, alpha2, feasible) making the unit axes coincide, per point.

    With a, b, c the components of the unit ring tangent in the frame, the
    swirl axis tau - alpha1 n - alpha2 b is a positive multiple of the ring
    tangent exactly when alpha1 = -b/a, alpha2 = -c/a and a > 0.  Points
    where a is not above ``eps_align`` are infeasible (the swirl axis always
    has unit tau-component, so no solution with dot +1 exists) and carry NaN.
    """
    zs = _unit(np.asarray(zeta_star, dtype=float))
    a = np.sum(zs * frame.tau, axis=-1)
    b = np.sum(zs * frame.n, axis=-1)
    c = np.sum(zs * frame.b, axis=-1)
    feasible = a > eps_align
    a_safe = np.where(feasible, a, 1.0)
    alpha1 = np.where(feasible, -b / a_safe, np.nan)
    alpha2 = np.where(feasible, -c / a_safe, np.nan)
    return alpha1, alpha2, feasible


def _alignment_at_time(t: float, s, c: CoefficientTensor, cfg: RingConfig):
    kin = kinematics_at(t, s, c, cfg)
    zeta_star = phi_eval(t, s, c, cfg).ds
    return solve_initial_alignment(kin.frame, zeta_star, cfg.eps_align)


def integrate_wave_system(
    coeff_fn: Callable[[float], tuple],
    t0: float,
    t1: float,
    n_steps: int,
    y0: np.ndarray,
) -> list:
    """Classical RK4 for y = (alpha1, alpha1', alpha2, alpha2').

    ``coeff_fn(t)`` returns ``(ratio, forcing)`` with ratio = v''/v and
    forcing = 2 v kappa' + 4 v' kappa, broadcastable against the state
    columns.  The right-hand side is linear in y, so each step needs
    coefficients at t, t + h/2 and t + h only; coeff_fn is called once at t0
    and then exactly twice per step (midpoint, then endpoint).  Returns the
    list of states at the n_steps + 1 time nodes (the input included).
    """
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / n_steps

    def rhs(coeffs, state):
        ratio, forcing = coeffs
        out = np.empty_like(state)
        out[0] = state[1]
        out[1] = ratio * state[0] + forcing
        out[2] = state[3]
        out[3] = ratio * state[2]
        return out

    states = [y.copy()]
    coeffs_lo = coeff_fn(t0)
    for i in range(n_steps):
        t = t0 + i * h
        coeffs_mid = coeff_fn(t + 0.5 * h)
        coeffs_hi = coeff_fn(t + h)
        k1 = rhs(coeffs_lo, y)
        k2 = rhs(coeffs_mid, y + 0.5 * h * k1)
        k3 = rhs(coeffs_mid, y + 0.5 * h * k2)
        k4 = rhs(coeffs_hi, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y.copy())
        coeffs_lo = coeffs_hi
    return states


def _wave_coeffs(kin: TrajectoryKinematics):
    ratio = kin.v_tt / kin.v
    forcing = 2.0 * kin.v * kin.kappa_t + 4.0 * kin.v_t * kin.kappa
    return ratio, forcing


def integrate_alpha(c: CoefficientTensor, cfg: RingConfig, init: AlphaState) -> tuple:
    """RK4 time series of the wave-equation state over [t0, t1].

    ``init`` holds the state at t0 over ``cfg.s_grid``.  Returns the
    ``cfg.n_time + 1`` states and the kinematics at those nodes, which the
    integration evaluates anyway: by the documented coeff_fn call order of
    :func:`integrate_wave_system` (t0, then midpoint and endpoint per step)
    the even-indexed calls are the nodes.  ZeroSpeed from the kinematics
    propagates (infeasible trial).
    """
    s = cfg.s_grid
    evaluated: list[TrajectoryKinematics] = []

    def coeff_fn(t: float):
        kin = kinematics_at(t, s, c, cfg)
        evaluated.append(kin)
        return _wave_coeffs(kin)

    y0 = np.stack([init.alpha1, init.alpha1_t, init.alpha2, init.alpha2_t])
    raw = integrate_wave_system(coeff_fn, cfg.t0, cfg.t1, cfg.n_time, y0)
    states = [
        AlphaState(t=t, alpha1=y[0], alpha2=y[2], alpha1_t=y[1], alpha2_t=y[3])
        for t, y in zip(cfg.t_grid, raw)
    ]
    return states, evaluated[::2]


def aligned_initial_state(c: CoefficientTensor, cfg: RingConfig):
    """(AlphaState at t0, feasibility mask) for the aligned-start experiment.

    Infeasible columns (at t0 or at either rate-stencil point) carry NaN.
    """
    s = cfg.s_grid
    a1_0, a2_0, f_0 = _alignment_at_time(cfg.t0, s, c, cfg)
    h = cfg.fd_step
    a1_m, a2_m, f_m = _alignment_at_time(cfg.t0 - h, s, c, cfg)
    a1_p, a2_p, f_p = _alignment_at_time(cfg.t0 + h, s, c, cfg)
    feasible = f_0 & f_m & f_p
    init = AlphaState(
        t=cfg.t0,
        alpha1=np.where(feasible, a1_0, np.nan),
        alpha2=np.where(feasible, a2_0, np.nan),
        alpha1_t=np.where(feasible, (a1_p - a1_m) / (2.0 * h), np.nan),
        alpha2_t=np.where(feasible, (a2_p - a2_m) / (2.0 * h), np.nan),
    )
    return init, feasible


def _unit_axes(frame: FrenetFrame, alpha1: np.ndarray, alpha2: np.ndarray, zeta_star: np.ndarray):
    """(unit swirl axis, unit ring tangent, their correlation) over the s-grid."""
    zeta = frame.tau - alpha1[:, None] * frame.n - alpha2[:, None] * frame.b
    zeta_hat, zeta_star_hat = _unit(zeta), _unit(zeta_star)
    return zeta_hat, zeta_star_hat, np.sum(zeta_hat * zeta_star_hat, axis=-1)


def initial_corr_rate(c: CoefficientTensor, cfg: RingConfig) -> np.ndarray:
    """Finite-difference d(corr)/dt at t0 per angular point (NaN infeasible).

    One signed RK4 step to either side of t0 resolves the derivative
    without contaminating it with the (legitimately nonzero) second-order
    drift of the correlation, which node-spacing differences would pick up.
    Richardson extrapolation over h and h/2 removes the leading h^2 error,
    which matters for large deformations where corr bends fast.
    """
    s = cfg.s_grid
    init, feasible = aligned_initial_state(c, cfg)
    y0 = np.stack([init.alpha1, init.alpha1_t, init.alpha2, init.alpha2_t])

    def coeff_fn(t: float):
        return _wave_coeffs(kinematics_at(t, s, c, cfg))

    def corr_after_step(t: float) -> np.ndarray:
        y = integrate_wave_system(coeff_fn, cfg.t0, t, 1, y0)[-1]
        frame = kinematics_at(t, s, c, cfg).frame
        return _unit_axes(frame, y[0], y[2], phi_eval(t, s, c, cfg).ds)[2]

    def central(h: float) -> np.ndarray:
        return (corr_after_step(cfg.t0 + h) - corr_after_step(cfg.t0 - h)) / (2.0 * h)

    h = cfg.fd_step
    rate = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return np.where(feasible, rate, np.nan)


def axis_field(c: CoefficientTensor, cfg: RingConfig) -> AxisField:
    """Solve alignment, integrate the wave system, correlate the axes.

    Per-column infeasibility (no initial alignment at t0 or at a rate
    stencil point) is recorded in ``feasible`` and produces NaN
    correlations, not an error.
    """
    s = cfg.s_grid
    init, feasible = aligned_initial_state(c, cfg)
    states, node_kins = integrate_alpha(c, cfg, init)

    n_nodes = cfg.n_time + 1
    zeta_hat = np.empty((n_nodes, cfg.n_s, 3))
    zeta_star_hat = np.empty((n_nodes, cfg.n_s, 3))
    corr = np.empty((n_nodes, cfg.n_s))
    for i, (t, state, kin) in enumerate(zip(cfg.t_grid, states, node_kins)):
        zs = phi_eval(t, s, c, cfg).ds
        zeta_hat[i], zeta_star_hat[i], corr[i] = _unit_axes(kin.frame, state.alpha1, state.alpha2, zs)

    corr = np.where(feasible[None, :], np.clip(corr, -1.0, 1.0), np.nan)
    return AxisField(
        t_nodes=cfg.t_grid,
        s_grid=s,
        zeta_hat=zeta_hat,
        zeta_star_hat=zeta_star_hat,
        corr=corr,
        feasible=feasible,
    )
