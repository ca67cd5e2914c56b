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

The trajectories stay in their meridional half-planes, so the grid path
works on scalar components: the kinematics and frame come from
``RingPoint.meridional_kinematics`` and zeta* enters only through its
components (a, b, c) along (tau, n, b).  Cartesian axes are formed only for
the time nodes of :class:`AxisField` and :func:`integrate_alpha`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from .geometry import FrenetFrame, TrajectoryKinematics
# kinematics_at stays a module attribute: perfbench/tracer.py patches it here
from .ring_model import (  # noqa: F401
    CoefficientTensor,
    RingConfig,
    embed,
    embed_kinematics,
    kinematics_at,
    phi_eval,
)

__all__ = [
    "AlphaState",
    "AxisField",
    "solve_initial_alignment",
    "aligned_initial_state",
    "initial_corr_rate",
    "integrate_wave_system",
    "integrate_alpha",
    "axis_field",
    "wave_coefficients",
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


def _alignment(a, b, c, eps_align: float):
    """(alpha1, alpha2, feasible) from the unit ring tangent's frame components."""
    feasible = a > eps_align
    a_safe = np.where(feasible, a, 1.0)
    alpha1 = np.where(feasible, -b / a_safe, np.nan)
    alpha2 = np.where(feasible, -c / a_safe, np.nan)
    return alpha1, alpha2, feasible


def solve_initial_alignment(frame: FrenetFrame, zeta_star: np.ndarray, eps_align: float = 1e-6):
    """(alpha1, alpha2, feasible) making the unit axes coincide, per point.

    With a, b, c the components of the unit ring tangent in the frame, the
    swirl axis tau - alpha1 n - alpha2 b is a positive multiple of the ring
    tangent exactly when alpha1 = -b/a, alpha2 = -c/a and a > 0.  Points
    where a is not above ``eps_align`` are infeasible (the swirl axis always
    has unit tau-component, so no solution with dot +1 exists) and carry NaN.
    The grid path applies the same rule to components it already has.
    """
    zs = _unit(np.asarray(zeta_star, dtype=float))
    a, b, c = (np.sum(zs * axis, axis=-1) for axis in (frame.tau, frame.n, frame.b))
    return _alignment(a, b, c, eps_align)


def _rk4_abscissae(t0: float, t1: float, n_steps: int) -> np.ndarray:
    """The times :func:`integrate_wave_system` asks coefficients for, in call order.

    t0, then per step i the midpoint t0 + i h + h/2 and the endpoint t0 + i h + h.
    """
    h = (t1 - t0) / n_steps
    times = [t0]
    for i in range(n_steps):
        t = t0 + i * h
        times += [t + 0.5 * h, t + h]
    return np.array(times)


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

    times = _rk4_abscissae(t0, t1, n_steps)
    states = [y.copy()]
    coeffs_lo = coeff_fn(times[0])
    for i in range(n_steps):
        coeffs_mid = coeff_fn(times[2 * i + 1])
        coeffs_hi = coeff_fn(times[2 * i + 2])
        k1 = rhs(coeffs_lo, y)
        k2 = rhs(coeffs_mid, y + 0.5 * h * k1)
        k3 = rhs(coeffs_mid, y + 0.5 * h * k2)
        k4 = rhs(coeffs_hi, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y.copy())
        coeffs_lo = coeffs_hi
    return states


def wave_coefficients(kin: TrajectoryKinematics) -> tuple:
    """(ratio, forcing) = (v''/v, 2 v kappa' + 4 v' kappa) of the wave equations."""
    ratio = kin.v_tt / kin.v
    forcing = 2.0 * kin.v * kin.kappa_t + 4.0 * kin.v_t * kin.kappa
    return ratio, forcing


def _evaluate_grid(times: np.ndarray, c: CoefficientTensor, cfg: RingConfig):
    """(meridional kinematics, unit ring tangent) on times x s-grid from one Phi evaluation.

    The ring tangent is given by its components (a, b, c) along (tau, n, b);
    they are NaN where dPhi/ds vanishes.  ZeroSpeed anywhere on the grid
    propagates (infeasible trial).
    """
    p = phi_eval(times, cfg.s_grid, c, cfg)
    kin = p.meridional_kinematics(cfg)
    r, theta, z = p.ds_components
    norm = np.sqrt(r * r + theta * theta + z * z)
    norm = np.where(norm > 0.0, norm, np.nan)
    return kin, tuple(x / norm for x in kin.frame.coords(r, theta, z))


def _take(rows, idx):
    """Rows ``idx`` of every array in a (nested) dataclass of time-stacked arrays."""
    values = {f.name: getattr(rows, f.name) for f in fields(rows)}
    return type(rows)(
        **{k: _take(v, idx) if is_dataclass(v) else v[idx] for k, v in values.items()}
    )


def _aligned_start(tangent: tuple, cfg: RingConfig, rows):
    """(AlphaState at t0, feasibility mask) from the grid rows at (t0 - h, t0, t0 + h).

    ``tangent`` holds the unit ring tangent's frame components.  The rates
    are central differences of the alignment over h = fd_step; a column is
    feasible where it aligns at all three times, and infeasible columns
    carry NaN.
    """
    a1, a2, aligned = _alignment(*(x[rows] for x in tangent), cfg.eps_align)
    feasible = np.all(aligned, axis=0)
    h = cfg.fd_step
    init = AlphaState(
        t=cfg.t0,
        alpha1=np.where(feasible, a1[1], np.nan),
        alpha2=np.where(feasible, a2[1], np.nan),
        alpha1_t=np.where(feasible, (a1[2] - a1[0]) / (2.0 * h), np.nan),
        alpha2_t=np.where(feasible, (a2[2] - a2[0]) / (2.0 * h), np.nan),
    )
    return init, feasible


def _integrate(ratio: np.ndarray, forcing: np.ndarray, init: AlphaState, cfg: RingConfig) -> list:
    """RK4 states at the ``cfg.t_grid`` nodes, coefficients given per abscissa row."""
    rows = iter(zip(ratio, forcing))
    y0 = np.stack([init.alpha1, init.alpha1_t, init.alpha2, init.alpha2_t])
    raw = integrate_wave_system(lambda t: next(rows), cfg.t0, cfg.t1, cfg.n_time, y0)
    return [
        AlphaState(t=t, alpha1=y[0], alpha2=y[2], alpha1_t=y[1], alpha2_t=y[3])
        for t, y in zip(cfg.t_grid, raw)
    ]


def integrate_alpha(c: CoefficientTensor, cfg: RingConfig, init: AlphaState) -> tuple:
    """RK4 time series of the wave-equation state over [t0, t1].

    ``init`` holds the state at t0 over ``cfg.s_grid``.  Returns the
    ``cfg.n_time + 1`` states and the kinematics at those nodes, both from
    one grid evaluation over the RK4 abscissae (t0, then midpoint and
    endpoint per step, so the even rows are the nodes).  ZeroSpeed from the
    kinematics propagates (infeasible trial).
    """
    kin, _ = _evaluate_grid(_rk4_abscissae(cfg.t0, cfg.t1, cfg.n_time), c, cfg)
    states = _integrate(*wave_coefficients(kin), init, cfg)
    nodes = range(0, 2 * cfg.n_time + 1, 2)
    return states, [embed_kinematics(_take(kin, i), cfg.s_grid) for i in nodes]


def aligned_initial_state(c: CoefficientTensor, cfg: RingConfig):
    """(AlphaState at t0, feasibility mask) for the aligned-start experiment.

    Infeasible columns (at t0 or at either rate-stencil point) carry NaN.
    """
    h = cfg.fd_step
    _, tangent = _evaluate_grid(np.array([cfg.t0 - h, cfg.t0, cfg.t0 + h]), c, cfg)
    return _aligned_start(tangent, cfg, rows=slice(0, 3))


def _swirl_axis(alpha1: np.ndarray, alpha2: np.ndarray) -> tuple:
    """Components along (tau, n, b) of the unit swirl axis, |(1, -alpha1, -alpha2)| = 1."""
    norm = np.sqrt(1.0 + alpha1 * alpha1 + alpha2 * alpha2)
    return 1.0 / norm, -alpha1 / norm, -alpha2 / norm


def _correlation(swirl: tuple, tangent: tuple) -> np.ndarray:
    """Dot product of two unit axes given by their frame components."""
    return swirl[0] * tangent[0] + swirl[1] * tangent[1] + swirl[2] * tangent[2]


def initial_corr_rate(c: CoefficientTensor, cfg: RingConfig) -> np.ndarray:
    """Finite-difference d(corr)/dt at t0 per angular point (NaN infeasible).

    One signed RK4 step to either side of t0 resolves the derivative
    without contaminating it with the (legitimately nonzero) second-order
    drift of the correlation, which node-spacing differences would pick up.
    Richardson extrapolation over h and h/2 removes the leading h^2 error,
    which matters for large deformations where corr bends fast.
    """
    t0, h = cfg.t0, cfg.fd_step
    targets = (t0 + h / 2.0, t0 - h / 2.0, t0 + h, t0 - h)
    # rows 0-2: the alignment stencil; then (t0, midpoint, end) of one RK4 step to each target
    steps = [_rk4_abscissae(t0, t, 1) for t in targets]
    kin, tangent = _evaluate_grid(np.concatenate([[t0 - h, t0, t0 + h], *steps]), c, cfg)
    init, feasible = _aligned_start(tangent, cfg, rows=slice(0, 3))
    ratio, forcing = wave_coefficients(kin)
    y0 = np.stack([init.alpha1, init.alpha1_t, init.alpha2, init.alpha2_t])

    corr = []
    for i, t in enumerate(targets):
        lo, end = 3 + 3 * i, 5 + 3 * i
        coeffs = iter(zip(ratio[lo : end + 1], forcing[lo : end + 1]))
        y = integrate_wave_system(lambda _: next(coeffs), t0, t, 1, y0)[-1]
        corr.append(_correlation(_swirl_axis(y[0], y[2]), [x[end] for x in tangent]))
    plus_half, minus_half, plus, minus = corr

    rate = (4.0 * (plus_half - minus_half) / h - (plus - minus) / (2.0 * h)) / 3.0
    return np.where(feasible, rate, np.nan)


def axis_field(c: CoefficientTensor, cfg: RingConfig) -> AxisField:
    """Solve alignment, integrate the wave system, correlate the axes.

    One Phi and frame evaluation covers the grid: the rate-stencil times
    t0 +- fd_step, then the RK4 abscissae, whose even rows are the time
    nodes.  Per-column infeasibility (no initial alignment at t0 or at a
    rate stencil point) is recorded in ``feasible`` and produces NaN
    correlations, not an error.
    """
    h = cfg.fd_step
    times = np.concatenate([[cfg.t0 - h, cfg.t0 + h], _rk4_abscissae(cfg.t0, cfg.t1, cfg.n_time)])
    kin, tangent = _evaluate_grid(times, c, cfg)
    init, feasible = _aligned_start(tangent, cfg, rows=[0, 2, 1])
    ratio, forcing = wave_coefficients(kin)
    states = _integrate(ratio[2:], forcing[2:], init, cfg)

    nodes = slice(2, None, 2)
    frame = _take(kin.frame, nodes)
    tangent = [x[nodes] for x in tangent]
    swirl = _swirl_axis(
        np.stack([state.alpha1 for state in states]), np.stack([state.alpha2 for state in states])
    )
    corr = np.where(feasible[None, :], np.clip(_correlation(swirl, tangent), -1.0, 1.0), np.nan)
    return AxisField(
        t_nodes=cfg.t_grid,
        s_grid=cfg.s_grid,
        zeta_hat=embed(frame.vector(*swirl), cfg.s_grid),
        zeta_star_hat=embed(frame.vector(*tangent), cfg.s_grid),
        corr=corr,
        feasible=feasible,
    )
