"""Swirl-axis dynamics: initial alignment, wave-equation solution, axis field.

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

The trial path solves the equations by their exact first integrals
(``_propagate``); :func:`integrate_wave_system`, RK4 on
:func:`wave_coefficients`, is the reference solution of them as written.

The trajectories stay in their meridional half-planes, so the grid path
works on scalar components: the kinematics, the frame and zeta*'s
components (a, b, c) along (tau, n, b) come from one product of the
coefficients with a ``ring_model._RowGrid`` (for trials, cached per config).
Cartesian axes are formed only on :class:`AxisField` access and in
:func:`integrate_alpha`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from .geometry import FrenetFrame, MeridionalFrame, TrajectoryKinematics
# kinematics_at and phi_eval stay module attributes: perfbench/tracer.py patches both here
from .ring_model import (  # noqa: F401
    CoefficientTensor,
    RingConfig,
    _RowGrid,
    embed,
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
    stencil) succeeded.  ``swirl`` and ``tangent`` hold the unit axes along the
    node ``frame``'s (tau, n, b); ``zeta_hat`` and ``zeta_star_hat`` embed them.
    """

    t_nodes: np.ndarray
    s_grid: np.ndarray
    corr: np.ndarray
    feasible: np.ndarray
    frame: MeridionalFrame
    swirl: tuple
    tangent: tuple

    @property
    def zeta_hat(self) -> np.ndarray:
        return embed(self.frame.vector(*self.swirl), self.s_grid)

    @property
    def zeta_star_hat(self) -> np.ndarray:
        return embed(self.frame.vector(*self.tangent), self.s_grid)


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


def _rate_stencil(cfg: RingConfig) -> np.ndarray:
    """The times (t0 - fd_step, t0, t0 + fd_step) of the aligned start's rate stencil.

    A column is feasible only where it aligns at all three.
    """
    return cfg.t0 + cfg.fd_step * np.array([-1.0, 0.0, 1.0])


@functools.lru_cache(maxsize=16)
def _trial_grid(cfg: RingConfig) -> _RowGrid:
    """:func:`axis_field`'s rows: t0 -+ fd_step, then the half-step rows of ``_rk4_abscissae``.

    The first two rows are the outer ``_rate_stencil`` times; only they and
    the even (node) rows carry the ring tangent.
    """
    times = np.concatenate([_rate_stencil(cfg)[::2], _rk4_abscissae(cfg.t0, cfg.t1, cfg.n_time)])
    return _RowGrid.build(times, np.r_[0, 1, 2 : len(times) : 2], cfg)


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


def _cumulative_simpson(f: np.ndarray, width) -> np.ndarray:
    """Integral of f from row 0 to each even row, rows in (lo, mid, hi) panels of ``width``."""
    panels = (width / 6.0) * (f[0:-1:2] + 4.0 * f[1::2] + f[2::2])
    return np.concatenate([np.zeros_like(panels[:1]), np.cumsum(panels, axis=0)])


def _propagate(speed: tuple, rows, init: AlphaState, width) -> tuple:
    """Exact wave-equation state (alpha1, alpha2, alpha1', alpha2') at even ``rows``.

    ``speed`` is (v, v', kappa) on a grid whose ``rows`` run along axis 0 as
    chained (lo, mid, hi) Simpson panels of signed ``width``, the first at
    t0.  As v solves y'' = (v''/v) y and v (2 v kappa' + 4 v' kappa) =
    2 (v^2 kappa)', the first integrals
    C1 = v alpha1' - v' alpha1 - 2 v^2 kappa and C2 = v alpha2' - v' alpha2
    give, with both integrals by composite Simpson (O(h^4), as RK4 is),
        alpha1 = v (alpha1_0/v0 + int 2 kappa dt + C1 int v^-2 dt)
        alpha2 = v (alpha2_0/v0 + C2 int v^-2 dt).
    """
    v, v_t, kappa = (x[rows] for x in speed)
    v0, v0_t = v[0], v_t[0]
    c1 = v0 * init.alpha1_t - v0_t * init.alpha1 - 2.0 * v0 * v0 * kappa[0]
    c2 = v0 * init.alpha2_t - v0_t * init.alpha2
    bend = _cumulative_simpson(2.0 * kappa, width)
    drift = _cumulative_simpson(1.0 / (v * v), width)
    v, v_t, kappa = v[::2], v_t[::2], kappa[::2]
    alpha1 = v * (init.alpha1 / v0 + bend + c1 * drift)
    alpha2 = v * (init.alpha2 / v0 + c2 * drift)
    alpha1_t = (v_t * alpha1 + 2.0 * v * v * kappa + c1) / v
    alpha2_t = (v_t * alpha2 + c2) / v
    return alpha1, alpha2, alpha1_t, alpha2_t


def integrate_alpha(c: CoefficientTensor, cfg: RingConfig, init: AlphaState) -> tuple:
    """Time series of the wave-equation state over [t0, t1], solved in closed form.

    ``init`` holds the state at t0 over ``cfg.s_grid``.  Returns the
    ``cfg.n_time + 1`` states and the kinematics at those nodes, both from
    one grid evaluation over the half-step rows of ``_rk4_abscissae`` (t0,
    then midpoint and endpoint per step, so the even rows are the nodes).
    ZeroSpeed from the kinematics propagates (infeasible trial).
    """
    kin = kinematics_at(_rk4_abscissae(cfg.t0, cfg.t1, cfg.n_time), cfg.s_grid, c, cfg)
    width = (cfg.t1 - cfg.t0) / cfg.n_time
    solution = _propagate((kin.v, kin.v_t, kin.kappa), slice(None), init, width)
    states = [AlphaState(t, *state) for t, *state in zip(cfg.t_grid, *solution)]
    return states, [_take(kin, i) for i in range(0, 2 * cfg.n_time + 1, 2)]


def aligned_initial_state(c: CoefficientTensor, cfg: RingConfig):
    """(AlphaState at t0, feasibility mask): the aligned start :func:`axis_field` takes.

    Infeasible columns (at t0 or at either rate-stencil point) carry NaN.
    """
    return _aligned_start(_trial_grid(cfg).evaluate(c, cfg)[2], cfg, rows=[0, 2, 1])


def _swirl_axis(alpha1: np.ndarray, alpha2: np.ndarray) -> tuple:
    """Components along (tau, n, b) of the unit swirl axis, |(1, -alpha1, -alpha2)| = 1."""
    norm = np.sqrt(1.0 + alpha1 * alpha1 + alpha2 * alpha2)
    return 1.0 / norm, -alpha1 / norm, -alpha2 / norm


def _correlation(swirl: tuple, tangent: tuple) -> np.ndarray:
    """Dot product of two unit axes given by their frame components."""
    return swirl[0] * tangent[0] + swirl[1] * tangent[1] + swirl[2] * tangent[2]


def initial_corr_rate(c: CoefficientTensor, cfg: RingConfig) -> np.ndarray:
    """Finite-difference d(corr)/dt at t0 per angular point (NaN infeasible).

    One signed Simpson panel (t0, midpoint, target) of the closed-form solve
    to either side of t0 resolves the derivative without contaminating it
    with the (legitimately nonzero) second-order drift of the correlation,
    which node-spacing differences would pick up.  Richardson extrapolation
    over h and h/2 removes the leading h^2 error, which matters for large
    deformations where corr bends fast.
    """
    t0, h = cfg.t0, cfg.fd_step
    targets = np.array([t0 + h / 2.0, t0 - h / 2.0, t0 + h, t0 - h])
    # rows 0-2: the alignment stencil; then (t0, midpoint, target) per target
    steps = [_rk4_abscissae(t0, t, 1) for t in targets]
    times = np.concatenate([_rate_stencil(cfg), *steps])
    speed, _, tangent = _RowGrid.build(times, np.arange(len(times)), cfg).evaluate(c, cfg)
    init, feasible = _aligned_start(tangent, cfg, rows=slice(0, 3))
    panels = 3 + np.arange(3 * len(targets)).reshape(-1, 3).T  # (panel row, target)
    alpha1, alpha2, _, _ = _propagate(speed, panels, init, (targets - t0)[:, None])
    swirl = _swirl_axis(alpha1[-1], alpha2[-1])
    plus_half, minus_half, plus, minus = _correlation(swirl, [x[panels[-1]] for x in tangent])

    rate = (4.0 * (plus_half - minus_half) / h - (plus - minus) / (2.0 * h)) / 3.0
    return np.where(feasible, rate, np.nan)


def axis_field(c: CoefficientTensor, cfg: RingConfig) -> AxisField:
    """Solve alignment, solve the wave system in closed form, correlate the axes.

    One product of the coefficients with the cached :func:`_trial_grid`
    covers every row.  Each row gets v, v' and kappa, from the first two
    time derivatives of Phi; only the stencil rows and the time nodes get
    the frame and the unit ring tangent.  Per-column infeasibility (no
    initial alignment at t0 or at a rate stencil point) is recorded in
    ``feasible`` and produces NaN correlations, not an error.
    """
    speed, frame, tangent = _trial_grid(cfg).evaluate(c, cfg)
    init, feasible = _aligned_start(tangent, cfg, rows=[0, 2, 1])
    alpha1, alpha2, _, _ = _propagate(speed, slice(2, None), init, (cfg.t1 - cfg.t0) / cfg.n_time)

    tangent = tuple(x[2:] for x in tangent)
    swirl = _swirl_axis(alpha1, alpha2)
    corr = np.where(feasible[None, :], np.clip(_correlation(swirl, tangent), -1.0, 1.0), np.nan)
    return AxisField(
        t_nodes=cfg.t_grid,
        s_grid=cfg.s_grid,
        corr=corr,
        feasible=feasible,
        frame=_take(frame, slice(2, None)),
        swirl=swirl,
        tangent=tangent,
    )
