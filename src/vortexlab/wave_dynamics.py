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
NaN correlations.  The frame and the wave equations need v > 0, so a
trial with a stationary point (v <= eps_v) on any row of its grid is
infeasible on every column.

The trial path solves the equations by their exact first integrals
(``_propagate``); :func:`integrate_wave_system`, RK4 on
:func:`wave_coefficients`, is the reference solution of them as written.

The trajectories stay in their meridional half-planes, so the grid path
works on scalar components: the kinematics, the frame and zeta*'s
components (a, b, c) along (tau, n, b) come from two matrix products of the
coefficients with a ``ring_model._RowGrid`` (for trials, cached per config).
Cartesian axes are formed only on :class:`AxisField` access.

The grid path evaluates a stack of B coefficient arrays at once: every
array it handles carries a trial axis right after its row (time) axis, and
the single-tensor functions are stacks of one.

Buffer lifetime: the grid path writes its (rows, B, n_s) arrays into
buffers that the cached grid keeps per stack size (``_RowGrid.buffer``),
not into new arrays.  So an array the stacked kernels return
(``_axis_fields``, ``_RowGrid.evaluate``) is valid only until the next
kernel call with a stack of the same size, and one kernel call at a time
may run per config.  Nothing leaves the module in a buffer:
:func:`axis_field`, :func:`aligned_initial_state` and
:func:`initial_corr_rate` return arrays of their own, and a caller of
``_axis_fields`` reads what it needs before its next call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    stencil) succeeded, and is all False for a trial with a stationary
    point on some row.  ``alpha1``, ``alpha2`` (the node solution, NaN on
    infeasible columns) and ``tangent`` (the unit ring tangent along the node
    ``frame``'s tau, n, b) give the unit axes ``zeta_hat`` and ``zeta_star_hat``.
    """

    t_nodes: np.ndarray
    s_grid: np.ndarray
    corr: np.ndarray
    feasible: np.ndarray
    frame: MeridionalFrame
    alpha1: np.ndarray
    alpha2: np.ndarray
    tangent: tuple

    def trial(self, b: int) -> "AxisField":
        """Trial ``b`` of a stacked field (a trial axis after the time axis), in arrays of its own."""
        return AxisField(
            t_nodes=self.t_nodes.copy(),
            s_grid=self.s_grid.copy(),
            corr=self.corr[:, b].copy(),
            feasible=self.feasible[b].copy(),
            frame=MeridionalFrame(*(x[:, b].copy() for x in vars(self.frame).values())),
            alpha1=self.alpha1[:, b].copy(),
            alpha2=self.alpha2[:, b].copy(),
            tangent=tuple(x[:, b].copy() for x in self.tangent),
        )

    @property
    def zeta_hat(self) -> np.ndarray:
        return embed(self.frame.vector(*_swirl_axis(self.alpha1, self.alpha2)), self.s_grid)

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
    """:func:`axis_field`'s rows: t0 -+ fd_step, the n_time + 1 nodes, then the n_time midpoints.

    Rows 0-1 are the outer ``_rate_stencil`` times, then ``_rk4_abscissae``'s,
    so row 2 is t0, the one row with v' (the rate :func:`_propagate` reads).
    The leading rows up to the last node carry the ring tangent.
    """
    rk4 = _rk4_abscissae(cfg.t0, cfg.t1, cfg.n_time)
    times = np.concatenate([_rate_stencil(cfg)[::2], rk4[::2], rk4[1::2]])
    return _RowGrid.build(times, cfg.n_time + 3, [2], cfg)


def _aligned_start(tangent: tuple, stationary: np.ndarray, cfg: RingConfig):
    """(AlphaState at t0, feasibility mask) from the grid rows 0, 2 and 1, at (t0 - h, t0, t0 + h).

    ``tangent`` holds the unit ring tangent's frame components, rows first;
    the outputs drop the row axis.  The rates
    are central differences of the alignment over h = fd_step; a column is
    feasible where it aligns at all three times and its trial is not
    ``stationary`` (the (B,) mask of ``_RowGrid.evaluate``), and
    infeasible columns carry NaN.
    """
    a1, a2, aligned = _alignment(*(x[[0, 2, 1]] for x in tangent), cfg.eps_align)
    feasible = np.all(aligned, axis=0) & ~stationary[:, None]
    h = cfg.fd_step
    init = AlphaState(
        t=cfg.t0,
        alpha1=np.where(feasible, a1[1], np.nan),
        alpha2=np.where(feasible, a2[1], np.nan),
        alpha1_t=np.where(feasible, (a1[2] - a1[0]) / (2.0 * h), np.nan),
        alpha2_t=np.where(feasible, (a2[2] - a2[0]) / (2.0 * h), np.nan),
    )
    return init, feasible


def _cumulative_simpson(f: np.ndarray, width, out: np.ndarray) -> np.ndarray:
    """Integral of f from the first node to each, into ``out``: f's rows are the nodes, then the panels' midpoints.

    Each panel (between consecutive nodes) has ``width``.
    """
    n = len(out)
    panels = out[1:]
    np.multiply(f[n:], 4.0, out=panels)
    panels += f[: n - 1]
    panels += f[1:n]
    panels *= width / 6.0
    out[0] = 0.0
    # np.cumsum's additions in its order, bit for bit, but a whole row per add:
    # ~4x faster than cumsum's leading-axis loop on a stack of 8, ~3 µs slower
    # on one desk trial
    for prev, row in zip(panels, panels[1:]):
        row += prev
    return out


def _propagate(speed: tuple, v0_t, init: AlphaState, width, buffer) -> tuple:
    """Exact wave-equation solution (alpha1, alpha2) at the nodes, in ``buffer`` arrays.

    ``speed`` is (v, kappa, v^2) with rows along axis 0: the n + 1 nodes,
    the first at t0, then the midpoints of the n Simpson panels of signed
    ``width`` between them; ``v0_t`` is v' at t0, the one rate read.  As v
    solves y'' = (v''/v) y and v (2 v kappa' + 4 v' kappa) = 2 (v^2 kappa)',
    the first integrals
    C1 = v alpha1' - v' alpha1 - 2 v^2 kappa and C2 = v alpha2' - v' alpha2
    give, with both integrals by composite Simpson (O(h^4), as RK4 is),
        alpha1 = v (alpha1_0/v0 + int 2 kappa dt + C1 int v^-2 dt)
        alpha2 = v (alpha2_0/v0 + C2 int v^-2 dt).
    ``buffer(name, shape)`` supplies the arrays (see ``_RowGrid.buffer``).
    """
    v, kappa, v_sq = speed
    v = v[: (len(v) + 1) // 2]
    v0 = v[0]
    c1 = v0 * init.alpha1_t - v0_t * init.alpha1 - 2.0 * v0 * v0 * kappa[0]
    c2 = v0 * init.alpha2_t - v0_t * init.alpha2
    # Simpson over 2 kappa with width w equals Simpson over kappa with width 2 w, bit for bit
    alpha1 = _cumulative_simpson(kappa, 2.0 * width, buffer("alpha1", v.shape))
    inverse = np.divide(1.0, v_sq, out=buffer("inverse_v_sq", v_sq.shape))
    alpha2 = _cumulative_simpson(inverse, width, buffer("alpha2", v.shape))
    # alpha1 holds int 2 kappa dt and alpha2 int v^-2 dt until they are scaled
    alpha1 += init.alpha1 / v0
    alpha1 += np.multiply(c1, alpha2, out=buffer("alpha_scratch", v.shape))
    alpha1 *= v
    alpha2 *= c2
    alpha2 += init.alpha2 / v0
    alpha2 *= v
    return alpha1, alpha2


def aligned_initial_state(c: CoefficientTensor, cfg: RingConfig):
    """(AlphaState at t0, feasibility mask): the aligned start :func:`axis_field` takes.

    Infeasible columns (at t0 or at either rate-stencil point, or every
    column where a row of the trial grid has a zero speed) carry NaN.
    """
    _, _, tangent, stationary = _trial_grid(cfg).evaluate(c.c[None], cfg)
    init, feasible = _aligned_start(tangent, stationary, cfg)
    rates = (init.alpha1, init.alpha2, init.alpha1_t, init.alpha2_t)
    return AlphaState(init.t, *(x[0] for x in rates)), feasible[0]


def _swirl_axis(alpha1: np.ndarray, alpha2: np.ndarray) -> tuple:
    """Components along (tau, n, b) of the unit swirl axis, |(1, -alpha1, -alpha2)| = 1."""
    norm = np.sqrt(1.0 + alpha1 * alpha1 + alpha2 * alpha2)
    return 1.0 / norm, -alpha1 / norm, -alpha2 / norm


def _correlation(alpha1: np.ndarray, alpha2: np.ndarray, tangent, buffer) -> np.ndarray:
    """Dot product of the unit swirl axis and the unit ring tangent, in a ``buffer`` array.

    The swirl axis is (1, -alpha1, -alpha2) / sqrt(1 + alpha1^2 + alpha2^2)
    and ``tangent`` holds the tangent's components, both along (tau, n, b).
    """
    corr, norm, scratch = buffer("corr", (3,) + alpha1.shape)
    np.multiply(alpha1, tangent[1], out=corr)
    np.subtract(tangent[0], corr, out=corr)
    corr -= np.multiply(alpha2, tangent[2], out=scratch)
    np.multiply(alpha1, alpha1, out=norm)
    norm += 1.0
    norm += np.multiply(alpha2, alpha2, out=scratch)
    np.sqrt(norm, out=norm)
    corr /= norm
    return corr


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
    # rows 0-1: the outer alignment stencil; then (start, end, midpoint) by target, each
    # panel's start at t0 with v'
    panels = np.array([_rk4_abscissae(t0, t, 1) for t in targets]).T[[0, 2, 1]]
    times = np.concatenate([_rate_stencil(cfg)[::2], panels.ravel()])
    n = len(targets)
    grid = _RowGrid.build(times, 2 + 2 * n, 2 + np.arange(n), cfg)
    (v, v_t, kappa, v_sq), _, tangent, stationary = grid.evaluate(c.c[None], cfg)
    init, feasible = _aligned_start(tangent, stationary, cfg)
    speed = tuple(x[2:].reshape((3, n) + x.shape[1:]) for x in (v, kappa, v_sq))
    alpha1, alpha2 = _propagate(speed, v_t, init, (targets - t0)[:, None, None], grid.buffer)
    ends = [x[2 + n :] for x in tangent]
    plus_half, minus_half, plus, minus = _correlation(alpha1[-1], alpha2[-1], ends, grid.buffer)

    rate = (4.0 * (plus_half - minus_half) / h - (plus - minus) / (2.0 * h)) / 3.0
    return np.where(feasible, rate, np.nan)[0]


def _axis_fields(c: np.ndarray, cfg: RingConfig) -> AxisField:
    """The stacked AxisField of a (B, 2, 2, J+1, K+1) coefficient stack.

    The field's arrays carry the trial axis after the time axis
    (:meth:`AxisField.trial` takes one out); a trial with a zero speed on
    some row is infeasible on every column.  The field's arrays are the
    trial grid's buffers for a stack of B.
    """
    grid = _trial_grid(cfg)
    (v, v_t, kappa, v_sq), frame, tangent, stationary = grid.evaluate(c, cfg)
    init, feasible = _aligned_start(tangent, stationary, cfg)
    width = (cfg.t1 - cfg.t0) / cfg.n_time
    alpha1, alpha2 = _propagate((v[2:], kappa[2:], v_sq[2:]), v_t[0], init, width, grid.buffer)
    tangent = tuple(x[2:] for x in tangent)
    corr = _correlation(alpha1, alpha2, tangent, grid.buffer)
    # NaN on infeasible columns, whose alpha1 and alpha2 are NaN
    np.clip(corr, -1.0, 1.0, out=corr)
    return AxisField(
        t_nodes=cfg.t_grid,
        s_grid=cfg.s_grid,
        corr=corr,
        feasible=feasible,
        frame=frame[2:],
        alpha1=alpha1,
        alpha2=alpha2,
        tangent=tangent,
    )


def axis_field(c: CoefficientTensor, cfg: RingConfig) -> AxisField:
    """Solve alignment, solve the wave system in closed form, correlate the axes.

    Two matrix products of the coefficients with the cached
    :func:`_trial_grid` cover every row.  Each row gets v and kappa, from
    the first two time derivatives of Phi; only the stencil rows and the
    time nodes get the frame and the unit ring tangent, and only t0 gets v'.  Per-column
    infeasibility (no initial alignment at t0 or at a rate stencil point) is
    recorded in ``feasible`` and produces NaN correlations, not an error; a
    zero speed on any row makes every column infeasible.
    """
    return _axis_fields(c.c[None], cfg).trial(0)
