"""Numerical checks of the moving-frame derivation identities.

Four independent certificates, each evaluated at randomized points:

* the explicit 3x3 frame-matrix inverse really inverts the matrix,
* the first-order expansion of 1/D has a second-order remainder,
* the chain rule d2/dt2 = v^2 d2/dz2 + v' d/dz holds on model trajectories,
* the rearranged wave equations, with the coefficients the reference RK4
  integrator uses (:func:`vortexlab.wave_dynamics.wave_coefficients`; the
  trial path's closed-form solve is tested against it), are an exact
  algebraic consequence of the closure identities (with d(kappa)/dz =
  kappa'/v substituted).

Each certificate is one array pass over all its points.  The points are
those of a loop that draws them one at a time from ``default_rng(seed)``
(matrix points, then expansion base points, then trajectories, then closure
samples) and rejects ill-conditioned ones: they are drawn as blocks, equal
bit for bit, and the generator ends where that loop leaves it.

These certify the algebra of the derivation, not the underlying fluid
dynamics: the pressure-side identities would need a flow solve, which is out
of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import DEFAULT_EPS_KAPPA, TrajectoryKinematics
from .ring_model import CoefficientTensor, RingConfig, phi_eval
from .wave_dynamics import wave_coefficients

__all__ = [
    "SingularD",
    "FrameMatrixInput",
    "check_inverse_matrix",
    "check_dinv_expansion",
    "check_leibniz_identity",
    "leibniz_residual_from_curve",
    "check_closure_rearrangement",
    "CheckResult",
    "run_all_checks",
]

SINGULAR_D_EPS = 1e-8


class SingularD(ValueError):
    """Frame-matrix determinant factor D too close to zero to invert."""


@dataclass(frozen=True)
class FrameMatrixInput:
    """Scalar ingredients of the frame-change matrix at one point, or arrays of them.

    Fields may be equal-shape (or broadcastable) arrays: the checks work
    elementwise, and a scalar input is a batch of one.
    """

    kappa: float
    torsion: float
    alpha1: float
    alpha2: float
    dz_alpha1: float
    dz_alpha2: float
    R1: float
    R2: float


def _matrix_entries(p: FrameMatrixInput):
    a = (1.0 - p.kappa * p.R1) + (p.R1 * p.dz_alpha1 + p.R2 * p.dz_alpha2)
    b = -p.R2 * p.torsion + (p.R1 * p.alpha1 + p.R2 * p.alpha2) * p.kappa
    c = p.R1 * p.torsion
    return a, b, c


def _determinant(p: FrameMatrixInput):
    """D = a - b alpha1 - c alpha2, raising SingularD where |D| <= SINGULAR_D_EPS."""
    a, b, c = _matrix_entries(p)
    d = np.asarray(a - b * p.alpha1 - c * p.alpha2)
    if np.any(np.abs(d) <= SINGULAR_D_EPS):
        raise SingularD(f"|D| = {np.min(np.abs(d)):.3e} <= {SINGULAR_D_EPS}")
    return d


def check_inverse_matrix(p: FrameMatrixInput) -> float:
    """Max abs entry of M @ M_inv - I for the explicit inverse formula, over every point of ``p``."""
    d = _determinant(p)
    a, b, c, x, y = np.broadcast_arrays(*_matrix_entries(p), p.alpha1, p.alpha2)
    one, zero = np.ones_like(a), np.zeros_like(a)
    shape = a.shape + (3, 3)
    m = np.stack([a, b, c, x, one, zero, y, zero, one], axis=-1).reshape(shape)
    m_inv = np.stack([one, -b, -c, -x, a - c * y, c * x, -y, b * y, a - b * x], axis=-1)
    m_inv = (m_inv / d[..., None]).reshape(shape)
    return float(np.max(np.abs(m @ m_inv - np.eye(3))))


def _expansion_coefficients(p: FrameMatrixInput) -> tuple:
    """The coefficients of R1 and R2 in the linear expansion of 1/D."""
    coeff1 = (-p.kappa + p.dz_alpha1) - p.alpha1**2 * p.kappa - p.torsion * p.alpha2
    coeff2 = p.dz_alpha2 - (-p.torsion + p.alpha2 * p.kappa) * p.alpha1
    return coeff1, coeff2


def check_dinv_expansion(
    p: FrameMatrixInput,
    direction=(1.0, 1.0),
    scales: np.ndarray | None = None,
) -> float | np.ndarray:
    """Log-log slope of the 1/D linear-expansion remainder along a direction.

    ``p`` supplies the base point (its R1, R2 are ignored); the remainder of

        1/D = 1 - ((-kappa + dz_alpha1) - alpha1^2 kappa - T alpha2) R1
                - (dz_alpha2 - (-T + alpha2 kappa) alpha1) R2 + O(R^2)

    is measured at (R1, R2) = eps * direction for eps spanning ``scales``
    (default 1e-1 down to 1e-4), and the slope is the least-squares line
    through the nonzero remainders.  A slope >= 1.9 certifies the
    second-order remainder.  The slope is inf where the remainder vanishes
    identically (every correction term zero).

    ``direction`` may be a (..., 2) array of directions, and the fields of
    ``p`` arrays that broadcast against ``direction.shape[:-1] + (1,)``: one
    slope is returned per (point, direction) pair.
    """
    if scales is None:
        scales = np.logspace(-1, -4, 7)
    direction = np.asarray(direction, dtype=float)
    # the scale axis last
    r1, r2 = scales * direction[..., 0, None], scales * direction[..., 1, None]
    d = _determinant(replace(p, R1=r1, R2=r2))
    coeff1, coeff2 = _expansion_coefficients(p)
    remainders = np.abs(1.0 / d - (1.0 - coeff1 * r1 - coeff2 * r2))

    used = remainders > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(used, np.log(scales), 0.0)
        y = np.where(used, np.log(remainders), 0.0)
        n = used.sum(axis=-1, keepdims=True)
        x_c = np.where(used, x - x.sum(axis=-1, keepdims=True) / n, 0.0)
        y_c = y - y.sum(axis=-1, keepdims=True) / n
        slope = (x_c * y_c).sum(axis=-1) / (x_c * x_c).sum(axis=-1)
    return np.where(np.all(remainders < 1e-300, axis=-1), np.inf, slope)[()]


def _leibniz_residual(d1_lo, d1, d1_hi, d2, h: float):
    """The residual from d1 at t - h, t, t + h and d2 at t (vectors on the last axis)."""

    def norm(vec: np.ndarray) -> np.ndarray:
        return np.linalg.norm(vec, axis=-1, keepdims=True)

    v = norm(d1)
    v_t = np.sum(d1 * d2, axis=-1, keepdims=True) / v
    zphi = d1 / v
    dzz_phi = (d1_hi / norm(d1_hi) - d1_lo / norm(d1_lo)) / (2.0 * h) / v
    residual = d2 - v**2 * dzz_phi - v_t * zphi
    return (norm(residual) / norm(d2))[..., 0]


def leibniz_residual_from_curve(
    d1_fn: Callable[[float], np.ndarray],
    d2_fn: Callable[[float], np.ndarray],
    t: float,
    h: float,
) -> float:
    """Relative residual of d2/dt2 = v^2 d2/dz2 + v' d/dz on a trajectory.

    d/dz = (1/v) d/dt converts the closed-form time derivatives into
    arc-length ones; the second z-derivative is taken by central difference
    of the unit tangent, so the identity is a genuine cross-check between
    the d1/d2 closed forms rather than an algebraic tautology.
    """
    return float(_leibniz_residual(d1_fn(t - h), d1_fn(t), d1_fn(t + h), d2_fn(t), h))


def check_leibniz_identity(c: CoefficientTensor | np.ndarray, cfg: RingConfig, t, s) -> float | np.ndarray:
    """Leibniz-identity residual on the ring trajectory through (t, s).

    ``c`` is one CoefficientTensor with scalar ``t`` and ``s``, or a
    (B, 2, 2, J+1, K+1) stack of coefficients with (B,) arrays ``t`` and
    ``s``, which gives one residual per tensor.  The stencil times t - h, t,
    t + h of every tensor come from one Phi evaluation.
    """
    h = cfg.fd_step
    p = phi_eval(np.add.outer(t, [-h, 0.0, h]), s, c, cfg)
    d1, d2 = p.d1, p.d2
    return _leibniz_residual(d1[..., 0, :], d1[..., 1, :], d1[..., 2, :], d2[..., 1, :], h)[()]


def check_closure_rearrangement(
    v: float,
    v_t: float,
    v_tt: float,
    kappa: float,
    kappa_t: float,
    torsion: float,
    alpha1: float,
    alpha2: float,
    alpha1_tt: float,
    alpha2_tt: float,
) -> tuple:
    """Residuals of the two closure identities with dz_kappa = kappa'/v.

    With alpha_tt set to the wave-equation right-hand sides both residuals
    vanish identically; this certifies the rearrangement step, not the flow
    dynamics.  The torsion terms of the second identity cancel for any
    torsion value.  Arguments may be arrays of samples (elementwise
    residuals).
    """
    dz_kappa = kappa_t / v
    lhs1 = -v_t * kappa - v**2 * dz_kappa + alpha1_tt - v**2 * kappa**2 * alpha1
    rhs1 = v**2 * dz_kappa + 3.0 * v_t * kappa + (v_tt / v) * alpha1 - v**2 * kappa**2 * alpha1
    lhs2 = v**2 * torsion * kappa + alpha2_tt - v**2 * kappa**2 * alpha2
    rhs2 = (v_tt / v) * alpha2 + v**2 * torsion * kappa - v**2 * kappa**2 * alpha2
    return abs(lhs1 - rhs1), abs(lhs2 - rhs2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    kind: str  # "max_residual" (pass if value <= threshold) or "min_slope" (>=)

    @property
    def passed(self) -> bool:
        if self.kind == "min_slope":
            return self.value >= self.threshold
        return self.value <= self.threshold


def _well_conditioned(rows: np.ndarray) -> np.ndarray:
    """|D| > 0.1 for rows (kappa, torsion, alpha1, alpha2, dz_alpha1, dz_alpha2[, R1, R2]); no R is R = 0."""
    p = FrameMatrixInput(*rows.T, *[0.0] * (8 - rows.shape[1]))
    a, b, c = _matrix_entries(p)
    return np.abs(a - b * p.alpha1 - c * p.alpha2) > 0.1


def _draw_rows(rng: np.random.Generator, count: int, low, high) -> np.ndarray:
    """The first ``count`` well-conditioned rows low + (high - low) * u, u uniform on [0, 1).

    The rows, and where ``rng`` ends, are those of a loop that draws one row
    per ``rng.uniform`` call and rejects the rows :func:`_well_conditioned`
    refuses: the rows are drawn as a block and the generator is then moved
    past the rows used.
    """
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    state = rng.bit_generator.state
    size = count + count // 16 + 16
    while True:
        rows = low + (high - low) * rng.random((size, low.size))
        kept = np.flatnonzero(_well_conditioned(rows))
        if len(kept) >= count:
            break
        rng.bit_generator.state = state
        size *= 2
    used = kept[count - 1] + 1
    rng.bit_generator.state = state
    rng.random(used * low.size)
    return rows[kept[:count]]


def _draw_samples(rng: np.random.Generator, cfg: RingConfig) -> tuple:
    """(matrix rows (1000, 8), expansion base rows (50, 6), trajectory rows (100, 4 (J+1) (K+1) + 2)).

    A matrix row is 6 values in [-2, 2] then (R1, R2) in [-0.1, 0.1]; an
    expansion base row is 6 values in [-2, 2] (R = 0); both are kept when
    |D| > 0.1.  A trajectory row is a ``cfg``-shaped tensor's coefficients
    in [-0.5, 0.5], then t in [t0, t1], then s in [0, 1).
    """
    matrix = _draw_rows(rng, 1000, [-2.0] * 6 + [-0.1] * 2, [2.0] * 6 + [0.1] * 2)
    base = _draw_rows(rng, 50, [-2.0] * 6, [2.0] * 6)
    width = 4 * (cfg.J + 1) * (cfg.K + 1)
    low = np.array([-0.5] * width + [cfg.t0, 0.0])
    high = np.array([0.5] * width + [cfg.t1, 1.0])
    return matrix, base, low + (high - low) * rng.random((100, width + 2))


def run_all_checks(seed: int = 0) -> list:
    """The full certification sweep; returns one CheckResult per identity.

    Each certificate is one array pass over its samples.
    """
    rng = np.random.default_rng(seed)
    cfg = RingConfig(J=4, K=6, n_s=16)
    matrix, base, trajectories = _draw_samples(rng, cfg)
    worst = check_inverse_matrix(FrameMatrixInput(*matrix.T))
    results = [CheckResult("inverse_matrix", worst, 1e-12, "max_residual")]

    # (point, direction) slopes from one (50, 3, 7) array of remainders
    points = FrameMatrixInput(*base.T[:, :, None, None], 0.0, 0.0)
    slopes = check_dinv_expansion(points, [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    results.append(CheckResult("dinv_expansion", float(slopes.min()), 1.9, "min_slope"))

    coeffs = trajectories[:, :-2].reshape(-1, 2, 2, cfg.J + 1, cfg.K + 1)
    residuals = check_leibniz_identity(coeffs, cfg, trajectories[:, -2], trajectories[:, -1])
    results.append(CheckResult("leibniz_identity", float(residuals.max()), 1e-6, "max_residual"))

    # alpha_tt from the reference integrator's wave coefficients, 1000 samples at once
    v = rng.uniform(0.5, 3.0, size=1000)
    v_t, v_tt = rng.uniform(-3.0, 3.0, size=(2, 1000))
    kappa, kappa_t, torsion, alpha1, alpha2 = rng.uniform(-2.0, 2.0, size=(5, 1000))
    kappa = np.abs(kappa)
    degenerate = kappa < DEFAULT_EPS_KAPPA
    kin = TrajectoryKinematics(v, v_t, v_tt, kappa, kappa_t, torsion, frame=None, degenerate=degenerate)
    ratio, forcing = wave_coefficients(kin)
    res1, res2 = check_closure_rearrangement(
        v, v_t, v_tt, kappa, kappa_t, torsion, alpha1, alpha2, ratio * alpha1 + forcing, ratio * alpha2
    )
    worst = float(max(res1.max(), res2.max()))
    results.append(CheckResult("closure_rearrangement", worst, 1e-12, "max_residual"))

    return results
