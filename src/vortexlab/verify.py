"""Numerical checks of the moving-frame derivation identities.

Four independent certificates, each evaluated at randomized points:

* the explicit 3x3 frame-matrix inverse really inverts the matrix,
* the first-order expansion of 1/D has a second-order remainder,
* the chain rule d2/dt2 = v^2 d2/dz2 + v' d/dz holds on model trajectories,
* the rearranged wave equations, with the coefficients the integrator uses
  (:func:`vortexlab.wave_dynamics.wave_coefficients`), are an exact
  algebraic consequence of the closure identities (with d(kappa)/dz =
  kappa'/v substituted).

These certify the algebra of the derivation, not the underlying fluid
dynamics: the pressure-side identities would need a flow solve, which is out
of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Scalar ingredients of the frame-change matrix at one point."""

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


def check_inverse_matrix(p: FrameMatrixInput) -> float:
    """Max abs entry of M @ M_inv - I for the explicit inverse formula."""
    a, b, c = _matrix_entries(p)
    d = a - b * p.alpha1 - c * p.alpha2
    if abs(d) <= SINGULAR_D_EPS:
        raise SingularD(f"|D| = {abs(d):.3e} <= {SINGULAR_D_EPS}")
    m = np.array([[a, b, c], [p.alpha1, 1.0, 0.0], [p.alpha2, 0.0, 1.0]])
    m_inv = (
        np.array(
            [
                [1.0, -b, -c],
                [-p.alpha1, a - c * p.alpha2, c * p.alpha1],
                [-p.alpha2, b * p.alpha2, a - b * p.alpha1],
            ]
        )
        / d
    )
    return float(np.max(np.abs(m @ m_inv - np.eye(3))))


def check_dinv_expansion(
    p: FrameMatrixInput,
    direction: tuple = (1.0, 1.0),
    scales: np.ndarray | None = None,
) -> float:
    """Log-log slope of the 1/D linear-expansion remainder along a direction.

    ``p`` supplies the base point (its R1, R2 are ignored); the remainder of

        1/D = 1 - ((-kappa + dz_alpha1) - alpha1^2 kappa - T alpha2) R1
                - (dz_alpha2 - (-T + alpha2 kappa) alpha1) R2 + O(R^2)

    is measured at (R1, R2) = eps * direction for eps spanning ``scales``
    (default 1e-1 down to 1e-4).  A slope >= 1.9 certifies the second-order
    remainder.  Returns inf when the remainder vanishes identically (every
    correction term zero).
    """
    if scales is None:
        scales = np.logspace(-1, -4, 7)
    coeff1 = (-p.kappa + p.dz_alpha1) - p.alpha1**2 * p.kappa - p.torsion * p.alpha2
    coeff2 = p.dz_alpha2 - (-p.torsion + p.alpha2 * p.kappa) * p.alpha1

    remainders = []
    for eps in scales:
        r1, r2 = eps * direction[0], eps * direction[1]
        q = FrameMatrixInput(
            kappa=p.kappa,
            torsion=p.torsion,
            alpha1=p.alpha1,
            alpha2=p.alpha2,
            dz_alpha1=p.dz_alpha1,
            dz_alpha2=p.dz_alpha2,
            R1=r1,
            R2=r2,
        )
        a, b, c = _matrix_entries(q)
        d = a - b * q.alpha1 - c * q.alpha2
        if abs(d) <= SINGULAR_D_EPS:
            raise SingularD(f"|D| = {abs(d):.3e} at eps = {eps}")
        linear = 1.0 - coeff1 * r1 - coeff2 * r2
        remainders.append(abs(1.0 / d - linear))

    remainders = np.array(remainders)
    if np.all(remainders < 1e-300):
        return float("inf")
    mask = remainders > 0.0
    slope, _ = np.polyfit(np.log(scales[mask]), np.log(remainders[mask]), 1)
    return float(slope)


def _leibniz_residual(d1_lo, d1, d1_hi, d2, h: float) -> float:
    """The residual from d1 at t - h, t, t + h and d2 at t."""

    def unit(vec: np.ndarray) -> np.ndarray:
        return vec / np.linalg.norm(vec)

    v = np.linalg.norm(d1)
    v_t = float(np.dot(d1, d2)) / v
    zphi = d1 / v
    dzz_phi = (unit(d1_hi) - unit(d1_lo)) / (2.0 * h) / v
    residual = d2 - v**2 * dzz_phi - v_t * zphi
    return float(np.linalg.norm(residual) / np.linalg.norm(d2))


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
    return _leibniz_residual(d1_fn(t - h), d1_fn(t), d1_fn(t + h), d2_fn(t), h)


def check_leibniz_identity(
    c: CoefficientTensor, cfg: RingConfig, t: float, s: float
) -> float:
    """Leibniz-identity residual on the ring trajectory through (t, s).

    The stencil times t - h, t, t + h come from one Phi evaluation.
    """
    h = cfg.fd_step
    p = phi_eval(np.array([t - h, t, t + h]), s, c, cfg)
    return _leibniz_residual(p.d1[0], p.d1[1], p.d1[2], p.d2[1], h)


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


def _random_matrix_input(rng: np.random.Generator, with_r: bool) -> FrameMatrixInput:
    vals = rng.uniform(-2.0, 2.0, size=6)
    r = rng.uniform(-0.1, 0.1, size=2) if with_r else np.zeros(2)
    return FrameMatrixInput(
        kappa=vals[0],
        torsion=vals[1],
        alpha1=vals[2],
        alpha2=vals[3],
        dz_alpha1=vals[4],
        dz_alpha2=vals[5],
        R1=r[0],
        R2=r[1],
    )


def _well_conditioned(p: FrameMatrixInput) -> bool:
    a, b, c = _matrix_entries(p)
    return abs(a - b * p.alpha1 - c * p.alpha2) > 0.1


def run_all_checks(seed: int = 0) -> list:
    """The full certification sweep; returns one CheckResult per identity."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    count = 0
    while count < 1000:
        p = _random_matrix_input(rng, with_r=True)
        if not _well_conditioned(p):
            continue
        worst = max(worst, check_inverse_matrix(p))
        count += 1
    results.append(CheckResult("inverse_matrix", worst, 1e-12, "max_residual"))

    slopes = []
    count = 0
    while count < 50:
        p = _random_matrix_input(rng, with_r=False)
        if not _well_conditioned(p):
            continue
        for direction in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            slopes.append(check_dinv_expansion(p, direction))
        count += 1
    results.append(CheckResult("dinv_expansion", min(slopes), 1.9, "min_slope"))

    cfg = RingConfig(J=4, K=6, n_s=16)
    worst = 0.0
    for _ in range(100):
        flat = rng.uniform(-0.5, 0.5, size=4 * (cfg.J + 1) * (cfg.K + 1))
        tensor = CoefficientTensor.from_flat(flat, cfg.J, cfg.K)
        t = rng.uniform(cfg.t0, cfg.t1)
        s = rng.uniform(0.0, 1.0)
        worst = max(worst, check_leibniz_identity(tensor, cfg, t, s))
    results.append(CheckResult("leibniz_identity", worst, 1e-6, "max_residual"))

    # alpha_tt from the wave coefficients the integrator uses, 1000 samples at once
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
