"""Analytic vortex-ring parameterization with closed-form derivatives.

The ring curve is

    Phi(t, s) = (R(s) + Gamma(t) + gamma1(t, s)) * (cos 2*pi*s, sin 2*pi*s, 0)
                + gamma2(t, s) * (0, 0, 1)

with an elliptic initial radius R, a radial transport profile
Gamma(t) = 1 - cos(12*pi*t), and a Fourier-polynomial deformation pair
(gamma1, gamma2) controlled by a learnable coefficient tensor.  All time
derivatives up to third order, plus the angular derivative, are evaluated in
closed form, and so is every trajectory quantity built from them (see
:func:`kinematics_at`).

``s`` arguments may be scalars or 1-d arrays; vector outputs carry a trailing
axis of length 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .geometry import TrajectoryKinematics, frame_from_derivatives

__all__ = [
    "RingConfig",
    "CoefficientTensor",
    "RingPoint",
    "DeformationValues",
    "radius_profile",
    "radius_profile_deriv",
    "transport_gamma",
    "deformation_eval",
    "phi_eval",
    "kinematics_at",
]


@dataclass(frozen=True)
class RingConfig:
    """Model geometry, discretization and numerical thresholds.

    Defaults are the full-size experiment; desk-scale runs shrink J, K and
    n_s.  ``angle_convention`` selects the angle inside the elliptic radius:
    "turns" reads it as 2*pi*s (periodic on s in [0,1)), "radians" as the
    bare s.
    """

    delta: float = 0.02
    J: int = 20
    K: int = 10
    t0: float = 1.0 / 48.0
    t1: float = 1.0 / 24.0
    n_time: int = 32
    n_s: int = 128
    c_max: float = 30.0
    angle_convention: str = "turns"
    eps_v: float = 1e-10
    eps_kappa: float = 1e-12
    eps_align: float = 1e-6
    fd_step_factor: float = 2.0**-10

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError(f"t0 must be < t1, got [{self.t0}, {self.t1}]")
        if self.n_time < 2:
            raise ValueError(f"n_time must be >= 2, got {self.n_time}")
        if self.n_s < 4:
            raise ValueError(f"n_s must be >= 4, got {self.n_s}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.c_max <= 0.0:
            raise ValueError(f"c_max must be > 0, got {self.c_max}")
        if self.J < 0 or self.K < 0:
            raise ValueError(f"J, K must be >= 0, got J={self.J}, K={self.K}")
        if self.angle_convention not in ("turns", "radians"):
            raise ValueError(f"unknown angle_convention {self.angle_convention!r}")

    @property
    def fd_step(self) -> float:
        """Finite-difference step of the time stencils (alignment rates, verify checks)."""
        return self.fd_step_factor * (self.t1 - self.t0)

    @property
    def s_grid(self) -> np.ndarray:
        """Uniform angular grid s_i = i/n_s on [0, 1)."""
        return np.arange(self.n_s) / self.n_s

    @property
    def t_grid(self) -> np.ndarray:
        """The n_time+1 time nodes of the integration/quadrature grid."""
        return self.t0 + (self.t1 - self.t0) * np.arange(self.n_time + 1) / self.n_time

    def to_dict(self) -> dict:
        return asdict(self)


class CoefficientTensor:
    """Deformation coefficients, shape (2, 2, J+1, K+1).

    Axis order: target component (gamma1, gamma2), then sine/cosine, then
    polynomial index j, then Fourier mode k.  The array is frozen after
    construction; build modified tensors from a copy.
    """

    def __init__(self, c: np.ndarray):
        c = np.asarray(c, dtype=float)
        if c.ndim != 4 or c.shape[:2] != (2, 2):
            raise ValueError(f"expected shape (2, 2, J+1, K+1), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        self.c = c

    @property
    def J(self) -> int:
        return self.c.shape[2] - 1

    @property
    def K(self) -> int:
        return self.c.shape[3] - 1

    @classmethod
    def zeros(cls, J: int, K: int) -> "CoefficientTensor":
        return cls(np.zeros((2, 2, J + 1, K + 1)))

    @classmethod
    def from_flat(cls, flat: np.ndarray, J: int, K: int) -> "CoefficientTensor":
        """Inverse of :meth:`flatten` (row-major over component/parity/j/k)."""
        flat = np.asarray(flat, dtype=float)
        return cls(flat.reshape(2, 2, J + 1, K + 1))

    def flatten(self) -> np.ndarray:
        return self.c.reshape(-1).copy()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.c)))

    def to_json_dict(self) -> dict:
        return {"J": self.J, "K": self.K, "c": self.c.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoefficientTensor":
        tensor = cls(np.array(d["c"], dtype=float))
        if tensor.J != d["J"] or tensor.K != d["K"]:
            raise ValueError(
                f"declared (J={d['J']}, K={d['K']}) does not match array shape "
                f"(J={tensor.J}, K={tensor.K})"
            )
        return tensor

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "CoefficientTensor":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class RingPoint:
    """Position and derivatives of Phi at one (t, s) or one t and many s."""

    position: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    ds: np.ndarray


@dataclass(frozen=True)
class DeformationValues:
    """gamma1, gamma2 and their time (orders 1-3) and angular partials."""

    g1: np.ndarray
    g1_t: np.ndarray
    g1_tt: np.ndarray
    g1_ttt: np.ndarray
    g1_s: np.ndarray
    g2: np.ndarray
    g2_t: np.ndarray
    g2_tt: np.ndarray
    g2_ttt: np.ndarray
    g2_s: np.ndarray


def _theta(s, convention: str):
    s = np.asarray(s, dtype=float)
    return 2.0 * np.pi * s if convention == "turns" else s


def radius_profile(s, delta: float, convention: str = "turns"):
    """Elliptic initial radius R(s).

    R = (1+delta)(1-delta) / (2 sqrt(((1-delta) cos th)^2 + ((1+delta) sin th)^2))

    with th = 2*pi*s under the "turns" convention, th = s under "radians".
    """
    th = _theta(s, convention)
    g = ((1.0 - delta) * np.cos(th)) ** 2 + ((1.0 + delta) * np.sin(th)) ** 2
    return (1.0 + delta) * (1.0 - delta) / (2.0 * np.sqrt(g))


def radius_profile_deriv(s, delta: float, convention: str = "turns"):
    """dR/ds of the elliptic radius (closed form)."""
    th = _theta(s, convention)
    g = ((1.0 - delta) * np.cos(th)) ** 2 + ((1.0 + delta) * np.sin(th)) ** 2
    # dg/dth = 4 delta sin(2 th);  R = N / (2 sqrt(g))
    dg = 4.0 * delta * np.sin(2.0 * th)
    n = (1.0 + delta) * (1.0 - delta)
    dr_dth = -n * dg / (4.0 * g**1.5)
    scale = 2.0 * np.pi if convention == "turns" else 1.0
    return dr_dth * scale


def transport_gamma(t: float):
    """Radial transport Gamma(t) = 1 - cos(12*pi*t) and derivatives 1-3."""
    w = 12.0 * np.pi
    g = 1.0 - np.cos(w * t)
    g1 = w * np.sin(w * t)
    g2 = w**2 * np.cos(w * t)
    g3 = -(w**3) * np.sin(w * t)
    return g, g1, g2, g3


def _time_power_table(dt: float, J: int) -> np.ndarray:
    """Rows o=0..3 of the falling-factorial derivatives of dt^(j+1), j=0..J."""
    p = np.arange(1, J + 2, dtype=float)
    table = np.empty((4, J + 1))
    fall = np.ones(J + 1)
    for o in range(4):
        e = np.maximum(p - o, 0.0)
        table[o] = fall * dt**e
        table[o][fall == 0.0] = 0.0
        fall = fall * (p - o)
    return table


def deformation_eval(t: float, s, c: CoefficientTensor, cfg: RingConfig) -> DeformationValues:
    """Evaluate gamma1, gamma2 and their exact partials at time t.

    The series is (K+1)^-1 sum_jk c[l, m, j, k] (t - t0)^(j+1) trig(2 pi k s)
    with m=0 the sine and m=1 the cosine family; all outputs share the shape
    of ``s``.
    """
    s = np.asarray(s, dtype=float)
    dt = t - cfg.t0
    K = c.K

    # time_coeffs[o, l, m, k]: order-o time derivative of the polynomial sum
    pows = _time_power_table(dt, c.J)
    time_coeffs = np.einsum("oj,lmjk->olmk", pows, c.c) / (K + 1.0)

    ang = 2.0 * np.pi * np.outer(s, np.arange(K + 1))
    sin_k = np.sin(ang)
    cos_k = np.cos(ang)
    kfac = 2.0 * np.pi * np.arange(K + 1)
    dsin_k = kfac * cos_k
    dcos_k = -kfac * sin_k

    def combine(o: int, l: int) -> np.ndarray:
        out = sin_k @ time_coeffs[o, l, 0] + cos_k @ time_coeffs[o, l, 1]
        return out.reshape(s.shape)

    def combine_s(l: int) -> np.ndarray:
        out = dsin_k @ time_coeffs[0, l, 0] + dcos_k @ time_coeffs[0, l, 1]
        return out.reshape(s.shape)

    return DeformationValues(
        g1=combine(0, 0),
        g1_t=combine(1, 0),
        g1_tt=combine(2, 0),
        g1_ttt=combine(3, 0),
        g1_s=combine_s(0),
        g2=combine(0, 1),
        g2_t=combine(1, 1),
        g2_tt=combine(2, 1),
        g2_ttt=combine(3, 1),
        g2_s=combine_s(1),
    )


def phi_eval(t: float, s, c: CoefficientTensor, cfg: RingConfig) -> RingPoint:
    """Ring position and its closed-form t-derivatives (1-3) and s-derivative."""
    s = np.asarray(s, dtype=float)
    two_pi_s = 2.0 * np.pi * s
    cos_s, sin_s = np.cos(two_pi_s), np.sin(two_pi_s)
    zeros = np.zeros_like(s)
    e_r = np.stack([cos_s, sin_s, zeros], axis=-1)
    de_r = 2.0 * np.pi * np.stack([-sin_s, cos_s, zeros], axis=-1)

    r = radius_profile(s, cfg.delta, cfg.angle_convention)
    r_s = radius_profile_deriv(s, cfg.delta, cfg.angle_convention)
    g, g1, g2, g3 = transport_gamma(t)
    d = deformation_eval(t, s, c, cfg)

    radial = r + g + d.g1

    def vec(radial_part, vertical_part):
        out = radial_part[..., None] * e_r
        out[..., 2] = vertical_part
        return out

    position = vec(radial, d.g2)
    d1 = vec(g1 + d.g1_t, d.g2_t)
    d2 = vec(g2 + d.g1_tt, d.g2_tt)
    d3 = vec(g3 + d.g1_ttt, d.g2_ttt)
    ds = (r_s + d.g1_s)[..., None] * e_r + radial[..., None] * de_r
    ds[..., 2] = d.g2_s
    return RingPoint(position=position, d1=d1, d2=d2, d3=d3, ds=ds)


def kinematics_at(t: float, s, c: CoefficientTensor, cfg: RingConfig) -> TrajectoryKinematics:
    """Full kinematics of the transport trajectory through (t, s), all closed form.

    Raises ZeroSpeed (from :func:`frame_from_derivatives`) when the
    trajectory speed vanishes; callers treat that as an infeasible trial.
    """
    p = phi_eval(t, s, c, cfg)
    return frame_from_derivatives(p.d1, p.d2, p.d3, eps_kappa=cfg.eps_kappa, eps_v=cfg.eps_v)
