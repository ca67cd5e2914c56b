"""Analytic vortex-ring parameterization with closed-form derivatives.

The ring curve is

    Phi(t, s) = (R(s) + Gamma(t) + gamma1(t, s)) * (cos 2*pi*s, sin 2*pi*s, 0)
                + gamma2(t, s) * (0, 0, 1)

with an elliptic initial radius R, a radial transport profile
Gamma(t) = 1 - cos(12*pi*t), and a Fourier-polynomial deformation pair
(gamma1, gamma2) controlled by a learnable coefficient tensor.  All time
derivatives up to third order, plus the angular derivative, are evaluated in
closed form.

The transport moves every point within its meridional half-plane
span{e_r(s), e_z}, so Phi and its time derivatives are carried as two scalar
components and Cartesian vectors are formed only where asked for.  The
trial path (``_RowGrid``) computes the trajectory kinematics from those
components, where the torsion is 0 and the binormal is +-e_theta (or the
fallback of :func:`vortexlab.geometry.frame_from_derivatives` on straight
stretches).  :func:`kinematics_at` is the generic Cartesian reference.

``t`` and ``s`` arguments may be scalars or 1-d arrays; outputs have shape
``t.shape + s.shape`` and vector outputs carry a trailing axis of length 3.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .geometry import (
    TrajectoryKinematics,
    _meridional_frame,
    _speed_curvature,
    _speed_rate,
    frame_from_derivatives,
)

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
    "embed",
]


@dataclass(frozen=True)
class RingConfig:
    """Model geometry, discretization and numerical thresholds.

    Defaults are the full-size experiment; desk-scale runs shrink J, K and
    n_s.  The angular parameter s runs over [0, 1) once around the ring, so
    the elliptic radius and every deformation mode are periodic in s.
    """

    delta: float = 0.02
    J: int = 20
    K: int = 10
    t0: float = 1.0 / 48.0
    t1: float = 1.0 / 24.0
    n_time: int = 32
    n_s: int = 128
    c_max: float = 30.0
    eps_v: float = 1e-10
    eps_kappa: float = 1e-12
    eps_align: float = 1e-6
    fd_step_factor: float = 2.0**-10

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if not self.t0 < self.t1:
            raise ValueError(f"t0 must be < t1, got [{self.t0}, {self.t1}]")
        if self.n_time < 2:
            raise ValueError(f"n_time must be >= 2, got {self.n_time}")
        if self.n_s < 4:
            raise ValueError(f"n_s must be >= 4, got {self.n_s}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.J < 0 or self.K < 0:
            raise ValueError(f"J, K must be >= 0, got J={self.J}, K={self.K}")
        # the gates must be > 0: at eps_v <= 0 a zero speed passes the stationary-point gate and
        # is divided by, and at eps_kappa <= 0 a straight stretch (kappa = 0, as on the undeformed
        # ring) gets no normal, which scores the undeformed ring ~0 (0.006 at the desk shape)
        for name in ("c_max", "eps_v", "eps_kappa", "fd_step_factor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.eps_align < 0.0:
            raise ValueError(f"eps_align must be >= 0, got {self.eps_align}")

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
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object with keys J, K, c, got {type(d).__name__}")
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


def _azimuth(s) -> np.ndarray:
    """Angle 2 pi s of e_r(s) from the x axis."""
    return 2.0 * np.pi * np.asarray(s, dtype=float)


def embed(components, s) -> np.ndarray:
    """Cartesian vector r e_r(s) + theta e_theta(s) + z e_z from ``(r, theta, z)``.

    e_r(s) = (cos 2 pi s, sin 2 pi s, 0); the result has a trailing axis of 3.
    """
    r, theta, z = np.broadcast_arrays(*components)
    angle = _azimuth(s)
    cos_s, sin_s = np.cos(angle), np.sin(angle)
    out = np.empty(np.broadcast_shapes(r.shape, angle.shape) + (3,))
    out[..., 0] = r * cos_s - theta * sin_s
    out[..., 1] = r * sin_s + theta * cos_s
    out[..., 2] = z
    return out


@dataclass(frozen=True)
class RingPoint:
    """Phi and its derivatives on a (t, s) grid (either axis may be scalar).

    ``radial[k]`` and ``vertical[k]`` are the e_r(s) and e_z components of
    the k-th time derivative of Phi (k = 0..3); ``radial_s`` and
    ``vertical_s`` are those of dPhi/ds, whose e_theta component is
    ``2 pi radial[0]``.  ``position``, ``d1``-``d3`` and ``ds`` are the
    Cartesian vectors, formed on access.
    """

    s: np.ndarray
    radial: np.ndarray
    vertical: np.ndarray
    radial_s: np.ndarray
    vertical_s: np.ndarray

    def _time_derivative(self, k: int) -> np.ndarray:
        return embed((self.radial[k], 0.0, self.vertical[k]), self.s)

    @property
    def position(self) -> np.ndarray:
        return self._time_derivative(0)

    @property
    def d1(self) -> np.ndarray:
        return self._time_derivative(1)

    @property
    def d2(self) -> np.ndarray:
        return self._time_derivative(2)

    @property
    def d3(self) -> np.ndarray:
        return self._time_derivative(3)

    @property
    def ds(self) -> np.ndarray:
        return embed((self.radial_s, 2.0 * np.pi * self.radial[0], self.vertical_s), self.s)


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


def radius_profile(s, delta: float):
    """Elliptic initial radius R(s).

    R = (1+delta)(1-delta) / (2 sqrt(((1-delta) cos th)^2 + ((1+delta) sin th)^2))

    with th = 2*pi*s the azimuth, so R is periodic in s with period 1.
    """
    th = _azimuth(s)
    g = ((1.0 - delta) * np.cos(th)) ** 2 + ((1.0 + delta) * np.sin(th)) ** 2
    return (1.0 + delta) * (1.0 - delta) / (2.0 * np.sqrt(g))


def radius_profile_deriv(s, delta: float):
    """dR/ds of the elliptic radius (closed form)."""
    th = _azimuth(s)
    g = ((1.0 - delta) * np.cos(th)) ** 2 + ((1.0 + delta) * np.sin(th)) ** 2
    # dg/dth = 4 delta sin(2 th);  R = N / (2 sqrt(g))
    dg = 4.0 * delta * np.sin(2.0 * th)
    n = (1.0 + delta) * (1.0 - delta)
    dr_dth = -n * dg / (4.0 * g**1.5)
    return dr_dth * (2.0 * np.pi)


def transport_gamma(t: float):
    """Radial transport Gamma(t) = 1 - cos(12*pi*t) and derivatives 1-3."""
    w = 12.0 * np.pi
    g = 1.0 - np.cos(w * t)
    g1 = w * np.sin(w * t)
    g2 = w**2 * np.cos(w * t)
    g3 = -(w**3) * np.sin(w * t)
    return g, g1, g2, g3


def _time_power_table(dt, J: int) -> np.ndarray:
    """Falling-factorial derivatives of dt^(j+1), j=0..J, for orders o=0..3.

    Shape (4,) + dt.shape + (J+1,): a scalar dt gives a (4, J+1) table.
    """
    dt = np.asarray(dt, dtype=float)[..., None]
    p = np.arange(1, J + 2, dtype=float)
    table = np.empty((4,) + dt.shape[:-1] + (J + 1,))
    fall = np.ones(J + 1)
    for o in range(4):
        e = np.maximum(p - o, 0.0)
        table[o] = np.where(fall == 0.0, 0.0, fall * dt**e)
        fall = fall * (p - o)
    return table


def _fourier_basis(s, K: int) -> tuple:
    """(basis, d basis/ds), rows sin(2 pi k s) then cos(2 pi k s) for k = 0..K."""
    ang = 2.0 * np.pi * np.outer(np.reshape(s, -1), np.arange(K + 1))
    sin_k, cos_k = np.sin(ang), np.cos(ang)
    kfac = 2.0 * np.pi * np.arange(K + 1)
    return np.vstack([sin_k.T, cos_k.T]), np.vstack([(kfac * cos_k).T, (-kfac * sin_k).T])


def deformation_eval(t, s, c: CoefficientTensor | np.ndarray, cfg: RingConfig) -> DeformationValues:
    """Evaluate gamma1, gamma2 and their exact partials at time(s) t.

    The series is (K+1)^-1 sum_jk c[l, m, j, k] (t - t0)^(j+1) trig(2 pi k s)
    with m=0 the sine and m=1 the cosine family.  For one CoefficientTensor
    ``t`` is a scalar or a 1-d array, and outputs have shape
    ``t.shape + s.shape``.  ``c`` may instead be a (B, 2, 2, J+1, K+1) array
    stacking B tensors' coefficients, each with one angle: tensor b is
    evaluated at times ``t[b]`` ((B, n) array) and angle ``s[b]`` ((B,)
    or (B, 1) array), and outputs have shape ``t.shape``.
    """
    s = np.asarray(s, dtype=float)
    dt = np.asarray(t, dtype=float) - cfg.t0
    stacked = not isinstance(c, CoefficientTensor)
    coeffs = np.asarray(c, dtype=float) if stacked else c.c
    J, K = coeffs.shape[-2] - 1, coeffs.shape[-1] - 1
    n_basis = 2 * (K + 1)
    pows = _time_power_table(dt, J)
    basis, basis_s = _fourier_basis(s, K)
    if stacked:
        # series[d, b, l, j]: tensor b's coefficient of (t - t0)^(j+1) at its angle (d = 1: its s-slope)
        trig = np.stack([basis, basis_s]).reshape(2, 2, K + 1, -1) / (K + 1.0)
        series = np.einsum("blmjk,dmkb->dblj", coeffs, trig)
        values = np.einsum("obtj,blj->obtl", pows, series[0])
        slopes = np.einsum("btj,blj->btl", pows[0], series[1])
    else:
        # time_coeffs[o, ..., l, (m, k)]: order-o time derivative of the polynomial sum
        time_coeffs = np.einsum("o...j,lmjk->o...lmk", pows, coeffs) / (K + 1.0)
        time_coeffs = time_coeffs.reshape(4, -1, n_basis)
        # one matmul for every (o, t..., l) row; the s-derivative needs only o = 0
        values = (time_coeffs.reshape(-1, n_basis) @ basis).reshape((4,) + dt.shape + (2,) + s.shape)
        slopes = (time_coeffs[0] @ basis_s).reshape(dt.shape + (2,) + s.shape)
    g1, g2 = np.moveaxis(values, dt.ndim + 1, 0)
    g1_s, g2_s = np.moveaxis(slopes, dt.ndim, 0)
    return DeformationValues(*g1, g1_s, *g2, g2_s)


def phi_eval(t, s, c: CoefficientTensor | np.ndarray, cfg: RingConfig) -> RingPoint:
    """Ring position and its closed-form t-derivatives (1-3) and s-derivative.

    For one CoefficientTensor ``t`` is a scalar or a 1-d array of times and
    every component has shape ``t.shape + s.shape`` (Cartesian vectors add a
    trailing axis of 3).  For a (B, 2, 2, J+1, K+1) stack of coefficients
    ``t`` is (B, n) and ``s`` is (B,), one angle per tensor, as
    :func:`deformation_eval` takes them; components have shape ``t.shape``.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if isinstance(c, CoefficientTensor):
        # time profiles broadcast against the s axes
        t_axes = t.reshape(t.shape + (1,) * s.ndim)
    else:
        t_axes, s = t, s[:, None]  # tensor b's angle against its times
    r = radius_profile(s, cfg.delta)
    r_s = radius_profile_deriv(s, cfg.delta)
    g, g1, g2, g3 = transport_gamma(t_axes)
    d = deformation_eval(t, s, c, cfg)
    return RingPoint(
        s=s,
        radial=np.stack([r + g + d.g1, g1 + d.g1_t, g2 + d.g1_tt, g3 + d.g1_ttt]),
        vertical=np.stack([d.g2, d.g2_t, d.g2_tt, d.g2_ttt]),
        radial_s=r_s + d.g1_s,
        vertical_s=d.g2_s,
    )


def kinematics_at(t, s, c: CoefficientTensor, cfg: RingConfig) -> TrajectoryKinematics:
    """Generic kinematics of the transport trajectories through (t, s): the reference.

    :func:`vortexlab.geometry.frame_from_derivatives` of the closed-form
    Cartesian derivatives of :func:`phi_eval`; ``t`` is a scalar or a 1-d
    array of times.  Raises ZeroSpeed when the trajectory speed vanishes at
    any point.
    """
    p = phi_eval(t, s, c, cfg)
    return frame_from_derivatives(p.d1, p.d2, p.d3, cfg.eps_kappa, cfg.eps_v)


@dataclass(frozen=True)
class _RowGrid:
    """The coefficient-free part of Phi on ``times`` x ``cfg.s_grid`` (read-only arrays).

    The tangent rows, which get a frame and a ring tangent, are the leading
    ``len(radius)``; v' is formed on ``rate_rows`` only.  ``pows`` stacks the
    order-1 and order-2 time powers of every row over the order-0 powers of
    the tangent rows; ``basis`` stacks the Fourier
    basis over its s-derivative, over K+1; ``transport`` is (Gamma',
    Gamma'') per row, and ``radius`` is R + Gamma on the tangent rows.  Both
    carry a unit trial axis after the row axis (``transport`` a unit s axis
    too), to broadcast against the (rows, B, n_s) arrays of :meth:`evaluate`.

    Beside the constants a grid keeps the arrays its kernels write into
    (:meth:`buffer`), so one evaluation at a time may run on it.
    """

    rate_rows: np.ndarray
    pows: np.ndarray
    basis: np.ndarray
    transport: np.ndarray
    radius: np.ndarray
    radius_s: np.ndarray
    azimuth: np.ndarray

    @classmethod
    def build(cls, times: np.ndarray, n_tangent: int, rate_rows, cfg: RingConfig) -> "_RowGrid":
        pows = _time_power_table(times - cfg.t0, cfg.J)
        gamma, gamma_t, gamma_tt, _ = transport_gamma(times[:, None, None])
        grid = cls(
            np.array(rate_rows),
            np.concatenate([pows[1], pows[2], pows[0, :n_tangent]]),
            np.stack(_fourier_basis(cfg.s_grid, cfg.K)) / (cfg.K + 1.0),
            np.stack([gamma_t, gamma_tt]),
            radius_profile(cfg.s_grid, cfg.delta) + gamma[:n_tangent],
            radius_profile_deriv(cfg.s_grid, cfg.delta),
            _azimuth(cfg.s_grid),
        )
        for field in dataclasses.fields(grid):
            getattr(grid, field.name).flags.writeable = False
        return grid

    @functools.cached_property
    def _buffers(self) -> dict:
        return {}

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """The grid's array ``name`` of ``shape``: allocated at the first request, the same array after.

        Kernels write their (rows, B, n_s) arrays here rather than into new
        ones, which the allocator would hand back to the OS and fault in
        again on every call.  What a kernel returns in them is valid until
        the next kernel call on the grid with a stack of the same size.
        """
        key = (name, shape)
        out = self._buffers.get(key)
        if out is None:
            out = self._buffers[key] = np.empty(shape)
        return out

    def evaluate(self, c: np.ndarray, cfg: RingConfig) -> tuple:
        """Kinematics, frame and ring tangent of a stack of coefficient arrays.

        ``c`` has shape (B, 2, 2, J+1, K+1).  Returns (v, v', kappa, v^2),
        v' on ``rate_rows`` and the others on every row, the
        MeridionalFrame and the unit ring tangent on the tangent rows, each
        array shaped (rows, B, n_s), and the (B,) mask of trials with a
        zero speed (v <= eps_v) on some row, whose other outputs are finite
        but meaningless: the aligned start makes every column of such a
        trial infeasible.  The tangent is given by its components along
        (tau, n, b), NaN where dPhi/ds vanishes.  The arrays are the grid's
        buffers (:meth:`buffer`).

        Two matrix products: the coefficients against the basis gives each
        power of (t - t0) as a function of s, and the time-power table
        against that gives the rows.  Each output element is a sum over one
        trial's coefficients only, in an order that does not depend on B.
        """
        n, n_tan, n_s, size = self.transport.shape[1], len(self.radius), cfg.n_s, len(c)
        buffer = self.buffer
        # rows (gamma1/gamma2, j, trial) by columns (sine/cosine, k)
        coeffs = c.transpose(1, 3, 0, 2, 4).reshape(-1, self.basis.shape[1])
        series = np.matmul(coeffs, self.basis, out=buffer("series", (2, len(coeffs), n_s)))
        # (gamma1/gamma2, row, trial, s): the order-1 and order-2 rows, then the tangent rows' order 0
        values = buffer("values", (2, len(self.pows), size, n_s))
        np.matmul(self.pows, series[0].reshape(2, cfg.J + 1, -1), out=values.reshape(2, len(self.pows), -1))
        (a1, a2, g1), (b1, b2, _) = ((x[:n], x[n : 2 * n], x[2 * n :]) for x in values)
        a1 += self.transport[0]
        a2 += self.transport[1]
        speed = buffer("speed", (4, n, size, n_s))
        v, w, kappa, stationary = _speed_curvature(a1, a2, b1, b2, cfg.eps_v, out=speed)
        rows = self.rate_rows
        v_t = _speed_rate(a1[rows], a2[rows], b1[rows], b2[rows], v[rows], out=buffer("v_t", (len(rows), size, n_s)))
        frame = buffer("frame", (4, n_tan, size, n_s))
        frame = _meridional_frame(*(x[:n_tan] for x in (a1, b1, v, w, kappa)), self.azimuth, cfg.eps_kappa, out=frame)

        # dPhi/ds = r e_r + theta e_theta + z e_z on the tangent rows
        slopes = buffer("slopes", (2, n_tan, size, n_s))
        np.matmul(self.pows[2 * n :], series[1].reshape(2, cfg.J + 1, -1), out=slopes.reshape(2, n_tan, -1))
        (r, z), theta = slopes, g1
        r += self.radius_s
        theta += self.radius
        theta *= 2.0 * np.pi
        norm, scratch = buffer("norm", (2, n_tan, size, n_s))
        np.multiply(r, r, out=norm)
        norm += np.multiply(theta, theta, out=scratch)
        norm += np.multiply(z, z, out=scratch)
        np.sqrt(norm, out=norm)
        np.copyto(norm, np.nan, where=norm == 0.0)
        # its components along (tau, n, b); m = -tau_z e_r + tau_r e_z, w = -e_theta
        tangent = buffer("tangent", (3, n_tan, size, n_s))
        along_tau, along_n, along_b = tangent
        np.multiply(frame.tau_r, z, out=along_b)
        along_b -= np.multiply(frame.tau_z, r, out=scratch)  # along m
        np.multiply(frame.n_m, along_b, out=along_n)
        along_n -= np.multiply(frame.n_w, theta, out=scratch)
        along_b *= frame.n_w
        along_b += np.multiply(frame.n_m, theta, out=scratch)
        np.negative(along_b, out=along_b)
        np.multiply(frame.tau_r, r, out=along_tau)
        along_tau += np.multiply(frame.tau_z, z, out=scratch)
        for x in tangent:
            x /= norm
        return (v, v_t, kappa, speed[3]), frame, tuple(tangent), stationary.any(axis=(0, 2))
