"""Frame-and-curvature kinematics of a space curve from its derivative vectors.

Everything here is a pure function of the first three time derivatives
``d1 = dPhi/dt``, ``d2 = d2Phi/dt2``, ``d3 = d3Phi/dt3`` of a trajectory
point.  The module never differentiates anything numerically itself; closed
form derivatives are supplied by the caller (see :mod:`vortexlab.ring_model`).

:func:`frame_from_derivatives` is the generic routine: its vector arguments
are numpy arrays with a trailing axis of length 3 (a single point is a shape
``(3,)`` array, a batch of N points ``(N, 3)``), and scalar outputs follow the
leading shape of the inputs.  ``_meridional_kinematics`` computes the same
quantities from scalar components for trajectories that stay in one
meridional half-plane, as the ring's transport trajectories do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZeroSpeed",
    "FrenetFrame",
    "MeridionalFrame",
    "TrajectoryKinematics",
    "frame_from_derivatives",
]

DEFAULT_EPS_V = 1e-10
DEFAULT_EPS_KAPPA = 1e-12

# Threshold below which z-hat is considered parallel to tau and the
# degenerate-frame fallback switches to x-hat.
_FALLBACK_EPS = 1e-8

_Z_HAT = np.array([0.0, 0.0, 1.0])
_X_HAT = np.array([1.0, 0.0, 0.0])


class ZeroSpeed(ValueError):
    """Trajectory point with |dPhi/dt| at or below the speed threshold.

    The arc-length reparameterization needs v > 0; a stationary point makes
    the moving frame (and everything downstream) undefined.
    """


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal right-handed (tau, n, b) triple along a trajectory."""

    tau: np.ndarray
    n: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class MeridionalFrame:
    """Frenet frame of a trajectory that stays in its meridional half-plane.

    Components refer to the cylindrical basis (e_r, e_theta, e_z) at the
    point: ``tau = tau_r e_r + tau_z e_z``.  With the in-plane normal
    ``m = -tau_z e_r + tau_r e_z`` and ``w = -e_theta`` the triple
    (tau, m, w) is right-handed, and ``n = n_m m + n_w w``,
    ``b = tau x n = -n_w m + n_m w``.
    """

    tau_r: np.ndarray
    tau_z: np.ndarray
    n_m: np.ndarray
    n_w: np.ndarray

    def coords(self, r, theta, z) -> tuple:
        """Components along (tau, n, b) of the vector r e_r + theta e_theta + z e_z."""
        along_m = self.tau_r * z - self.tau_z * r
        return (
            self.tau_r * r + self.tau_z * z,
            self.n_m * along_m - self.n_w * theta,
            -self.n_w * along_m - self.n_m * theta,
        )

    def vector(self, along_tau, along_n, along_b) -> tuple:
        """(e_r, e_theta, e_z) components of along_tau tau + along_n n + along_b b."""
        along_m = self.n_m * along_n - self.n_w * along_b
        along_w = self.n_w * along_n + self.n_m * along_b
        return (
            self.tau_r * along_tau - self.tau_z * along_m,
            -along_w,
            self.tau_z * along_tau + self.tau_r * along_m,
        )


@dataclass(frozen=True)
class TrajectoryKinematics:
    """Speed, curvature, torsion and moving frame at one trajectory point.

    ``v``, ``v_t``, ``v_tt`` are the speed and its first two time
    derivatives, ``kappa_t`` the time derivative of curvature.
    ``degenerate`` flags points where curvature fell below the frame
    threshold; there the normal comes from the fallback convention and
    torsion is 0.  ``frame`` is a Cartesian :class:`FrenetFrame`, or a
    :class:`MeridionalFrame` straight from ``_meridional_kinematics``.
    """

    v: float | np.ndarray
    v_t: float | np.ndarray
    v_tt: float | np.ndarray
    kappa: float | np.ndarray
    kappa_t: float | np.ndarray
    torsion: float | np.ndarray
    frame: FrenetFrame | MeridionalFrame
    degenerate: bool | np.ndarray


def _dot(a: np.ndarray, b: np.ndarray):
    return np.sum(a * b, axis=-1)


def _norm(a: np.ndarray):
    return np.sqrt(np.sum(a * a, axis=-1))


def frame_from_derivatives(
    d1: np.ndarray,
    d2: np.ndarray,
    d3: np.ndarray,
    eps_kappa: float = DEFAULT_EPS_KAPPA,
    eps_v: float = DEFAULT_EPS_V,
) -> TrajectoryKinematics:
    """Assemble kinematics and the Frenet frame from derivative vectors.

    Uses the standard derivative formulas

        v    = |d1|
        v'   = (d1 . d2) / v
        v''  = (|d2|^2 + d1 . d3 - v'^2) / v
        kappa   = |d1 x d2| / v^3
        kappa'  = (d1 x d2) . (d1 x d3) / (|d1 x d2| v^3) - 3 kappa v' / v
        torsion = (d1 x d2) . d3 / |d1 x d2|^2

    with ``tau = d1/v``, ``b = unit(d1 x d2)``, ``n = b x tau``.  Where
    kappa < eps_kappa the frame is completed by the fallback convention
    ``n = unit(z_hat x tau)`` (or ``unit(x_hat x tau)`` when tau is nearly
    vertical), ``b = tau x n``, and torsion is set to 0.  ``kappa'`` is 0
    where d1 x d2 vanishes exactly.

    Raises
    ------
    ZeroSpeed
        If any input point has |d1| <= eps_v.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    d3 = np.asarray(d3, dtype=float)

    v = _norm(d1)
    if np.any(v <= eps_v):
        raise ZeroSpeed(f"|d1| <= {eps_v}; stationary trajectory point")

    v_t = _dot(d1, d2) / v
    v_tt = (_dot(d2, d2) + _dot(d1, d3) - v_t**2) / v

    tau = d1 / v[..., None]
    cr = np.cross(d1, d2)
    crn = _norm(cr)
    kappa = crn / v**3
    degenerate = kappa < eps_kappa

    # Regular branch: b along d1 x d2, n = b x tau (right-handed by
    # construction).  Guard the division so degenerate rows stay finite.
    crn_safe = np.where(crn > 0.0, crn, 1.0)
    b_reg = cr / crn_safe[..., None]
    n_reg = np.cross(b_reg, tau)

    # Fallback branch: complete the frame from a fixed reference direction.
    zxt = np.cross(np.broadcast_to(_Z_HAT, tau.shape), tau)
    xxt = np.cross(np.broadcast_to(_X_HAT, tau.shape), tau)
    use_x = _norm(zxt) < _FALLBACK_EPS
    ref = np.where(use_x[..., None], xxt, zxt)
    n_fb = ref / _norm(ref)[..., None]
    b_fb = np.cross(tau, n_fb)

    deg = degenerate[..., None]
    n = np.where(deg, n_fb, n_reg)
    b = np.where(deg, b_fb, b_reg)

    crn2_safe = np.where(crn > 0.0, crn**2, 1.0)
    torsion = np.where(degenerate, 0.0, _dot(cr, d3) / crn2_safe)
    # d(d1 x d2)/dt = d1 x d3, so d|d1 x d2|/dt = (d1 x d2) . (d1 x d3) / |d1 x d2|
    crn_rate = np.where(crn > 0.0, _dot(cr, np.cross(d1, d3)) / crn_safe, 0.0)
    kappa_t = crn_rate / v**3 - 3.0 * kappa * v_t / v

    if d1.ndim == 1:
        v, v_t, v_tt = float(v), float(v_t), float(v_tt)
        kappa, kappa_t, torsion = float(kappa), float(kappa_t), float(torsion)
        degenerate = bool(degenerate)

    return TrajectoryKinematics(
        v=v,
        v_t=v_t,
        v_tt=v_tt,
        kappa=kappa,
        kappa_t=kappa_t,
        torsion=torsion,
        frame=FrenetFrame(tau=tau, n=n, b=b),
        degenerate=degenerate,
    )


def _meridional_kinematics(
    a,
    b,
    azimuth,
    eps_kappa: float = DEFAULT_EPS_KAPPA,
    eps_v: float = DEFAULT_EPS_V,
) -> TrajectoryKinematics:
    """:func:`frame_from_derivatives` for a trajectory in its meridional half-plane.

    ``a[k - 1]`` and ``b[k - 1]`` (k = 1, 2, 3) are the e_r and e_z
    components of the k-th time derivative of the position; ``azimuth`` is
    the angle of e_r from the x axis.  With ``W = a1 b2 - b1 a2``,
    ``d1 x d2 = -W e_theta``, so

        v       = hypot(a1, b1)
        kappa   = |W| / v^3
        kappa'  = sign(W) (a1 b3 - a3 b1) / v^3 - 3 kappa v' / v

    and torsion is exactly 0.  Regular points have ``n = sign(W) m``,
    ``b = -sign(W) e_theta`` (m as in :class:`MeridionalFrame`).  Where
    kappa < eps_kappa the fallback of :func:`frame_from_derivatives` applies
    unchanged: ``n = unit(z_hat x tau) = sign(a1) e_theta``, or
    ``unit(x_hat x tau)`` with ``x_hat = cos(azimuth) e_r - sin(azimuth)
    e_theta`` where tau is nearly vertical.  The frame is returned as a
    :class:`MeridionalFrame`.

    Raises
    ------
    ZeroSpeed
        If any point has v <= eps_v.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    v = np.hypot(a1, b1)
    if np.any(v <= eps_v):
        raise ZeroSpeed(f"|d1| <= {eps_v}; stationary trajectory point")

    v_t = (a1 * a2 + b1 * b2) / v
    v_tt = (a2 * a2 + b2 * b2 + a1 * a3 + b1 * b3 - v_t**2) / v
    w = a1 * b2 - b1 * a2
    v3 = v**3
    kappa = np.abs(w) / v3
    sign_w = np.sign(w)
    kappa_t = sign_w * (a1 * b3 - a3 * b1) / v3 - 3.0 * kappa * v_t / v
    degenerate = kappa < eps_kappa

    tau_r, tau_z = a1 / v, b1 / v
    # sign(a1) e_theta = -sign(a1) w on degenerate points
    n_m = np.where(degenerate, 0.0, sign_w)
    n_w = np.where(degenerate, -np.sign(a1), 0.0)
    vertical = degenerate & (np.abs(tau_r) < _FALLBACK_EPS)
    if np.any(vertical):
        # x_hat x tau has components sin(azimuth) along m and cos(azimuth) tau_z along w
        along_m = np.broadcast_to(np.sin(azimuth), v.shape)
        along_w = np.cos(azimuth) * tau_z
        norm = np.hypot(along_m, along_w)
        n_m = np.where(vertical, along_m / norm, n_m)
        n_w = np.where(vertical, along_w / norm, n_w)
    torsion = np.zeros_like(v)

    if v.ndim == 0:
        v, v_t, v_tt = float(v), float(v_t), float(v_tt)
        kappa, kappa_t, torsion = float(kappa), float(kappa_t), float(torsion)
        degenerate = bool(degenerate)

    return TrajectoryKinematics(
        v=v,
        v_t=v_t,
        v_tt=v_tt,
        kappa=kappa,
        kappa_t=kappa_t,
        torsion=torsion,
        frame=MeridionalFrame(tau_r=tau_r, tau_z=tau_z, n_m=n_m, n_w=n_w),
        degenerate=degenerate,
    )
