"""Frame-and-curvature kinematics of a space curve from its derivative vectors.

Everything here is a pure function of the first three time derivatives
``d1 = dPhi/dt``, ``d2 = d2Phi/dt2``, ``d3 = d3Phi/dt3`` of a trajectory
point.  The module never differentiates anything numerically itself; closed
form derivatives are supplied by the caller (see :mod:`vortexlab.ring_model`).

:func:`frame_from_derivatives` is the generic routine: its vector arguments
are numpy arrays with a trailing axis of length 3 (a single point is a shape
``(3,)`` array, a batch of N points ``(N, 3)``), and scalar outputs follow the
leading shape of the inputs; the tests hold the trial path to it.
``_speed_curvature``, ``_speed_rate`` and ``_meridional_frame`` are the trial
path's kernels, on the scalar components of trajectories in one meridional
half-plane.
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
    the moving frame (and everything downstream) undefined.  Only
    :func:`frame_from_derivatives`, the reference, raises it: the trial
    path marks such a trial infeasible on every column instead.
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

    def __getitem__(self, index) -> "MeridionalFrame":
        """The frame with ``index`` applied to every component."""
        return MeridionalFrame(self.tau_r[index], self.tau_z[index], self.n_m[index], self.n_w[index])

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
    torsion is 0.
    """

    v: float | np.ndarray
    v_t: float | np.ndarray
    v_tt: float | np.ndarray
    kappa: float | np.ndarray
    kappa_t: float | np.ndarray
    torsion: float | np.ndarray
    frame: FrenetFrame
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


def _speed_curvature(a1, a2, b1, b2, eps_v: float = DEFAULT_EPS_V, out=None) -> tuple:
    """(v, W, kappa, stationary) from the e_r (a) and e_z (b) components of d1 and d2.

    With ``W = a1 b2 - b1 a2``, ``d1 x d2 = -W e_theta``, so
    ``kappa = |W| / v^3`` and the torsion is exactly 0.  ``stationary``
    marks the points with v <= eps_v, where the kinematics are undefined:
    there v and v^2 read 1, so nothing divides by zero, and the trial path
    makes every column of a trial with such a point infeasible.  ``out``, a
    float array of shape ``(4,) + a1.shape`` (allocated if not given),
    receives v, W, kappa and v^2, in that order; the first three are
    views of it.  v' is :func:`_speed_rate`.
    """
    if out is None:
        out = np.empty((4,) + np.shape(a1))
    v, w, kappa, v_sq = out
    # kappa holds products until its own value is formed
    np.multiply(a1, a1, out=v_sq)
    v_sq += np.multiply(b1, b1, out=kappa)
    np.sqrt(v_sq, out=v)
    stationary = v <= eps_v
    if stationary.any():
        np.copyto(v, 1.0, where=stationary)
        np.copyto(v_sq, 1.0, where=stationary)
    np.multiply(a1, b2, out=w)
    w -= np.multiply(b1, a2, out=kappa)
    np.abs(w, out=kappa)
    kappa /= v_sq
    kappa /= v
    return v, w, kappa, stationary


def _speed_rate(a1, a2, b1, b2, v, out=None) -> np.ndarray:
    """v' = (d1 . d2) / v from the components of :func:`_speed_curvature` and its v."""
    return np.divide(a1 * a2 + b1 * b2, v, out=out)


def _meridional_frame(a1, b1, v, w, kappa, azimuth, eps_kappa: float = DEFAULT_EPS_KAPPA, out=None):
    """The frame of :func:`frame_from_derivatives` as a :class:`MeridionalFrame`.

    Regular points have ``n = sign(W) m``; where kappa < eps_kappa the
    fallback gives ``n = unit(z_hat x tau) = sign(a1) e_theta``, or
    ``unit(x_hat x tau)`` where tau is nearly vertical (``azimuth`` is the
    angle of e_r from the x axis).  ``out``, a float array of shape
    ``(4,) + v.shape`` (allocated if not given), holds the frame's
    components tau_r, tau_z, n_m and n_w.
    """
    if out is None:
        out = np.empty((4,) + np.shape(v))
    tau_r, tau_z, n_m, n_w = out
    np.divide(a1, v, out=tau_r)
    np.divide(b1, v, out=tau_z)
    np.sign(w, out=n_m)
    n_w.fill(0.0)
    degenerate = kappa < eps_kappa
    if degenerate.any():
        # sign(a1) e_theta = -sign(a1) w on degenerate points
        np.copyto(n_m, 0.0, where=degenerate)
        np.copyto(n_w, -np.sign(a1), where=degenerate)
        vertical = degenerate & (np.abs(tau_r) < _FALLBACK_EPS)
        if vertical.any():
            # x_hat x tau has components sin(azimuth) along m and cos(azimuth) tau_z along w
            along_m = np.broadcast_to(np.sin(azimuth), v.shape)
            along_w = np.cos(azimuth) * tau_z
            # zero only at a stationary point, where tau is (a1, b1) itself and may vanish
            norm = np.hypot(along_m, along_w)
            norm = np.where(norm > 0.0, norm, 1.0)
            np.copyto(n_m, along_m / norm, where=vertical)
            np.copyto(n_w, along_w / norm, where=vertical)
    return MeridionalFrame(tau_r=tau_r, tau_z=tau_z, n_m=n_m, n_w=n_w)
