"""Mean absolute directional correlation of the vortex and swirl axes.

The functional is the space-time average of |zeta_hat* . zeta_hat| over
[t0, t1] x [0, 1): trapezoid weights over the integrator's time nodes,
uniform mean over the angular grid (exact trapezoid for a periodic grid).
Infeasible angular columns are excluded from the average and reported via
``feasible_fraction``; the optimization ranking score multiplies the two so
mostly-infeasible candidates are penalized smoothly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ring_model import RingConfig
from .wave_dynamics import AxisField

__all__ = ["DimensionMismatch", "MadcReport", "madc", "stack_madc"]


class DimensionMismatch(ValueError):
    """Axis field dimensions do not match the configuration grid."""


@dataclass(frozen=True)
class MadcReport:
    """MADC value plus feasibility and per-slice diagnostics.

    ``per_s_mean`` carries NaN on infeasible columns; ``score`` is the
    optimization ranking value madc * feasible_fraction.
    """

    madc: float
    feasible_fraction: float
    per_time_mean: np.ndarray
    per_s_mean: np.ndarray

    @property
    def score(self) -> float:
        return self.madc * self.feasible_fraction

    def to_dict(self) -> dict:
        # NaN sentinels become null so the report stays strict JSON
        per_s = [x if np.isfinite(x) else None for x in self.per_s_mean.tolist()]
        return {
            "madc": self.madc,
            "feasible_fraction": self.feasible_fraction,
            "score": self.score,
            "per_time_mean": self.per_time_mean.tolist(),
            "per_s_mean": per_s,
        }


def _trapezoid_weights(n_nodes: int) -> np.ndarray:
    w = np.ones(n_nodes)
    w[0] = w[-1] = 0.5
    return w / (n_nodes - 1)


def stack_madc(corr: np.ndarray, feasible: np.ndarray) -> list:
    """(madc, feasible_fraction, per-time mean) of each trial of a stacked (n_nodes, B, n_s) corr.

    A trial with no ``feasible`` column reads 0 throughout.  For
    bit-reproducibility each node's sum adds the trial's feasible columns
    one at a time in ascending order, whatever the stack.
    """
    n_nodes, size, n_s = corr.shape
    # the s axis outermost, so numpy's sum along it adds one column at a time (along
    # a contiguous axis it would sum pairwise); 0 on an infeasible column adds nothing
    abs_corr = np.abs(corr.transpose(2, 1, 0), out=np.empty((n_s, size, n_nodes)))
    np.copyto(abs_corr, 0.0, where=~feasible.T[:, :, None])
    n_feasible = np.count_nonzero(feasible, axis=1)
    means = np.add.reduce(abs_corr, axis=0) / np.maximum(n_feasible, 1)[:, None]
    w_t = _trapezoid_weights(n_nodes)
    return [(float(w_t @ mean), n / n_s, mean) for mean, n in zip(means, n_feasible.tolist())]


def madc(field: AxisField, cfg: RingConfig) -> MadcReport:
    """Quadrature of |corr| over the (t, s) grid, feasible columns only.

    Returns madc = 0 with feasible_fraction = 0 when no column is feasible.
    The value is :func:`stack_madc`'s, the reduction trials are scored with.
    """
    n_nodes = cfg.n_time + 1
    if field.corr.shape != (n_nodes, cfg.n_s) or field.feasible.shape != (cfg.n_s,):
        raise DimensionMismatch(
            f"field grid {field.corr.shape} does not match config "
            f"({n_nodes}, {cfg.n_s})"
        )

    ((value, feasible_fraction, per_time_mean),) = stack_madc(field.corr[:, None], field.feasible[None])
    per_s_mean = np.full(cfg.n_s, np.nan)
    per_s_mean[field.feasible] = _trapezoid_weights(n_nodes) @ np.abs(field.corr[:, field.feasible])
    return MadcReport(
        madc=value,
        feasible_fraction=feasible_fraction,
        per_time_mean=per_time_mean,
        per_s_mean=per_s_mean,
    )
