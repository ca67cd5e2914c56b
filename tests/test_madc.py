import dataclasses

import numpy as np
import pytest

from vortexlab.madc import DimensionMismatch, madc
from vortexlab.ring_model import CoefficientTensor, RingConfig
from vortexlab.wave_dynamics import AxisField, axis_field


def synthetic_field(cfg, corr, feasible):
    # madc reads only corr and feasible, so the axes stay unset
    return AxisField(
        t_nodes=cfg.t_grid,
        s_grid=cfg.s_grid,
        corr=np.where(feasible[None, :], corr, np.nan),
        feasible=feasible,
        frame=None,
        alpha1=None,
        alpha2=None,
        tangent=None,
    )


@pytest.fixture
def tiny_cfg():
    return RingConfig(J=1, K=1, n_s=8, n_time=4)


def test_perfect_alignment_scores_one(tiny_cfg):
    feasible = np.ones(8, dtype=bool)
    corr = np.ones((5, 8))
    report = madc(synthetic_field(tiny_cfg, corr, feasible), tiny_cfg)
    assert report.madc == pytest.approx(1.0)
    assert report.feasible_fraction == 1.0
    assert report.score == pytest.approx(1.0)


def test_zero_correlation_scores_zero(tiny_cfg):
    feasible = np.ones(8, dtype=bool)
    report = madc(synthetic_field(tiny_cfg, np.zeros((5, 8)), feasible), tiny_cfg)
    assert report.madc == 0.0


def test_absolute_value_of_mixed_signs(tiny_cfg):
    feasible = np.ones(8, dtype=bool)
    corr = np.ones((5, 8))
    corr[:, ::2] = -1.0
    report = madc(synthetic_field(tiny_cfg, corr, feasible), tiny_cfg)
    assert report.madc == pytest.approx(1.0)


def test_sign_flip_invariance_random(tiny_cfg):
    rng = np.random.default_rng(13)
    feasible = rng.random(8) < 0.7
    corr = rng.uniform(-1, 1, (5, 8))
    base = madc(synthetic_field(tiny_cfg, corr, feasible), tiny_cfg)
    flips = np.where(rng.random((5, 8)) < 0.5, -1.0, 1.0)
    flipped = madc(synthetic_field(tiny_cfg, corr * flips, feasible), tiny_cfg)
    assert flipped.madc == pytest.approx(base.madc, rel=1e-14)
    assert 0.0 <= base.madc <= 1.0


def test_feasibility_exclusion_and_fraction(tiny_cfg):
    feasible = np.zeros(8, dtype=bool)
    feasible[:2] = True
    corr = np.full((5, 8), 0.5)
    report = madc(synthetic_field(tiny_cfg, corr, feasible), tiny_cfg)
    assert report.madc == pytest.approx(0.5)
    assert report.feasible_fraction == pytest.approx(0.25)
    assert report.score == pytest.approx(0.125)
    assert np.all(np.isnan(report.per_s_mean[~feasible]))
    np.testing.assert_allclose(report.per_s_mean[feasible], 0.5)
    assert report.per_time_mean.shape == (5,)


def test_no_feasible_columns(tiny_cfg):
    feasible = np.zeros(8, dtype=bool)
    report = madc(synthetic_field(tiny_cfg, np.ones((5, 8)), feasible), tiny_cfg)
    assert report.madc == 0.0
    assert report.feasible_fraction == 0.0
    assert report.score == 0.0


def test_dimension_mismatch(tiny_cfg):
    other = RingConfig(J=1, K=1, n_s=16, n_time=4)
    field = synthetic_field(tiny_cfg, np.ones((5, 8)), np.ones(8, dtype=bool))
    with pytest.raises(DimensionMismatch):
        madc(field, other)


def test_trapezoid_time_weighting(tiny_cfg):
    feasible = np.ones(8, dtype=bool)
    corr = np.zeros((5, 8))
    corr[0] = 1.0  # only the first node, which carries half weight
    report = madc(synthetic_field(tiny_cfg, corr, feasible), tiny_cfg)
    assert report.madc == pytest.approx(0.5 / 4.0)


def test_grid_refinement_consistency():
    cfg = RingConfig(J=2, K=3, n_s=64, n_time=32)
    rng = np.random.default_rng(14)
    flat = rng.uniform(-2, 2, 4 * 3 * 4)
    c = CoefficientTensor.from_flat(flat, 2, 3)
    coarse = madc(axis_field(c, cfg), cfg)
    fine_cfg = dataclasses.replace(cfg, n_s=128, n_time=64)
    fine = madc(axis_field(c, fine_cfg), fine_cfg)
    assert abs(coarse.madc - fine.madc) < 1e-3
