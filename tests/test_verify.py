import dataclasses

import numpy as np
import pytest

import vortexlab.verify as verify
from vortexlab.ring_model import CoefficientTensor, RingConfig
from vortexlab.verify import (
    FrameMatrixInput,
    SingularD,
    check_closure_rearrangement,
    check_dinv_expansion,
    check_inverse_matrix,
    check_leibniz_identity,
    leibniz_residual_from_curve,
    run_all_checks,
)

from oracles import dense_inverse_residual, verify_reference_samples, verify_reference_values


def make_input(rng, with_r=True):
    k, t, a1, a2, da1, da2 = rng.uniform(-2, 2, 6)
    r1, r2 = rng.uniform(-0.1, 0.1, 2) if with_r else (0.0, 0.0)
    return FrameMatrixInput(
        kappa=k, torsion=t, alpha1=a1, alpha2=a2, dz_alpha1=da1, dz_alpha2=da2, R1=r1, R2=r2
    )


def entries(p):
    a = (1 - p.kappa * p.R1) + (p.R1 * p.dz_alpha1 + p.R2 * p.dz_alpha2)
    b = -p.R2 * p.torsion + (p.R1 * p.alpha1 + p.R2 * p.alpha2) * p.kappa
    c = p.R1 * p.torsion
    return a, b, c


def test_inverse_matrix_worked_example():
    # kappa/torsion/R choices realizing A = 1.1, B = 0.2, C = -0.3 with
    # alpha = (0.4, 0.5), hence D = 1.17
    p = FrameMatrixInput(
        kappa=-10.0 / 9.0, torsion=-3.0, alpha1=0.4, alpha2=0.5,
        dz_alpha1=-1.0 / 9.0, dz_alpha2=0.0, R1=0.1, R2=0.1,
    )
    a, b, c = entries(p)
    assert (a, b, c) == pytest.approx((1.1, 0.2, -0.3), abs=1e-14)
    d = a - b * p.alpha1 - c * p.alpha2
    assert d == pytest.approx(1.17, abs=1e-14)
    assert check_inverse_matrix(p) <= 1e-12
    m = np.array([[a, b, c], [p.alpha1, 1, 0], [p.alpha2, 0, 1]])
    assert dense_inverse_residual(m) <= 1e-12


def test_inverse_matrix_identity_case():
    p = FrameMatrixInput(
        kappa=0.0, torsion=0.0, alpha1=0.0, alpha2=0.0, dz_alpha1=0.0, dz_alpha2=0.0,
        R1=0.0, R2=0.0,
    )
    assert check_inverse_matrix(p) == 0.0


def test_inverse_matrix_random_sweep_matches_dense_solve():
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 1000:
        p = make_input(rng)
        a, b, c = entries(p)
        d = a - b * p.alpha1 - c * p.alpha2
        if abs(d) <= 0.1:
            continue
        res = check_inverse_matrix(p)
        assert res <= 1e-12
        m = np.array([[a, b, c], [p.alpha1, 1, 0], [p.alpha2, 0, 1]])
        assert dense_inverse_residual(m) <= 1e-12
        checked += 1


def test_inverse_matrix_singular_d():
    # A = 1, B = 1, alpha1 = 1 makes D = 0
    p = FrameMatrixInput(
        kappa=0.0, torsion=2.0, alpha1=1.0, alpha2=0.0, dz_alpha1=0.0, dz_alpha2=0.0,
        R1=0.0, R2=-0.5,
    )
    with pytest.raises(SingularD):
        check_inverse_matrix(p)


def test_dinv_expansion_slopes():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = make_input(rng, with_r=False)
        for direction in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            slope = check_dinv_expansion(p, direction)
            assert slope >= 1.9


def test_dinv_expansion_degenerate_base_is_exact():
    p = FrameMatrixInput(
        kappa=0.0, torsion=0.0, alpha1=0.0, alpha2=0.0, dz_alpha1=0.0, dz_alpha2=0.0,
        R1=0.0, R2=0.0,
    )
    assert check_dinv_expansion(p) == float("inf")


def test_leibniz_identity_baseline_collinear():
    cfg = RingConfig()
    c = CoefficientTensor.zeros(cfg.J, cfg.K)
    res = check_leibniz_identity(c, cfg, 0.03, 0.3)
    assert res <= 1e-12


def test_leibniz_identity_random_sweep():
    cfg = RingConfig(J=4, K=6, n_s=16)
    rng = np.random.default_rng(22)
    for _ in range(100):
        flat = rng.uniform(-0.5, 0.5, 4 * 5 * 7)
        c = CoefficientTensor.from_flat(flat, 4, 6)
        t = rng.uniform(cfg.t0, cfg.t1)
        s = rng.uniform(0, 1)
        assert check_leibniz_identity(c, cfg, t, s) < 1e-6


def test_leibniz_unit_speed_curve():
    # on a unit-speed circle the identity collapses to d2/dt2 = d2/dz2
    d1 = lambda t: np.array([-np.sin(t), np.cos(t), 0.0])
    d2 = lambda t: np.array([-np.cos(t), -np.sin(t), 0.0])
    res = leibniz_residual_from_curve(d1, d2, 0.4, h=2e-5)
    assert res <= 1e-10


def test_closure_rearrangement_random_sweep():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        v = rng.uniform(0.5, 3.0)
        v_t, v_tt = rng.uniform(-3, 3, 2)
        kappa = abs(rng.uniform(-2, 2))
        kappa_t, torsion, a1, a2 = rng.uniform(-2, 2, 4)
        a1_tt = (v_tt / v) * a1 + 2 * v * kappa_t + 4 * v_t * kappa
        a2_tt = (v_tt / v) * a2
        res1, res2 = check_closure_rearrangement(
            v, v_t, v_tt, kappa, kappa_t, torsion, a1, a2, a1_tt, a2_tt
        )
        assert res1 <= 1e-12
        assert res2 <= 1e-12


def test_closure_flat_case_reduces_to_ratio_equation():
    res1, res2 = check_closure_rearrangement(
        v=2.0, v_t=0.5, v_tt=1.5, kappa=0.0, kappa_t=0.0, torsion=0.7,
        alpha1=1.1, alpha2=-0.8, alpha1_tt=(1.5 / 2.0) * 1.1, alpha2_tt=(1.5 / 2.0) * -0.8,
    )
    assert res1 == 0.0
    assert res2 == 0.0


def test_closure_torsion_cancels_in_second_identity():
    for torsion in (-5.0, 0.0, 3.3):
        _, res2 = check_closure_rearrangement(
            v=1.7, v_t=0.2, v_tt=-0.9, kappa=1.2, kappa_t=0.4, torsion=torsion,
            alpha1=0.3, alpha2=0.6, alpha1_tt=0.0, alpha2_tt=(-0.9 / 1.7) * 0.6,
        )
        assert res2 <= 1e-15


def test_closure_detects_wrong_dynamics():
    res1, _ = check_closure_rearrangement(
        v=2.0, v_t=1.0, v_tt=1.0, kappa=1.0, kappa_t=1.0, torsion=0.0,
        alpha1=1.0, alpha2=0.0, alpha1_tt=0.0, alpha2_tt=0.0,
    )
    assert res1 > 1e-3  # missing forcing shows up immediately


def test_run_all_checks_passes():
    results = run_all_checks(seed=0)
    assert [r.name for r in results] == [
        "inverse_matrix",
        "dinv_expansion",
        "leibniz_identity",
        "closure_rearrangement",
    ]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("seed", range(5))
def test_batched_samples_equal_the_rejection_loops(seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    samples = verify._draw_samples(rng, RingConfig(J=4, K=6, n_s=16))
    for batched, looped in zip(samples, verify_reference_samples(reference), strict=True):
        assert np.array_equal(batched, looped)
    # the closure samples that follow come from the same place in the stream
    assert rng.bit_generator.state == reference.bit_generator.state


def test_draw_rows_redraws_when_the_first_block_runs_short():
    # kappa and R1 near 1 put D near 0: about half of these rows fail |D| > 0.1, more
    # than the first block's margin allows for
    low = np.array([0.9, -0.01, -0.01, -0.01, -0.01, -0.01, 0.9, -0.01])
    high = np.array([1.1, 0.01, 0.01, 0.01, 0.01, 0.01, 1.1, 0.01])
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    rows = verify._draw_rows(rng, 100, low, high)
    looped, drawn = [], 0
    while len(looped) < 100:
        row = reference.uniform(low, high)
        drawn += 1
        if verify._well_conditioned(row[None])[0]:
            looped.append(row)
    assert drawn > 100 + 100 // 16 + 16
    assert np.array_equal(rows, np.array(looped))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_checks_match_the_point_by_point_reference():
    # array passes reorder sums, so only the Leibniz residual (a central difference over
    # fd_step, which amplifies rounding by ~1/h) moves by more than an ulp or two
    for seed in range(20):
        inverse, dinv, leibniz, closure = (r.value for r in run_all_checks(seed))
        ref_inverse, ref_dinv, ref_leibniz, ref_closure = verify_reference_values(seed)
        assert abs(inverse - ref_inverse) <= 1e-15
        assert dinv == pytest.approx(ref_dinv, rel=1e-12, abs=0)
        assert leibniz == pytest.approx(ref_leibniz, rel=1e-3, abs=0)
        assert abs(closure - ref_closure) <= 1e-15


def test_checks_take_arrays_of_points():
    # a batch gives what its points give one at a time
    rng = np.random.default_rng(24)
    rows = np.array([dataclasses.astuple(make_input(rng)) for _ in range(200)])
    rows = rows[verify._well_conditioned(rows)]
    points = [FrameMatrixInput(*row) for row in rows]
    assert check_inverse_matrix(FrameMatrixInput(*rows.T)) == max(map(check_inverse_matrix, points))
    singular = FrameMatrixInput(*np.array([rows[0], [0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, -0.5]]).T)
    with pytest.raises(SingularD):
        check_inverse_matrix(singular)

    directions = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    slopes = check_dinv_expansion(FrameMatrixInput(*rows.T[:, :, None, None]), directions)
    assert slopes.shape == (len(rows), 3)
    for point, row in zip(points, slopes):
        assert row == pytest.approx([check_dinv_expansion(point, d) for d in directions], rel=1e-14)

    cfg = RingConfig(J=4, K=6, n_s=16)
    coeffs = rng.uniform(-0.5, 0.5, (10, 2, 2, cfg.J + 1, cfg.K + 1))
    t, s = rng.uniform(cfg.t0, cfg.t1, 10), rng.uniform(0.0, 1.0, 10)
    residuals = check_leibniz_identity(coeffs, cfg, t, s)
    assert residuals.shape == (10,)
    for b in range(10):
        single = check_leibniz_identity(CoefficientTensor(coeffs[b]), cfg, t[b], s[b])
        assert residuals[b] == pytest.approx(single, rel=1e-3)
