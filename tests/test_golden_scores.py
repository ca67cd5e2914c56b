"""Golden scores: ``evaluate_tensor`` on fixed tensors must not drift.

``golden_scores.json`` holds the scores of 40 desk-shape (J=4, K=6, n_s=64)
and 8 full-scale (``RingConfig()``) tensors, captured at commit 592add5,
before the kinematics refactor that replaced the curvature-rate stencil by
its closed form.  Entry ``seed`` draws its tensor as
``np.random.default_rng(seed).uniform(-scale, scale, dim)`` at scales 0, 1,
5 and 30.  Each score must match within 1e-7 (the closed form moved them by
at most 3.5e-9 at desk shape and 4.0e-10 at full scale) and each feasible
fraction exactly, since the alignment gate does not depend on the curvature
rate.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from vortexlab.optimizer import evaluate_tensor
from vortexlab.ring_model import CoefficientTensor, RingConfig

SCORE_TOL = 1e-7

RINGS = {"desk": RingConfig(J=4, K=6, n_s=64), "full": RingConfig()}
GOLDEN = json.loads((Path(__file__).parent / "golden_scores.json").read_text())


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_scores_match_golden(ring_name):
    ring = RINGS[ring_name]
    dim = 4 * (ring.J + 1) * (ring.K + 1)
    entries = [e for e in GOLDEN if e["ring"] == ring_name]
    assert entries
    for entry in entries:
        flat = np.random.default_rng(entry["seed"]).uniform(-entry["scale"], entry["scale"], dim)
        score, _, fraction = evaluate_tensor(CoefficientTensor.from_flat(flat, ring.J, ring.K), ring)
        assert abs(score - entry["score"]) <= SCORE_TOL, entry
        assert fraction == entry["feasible_fraction"], entry
