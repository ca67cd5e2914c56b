"""Golden refine proposals and feasibility ceilings: the search must not drift.

``golden_proposals.json`` holds sha256 digests of the raw float64 bytes of

* ``propose_refinements`` output under both strategies, at desk (J=4, K=6,
  n_s=64) and tiny (J=2, K=2, n_s=16) shape, for seeded synthetic histories
  (a QMC-only one and one with refine trials, ties and infeasible records)
  and fixed proposal seeds;
* ``feasibility_ceiling`` of the desk, full-scale and tiny rings, the desk
  ring with a coarse rate stencil (``fd_step_factor = 2**-3``) and with a
  vanishing one (``fd_step_factor = 1e-30``): its row and its column mask.

Any change to the proposal arithmetic, the history bookkeeping, the ceiling
LP or the feasibility rule shows as a digest mismatch.  Run this file as a
script to print the digests of the current code.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vortexlab.optimizer import (
    SearchSpace,
    TrialRecord,
    feasibility_ceiling,
    propose_refinements,
)
from vortexlab.ring_model import RingConfig

DESK = RingConfig(J=4, K=6, n_s=64)
SHAPES = {"desk": DESK, "tiny": RingConfig(J=2, K=2, n_s=16, n_time=8)}
CEILING_RINGS = {
    "desk": DESK,
    "full": RingConfig(),
    "tiny": SHAPES["tiny"],
    "coarse-stencil": dataclasses.replace(DESK, fd_step_factor=2.0**-3),
    "t0-only": dataclasses.replace(DESK, fd_step_factor=1e-30),
}
# (name, history length, index of the first refine trial)
HISTORIES = (("qmc-only", 12, 12), ("mixed", 40, 25))
SEEDS = ((0, 12), (3, 25), 7)
FIXTURE = Path(__file__).parent / "golden_proposals.json"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def synthetic_history(space: SearchSpace, n: int, refine_from: int) -> list:
    """Records with few distinct scores (so ties are common) and some infeasible."""
    rng = np.random.default_rng(n)
    history = []
    for i in range(n):
        coeffs = rng.uniform(-space.c_max, space.c_max, space.dim)
        # record 0 is feasible, so perturb_best always has a center
        fraction = 0.5 if i == 0 else float(rng.choice([0.0, 0.25, 0.5]))
        history.append(
            TrialRecord(
                trial_id=i,
                phase="qmc" if i < refine_from else "refine",
                score=float(rng.choice([0.0, 0.1, 0.25, 0.5, 0.9])),
                madc=0.0,
                feasible_fraction=fraction,
                coeffs=[float(x) for x in coeffs],
                elapsed=0.0,
            )
        )
    return history


def proposal_digests() -> dict:
    out = {}
    for shape, ring in SHAPES.items():
        space = SearchSpace.from_ring_config(ring)
        ceiling = feasibility_ceiling(ring)
        for name, n, refine_from in HISTORIES:
            history = synthetic_history(space, n, refine_from)
            for strategy in ("perturb_best", "structured"):
                for seed in SEEDS:
                    for count in (1, 4):
                        got = propose_refinements(
                            history, count, seed, strategy, space=space, ceiling=ceiling
                        )
                        key = f"{shape}/{strategy}/{name}/seed={seed}/n={count}"
                        out[key] = _digest(*(t.c for t in got))
    return out


def ceiling_digests() -> dict:
    out = {}
    for name, ring in CEILING_RINGS.items():
        ceiling = feasibility_ceiling(ring)
        out[name] = {
            "n_feasible": ceiling.n_feasible,
            "row": _digest(ceiling.row),
            "feasible": _digest(ceiling.feasible),
        }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_refine_proposals_match_golden(golden):
    assert proposal_digests() == golden["proposals"]


def test_feasibility_ceilings_match_golden(golden):
    assert ceiling_digests() == golden["ceilings"]


if __name__ == "__main__":
    print(json.dumps({"proposals": proposal_digests(), "ceilings": ceiling_digests()}, indent=1))
