"""Capture the reference outputs the benchmark checks, for every input slot.

Usage, from the root of a vortexlab checkout:

    python3 perfbench/capture_reference.py

Writes perfbench/reference.json.  Run it only at the commit whose outputs
later versions must reproduce: the file records what that program computed
for each slot's inputs (the score of every trial each study ran, its best
score and best trial id, and the score ``simulate`` reports for the best
coefficients).  Slots are captured in parallel, one process per CPU.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


def _score(coeffs_path: Path, ring) -> float:
    """The score ``vortexlab simulate`` reports for a coefficient file."""
    from vortexlab.madc import madc
    from vortexlab.ring_model import CoefficientTensor
    from vortexlab.wave_dynamics import axis_field

    return madc(axis_field(CoefficientTensor.load(coeffs_path), ring), ring).score


def _study(root: Path, shape: dict, slot: int, work: Path, cache: Path) -> dict:
    import numpy as np
    from vortexlab.optimizer import run_study
    from vortexlab.ring_model import CoefficientTensor

    resume = shape is inputs.RESUME
    ring, study = inputs.study_configs(root, shape, None if resume else slot)
    log = work / "log.jsonl"
    base = inputs.stage_resume_log(root, slot, log, cache) if resume else 0
    result = run_study(study, ring, log)
    coeffs = work / "best_coeffs.json"
    CoefficientTensor.from_flat(np.array(result.best.coeffs), ring.J, ring.K).save(coeffs)
    log.unlink()
    return {
        "best_score": result.best.score,
        "best_trial_id": result.best.trial_id,
        "inspect_score": _score(coeffs, ring),
        "scores": [rec.score for rec in result.history[base:]],
    }


def capture_slot(args: tuple) -> tuple:
    root, slot = args
    sys.path.insert(0, str(root / "src"))
    cache = root / ".perfbench-work" / "cache"
    with tempfile.TemporaryDirectory(dir=root / ".perfbench-work") as tmp:
        out = {name: _study(root, shape, slot, Path(tmp), cache) for name, shape in inputs.WORKLOADS.items()}
    print(f"slot {slot}: {json.dumps(out)}", file=sys.stderr, flush=True)
    return slot, out


def main() -> int:
    root = Path.cwd()
    (root / ".perfbench-work").mkdir(exist_ok=True)
    # build the shared coefficient cache once, before workers race for it
    sys.path.insert(0, str(root / "src"))
    ring, study = inputs.study_configs(root, inputs.RESUME, None)
    inputs.qmc_coeff_cache(root, root / ".perfbench-work" / "cache", ring, study)
    reference = {name: {} for name in inputs.WORKLOADS}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for slot, out in pool.imap_unordered(capture_slot, [(root, s) for s in range(inputs.SLOTS)]):
            for workload, ref in out.items():
                reference[workload][str(slot)] = ref
    for workload in reference:
        reference[workload] = dict(sorted(reference[workload].items(), key=lambda kv: int(kv[0])))
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
