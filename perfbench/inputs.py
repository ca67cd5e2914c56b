"""Seeded inputs of the vortexlab benchmark, built outside every timed region.

A benchmark seed maps to one of ``SLOTS`` input slots (``seed % SLOTS``), and
every input is a pure function of its slot.  The reference outputs in
``reference.json`` are captured per slot from the program as it stood when the
benchmark was defined, so every seed has a reference to check against.

The program under test is imported from ``<checkout>/src``; callers put that
directory on ``sys.path`` before calling anything here that needs it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

SLOTS = 32

# Study shapes.  A run repeats one short study in a closed loop for its
# measuring time (at least ``min_repeats`` times) and reports medians: the
# host's speed drifts by up to 2x over seconds, and many short repeats spread
# over the run are steadier than a few long ones.
DESK = {"config": "configs/desk.cfg", "n_qmc": 8, "n_refine": 2, "parallel_width": 1, "min_repeats": 5}
# The resumed log holds the whole default QMC phase of the full-scale study.
RESUME = {"config": "configs/full.cfg", "n_qmc": 10000, "n_refine": 10, "parallel_width": 1, "min_repeats": 3}
WORKLOADS = {"desk-study": DESK, "resume-refine": RESUME}

# madc range of real full-scale Sobol trials (5th-95th percentile of a probe
# of the program: 0.899-0.947, extremes 0.893-0.954); every full-scale QMC
# trial probed was feasible on 62 of the 128 columns.
_RESUME_MADC_RANGE = (0.893, 0.954)
_RESUME_FEASIBLE = 62 / 128


def slot_of(seed: int) -> int:
    return seed % SLOTS


def study_configs(root: Path, shape: dict, study_seed: int | None):
    """(RingConfig, StudyConfig) for a study shape, via the program's loader."""
    from vortexlab.cli import load_configs

    ring, study = load_configs(root / shape["config"])
    overrides = {k: shape[k] for k in ("n_qmc", "n_refine", "parallel_width")}
    if study_seed is not None:
        overrides["seed"] = study_seed
    return ring, dataclasses.replace(study, **overrides)


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for name in ("optimizer.py", "ring_model.py"):
        digest.update((root / "src" / "vortexlab" / name).read_bytes())
    return digest.hexdigest()[:16]


def qmc_coeff_cache(root: Path, cache_dir: Path, ring, study) -> Path:
    """One JSON coefficient array per line for the study's whole QMC phase.

    The Sobol points come from the program's own ``sample_qmc``.  Formatting
    ~9M floats takes ~12 s, so the lines are cached in the checkout, keyed by
    the program source that produces them, and built at most once.
    """
    from vortexlab.optimizer import SearchSpace, sample_qmc

    space = SearchSpace.from_ring_config(ring)
    key = f"qmc-dim{space.dim}-seed{study.seed}-n{study.n_qmc}-{_source_digest(root)}"
    path = cache_dir / f"{key}.txt"
    if path.exists():
        return path
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache_dir / f"{key}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        for tensor in sample_qmc(space, study.n_qmc, study.seed):
            fh.write(json.dumps([float(x) for x in tensor.flatten()]) + "\n")
    os.replace(tmp, path)
    return path


def stage_resume_log(root: Path, slot: int, log_path: Path, cache_dir: Path) -> int:
    """Write the generated QMC-phase log for ``slot``; returns its record count.

    Coefficients are the program's own Sobol points for the study seed, so the
    log is what an interrupted full-scale study would hold.  Scores are drawn
    from the slot in the range a real full-scale QMC phase logs.
    """
    import numpy as np
    from vortexlab.optimizer import TrialRecord

    ring, study = study_configs(root, RESUME, None)
    rng = np.random.default_rng([slot, 0x7265])
    madcs = rng.uniform(*_RESUME_MADC_RANGE, size=study.n_qmc)
    cache = qmc_coeff_cache(root, cache_dir, ring, study)
    n = 0
    with open(cache) as coeffs, open(log_path, "w") as log:
        for trial_id, (coeff_text, value) in enumerate(zip(coeffs, madcs)):
            rec = TrialRecord(
                trial_id=trial_id,
                phase="qmc",
                score=float(value) * _RESUME_FEASIBLE,
                madc=float(value),
                feasible_fraction=_RESUME_FEASIBLE,
                coeffs=[],
                elapsed=0.0,
            )
            # the program's own serialization, with the cached coefficient text
            line = rec.to_json_line().replace('"coeffs": []', '"coeffs": ' + coeff_text.strip(), 1)
            log.write(line + "\n")
            n += 1
    if n != study.n_qmc:
        raise RuntimeError(f"coefficient cache {cache} holds {n} lines, expected {study.n_qmc}")
    return n

