"""Two-phase coefficient search maximizing the alignment score.

Phase one explores the coefficient box with a scrambled Sobol sequence;
phase two refines with one of two strategies:

* ``perturb_best`` (default): Gaussian perturbations of the best feasible
  trial, step size adapted by a 1/5-success rule, proposals clipped to
  bounds.  It needs a feasible trial to start from, so it needs a QMC phase.
* ``structured``: the j=0 gamma1 row is pinned to the
  :func:`feasibility_ceiling` row, which opens angular columns no random
  draw reaches; every other coefficient starts at zero and takes the same
  1/5-rule Gaussian steps around the best refine trial.  It needs no
  history, so it also runs with ``n_qmc = 0``.

Every evaluation is appended to a JSON-lines log as it completes, so a
killed study resumes from the log and (in deterministic mode,
parallel_width = 1) reproduces the exact trial stream it would have run
uninterrupted.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.stats import qmc

from .madc import madc
from .ring_model import (
    CoefficientTensor,
    RingConfig,
    radius_profile,
    radius_profile_deriv,
    transport_gamma,
)
from .geometry import ZeroSpeed
from .wave_dynamics import axis_field

__all__ = [
    "DimensionTooLarge",
    "NoFeasibleHistory",
    "CorruptTrialLog",
    "SearchSpace",
    "StudyConfig",
    "FeasibilityCeiling",
    "row_feasibility",
    "feasibility_ceiling",
    "TrialRecord",
    "StudyResult",
    "sample_qmc",
    "propose_refinements",
    "evaluate_tensor",
    "run_study",
]

# scipy's Sobol implementation tops out at this dimension
_SOBOL_MAX_DIM = 21201

_LOG_FIELDS = ("trial_id", "phase", "score", "madc", "feasible_fraction", "coeffs", "elapsed")

REFINE_SIGMA_INIT_FACTOR = 0.1
# One success per five trials keeps sigma constant: 2**0.5 * (2**-0.125)**4 = 1
_SIGMA_GROW = 2.0**0.5
_SIGMA_SHRINK = 2.0**-0.125


class DimensionTooLarge(ValueError):
    """Search dimension exceeds the Sobol generator's supported range."""


class NoFeasibleHistory(ValueError):
    """Refinement requested but no feasible trial exists to refine around."""


class CorruptTrialLog(ValueError):
    """Trial log cannot be resumed; carries the offending line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"trial log line {line_no}: {reason}")
        self.line_no = line_no


@dataclass(frozen=True)
class SearchSpace:
    """The flattened coefficient box [-c_max, c_max]^dim.

    Flattening is row-major over (component, sine/cosine, j, k), i.e. the
    natural reshape of the coefficient tensor.
    """

    J: int
    K: int
    c_max: float

    @property
    def dim(self) -> int:
        return 4 * (self.J + 1) * (self.K + 1)

    def unflatten(self, flat: np.ndarray) -> CoefficientTensor:
        return CoefficientTensor.from_flat(flat, self.J, self.K)

    def flatten(self, tensor: CoefficientTensor) -> np.ndarray:
        return tensor.flatten()

    def clip(self, flat: np.ndarray) -> np.ndarray:
        return np.clip(flat, -self.c_max, self.c_max)

    @classmethod
    def from_ring_config(cls, cfg: RingConfig) -> "SearchSpace":
        return cls(J=cfg.J, K=cfg.K, c_max=cfg.c_max)


@dataclass(frozen=True)
class StudyConfig:
    n_qmc: int = 10000
    n_refine: int = 50
    seed: int = 0
    strategy: str = "perturb_best"
    parallel_width: int = 1

    def __post_init__(self):
        if self.n_qmc < 0 or self.n_refine < 0 or self.n_qmc + self.n_refine < 1:
            raise ValueError("need n_qmc >= 0, n_refine >= 0 and at least one trial")
        if self.strategy not in ("perturb_best", "structured"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "perturb_best" and self.n_qmc == 0 and self.n_refine > 0:
            raise ValueError("the perturb_best strategy refines QMC trials; it needs n_qmc >= 1")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrialRecord:
    """One optimizer evaluation as logged.

    ``score`` is madc * feasible_fraction; a trial whose evaluation hit a
    zero-speed point (or aligned nowhere) carries score = madc =
    feasible_fraction = 0.  ``elapsed`` is wall seconds, written as 0.0 in
    deterministic mode (parallel_width = 1) so logs are byte-reproducible.
    """

    trial_id: int
    phase: str
    score: float
    madc: float
    feasible_fraction: float
    coeffs: list
    elapsed: float

    def to_json_line(self) -> str:
        return json.dumps({name: getattr(self, name) for name in _LOG_FIELDS})


@dataclass(frozen=True)
class StudyResult:
    best: TrialRecord
    history: list

    def summary(self, study: StudyConfig) -> dict:
        return {
            "best_trial_id": self.best.trial_id,
            "best_score": self.best.score,
            "n_trials": len(self.history),
            "seed": study.seed,
            "config": study.to_dict(),
        }


def _sobol_sampler(space: SearchSpace, seed: int, skip: int):
    """The study's scrambled Sobol generator, fast-forwarded past ``skip`` points."""
    if space.dim > _SOBOL_MAX_DIM:
        raise DimensionTooLarge(
            f"dim = {space.dim} exceeds the Sobol limit {_SOBOL_MAX_DIM}; reduce J/K"
        )
    sampler = qmc.Sobol(d=space.dim, scramble=True, seed=seed)
    if skip:
        sampler.fast_forward(skip)
    return sampler


def _draw_qmc(sampler, space: SearchSpace, n: int) -> list:
    """The sampler's next n points as coefficient tensors scaled to the search box."""
    with warnings.catch_warnings():
        # resumable prefix draws are deliberately not powers of two
        warnings.filterwarnings("ignore", message=".*balance properties of Sobol.*")
        unit = sampler.random(n)
    flats = (2.0 * unit - 1.0) * space.c_max
    return [space.unflatten(flat) for flat in flats]


def sample_qmc(space: SearchSpace, n: int, seed: int, skip: int = 0) -> list:
    """n scrambled-Sobol coefficient tensors scaled to the search box.

    The stream is deterministic in (seed, space) and point i never depends
    on n; ``skip`` fast-forwards the stream for resumption.  Drawing
    consecutive batches from one sampler (as :func:`run_study` does) gives
    the same points as calls with increasing ``skip``.
    """
    return _draw_qmc(_sobol_sampler(space, seed, skip), space, n)


def _best_record(history: list) -> TrialRecord:
    best = history[0]
    for rec in history[1:]:
        if rec.score > best.score:
            best = rec
    return best


def _adapted_sigma(history: list, c_max: float) -> float:
    """1/5-success step size from the refine trials committed so far."""
    sigma = REFINE_SIGMA_INIT_FACTOR * c_max
    best_so_far = -np.inf
    for rec in history:
        if rec.phase == "refine":
            sigma *= _SIGMA_GROW if rec.score > best_so_far else _SIGMA_SHRINK
        best_so_far = max(best_so_far, rec.score)
    return float(np.clip(sigma, 1e-6 * c_max, c_max))


def _propose_perturb_best(history, n, rng, space):
    feasible = [rec for rec in history if rec.feasible_fraction > 0.0]
    if not feasible:
        raise NoFeasibleHistory("perturb_best needs at least one feasible trial")
    best = _best_record(feasible)
    center = np.asarray(best.coeffs, dtype=float)
    sigma = _adapted_sigma(history, space.c_max)
    proposals = []
    for _ in range(n):
        step = rng.standard_normal(space.dim)
        proposals.append(space.clip(center + sigma * step))
    return proposals


@dataclass(frozen=True)
class FeasibilityCeiling:
    """A j=0 gamma1 row and the angular columns it lets the aligned start use.

    ``row`` has shape (2, K+1): the sine and cosine coefficients
    c[0, :, 0, :].  ``feasible`` is :func:`row_feasibility` of that row,
    i.e. the feasibility mask of the tensor that is zero apart from it.
    """

    row: np.ndarray
    feasible: np.ndarray

    @property
    def n_feasible(self) -> int:
        return int(np.count_nonzero(self.feasible))

    def apply(self, flat: np.ndarray, space: SearchSpace) -> np.ndarray:
        """Copy of a flattened tensor with its j=0 gamma1 row set to ``row``."""
        c = np.array(flat, dtype=float).reshape(2, 2, space.J + 1, space.K + 1)
        c[0, :, 0, :] = self.row
        return c.reshape(-1)


def _row_basis(ring: RingConfig):
    """Matrices mapping a flattened j=0 gamma1 row to d(gamma1)/dt at t0 and its s-derivative.

    At t0 every deformation vanishes and only the j=0 terms have a nonzero
    first time derivative, f(s) = (K+1)^-1 sum_k (a_k sin 2 pi k s + b_k cos 2 pi k s).
    """
    k = np.arange(ring.K + 1)
    ang = 2.0 * np.pi * np.outer(ring.s_grid, k)
    basis = np.hstack([np.sin(ang), np.cos(ang)]) / (ring.K + 1.0)
    basis_s = 2.0 * np.pi * np.hstack([k * np.cos(ang), -k * np.sin(ang)]) / (ring.K + 1.0)
    return basis, basis_s


def _stencil_offsets(ring: RingConfig) -> tuple:
    return (-ring.fd_step, 0.0, ring.fd_step)


def row_feasibility(row, ring: RingConfig) -> np.ndarray:
    """Closed-form feasibility mask of the tensor that is zero except its j=0 gamma1 row.

    Such a tensor has gamma1 = (t - t0) f(s) and gamma2 = 0, so at time t the
    trajectory velocity is (Gamma'(t) + f) e_r and the ring tangent is
    (R_s + (t - t0) f_s) e_r + (R + Gamma(t) + (t - t0) f) de_r/ds.  A column
    aligns at t where the cosine between them exceeds ``eps_align``; it is
    feasible where it aligns at t0 and at both rate-stencil points t0 +- fd_step,
    the same gate :func:`vortexlab.wave_dynamics.aligned_initial_state` applies.
    """
    basis, basis_s = _row_basis(ring)
    x = np.asarray(row, dtype=float).reshape(-1)
    f, f_s = basis @ x, basis_s @ x
    s = ring.s_grid
    r = radius_profile(s, ring.delta, ring.angle_convention)
    r_s = radius_profile_deriv(s, ring.delta, ring.angle_convention)
    feasible = np.ones(ring.n_s, dtype=bool)
    for dt in _stencil_offsets(ring):
        g, g_t, _, _ = transport_gamma(ring.t0 + dt)
        radial = r_s + dt * f_s
        tangential = 2.0 * np.pi * (r + g + dt * f)
        cosine = radial * np.sign(g_t + f) / np.hypot(radial, tangential)
        feasible &= cosine > ring.eps_align
    return feasible


def _contiguous_runs(indices: np.ndarray) -> list:
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    return np.split(indices, breaks)


def feasibility_ceiling(ring: RingConfig) -> FeasibilityCeiling:
    """The j=0 gamma1 row that opens the most columns the undeformed ring cannot align.

    Column s aligns at t0 only where R_s(s) (Gamma'(t0) + f(s)) > 0 (see
    :func:`row_feasibility`), which is linear in the row.  For a column set,
    one ``linprog`` maximises the margin m subject to, on every column of
    the set and at t0 and t0 +- fd_step,

        sign(R_s) (Gamma'(t) + f) >= m,      fd_step |f_s| <= |R_s| / 2,

    within |c| <= c_max.  The second constraint keeps the radial part of
    the ring tangent at least half its undeformed size across the rate
    stencil, and candidate columns are those where |R_s| exceeds
    4 eps_align |dPhi/ds(t0)|, so every column the LP accepts (m > eps_v)
    aligns with a margin above ``eps_align``.  The set always holds every
    column the undeformed ring aligns; a two-pointer sweep adds the widest
    window of consecutive candidate columns, ties going to the larger
    margin.

    The count is a lower bound on the true ceiling: choosing which columns
    to open is combinatorial, and only windows of consecutive columns are
    tried.  At the desk shape (J=4, K=6, n_s=64) an exhaustive
    mixed-integer check over all column subsets finds no larger set.
    """
    basis, basis_s = _row_basis(ring)
    s = ring.s_grid
    r = radius_profile(s, ring.delta, ring.angle_convention)
    r_s = radius_profile_deriv(s, ring.delta, ring.angle_convention)
    sign = np.sign(r_s)
    gamma0 = transport_gamma(ring.t0)[0]
    velocities = [transport_gamma(ring.t0 + dt)[1] for dt in _stencil_offsets(ring)]
    n_vars = basis.shape[1]
    # the k=0 sine coefficient multiplies sin(0) and stays at zero
    bounds = [(0.0, 0.0)] + [(-ring.c_max, ring.c_max)] * (n_vars - 1) + [(None, None)]
    objective = np.zeros(n_vars + 1)
    objective[-1] = -1.0

    def solve(cols: np.ndarray):
        """(margin, row) for the column set, or None if it cannot be opened."""
        ones, zeros = np.ones((len(cols), 1)), np.zeros((len(cols), 1))
        blocks, rhs = [], []
        for g_t in velocities:
            blocks.append(np.hstack([-sign[cols, None] * basis[cols], ones]))
            rhs.append(sign[cols] * g_t)
        for side in (1.0, -1.0):
            blocks.append(np.hstack([side * ring.fd_step * basis_s[cols], zeros]))
            rhs.append(0.5 * np.abs(r_s[cols]))
        res = linprog(
            objective,
            A_ub=np.vstack(blocks),
            b_ub=np.concatenate(rhs),
            bounds=bounds,
            method="highs",
        )
        if res.status != 0 or -res.fun <= ring.eps_v:
            return None
        row = np.clip(res.x[:-1], -ring.c_max, ring.c_max).reshape(2, ring.K + 1)
        return -res.fun, row

    baseline = row_feasibility(np.zeros((2, ring.K + 1)), ring)
    base_cols = np.flatnonzero(baseline)
    # with no window to open, the undeformed row is the ceiling
    best_key, best_row = (0, -np.inf), np.zeros((2, ring.K + 1))
    tangent_0 = np.hypot(r_s, 2.0 * np.pi * (r + gamma0))
    candidates = ~baseline & (np.abs(r_s) > 4.0 * ring.eps_align * tangent_0)
    for run in _contiguous_runs(np.flatnonzero(candidates)):
        lo = 0
        for hi in range(len(run)):
            found = None
            while lo <= hi and found is None:
                found = solve(np.concatenate([base_cols, run[lo : hi + 1]]))
                if found is None:
                    lo += 1
            if found is not None and (hi - lo + 1, found[0]) > best_key:
                best_key, best_row = (hi - lo + 1, found[0]), found[1]
    return FeasibilityCeiling(row=best_row, feasible=row_feasibility(best_row, ring))


def _propose_structured(history, n, rng, space, ceiling):
    refined = [rec for rec in history if rec.phase == "refine"]
    start = ceiling.apply(np.zeros(space.dim), space)
    center = np.asarray(_best_record(refined).coeffs, dtype=float) if refined else start
    sigma = _adapted_sigma(history, space.c_max)
    # the first refine trial is the unperturbed start
    proposals = [] if refined else [start]
    while len(proposals) < n:
        step = rng.standard_normal(space.dim)
        proposals.append(ceiling.apply(space.clip(center + sigma * step), space))
    return proposals


def propose_refinements(
    history: list,
    n: int,
    seed,
    strategy: str = "perturb_best",
    space: SearchSpace | None = None,
    ceiling: FeasibilityCeiling | None = None,
) -> list:
    """n in-bounds refinement candidates from the committed history.

    The ``structured`` strategy needs the study's :func:`feasibility_ceiling`;
    it is a pure function of the ring config, so callers solve it once.
    ``perturb_best`` raises NoFeasibleHistory when no committed trial is
    feasible.
    """
    if n == 0:
        return []
    if space is None:
        raise ValueError("propose_refinements requires the search space")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if strategy == "perturb_best":
        flats = _propose_perturb_best(history, n, rng, space)
    elif strategy == "structured":
        if ceiling is None:
            raise ValueError("the structured strategy requires the feasibility ceiling")
        flats = _propose_structured(history, n, rng, space, ceiling)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return [space.unflatten(flat) for flat in flats]


def evaluate_tensor(tensor: CoefficientTensor, ring: RingConfig) -> tuple:
    """(score, madc, feasible_fraction) for one coefficient tensor.

    A zero-speed trajectory anywhere on the evaluation grid marks the trial
    infeasible rather than raising.
    """
    try:
        report = madc(axis_field(tensor, ring), ring)
    except ZeroSpeed:
        return 0.0, 0.0, 0.0
    return report.score, report.madc, report.feasible_fraction


def _parse_log(log_path: Path, space: SearchSpace) -> tuple:
    """(records, bytes of an unterminated final line) of a trial log.

    A final line without its newline is what a kill mid-write leaves; it is
    dropped, never parsed.  Every newline-terminated line must be a valid
    record.
    """
    history = []
    torn = 0
    with open(log_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                torn = len(line.encode())
                break
            if line.strip() == "":
                raise CorruptTrialLog(line_no, "blank line")
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptTrialLog(line_no, f"invalid JSON ({exc.msg})") from exc
            if tuple(raw.keys()) != _LOG_FIELDS:
                raise CorruptTrialLog(line_no, f"unexpected fields {sorted(raw)}")
            if raw["trial_id"] != line_no - 1:
                raise CorruptTrialLog(line_no, f"trial_id {raw['trial_id']} out of order")
            if raw["phase"] not in ("qmc", "refine"):
                raise CorruptTrialLog(line_no, f"unknown phase {raw['phase']!r}")
            if len(raw["coeffs"]) != space.dim:
                raise CorruptTrialLog(
                    line_no, f"coeffs length {len(raw['coeffs'])} != dim {space.dim}"
                )
            history.append(TrialRecord(**raw))
    return history, torn


def run_study(
    study: StudyConfig,
    ring: RingConfig,
    log_path,
    limit: int | None = None,
) -> StudyResult:
    """Run (or resume) the two-phase study, appending to the JSONL log.

    ``limit`` stops the study after that many total committed trials (the
    log stays resumable); the default runs n_qmc + n_refine.  Records are
    committed strictly in trial order, one flushed line per trial.  On
    resume an unterminated final line (a record cut by a kill) is truncated
    away and its trial runs again.
    """
    log_path = Path(log_path)
    space = SearchSpace.from_ring_config(ring)
    n_total = study.n_qmc + study.n_refine
    if limit is not None:
        n_total = min(n_total, limit)

    history, torn = _parse_log(log_path, space) if log_path.exists() else ([], 0)
    if len(history) > study.n_qmc + study.n_refine:
        raise CorruptTrialLog(len(history), "log longer than the study budget")
    if torn:
        os.truncate(log_path, log_path.stat().st_size - torn)

    ceiling = None
    sobol = None

    with open(log_path, "a") as log:

        def commit(trial_id, phase, tensor):
            start = time.perf_counter()
            score, value, fraction = evaluate_tensor(tensor, ring)
            rec = TrialRecord(
                trial_id=trial_id,
                phase=phase,
                score=score,
                madc=value,
                feasible_fraction=fraction,
                coeffs=[float(x) for x in tensor.flatten()],
                elapsed=0.0 if study.parallel_width == 1 else time.perf_counter() - start,
            )
            log.write(rec.to_json_line() + "\n")
            log.flush()
            history.append(rec)

        # batches of parallel_width trials, evaluated and committed in order
        while len(history) < n_total:
            start_id = len(history)
            stop = min(start_id + study.parallel_width, n_total)
            if start_id < study.n_qmc:
                stop = min(stop, study.n_qmc)
                if sobol is None:
                    sobol = _sobol_sampler(space, study.seed, skip=start_id)
                tensors = _draw_qmc(sobol, space, stop - start_id)
                phase = "qmc"
            else:
                if study.strategy == "structured" and ceiling is None:
                    ceiling = feasibility_ceiling(ring)
                tensors = propose_refinements(
                    history,
                    stop - start_id,
                    seed=(study.seed, start_id),
                    strategy=study.strategy,
                    space=space,
                    ceiling=ceiling,
                )
                phase = "refine"
            for trial_id, tensor in zip(range(start_id, stop), tensors):
                commit(trial_id, phase, tensor)

    return StudyResult(best=_best_record(history), history=list(history))
