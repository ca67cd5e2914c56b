"""Two-phase coefficient search maximizing the alignment score.

Phase one explores the coefficient box with a scrambled Sobol sequence;
phase two refines.  Both refine strategies take Gaussian steps from a
center, with a step size adapted by a 1/5-success rule and proposals
clipped to bounds; they differ only in the center and a pinned row:

* ``perturb_best`` (default): centered on the best feasible trial, nothing
  pinned.  It needs a feasible trial to start from, so it needs a QMC phase.
* ``structured``: the j=0 gamma1 row is pinned to the
  :func:`feasibility_ceiling` row, which opens angular columns no random
  draw reaches; every other coefficient starts at zero and the steps are
  centered on the best refine trial.  It needs no history, so it also runs
  with ``n_qmc = 0``.

Which columns a tensor can use is read from the trial path itself
(:func:`vortexlab.wave_dynamics.aligned_initial_state`), never re-derived
here; the ceiling's LP takes its rate-stencil times from the same helper.

Every evaluation is appended to a JSON-lines log as it completes, so a
killed study resumes from the log and (in deterministic mode,
parallel_width = 1) reproduces the exact trial stream it would have run
uninterrupted.
"""

from __future__ import annotations

import json
import operator
import os
import time
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import orjson
from scipy.optimize import linprog
from scipy.stats import qmc

from .madc import madc
from .ring_model import (
    CoefficientTensor,
    RingConfig,
    _fourier_basis,
    radius_profile,
    radius_profile_deriv,
    transport_gamma,
)
from .geometry import ZeroSpeed
from .wave_dynamics import _rate_stencil, aligned_initial_state, axis_field

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
_NUMERIC_FIELDS = ("score", "madc", "feasible_fraction", "elapsed")
# json.dumps' spelling; one encoder, as passing allow_nan to json.dumps builds one per call
_LOG_ENCODER = json.JSONEncoder(allow_nan=False)

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
        """The log line; a non-finite value raises ValueError, as the reader refuses it."""
        return _LOG_ENCODER.encode({name: getattr(self, name) for name in _LOG_FIELDS})


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
    """The study's scrambled Sobol generator, fast-forwarded past ``skip`` points.

    Bit for bit ``qmc.Sobol(d, scramble=True, seed=seed)``: scipy's LMS+shift
    scramble (Matousek 1998) from the same ``default_rng(seed)`` draws, in one
    vectorized pass.  Scrambled bit q of a direction number v is the parity of
    (row q of rot180(ltm)) & v: the XOR of the columns that v's bits select.
    """
    if space.dim > _SOBOL_MAX_DIM:
        raise DimensionTooLarge(
            f"dim = {space.dim} exceeds the Sobol limit {_SOBOL_MAX_DIM}; reduce J/K"
        )
    sampler = qmc.Sobol(d=space.dim, scramble=False, seed=seed)
    rng, bits, uint = np.random.default_rng(seed), sampler.bits, sampler._sv.dtype
    powers = np.arange(bits, dtype=uint)
    shift = rng.integers(2, size=(space.dim, bits), dtype=uint) @ (2**powers)
    ltm = np.tril(rng.integers(2, size=(space.dim, bits, bits), dtype=uint))
    ltm[:, powers, powers] = 1
    columns = (ltm[:, ::-1, ::-1] << powers[:, None]).sum(axis=1, dtype=uint)
    v_bits = (sampler._sv[:, :, None] >> powers) & 1
    sampler._sv = np.bitwise_xor.reduce(v_bits * columns[:, None, :], axis=-1)
    sampler._shift, sampler._quasi = shift, shift.copy()
    sampler._first_point = (shift * sampler._scale).reshape(1, -1).astype(np.float64)
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


def _refine_state(history: list, c_max: float) -> tuple:
    """(sigma, best feasible record, best refine record) from one pass over the history.

    sigma is the 1/5-success step size of the refine trials committed so
    far; a record is None where the history has none, and ties go to the
    first maximum.  This runs before every refine proposal, so it reads
    each record once and makes no call per record.
    """
    sigma = REFINE_SIGMA_INIT_FACTOR * c_max
    best_so_far = best_feasible_score = best_refine_score = -np.inf
    best_feasible = best_refine = None
    for rec in history:
        score = rec.score
        if rec.phase == "refine":
            sigma *= _SIGMA_GROW if score > best_so_far else _SIGMA_SHRINK
            if score > best_refine_score:
                best_refine, best_refine_score = rec, score
        if score > best_so_far:
            best_so_far = score
        if score > best_feasible_score and rec.feasible_fraction > 0.0:
            best_feasible, best_feasible_score = rec, score
    return float(np.clip(sigma, 1e-6 * c_max, c_max)), best_feasible, best_refine


def _with_row(flat: np.ndarray, row, space: SearchSpace) -> np.ndarray:
    """Copy of a flattened tensor with its j=0 gamma1 row c[0, :, 0, :] set to ``row``."""
    c = np.array(flat, dtype=float).reshape(2, 2, space.J + 1, space.K + 1)
    c[0, :, 0, :] = row
    return c.reshape(-1)


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


def row_feasibility(row, ring: RingConfig) -> np.ndarray:
    """Feasibility mask of the tensor that is zero except its j=0 gamma1 row.

    This is the trial path's own mask (:func:`aligned_initial_state`); a
    zero-speed point reads as no column feasible, as in :func:`evaluate_tensor`.
    """
    space = SearchSpace.from_ring_config(ring)
    tensor = space.unflatten(_with_row(np.zeros(space.dim), row, space))
    try:
        return aligned_initial_state(tensor, ring)[1]
    except ZeroSpeed:
        return np.zeros(ring.n_s, dtype=bool)


def _contiguous_runs(indices: np.ndarray) -> list:
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    return np.split(indices, breaks)


def feasibility_ceiling(ring: RingConfig) -> FeasibilityCeiling:
    """The j=0 gamma1 row that opens the most columns the undeformed ring cannot align.

    The tensor that is zero apart from that row has gamma1 = (t - t0) f(s)
    and gamma2 = 0, so at time t its trajectory velocity is
    (Gamma'(t) + f) e_r and its ring tangent's e_r part is
    R_s + (t - t0) f_s.  Near t0 a column therefore aligns only where
    R_s (Gamma'(t) + f) > 0, which is linear in the row.  For a column set,
    one ``linprog`` maximises the margin m subject to, on every column of
    the set and at every rate-stencil time t,

        sign(R_s) (Gamma'(t) + f) >= m,      fd_step |f_s| <= |R_s| / 2,

    within |c| <= c_max.  The second constraint keeps the radial part of
    the ring tangent at least half its undeformed size across the rate
    stencil, and candidate columns are those where |R_s| exceeds
    4 eps_align |dPhi/ds(t0)|, so every column the LP accepts (m > eps_v)
    aligns with a margin above ``eps_align``.  The set always holds every
    column the undeformed ring aligns; a two-pointer sweep adds the widest
    window of consecutive candidate columns, ties going to the larger
    margin.  The columns reported are :func:`row_feasibility` of the row.

    The count is a lower bound on the true ceiling: choosing which columns
    to open is combinatorial, and only windows of consecutive columns are
    tried.  At the desk shape (J=4, K=6, n_s=64) an exhaustive
    mixed-integer check over all column subsets finds no larger set.
    """
    # f = basis @ x and f_s = basis_s @ x for the row x flattened as (sine, cosine) x k
    basis, basis_s = (b.T / (ring.K + 1.0) for b in _fourier_basis(ring.s_grid, ring.K))
    s = ring.s_grid
    r = radius_profile(s, ring.delta)
    r_s = radius_profile_deriv(s, ring.delta)
    sign = np.sign(r_s)
    gamma0 = transport_gamma(ring.t0)[0]
    velocities = [transport_gamma(t)[1] for t in _rate_stencil(ring)]
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


def propose_refinements(
    history: list,
    n: int,
    seed,
    strategy: str = "perturb_best",
    space: SearchSpace | None = None,
    ceiling: FeasibilityCeiling | None = None,
) -> list:
    """n in-bounds refinement candidates from the committed history.

    Both strategies take 1/5-rule Gaussian steps from a center, clipped to
    the box; they differ only in the center and in a pinned row.
    ``perturb_best`` steps from the best feasible trial and pins nothing; it
    raises NoFeasibleHistory when no committed trial is feasible.
    ``structured`` pins the j=0 gamma1 row to the study's
    :func:`feasibility_ceiling` (a pure function of the ring config, so
    callers solve it once) and steps from the best refine trial; before
    any, its first proposal is the unperturbed start, the ceiling row on an
    otherwise zero tensor.
    """
    if n == 0:
        return []
    if space is None:
        raise ValueError("propose_refinements requires the search space")
    if strategy not in ("perturb_best", "structured"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "structured" and ceiling is None:
        raise ValueError("the structured strategy requires the feasibility ceiling")
    sigma, best_feasible, best_refine = _refine_state(history, space.c_max)
    if strategy == "perturb_best":
        if best_feasible is None:
            raise NoFeasibleHistory("perturb_best needs at least one feasible trial")
        row, center, proposals = None, best_feasible.coeffs, []
    else:
        row = ceiling.row
        start = _with_row(np.zeros(space.dim), row, space)
        center, proposals = (start, [start]) if best_refine is None else (best_refine.coeffs, [])
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    while len(proposals) < n:
        flat = space.clip(center + sigma * rng.standard_normal(space.dim))
        proposals.append(flat if row is None else _with_row(flat, row, space))
    return [space.unflatten(flat) for flat in proposals]


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
    dropped, never parsed.  Every newline-terminated line must be a record:
    a JSON object with exactly the logged fields in order, an int trial_id
    equal to its line index, a known phase, numeric score, madc,
    feasible_fraction and elapsed, and a coeffs list of length dim.  The
    coefficients' own types are not checked, as that would cost a Python
    step per number.

    Lines are decoded with orjson, several times faster than ``json.loads``
    on a full-scale record and equal to it bit for bit on finite floats, but
    stricter: NaN, Infinity, literals that overflow a double (1e400) and
    invalid UTF-8 are refused.  Writing stays on the standard library's
    ``json`` (see :meth:`TrialRecord.to_json_line`), because orjson spells
    some floats differently (1e-05 as 0.00001) and the log bytes are the
    contract.
    """
    history = []
    torn = 0
    with open(log_path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                torn = len(line)
                break
            if line.strip() == b"":
                raise CorruptTrialLog(line_no, "blank line")
            try:
                raw = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                raise CorruptTrialLog(line_no, f"invalid JSON ({exc.msg})") from exc
            if type(raw) is not dict:
                raise CorruptTrialLog(line_no, f"not a JSON object: {type(raw).__name__}")
            if tuple(raw.keys()) != _LOG_FIELDS:
                raise CorruptTrialLog(line_no, f"unexpected fields {sorted(raw)}")
            if type(raw["trial_id"]) is not int or raw["trial_id"] != line_no - 1:
                raise CorruptTrialLog(line_no, f"trial_id {raw['trial_id']!r} is not {line_no - 1}")
            if raw["phase"] not in ("qmc", "refine"):
                raise CorruptTrialLog(line_no, f"unknown phase {raw['phase']!r}")
            for name in _NUMERIC_FIELDS:
                if type(raw[name]) not in (int, float):
                    raise CorruptTrialLog(line_no, f"{name} {raw[name]!r} is not a number")
            if type(raw["coeffs"]) is not list or len(raw["coeffs"]) != space.dim:
                raise CorruptTrialLog(line_no, f"coeffs is not a list of {space.dim} numbers")
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

    # max keeps the first of equal scores
    best = max(history, key=operator.attrgetter("score"))
    return StudyResult(best=best, history=list(history))
