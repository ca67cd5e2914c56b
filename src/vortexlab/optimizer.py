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

The Sobol points are ``qmc.Sobol(d, scramble=True, seed=seed)``'s bit for
bit, computed in numpy from scipy's direction-number data file, which is
read without importing scipy.  The module imports no scipy: only the
ceiling's LP imports ``linprog``, on its first solve, so every command but
a ``structured`` study starts without scipy.

QMC trials are drawn and evaluated in stacks of ``QMC_STACK``: one
read-only (B, dim) coefficient block per stack goes through one stacked
kernel (:func:`evaluate_stack`), and each trial's record holds its row of
that block.  Refine trials run one at a time (:func:`evaluate_tensor`, a
stack of one); both give the same score for a tensor, bit for bit.  Every
trial is appended to a JSON-lines log in trial order, so a killed study
resumes from the log and reproduces the exact trial stream it would have
run uninterrupted: a study's log is byte-identical across runs and across
kill/resume.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import operator
import os
from dataclasses import InitVar, asdict, dataclass
from pathlib import Path

import numpy as np
import orjson

from . import floattext, logscan
from .logscan import CorruptTrialLog  # re-exported: the reader raises it, callers catch it here
# madc and axis_field stay module attributes, though no trial calls them: perfbench/tracer.py patches both
from .madc import madc, stack_madc  # noqa: F401
from .ring_model import (
    CoefficientTensor,
    RingConfig,
    _fourier_basis,
    radius_profile,
    radius_profile_deriv,
    transport_gamma,
)
from .wave_dynamics import _axis_fields, _rate_stencil, aligned_initial_state, axis_field  # noqa: F401

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
    "evaluate_stack",
    "run_study",
]

# scipy's Sobol stream: 30-bit points, direction numbers for at most 21201 dimensions
_SOBOL_BITS = 30
_SOBOL_MAX_DIM = 21201
_SOBOL_MAX_POINTS = 2**_SOBOL_BITS
_SOBOL_POW2 = 2 ** np.arange(_SOBOL_BITS, dtype=np.uint32)
# row p's weight 2**(29 - p) on the strictly-lower triangle p > k of an LMS matrix
_LMS_WEIGHTS = np.tril(np.broadcast_to(_SOBOL_POW2[::-1, None], (_SOBOL_BITS, _SOBOL_BITS)), -1)

# QMC trials evaluated per kernel call.  Per-trial cost at stack sizes
# 1/2/4/8/16/32/64 on a 2-vCPU Xeon, each size in a fresh process (medians of
# five passes over 64 Sobol tensors, two rounds): 0.31/0.21/0.18-0.19/0.19/
# 0.16-0.17/0.19-0.21/0.22 ms at the desk shape and 0.55-0.57/0.45-0.47/
# 0.41-0.43/0.37/0.40-0.43/0.47-0.49/0.50-0.51 ms at full scale, with at most
# 0.05 minor page faults per call at any size.  16 gains ~10% at the desk
# shape and loses ~10% at full scale, where larger stacks' arrays no longer fit
# in the cache.
QMC_STACK = 8

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
    # Retired.  Only perfbench/inputs.py still passes it (always 1, through
    # dataclasses.replace), and it goes with that override.  As an InitVar it
    # is no field: config files, to_dict and dataclasses.fields never see it.
    parallel_width: InitVar[int] = 1

    def __post_init__(self, parallel_width: int):
        if self.n_qmc < 0 or self.n_refine < 0 or self.n_qmc + self.n_refine < 1:
            raise ValueError("need n_qmc >= 0, n_refine >= 0 and at least one trial")
        if self.n_qmc > _SOBOL_MAX_POINTS:
            raise ValueError(f"n_qmc = {self.n_qmc} exceeds the Sobol stream's 2**30 points")
        if self.strategy not in ("perturb_best", "structured"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "perturb_best" and self.n_qmc == 0 and self.n_refine > 0:
            raise ValueError("the perturb_best strategy refines QMC trials; it needs n_qmc >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if parallel_width != 1:
            raise ValueError("parallel_width is retired; only 1 is accepted")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """One optimizer evaluation as logged; records compare (and hash) by identity.

    ``score`` is madc * feasible_fraction; a trial with no feasible column
    (it aligns nowhere, or a point of its grid is stationary) carries
    score = madc = feasible_fraction = 0.  ``coeffs`` is a read-only
    float64 array of length dim, the flattened tensor (a study's record
    holds its row of the stack's block): 8 bytes a coefficient, against
    ~32 in a list of Python floats.  ``elapsed`` is written as 0.0, so logs are
    byte-reproducible; the reader accepts any number there, as older logs
    carry wall seconds.
    """

    trial_id: int
    phase: str
    score: float
    madc: float
    feasible_fraction: float
    coeffs: np.ndarray
    elapsed: float

    def to_json_line(self) -> str:
        """The log line; a non-finite value raises ValueError, as the reader refuses it.

        The line is the one ``json`` writes for the fields, with an array's
        coefficients as the list of the same floats.  Where
        :func:`_plain_floats` holds, orjson writes the coefficients (json's
        text but for ``,`` in place of ``, ``) into json's line for the other
        fields; other coefficients go through ``tolist`` and json, the
        reference spelling.
        """
        fields = {name: getattr(self, name) for name in logscan.LOG_FIELDS}
        coeffs = self.coeffs
        if not _plain_floats(coeffs):
            if isinstance(coeffs, np.ndarray):
                fields["coeffs"] = coeffs.tolist()
            return _LOG_ENCODER.encode(fields)
        # the slot is unique: a string value escapes its quotes, so '"coeffs": ' is only the key
        fields["coeffs"] = []
        text = orjson.dumps(coeffs, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ").decode()
        return _LOG_ENCODER.encode(fields).replace('"coeffs": []', '"coeffs": ' + text, 1)


def _plain_floats(coeffs) -> bool:
    """Whether ``coeffs`` is a C-contiguous 1-d float64 array that orjson spells as json does."""
    return (
        type(coeffs) is np.ndarray
        and coeffs.dtype == np.float64
        and coeffs.ndim == 1
        and coeffs.flags.c_contiguous
        and coeffs.size > 0
        and floattext.all_plain(coeffs)
    )


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


@functools.lru_cache(maxsize=16)
def _direction_numbers(dim: int) -> np.ndarray:
    """The unscrambled direction numbers, bit for bit scipy's: read-only uint32 (dim, 30).

    The Joe-Kuo table (poly, vinit) is scipy's data file, found and read
    without importing scipy.  Row d runs the recurrence of its primitive
    polynomial poly[d] of degree m from the m initial values vinit[d],

        v_j = v_{j-m} ^ XOR_{l=1..m} a_l (v_{j-l} << l),   a_l = bit m-l of poly[d],

    for all rows at once; row 0 is all ones.  Column j is then shifted to
    bit 29 - j, so direction number j has no bit below 29 - j.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    with np.load(os.path.join(root, "stats", "_sobol_direction_numbers.npz")) as table:
        poly, vinit = table["poly"][:dim], table["vinit"][:dim]
    degree = np.frexp(poly)[1] - 1
    width = vinit.shape[1]
    lag = np.arange(1, width + 1)
    # a_l << l, zero for l > m
    bit = (poly[:, None] >> np.maximum(degree[:, None] - lag, 0)) & 1
    taps = (lag <= degree[:, None]) * bit << lag
    v = np.zeros((dim, _SOBOL_BITS), dtype=np.int64)
    v[:, :width] = vinit
    rows = np.arange(dim)
    for j in range(1, _SOBOL_BITS):
        w = min(j, width)
        back = np.bitwise_xor.reduce(taps[:, :w] * v[:, j - 1 :: -1][:, :w], axis=1)
        v[:, j] = np.where(j >= degree, v[rows, np.maximum(j - degree, 0)] ^ back, v[:, j])
    v[0] = 1
    v = (v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32)
    v.flags.writeable = False
    return v


def _sobol_stream(space: SearchSpace, seed: int, n_points: int) -> tuple:
    """(shift, directions): the study's scrambled Sobol stream up to ``n_points`` points.

    Bit for bit the points of ``qmc.Sobol(d, scramble=True, seed=seed)``:
    scipy's LMS+shift scramble (Matousek 1998) from the same
    ``default_rng(seed)`` draws in the same order, the shift and then the
    (d, 30, 30) matrices.  Scrambling XORs the matrix columns that a
    direction number's bits select; column 29 - k is 2**(29 - k) (the unit
    diagonal) plus the strictly-lower entries of matrix column k, each
    weighted 2**(29 - p) by its row p.  Points below ``n_points`` reach only
    the first bit_length(n_points - 1) direction numbers, and those have no
    bit below 30 - bit_length, so only they and their columns are built.
    ``directions`` is uint32 (bit_length, d), one row per direction number.

    scipy draws each bit as ``rng.integers(2, dtype=np.uint32)``, which
    is bit 31 of one 32-bit word: Lemire's method (Lemire 2019) at range 2 multiplies
    the word by 2 and keeps the high half, ``word >> 31``, and never
    rejects, as its threshold (2**32 - 2) mod 2 is 0.  PCG64 hands out a
    64-bit word's low half first, then its high half.  So the d * 930 bits
    are bit 31 of the halves, low half first, of d * 465 raw words of the
    same generator, and the stream takes them from ``random_raw`` directly.
    """
    if space.dim > _SOBOL_MAX_DIM:
        raise DimensionTooLarge(
            f"dim = {space.dim} exceeds the Sobol limit {_SOBOL_MAX_DIM}; reduce J/K"
        )
    if n_points > _SOBOL_MAX_POINTS:
        raise ValueError(f"{n_points} Sobol points exceed the stream's 2**30")
    # the shift bits, then the (d, 30, 30) LMS bits: two bits to a raw word
    n_shift = space.dim * _SOBOL_BITS
    words = np.random.default_rng(seed).bit_generator.random_raw(n_shift * (1 + _SOBOL_BITS) // 2)
    # the halves in the generator's order on any byte order: little-endian words, low half first
    halves = words.astype("<u8", copy=False).view("<u4")
    shift = (halves[:n_shift] >> 31).reshape(space.dim, _SOBOL_BITS) @ _SOBOL_POW2
    n_dir = max(n_points - 1, 0).bit_length()
    # only columns 29, 28, ..., 30 - n_dir of each matrix, and the bits of v that select them
    lms = halves[n_shift:].reshape(space.dim, _SOBOL_BITS, _SOBOL_BITS)[:, :, :n_dir] >> 31
    top = _SOBOL_POW2[::-1][:n_dir]
    columns = np.einsum("dpk,pk->dk", lms, _LMS_WEIGHTS[:, :n_dir]) + top
    selected = (_direction_numbers(space.dim)[:, :n_dir, None] & top) != 0
    directions = np.bitwise_xor.reduce(selected * columns[:, None, :], axis=2)
    return shift, np.ascontiguousarray(directions.T)


def _draw_qmc(stream: tuple, space: SearchSpace, start: int, n: int) -> np.ndarray:
    """Points start .. start + n - 1 of the stream in the search box: a read-only float64 (n, dim) block.

    Point i is shift ^ (the directions that the bits of gray(i) = i ^ (i >> 1)
    select) times 2**-30.  Each direction is XORed in place where its bit is
    set, so the uint32 (n, d) array is the only temporary as large as the
    float64 points.
    """
    shift, directions = stream
    index = np.arange(start, start + n)
    gray = index ^ (index >> 1)
    bits = np.repeat(shift[None, :], n, axis=0)
    for j, direction in enumerate(directions):
        np.bitwise_xor(bits, direction, out=bits, where=((gray >> j) & 1).astype(bool)[:, None])
    # (2 * unit - 1) * c_max in place, unit = bits * 2**-30; the doubling is exact
    flats = np.multiply(bits, 2.0 ** (1 - _SOBOL_BITS))
    del bits
    flats -= 1.0
    flats *= space.c_max
    flats.flags.writeable = False
    return flats


def sample_qmc(space: SearchSpace, n: int, seed: int, skip: int = 0) -> list:
    """n scrambled-Sobol coefficient tensors scaled to the search box.

    The stream is deterministic in (seed, space) and point i never depends
    on n; ``skip`` starts the draw at point ``skip`` for resumption, so
    consecutive draws from one stream (as :func:`run_study` makes) give the
    same points as calls with increasing ``skip``.  A negative ``n`` or
    ``skip`` raises ValueError, a dimension above 21201 DimensionTooLarge,
    and ``skip + n`` beyond the stream's 2**30 points ValueError, all
    before any point is drawn.  The points are drawn ``QMC_STACK`` at a
    time, so only one stack's float64 block is alive next to the tensors.
    """
    for name, value in (("n", n), ("skip", skip)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    stream = _sobol_stream(space, seed, skip + n)
    return [
        CoefficientTensor.from_flat(flat, space.J, space.K)
        for start in range(skip, skip + n, QMC_STACK)
        for flat in _draw_qmc(stream, space, start, min(QMC_STACK, skip + n - start))
    ]


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


def _with_row(flat: np.ndarray, row, ring: RingConfig) -> CoefficientTensor:
    """The tensor of a flattened coefficient vector with its j=0 gamma1 row c[0, :, 0, :] set to ``row``."""
    c = np.array(flat, dtype=float).reshape(2, 2, ring.J + 1, ring.K + 1)
    c[0, :, 0, :] = row
    return CoefficientTensor(c)


@dataclass(frozen=True)
class FeasibilityCeiling:
    """A j=0 gamma1 row and the angular columns it lets the aligned start use.

    ``row`` has shape (2, K+1): the sine and cosine coefficients
    c[0, :, 0, :].  ``feasible`` is :func:`row_feasibility` of that row,
    i.e. the feasibility mask of the tensor that is zero apart from it.
    Both arrays are read-only, as :func:`feasibility_ceiling` shares them
    between its callers.
    """

    row: np.ndarray
    feasible: np.ndarray

    @property
    def n_feasible(self) -> int:
        return int(np.count_nonzero(self.feasible))


def row_feasibility(row, ring: RingConfig) -> np.ndarray:
    """Feasibility mask of the tensor that is zero except its j=0 gamma1 row.

    This is the trial path's own mask (:func:`aligned_initial_state`), so a
    zero-speed point reads as no column feasible.
    """
    zeros = np.zeros(SearchSpace.from_ring_config(ring).dim)
    return aligned_initial_state(_with_row(zeros, row, ring), ring)[1]


def _contiguous_runs(indices: np.ndarray) -> list:
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    return np.split(indices, breaks)


@functools.lru_cache(maxsize=16)
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

    The result is a pure function of the ring config and is cached per
    config, as the trial grid is, so its LPs are solved once per config in a
    process however many structured proposals or resumes follow.  scipy's
    ``linprog`` is imported here, on the first solve, so nothing else loads scipy.
    """
    from scipy.optimize import linprog

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
    feasible = row_feasibility(best_row, ring)
    best_row.flags.writeable = feasible.flags.writeable = False
    return FeasibilityCeiling(row=best_row, feasible=feasible)


def propose_refinements(history: list, study: StudyConfig, ring: RingConfig) -> CoefficientTensor:
    """The study's next refine trial, proposed from the committed history.

    Both strategies take a 1/5-rule Gaussian step from a center, seeded by
    (``study.seed``, ``len(history)``) and clipped to the ring's search box;
    they differ only in the center and in a pinned row.  ``perturb_best``
    steps from the best feasible trial and pins nothing; it raises
    NoFeasibleHistory when no committed trial is feasible.  ``structured``
    pins the j=0 gamma1 row to :func:`feasibility_ceiling` and steps from
    the best refine trial; before any, its trial is the unperturbed start,
    the ceiling row on an otherwise zero tensor.
    """
    space = SearchSpace.from_ring_config(ring)
    sigma, best_feasible, best_refine = _refine_state(history, space.c_max)
    row = None
    if study.strategy == "perturb_best":
        if best_feasible is None:
            raise NoFeasibleHistory("perturb_best needs at least one feasible trial")
        center = best_feasible.coeffs
    else:
        row = feasibility_ceiling(ring).row
        if best_refine is None:
            return _with_row(np.zeros(space.dim), row, ring)
        center = best_refine.coeffs
    rng = np.random.default_rng(np.random.SeedSequence((study.seed, len(history))))
    flat = space.clip(np.asarray(center, dtype=float) + sigma * rng.standard_normal(space.dim))
    return CoefficientTensor.from_flat(flat, ring.J, ring.K) if row is None else _with_row(flat, row, ring)


def evaluate_tensor(tensor: CoefficientTensor, ring: RingConfig) -> tuple:
    """(score, madc, feasible_fraction) for one coefficient tensor: a stack of one.

    A zero-speed trajectory anywhere on the evaluation grid leaves no column
    feasible, so the trial reads (0.0, 0.0, 0.0).
    """
    return evaluate_stack(tensor.c.reshape(1, -1), ring)[0]


def evaluate_stack(coeffs: np.ndarray, ring: RingConfig) -> list:
    """(score, madc, feasible_fraction) of each row of a (B, dim) coefficient block, in one evaluation.

    Each row is a flattened tensor (:meth:`CoefficientTensor.flatten`'s
    order, the log's), and the kernel reads the block through a reshaped
    view.  The scores equal :func:`madc`'s report on each tensor's
    :func:`axis_field` bit for bit: the stacked kernel sums each trial's terms
    in the same order whatever the stack, and the report's value is
    :func:`stack_madc`'s.  A stationary point closes the columns of its own
    trial only, which reads (0.0, 0.0, 0.0).
    """
    field = _axis_fields(coeffs.reshape(len(coeffs), 2, 2, ring.J + 1, ring.K + 1), ring)
    return [(value * share, value, share) for value, share, _ in stack_madc(field.corr, field.feasible)]


def _records(heads: list, coeffs: list) -> list:
    """The TrialRecords of a scan's heads, each coeffs a read-only float64 view of its bytes."""
    return [
        TrialRecord(trial_id, phase, score, value, fraction, np.frombuffer(packed, dtype=np.float64), elapsed)
        for (trial_id, phase, score, value, fraction, elapsed), packed in zip(heads, coeffs)
    ]


def _parse_log(log_path: Path, space: SearchSpace) -> tuple:
    """(records, bytes of an unterminated final line) of a trial log, read by :func:`logscan.read`.

    A line that breaks the log's rules raises CorruptTrialLog naming it.
    Each record's coeffs is a read-only float64 view of a ``bytes`` of its
    own, 8 bytes a coefficient; a ``true`` or ``false`` among them reads as
    1.0 or 0.0.  The records of each range are built as it comes, so those
    of a split log's head are built while the child scans its tail.
    """
    history = []
    with contextlib.closing(logscan.read(log_path, space.dim)) as ranges:
        for heads, coeffs, torn in ranges:
            history += _records(heads, coeffs)
    return history, torn


def run_study(
    study: StudyConfig,
    ring: RingConfig,
    log_path,
    limit: int | None = None,
) -> StudyResult:
    """Run (or resume) the two-phase study, appending to the JSONL log.

    ``limit`` stops the study after that many total committed trials (the
    log stays resumable); the default runs n_qmc + n_refine.  A limit below
    1 raises ValueError before the log is opened.  QMC trials
    run in stacks of ``QMC_STACK``, refine trials one at a time, each
    proposed from the history committed before it; a record's coeffs is its
    row of the stack's read-only block (for a refine trial, a view of the
    proposal's array), so no coefficient is copied.  Records are committed
    strictly in trial order, one flushed line per trial with ``elapsed``
    0.0.  On resume an unterminated final line (a record cut by a kill) is
    truncated away and its trial runs again.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
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

    # built before the log is opened, so a dimension the stream refuses leaves no empty log
    n_points = min(n_total, study.n_qmc)
    sobol = _sobol_stream(space, study.seed, n_points) if len(history) < n_points else None

    with open(log_path, "a") as log:
        # QMC stacks of QMC_STACK trials, then one refine trial at a time,
        # each committed in trial order
        while len(history) < n_total:
            start_id = len(history)
            if start_id < study.n_qmc:
                phase = "qmc"
                stop = min(start_id + QMC_STACK, study.n_qmc, n_total)
                block = _draw_qmc(sobol, space, start_id, stop - start_id)
                results = evaluate_stack(block, ring)
            else:
                phase = "refine"
                tensor = propose_refinements(history, study, ring)
                block = tensor.c.reshape(1, -1)
                results = [evaluate_tensor(tensor, ring)]
            for trial_id, (coeffs, result) in enumerate(zip(block, results), start=start_id):
                # result is (score, madc, feasible_fraction), the record's field order
                rec = TrialRecord(trial_id, phase, *result, coeffs, 0.0)
                log.write(rec.to_json_line() + "\n")
                log.flush()
                history.append(rec)

    # max keeps the first of equal scores
    best = max(history, key=operator.attrgetter("score"))
    return StudyResult(best=best, history=list(history))
