import dataclasses
import json
import types
import warnings

import numpy as np
import pytest

import vortexlab.geometry as geometry
import vortexlab.optimizer as optimizer
import vortexlab.ring_model as ring_model
import vortexlab.wave_dynamics as wave_dynamics
from vortexlab.cli import load_configs
from vortexlab.geometry import ZeroSpeed
from vortexlab.optimizer import (
    CorruptTrialLog,
    DimensionTooLarge,
    NoFeasibleHistory,
    SearchSpace,
    StudyConfig,
    TrialRecord,
    evaluate_tensor,
    feasibility_ceiling,
    propose_refinements,
    row_feasibility,
    run_study,
    sample_qmc,
)
from vortexlab.ring_model import (
    CoefficientTensor,
    RingConfig,
    kinematics_at,
    radius_profile,
    radius_profile_deriv,
    transport_gamma,
)
from vortexlab.wave_dynamics import axis_field

DESK = RingConfig(J=4, K=6, n_s=64, n_time=32)


@pytest.fixture
def space():
    return SearchSpace(J=2, K=2, c_max=30.0)


@pytest.fixture
def tiny_ring():
    return RingConfig(J=2, K=2, n_s=16, n_time=8)


def make_record(trial_id, score, coeffs, phase="qmc", feasible_fraction=0.5):
    return TrialRecord(
        trial_id=trial_id,
        phase=phase,
        score=score,
        madc=score * 2,
        feasible_fraction=feasible_fraction,
        coeffs=list(coeffs),
        elapsed=0.0,
    )


def test_sample_qmc_empty(space):
    assert sample_qmc(space, 0, seed=1) == []


def test_sample_qmc_bounds_and_determinism(space):
    a = sample_qmc(space, 16, seed=5)
    b = sample_qmc(space, 16, seed=5)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.c, tb.c)
        assert np.all(np.abs(ta.c) <= 30.0)
    other = sample_qmc(space, 16, seed=6)
    assert not np.array_equal(a[0].c, other[0].c)


def test_sample_qmc_prefix_property(space):
    # point i does not depend on how many points are requested
    short = sample_qmc(space, 4, seed=9)
    long = sample_qmc(space, 16, seed=9)
    for i in range(4):
        assert np.array_equal(short[i].c, long[i].c)
    # fast-forwarding reproduces the tail of the stream
    tail = sample_qmc(space, 12, seed=9, skip=4)
    for i in range(12):
        assert np.array_equal(tail[i].c, long[4 + i].c)


def test_sample_qmc_dimension_limit():
    big = SearchSpace(J=80, K=65, c_max=30.0)
    assert big.dim > 21201
    with pytest.raises(DimensionTooLarge):
        sample_qmc(big, 1, seed=0)


def test_search_space_roundtrip(space):
    rng = np.random.default_rng(15)
    flat = rng.uniform(-30, 30, space.dim)
    tensor = space.unflatten(flat)
    np.testing.assert_array_equal(space.flatten(tensor), flat)


def test_propose_refinements_basic(space):
    history = [make_record(0, 0.4, np.zeros(space.dim))]
    proposals = propose_refinements(history, 3, seed=1, space=space)
    assert len(proposals) == 3
    flats = [p.flatten() for p in proposals]
    for f in flats:
        assert np.all(np.abs(f) <= 30.0)
    assert not np.array_equal(flats[0], flats[1])
    assert not np.array_equal(flats[1], flats[2])
    assert propose_refinements(history, 0, seed=1, space=space) == []


def test_propose_refinements_clipping(space):
    center = np.full(space.dim, 29.9)
    history = [make_record(0, 0.4, center)]
    proposals = propose_refinements(history, 8, seed=2, space=space)
    for p in proposals:
        assert np.all(p.flatten() <= 30.0)
        assert np.all(p.flatten() >= -30.0)
    assert any(np.any(p.flatten() == 30.0) for p in proposals)


def test_propose_refinements_needs_feasible_history(space):
    history = [make_record(0, 0.0, np.zeros(space.dim), feasible_fraction=0.0)]
    with pytest.raises(NoFeasibleHistory):
        propose_refinements(history, 1, seed=0, space=space)


def test_run_study_single_trial(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=1, n_refine=0, seed=1)
    result = run_study(study, tiny_ring, tmp_path / "log.jsonl")
    assert len(result.history) == 1
    assert result.best.trial_id == 0
    assert result.best.phase == "qmc"
    summary = result.summary(study)
    assert summary["best_trial_id"] == 0
    assert summary["n_trials"] == 1
    assert summary["seed"] == 1


def test_run_study_deterministic_logs(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=6, n_refine=3, seed=42)
    run_study(study, tiny_ring, tmp_path / "a.jsonl")
    run_study(study, tiny_ring, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_run_study_resume_equivalence(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=6, n_refine=3, seed=42)
    run_study(study, tiny_ring, tmp_path / "full.jsonl")
    run_study(study, tiny_ring, tmp_path / "part.jsonl", limit=4)
    assert sum(1 for _ in open(tmp_path / "part.jsonl")) == 4
    run_study(study, tiny_ring, tmp_path / "part.jsonl")
    assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()


def test_run_study_best_so_far_monotonic(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=8, n_refine=4, seed=3)
    result = run_study(study, tiny_ring, tmp_path / "log.jsonl")
    best = -np.inf
    bests = []
    for rec in result.history:
        best = max(best, rec.score)
        bests.append(best)
    assert bests == sorted(bests)
    assert result.best.score == bests[-1]


def test_run_study_log_fields_exact(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=2, n_refine=0, seed=1)
    run_study(study, tiny_ring, tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    for line in lines:
        rec = json.loads(line)
        assert list(rec.keys()) == [
            "trial_id",
            "phase",
            "score",
            "madc",
            "feasible_fraction",
            "coeffs",
            "elapsed",
        ]
        assert rec["elapsed"] == 0.0  # deterministic mode suppresses timing


def test_run_study_refuses_corrupt_log(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=4, n_refine=0, seed=2)
    log = tmp_path / "log.jsonl"
    run_study(study, tiny_ring, log, limit=2)
    lines = log.read_text().splitlines()
    log.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
    with pytest.raises(CorruptTrialLog) as err:
        run_study(study, tiny_ring, log)
    assert err.value.line_no == 2

    log.write_text(lines[1] + "\n")  # trial_id 1 on line 1
    with pytest.raises(CorruptTrialLog):
        run_study(study, tiny_ring, log)


def with_field_text(name, text):
    """A bad line: the record with ``name``'s value replaced by the raw JSON ``text``."""
    return lambda rec: json.dumps({**rec, name: "@"}).encode().replace(b'"@"', text)


MALFORMED_LINES = {
    "blank": (2, lambda rec: b"  "),
    "truncated JSON": (2, lambda rec: json.dumps(rec).encode()[:40]),
    "not an object": (2, lambda rec: b"[1, 2]"),
    "fields reordered": (2, lambda rec: json.dumps(dict(reversed(rec.items()))).encode()),
    "trial_id 0.0 on line 1": (1, with_field_text("trial_id", b"0.0")),
    "trial_id true on line 2": (2, with_field_text("trial_id", b"true")),
    "trial_id skips": (2, with_field_text("trial_id", b"2")),
    "unknown phase": (2, with_field_text("phase", b'"anneal"')),
    "string score": (2, with_field_text("score", b'"0.5"')),
    "null madc": (2, with_field_text("madc", b"null")),
    "bool feasible_fraction": (2, with_field_text("feasible_fraction", b"false")),
    "list elapsed": (2, with_field_text("elapsed", b"[0.0]")),
    "NaN score": (2, with_field_text("score", b"NaN")),
    "-Infinity madc": (2, with_field_text("madc", b"-Infinity")),
    "overflowing literal": (2, with_field_text("score", b"1e400")),
    "invalid UTF-8": (2, with_field_text("phase", b'"q\xffc"')),
    "coeffs a number": (2, with_field_text("coeffs", b"7")),
    # 36 is tiny_ring's dim: a string has a length too
    "coeffs a string of length dim": (2, with_field_text("coeffs", b'"' + b"x" * 36 + b'"')),
    "coeffs too short": (2, with_field_text("coeffs", b"[0.0]")),
}


@pytest.mark.parametrize("line_no, bad", MALFORMED_LINES.values(), ids=list(MALFORMED_LINES))
def test_resume_refuses_every_malformed_line(tiny_ring, tmp_path, line_no, bad):
    study = StudyConfig(n_qmc=3, n_refine=0, seed=2)
    log = tmp_path / "log.jsonl"
    run_study(study, tiny_ring, log)
    lines = log.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[line_no - 1])
    lines[line_no - 1] = bad(record) + b"\n"
    log.write_bytes(b"".join(lines))
    with pytest.raises(CorruptTrialLog) as err:
        run_study(study, tiny_ring, log)
    assert err.value.line_no == line_no


def test_writer_refuses_non_finite_values():
    for value in (np.nan, np.inf, -np.inf):
        for rec in (make_record(0, value, [0.0]), make_record(0, 0.5, [0.0, value])):
            with pytest.raises(ValueError):
                rec.to_json_line()


def test_writer_bytes_pinned():
    # the stdlib's float spelling is the log format; orjson would write 0.00001 and 1e16
    rec = TrialRecord(3, "refine", 0.25, 1e-05, 1.0, [-0.0, 5e-324, 1e16, -30.0], 0.0)
    assert rec.to_json_line() == (
        '{"trial_id": 3, "phase": "refine", "score": 0.25, "madc": 1e-05, '
        '"feasible_fraction": 1.0, "coeffs": [-0.0, 5e-324, 1e+16, -30.0], "elapsed": 0.0}'
    )


def assert_records_bitwise_equal(got, want):
    assert got == want
    for a, b in zip(got, want):
        for name in ("score", "madc", "feasible_fraction", "coeffs", "elapsed"):
            assert np.array(getattr(a, name)).tobytes() == np.array(getattr(b, name)).tobytes()


def test_written_records_parse_back_bit_for_bit(space, tmp_path):
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=40 * (space.dim + 4), dtype=np.uint64).view(np.float64)
    draws = bits[np.isfinite(bits)]
    special = [-0.0, 5e-324, 1e-05, 1e16, space.c_max, -space.c_max, 1.7976931348623157e308]
    flats = np.concatenate([special, draws])
    n = len(flats) // (space.dim + 4)
    rows = flats[: n * (space.dim + 4)].reshape(n, space.dim + 4)
    records = [
        TrialRecord(i, ("qmc", "refine")[i % 2], *row[:3].tolist(), row[4:].tolist(), row[3])
        for i, row in enumerate(rows)
    ]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(rec.to_json_line() + "\n" for rec in records))
    history, torn = optimizer._parse_log(log, space)
    assert torn == 0 and len(history) == n > 30
    assert_records_bitwise_equal(history, records)
    # orjson reads every float exactly as the stdlib reader does
    stdlib = [TrialRecord(**json.loads(line)) for line in log.read_text().splitlines()]
    assert_records_bitwise_equal(history, stdlib)


def test_run_study_log_parses_back_to_its_history(tiny_ring, tmp_path):
    log = tmp_path / "log.jsonl"
    result = run_study(StudyConfig(n_qmc=6, n_refine=3, seed=42), tiny_ring, log)
    history, torn = optimizer._parse_log(log, SearchSpace.from_ring_config(tiny_ring))
    assert torn == 0
    assert_records_bitwise_equal(history, result.history)


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(n_qmc=0, n_refine=0)
    with pytest.raises(ValueError):
        StudyConfig(strategy="annealing")
    with pytest.raises(ValueError):
        StudyConfig(parallel_width=0)
    # perturb_best refines QMC trials, so it needs a QMC phase
    with pytest.raises(ValueError, match="n_qmc"):
        StudyConfig(n_qmc=0, n_refine=2)
    assert StudyConfig(n_qmc=0, n_refine=2, strategy="structured").n_qmc == 0
    assert StudyConfig(n_qmc=2, n_refine=0).n_refine == 0


def test_run_study_structured_without_qmc_phase(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=0, n_refine=2, seed=3, strategy="structured")
    result = run_study(study, tiny_ring, tmp_path / "log.jsonl")
    assert [rec.phase for rec in result.history] == ["refine", "refine"]
    ceiling = feasibility_ceiling(tiny_ring)
    assert result.history[0].feasible_fraction == ceiling.n_feasible / tiny_ring.n_s


def test_parallel_width_runs_all_trials(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=6, n_refine=2, seed=5, parallel_width=3)
    result = run_study(study, tiny_ring, tmp_path / "log.jsonl")
    assert [rec.trial_id for rec in result.history] == list(range(8))
    assert [rec.phase for rec in result.history] == ["qmc"] * 6 + ["refine"] * 2


def test_zero_speed_trial_is_infeasible_not_fatal(monkeypatch, tiny_ring):
    def exploding_field(tensor, ring):
        raise ZeroSpeed("stationary point on the evaluation grid")

    monkeypatch.setattr(optimizer, "axis_field", exploding_field)
    score, value, fraction = evaluate_tensor(CoefficientTensor.zeros(2, 2), tiny_ring)
    assert (score, value, fraction) == (0.0, 0.0, 0.0)


def test_zero_speed_at_rk4_midpoint_only_is_infeasible(tiny_ring):
    ring = tiny_ring
    h = (ring.t1 - ring.t0) / ring.n_time
    # abscissae as integrate_wave_system forms them: t0 + i h, then + h/2 or + h
    midpoints = np.array([ring.t0 + i * h + 0.5 * h for i in range(ring.n_time)])
    others = np.array(
        [ring.t0 - ring.fd_step, ring.t0, ring.t0 + ring.fd_step]
        + [ring.t0 + i * h + h for i in range(ring.n_time)]
    )
    c = np.zeros((2, 2, ring.J + 1, ring.K + 1))
    # gamma1_t = c / (K + 1) nearly cancels the transport velocity at the fourth midpoint
    c[0, 1, 0, 0] = -0.999 * (ring.K + 1) * transport_gamma(midpoints[3])[1]
    tensor = CoefficientTensor(c)
    v_mid = kinematics_at(midpoints, ring.s_grid, tensor, ring).v
    v_other = kinematics_at(others, ring.s_grid, tensor, ring).v
    eps_v = float(v_mid.min())
    assert eps_v < float(v_other.min())
    assert evaluate_tensor(tensor, ring)[0] > 0.0
    assert evaluate_tensor(tensor, dataclasses.replace(ring, eps_v=eps_v)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("ring, n", [(DESK, 300), (RingConfig(), 4)])
def test_sign_corner_tensors_score_finite(ring, n):
    # every coefficient at +-c_max: the largest deformations of the box, where
    # 1/v^2 and the cumulative sums are most exposed (RuntimeWarnings are
    # errors in this suite)
    dim = 4 * (ring.J + 1) * (ring.K + 1)
    signs = np.random.default_rng(21).choice([-1.0, 1.0], size=(n, dim))
    for flat in ring.c_max * signs:
        tensor = CoefficientTensor.from_flat(flat, ring.J, ring.K)
        score, value, fraction = evaluate_tensor(tensor, ring)
        assert np.isfinite([score, value, fraction]).all()
        assert 0.0 <= fraction <= 1.0


@pytest.mark.parametrize("d", [1, 7, 140, 924])
def test_sobol_sampler_matches_scipy_scramble_bit_for_bit(d):
    # the vectorized LMS+shift scramble sets scipy's private engine fields;
    # a scipy that renames them or changes its draws fails here
    space = types.SimpleNamespace(dim=d, c_max=1.0, unflatten=lambda flat: flat)
    for seed in (0, 3, 99):
        for skip in (0, 5, 13):
            sampler = optimizer._sobol_sampler(space, seed, skip)
            got = optimizer._draw_qmc(sampler, space, 3) + optimizer._draw_qmc(sampler, space, 4)
            ref = optimizer.qmc.Sobol(d, scramble=True, seed=seed)
            if skip:
                ref.fast_forward(skip)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                want = 2.0 * np.vstack([ref.random(3), ref.random(4)]) - 1.0
            np.testing.assert_array_equal(np.array(got), want, err_msg=f"seed {seed}, skip {skip}")


def test_run_study_builds_one_sobol_sampler_per_call(monkeypatch, tiny_ring, tmp_path):
    built = []
    sobol = optimizer.qmc.Sobol

    def counting_sobol(*args, **kwargs):
        built.append(kwargs)
        return sobol(*args, **kwargs)

    monkeypatch.setattr(optimizer.qmc, "Sobol", counting_sobol)
    study = StudyConfig(n_qmc=7, n_refine=1, seed=4, parallel_width=3)
    space = SearchSpace.from_ring_config(tiny_ring)
    run_study(study, tiny_ring, tmp_path / "full.jsonl")
    assert len(built) == 1
    # killed after 4 trials, inside the second width-3 batch
    run_study(study, tiny_ring, tmp_path / "part.jsonl", limit=4)
    assert len(built) == 2
    result = run_study(study, tiny_ring, tmp_path / "part.jsonl")
    assert len(built) == 3
    monkeypatch.undo()
    expected = sample_qmc(space, 4, seed=4) + sample_qmc(space, 3, seed=4, skip=4)
    logged = [rec.coeffs for rec in result.history if rec.phase == "qmc"]
    assert len(logged) == len(expected) == 7
    for coeffs, tensor in zip(logged, expected):
        assert coeffs == [float(x) for x in tensor.flatten()]
    # a study past its QMC phase never builds the sampler
    monkeypatch.setattr(optimizer.qmc, "Sobol", counting_sobol)
    run_study(dataclasses.replace(study, n_refine=2), tiny_ring, tmp_path / "part.jsonl")
    assert len(built) == 3


def test_resume_drops_torn_final_record_at_every_offset(tiny_ring, tmp_path):
    ring = dataclasses.replace(tiny_ring, J=1, K=1, n_s=8, n_time=4)
    study = StudyConfig(n_qmc=3, n_refine=1, seed=8)
    full = tmp_path / "full.jsonl"
    run_study(study, ring, full)
    lines = full.read_bytes().splitlines(keepends=True)
    prefix, last = b"".join(lines[:2]), lines[2]
    log = tmp_path / "torn.jsonl"
    # every cut of the third record, from nothing written to all but its newline
    for cut in range(len(last)):
        log.write_bytes(prefix + last[:cut])
        result = run_study(study, ring, log)
        assert log.read_bytes() == full.read_bytes(), cut
        assert [rec.trial_id for rec in result.history] == [0, 1, 2, 3]
    # a terminated bad line is never dropped
    log.write_bytes(prefix + last[: len(last) // 2] + b"\n")
    with pytest.raises(CorruptTrialLog) as err:
        run_study(study, ring, log)
    assert err.value.line_no == 3


def test_sigma_adaptation_one_fifth_rule(space):
    def sigma(history):
        return optimizer._refine_state(history, space.c_max)[0]

    coeffs = [0.0] * space.dim
    sigma0 = 0.1 * space.c_max
    history = [make_record(0, 0.5, coeffs)]
    assert sigma(history) == pytest.approx(sigma0)
    # a refine success grows the step, a failure shrinks it
    success = history + [make_record(1, 0.6, coeffs, phase="refine")]
    failure = history + [make_record(1, 0.4, coeffs, phase="refine")]
    assert sigma(success) > sigma0
    assert sigma(failure) < sigma0
    # one success in five refine trials leaves sigma unchanged
    scores = [0.6, 0.4, 0.39, 0.38, 0.37]
    neutral = history + [
        make_record(i + 1, s, coeffs, phase="refine") for i, s in enumerate(scores)
    ]
    assert sigma(neutral) == pytest.approx(sigma0)


def test_refine_center_ties_go_to_first_maximum(space):
    history = [
        make_record(0, 0.2, np.full(space.dim, 1.0)),
        make_record(1, 0.7, np.full(space.dim, 2.0)),
        make_record(2, 0.7, np.full(space.dim, 3.0)),
        make_record(3, 0.9, np.full(space.dim, 4.0), feasible_fraction=0.0),
        make_record(4, 0.7, np.full(space.dim, 5.0), phase="refine"),
    ]
    assert optimizer._refine_state(history[:3], space.c_max)[1].trial_id == 1
    sigma, best_feasible, best_refine = optimizer._refine_state(history, space.c_max)
    assert (best_feasible.trial_id, best_refine.trial_id) == (1, 4)
    # the infeasible 0.9 is skipped; of the three 0.7s the first is the center
    got = propose_refinements(history, 2, seed=(0, 5), space=space)
    rng = np.random.default_rng(np.random.SeedSequence((0, 5)))
    for tensor in got:
        want = space.clip(2.0 + sigma * rng.standard_normal(space.dim))
        np.testing.assert_array_equal(tensor.flatten(), want)


def test_adapted_sigma_matches_reference_loop_with_interleaved_phases(space):
    def first_max(records):
        # max keeps the first of equal scores
        return max(records, key=lambda rec: rec.score) if records else None

    def reference(history, c_max):
        sigma = optimizer.REFINE_SIGMA_INIT_FACTOR * c_max
        best_so_far = -np.inf
        for rec in history:
            if rec.phase == "refine":
                sigma *= 2.0**0.5 if rec.score > best_so_far else 2.0**-0.125
            best_so_far = max(best_so_far, rec.score)
        return (
            float(np.clip(sigma, 1e-6 * c_max, c_max)),
            first_max([rec for rec in history if rec.feasible_fraction > 0.0]),
            first_max([rec for rec in history if rec.phase == "refine"]),
        )

    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 60, 400):
        # few distinct scores, so ties with the best so far are common
        scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9], size=n)
        phases = rng.choice(["qmc", "refine"], size=n)
        fractions = rng.choice([0.0, 0.5], size=n)
        history = [
            make_record(i, float(s), [], phase=str(p), feasible_fraction=float(f))
            for i, (s, p, f) in enumerate(zip(scores, phases, fractions))
        ]
        sigma, best_feasible, best_refine = optimizer._refine_state(history, space.c_max)
        want_sigma, want_feasible, want_refine = reference(history, space.c_max)
        assert sigma == want_sigma
        assert best_feasible is want_feasible and best_refine is want_refine


def row_tensor(row, ring):
    """The tensor that is zero apart from its j=0 gamma1 row."""
    arr = np.zeros((2, 2, ring.J + 1, ring.K + 1))
    arr[0, :, 0, :] = row
    return CoefficientTensor(arr)


def test_feasibility_ceiling_desk():
    ceiling = feasibility_ceiling(DESK)
    assert ceiling.row.shape == (2, DESK.K + 1)
    assert np.all(np.abs(ceiling.row) <= DESK.c_max)
    field = axis_field(row_tensor(ceiling.row, DESK), DESK)
    np.testing.assert_array_equal(ceiling.feasible, field.feasible)
    assert ceiling.n_feasible > 30

    zero_row = np.zeros((2, DESK.K + 1))
    undeformed = axis_field(CoefficientTensor.zeros(DESK.J, DESK.K), DESK)
    np.testing.assert_array_equal(row_feasibility(zero_row, DESK), undeformed.feasible)
    assert int(np.count_nonzero(undeformed.feasible)) == 30
    # the ceiling keeps every column the undeformed ring aligns
    assert np.all(ceiling.feasible[undeformed.feasible])


def closed_form_row_feasibility(row, ring):
    """Feasibility mask of a j=0 gamma1 row tensor, derived apart from the trial path.

    Such a tensor has gamma1 = (t - t0) f(s) and gamma2 = 0, so at time t the
    trajectory velocity is (Gamma'(t) + f) e_r and the ring tangent is
    (R_s + (t - t0) f_s) e_r + 2 pi (R + Gamma(t) + (t - t0) f) e_theta.  A
    column aligns at t where the cosine between them exceeds eps_align, and
    is feasible where it aligns at t0 and at t0 +- fd_step.
    """
    k = np.arange(ring.K + 1)
    ang = 2.0 * np.pi * np.outer(ring.s_grid, k)
    sin_row, cos_row = np.asarray(row, dtype=float)
    f = (np.sin(ang) @ sin_row + np.cos(ang) @ cos_row) / (ring.K + 1.0)
    f_s = 2.0 * np.pi * (np.cos(ang) @ (k * sin_row) - np.sin(ang) @ (k * cos_row)) / (ring.K + 1.0)
    r = radius_profile(ring.s_grid, ring.delta)
    r_s = radius_profile_deriv(ring.s_grid, ring.delta)
    feasible = np.ones(ring.n_s, dtype=bool)
    for dt in (-ring.fd_step, 0.0, ring.fd_step):
        g, g_t, _, _ = transport_gamma(ring.t0 + dt)
        radial = r_s + dt * f_s
        tangential = 2.0 * np.pi * (r + g + dt * f)
        cosine = radial * np.sign(g_t + f) / np.hypot(radial, tangential)
        feasible &= cosine > ring.eps_align
    return feasible


def test_row_feasibility_zero_speed_is_infeasible_everywhere():
    # a constant f = -Gamma'(t0) stops every trajectory at t0
    row = np.zeros((2, DESK.K + 1))
    row[1, 0] = -(DESK.K + 1.0) * transport_gamma(DESK.t0)[1]
    with pytest.raises(ZeroSpeed):
        axis_field(row_tensor(row, DESK), DESK)
    assert not np.any(row_feasibility(row, DESK))


def test_row_feasibility_includes_stencil_gate():
    # a coarse rate stencil makes the t0 +- h gate bite on random rows
    coarse = dataclasses.replace(DESK, fd_step_factor=2.0**-3)
    at_t0_only = dataclasses.replace(DESK, fd_step_factor=1e-30)
    rng = np.random.default_rng(3)
    gated = 0
    for _ in range(8):
        row = rng.uniform(-DESK.c_max, DESK.c_max, (2, DESK.K + 1))
        for ring in (DESK, coarse, at_t0_only):
            want = closed_form_row_feasibility(row, ring)
            np.testing.assert_array_equal(row_feasibility(row, ring), want)
        gated += int(np.count_nonzero(row_feasibility(row, at_t0_only) & ~row_feasibility(row, coarse)))
    assert gated > 0
    ceiling = feasibility_ceiling(coarse)
    field = axis_field(row_tensor(ceiling.row, coarse), coarse)
    np.testing.assert_array_equal(ceiling.feasible, field.feasible)
    np.testing.assert_array_equal(ceiling.feasible, closed_form_row_feasibility(ceiling.row, coarse))
    # the LP's stencil constraint keeps every undeformed column open
    undeformed = row_feasibility(np.zeros((2, DESK.K + 1)), coarse)
    assert np.all(ceiling.feasible[undeformed])


def test_structured_strategy_is_accepted(tmp_path):
    assert StudyConfig(strategy="structured").strategy == "structured"
    path = tmp_path / "study.cfg"
    path.write_text("J = 2\nK = 2\nstrategy = structured\n")
    _, study = load_configs(path)
    assert study.strategy == "structured"
    with pytest.raises(ValueError):
        StudyConfig(strategy="annealing")


def test_propose_structured_pins_ceiling_row(space, tiny_ring):
    ceiling = feasibility_ceiling(tiny_ring)
    rng = np.random.default_rng(17)
    history = [
        make_record(i, float(rng.random()), rng.uniform(-30, 30, space.dim))
        for i in range(6)
    ]
    with pytest.raises(ValueError):
        propose_refinements(history, 1, seed=0, strategy="structured", space=space)

    first = propose_refinements(
        history, 3, seed=4, strategy="structured", space=space, ceiling=ceiling
    )
    # the first refine trial is the ceiling row on an otherwise zero tensor
    np.testing.assert_array_equal(first[0].c, row_tensor(ceiling.row, tiny_ring).c)
    # unlike perturb_best, it needs no feasible trial to start from
    infeasible = [make_record(0, 0.0, np.zeros(space.dim), feasible_fraction=0.0)]
    (alone,) = propose_refinements(
        infeasible, 1, seed=4, strategy="structured", space=space, ceiling=ceiling
    )
    np.testing.assert_array_equal(alone.c, first[0].c)
    refined = history + [make_record(6, 0.9, first[1].flatten(), phase="refine")]
    later = propose_refinements(
        refined, 4, seed=5, strategy="structured", space=space, ceiling=ceiling
    )
    for p in first + later:
        assert np.all(np.abs(p.c) <= space.c_max)
        np.testing.assert_array_equal(p.c[0, :, 0, :], ceiling.row)
    assert not np.array_equal(later[0].c, later[1].c)
    again = propose_refinements(
        refined, 4, seed=5, strategy="structured", space=space, ceiling=ceiling
    )
    for p, q in zip(later, again):
        assert np.array_equal(p.c, q.c)


def test_run_study_structured_deterministic_and_resumable(monkeypatch, tiny_ring, tmp_path):
    solves = []

    def counting_ceiling(ring):
        solves.append(ring)
        return feasibility_ceiling(ring)

    monkeypatch.setattr(optimizer, "feasibility_ceiling", counting_ceiling)
    study = StudyConfig(n_qmc=6, n_refine=3, seed=42, strategy="structured")
    full = run_study(study, tiny_ring, tmp_path / "a.jsonl")
    assert len(solves) == 1  # one LP per study, not per refine trial
    run_study(study, tiny_ring, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    run_study(study, tiny_ring, tmp_path / "part.jsonl", limit=2)
    assert sum(1 for _ in open(tmp_path / "part.jsonl")) == 2
    run_study(study, tiny_ring, tmp_path / "part.jsonl")
    assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    assert len(solves) == 3

    ceiling = feasibility_ceiling(tiny_ring)
    refine = [rec for rec in full.history if rec.phase == "refine"]
    assert len(refine) == 3
    for rec in refine:
        c = np.array(rec.coeffs).reshape(2, 2, tiny_ring.J + 1, tiny_ring.K + 1)
        np.testing.assert_array_equal(c[0, :, 0, :], ceiling.row)
    assert refine[0].feasible_fraction == ceiling.n_feasible / tiny_ring.n_s


def test_evaluate_tensor_makes_no_cross_products(monkeypatch):
    # the trial path runs on meridional components: no 3-D frame is built,
    # and the wave equations are solved in closed form, never stepped by RK4
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "cross", counted("cross", np.cross))
    for module in (geometry, ring_model):
        fn = module.frame_from_derivatives
        monkeypatch.setattr(module, "frame_from_derivatives", counted("frame", fn))
    for name in ("integrate_wave_system", "wave_coefficients"):
        monkeypatch.setattr(wave_dynamics, name, counted(name, getattr(wave_dynamics, name)))
    tensor = CoefficientTensor.from_flat(np.random.default_rng(8).uniform(-5, 5, 140), 4, 6)
    score, _, fraction = evaluate_tensor(tensor, DESK)
    assert fraction > 0.0 and score > 0.0
    assert calls == []
    # the counters do see the generic routine
    ring_model.frame_from_derivatives(np.ones(3), np.arange(3.0), np.zeros(3))
    assert calls[0] == "frame" and "cross" in calls
    kin = ring_model.kinematics_at(DESK.t0, DESK.s_grid, tensor, DESK)
    wave_dynamics.integrate_wave_system(
        lambda t: wave_dynamics.wave_coefficients(kin), 0.0, 1.0, 1, np.zeros((4, DESK.n_s))
    )
    assert calls[-4:] == ["integrate_wave_system"] + ["wave_coefficients"] * 3
