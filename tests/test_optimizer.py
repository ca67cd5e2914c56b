import dataclasses
import json
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import vortexlab.geometry as geometry
import vortexlab.optimizer as optimizer
import vortexlab.ring_model as ring_model
import vortexlab.wave_dynamics as wave_dynamics
from vortexlab.cli import load_configs
from vortexlab.madc import madc
from vortexlab.optimizer import (
    CorruptTrialLog,
    DimensionTooLarge,
    NoFeasibleHistory,
    SearchSpace,
    StudyConfig,
    TrialRecord,
    evaluate_stack,
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
from vortexlab.wave_dynamics import aligned_initial_state, axis_field

from oracles import sobol_scramble_reference

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


@pytest.mark.parametrize("n, skip, name", [(-1, 0, "n"), (3, -2, "skip")])
def test_sample_qmc_refuses_a_negative_argument(monkeypatch, space, n, skip, name):
    # skip=-2 returned three copies of point 0, and n=-1 leaked numpy's
    # "negative dimensions"; a stream that cannot be built shows nothing is drawn first
    monkeypatch.setattr(optimizer, "_sobol_stream", None)
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {min(n, skip)}$"):
        sample_qmc(space, n, seed=0, skip=skip)


def test_sample_qmc_holds_each_point_once():
    # the tensors copy their points; drawing the whole (n, dim) block before
    # building them peaked at ~2.1x the points' bytes here
    space = SearchSpace(J=20, K=10, c_max=30.0)
    n = 2000
    optimizer._direction_numbers(space.dim)  # the per-process table, outside the measurement
    tracemalloc.start()
    try:
        points = sample_qmc(space, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * space.dim * 8
    block = optimizer._draw_qmc(optimizer._sobol_stream(space, 0, n), space, 0, n)
    assert len(points) == len(block) == n
    for got, want in zip(points, block):
        assert np.array_equal(got.c, want.c)


def test_qmc_beyond_the_sobol_stream_is_refused(space):
    # the stream holds 2**30 points; past them a Gray code would select a
    # direction number that does not exist
    last = sample_qmc(space, 1, seed=0, skip=2**30 - 1)
    assert len(last) == 1 and np.all(np.abs(last[0].c) <= space.c_max)
    for n, skip in [(1, 2**30), (2, 2**30 - 1), (2**30 + 1, 0)]:
        with pytest.raises(ValueError, match="2\\*\\*30"):
            sample_qmc(space, n, seed=0, skip=skip)
    StudyConfig(n_qmc=2**30, n_refine=0)
    with pytest.raises(ValueError, match="n_qmc"):
        StudyConfig(n_qmc=2**30 + 1, n_refine=0)


def test_search_space_roundtrip(space):
    rng = np.random.default_rng(15)
    flat = rng.uniform(-30, 30, space.dim)
    tensor = space.unflatten(flat)
    np.testing.assert_array_equal(tensor.flatten(), flat)


def padded(history, n, dim):
    """``history`` followed by infeasible QMC records up to length n.

    They move neither the center nor sigma, only the trial id that seeds the
    next proposal.
    """
    return history + [
        make_record(i, 0.0, np.zeros(dim), feasible_fraction=0.0) for i in range(len(history), n)
    ]


def test_propose_refinements_basic(space, tiny_ring):
    history = [make_record(0, 0.4, np.zeros(space.dim))]
    study = StudyConfig(seed=1)
    flats = [
        propose_refinements(padded(history, n, space.dim), study, tiny_ring).flatten()
        for n in (1, 2, 3)
    ]
    for f in flats:
        assert np.all(np.abs(f) <= 30.0)
    # the draw is seeded by (study seed, trial id)
    assert not np.array_equal(flats[0], flats[1])
    assert not np.array_equal(flats[1], flats[2])
    again = propose_refinements(padded(history, 2, space.dim), study, tiny_ring)
    np.testing.assert_array_equal(again.flatten(), flats[1])
    other = propose_refinements(padded(history, 2, space.dim), StudyConfig(seed=2), tiny_ring)
    assert not np.array_equal(other.flatten(), flats[1])


def test_propose_refinements_clipping(space, tiny_ring):
    center = np.full(space.dim, 29.9)
    history = [make_record(0, 0.4, center)]
    proposals = [
        propose_refinements(padded(history, n, space.dim), StudyConfig(seed=2), tiny_ring)
        for n in range(1, 9)
    ]
    for p in proposals:
        assert np.all(p.flatten() <= 30.0)
        assert np.all(p.flatten() >= -30.0)
    assert any(np.any(p.flatten() == 30.0) for p in proposals)


def test_propose_refinements_needs_feasible_history(space, tiny_ring):
    history = [make_record(0, 0.0, np.zeros(space.dim), feasible_fraction=0.0)]
    with pytest.raises(NoFeasibleHistory):
        propose_refinements(history, StudyConfig(), tiny_ring)


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


@pytest.mark.parametrize("limit", [0, -3])
def test_run_study_refuses_limit_below_one(tiny_ring, tmp_path, limit):
    log = tmp_path / "trials.jsonl"
    with pytest.raises(ValueError, match="limit"):
        run_study(StudyConfig(n_qmc=4, n_refine=0), tiny_ring, log, limit=limit)
    assert list(tmp_path.iterdir()) == []


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
    study = StudyConfig(n_qmc=2, n_refine=2, seed=1)
    run_study(study, tiny_ring, tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert [json.loads(line)["phase"] for line in lines] == ["qmc"] * 2 + ["refine"] * 2
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
        assert rec["elapsed"] == 0.0  # no timing, so logs are byte-reproducible


def test_resume_accepts_logs_with_timed_elapsed(tiny_ring, tmp_path):
    # older studies with several refine proposals per batch logged wall seconds
    study = StudyConfig(n_qmc=5, n_refine=3, seed=2)
    log = tmp_path / "log.jsonl"
    run_study(study, tiny_ring, log, limit=6)
    elapsed = [0.0123 * (i + 1) for i in range(6)]
    lines = log.read_bytes().splitlines(keepends=True)
    timed = [
        line.replace(b'"elapsed": 0.0}', b'"elapsed": %r}' % e) for line, e in zip(lines, elapsed)
    ]
    assert all(b"0.0}" not in line for line in timed)
    log.write_bytes(b"".join(timed))
    history = run_study(study, tiny_ring, log).history
    assert [rec.elapsed for rec in history] == elapsed + [0.0, 0.0]
    appended = log.read_bytes().splitlines(keepends=True)
    assert appended[:6] == timed
    assert [json.loads(line)["elapsed"] for line in appended[6:]] == [0.0, 0.0]


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


def with_coeff_text(text):
    """A bad line: the record with its first coefficient replaced by the raw JSON ``text``."""
    return lambda rec: (
        json.dumps({**rec, "coeffs": ["@", *rec["coeffs"][1:]]}).encode().replace(b'"@"', text)
    )


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
    "coeffs one too long": (2, lambda rec: json.dumps({**rec, "coeffs": [*rec["coeffs"], 0.0]}).encode()),
    "coeffs an object": (2, with_field_text("coeffs", b'{"a": 0.0}')),
    "coeffs null": (2, with_field_text("coeffs", b"null")),
    "coeffs true": (2, with_field_text("coeffs", b"true")),
    "coefficient a string": (2, with_coeff_text(b'"x"')),
    "coefficient a numeric string": (2, with_coeff_text(b'"1.5"')),
    "coefficient null": (2, with_coeff_text(b"null")),
    "coefficient a nested list": (2, with_coeff_text(b"[0.0]")),
    "coefficient an object": (2, with_coeff_text(b"{}")),
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
    plain = np.random.default_rng(22).uniform(-30.0, 30.0, size=12)
    for value in (np.nan, np.inf, -np.inf):
        bad = plain.copy()
        bad[5] = value
        for rec in (
            make_record(0, value, [0.0]),
            make_record(0, 0.5, [0.0, value]),
            # float64 arrays, whose in-range coefficients orjson would write
            TrialRecord(0, "qmc", 0.5, 1.0, 0.5, bad, 0.0),
            TrialRecord(0, "qmc", value, 1.0, 0.5, plain, 0.0),
            TrialRecord(0, "qmc", 0.5, 1.0, 0.5, plain, value),
        ):
            with pytest.raises(ValueError):
                rec.to_json_line()


def test_writer_bytes_pinned():
    # the stdlib's float spelling is the log format; orjson would write 0.00001 and 1e16
    rec = TrialRecord(3, "refine", 0.25, 1e-05, 1.0, [-0.0, 5e-324, 1e16, -30.0], 0.0)
    assert rec.to_json_line() == (
        '{"trial_id": 3, "phase": "refine", "score": 0.25, "madc": 1e-05, '
        '"feasible_fraction": 1.0, "coeffs": [-0.0, 5e-324, 1e+16, -30.0], "elapsed": 0.0}'
    )


def test_writer_bytes_same_for_array_and_list():
    coeffs = [-0.0, 5e-324, 1e-05, 1e16, -30.0, 0.1 + 0.2]
    rec = TrialRecord(3, "refine", 0.25, 1e-05, 1.0, coeffs, 0.0)
    as_array = dataclasses.replace(rec, coeffs=np.array(coeffs))
    assert as_array.to_json_line() == rec.to_json_line()


def stdlib_line(rec):
    """The log line as json writes it: the reference for TrialRecord.to_json_line."""
    fields = {name: getattr(rec, name) for name in optimizer._LOG_FIELDS}
    if isinstance(rec.coeffs, np.ndarray):
        fields["coeffs"] = rec.coeffs.tolist()
    return json.dumps(fields, allow_nan=False)


def test_writer_equals_stdlib_on_every_float(space):
    rng = np.random.default_rng(20)
    dim = 140
    bits = rng.integers(0, 2**64, size=(200, dim), dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 1.0
    plain = [
        rng.uniform(-scale, scale, size=(200, dim)) for scale in (30.0, 1.0, 1e-3)
    ] + [np.copysign(10.0 ** rng.uniform(-4, 16, size=(200, dim)), rng.uniform(-1, 1, size=(200, dim)))]
    edges = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e16, 0.0), 1e16, 5e-324, -0.0, 0.0]
    edges += [space.c_max, -space.c_max, 1.7976931348623157e308]
    for value in edges:
        for sign in (1.0, -1.0):
            row = rng.uniform(-30.0, 30.0, size=dim)
            row[rng.integers(dim)] = sign * value
            plain.append(row[None])
    fast = 0
    for rows in [bits, *plain]:
        for row in rows:
            rec = TrialRecord(7, "refine", 0.25, 1e-05, 0.5, row.copy(), 0.0)
            assert rec.to_json_line() == stdlib_line(rec)
            # orjson's path exactly where every value prints in plain notation
            in_range = all(v == 0.0 or 1e-4 <= abs(v) < 1e16 for v in row.tolist())
            assert optimizer._plain_floats(rec.coeffs) == in_range
            fast += in_range
    assert fast > 500


def test_writer_equals_stdlib_on_every_coefficient_layout():
    base = np.random.default_rng(21).uniform(-30.0, 30.0, size=40)
    for coeffs in (
        base[::2],
        base.reshape(2, 20),
        base.astype(np.float32),
        base.astype(">f8"),
        np.arange(-5, 5),
        base.tolist(),
        np.zeros(0),
        np.zeros(3),
    ):
        rec = TrialRecord(2, "qmc", 0.5, 1.0, 0.5, coeffs, 0.0)
        assert rec.to_json_line() == stdlib_line(rec)
    assert optimizer._plain_floats(np.zeros(3)) and not optimizer._plain_floats(base[::2])


def assert_records_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.trial_id, a.phase) == (b.trial_id, b.phase)
        for name in ("score", "madc", "feasible_fraction", "coeffs", "elapsed"):
            assert np.array(getattr(a, name)).tobytes() == np.array(getattr(b, name)).tobytes()


def test_trial_record_compares_by_identity():
    # dataclass equality would compare the coefficient arrays, whose truth
    # value is ambiguous; content comparison is assert_records_bitwise_equal
    a = TrialRecord(0, "qmc", 0.5, 1.0, 0.5, np.zeros(3), 0.0)
    b = dataclasses.replace(a)
    assert a == a and a != b and not a == b
    assert hash(a) != hash(b) and len({a, b, a}) == 2
    assert_records_bitwise_equal([a], [b])


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
    for rec in result.history:
        assert rec.coeffs.dtype == np.float64 and not rec.coeffs.flags.writeable


def test_parsed_history_keeps_coefficients_as_read_only_float64(tmp_path):
    space = SearchSpace(J=20, K=10, c_max=30.0)  # full scale: dim 924
    rng = np.random.default_rng(11)
    n = 200
    log = tmp_path / "log.jsonl"
    with open(log, "w") as fh:
        for i in range(n):
            coeffs = rng.uniform(-space.c_max, space.c_max, space.dim).tolist()
            fh.write(make_record(i, 0.5, coeffs).to_json_line() + "\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        history, torn = optimizer._parse_log(log, space)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert torn == 0 and len(history) == n
    # a float64 is 8 bytes; a list of Python floats holds ~32 per coefficient
    assert retained / (n * space.dim) < 12
    for rec in history:
        assert rec.coeffs.dtype == np.float64 and rec.coeffs.shape == (space.dim,)
        with pytest.raises(ValueError):
            rec.coeffs[0] = 0.0
        with pytest.raises(ValueError):
            rec.coeffs.flags.writeable = True


# JSON number and literal spellings a log line may carry, each read as float(json.loads(text))
ACCEPTED_COEFF_TEXT = [
    b"true",
    b"false",
    b"0",
    b"-0.0",
    b"5e-324",
    b"1.7976931348623157e308",
    b"18446744073709551615",
]


def test_parse_reads_every_accepted_coefficient_spelling_exactly(space, tmp_path):
    n = len(ACCEPTED_COEFF_TEXT)
    coeffs = ["@"] * n + [0.25] * (space.dim - n)
    text = json.dumps(dict(zip(optimizer._LOG_FIELDS, (0, "qmc", 0.5, 1.0, 0.5, coeffs, 0.0)))).encode()
    for spelling in ACCEPTED_COEFF_TEXT:
        text = text.replace(b'"@"', spelling, 1)
    log = tmp_path / "log.jsonl"
    log.write_bytes(text + b"\n")
    history, torn = optimizer._parse_log(log, space)
    assert torn == 0 and len(history) == 1
    expected = [float(json.loads(spelling)) for spelling in ACCEPTED_COEFF_TEXT]
    got = history[0].coeffs[:n]
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def parse_outcome(log, space):
    """_parse_log's (records, torn), or its refusal as (line_no, message)."""
    try:
        return optimizer._parse_log(log, space)
    except CorruptTrialLog as exc:
        return exc.line_no, str(exc)


def assert_same_outcome(got, want):
    if isinstance(want[0], int):
        assert got == want
    else:
        assert_records_bitwise_equal(got[0], want[0])
        assert got[1] == want[1]


class SplitReader:
    """_parse_log with the two-process split forced on small logs.

    Records the children it starts and what each piped back (None where it
    failed and its lines were scanned in-process).
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.children, self.tails = [], []
        popen, tail_result = subprocess.Popen, optimizer._tail_result

        def spawn(*args, **kwargs):
            self.children.append(popen(*args, **kwargs))
            return self.children[-1]

        def tail(child, dim):
            self.tails.append(tail_result(child, dim))
            return self.tails[-1]

        monkeypatch.setattr(optimizer.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(subprocess, "Popen", spawn)
        monkeypatch.setattr(optimizer, "_tail_result", tail)

    def parse(self, log, space, at_line=None):
        """The split parse; with ``at_line``, the child's lines start at that (1-based) line."""
        self.monkeypatch.setattr(optimizer, "_SPLIT_MIN_BYTES", 0)
        if at_line is not None:
            data = log.read_bytes()
            start = sum(len(line) for line in data.splitlines(keepends=True)[: at_line - 1])
            # the split is the first line start after this offset: the previous line's last bytes
            self.monkeypatch.setattr(optimizer, "_SPLIT_FRACTION", (start - 1) / len(data))
            with open(log, "rb") as fh:
                assert optimizer._split_offset(fh) == start
        return parse_outcome(log, space)

    def serial(self, log, space):
        self.monkeypatch.setattr(optimizer, "_SPLIT_MIN_BYTES", 1 << 62)
        return parse_outcome(log, space)

    def assert_all_stopped(self):
        assert self.children and all(child.poll() is not None for child in self.children)


@pytest.fixture
def split_reader(monkeypatch):
    return SplitReader(monkeypatch)


def full_scale_log(path, n, seed=11):
    """A log of n records with random full-scale coefficients (dim 924); returns its space."""
    space = SearchSpace(J=20, K=10, c_max=30.0)
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for i in range(n):
            coeffs = rng.uniform(-space.c_max, space.c_max, space.dim).tolist()
            fh.write(make_record(i, 0.5, coeffs).to_json_line() + "\n")
    return space


def test_split_parse_reads_the_serial_history(tiny_ring, tmp_path, split_reader):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=3, seed=42), tiny_ring, log)
    space = SearchSpace.from_ring_config(tiny_ring)
    serial = split_reader.serial(log, space)
    assert len(serial[0]) == 9
    for at_line in [None, *range(2, 10)]:
        history, torn = split_reader.parse(log, space, at_line)
        assert_same_outcome((history, torn), serial)
        assert split_reader.tails[-1] is not None  # the child's lines, not an in-process fallback
        for rec in history:
            assert rec.coeffs.dtype == np.float64 and not rec.coeffs.flags.writeable
            with pytest.raises(ValueError):
                rec.coeffs.flags.writeable = True
    assert len(split_reader.children) == 9
    split_reader.assert_all_stopped()


def test_split_parse_reads_a_full_scale_log_as_read_only_float64(tmp_path, split_reader):
    log = tmp_path / "log.jsonl"
    space = full_scale_log(log, 40)
    serial = split_reader.serial(log, space)
    history, torn = split_reader.parse(log, space)
    assert_same_outcome((history, torn), serial)
    assert split_reader.tails == [split_reader.tails[0]] and split_reader.tails[0] is not None
    assert 0 < len(split_reader.tails[0][0]) < 40
    for rec in history:
        assert rec.coeffs.dtype == np.float64 and rec.coeffs.shape == (space.dim,)
        with pytest.raises(ValueError):
            rec.coeffs[0] = 0.0
        with pytest.raises(ValueError):
            rec.coeffs.flags.writeable = True
        # a record kept alone (a study's best) keeps only its own coefficients alive
        assert type(rec.coeffs.base) is bytes and len(rec.coeffs.base) == space.dim * 8


SPLIT_MALFORMED_LINES = {
    **{name: bad for name, (_, bad) in MALFORMED_LINES.items()},
    # equal to the line's index as a number, which the child cannot check on its first line
    "trial_id its index as a float": lambda rec: with_field_text("trial_id", b"%d.0" % rec["trial_id"])(rec),
    "trial_id its index plus one": lambda rec: with_field_text("trial_id", b"%d" % (rec["trial_id"] + 1))(rec),
}


@pytest.mark.parametrize("where", ["child's first line", "inside the child's lines"])
@pytest.mark.parametrize("bad", SPLIT_MALFORMED_LINES.values(), ids=list(SPLIT_MALFORMED_LINES))
def test_split_parse_refuses_every_malformed_line_as_serial(tiny_ring, tmp_path, split_reader, bad, where):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=0, seed=2), tiny_ring, log)
    lines = log.read_bytes().splitlines(keepends=True)
    lines[3] = bad(json.loads(lines[3])) + b"\n"
    log.write_bytes(b"".join(lines))
    space = SearchSpace.from_ring_config(tiny_ring)
    serial = split_reader.serial(log, space)
    assert serial[0] == 4
    got = split_reader.parse(log, space, at_line=4 if where == "child's first line" else 3)
    assert got == serial
    if where == "inside the child's lines":
        assert split_reader.tails[-1] is not None  # refused by the child, not by a fallback scan
    split_reader.assert_all_stopped()


@pytest.mark.parametrize("edit", ["dropped", "repeated"])
def test_split_parse_refuses_a_trial_id_skip_across_the_split(tiny_ring, tmp_path, split_reader, edit):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=0, seed=2), tiny_ring, log)
    lines = log.read_bytes().splitlines(keepends=True)
    # line 4 holds trial 4 (trial 3 dropped) or trial 2 (repeated); the child's ids run on from it
    lines = lines[:3] + lines[4:] if edit == "dropped" else lines[:3] + lines[2:]
    log.write_bytes(b"".join(lines))
    space = SearchSpace.from_ring_config(tiny_ring)
    serial = split_reader.serial(log, space)
    assert serial[0] == 4 and "is not 3" in serial[1]
    assert split_reader.parse(log, space, at_line=4) == serial
    assert split_reader.parse(log, space, at_line=3) == serial
    split_reader.assert_all_stopped()


def test_split_parse_drops_a_torn_final_record_as_serial(tiny_ring, tmp_path, split_reader):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=0, seed=2), tiny_ring, log)
    whole = log.read_bytes()
    last = len(whole.splitlines(keepends=True)[-1])
    space = SearchSpace.from_ring_config(tiny_ring)
    for cut in (1, 2, last // 2, last - 1):
        log.write_bytes(whole[: len(whole) - last + cut])
        serial = split_reader.serial(log, space)
        assert len(serial[0]) == 5 and serial[1] == cut
        for at_line in (4, 6):  # the torn line among the child's, or its only one
            assert_same_outcome(split_reader.parse(log, space, at_line), serial)
    split_reader.assert_all_stopped()


def test_split_parse_scans_in_process_when_the_child_cannot_start(tiny_ring, tmp_path, split_reader, monkeypatch):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=3, seed=42), tiny_ring, log)
    space = SearchSpace.from_ring_config(tiny_ring)
    serial = split_reader.serial(log, space)
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    assert_same_outcome(split_reader.parse(log, space, at_line=5), serial)
    assert split_reader.children == [] and split_reader.tails == []


def test_split_parse_scans_in_process_when_the_child_fails(tiny_ring, tmp_path, split_reader, monkeypatch):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=3, seed=42), tiny_ring, log)
    space = SearchSpace.from_ring_config(tiny_ring)
    serial = split_reader.serial(log, space)
    failing = tmp_path / "failing-python"
    failing.write_text("#!/bin/sh\necho '{\"heads\": [[5' \nexit 3\n")
    failing.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(failing))
    assert_same_outcome(split_reader.parse(log, space, at_line=5), serial)
    assert split_reader.tails == [None]
    split_reader.assert_all_stopped()


@pytest.mark.parametrize("bad_line", [10, 30])
def test_split_parse_stops_its_child_after_a_refusal(tmp_path, split_reader, bad_line):
    log = tmp_path / "log.jsonl"
    space = full_scale_log(log, 40)
    lines = log.read_bytes().splitlines(keepends=True)
    lines[bad_line - 1] = b"[1, 2]\n"
    log.write_bytes(b"".join(lines))
    assert split_reader.parse(log, space, at_line=20) == (bad_line, f"trial log line {bad_line}: not a JSON object: list")
    split_reader.assert_all_stopped()


def test_split_parse_stops_its_child_after_an_exception(tmp_path, split_reader, monkeypatch):
    log = tmp_path / "log.jsonl"
    space = full_scale_log(log, 40)

    def interrupted(*args):
        raise KeyboardInterrupt

    # raised in this process after its own lines, while the child scans or writes ~150 KB
    monkeypatch.setattr(optimizer, "_records", interrupted)
    with pytest.raises(KeyboardInterrupt):
        split_reader.parse(log, space, at_line=20)
    split_reader.assert_all_stopped()


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
def test_log_longer_than_the_budget_is_refused_and_kept(tiny_ring, tmp_path, split_reader, split, torn):
    log = tmp_path / "log.jsonl"
    run_study(StudyConfig(n_qmc=6, n_refine=0, seed=2), tiny_ring, log)
    if torn:
        log.write_bytes(log.read_bytes() + b'{"trial_id": 6, "pha')
    before = log.read_bytes()
    split_reader.monkeypatch.setattr(optimizer, "_SPLIT_MIN_BYTES", 0 if split else 1 << 62)
    with pytest.raises(CorruptTrialLog) as err:
        run_study(StudyConfig(n_qmc=4, n_refine=1, seed=2), tiny_ring, log)
    assert err.value.line_no == 6 and str(err.value) == "trial log line 6: log longer than the study budget"
    assert log.read_bytes() == before
    assert len(split_reader.children) == split


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(n_qmc=0, n_refine=0)
    with pytest.raises(ValueError):
        StudyConfig(strategy="annealing")
    with pytest.raises(ValueError, match="seed"):
        StudyConfig(seed=-1)
    # retired: only 1, the single-trial refine loop, is accepted
    with pytest.raises(ValueError, match="parallel_width"):
        StudyConfig(parallel_width=2)
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


def test_zero_speed_at_rk4_midpoint_only_is_infeasible(tiny_ring):
    ring = tiny_ring
    h = (ring.t1 - ring.t0) / ring.n_time
    # abscissae as integrate_wave_system forms them: t0 + i h, then + h
    others = np.array(
        [ring.t0 - ring.fd_step, ring.t0, ring.t0 + ring.fd_step]
        + [ring.t0 + i * h + h for i in range(ring.n_time)]
    )
    # eps_v sits a relative 1e-9 above the midpoint speed, so the two paths' rounding cannot flip it
    tensor, eps_v = midpoint_dip(ring)
    v_other = kinematics_at(others, ring.s_grid, tensor, ring).v
    assert eps_v < float(v_other.min())
    assert evaluate_tensor(tensor, ring)[0] > 0.0
    assert evaluate_tensor(tensor, dataclasses.replace(ring, eps_v=eps_v)) == (0.0, 0.0, 0.0)


def midpoint_dip(ring):
    """A tensor whose speed nearly vanishes at the fourth RK4 midpoint, and an eps_v just above it.

    The margin covers the rounding between kinematics_at's speed and the trial grid's.
    """
    h = (ring.t1 - ring.t0) / ring.n_time
    # the abscissa as integrate_wave_system forms it: t0 + i h, then + h/2
    midpoint = np.array([ring.t0 + 3 * h + 0.5 * h])
    c = np.zeros((2, 2, ring.J + 1, ring.K + 1))
    c[0, 1, 0, 0] = -0.999 * (ring.K + 1) * transport_gamma(midpoint[0])[1]
    tensor = CoefficientTensor(c)
    return tensor, float(kinematics_at(midpoint, ring.s_grid, tensor, ring).v.min()) * (1.0 + 1e-9)


@pytest.mark.parametrize("ring", [DESK, RingConfig()], ids=["desk", "full"])
def test_evaluate_stack_equals_one_trial_at_a_time(ring):
    dip, eps_v = midpoint_dip(ring)
    ring = dataclasses.replace(ring, eps_v=eps_v)
    # gamma1 = 200 (t - t0) sin(4 pi s) turns the velocity against R_s on every column
    c = np.zeros((2, 2, ring.J + 1, ring.K + 1))
    c[0, 0, 0, 2] = 200.0 * (ring.K + 1)
    closed = CoefficientTensor(c)
    # a constant gamma1_t = -Gamma'(t0) stops every trajectory at t0 (exactly, at full scale)
    c = np.zeros((2, 2, ring.J + 1, ring.K + 1))
    c[0, 1, 0, 0] = -(ring.K + 1.0) * transport_gamma(ring.t0)[1]
    stop = CoefficientTensor(c)
    drawn = sample_qmc(SearchSpace.from_ring_config(ring), 5, seed=2)
    tensors = [drawn[0], dip, drawn[1], closed, drawn[2], stop, *drawn[3:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the kernels write into buffers kept per stack size: what leaves them must not be one
        field, (init, feasible) = axis_field(drawn[0], ring), aligned_initial_state(drawn[0], ring)
        # astuple copies every array
        kept = dataclasses.astuple(field), dataclasses.astuple(init), feasible.copy()
        # a stationary point on a row closes every column, as aligning nowhere does
        for tensor in (dip, stop, closed):
            assert not axis_field(tensor, ring).feasible.any()
        # the oracle is the full report of each tensor's own field, not the scoring path
        reports = [madc(axis_field(tensor, ring), ring) for tensor in tensors]
        want = [(report.score, report.madc, report.feasible_fraction) for report in reports]
        assert want[1] == want[3] == want[5] == (0.0, 0.0, 0.0)
        assert all(result[0] > 0.0 for i, result in enumerate(want) if i not in (1, 3, 5))
        assert [evaluate_tensor(tensor, ring) for tensor in tensors] == want
        # a size's buffers hold the same results after stacks of other sizes used theirs
        for size in (8, 1, 3, 8):
            got = [r for i in range(0, 8, size) for r in evaluate_stack(tensors[i : i + size], ring)]
            assert got == want, size
            assert all(type(x) is float for result in got for x in result)
    np.testing.assert_equal((dataclasses.astuple(field), dataclasses.astuple(init), feasible), kept)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults through resource, as Linux reports them")
def test_stacked_kernel_reuses_its_buffers():
    resource = pytest.importorskip("resource")
    ring = RingConfig()
    tensors = sample_qmc(SearchSpace.from_ring_config(ring), optimizer.QMC_STACK, seed=0)
    for _ in range(3):
        evaluate_stack(tensors, ring)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        evaluate_stack(tensors, ring)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # arrays of a full-scale stack that are new on every call are handed back to the OS and
    # faulted in again: ~2,900 faults per call
    assert faults / 20 < 1.0


def test_resume_across_qmc_stacks_is_byte_identical(tiny_ring, tmp_path):
    study = StudyConfig(n_qmc=20, n_refine=2, seed=6)
    assert study.n_qmc > 2 * optimizer.QMC_STACK
    run_study(study, tiny_ring, tmp_path / "full.jsonl")
    # stopped inside the first stack, then inside the second
    for limit in (5, 13):
        assert limit % optimizer.QMC_STACK
        run_study(study, tiny_ring, tmp_path / "part.jsonl", limit=limit)
        assert sum(1 for _ in open(tmp_path / "part.jsonl")) == limit
    run_study(study, tiny_ring, tmp_path / "part.jsonl")
    assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()


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


@pytest.mark.parametrize("d", [1, 2, 7, 140, 924, 21201])
def test_sobol_sampler_matches_scipy_scramble_bit_for_bit(d):
    # the numpy stream against scipy's own: a scipy that changes its direction
    # table or its scramble draws fails here.  Skips 7/8 and 1023/1024 sit where
    # the stream needs one more direction number, and each split draw crosses a
    # power of two; the largest dimension runs at one seed and skip (~1.5 s)
    from scipy.stats import qmc

    space = types.SimpleNamespace(dim=d, c_max=1.0, unflatten=lambda flat: flat)
    seeds, skips = ((7,), (1023,)) if d == 21201 else ((0, 3, 99), (0, 1, 7, 8, 13, 1023, 1024))
    for seed in seeds:
        for skip in skips:
            stream = optimizer._sobol_stream(space, seed, skip + 7)
            got = optimizer._draw_qmc(stream, space, skip, 3)
            got += optimizer._draw_qmc(stream, space, skip + 3, 4)
            ref = qmc.Sobol(d, scramble=True, seed=seed)
            if skip:
                ref.fast_forward(skip)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                want = 2.0 * np.vstack([ref.random(3), ref.random(4)]) - 1.0
            np.testing.assert_array_equal(np.array(got), want, err_msg=f"seed {seed}, skip {skip}")


@pytest.mark.parametrize("d", [1, 2, 140, 924])
def test_sobol_stream_matches_the_integers_scramble(d):
    # the raw-word draw against the rng.integers draws it replaced, on the
    # installed numpy and without scipy; 8 and 9 points straddle a fourth
    # direction number, 1024 is the last count with ten, 10050 the full study's
    space = types.SimpleNamespace(dim=d)
    for seed in (0, 3, 99, 2**40 + 1):
        for n_points in (1, 2, 8, 9, 1024, 10050):
            got = optimizer._sobol_stream(space, seed, n_points)
            want = sobol_scramble_reference(optimizer._direction_numbers(d), seed, n_points)
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                np.testing.assert_array_equal(g, w, err_msg=f"seed {seed}, {n_points} points")


def test_run_study_builds_one_sobol_sampler_per_call(monkeypatch, tiny_ring, tmp_path):
    built = []
    build = optimizer._sobol_stream

    def counting_stream(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(optimizer, "_sobol_stream", counting_stream)
    study = StudyConfig(n_qmc=7, n_refine=1, seed=4)
    space = SearchSpace.from_ring_config(tiny_ring)
    run_study(study, tiny_ring, tmp_path / "full.jsonl")
    assert len(built) == 1
    # killed after 4 trials, inside the first QMC stack
    run_study(study, tiny_ring, tmp_path / "part.jsonl", limit=4)
    assert len(built) == 2
    result = run_study(study, tiny_ring, tmp_path / "part.jsonl")
    assert len(built) == 3
    monkeypatch.undo()
    expected = sample_qmc(space, 4, seed=4) + sample_qmc(space, 3, seed=4, skip=4)
    logged = [rec.coeffs for rec in result.history if rec.phase == "qmc"]
    assert len(logged) == len(expected) == 7
    for coeffs, tensor in zip(logged, expected):
        assert coeffs.tolist() == [float(x) for x in tensor.flatten()]
    # a study past its QMC phase never builds the stream
    monkeypatch.setattr(optimizer, "_sobol_stream", counting_stream)
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


def test_refine_center_ties_go_to_first_maximum(space, tiny_ring):
    history = [
        make_record(0, 0.2, np.full(space.dim, 1.0)),
        make_record(1, 0.7, np.full(space.dim, 2.0)),
        make_record(2, 0.7, np.full(space.dim, 3.0)),
        make_record(3, 0.9, np.full(space.dim, 4.0), feasible_fraction=0.0),
        make_record(4, 0.7, np.full(space.dim, 5.0), phase="refine"),
        make_record(5, 0.7, np.full(space.dim, 6.0), phase="refine"),
    ]
    assert optimizer._refine_state(history[:3], space.c_max)[1].trial_id == 1
    sigma, best_feasible, best_refine = optimizer._refine_state(history, space.c_max)
    assert (best_feasible.trial_id, best_refine.trial_id) == (1, 4)
    # perturb_best: the infeasible 0.9 is skipped; of the four 0.7s the first is the center
    got = propose_refinements(history, StudyConfig(seed=3), tiny_ring)
    rng = np.random.default_rng(np.random.SeedSequence((3, 6)))
    want = space.clip(2.0 + sigma * rng.standard_normal(space.dim))
    np.testing.assert_array_equal(got.flatten(), want)
    # structured: of the two 0.7 refine trials the first is the center
    got = propose_refinements(history, StudyConfig(seed=3, strategy="structured"), tiny_ring)
    rng = np.random.default_rng(np.random.SeedSequence((3, 6)))
    want = space.clip(5.0 + sigma * rng.standard_normal(space.dim))
    want = want.reshape(got.c.shape)
    want[0, :, 0, :] = feasibility_ceiling(tiny_ring).row
    np.testing.assert_array_equal(got.c, want)


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
    assert not axis_field(row_tensor(row, DESK), DESK).feasible.any()
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
    study = StudyConfig(seed=4, strategy="structured")
    rng = np.random.default_rng(17)
    history = [
        make_record(i, float(rng.random()), rng.uniform(-30, 30, space.dim))
        for i in range(6)
    ]
    first = propose_refinements(history, study, tiny_ring)
    # the first refine trial is the ceiling row on an otherwise zero tensor
    np.testing.assert_array_equal(first.c, row_tensor(ceiling.row, tiny_ring).c)
    # unlike perturb_best, it needs no feasible trial to start from
    infeasible = [make_record(0, 0.0, np.zeros(space.dim), feasible_fraction=0.0)]
    alone = propose_refinements(infeasible, study, tiny_ring)
    np.testing.assert_array_equal(alone.c, first.c)
    refined = history + [make_record(6, 0.9, rng.uniform(-30, 30, space.dim), phase="refine")]
    later = [
        propose_refinements(padded(refined, n, space.dim), study, tiny_ring) for n in (7, 8, 9)
    ]
    for p in [first] + later:
        assert np.all(np.abs(p.c) <= space.c_max)
        np.testing.assert_array_equal(p.c[0, :, 0, :], ceiling.row)
    assert not np.array_equal(later[0].c, later[1].c)
    again = propose_refinements(padded(refined, 8, space.dim), study, tiny_ring)
    assert np.array_equal(again.c, later[1].c)


def test_feasibility_ceiling_is_cached_read_only(tiny_ring):
    ceiling = feasibility_ceiling(tiny_ring)
    assert feasibility_ceiling(dataclasses.replace(tiny_ring)) is ceiling
    with pytest.raises(ValueError, match="read-only"):
        ceiling.row[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ceiling.feasible[0] = not ceiling.feasible[0]


def test_run_study_structured_deterministic_and_resumable(tiny_ring, tmp_path):
    feasibility_ceiling.cache_clear()
    study = StudyConfig(n_qmc=6, n_refine=3, seed=42, strategy="structured")
    full = run_study(study, tiny_ring, tmp_path / "a.jsonl")
    run_study(study, tiny_ring, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    run_study(study, tiny_ring, tmp_path / "part.jsonl", limit=2)
    assert sum(1 for _ in open(tmp_path / "part.jsonl")) == 2
    run_study(study, tiny_ring, tmp_path / "part.jsonl")
    assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    # one LP solve per ring config in the process, not per study, resume or refine trial
    info = feasibility_ceiling.cache_info()
    assert (info.misses, info.hits) == (1, 8)

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
