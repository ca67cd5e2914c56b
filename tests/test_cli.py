import csv
import dataclasses
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import vortexlab.cli as cli
import vortexlab.optimizer as optimizer
import vortexlab.verify as verify
from vortexlab import floattext
from vortexlab.cli import ConfigError, load_configs, main
from vortexlab.optimizer import SearchSpace, StudyConfig, run_study, sample_qmc
from vortexlab.plots import render_ring_svg
from vortexlab.ring_model import CoefficientTensor, RingConfig, phi_eval
from vortexlab.wave_dynamics import axis_field

from oracles import read_grid_csv_reference

DESK_CONFIG = """
# desk-scale setup
J = 2
K = 2
n_s = 16
n_time = 8
delta = 0.02
t0 = 1/48
t1 = 1/24
n_qmc = 3
n_refine = 1
seed = 11
"""


@pytest.fixture
def desk_config_path(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CONFIG)
    return path


def read_grid(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def test_shipped_configs_parse():
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    ring, study = load_configs(configs / "desk.cfg")
    assert (ring.J, ring.K, ring.n_s) == (4, 6, 64)
    assert (study.n_qmc, study.n_refine) == (200, 20)
    ring, study = load_configs(configs / "full.cfg")
    assert ring == cli.RingConfig()  # documents the built-in defaults
    assert (study.n_qmc, study.n_refine, study.seed) == (10000, 50, 0)


def test_load_configs_defaults():
    ring, study = load_configs(None)
    assert ring.J == 20 and ring.K == 10 and ring.c_max == 30.0
    assert study.n_qmc == 10000 and study.n_refine == 50


def test_load_configs_key_value(desk_config_path):
    ring, study = load_configs(desk_config_path)
    assert ring.J == 2 and ring.n_s == 16
    assert ring.t0 == pytest.approx(1 / 48)
    assert study.n_qmc == 3 and study.seed == 11


def test_load_configs_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"J": 3, "K": 4, "n_qmc": 5, "strategy": "structured"}))
    ring, study = load_configs(path)
    assert ring.J == 3 and ring.K == 4
    assert study.n_qmc == 5 and study.strategy == "structured"


def test_load_configs_unknown_key_fails_closed(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("J = 2\nn_sweep = 7\n")
    with pytest.raises(ConfigError, match="n_sweep"):
        load_configs(path)


def test_load_configs_bad_value(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("delta = wide\n")
    with pytest.raises(ConfigError):
        load_configs(path)


def test_simulate_baseline(tmp_path, desk_config_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(desk_config_path), "--out", str(out)])
    assert code == 0
    header, rows = read_grid(out / "grid.csv")
    assert header == cli.GRID_HEADER
    assert len(rows) == 9 * 16  # (n_time + 1) * n_s
    corr = np.array([float(r[11]) for r in rows])
    finite = corr[~np.isnan(corr)]
    assert np.all((finite >= -1.0) & (finite <= 1.0))
    report = json.loads((out / "madc_report.json").read_text())
    assert 0.0 < report["feasible_fraction"] < 1.0
    assert 0.0 <= report["madc"] <= 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"grid.csv", "madc_report.json"}
    assert manifest["ring_config"]["n_s"] == 16


def test_load_configs_angle_convention_is_unknown(tmp_path):
    # retired keys: a config that names one exits 2 like any other unknown key
    path = tmp_path / "cfg"
    for key, value in (("angle_convention", "turns"), ("parallel_width", "1")):
        path.write_text(f"J = 2\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_configs(path)


def json_config(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"J": 2, "K": 2, "n_s": 16, "n_time": 8, **values}))
    return path


def test_json_config_fractional_int_key_exits_2(tmp_path, capsys):
    cfgfile = json_config(tmp_path, {"J": 2.5})
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'J'" in err


def test_json_config_fractional_seed_exits_2(tmp_path, capsys):
    cfgfile = json_config(tmp_path, {"seed": 1.5, "n_qmc": 1, "n_refine": 0})
    study = tmp_path / "study.jsonl"
    assert main(["optimize", "--config", str(cfgfile), "--study", str(study)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'seed'" in err
    assert not study.exists()


def test_json_config_bool_int_key_exits_2(tmp_path, capsys):
    # a JSON bool is not an integer, although Python's bool subclasses int
    cfgfile = json_config(tmp_path, {"J": True})
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'J'" in err
    with pytest.raises(ConfigError):
        load_configs(json_config(tmp_path, {"delta": False}))


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_coeff_file_not_an_object_exits_2(tmp_path, desk_config_path, capsys, command):
    coeffs = tmp_path / "c.json"
    coeffs.write_text("[1, 2]\n")
    args = ["--config", str(desk_config_path), "--coeffs", str(coeffs), "--out", str(tmp_path / "o")]
    assert main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object" in err


def test_simulate_missing_coeffs_exits_2(tmp_path, desk_config_path, capsys):
    code = main(
        [
            "simulate",
            "--config",
            str(desk_config_path),
            "--coeffs",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("J = 2\nwhatever = 1\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "line",
    ["c_max = inf", "c_max = nan", "fd_step_factor = 0", "eps_v = -1", "eps_kappa = 0", "eps_align = -0.5"],
)
@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_non_finite_or_zero_step_exits_2(tmp_path, desk_config_path, capsys, command, line):
    # invalid input, not a traceback in optimize or a NaN score from simulate
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(desk_config_path.read_text() + line + "\n")
    out = tmp_path / "o"
    args = {"simulate": ["--out", str(out)], "optimize": ["--study", str(out / "study.jsonl")]}
    assert main([command, "--config", str(cfgfile)] + args[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split()[0] in err
    assert not out.exists()


def test_optimize_dimension_above_sobol_limit_exits_2(tmp_path, capsys):
    # dim = 4 (J + 1) (K + 1) = 22020 exceeds the Sobol limit of 21201
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text("J = 1100\nK = 4\nn_s = 16\nn_time = 8\nn_qmc = 1\nn_refine = 0\n")
    study = tmp_path / "study.jsonl"
    code = main(["optimize", "--config", str(cfgfile), "--study", str(study)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Sobol limit" in err
    assert not study.exists()


@pytest.mark.parametrize("strategy, n_qmc", [("perturb_best", 3), ("structured", 0)])
@pytest.mark.parametrize("where", ["flag", "VAL_SEED", "config"])
def test_optimize_negative_seed_exits_2(
    tmp_path, desk_config_path, monkeypatch, capsys, strategy, n_qmc, where
):
    # refused before the log exists; with no QMC phase the log used to be opened first
    text = f"{desk_config_path.read_text()}strategy = {strategy}\nn_qmc = {n_qmc}\n"
    config = tmp_path / "neg.cfg"
    config.write_text(text + ("seed = -1\n" if where == "config" else ""))
    study = tmp_path / "neg" / "study.jsonl"
    argv = ["optimize", "--config", str(config), "--study", str(study)]
    if where == "VAL_SEED":
        monkeypatch.setenv("VAL_SEED", "-1")
    code = main(argv + (["--seed", "-1"] if where == "flag" else []))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err
    assert not study.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--study", "s.jsonl", "--parallel", "2"],
        ["render", "--grid", "grid.csv", "--format", "svg"],
    ],
)
def test_retired_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_infeasible_everywhere_exits_3(tmp_path, capsys):
    # the alignment cosine never exceeds 1, so eps_align = 2 aligns nowhere
    cfgfile = tmp_path / "unaligned.cfg"
    cfgfile.write_text("J = 2\nK = 2\nn_s = 16\nn_time = 8\neps_align = 2\n")
    code = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "alignment" in capsys.readouterr().err


def test_simulate_stationary_point_exits_3(tmp_path, capsys):
    # the cosine j=0 gamma1 row cancels Gamma'(t0) = 12 pi sin(pi/4) at s = 0, so v(t0, 0) = 0
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    arr = np.zeros((2, 2, 5, 7))
    arr[0, 1, 0, :] = -12.0 * np.pi * np.sin(np.pi / 4.0)
    coeffs = tmp_path / "c.json"
    CoefficientTensor(arr).save(coeffs)
    out = tmp_path / "o"
    args = ["--config", str(configs / "desk.cfg"), "--coeffs", str(coeffs), "--out", str(out)]
    assert main(["simulate"] + args) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_unreadable_or_unwritable_path_exits_2(tmp_path, desk_config_path, capsys):
    config = ["--config", str(desk_config_path)]
    assert main(["simulate", *config, "--coeffs", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    existing = tmp_path / "file"
    existing.write_text("")
    assert main(["simulate", *config, "--out", str(existing)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_time_exits_2(tmp_path, desk_config_path, capsys):
    config = ["--config", str(desk_config_path)]
    assert main(["simulate", *config, "--out", str(tmp_path / "sim")]) == 0
    coeffs = tmp_path / "c.json"
    CoefficientTensor.zeros(2, 2).save(coeffs)
    spectrum, figs = tmp_path / "spectrum", tmp_path / "figs"
    args = ["spectrum", *config, "--coeffs", str(coeffs), "--time", "nan", "--out", str(spectrum)]
    assert main(args) == 2
    grid = tmp_path / "sim" / "grid.csv"
    assert main(["render", "--grid", str(grid), "--times", "inf", "--out", str(figs)]) == 2
    assert capsys.readouterr().err.count("error: bad time") == 2
    assert not spectrum.exists() and not figs.exists()


def test_exception_outside_exit_table_propagates(monkeypatch):
    # a bug keeps its traceback: main maps only the input errors of its table
    def broken(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    with pytest.raises(RuntimeError, match="bug"):
        main(["spectrum", "--coeffs", "c.json"])


def test_repeated_calls_share_no_state(tmp_path, capsys):
    # main reuses one parser per process: a flag given to one call is not a default of the next
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("J = 2\nK = 4\nn_s = 16\nn_time = 8\n")
    arr = np.zeros((2, 2, 3, 5))
    arr[0, 1, 1, 1] = 5.0  # a time-dependent mode: its energy differs at t0 and t1
    coeffs = tmp_path / "c.json"
    CoefficientTensor(arr).save(coeffs)
    tables = {}
    for name, time in (("initial", ["--time", "initial"]), ("default", []), ("terminal", ["--time", "terminal"])):
        out = tmp_path / name
        assert main(["spectrum", "--coeffs", str(coeffs), "--config", str(cfgfile), "--out", str(out)] + time) == 0
        tables[name] = (out / "spectrum.csv").read_bytes()
    assert tables["default"] == tables["terminal"] != tables["initial"]


def _parse_outcome(parse, argv, capsys):
    """(namespace dict or exit code, stdout, stderr) of ``parse(argv)``."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def test_repeated_calls_parse_as_a_fresh_parser(monkeypatch, capsys):
    # after a usage error or --version, main's next call parses as a new parser does
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: seen.append(args) or 0)

    def via_main(argv):
        assert main(argv) == 0
        return seen.pop()

    sequence = [
        ["spectrum", "--coeffs", "c.json", "--time", "initial"],
        ["spectrum", "--coeffs", "c.json"],
        ["spectrum", "--time", "initial"],  # --coeffs is required: usage error, exit 2
        ["spectrum", "--coeffs", "c.json"],
        ["--version"],  # exit 0
        ["spectrum", "--coeffs", "c.json", "--out", "o"],
        ["bogus"],  # exit 2
        ["spectrum", "--coeffs", "c.json"],
    ]
    outcomes = [_parse_outcome(via_main, argv, capsys) for argv in sequence]
    fresh = [_parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys) for argv in sequence]
    assert outcomes == fresh
    assert [outcome[0] for outcome in outcomes[2::2]] == [2, 0, 2]
    assert outcomes[1][0]["time"] == outcomes[3][0]["time"] == "terminal"


def test_config_annotations_are_parsed_kinds():
    # _parse_scalar reads a key's kind from its field annotation
    for config in (RingConfig, StudyConfig):
        for field in dataclasses.fields(config):
            assert field.type in ("int", "float", "str"), (config.__name__, field.name)


def test_optimize_writes_outputs_and_is_deterministic(tmp_path, desk_config_path, capsys):
    out_a = tmp_path / "a" / "study.jsonl"
    out_b = tmp_path / "b" / "study.jsonl"
    for out in (out_a, out_b):
        code = main(
            ["optimize", "--config", str(desk_config_path), "--study", str(out), "--seed", "7"]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert sum(1 for _ in open(out_a)) == 4  # 3 qmc + 1 refine
    best = CoefficientTensor.load(out_a.parent / "best_coeffs.json")
    assert best.J == 2 and best.K == 2
    summary = json.loads((out_a.parent / "study_summary.json").read_text())
    assert summary["n_trials"] == 4
    assert summary["seed"] == 7
    captured = capsys.readouterr().out
    assert "best trial" in captured


def test_manifest_digest_streams_the_file(tmp_path):
    data = np.random.default_rng(5).bytes(8 << 20)
    path = tmp_path / "trials.jsonl"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = cli._sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    # reading the whole file would hold its 8 MB at once
    assert peak < 2_000_000


def test_optimize_flag_defaults_are_full_scale(tmp_path):
    parser = cli.build_parser()
    args = parser.parse_args(["optimize", "--study", str(tmp_path / "s.jsonl")])
    ring, study = load_configs(args.config)
    assert study.n_qmc == 10000 and study.n_refine == 50
    assert ring.c_max == 30.0


def test_optimize_cli_resumes_partial_study(tmp_path, desk_config_path):
    full = tmp_path / "full" / "study.jsonl"
    part = tmp_path / "part" / "study.jsonl"
    main(["optimize", "--config", str(desk_config_path), "--study", str(full), "--seed", "7"])
    ring, study = load_configs(desk_config_path)
    study = dataclasses.replace(study, seed=7)
    part.parent.mkdir(parents=True)
    run_study(study, ring, part, limit=2)  # interrupted study
    code = main(["optimize", "--config", str(desk_config_path), "--study", str(part), "--seed", "7"])
    assert code == 0
    assert part.read_bytes() == full.read_bytes()


def test_optimize_corrupt_log_exits_4(tmp_path, desk_config_path, capsys):
    study = tmp_path / "study.jsonl"
    main(["optimize", "--config", str(desk_config_path), "--study", str(study), "--seed", "7"])
    text = study.read_text().splitlines()
    # invalid JSON, and a valid JSON value that is not a record
    for bad in ("{bad json", "[1, 2]"):
        study.write_text(text[0] + "\n" + bad + "\n")
        code = main(
            ["optimize", "--config", str(desk_config_path), "--study", str(study), "--seed", "7"]
        )
        assert code == 4
        assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_optimize_log_longer_than_the_budget_exits_4_and_keeps_it(
    tmp_path, desk_config_path, capsys, monkeypatch, split
):
    study = tmp_path / "study.jsonl"
    args = ["optimize", "--config", str(desk_config_path), "--study", str(study)]
    assert main(args + ["--trials-qmc", "5", "--trials-refine", "1"]) == 0
    before = study.read_bytes()
    capsys.readouterr()
    # the log is read by one process, or split between two
    monkeypatch.setattr(optimizer, "_SPLIT_MIN_BYTES", 0 if split else 1 << 62)
    monkeypatch.setattr(optimizer.os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(args + ["--trials-qmc", "4", "--trials-refine", "0"]) == 4
    assert "trial log line 6: log longer than the study budget" in capsys.readouterr().err
    assert study.read_bytes() == before


def test_optimize_qmc_budget_beyond_the_sobol_stream_exits_2(tmp_path, desk_config_path, capsys):
    # refused up front, not by a traceback at trial 2**30
    study = tmp_path / "study.jsonl"
    args = ["optimize", "--config", str(desk_config_path), "--study", str(study)]
    code = main(args + ["--trials-qmc", str(2**30 + 1), "--trials-refine", "0"])
    assert code == 2
    assert "n_qmc" in capsys.readouterr().err
    assert not study.exists()


def test_optimize_without_qmc_phase_exits_2(tmp_path, desk_config_path, capsys):
    study = tmp_path / "study.jsonl"
    args = ["optimize", "--config", str(desk_config_path), "--study", str(study)]
    code = main(args + ["--trials-qmc", "0", "--trials-refine", "2"])
    assert code == 2
    assert "n_qmc" in capsys.readouterr().err
    assert not study.exists()


def test_optimize_no_feasible_trial_exits_3(tmp_path, capsys):
    # the alignment cosine never exceeds 1, so under eps_align = 2 no QMC
    # trial is feasible and perturb_best has nothing to refine around
    cfgfile = tmp_path / "unaligned.cfg"
    cfgfile.write_text(
        "J = 2\nK = 2\nn_s = 16\nn_time = 8\neps_align = 2\nn_qmc = 2\nn_refine = 1\n"
    )
    study = tmp_path / "study.jsonl"
    code = main(["optimize", "--config", str(cfgfile), "--study", str(study)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "infeasible" in err
    assert sum(1 for _ in open(study)) == 2  # the QMC trials stay committed


def test_val_seed_not_an_integer_exits_2(tmp_path, desk_config_path, monkeypatch, capsys):
    monkeypatch.setenv("VAL_SEED", "abc")
    study = tmp_path / "study.jsonl"
    code = main(["optimize", "--config", str(desk_config_path), "--study", str(study)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "VAL_SEED" in err
    assert not study.exists()


def test_val_seed_env_overrides_flag(tmp_path, desk_config_path, monkeypatch):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "c.jsonl"
    main(["optimize", "--config", str(desk_config_path), "--study", str(a), "--seed", "99"])
    monkeypatch.setenv("VAL_SEED", "99")
    main(["optimize", "--config", str(desk_config_path), "--study", str(b), "--seed", "1"])
    monkeypatch.delenv("VAL_SEED")
    main(["optimize", "--config", str(desk_config_path), "--study", str(c), "--seed", "1"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_render_baseline_snapshots(tmp_path, capsys):
    # full-size baseline: terminal top view is a near-circle of radius ~1.51
    cfgfile = tmp_path / "full.cfg"
    cfgfile.write_text("n_s = 64\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
    header, rows = read_grid(out / "grid.csv")
    times = np.array([float(r[0]) for r in rows])
    terminal = times == times.max()
    xy = np.array([[float(r[2]), float(r[3])] for r in rows])[terminal]
    radii = np.linalg.norm(xy, axis=1)
    assert np.all((radii >= 1.49 - 1e-9) & (radii <= 1.51 + 1e-9))

    fig_dir = tmp_path / "figs"
    code = main(["render", "--grid", str(out / "grid.csv"), "--out", str(fig_dir)])
    assert code == 0
    svg_initial = (fig_dir / "ring_initial.svg").read_text()
    svg_terminal = (fig_dir / "ring_terminal.svg").read_text()
    assert svg_initial.startswith("<svg") and "polyline" in svg_initial
    assert svg_terminal != svg_initial
    # deterministic output for identical input
    fig_dir2 = tmp_path / "figs2"
    main(["render", "--grid", str(out / "grid.csv"), "--out", str(fig_dir2)])
    assert (fig_dir2 / "ring_terminal.svg").read_text() == svg_terminal


def test_render_deformed_ring_has_vertical_extent(tmp_path):
    cfgfile = tmp_path / "desk.cfg"
    cfgfile.write_text("J = 2\nK = 2\nn_s = 16\nn_time = 8\n")
    arr = np.zeros((2, 2, 3, 3))
    arr[1, 1, 0, 2] = 3.0  # vertical cosine mode
    coeffs = tmp_path / "c.json"
    CoefficientTensor(arr).save(coeffs)
    out = tmp_path / "sim"
    assert (
        main(
            [
                "simulate",
                "--config",
                str(cfgfile),
                "--coeffs",
                str(coeffs),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    header, rows = read_grid(out / "grid.csv")
    times = np.array([float(r[0]) for r in rows])
    z = np.array([float(r[4]) for r in rows])
    assert np.ptp(z[times == times.max()]) > 0.0


def test_render_empty_grid_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text(",".join(cli.GRID_HEADER) + "\n")
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    grid.write_text("t,s\n1,2\n")
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2


def _grid_row(column=None, text=None):
    """A simulate-shaped grid row (13 cells, NaN corr), cell ``column`` replaced by ``text``."""
    cells = ["0.0", "0.25", "1.0", "0.0", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "nan", "1"]
    if column is not None:
        cells[column] = text
    return ",".join(cells) + "\r\n"


_HEADER = ",".join(cli.GRID_HEADER) + "\r\n"
_ROW = _grid_row()

# name -> (grid file, whether the csv.reader + float reader render used before took it)
GRID_REFUSALS = {
    "empty file": ("", False),
    "wrong header": ("t,s,x,y,z\r\n" + _ROW, False),
    "quoted header": (",".join(f'"{name}"' for name in cli.GRID_HEADER) + "\r\n" + _ROW, True),
    "no data rows": (_HEADER, False),
    "only a blank line": (_HEADER + "\r\n", False),
    "2 values a row": (_HEADER + "1,2\r\n", False),
    "ragged rows": (_HEADER + _ROW + "0.0,0.5,1.0,0.0,0.0\r\n", False),
    "ragged after column 12": (_HEADER + _ROW + _ROW.replace("\r\n", ",0\r\n"), True),
    "blank first line": (_HEADER + "\r\n" + _ROW, False),
    "blank line between rows": (_HEADER + _ROW + "\r\n" + _ROW, False),
    "blank last line": (_HEADER + _ROW + "\r\n", False),
    "not UTF-8": (_HEADER.encode() + b"0.0,0.25,\xff,0.0,0.0\r\n", False),
    **{f"non-number in column {j}": (_HEADER + _ROW + _grid_row(j, "x"), False) for j in range(12)},
    "non-number in column 12": (_HEADER + _ROW + _grid_row(12, "x"), True),
    "empty cell": (_HEADER + _grid_row(3, ""), False),
    "trailing comma": (_HEADER + _ROW.replace("\r\n", ",\r\n"), True),
    "# cell": (_HEADER + _grid_row(2, "#"), False),
    "comment line": (_HEADER + _ROW + "# note\r\n", False),
    "quoted cell": (_HEADER + _grid_row(2, '"1.0"'), True),
    "underscore in a number": (_HEADER + _grid_row(2, "1_0"), True),
    "non-ASCII digit": (_HEADER + _grid_row(2, "\u0661"), True),
    **{
        f"{text} in {name}": (_HEADER + _ROW + _grid_row(j, text), True)
        for j, name in enumerate("tsxyz")
        for text in ("nan", "-inf")
    },
}


@pytest.mark.parametrize("case", list(GRID_REFUSALS))
def test_render_refuses_malformed_grid(tmp_path, capsys, case):
    text, reference_took_it = GRID_REFUSALS[case]
    grid = tmp_path / "grid.csv"
    grid.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "figs"
    assert main(["render", "--grid", str(grid), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: grid file {grid}: ") and err.count("\n") == 1
    assert "malformed row" not in err  # each parser refusal is named by its line
    assert not out.exists()
    # a changed outcome: the reference reader returned these rows (a NaN t then crashed render)
    if reference_took_it:
        assert read_grid_csv_reference(grid).shape[1] == 12
    else:
        with pytest.raises(ConfigError):
            read_grid_csv_reference(grid)


def test_render_grid_refusals_name_the_line(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text(_HEADER + _ROW + _ROW + "\r\n" + _ROW)
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: grid file {grid}: line 4 is blank\n"
    grid.write_text(_HEADER + _ROW + _grid_row(2, "nan"))
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: grid file {grid}: line 3: t, s, x, y and z must be finite\n"
    # the parser's own refusals name the file line and a 1-based column, not its 0-based row
    grid.write_text(_HEADER + _grid_row(3, "x") + _ROW)
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: grid file {grid}: line 2: column 4 is not a number ('x')\n"
    grid.write_text(_HEADER + _ROW + _ROW + "0.0,0.5,1.0,0.0,0.0\r\n")
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: grid file {grid}: line 4: width 5, line 2 has width 13\n"
    # the first defect in file order, whichever the parser met first
    grid.write_text(_HEADER + _ROW + "\r\n" + _grid_row(0, "x"))
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: grid file {grid}: line 3 is blank\n"


def test_render_grid_rows_need_t_s_and_position(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    header = ",".join(cli.GRID_HEADER) + "\n"
    grid.write_text(header + "1,2\n")
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.startswith(f"error: grid file {grid}: 2 values a row")
    grid.write_text(header + "0,0,1,0,0\n1,2\n")
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "f")]) == 2
    assert not (tmp_path / "f").exists()
    # render reads t, s and x, y, z; the columns after them are optional, and may hold NaN
    s = np.linspace(0.0, 1.0, 8, endpoint=False)
    for width in (5, 12):
        rows = np.zeros((len(s), width))
        rows[:, 1], rows[:, 2], rows[:, 3] = s, np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)
        rows[:, 5:] = np.nan
        grid.write_text(header + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        _assert_same_bits(cli._read_grid_csv(grid), read_grid_csv_reference(grid))
        out = tmp_path / f"f{width}"
        assert main(["render", "--grid", str(grid), "--out", str(out)]) == 0
        assert (out / "ring_initial.svg").exists()


def _assert_same_bits(data, reference):
    assert data.dtype == reference.dtype == np.float64 and data.shape == reference.shape
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(data), nan)
    assert np.array_equal(data[~nan].view(np.uint64), reference[~nan].view(np.uint64))


@pytest.mark.parametrize("shape", ["desk", "full"])
@pytest.mark.parametrize("tensor", ["zero", "sobol"])
def test_render_matches_the_reference_reader(tmp_path, capsys, shape, tensor):
    # simulate's grids read bit for bit as csv.reader + float read them, and render the same SVGs
    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{shape}.cfg"
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]
    if tensor == "sobol":
        ring, _ = load_configs(config)
        coeffs = tmp_path / "c.json"
        sample_qmc(SearchSpace.from_ring_config(ring), 1, seed=0)[0].save(coeffs)
        argv += ["--coeffs", str(coeffs)]
    assert main(argv) == 0
    grid = tmp_path / "sim" / "grid.csv"
    reference = read_grid_csv_reference(grid)
    assert np.isnan(reference[:, 11]).any()  # infeasible columns: the reader keeps NaN past z
    _assert_same_bits(cli._read_grid_csv(grid), reference)

    figs = tmp_path / "figs"
    assert main(["render", "--grid", str(grid), "--out", str(figs)]) == 0
    times = np.unique(reference[:, 0])
    for name, t in (("initial", times[0]), ("terminal", times[-1])):
        rows = reference[reference[:, 0] == t]
        svg = render_ring_svg(rows[np.argsort(rows[:, 1])][:, 2:5], f"ring at t = {t:.6f}")
        assert (figs / f"ring_{name}.svg").read_bytes() == svg.encode()


@pytest.mark.parametrize("command, flag", [("simulate", "--config"), ("render", "--grid")])
def test_input_file_not_utf8_exits_2(tmp_path, capsys, command, flag):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "out"
    assert main([command, flag, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag[2:]} file {path}: ")
    assert not out.exists()


def test_spectrum_command(tmp_path, capsys):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("J = 2\nK = 4\nn_s = 16\nn_time = 8\n")
    arr = np.zeros((2, 2, 3, 5))
    arr[0, 1, 0, 1] = 5.0
    coeffs = tmp_path / "c.json"
    CoefficientTensor(arr).save(coeffs)
    out = tmp_path / "spectrum_out"
    code = main(
        ["spectrum", "--coeffs", str(coeffs), "--config", str(cfgfile), "--out", str(out)]
    )
    assert code == 0
    assert "dominant_mode_count=1" in capsys.readouterr().out
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "E_k", "dominant"]
    assert len(rows) == 6
    assert rows[2][2] == "1"  # k = 1 dominant

    zero = tmp_path / "zero.json"
    CoefficientTensor.zeros(2, 4).save(zero)
    main(["spectrum", "--coeffs", str(zero), "--config", str(cfgfile), "--out", str(out)])
    assert "dominant_mode_count=0" in capsys.readouterr().out


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    for name in ("inverse_matrix", "dinv_expansion", "leibniz_identity", "closure_rearrangement"):
        assert name in out


def test_verify_stdout_is_pinned(capsys):
    # captured from the one-point-at-a-time checks; the array passes print the same bytes
    assert main(["verify"]) == 0
    golden = pathlib.Path(__file__).with_name("golden_verify.txt").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_verify_detects_injected_sign_error(monkeypatch, capsys):
    # mutation check: a wrong sign in the inverse formula must flip the exit code; the
    # batched check sees every matrix point at once, so the copy works on arrays
    original = verify.check_inverse_matrix

    def broken(p):
        d = verify._determinant(p)
        a, b, c, x, y = np.broadcast_arrays(*verify._matrix_entries(p), p.alpha1, p.alpha2)
        one, zero = np.ones_like(a), np.zeros_like(a)
        shape = a.shape + (3, 3)
        m = np.stack([a, b, c, x, one, zero, y, zero, one], axis=-1).reshape(shape)
        flipped = [one, b, c, -x, a - c * y, c * x, -y, b * y, a - b * x]  # first row's signs
        m_inv = (np.stack(flipped, axis=-1) / d[..., None]).reshape(shape)
        return float(np.max(np.abs(m @ m_inv - np.eye(3))))

    monkeypatch.setattr(verify, "check_inverse_matrix", broken)
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out
    monkeypatch.setattr(verify, "check_inverse_matrix", original)
    assert main(["verify"]) == 0


def failing_checks(out: str) -> list:
    return [line.split()[0] for line in out.splitlines() if "FAIL" in line]


def test_verify_detects_flipped_expansion_term(monkeypatch, capsys):
    # one term of the R1 coefficient of 1/D's linear expansion with its sign flipped
    def flipped(p):
        coeff1 = (-p.kappa + p.dz_alpha1) - p.alpha1**2 * p.kappa + p.torsion * p.alpha2
        coeff2 = p.dz_alpha2 - (-p.torsion + p.alpha2 * p.kappa) * p.alpha1
        return coeff1, coeff2

    monkeypatch.setattr(verify, "_expansion_coefficients", flipped)
    assert main(["verify"]) == 1
    assert failing_checks(capsys.readouterr().out) == ["dinv_expansion"]


def test_verify_detects_scaled_second_derivative(monkeypatch, capsys):
    # phi_eval's d2 off by a relative 1e-3 inside the Leibniz check's one evaluation
    def scaled(t, s, c, cfg):
        p = phi_eval(t, s, c, cfg)
        radial, vertical = p.radial.copy(), p.vertical.copy()
        radial[2] *= 1.0 + 1e-3
        vertical[2] *= 1.0 + 1e-3
        return dataclasses.replace(p, radial=radial, vertical=vertical)

    monkeypatch.setattr(verify, "phi_eval", scaled)
    assert main(["verify"]) == 1
    assert failing_checks(capsys.readouterr().out) == ["leibniz_identity"]


def test_verify_detects_flipped_forcing_term(monkeypatch, capsys):
    # the closure certificate evaluates the reference integrator's wave coefficients
    def flipped(kin):
        return kin.v_tt / kin.v, 2.0 * kin.v * kin.kappa_t - 4.0 * kin.v_t * kin.kappa

    monkeypatch.setattr(verify, "wave_coefficients", flipped)
    assert main(["verify"]) == 1
    assert "closure_rearrangement" in [
        line.split()[0] for line in capsys.readouterr().out.splitlines() if "FAIL" in line
    ]


def test_grid_csv_bytes_match_per_value_repr(tmp_path):
    ring = RingConfig(J=2, K=2, n_s=16, n_time=8)
    tensor = CoefficientTensor.from_flat(np.random.default_rng(4).uniform(-5, 5, 36), 2, 2)
    field = axis_field(tensor, ring)
    assert not field.feasible.all()  # NaN columns are written too
    positions = phi_eval(field.t_nodes, ring.s_grid, tensor, ring).position
    path = tmp_path / "grid.csv"
    cli._write_grid_csv(path, field, positions)

    lines = [",".join(cli.GRID_HEADER)]
    for i, t in enumerate(field.t_nodes):
        for j, s in enumerate(field.s_grid):
            values = [t, s, *positions[i, j], *field.zeta_star_hat[i, j], *field.zeta_hat[i, j]]
            values.append(field.corr[i, j])
            lines.append(",".join([repr(float(x)) for x in values] + [str(int(field.feasible[j]))]))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def grid_csv_reference(field, positions) -> bytes:
    """The grid as ``csv.writer`` writes it with ``repr`` per value: the reference for the writer."""
    n_t, n_s = field.corr.shape
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(cli.GRID_HEADER)
    for i in range(n_t):
        for j in range(n_s):
            values = [field.t_nodes[i], field.s_grid[j], *positions[i, j]]
            values += [*field.zeta_star_hat[i, j], *field.zeta_hat[i, j], field.corr[i, j]]
            writer.writerow([repr(float(x)) for x in values] + [int(field.feasible[j])])
    return text.getvalue().encode()


@pytest.mark.parametrize(
    "case", ["amplitude 1e-3", "amplitude 1e-6", "zero", "nan columns", "no nan", "special values"]
)
def test_grid_csv_bytes_match_csv_writer_reference(tmp_path, case):
    # the writer takes orjson's float text where floattext.plain holds and
    # repr's elsewhere: tiny amplitudes send many positions to repr, and the
    # special values reach every branch (NaN, infinities, tiny and huge)
    ring = RingConfig(J=2, K=2, n_s=16, n_time=8)
    amplitude = {"amplitude 1e-3": 1e-3, "amplitude 1e-6": 1e-6, "zero": 0.0}.get(case, 5.0)
    flat = np.random.default_rng(4).uniform(-amplitude, amplitude, 36)
    tensor = CoefficientTensor.from_flat(flat, 2, 2)
    field = axis_field(tensor, ring)
    positions = phi_eval(field.t_nodes, ring.s_grid, tensor, ring).position
    if case == "special values":
        corr = field.corr.copy()
        corr[1, np.flatnonzero(field.feasible)[:2]] = [np.inf, -np.inf]
        field = dataclasses.replace(field, corr=corr)
        positions = positions.copy()
        specials = [5e-324, -1e-05, np.nextafter(1e-4, 0.0), 1e-4, 1e16, -1e300, np.inf, np.nan, -0.0]
        positions.reshape(-1)[3 : 3 + 5 * len(specials) : 5] = specials
    if case == "no nan":  # the writer skips its null -> nan pass
        filled = {name: np.nan_to_num(getattr(field, name), nan=0.5) for name in ("corr", "alpha1", "alpha2")}
        field = dataclasses.replace(field, **filled)
        assert not any(np.isnan(x).any() for x in (field.corr, field.zeta_hat, field.zeta_star_hat))
    path = tmp_path / "grid.csv"
    cli._write_grid_csv(path, field, positions)
    assert path.read_bytes() == grid_csv_reference(field, positions)
    if case.startswith("amplitude"):  # most nodes hold a tiny position value
        assert (~floattext.plain(positions)).any(axis=-1).mean() > 0.5
    if case == "nan columns":
        assert np.isnan(field.corr).any() and not np.isnan(field.corr).all()


SCIPY_PROBE = """
import json, sys
import vortexlab.cli as cli
import vortexlab.optimizer as optimizer

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

desk, structured, out = sys.argv[1:]
loaded = {"import": scipy_modules()}
for argv in (["simulate", "--config", desk, "--out", out + "/sim"], ["verify"]):
    assert cli.main(argv) == 0, argv
loaded["simulate, verify"] = scipy_modules()
study = ["--trials-qmc", "8", "--trials-refine", "2"]
assert cli.main(["optimize", "--config", desk, "--study", out + "/desk.jsonl"] + study) == 0
loaded["perturb_best"] = scipy_modules()
study = ["--trials-qmc", "0", "--trials-refine", "2"]
assert cli.main(["optimize", "--config", structured, "--study", out + "/st.jsonl"] + study) == 0
loaded["structured"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_the_structured_ceiling_loads_scipy(tmp_path):
    # scipy's import is most of a command's start; the Sobol stream reads its
    # direction table from scipy's data file, and only the structured
    # strategy's ceiling LP imports scipy.optimize
    desk = pathlib.Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
    structured = tmp_path / "structured.cfg"
    structured.write_text("J = 2\nK = 2\nn_s = 16\nn_time = 8\nstrategy = structured\n")
    argv = [sys.executable, "-c", SCIPY_PROBE, str(desk), str(structured), str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == loaded["simulate, verify"] == loaded["perturb_best"] == []
    assert "scipy.optimize" in loaded["structured"]
    assert not any(name.startswith("scipy.stats") for name in loaded["structured"])
