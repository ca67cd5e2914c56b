import csv
import dataclasses
import json

import numpy as np
import pytest

import vortexlab.cli as cli
import vortexlab.verify as verify
from vortexlab.cli import ConfigError, load_configs, main
from vortexlab.optimizer import run_study
from vortexlab.ring_model import CoefficientTensor, RingConfig, phi_eval
from vortexlab.wave_dynamics import axis_field

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
    import pathlib

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
    path = tmp_path / "cfg"
    path.write_text("J = 2\nangle_convention = turns\n")
    with pytest.raises(ConfigError, match="unknown config key 'angle_convention'"):
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


def test_simulate_infeasible_everywhere_exits_3(tmp_path, capsys):
    # the alignment cosine never exceeds 1, so eps_align = 2 aligns nowhere
    cfgfile = tmp_path / "unaligned.cfg"
    cfgfile.write_text("J = 2\nK = 2\nn_s = 16\nn_time = 8\neps_align = 2\n")
    code = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "alignment" in capsys.readouterr().err


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


def test_verify_detects_injected_sign_error(monkeypatch, capsys):
    # mutation check: a wrong sign in the inverse formula must flip the exit code
    original = verify.check_inverse_matrix

    def broken(p):
        a, b, c = verify._matrix_entries(p)
        d = a - b * p.alpha1 - c * p.alpha2
        if abs(d) <= verify.SINGULAR_D_EPS:
            raise verify.SingularD("singular")
        m = np.array([[a, b, c], [p.alpha1, 1.0, 0.0], [p.alpha2, 0.0, 1.0]])
        m_inv = (
            np.array(
                [
                    [1.0, b, c],  # flipped signs
                    [-p.alpha1, a - c * p.alpha2, c * p.alpha1],
                    [-p.alpha2, b * p.alpha2, a - b * p.alpha1],
                ]
            )
            / d
        )
        return float(np.max(np.abs(m @ m_inv - np.eye(3))))

    monkeypatch.setattr(verify, "check_inverse_matrix", broken)
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out
    monkeypatch.setattr(verify, "check_inverse_matrix", original)
    assert main(["verify"]) == 0


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
