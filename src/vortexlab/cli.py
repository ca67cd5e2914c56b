"""Command-line entry point.

Subcommands: simulate (axis field + alignment report), optimize (coefficient
search), render (SVG figures from a simulation grid), spectrum (deformation
mode energies), verify (derivation identity checks).

Exit codes: 0 success, 1 failed verification, 2 unreadable/invalid input,
3 infeasible-everywhere field, 4 corrupt resume log.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .madc import madc
from .optimizer import CorruptTrialLog, NoFeasibleHistory, StudyConfig, run_study
from .plots import render_ring_svg
from .ring_model import CoefficientTensor, RingConfig, phi_eval
from .spectral import dominant_mode_count, mode_energies, write_spectrum_csv
from .verify import run_all_checks
from .wave_dynamics import axis_field, AxisField

GRID_HEADER = ["t", "s", "x", "y", "z", "zsx", "zsy", "zsz", "zx", "zy", "zz", "corr", "feasible"]

_RING_FIELDS = {f.name: f.type for f in dataclasses.fields(RingConfig)}
_STUDY_FIELDS = {f.name: f.type for f in dataclasses.fields(StudyConfig)}
_INT_KEYS = {"J", "K", "n_time", "n_s", "n_qmc", "n_refine", "seed", "parallel_width"}
_STR_KEYS = {"strategy"}


class ConfigError(ValueError):
    pass


def _parse_scalar(key: str, raw):
    """A config value of ``key``: text is parsed, a JSON value must have the key's type.

    Integer keys take integers, string keys strings and the rest numbers;
    a bool is refused for any of them.
    """
    if not isinstance(raw, str):
        kinds = (str,) if key in _STR_KEYS else (int,) if key in _INT_KEYS else (int, float)
        if type(raw) not in kinds:
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise ConfigError(f"config key {key!r}: expected {expected}, got {raw!r}")
        return raw
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if "/" in raw:  # allow fractions like 1/48 for the time window
            num, den = raw.split("/", 1)
            return float(num) / float(den)
        return float(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from exc


def _load_config_dict(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc.msg})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        return data
    data = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config file {path} line {line_no}: expected key = value")
        key, raw = stripped.split("=", 1)
        data[key.strip()] = raw
    return data


def load_configs(path) -> tuple:
    """(RingConfig, StudyConfig) from a config file; defaults when path is None.

    Unknown keys are errors: a misspelled key silently reverting to a
    default is worse than a hard stop.
    """
    if path is None:
        return RingConfig(), StudyConfig()
    data = _load_config_dict(Path(path))
    ring_kwargs, study_kwargs = {}, {}
    for key, value in data.items():
        if key in _RING_FIELDS:
            ring_kwargs[key] = _parse_scalar(key, value)
        elif key in _STUDY_FIELDS:
            study_kwargs[key] = _parse_scalar(key, value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return RingConfig(**ring_kwargs), StudyConfig(**study_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_coeffs(path, cfg: RingConfig) -> CoefficientTensor:
    if path is None:
        return CoefficientTensor.zeros(cfg.J, cfg.K)
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"coefficient file not found: {p}")
    try:
        tensor = CoefficientTensor.load(p)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"coefficient file {p}: {exc}") from exc
    if (tensor.J, tensor.K) != (cfg.J, cfg.K):
        raise ConfigError(
            f"coefficient file {p} has (J={tensor.J}, K={tensor.K}) "
            f"but the configuration expects (J={cfg.J}, K={cfg.K})"
        )
    if tensor.max_abs() > cfg.c_max + 1e-12:
        raise ConfigError(f"coefficient file {p} exceeds the bound |c| <= {cfg.c_max}")
    return tensor


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, ring, study, seed, outputs) -> None:
    manifest = {
        "tool": "vortexlab",
        "version": __version__,
        "command": command,
        "seed": seed,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "ring_config": ring.to_dict() if ring is not None else None,
        "study_config": study.to_dict() if study is not None else None,
        "outputs": {name: _sha256(out_dir / name) for name in sorted(outputs)},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_grid_csv(path: Path, field: AxisField, positions: np.ndarray) -> None:
    """One row per (t, s) node, time-major; floats written by ``repr`` (round-trip exact)."""
    n_t, n_s = field.corr.shape
    columns = np.concatenate(
        [
            np.repeat(field.t_nodes, n_s)[:, None],
            np.tile(field.s_grid, n_t)[:, None],
            positions.reshape(-1, 3),
            field.zeta_star_hat.reshape(-1, 3),
            field.zeta_hat.reshape(-1, 3),
            field.corr.reshape(-1, 1),
        ],
        axis=1,
    )
    feasible = np.tile(field.feasible.astype(int), n_t).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRID_HEADER)
        writer.writerows([*map(repr, row), flag] for row, flag in zip(columns.tolist(), feasible))


def cmd_simulate(args) -> int:
    try:
        ring, study = load_configs(args.config)
        tensor = _load_coeffs(args.coeffs, ring)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    field = axis_field(tensor, ring)
    report = madc(field, ring)
    if report.feasible_fraction == 0.0:
        print(
            "error: no angular point admits the initial axis alignment "
            "(the ring tangent nowhere has a positive component along the "
            "trajectory tangent)",
            file=sys.stderr,
        )
        return 3

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    positions = phi_eval(field.t_nodes, ring.s_grid, tensor, ring).position
    _write_grid_csv(out_dir / "grid.csv", field, positions)
    (out_dir / "madc_report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    _write_manifest(
        out_dir, "simulate", ring, study, study.seed, ["grid.csv", "madc_report.json"]
    )
    print(
        f"madc={report.madc:.6f} feasible_fraction={report.feasible_fraction:.4f} "
        f"score={report.score:.6f}"
    )
    return 0


def cmd_optimize(args) -> int:
    try:
        ring, study = load_configs(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    overrides = {}
    if args.trials_qmc is not None:
        overrides["n_qmc"] = args.trials_qmc
    if args.trials_refine is not None:
        overrides["n_refine"] = args.trials_refine
    if os.environ.get("VAL_SEED"):
        try:
            overrides["seed"] = int(os.environ["VAL_SEED"])
        except ValueError:
            print(f"error: VAL_SEED={os.environ['VAL_SEED']!r} is not an integer", file=sys.stderr)
            return 2
    elif args.seed is not None:
        overrides["seed"] = args.seed
    if args.parallel is not None:
        overrides["parallel_width"] = args.parallel
    try:
        study = dataclasses.replace(study, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log_path = Path(args.study)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        result = run_study(study, ring, log_path)
    except CorruptTrialLog as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return 4
    except NoFeasibleHistory as exc:
        print(f"error: infeasible everywhere: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: study log {log_path}: {exc}", file=sys.stderr)
        return 2

    out_dir = log_path.parent
    best = CoefficientTensor.from_flat(np.array(result.best.coeffs), ring.J, ring.K)
    best.save(out_dir / "best_coeffs.json")
    (out_dir / "study_summary.json").write_text(
        json.dumps(result.summary(study), indent=2) + "\n"
    )
    outputs = ["best_coeffs.json", "study_summary.json", log_path.name]
    _write_manifest(out_dir, "optimize", ring, study, study.seed, outputs)
    print(f"best trial {result.best.trial_id}: score={result.best.score:.6f}")
    return 0


def _read_grid_csv(path: Path):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != GRID_HEADER:
                raise ConfigError(f"grid file {path}: unexpected header {header}")
            rows = [row for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"grid file {path}: no data rows")
    try:
        data = np.array([[float(x) for x in row[:12]] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"grid file {path}: malformed row ({exc})") from exc
    return data


def cmd_render(args) -> int:
    try:
        data = _read_grid_csv(Path(args.grid))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format != "svg":
        print(f"error: unsupported format {args.format!r}", file=sys.stderr)
        return 2

    times = np.unique(data[:, 0])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for token in args.times.split(","):
        token = token.strip()
        if token == "initial":
            t_sel, name = times[0], "initial"
        elif token == "terminal":
            t_sel, name = times[-1], "terminal"
        else:
            try:
                t_want = float(token)
            except ValueError:
                print(f"error: bad --times token {token!r}", file=sys.stderr)
                return 2
            t_sel = times[int(np.argmin(np.abs(times - t_want)))]
            name = f"t{t_sel:.6f}".replace(".", "p")
        rows = data[data[:, 0] == t_sel]
        order = np.argsort(rows[:, 1])
        points = rows[order][:, 2:5]
        svg = render_ring_svg(points, f"ring at t = {t_sel:.6f}")
        out_path = out_dir / f"ring_{name}.svg"
        out_path.write_text(svg)
        written.append(out_path.name)
        print(f"wrote {out_path}")
    _write_manifest(out_dir, "render", None, None, None, written)
    return 0


def cmd_spectrum(args) -> int:
    try:
        ring, study = load_configs(args.config)
        tensor = _load_coeffs(args.coeffs, ring)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    token = args.time
    if token == "terminal":
        t = ring.t1
    elif token == "initial":
        t = ring.t0
    else:
        try:
            t = float(token)
        except ValueError:
            print(f"error: bad --time value {token!r}", file=sys.stderr)
            return 2
    spectrum = mode_energies(tensor, t, ring, component="both")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(spectrum, out_dir / "spectrum.csv")
    _write_manifest(out_dir, "spectrum", ring, study, None, ["spectrum.csv"])
    print(f"dominant_mode_count={dominant_mode_count(spectrum)}")
    return 0


def cmd_verify(args) -> int:
    results = run_all_checks(seed=0)
    width = max(len(r.name) for r in results)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        bound = f">= {r.threshold}" if r.kind == "min_slope" else f"<= {r.threshold}"
        print(f"{r.name:<{width}}  {r.value:.3e}  (required {bound})  {status}")
        all_passed &= r.passed
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Vortex-ring deformation laboratory: simulate, optimize, inspect.",
    )
    parser.add_argument("--version", action="version", version=f"vortexlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evaluate the axis field and alignment report")
    p.add_argument("--config", default=None, help="config file (key = value or JSON)")
    p.add_argument("--coeffs", default=None, help="coefficient JSON (default: zeros)")
    p.add_argument("--out", default="simulate_out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="search deformation coefficients")
    p.add_argument("--config", default=None)
    p.add_argument("--study", required=True, help="JSONL trial log (appended, resumable)")
    p.add_argument("--trials-qmc", type=int, default=None, help="low-discrepancy trials")
    p.add_argument("--trials-refine", type=int, default=None, help="refinement trials")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--parallel", type=int, default=None, help="trials per batch")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("render", help="SVG figures from a simulation grid")
    p.add_argument("--grid", required=True, help="grid.csv from simulate")
    p.add_argument("--times", default="initial,terminal")
    p.add_argument("--format", default="svg", choices=["svg"])
    p.add_argument("--out", default="render_out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("spectrum", help="deformation mode energies")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--time", default="terminal")
    p.add_argument("--out", default="spectrum_out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="numerical checks of the derivation identities")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
