"""Command-line entry point.

Subcommands: simulate (axis field + alignment report), optimize (coefficient
search), render (SVG figures from a simulation grid), spectrum (deformation
mode energies), verify (derivation identity checks).

Exit codes: 0 success, 1 failed verification, 2 unreadable/invalid input,
3 infeasible-everywhere field, 4 corrupt resume log.  Commands raise; ``main``
turns the exceptions in ``_EXIT_CODES`` into codes 2-4 and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import orjson

from . import __version__, floattext
from .madc import madc
from .optimizer import (
    CorruptTrialLog,
    DimensionTooLarge,
    NoFeasibleHistory,
    StudyConfig,
    run_study,
)
from .plots import render_ring_svg
from .ring_model import CoefficientTensor, RingConfig, phi_eval
from .spectral import dominant_mode_count, mode_energies, write_spectrum_csv
from .verify import run_all_checks
from .wave_dynamics import axis_field, AxisField

GRID_HEADER = ["t", "s", "x", "y", "z", "zsx", "zsy", "zsz", "zx", "zy", "zz", "corr", "feasible"]

# config key -> its field's annotation ("int", "float" or "str")
_RING_FIELDS = {f.name: f.type for f in dataclasses.fields(RingConfig)}
_STUDY_FIELDS = {f.name: f.type for f in dataclasses.fields(StudyConfig)}
_JSON_KINDS = {"int": (int,), "float": (int, float), "str": (str,)}


class ConfigError(ValueError):
    pass


# exception -> (exit code, message prefix); any other exception is a bug and keeps its traceback
_EXIT_CODES = {
    ConfigError: (2, ""),
    DimensionTooLarge: (2, ""),
    OSError: (2, ""),
    NoFeasibleHistory: (3, "infeasible everywhere: "),
    CorruptTrialLog: (4, "cannot resume: "),
}


def _parse_scalar(key: str, kind: str, raw):
    """A config value annotated ``kind``: text is parsed, a JSON value must have that type.

    Integer fields take integers, string fields strings and float fields
    numbers; a bool is refused for any of them.
    """
    if not isinstance(raw, str):
        if type(raw) not in _JSON_KINDS[kind]:
            expected = " or ".join(t.__name__ for t in _JSON_KINDS[kind])
            raise ConfigError(f"config key {key!r}: expected {expected}, got {raw!r}")
        return raw
    raw = raw.strip()
    if kind == "str":
        return raw
    try:
        if kind == "int":
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
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


def load_configs(path, **study_overrides) -> tuple:
    """(RingConfig, StudyConfig) from a config file (None: defaults) and flags that override it.

    Unknown keys are errors: a misspelled key silently reverting to a
    default is worse than a hard stop.
    """
    data = {} if path is None else _load_config_dict(Path(path))
    ring_kwargs, study_kwargs = {}, {}
    for key, value in data.items():
        if key in _RING_FIELDS:
            ring_kwargs[key] = _parse_scalar(key, _RING_FIELDS[key], value)
        elif key in _STUDY_FIELDS:
            study_kwargs[key] = _parse_scalar(key, _STUDY_FIELDS[key], value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return RingConfig(**ring_kwargs), StudyConfig(**{**study_kwargs, **study_overrides})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_coeffs(path, cfg: RingConfig) -> CoefficientTensor:
    if path is None:
        return CoefficientTensor.zeros(cfg.J, cfg.K)
    p = Path(path)
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


def _floats(text, what: str) -> np.ndarray:
    """``text`` (a string, or equal-length lists of them) as floats; ConfigError names ``what``."""
    try:
        return np.array(text, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{what} ({exc})") from exc


def _time_token(token: str, initial: float, terminal: float) -> float:
    """The time a ``--time``/``--times`` token names: initial, terminal or a finite number."""
    if token in ("initial", "terminal"):
        return initial if token == "initial" else terminal
    t = float(_floats(token, f"bad time {token!r}"))
    if not np.isfinite(t):
        raise ConfigError(f"bad time {token!r}: not finite")
    return t


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read into one buffer of at most 1 MiB.

    A full-scale trial log is ~190 MB, so it is never held whole.  The buffer
    is no larger than the file: zero-filling 1 MiB takes longer than hashing
    a small output.
    """
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        buf = bytearray(min(os.fstat(fh.fileno()).st_size, 1 << 20))
        view = memoryview(buf)
        while size := fh.readinto(buf):
            digest.update(view[:size])
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
    """One row per (t, s) node, time-major; floats spelled by ``repr`` (round-trip exact).

    The rows are ``csv.writer``'s: comma-separated, each ending ``\\r\\n``.  One
    orjson call writes the float block, whose text is repr's wherever
    :func:`floattext.plain` holds; orjson's ``null`` for NaN becomes repr's
    ``nan`` (no number's text contains ``null``) when the block holds a NaN.
    Every other value (tiny, huge or infinite) is spelled by repr in its
    row's text.  The rows are written a time row at a time, never joined.
    """
    n_t, n_s = field.corr.shape
    block = np.concatenate(
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
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
    if np.isnan(block).any():
        text = text.replace("null", "nan")
    rows = text.split("],[")
    del text  # one copy of the grid's text at a time: the rows hold it now
    respell = ~(floattext.plain(block) | np.isnan(block))
    cells = {}  # row -> its values' text, for the rows holding a value to respell
    row_index, column_index = (index.tolist() for index in np.nonzero(respell))
    for i, j, value in zip(row_index, column_index, block[respell].tolist()):
        if i not in cells:
            cells[i] = rows[i].split(",")
        cells[i][j] = repr(value)
    for i, row in cells.items():
        rows[i] = ",".join(row)
    ends = [f",{int(flag)}\r\n" for flag in field.feasible]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(GRID_HEADER) + "\r\n")
        # a write per time row: a write per line is slower, one write of all holds the text twice
        for i in range(0, len(rows), n_s):
            fh.write("".join([row + end for row, end in zip(rows[i : i + n_s], ends)]))


def cmd_simulate(args) -> int:
    ring, study = load_configs(args.config)
    tensor = _load_coeffs(args.coeffs, ring)
    field = axis_field(tensor, ring)
    report = madc(field, ring)
    if report.feasible_fraction == 0.0:
        print(
            "error: no angular point admits the initial axis alignment "
            "(the ring tangent nowhere has a positive component along the "
            "trajectory tangent, or a trajectory point is stationary)",
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


def _val_seed():
    """The ``VAL_SEED`` environment override of ``--seed``; None when unset or empty."""
    raw = os.environ.get("VAL_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"VAL_SEED={raw!r} is not an integer") from None


def cmd_optimize(args) -> int:
    seed = _val_seed()
    flags = {
        "n_qmc": args.trials_qmc,
        "n_refine": args.trials_refine,
        "seed": args.seed if seed is None else seed,
    }
    ring, study = load_configs(args.config, **{k: v for k, v in flags.items() if v is not None})
    log_path = Path(args.study)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    result = run_study(study, ring, log_path)

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


def _first_defect(rows: list):
    """The first defect, in file order, of grid rows ``np.loadtxt`` refused; None if none is found.

    A blank row, a row not as wide as the first, or a cell the parser refuses
    (each cell parsed alone, with the same options).  Lines and columns count
    from 1, the header being line 1.
    """
    width = rows[0].count(",") + 1
    for line, row in enumerate(rows, start=2):
        if not row:
            return f"line {line} is blank"
        cells = row.split(",")
        if len(cells) != width:
            return f"line {line}: width {len(cells)}, line 2 has width {width}"
        try:
            np.loadtxt([row], delimiter=",", comments=None)
        except ValueError:
            for column, cell in enumerate(cells):
                try:
                    np.loadtxt([row], delimiter=",", comments=None, usecols=column)
                except ValueError:
                    return f"line {line}: column {column + 1} is not a number ({cell!r})"
    return None


def _read_grid_csv(path: Path) -> np.ndarray:
    """The grid's first 12 columns, one row per node.

    The header must be ``GRID_HEADER``; each line after it, a row of at least
    5 numbers (t, s, x, y, z and optional columns after them), every row as
    wide as the first.  One ``np.loadtxt`` call parses every row, with no
    comment or quote character; t, s and the position must be finite.  A
    refusal names the file line at fault.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"grid file {path}: {exc}") from exc
    if lines[0] != ",".join(GRID_HEADER):
        raise ConfigError(f"grid file {path}: unexpected header {lines[0]!r}")
    rows = lines[1:-1] if not lines[-1] else lines[1:]  # the newline ending the last row
    if not any(rows):  # loadtxt only warns on input without data
        raise ConfigError(f"grid file {path}: no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        defect = _first_defect(rows) or f"malformed row ({exc})"
        raise ConfigError(f"grid file {path}: {defect}") from exc
    if len(data) < len(rows):  # loadtxt skips blank lines
        raise ConfigError(f"grid file {path}: line {rows.index('') + 2} is blank")
    width = GRID_HEADER.index("z") + 1
    if data.shape[1] < width:
        raise ConfigError(f"grid file {path}: {data.shape[1]} values a row, need at least {width}")
    finite = np.isfinite(data[:, :width]).all(axis=1)
    if not finite.all():
        line = int(np.argmin(finite)) + 2
        raise ConfigError(f"grid file {path}: line {line}: t, s, x, y and z must be finite")
    return data[:, :12]


def cmd_render(args) -> int:
    data = _read_grid_csv(Path(args.grid))
    times = np.unique(data[:, 0])
    tokens = [token.strip() for token in args.times.split(",")]
    wanted = [_time_token(token, times[0], times[-1]) for token in tokens]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for token, t_want in zip(tokens, wanted):
        t_sel = times[int(np.argmin(np.abs(times - t_want)))]
        name = token if token in ("initial", "terminal") else f"t{t_sel:.6f}".replace(".", "p")
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
    ring, study = load_configs(args.config)
    tensor = _load_coeffs(args.coeffs, ring)
    t = _time_token(args.time, ring.t0, ring.t1)
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

    p = sub.add_parser("optimize", help="search deformation coefficients")
    p.add_argument("--config", default=None)
    p.add_argument("--study", required=True, help="JSONL trial log (appended, resumable)")
    p.add_argument("--trials-qmc", type=int, default=None, help="low-discrepancy trials")
    p.add_argument("--trials-refine", type=int, default=None, help="refinement trials")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("render", help="SVG figures from a simulation grid")
    p.add_argument("--grid", required=True, help="grid.csv from simulate")
    p.add_argument("--times", default="initial,terminal")
    p.add_argument("--out", default="render_out")

    p = sub.add_parser("spectrum", help="deformation mode energies")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--time", default="terminal")
    p.add_argument("--out", default="spectrum_out")

    sub.add_parser("verify", help="numerical checks of the derivation identities")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first ``main`` call (not at import)."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; callable any number of times in one process.

    The parser is built once and reused: ``parse_args`` keeps its state in the
    namespace it returns.  The handler is the module's ``cmd_<command>`` at
    call time, so a function replaced after the first call is the one run.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
