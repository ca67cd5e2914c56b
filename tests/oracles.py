"""Independent numerical oracles used across the test suite.

The derivative oracles work from sampled positions (or raw callables) with
finite differences, deliberately avoiding the package's closed-form
derivative paths so the two routes check each other.  The sections after
them keep the loops and draws a faster path replaced, as its reference.
"""

import numpy as np

# 5-point central stencils: orders 1-2 are O(h^4), order 3 is O(h^2)
_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_W3 = np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0


def fd_derivatives(pos_fn, u, h):
    """(r', r'', r''') of a sampled curve at parameter u."""
    pts = np.stack([np.asarray(pos_fn(u + k * h), dtype=float) for k in range(-2, 3)])
    d1 = _W1 @ pts / h
    d2 = _W2 @ pts / h**2
    d3 = _W3 @ pts / h**3
    return d1, d2, d3


def fd_curvature_torsion(pos_fn, u, h=5e-3):
    """Brute-force curvature and torsion from curve samples.

    Richardson-extrapolates over h and h/2, which removes the O(h^2) error
    of the third-derivative stencil entering the torsion.  The default step
    balances that truncation against the eps/h^3 roundoff of the stencil
    (calibrated on unit-scale trig curves: worst case ~5e-8 relative).
    """

    def raw(step):
        d1, d2, d3 = fd_derivatives(pos_fn, u, step)
        cr = np.cross(d1, d2)
        kappa = np.linalg.norm(cr) / np.linalg.norm(d1) ** 3
        torsion = float(cr @ d3) / float(cr @ cr)
        return np.array([kappa, torsion])

    fine, coarse = raw(h / 2.0), raw(h)
    kappa, torsion = (4.0 * fine - coarse) / 3.0
    return float(kappa), float(torsion)


def richardson_time_derivative(f, t, h):
    """d f/dt by central differences extrapolated over h and h/2."""
    coarse = (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)
    fine = (np.asarray(f(t + h / 2.0)) - np.asarray(f(t - h / 2.0))) / h
    return (4.0 * fine - coarse) / 3.0


def dense_inverse_residual(m):
    """Max abs entry of M @ inv(M) - I using a dense solve."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m @ np.linalg.solve(m, np.eye(3)) - np.eye(3))))


def signal_energy_quadrature(values):
    """Mean-square of a periodic signal sampled uniformly over one period."""
    values = np.asarray(values, dtype=float)
    return float(np.mean(values**2))


# -- `vortexlab verify`'s samples and certificates, one point at a time ------
#
# The row-by-row loops `verify.run_all_checks` ran before its checks became
# array passes: the reference for its draws (equal bit for bit) and its four
# values (equal to within the rounding the batched sums reorder).


def _frame_d(kappa, torsion, alpha1, alpha2, dz_alpha1, dz_alpha2, r1, r2):
    a = (1.0 - kappa * r1) + (r1 * dz_alpha1 + r2 * dz_alpha2)
    b = -r2 * torsion + (r1 * alpha1 + r2 * alpha2) * kappa
    c = r1 * torsion
    return a, b, c, a - b * alpha1 - c * alpha2


def verify_reference_samples(rng):
    """(matrix rows (1000, 8), expansion base rows (50, 6), trajectory rows (100, 142)).

    Drawn as the loops drew them: a matrix point is 6 values in [-2, 2] then
    (R1, R2) in [-0.1, 0.1], kept when |D| > 0.1; an expansion base point is
    6 values with R = 0, kept likewise; a trajectory is a desk tensor's 140
    coefficients in [-0.5, 0.5], then t in [t0, t1], then s in [0, 1).
    """
    from vortexlab.ring_model import RingConfig

    matrix = []
    while len(matrix) < 1000:
        row = np.concatenate([rng.uniform(-2.0, 2.0, size=6), rng.uniform(-0.1, 0.1, size=2)])
        if abs(_frame_d(*row)[3]) > 0.1:
            matrix.append(row)
    base = []
    while len(base) < 50:
        row = rng.uniform(-2.0, 2.0, size=6)
        if abs(_frame_d(*row, 0.0, 0.0)[3]) > 0.1:
            base.append(row)
    cfg = RingConfig(J=4, K=6, n_s=16)
    trajectories = []
    for _ in range(100):
        flat = rng.uniform(-0.5, 0.5, size=4 * (cfg.J + 1) * (cfg.K + 1))
        t = rng.uniform(cfg.t0, cfg.t1)
        s = rng.uniform(0.0, 1.0)
        trajectories.append(np.concatenate([flat, [t, s]]))
    return np.array(matrix), np.array(base), np.array(trajectories)


def _inverse_residual(row):
    alpha1, alpha2 = row[2:4]
    a, b, c, d = _frame_d(*row)
    m = np.array([[a, b, c], [alpha1, 1.0, 0.0], [alpha2, 0.0, 1.0]])
    m_inv = (
        np.array(
            [
                [1.0, -b, -c],
                [-alpha1, a - c * alpha2, c * alpha1],
                [-alpha2, b * alpha2, a - b * alpha1],
            ]
        )
        / d
    )
    return float(np.max(np.abs(m @ m_inv - np.eye(3))))


def _expansion_slope(row, direction):
    kappa, torsion, alpha1, alpha2, dz_alpha1, dz_alpha2 = row
    scales = np.logspace(-1, -4, 7)
    coeff1 = (-kappa + dz_alpha1) - alpha1**2 * kappa - torsion * alpha2
    coeff2 = dz_alpha2 - (-torsion + alpha2 * kappa) * alpha1
    remainders = []
    for eps in scales:
        r1, r2 = eps * direction[0], eps * direction[1]
        d = _frame_d(*row, r1, r2)[3]
        remainders.append(abs(1.0 / d - (1.0 - coeff1 * r1 - coeff2 * r2)))
    remainders = np.array(remainders)
    if np.all(remainders < 1e-300):
        return float("inf")
    mask = remainders > 0.0
    slope, _ = np.polyfit(np.log(scales[mask]), np.log(remainders[mask]), 1)
    return float(slope)


def _leibniz_residual(row, cfg):
    from vortexlab.ring_model import CoefficientTensor, phi_eval

    tensor = CoefficientTensor.from_flat(row[:-2], cfg.J, cfg.K)
    t, s = row[-2:]
    h = cfg.fd_step
    p = phi_eval(np.array([t - h, t, t + h]), s, tensor, cfg)
    d1_lo, d1, d1_hi, d2 = p.d1[0], p.d1[1], p.d1[2], p.d2[1]
    v = np.linalg.norm(d1)
    v_t = float(np.dot(d1, d2)) / v
    dzz_phi = (d1_hi / np.linalg.norm(d1_hi) - d1_lo / np.linalg.norm(d1_lo)) / (2.0 * h) / v
    residual = d2 - v**2 * dzz_phi - v_t * (d1 / v)
    return float(np.linalg.norm(residual) / np.linalg.norm(d2))


def verify_reference_values(seed):
    """The four certificate values of ``run_all_checks(seed)``, one sample at a time."""
    from vortexlab.geometry import DEFAULT_EPS_KAPPA, TrajectoryKinematics
    from vortexlab.ring_model import RingConfig
    from vortexlab.verify import check_closure_rearrangement
    from vortexlab.wave_dynamics import wave_coefficients

    rng = np.random.default_rng(seed)
    matrix, base, trajectories = verify_reference_samples(rng)
    cfg = RingConfig(J=4, K=6, n_s=16)
    directions = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    values = [
        max(_inverse_residual(row) for row in matrix),
        min(_expansion_slope(row, d) for row in base for d in directions),
        max(_leibniz_residual(row, cfg) for row in trajectories),
    ]
    v = rng.uniform(0.5, 3.0, size=1000)
    v_t, v_tt = rng.uniform(-3.0, 3.0, size=(2, 1000))
    kappa, kappa_t, torsion, alpha1, alpha2 = rng.uniform(-2.0, 2.0, size=(5, 1000))
    kappa = np.abs(kappa)
    kin = TrajectoryKinematics(
        v, v_t, v_tt, kappa, kappa_t, torsion, frame=None, degenerate=kappa < DEFAULT_EPS_KAPPA
    )
    ratio, forcing = wave_coefficients(kin)
    res1, res2 = check_closure_rearrangement(
        v, v_t, v_tt, kappa, kappa_t, torsion, alpha1, alpha2, ratio * alpha1 + forcing, ratio * alpha2
    )
    values.append(float(max(res1.max(), res2.max())))
    return values


# -- `vortexlab render`'s grid reader, one cell at a time --------------------
#
# The reader `cli._read_grid_csv` used before numpy's C parser took over:
# `csv.reader` splits the rows and `np.array` converts every cell with
# Python's `float`.  The reference for the arrays it returns.


def read_grid_csv_reference(path):
    """The grid's numeric columns, one row per node; every row needs t, s and the position."""
    import csv

    from vortexlab.cli import GRID_HEADER, ConfigError, _floats

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != GRID_HEADER:
                raise ConfigError(f"grid file {path}: unexpected header {header}")
            rows = [row[:12] for row in reader]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"grid file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"grid file {path}: no data rows")
    # ragged rows do not convert; equal rows must reach z
    data = _floats(rows, f"grid file {path}: malformed row")
    width = GRID_HEADER.index("z") + 1
    if data.shape[1] < width:
        raise ConfigError(f"grid file {path}: {data.shape[1]} values a row, need at least {width}")
    return data


# -- the Sobol stream's LMS+shift scramble, from scipy's draws ---------------
#
# The two `rng.integers(2, ...)` draws `optimizer._sobol_stream` made before
# it read the same bits from raw PCG64 words, and scipy's `_cscramble` loop
# written as one GF(2) matrix-vector product per direction number.  The
# reference for the (shift, directions) the stream returns, bit for bit.


def sobol_scramble_reference(direction_numbers, seed, n_points):
    """(shift, directions) of ``qmc.Sobol(d, scramble=True, seed=seed)`` up to ``n_points`` points.

    ``direction_numbers`` is the unscrambled uint32 (d, 30) table.  Output
    bit 29 - p of a scrambled direction number v is the parity of row p of
    the unit lower-triangular LMS matrix dotted with v's bits, bit 29 - i
    against column i.  Only the bit_length(n_points - 1) direction numbers
    the points reach are returned, uint32 (bit_length, d) as the stream has
    them.
    """
    v = np.asarray(direction_numbers)
    dim, bits = v.shape
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ 2 ** np.arange(bits, dtype=np.uint32)
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    n_dir = max(n_points - 1, 0).bit_length()
    msb_first = np.arange(bits - 1, -1, -1)
    v_bits = (v[:, :n_dir, None].astype(np.int64) >> msb_first) & 1
    scrambled_bits = np.einsum("dpi,dji->djp", ltm.astype(np.int64), v_bits) & 1
    directions = (scrambled_bits << msb_first).sum(axis=2).astype(np.uint32)
    return shift, np.ascontiguousarray(directions.T)
