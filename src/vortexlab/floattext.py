"""Where orjson spells a float64 as ``float.__repr__`` does.

vortexlab's output files spell floats as ``repr`` (and ``json``) do.  orjson
writes the same shortest round-trip digits, and the log and grid writers
take its text wherever the spellings agree: exactly at 0 and
1e-4 <= |x| < 1e16, where both use plain notation.  Outside it repr writes
1e-05 and 1e+16 where orjson writes 0.00001 and 1e16, and orjson writes
``null`` for NaN and the infinities.  The comparisons are exact on doubles,
and a NaN or infinity fails them.
"""

from __future__ import annotations

import numpy as np

PLAIN_MIN = 1e-4
PLAIN_MAX = 1e16


def plain(values: np.ndarray) -> np.ndarray:
    """Mask of the float64 ``values`` that orjson spells as ``repr`` does: 0 and 1e-4 <= |x| < 1e16."""
    mag = np.abs(values)
    return (mag == 0.0) | ((mag >= PLAIN_MIN) & (mag < PLAIN_MAX))


def all_plain(values: np.ndarray) -> bool:
    """``plain(values).all()`` for a non-empty 1-d array, from |x|'s extremes where they decide it."""
    mag = np.abs(values)
    if not np.maximum.reduce(mag) < PLAIN_MAX:
        return False
    return bool(np.minimum.reduce(mag) >= PLAIN_MIN or plain(values).all())
