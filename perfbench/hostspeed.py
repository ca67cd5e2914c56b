"""Host-speed scaling of measured times.

Shared virtual machines, such as the 2-vCPU one the baseline was taken on,
change speed by up to 2x for seconds to minutes at a time (other tenants on
the host), and a sample measured in a
slow stretch reads up to 2x slower than the same sample in a fast one.  So an
in-process sample is bracketed by a fixed probe: about 2 ms of small-array
numpy work shaped like the program's own inner loop (cross products, norms,
an einsum on (n, 3) arrays), which slows down with the host in step with the
program.  The probe was chosen over a pure-Python loop because it tracks the
program's slowdown closely, where the loop tracks only part of it.

A scaled time is the measured time times ``REFERENCE_S / probe``, with
``probe`` the mean of the probe before and after the sample: the time the
sample would have taken at the host speed the probe reads ``REFERENCE_S``.
The probe reads the CPU its own thread runs on, at two instants, so it scales
a single-threaded in-process sample; a fresh process keeps its raw time,
because a probe in the parent cannot see the speed the child ran at.  For a
multi-second sample the two instants track the host less well than for a
short one (ten-seed spreads of 13-23% against 2-10%), but still better than
the raw time (16-32%).  Probing during a sample did not help: from a thread
the probe waits for the interpreter lock the measured code holds, and from a
second process it read the other CPU.

The raw times are kept beside the scaled ones in every result.  The probe is
benchmark code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time on the machine the baseline was taken on (Intel Xeon, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6), in its fast state.
REFERENCE_S = 2.0e-3

_A = np.linspace(0.1, 1.0, 3 * 64).reshape(64, 3)
_B = _A[::-1].copy()


def probe() -> float:
    """Median wall time of five runs of the fixed probe work, after two unmeasured.

    The unmeasured runs absorb the slow first iterations after an idle wait.
    """
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(60):
            c = np.cross(_A, _B)
            norm = np.sqrt(np.sum(c * c, axis=-1))
            np.einsum("ij,ij->i", c / norm[:, None], _A)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[2:])


def timed(fn):
    """(result, raw wall s, scale) of ``fn()``, bracketed by probes."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = probe()
    return result, wall, REFERENCE_S * 2.0 / (before + after)

