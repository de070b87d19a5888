"""Machine-speed calibration for the benchmark's timings.

On a machine whose cores are shared with other tenants, speed drifts by up
to a fifth over seconds to minutes: on the 2-vCPU Xeon the baseline was
measured on, the same library call took 46 to 80 ms from one moment to the
next.  The runner therefore runs a fixed calibration unit after every op,
for about 3 % of the op's time, and scales each round's times by
``NOMINAL_S / median(unit times in the round)``: timings are reported as
they would read on a machine where the unit takes ``NOMINAL_S``.  The unit spends about half its time on interpreter
arithmetic and half on small-array numpy, like the library's ops: the
scalar checks of ``verify-scale`` slow down under contention about as much
as the interpreter half, the extension kernel as much as the numpy half.
It calls nothing in the library, so no change to the library moves it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 3.0e-3

_rng = np.random.default_rng(0)
_STATES = np.exp(1j * _rng.uniform(0.0, 2 * math.pi, 1000))
_STARTS = _rng.uniform(0.0, 2 * math.pi, 16)


def unit() -> float:
    """Run the calibration unit once; return its wall time in seconds."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.4j, 0.0
    for _ in range(6000):
        z = (0.9 * z + 0.1j) / (-0.1j * z + 0.9)
        acc += abs(z)
    c = _STATES
    for _ in range(3):
        c = (0.9 * c + 0.1j) / (-0.1j * c + 0.9)
        c = c / np.abs(c)
        d = (np.angle(c)[:, None] - _STARTS[None, :]) % (2 * math.pi)
        acc += int((d < 0.5).any(axis=1).sum())
    return time.perf_counter() - t0


def factor(unit_times: list[float]) -> float:
    """Scale that brings times measured beside these units to nominal speed."""
    return NOMINAL_S / statistics.median(unit_times)
