"""Machine-speed reference for the end-to-end times.

The benchmark is meant to run on small shared machines whose speed
drifts: on the 2-core VM the baseline was taken on, the same build took
from 7.6 to 13.0 s within half an hour, while passes inside one run
agreed to a few percent.  So every run also times a fixed reference
computation that does not touch irrseq -- CPython big-integer products,
an interpreted coefficient loop and numpy integer array passes, the three
kinds of work the package does -- before each set-up, between passes and
after the last pass.  ``speed_factor`` compares the run's median
reference times with fixed nominal times; the end-to-end time metrics are
the measured seconds times that factor, i.e. seconds at the nominal
machine speed.  The raw seconds are printed beside them.

The nominal times are constants: they only fix the unit and must not be
changed, or every later comparison against the baseline shifts.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

import reference as ref

# nominal seconds of each component, the baseline machine in a quiet spell
NOMINAL_S = {"bigint": 0.06, "interp": 0.05, "numpy": 0.05}

_rng = random.Random(20120730)
_A = _rng.getrandbits(8 * 16384)
_B = _rng.getrandbits(8 * 16384)
_PA = [_rng.randrange(7) for _ in range(80)]
_PB = [_rng.randrange(7) for _ in range(80)]
_ARR = np.arange(200_000, dtype=np.int64)
_BUF = np.empty_like(_ARR)   # reused: a fresh 1.6 MB array would time the allocator


def _bigint() -> None:
    for _ in range(15):
        _A * _B


def _interp() -> None:
    for _ in range(150):
        ref.mul(_PA, _PB, 7)


def _numpy() -> None:
    for _ in range(60):
        np.multiply(_ARR, 7, out=_BUF)
        np.remainder(_BUF, 13, out=_BUF)


_PARTS = {"bigint": _bigint, "interp": _interp, "numpy": _numpy}


def sample() -> dict[str, float]:
    """Seconds of one run of each reference component."""
    out = {}
    for name, fn in _PARTS.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def speed_factor(samples: list[dict[str, float]]) -> float:
    """Geometric mean over components of nominal / median measured time:
    below 1 when the machine ran slower than nominal."""
    logs = [math.log(NOMINAL_S[k] / statistics.median(s[k] for s in samples))
            for k in NOMINAL_S]
    return math.exp(sum(logs) / len(logs))
