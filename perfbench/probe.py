"""A speed probe for timings on a shared host.

Other tenants of a shared host can halve a process's speed for seconds at a
time.  The probe is a fixed piece of work that touches nothing of slopeflow
and slows down with the program: exact ``Fraction`` arithmetic, random reads
from a list and a dict too large for the caches, small numpy array steps, and
a sort and JSON dump of floats.  A latency over the probe's time next to it
is a cost in units of the probe, steady from one minute to the next; on the
2-core VM the benchmark was tuned on, this mix followed the time of a pass
of each workload with a slope of 1.0 to 1.15 on log scales, closer than any
of its parts alone (see README.md).  ``scaled`` turns such a ratio back into seconds at the
reference speed, the speed at which one probe takes ``PROBE_REF_S``.

Import this module only after anything whose import is being timed: it
imports numpy.
"""

import json
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

#: the probe's seconds at the reference speed, a fixed scale: about its time
#: on the 2-core VM the benchmark was tuned on while the host was busy (1.0
#: to 1.1 ms while it was quiet), so scaled timings read close to the
#: wall-clock timings of a busy host
PROBE_REF_S = 2.2e-3

_RNG = random.Random(1)
_FLOATS = [_RNG.random() for _ in range(200_000)]
_TABLE = {i: i for i in range(100_000)}


def speed_probe() -> float:
    """Seconds that the fixed mix takes now."""
    t0 = perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = (x * Fraction(i, i + 7) + Fraction(1, i)) / 2
    rng = random.Random(2)
    acc = 0.0
    for _ in range(400):
        acc += _FLOATS[rng.randrange(200_000)] + _TABLE[rng.randrange(100_000)]
    arr = np.linspace(0.0, 1.0, 256)
    for _ in range(24):
        arr = np.sqrt(arr * arr + 1.0) - 0.5 * arr
    json.dumps(sorted(_FLOATS[:2000], reverse=True)[:200])
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed, given the probes just before and after."""
    return 2 * PROBE_REF_S * seconds / (before + after)
