"""Seeded random draws against the uniqueness of the flow limits.

The canonical solutions are unique and are the limits of the flows, so a
limit must not depend on where the flow starts.  Each cotangent case below
runs from seeded rough admissible starts, x psi rising from q to bp by
random positive increments, and from the special profile.  Every run keeps
admissibility, converges, and ends within TERMINAL_GAP of the special
start's terminal profile.  The monotone and comparison monitors are not
asserted: they assume a start ordered against the limit, as the special
profile is, and a rough start is not.
"""

import numpy as np
import pytest

from slopeflow.calabi_profiles import MomentProfile
from slopeflow.flow_engine import FlowConfig, run_cotangent_flow

#: one stable and two unstable triples, the second with the wall jump flux
ROUGH_COT_CASES = [(2, 3, 1), (2, 3, 0), (9 / 4, 3, -1 / 4)]
ROUGH_SEEDS = range(6)
#: the largest sup distance allowed between two terminal profiles, in units of
#: convergence_tol; the worst of the 54 runs here is 7.6, at grid 256
TERMINAL_GAP = 20


def _rough_start(rng, b, p, q, grid):
    """x psi rising from q at x = 1 to b p at x = b by increments drawn
    uniformly from (0, 1) and scaled to their sum."""
    x = np.linspace(1.0, b, grid + 1)
    rise = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 1.0, grid))))
    vals = (q + (b * p - q) * rise / rise[-1]) / x
    return MomentProfile(x, vals, (q, p))


@pytest.mark.parametrize("grid", (64, 128, 256))
@pytest.mark.parametrize("bpq", ROUGH_COT_CASES)
def test_cotangent_limit_forgets_a_rough_start(bpq, grid):
    cfg = FlowConfig(grid_size=grid, dt=0.05, t_max=300.0)
    limit = run_cotangent_flow(*bpq, "special", cfg=cfg).terminal_profile.values
    for seed in ROUGH_SEEDS:
        tr = run_cotangent_flow(*bpq, _rough_start(np.random.default_rng(seed), *bpq, grid), cfg=cfg)
        assert tr.converged, seed
        gap = float(np.max(np.abs(tr.terminal_profile.values - limit)))
        assert gap <= TERMINAL_GAP * cfg.convergence_tol, (seed, gap)
