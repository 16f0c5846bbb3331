"""Shared fixtures.

The production propagation (16^4 grid points per surface, 2048 steps) takes
tens of seconds, so the runs backing the spectrum/shot-budget/boundary tests
are session-scoped and computed once.
"""

import numpy as np
import pytest
from hypothesis import settings

from vibroniq import GridSpec, TimeGrid, initial_state, pyrazine_4d
from vibroniq.soft import PropagatorPlan, propagate

# Hypothesis draws the same examples on every run, so Tier-1 is deterministic
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

PROD_RANGE = (-5.0, 5.0)
PROD_TOTAL_FS = 264.0


def production_run(n_steps: int, stride: int) -> dict:
    model = pyrazine_4d()
    grid = GridSpec(n=4, q_min=PROD_RANGE[0], q_max=PROD_RANGE[1], convention="periodic")
    tg = TimeGrid(dt=PROD_TOTAL_FS / n_steps, n_steps=n_steps, sample_stride=stride)
    plan = PropagatorPlan(model, grid, tg.dt)
    return propagate(plan, initial_state(model, grid), tg)


@pytest.fixture(scope="session")
def prod_run() -> dict:
    """2048-step production run sampled every 16 steps (129 points)."""
    return production_run(2048, 16)


@pytest.fixture(scope="session")
def prod_run_1024() -> dict:
    """Half-resolution run sampled every 8 steps, landing on the same times."""
    return production_run(1024, 8)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260821)
