"""Enumeration budgets.

Every exhaustive enumeration in the package is gated by one of these budgets
so that a bad input fails fast with ResourceLimit instead of hanging.  The
environment variable MEANDIM_BUDGET (an integer) overrides the word and point
budgets; a value passed by the caller overrides the word, point and state
budgets.  The subset budget is fixed.
"""

import os

DEFAULT_WORD_BUDGET = 20_000_000  # words materialized by any single enumeration
DEFAULT_STATE_BUDGET = 2**22      # partial patterns per row of the 2d transfer-graph sweep
DEFAULT_SUBSET_BUDGET = 2**20     # subset states during determinization
DEFAULT_POINT_BUDGET = 2_000_000  # points materialized into a cloud


def word_budget(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("MEANDIM_BUDGET")
    if env:
        return int(env)
    return DEFAULT_WORD_BUDGET


def state_budget(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    return DEFAULT_STATE_BUDGET


def subset_budget() -> int:
    return DEFAULT_SUBSET_BUDGET


def point_budget(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("MEANDIM_BUDGET")
    if env:
        return int(env)
    return DEFAULT_POINT_BUDGET
