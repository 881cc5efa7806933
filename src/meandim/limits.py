"""Enumeration budgets and the one refusal past them.

Every exhaustive enumeration in the package is gated by one of these budgets
so that a bad input fails fast with ResourceLimit instead of hanging.  The
environment variable MEANDIM_BUDGET (an integer) overrides the word and point
budgets; a value passed by the caller overrides any of them.  Every refusal
reads `<budget> budget: [<where>: ]<size> <what> exceed the cap <cap>`.
"""

import os

from .errors import ResourceLimit

DEFAULT_CAPS = {
    "word": 20_000_000,  # words materialized by any single enumeration
    "state": 2**22,      # partial patterns per row of the 2d transfer-graph sweep
    "subset": 2**20,     # subset states during determinization
    "point": 2_000_000,  # points materialized into a cloud
}
_ENV_BUDGETS = ("word", "point")  # the budgets MEANDIM_BUDGET overrides


def cap(budget: str, override: int | None = None) -> int:
    """The cap of one budget: the caller's override, else MEANDIM_BUDGET
    for the word and point budgets, else the default."""
    if override is not None:
        return int(override)
    env = os.environ.get("MEANDIM_BUDGET") if budget in _ENV_BUDGETS else None
    return int(env) if env else DEFAULT_CAPS[budget]


def check(budget: str, size: int, what: str, cap: int, where: str | None = None) -> None:
    """Raise ResourceLimit when size passes cap, naming both."""
    if size > cap:
        at = f"{where}: " if where else ""
        raise ResourceLimit(f"{budget} budget: {at}{size} {what} exceed the cap {cap}")
