"""Acceptance gate: every criterion at its stated tolerance and runtime.

Each test prints one pass/fail line; `meandim paper-suite` runs the same
checks from the command line.
"""

import time

import pytest

from meandim.suite import CRITERIA

RUNTIME_BUDGETS = {
    "1": 1.0,
    "2": 30.0,
    "3": 10.0,
    "4": 120.0,  # no stated budget; kept finite for regression hygiene
    "5": 60.0,
    "6": 1.0,
    "7": 60.0,
    "8": 30.0,
    "9": 30.0,
    "10": 10.0,
}


@pytest.mark.parametrize("number,criterion", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(number, criterion):
    start = time.perf_counter()
    record = criterion()
    seconds = time.perf_counter() - start
    tag = "PASS" if record["passed"] else "FAIL"
    print(f"[{tag}] criterion {number}: {record['name']} ({seconds:.3f}s)")
    assert record["passed"], record["details"]
    assert seconds <= RUNTIME_BUDGETS[number], (
        f"criterion {number} took {seconds:.3f}s, budget {RUNTIME_BUDGETS[number]}s"
    )
