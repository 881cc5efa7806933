"""The benchmark's recorded references, checked in tier-1: one pass of each
workload (seed 0, default budgets), and every job's check passes.  Without
this, a change to the bytes of a CLI example or a recorded criterion shows
only when the benchmark runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import jobs  # noqa: E402


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_first_pass_matches_the_references(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("MEANDIM_BUDGET", raising=False)
    failed = {}
    for job in jobs.WORKLOADS[workload](0, 0, tmp_path, jobs.load_refs()):
        message = job.check(job.run())
        if message is not None:
            failed[job.name] = message
    assert failed == {}
