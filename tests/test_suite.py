"""The paper-suite's own kernels and records: the brute-force grid count,
the memory criteria 2 and 7 take, criterion 2's second computation, the
suite's timer and its two-process claim loop."""

import io
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meandim
from meandim import cli, suite, weighted
from meandim import grid2d as g2
from meandim.errors import ResourceLimit


def reference_grid_count(spec, n_rows, m_cols):
    """Every grid of itertools.product order, every 2 x 2 window checked
    one cell at a time."""
    a = spec.alphabet
    c00, c10, c01 = spec.coeffs
    count = 0
    for flat in itertools.product(range(a), repeat=n_rows * m_cols):
        grid = [flat[i * m_cols : (i + 1) * m_cols] for i in range(n_rows)]
        ok = True
        for i in range(n_rows - 1):
            for j in range(m_cols - 1):
                if (c00 * grid[i][j] + c10 * grid[i + 1][j] + c01 * grid[i][j + 1]) % a:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


@st.composite
def linear_grid_cases(draw):
    """Random linear rules, zero coefficients included, on sizes with at
    most 4,096 grids (one block)."""
    a = draw(st.sampled_from((2, 3, 4)))
    coeffs = draw(st.tuples(*[st.integers(0, a - 1)] * 3))
    n_rows = draw(st.integers(1, 4))
    m_cols = draw(st.integers(1, 4).filter(lambda m: a ** (n_rows * m) <= 4096))
    return g2.linear_rule(a, *coeffs), n_rows, m_cols


class TestBruteForceGridCount:
    @settings(max_examples=120, deadline=None)
    @given(linear_grid_cases(), st.sampled_from((1, 2, 3, 7, 10, 64)))
    def test_blocks_equal_the_cell_loop(self, case, block):
        """Small blocks move the high/low digit split into the grid, so
        windows straddle it (block 1: every digit high, one grid a block)."""
        spec, n_rows, m_cols = case
        want = reference_grid_count(spec, n_rows, m_cols)
        assert suite._brute_force_grid_count(spec, n_rows, m_cols) == want
        with mock.patch.object(suite, "_GRID_BLOCK", block):
            assert suite._brute_force_grid_count(spec, n_rows, m_cols) == want

    def test_grids_past_one_block(self):
        # 2^16 grids: sixteen full blocks
        spec = g2.linear_rule(2, 1, 1, 1)
        want = reference_grid_count(spec, 4, 4)
        assert suite._brute_force_grid_count(spec, 4, 4) == want == 2 ** (4 + 4 - 1)


@pytest.mark.parametrize(
    "criterion, cap",
    [
        (suite.criterion_weighted_consistency, 1 << 20),
        (suite.criterion_grid2d, 1 << 19),
        (suite.criterion_reciprocal_space, 2 << 20),
    ],
)
def test_criterion_peak_traced_memory(criterion, cap):
    """Criterion 2 raises Z_N to powers and sweeps at most four lengths,
    criterion 7 counts grids a block at a time over one table of low digits
    (0.27 MiB traced peak), and criterion 9 sums at most one block of atoms
    per interval (1.54 MiB, most of it the 100,001 atoms of its set
    dimensions); the first run fills the library's caches, the second is
    traced."""
    assert criterion()["passed"]
    tracemalloc.start()
    try:
        assert criterion()["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap


def test_weighted_consistency_catches_a_wrong_closed_form(monkeypatch):
    """One fiber moved between two columns keeps |R| and the column count,
    so only the generic sweep can tell the closed form is wrong."""
    true_sizes = weighted.tuple_fiber_sizes

    def moved_unit(sys_):
        t = true_sizes(sys_)
        big = [v for v, size in t.items() if size >= 2]
        if big and len(t) >= 2:
            t[big[0]] -= 1
            t[next(v for v in t if v != big[0])] += 1
        return t

    assert suite.criterion_weighted_consistency()["passed"]
    monkeypatch.setattr(weighted, "tuple_fiber_sizes", moved_unit)
    assert not suite.criterion_weighted_consistency()["passed"]


def test_run_suite_times_each_criterion(monkeypatch):
    def criterion():
        return {"name": "fake", "passed": True, "details": {}}

    monkeypatch.setattr(suite, "CRITERIA", (("1", criterion), ("2", criterion)))
    results = suite.run_suite(verbose=False)
    assert [r["number"] for r in results] == ["1", "2"]
    assert all(r.keys() == {"name", "passed", "details", "number", "seconds"} for r in results)
    assert all(r["seconds"] >= 0 for r in results)


def test_qbox_criterion_sampled_cells_pinned():
    # the three cells past the all-pairs cap are checked on sampled pairs;
    # their record is the paper-suite's, whichever pairs the sampler draws
    rec = suite.criterion_qbox()
    assert rec["passed"]
    cells = {key: rec["details"][key] for key in ("2,5", "3,4", "3,5")}
    assert cells == {
        "2,5": {"count": 11664, "observed_min": 0.03125, "ok": True, "required": 0.03125},
        "3,4": {"count": 46656, "observed_min": 0.0625, "ok": True, "required": 0.0625},
        "3,5": {"count": 1259712, "observed_min": 0.03125, "ok": True, "required": 0.03125},
    }


def fake_criteria(count=8, fail=None):
    """Criteria that sleep 30 ms each, so both processes claim some; each
    record's details name the pid that ran it, and fail(number) runs before
    the record is returned."""

    def make(number):
        def criterion():
            time.sleep(0.03)
            if fail:
                fail(number)
            return {"name": f"fake {number}", "passed": True, "details": {"pid": os.getpid()}}
        return criterion

    return tuple((str(k), make(str(k))) for k in range(1, count + 1))


def without(records, *keys):
    return [{k: v for k, v in rec.items() if k not in keys} for rec in records]


def serial(monkeypatch):
    """run_suite on one CPU, where it must not fork."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        m.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked on one CPU")))
        return suite.run_suite(verbose=False)


TWO_CPUS = hasattr(os, "fork") and len(
    os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
) >= 2


class TestClaimLoop:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):  # nothing left running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_records_come_back_in_order_equal_to_the_serial_loop(self, monkeypatch):
        monkeypatch.setattr(suite, "CRITERIA", fake_criteria())
        results = suite.run_suite(verbose=False)
        assert [r["number"] for r in results] == [str(k) for k in range(1, 9)]
        assert all(r["seconds"] >= 0.03 for r in results)  # timed where it ran
        want = serial(monkeypatch)
        assert without(results, "seconds", "details") == without(want, "seconds", "details")

    @pytest.mark.skipif(not TWO_CPUS, reason="the claim loop forks only with two CPUs")
    def test_both_processes_run_criteria(self, monkeypatch):
        monkeypatch.setattr(suite, "CRITERIA", fake_criteria())
        pids = {r["details"]["pid"] for r in suite.run_suite(verbose=False)}
        assert os.getpid() in pids and len(pids) == 2

    @pytest.mark.parametrize("error, code, prefix", [
        (AssertionError, 2, "check failed: "),
        (ResourceLimit, 3, "resource limit: "),
    ])
    def test_the_first_failure_in_order_raises_with_its_exit_code(self, monkeypatch, error,
                                                                  code, prefix):
        def fail(number):
            if number in ("3", "6"):  # whichever process claims either
                raise error(f"criterion {number} broke")

        monkeypatch.setattr(suite, "CRITERIA", fake_criteria(fail=fail))
        with pytest.raises(error, match="^criterion 3 broke$"):
            suite.run_suite(verbose=False)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert cli.main(["paper-suite"]) == code
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()  # progress in CRITERIA order, then the failure
        assert [line.split(":")[0] for line in lines[:-1]] == ["[PASS] criterion 1",
                                                               "[PASS] criterion 2"]
        assert lines[-1] == f"{prefix}criterion 3 broke"

    def test_no_fork_beside_another_thread(self, monkeypatch):
        # a forked child holds only the calling thread, so a lock another
        # thread held at the fork would never be released in it
        monkeypatch.setattr(suite, "CRITERIA", fake_criteria(count=3))
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            results = suite.run_suite(verbose=False)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert {r["details"]["pid"] for r in results} == {os.getpid()}

    def test_a_child_that_dies_still_yields_the_full_report(self, monkeypatch):
        parent = os.getpid()

        def die_in_the_child(number):
            if os.getpid() != parent:
                os._exit(1)

        monkeypatch.setattr(suite, "CRITERIA", fake_criteria(fail=die_in_the_child))
        results = suite.run_suite(verbose=False)
        assert [r["number"] for r in results] == [str(k) for k in range(1, 9)]
        assert all(r["passed"] and r["details"]["pid"] == parent for r in results)

    def test_an_interrupt_in_the_parent_kills_and_reaps_the_child(self, monkeypatch):
        parent = os.getpid()

        def interrupt(number):
            if os.getpid() != parent:
                time.sleep(30)  # killed, not waited for
            raise KeyboardInterrupt

        monkeypatch.setattr(suite, "CRITERIA", fake_criteria(count=4, fail=interrupt))
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            suite.run_suite(verbose=False)
        assert time.perf_counter() - start < 10.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_runs_the_same_loop_without_fork():
    """A child process pinned to one CPU, with an os.fork that fails, gives
    the same number, name and passed fields as an unpinned run."""
    pin = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "def no_fork():\n"
        "    raise RuntimeError('forked on one CPU')\n"
        "os.fork = no_fork\n"
    )
    run = "from meandim.cli import main\nsys.exit(main(['paper-suite', '--quiet']))\n"
    src = str(Path(meandim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    reports = []
    for code in (pin + run, "import sys\n" + run):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports.append([{k: c[k] for k in ("number", "name", "passed")}
                        for c in json.loads(proc.stdout)["criteria"]])
    assert reports[0] == reports[1]
    assert len(reports[0]) == 10 and all(c["passed"] for c in reports[0])
