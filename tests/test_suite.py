"""The paper-suite's own kernels and records: the brute-force grid count,
the memory criteria 2 and 7 take, criterion 2's second computation and the
suite's timer."""

import itertools
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim import grid2d as g2
from meandim import suite, weighted


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
