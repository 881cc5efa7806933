"""Two-dimensional pattern counting against brute-force grid enumeration."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meandim import grid2d as g2
from meandim import limits
from meandim.errors import DomainError, ResourceLimit
from meandim.oracle import covering_bounds

HARD_SQUARE_KAPPA = 1.5030480824753  # Baxter, Ann. Comb. 3 (1999)


def brute_force_count(spec, n_rows, m_cols):
    """Check every grid against the rule directly; no transfer matrices."""
    a = spec.alphabet
    count = 0
    for flat in itertools.product(range(a), repeat=n_rows * m_cols):
        grid = [flat[i * m_cols : (i + 1) * m_cols] for i in range(n_rows)]
        if _grid_ok(spec, grid):
            count += 1
    return count


def _grid_ok(spec, grid):
    n_rows, m_cols = len(grid), len(grid[0])
    if spec.rule == "free":
        return True
    if spec.rule == "linear":
        c00, c10, c01 = spec.coeffs
        rows_top = n_rows - (1 if c10 else 0)
        cols_top = m_cols - (1 if c01 else 0)
        for i in range(rows_top):
            for j in range(cols_top):
                total = c00 * grid[i][j]
                if c10:
                    total += c10 * grid[i + 1][j]
                if c01:
                    total += c01 * grid[i][j + 1]
                if total % spec.alphabet:
                    return False
        return True
    h, w = spec.window
    for i in range(n_rows - h + 1):
        for j in range(m_cols - w + 1):
            pat = tuple(tuple(grid[i + r][j + c] for c in range(w)) for r in range(h))
            if pat not in spec.allowed:
                return False
    return True


# The column filter the transfer graph replaced: every a^(n m) grid, in
# itertools.product order of its columns, kept when no window is violated.


def _linear_intra_ok(spec, col):
    a = spec.alphabet
    c00, c10, c01 = spec.coeffs
    if c01 != 0:
        return True  # constraint references the next column; checked there
    top = len(col) - (1 if c10 != 0 else 0)
    for i in range(top):
        nxt = col[i + 1] if c10 != 0 else 0
        if (c00 * col[i] + c10 * nxt) % a != 0:
            return False
    return True


def _linear_trans_ok(spec, col, nxt_col):
    a = spec.alphabet
    c00, c10, c01 = spec.coeffs
    if c01 == 0:
        return True
    top = len(col) - (1 if c10 != 0 else 0)
    for i in range(top):
        below = col[i + 1] if c10 != 0 else 0
        if (c00 * col[i] + c10 * below + c01 * nxt_col[i]) % a != 0:
            return False
    return True


def _patterns_trans_ok(spec, strip, new_col):
    h, w = spec.window
    cols = strip + (new_col,)
    for i in range(len(new_col) - h + 1):
        pat = tuple(tuple(cols[c][i + r] for c in range(w)) for r in range(h))
        if pat not in spec.allowed:
            return False
    return True


def _pattern_admissible(spec, cols):
    if spec.rule == "free":
        return True
    if spec.rule == "linear":
        if not all(_linear_intra_ok(spec, c) for c in cols):
            return False
        return all(
            _linear_trans_ok(spec, cols[j], cols[j + 1]) for j in range(len(cols) - 1)
        )
    h, w = spec.window
    if len(cols[0]) < h or len(cols) < w:
        return True
    return all(
        _patterns_trans_ok(spec, tuple(cols[j : j + w - 1]), cols[j + w - 1])
        for j in range(len(cols) - w + 1)
    )


def reference_patterns(spec, n_rows, m_cols):
    a = spec.alphabet
    return [
        tuple(tuple(cols[m][i] for m in range(m_cols)) for i in range(n_rows))
        for cols in itertools.product(
            itertools.product(range(a), repeat=n_rows), repeat=m_cols
        )
        if _pattern_admissible(spec, cols)
    ]


@st.composite
def linear_rules(draw):
    a = draw(st.sampled_from((2, 3, 4)))
    coeffs = draw(st.tuples(*[st.integers(0, a - 1)] * 3))
    return g2.linear_rule(a, *coeffs)


@st.composite
def pattern_rules(draw):
    a = draw(st.sampled_from((2, 3)))
    h, w = draw(st.sampled_from(((1, 2), (2, 1), (2, 2), (2, 3), (1, 4))))
    windows = list(itertools.product(itertools.product(range(a), repeat=w), repeat=h))
    allowed = draw(st.lists(st.sampled_from(windows), unique=True, max_size=len(windows)))
    return g2.patterns_rule(a, (h, w), allowed)


@st.composite
def sweep_rules(draw):
    """Linear rules with composite moduli and a non-unit c01 or with no
    nonzero coefficient, window rules up to 3 x 3 or 1 x 4, and window rules
    with no allowed window."""
    kind = draw(st.sampled_from(("composite", "zero", "window", "empty")))
    if kind == "composite":
        a = draw(st.sampled_from((4, 6)))
        return g2.linear_rule(a, draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1)), 2)
    if kind == "zero":
        return g2.linear_rule(draw(st.sampled_from((2, 3, 4, 6))), 0, 0, 0)
    h, w = draw(st.sampled_from(((1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (1, 4))))
    a = 2 if h * w > 4 else draw(st.sampled_from((2, 3)))
    if kind == "empty":
        return g2.patterns_rule(a, (h, w), [])
    windows = list(itertools.product(itertools.product(range(a), repeat=w), repeat=h))
    return g2.patterns_rule(a, (h, w), draw(st.lists(st.sampled_from(windows), unique=True)))


class TestTransferGraph:
    """The transfer graph against the column filter it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.one_of(linear_rules(), pattern_rules()),
        n_rows=st.integers(1, 4),
        m_cols=st.integers(1, 4),
    )
    def test_matches_the_column_filter(self, spec, n_rows, m_cols):
        a = spec.alphabet
        while a ** (n_rows * m_cols) > 4096:  # keep the filter small
            n_rows, m_cols = max(1, n_rows - 1), max(1, m_cols - 1)
        want = reference_patterns(spec, n_rows, m_cols)
        assert g2.count_rectangles(spec, n_rows, m_cols) == len(want)
        assert g2.enumerate_patterns(spec, n_rows, m_cols) == want
        rep = g2.entropy2d(spec, n_rows, m_cols)
        assert list(rep.counts) == [
            (n, m) for n in range(1, n_rows + 1) for m in range(1, m_cols + 1)
        ]
        for (n, m), c in rep.counts.items():
            assert c == g2.count_rectangles(spec, n, m)

    @pytest.mark.parametrize("seed", range(4))
    def test_width_four_window_reads_three_free_columns(self, seed):
        # three strip columns: the root reaches each strip through two
        # levels of prefix states
        rng = random.Random(seed)
        windows = list(itertools.product(itertools.product(range(2), repeat=4), repeat=1))
        spec = g2.patterns_rule(2, (1, 4), rng.sample(windows, rng.randint(1, 15)))
        for n_rows, m_cols in ((1, 6), (2, 5), (3, 4)):
            want = reference_patterns(spec, n_rows, m_cols)
            assert g2.count_rectangles(spec, n_rows, m_cols) == len(want)
            assert g2.enumerate_patterns(spec, n_rows, m_cols) == want
            counts = g2.entropy2d(spec, n_rows, m_cols).counts
            assert [counts[(n_rows, m)] for m in (1, 2, 3)] == [2**n_rows, 4**n_rows, 8**n_rows]

    def test_hard_square_9x9_and_10x10(self):
        # both values also come out of the pair-by-pair transfer code that
        # the graph replaced (about 5 s and 20 s there)
        spec = g2.hard_square_rule()
        assert g2.count_rectangles(spec, 9, 9) == 770548397261707
        assert g2.count_rectangles(spec, 10, 10) == 2030049051145980050

    def test_hard_square_entropy_upper_bounds_baxter(self):
        rep = g2.entropy2d(g2.hard_square_rule(), 10, 10)
        assert rep.best >= math.log(HARD_SQUARE_KAPPA)
        assert rep.counts[(10, 10)] == 2030049051145980050

    @pytest.mark.parametrize("spec", [g2.hard_square_rule(), g2.linear_rule(3, 1, 2, 1),
                                      g2.linear_rule(3, 1, 2, 0)])
    def test_labels_are_column_codes(self, spec):
        # column (c_0, ..., c_{n-1}) has code sum c_i a^(n-1-i), its index
        # in itertools.product order, so code order is lexicographic order
        a, n_rows = spec.alphabet, 2
        graph = g2._transfer_graph(spec, n_rows)
        labels = {label for trans in graph.succ for label in trans}
        assert all(type(c) is int for c in labels) and labels <= set(range(a**n_rows))
        words = [tuple(w) for w in graph.enumerate_words(3).tolist()]
        assert words == sorted(words)
        cols = list(itertools.product(range(a), repeat=n_rows))
        assert [tuple(cols[c] for c in w) for w in words] == [
            tuple(zip(*p)) for p in reference_patterns(spec, n_rows, 3)
        ]

    def test_budget_caps_transfer_states_and_edges(self, monkeypatch):
        # the state budget caps the partial patterns each row of the sweep keeps:
        # 4, 7 and 17 hard-square patterns of 1, 2 and 3 rows by 2 columns
        monkeypatch.delenv("MEANDIM_BUDGET", raising=False)
        spec = g2.hard_square_rule()
        with pytest.raises(ResourceLimit, match="3 rows, at row 2: 7 or more partial patterns exceed the cap 4"):
            with limits.override(4):
                g2.count_rectangles(spec, 3, 3)
        with pytest.raises(ResourceLimit, match="2 rows, at row 2: 7 or more partial patterns exceed the cap 4"):
            with limits.override(4):
                g2.count_rectangles(spec, 2, 3)
        with limits.override(7):
            assert g2.count_rectangles(spec, 2, 3) == 17
        # entropy2d also checks its cells against the word budget: the state default is lowered
        monkeypatch.setitem(limits.DEFAULT_CAPS, "state", 7)
        with pytest.raises(ResourceLimit, match="3 rows, at row 3: 17 or more partial patterns exceed the cap 7$"):
            g2.entropy2d(spec, 3, 3)
        # rows that hold no window need no transfer graph
        monkeypatch.setitem(limits.DEFAULT_CAPS, "state", 0)
        assert g2.count_rectangles(spec, 1, 3) == 8
        assert g2.entropy2d(spec, 1, 3).counts[(1, 3)] == 8

    def test_row_one_is_refused_before_it_is_built(self, monkeypatch):
        # above the window's last row every candidate is kept, so row 1 holds
        # all 2100^2 row codes: they were built and tested (a 202 MiB peak)
        # before the state budget refused them
        monkeypatch.delenv("MEANDIM_BUDGET", raising=False)
        spec = g2.patterns_rule(2100, (2, 2), [[[0, 0], [0, 0]]])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit) as err:
                g2.count_rectangles(spec, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("state budget: the transfer graph for 2 rows, at row 1: "
                                  "4410000 or more partial patterns exceed the cap 4194304")
        assert peak < 16 << 20

    @settings(max_examples=150, deadline=None)
    @given(spec=sweep_rules(), n_rows=st.integers(1, 4), m_cols=st.integers(1, 4))
    def test_row_sweep_matches_the_column_filter(self, spec, n_rows, m_cols):
        a = spec.alphabet
        while a ** (n_rows * m_cols) > 4096:  # keep the filter small
            n_rows, m_cols = max(1, n_rows - 1), max(1, m_cols - 1)
        want = reference_patterns(spec, n_rows, m_cols)
        assert g2.count_rectangles(spec, n_rows, m_cols) == len(want)
        assert g2.enumerate_patterns(spec, n_rows, m_cols) == want
        counts = g2.entropy2d(spec, n_rows, m_cols).counts
        for (n, m), c in counts.items():
            assert c == len(reference_patterns(spec, n, m))

    def test_wide_alphabets_need_no_window_table(self):
        # 50^4 and 13^6 window codes, far more than the partial patterns kept
        assert g2._transfer_graph(g2.linear_rule(50, 1, 1, 1), 2).word_counts(3)[-1] == 50**4
        constant = [((c,) * 3,) * 2 for c in range(13)]
        assert g2.count_rectangles(g2.patterns_rule(13, (2, 3), constant), 2, 5) == 13

    def test_hard_square_graph_keeps_only_live_strips(self):
        # F(15) = 610 columns without two adjacent 1s, and the root
        assert g2._transfer_graph(g2.hard_square_rule(), 13).n_states == 611

    def test_columns_past_int64(self):
        # 2^70 strips, of which the all-0 and all-1 columns are live
        spec = g2.patterns_rule(2, (2, 2), [((0, 0), (0, 0)), ((1, 1), (1, 1))])
        assert g2._transfer_graph(spec, 70).n_states == 3
        assert g2.count_rectangles(spec, 70, 5) == 2
        assert g2.enumerate_patterns(spec, 64, 5) == [((0,) * 5,) * 64, ((1,) * 5,) * 64]
        cloud = g2.torus_points(spec, 64, 5)
        assert cloud.points.tolist() == [[0.0] * 64, [31 / 32] * 64]


@st.composite
def wide_linear_rules(draw):
    """Linear rules on 1 to 18 symbols with coefficients drawn up to 3a, so
    zeros and coefficients >= a (reduced by linear_rule) both occur."""
    a = draw(st.integers(1, 18))
    return g2.linear_rule(a, *draw(st.tuples(*[st.integers(0, 3 * a)] * 3)))


class TestLinearClosedForm:
    """count_rectangles' closed form for linear rules against the transfer
    sweep and brute-force enumeration, which count without it."""

    @settings(max_examples=400, deadline=None)
    @given(spec=wide_linear_rules(), n_rows=st.integers(1, 5), m_cols=st.integers(1, 5))
    def test_formula_matches_the_sweep_and_brute_force(self, spec, n_rows, m_cols):
        a, cells = spec.alphabet, n_rows * m_cols
        small = a**cells <= 4096
        try:  # the graph's words shorter than the window are not all patterns
            with limits.override(1 << 15):
                sweep = a**cells if g2._window_free(spec, n_rows, m_cols) else g2._transfer_graph(
                    spec, n_rows).word_counts(m_cols)[-1]
        except ResourceLimit:  # past the sweep's cap: brute force alone, if small
            sweep = None
        assume(sweep is not None or small)
        got = g2.count_rectangles(spec, n_rows, m_cols)
        if sweep is not None:
            assert got == sweep
        if small:
            assert got == brute_force_count(spec, n_rows, m_cols)

    def test_counts_without_a_transfer_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("linear counts build no transfer graph")

        monkeypatch.setattr(g2, "_transfer_graph", refuse)
        monkeypatch.setattr(g2, "_row_sweep", refuse)
        # g = 1 and 39 x 39 windows: 12^(1600 - 1521)
        assert g2.count_rectangles(g2.linear_rule(12, 2, 3, 4), 40, 40) == 12**79
        counts = g2.entropy2d(g2.linear_rule(50, 1, 1, 1), 3, 3).counts
        assert counts == {(n, m): 50 ** (n + m - 1) for n in range(1, 4) for m in range(1, 4)}


class TestCounts:
    def test_free_rule_powers(self):
        assert g2.count_rectangles(g2.free_rule(2), 3, 3) == 512
        assert g2.count_rectangles(g2.free_rule(3), 2, 5) == 59049

    def test_three_dot_closed_form(self):
        spec = g2.three_dot_rule(2)
        for n in range(1, 7):
            for m in range(1, 7):
                assert g2.count_rectangles(spec, n, m) == 2 ** (n + m - 1)

    def test_three_dot_brute_force(self):
        spec = g2.three_dot_rule(2)
        for n in range(1, 5):
            for m in range(1, 5):
                assert g2.count_rectangles(spec, n, m) == brute_force_count(spec, n, m)

    def test_linear_mod3(self):
        spec = g2.linear_rule(3, 1, 2, 1)
        for n in range(1, 4):
            for m in range(1, 4):
                assert g2.count_rectangles(spec, n, m) == brute_force_count(spec, n, m)

    def test_vertical_only_rule(self):
        # c01 = 0: a purely intra-column constraint
        spec = g2.linear_rule(2, 1, 1, 0)
        for n in range(1, 5):
            for m in range(1, 4):
                assert g2.count_rectangles(spec, n, m) == brute_force_count(spec, n, m)

    def test_hard_square_counts(self):
        spec = g2.hard_square_rule()
        for n in range(2, 5):
            for m in range(2, 5):
                assert g2.count_rectangles(spec, n, m) == brute_force_count(spec, n, m)
        assert g2.count_rectangles(spec, 3, 3) == 63
        assert g2.count_rectangles(spec, 4, 4) == 1234

    def test_window_taller_than_grid_is_free(self):
        spec = g2.hard_square_rule()
        assert g2.count_rectangles(spec, 1, 4) == 2**4

    def test_axis_submultiplicativity(self):
        for spec in (g2.three_dot_rule(2), g2.hard_square_rule()):
            counts = {
                (n, m): g2.count_rectangles(spec, n, m)
                for n in range(1, 7)
                for m in range(1, 7)
            }
            for n in range(1, 7):
                for m1 in range(1, 6):
                    for m2 in range(1, 7 - m1):
                        assert counts[(n, m1 + m2)] <= counts[(n, m1)] * counts[(n, m2)]
                        assert counts[(m1 + m2, n)] <= counts[(m1, n)] * counts[(m2, n)]

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            g2.count_rectangles(g2.free_rule(2), 0, 3)

    @pytest.mark.parametrize("pattern", [((0, 5),), ((-1, 0),)])
    def test_pattern_symbols_outside_the_alphabet_rejected(self, pattern):
        with pytest.raises(DomainError, match=r"allowed pattern .* outside 0\.\.2"):
            g2.patterns_rule(3, (1, 2), [pattern])


class TestEntropy2D:
    def test_free_rule_constant(self):
        rep = g2.entropy2d(g2.free_rule(2), 4, 4)
        assert all(e == math.log(2) for e in rep.estimates.values())
        assert rep.best == math.log(2)

    def test_three_dot_trend(self):
        rep = g2.entropy2d(g2.three_dot_rule(2), 6, 6)
        assert rep.estimates[(6, 6)] < 0.31 * math.log(2)
        # every cell upper-bounds the entropy (which is 0 for this rule)
        assert all(e >= 0 for e in rep.estimates.values())

    @pytest.mark.parametrize("n_max,m_max", [(0, 4), (4, 0), (-1, -1)])
    def test_empty_grid_rejected(self, n_max, m_max):
        # an empty grid failed on min() of an empty sequence
        with pytest.raises(DomainError, match=rf"\({n_max}, {m_max}\)"):
            g2.entropy2d(g2.free_rule(2), n_max, m_max)

    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(linear_rules(), pattern_rules(), sweep_rules()),
           n_max=st.integers(1, 4), m_max=st.integers(1, 4),
           budget=st.one_of(st.none(), st.integers(0, 40)))
    def test_one_sweep_matches_count_rectangles_per_row_count(self, spec, n_max, m_max, budget):
        """entropy2d sweeps once to n_max rows; count_rectangles sweeps each
        row count on its own.  A state budget refusal comes at the same row,
        with the same size and cap, as the first row count's that fails.  The
        state default is lowered, not overridden: an override also caps
        entropy2d's cells."""
        refusal = re.compile(r"^(\w+) budget: .* at row (\d+): (\d+) or more .* the cap (\d+)$")
        caps = {} if budget is None else {"state": budget}
        with mock.patch.dict(os.environ), mock.patch.dict(limits.DEFAULT_CAPS, caps):
            os.environ.pop("MEANDIM_BUDGET", None)
            want, first = {}, None
            for n, m in itertools.product(range(1, n_max + 1), range(1, m_max + 1)):
                try:
                    want[(n, m)] = g2.count_rectangles(spec, n, m)
                except ResourceLimit as exc:
                    first = first or refusal.match(str(exc)).groups()
            if first is None:
                assert g2.entropy2d(spec, n_max, m_max).counts == want
            else:
                with pytest.raises(ResourceLimit) as exc:
                    g2.entropy2d(spec, n_max, m_max)
                assert refusal.match(str(exc.value)).groups() == first

    def test_hard_square_matches_enumeration(self):
        rep = g2.entropy2d(g2.hard_square_rule(), 4, 4)
        for n in range(1, 5):
            for m in range(1, 5):
                expected = brute_force_count(g2.hard_square_rule(), n, m)
                assert rep.counts[(n, m)] == expected


def homog_dims(spec, n_max, m_max):
    return g2.homog_dims_from_report(g2.entropy2d(spec, n_max, m_max), spec.alphabet)


class TestHomogeneousDims:
    def test_free_is_exactly_one(self):
        rep = homog_dims(g2.free_rule(2), 4, 4)
        assert rep["mdim"] == 1.0
        assert rep["exact_power"]

    def test_three_dot_trends_to_zero(self):
        rep = homog_dims(g2.three_dot_rule(2), 6, 6)
        assert rep["mdim"] == pytest.approx(float(Fraction(11, 36)), abs=1e-12)

    def test_single_pattern_is_zero(self):
        spec = g2.patterns_rule(2, (1, 1), [((0,),)])
        rep = homog_dims(spec, 3, 3)
        assert rep["mdim"] == 0.0

    def test_stops_at_the_first_count_that_is_no_power(self, monkeypatch):
        # a row holds no 2 x 2 window, so 2, 4, 8 and 16 are powers; 7 at
        # 2 x 2 is the first that is not, and ends the report after 6 of
        # the 16 counts
        rep = g2.entropy2d(g2.hard_square_rule(), 4, 4)
        calls, int_log = [], g2._int_log

        def counted(value, base):
            calls.append(value)
            return int_log(value, base)

        monkeypatch.setattr(g2, "_int_log", counted)
        got = g2.homog_dims_from_report(rep, 2)
        assert got == {"mdim": rep.best / math.log(2), "exact_power": False}
        assert calls == [2, 4, 8, 16, 4, 7]

    @pytest.mark.parametrize("spec", [g2.free_rule(1), g2.linear_rule(1, 1, 1, 1)])
    def test_unary_alphabet_is_rejected(self, spec):
        # log a = 0: there is no dimension to report
        with pytest.raises(DomainError):
            homog_dims(spec, 2, 2)


class TestTorusPoints:
    def test_free_points_are_dyadics(self):
        cloud = g2.torus_points(g2.free_rule(2), 1, 3)
        values = sorted(p[0] for p in cloud.points.tolist())
        assert values == [j / 8 for j in range(8)]

    def test_three_dot_count(self):
        cloud = g2.torus_points(g2.three_dot_rule(2), 2, 2)
        assert len(cloud) == 8

    def test_single_pattern_single_point(self):
        spec = g2.patterns_rule(2, (1, 1), [((0,),)])
        assert len(g2.torus_points(spec, 2, 2)) == 1

    def test_points_distinct(self):
        cloud = g2.torus_points(g2.free_rule(2), 2, 3)
        seen = {tuple(p) for p in cloud.points.tolist()}
        assert len(seen) == len(cloud)

    @pytest.mark.parametrize(
        "spec,n_rows,m_cols,depth",
        [
            (g2.free_rule(2), 1, 3, 3),
            (g2.free_rule(3), 1, 2, 2),
            (g2.hard_square_rule(), 2, 3, 3),
            (g2.three_dot_rule(3), 2, 3, 1),
            (g2.linear_rule(5, 1, 2, 3), 1, 3, 0),
            # a^M = 2^60 and 3^40 pass 2^53: the Python-integer path
            (g2.patterns_rule(2, (1, 2), [[[0, 0]], [[0, 1]]]), 1, 60, 1),
            (g2.patterns_rule(3, (1, 2), [[[0, 0]], [[0, 2]], [[2, 1]], [[1, 1]]]), 2, 40, 0),
        ],
    )
    def test_points_equal_the_row_sums(self, spec, n_rows, m_cols, depth):
        got = g2.torus_points(spec, n_rows, m_cols, depth=depth).points
        want = reference_torus_points(spec, n_rows, m_cols, depth)
        assert got.shape == want.shape and (got == want).all()
        rows = n_rows + depth
        assert g2.enumerate_patterns(spec, rows, m_cols) == walked_patterns(spec, rows, m_cols)

    @settings(max_examples=40, deadline=None)
    @given(pattern_rules() | linear_rules(), st.integers(1, 3), st.integers(1, 3))
    def test_points_equal_the_row_sums_on_random_rules(self, spec, n_rows, m_cols):
        assume(spec.alphabet ** (n_rows * m_cols) <= 4096)
        got = g2.torus_points(spec, n_rows, m_cols).points
        want = reference_torus_points(spec, n_rows, m_cols, 0)
        assert np.array_equal(got, want.reshape(got.shape))  # (0,) when empty

    def test_no_pattern_gives_an_empty_cloud(self):
        spec = g2.patterns_rule(2, (1, 1), [])
        cloud = g2.torus_points(spec, 2, 2)
        assert cloud.points.shape == (0, 2)
        assert reference_torus_points(spec, 2, 2, 0).size == 0
        assert g2.enumerate_patterns(spec, 2, 2) == []
        bounds = covering_bounds(cloud, 1.5)
        assert (bounds.lower, bounds.upper) == (0, 0)


def walked_patterns(spec, n_rows, m_cols):
    """Patterns as row tuples, transposed from column tuples: all column
    words when no window fits, else the transfer graph's words with each
    column code looked up in `itertools.product` order."""
    cols = list(itertools.product(range(spec.alphabet), repeat=n_rows))
    if g2._window_free(spec, n_rows, m_cols):
        words = itertools.product(range(len(cols)), repeat=m_cols)
    else:
        words = g2._transfer_graph(spec, n_rows).enumerate_words(m_cols)
    return [tuple(zip(*(cols[c] for c in word))) for word in words]


def reference_torus_points(spec, n_rows, m_cols, depth):
    """The row sums in Python integers, each divided by a^M."""
    a = spec.alphabet
    denom = a**m_cols
    pats = walked_patterns(spec, n_rows + depth, m_cols)
    return np.array([
        [sum(row[m] * a ** (m_cols - 1 - m) for m in range(m_cols)) / denom for row in pat]
        for pat in pats
    ])


# The pairwise Fraction computation that key_fact_check's digit-gap lemma
# replaced, kept as its reference: every pair of cloud points, exact rationals.


def _torus_gap_int(p, q, denom):
    d = abs(p - q) % denom
    return Fraction(min(d, denom - d), denom)


def rect_metric_distance(ints_x, ints_y, denom, a, shift_window, mult_window):
    """d over the rectangle [0, shift_window) x [0, mult_window): the sup over
    shift iterates i and digit-multiplication iterates m of the weighted torus
    sum, computed exactly from integer digit values."""
    rows = len(ints_x)
    best = Fraction(0)
    for m in range(mult_window):
        mult = pow(a, m, denom)
        xs = [(v * mult) % denom for v in ints_x]
        ys = [(v * mult) % denom for v in ints_y]
        for i in range(shift_window):
            total = Fraction(0)
            for j in range(i, rows):
                total += _torus_gap_int(xs[j], ys[j], denom) / (1 << (j - i + 1))
            if total > best:
                best = total
    return float(best)


def shift_metric_distance(ints_x, ints_y, denom, shift_window):
    """The dynamical weighted-torus metric with the given shift window."""
    return rect_metric_distance(ints_x, ints_y, denom, 1, shift_window, 1)


def reference_key_fact_check(spec, n_rows, m_cols):
    from meandim.metrics import SUM_WEIGHTED_TORUS, MetricDescriptor, PointCloud
    from meandim.oracle import covering_bounds

    a = spec.alphabet
    eps = 0.5 * float(a) ** (-m_cols)
    tail = 1
    while 2.0**-tail >= eps / 2.0:
        tail += 1
    cloud = g2.torus_points(spec, n_rows, m_cols, depth=tail)
    denom = a**m_cols
    ints = [
        tuple(sum(d * a ** (m_cols - 1 - m) for m, d in enumerate(row)) for row in pat)
        for pat in g2.enumerate_patterns(spec, n_rows + tail, m_cols)
    ]
    n_pts = len(ints)

    threshold = 1.0 / (4.0 * a)
    violations = 0
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            rect = rect_metric_distance(ints[i], ints[j], denom, a, n_rows + tail, m_cols)
            if rect < threshold:
                shifted = shift_metric_distance(ints[i], ints[j], denom, n_rows)
                if shifted >= eps:
                    violations += 1

    shift_cloud = PointCloud(
        points=cloud.points,
        metric=MetricDescriptor(kind=SUM_WEIGHTED_TORUS, iterates=n_rows),
        truncation_error=0.5 * 2.0 ** -(tail + 1),
    )
    lower_shift = covering_bounds(shift_cloud, eps).lower

    centers = []
    radius = threshold / 2.0 - 1e-12
    for i in range(n_pts):
        if all(
            rect_metric_distance(ints[i], ints[c], denom, a, n_rows + tail, m_cols) > radius
            for c in centers
        ):
            centers.append(i)
    upper_rect = len(centers)

    return {
        "eps": eps,
        "tail": tail,
        "pointwise_ok": violations == 0,
        "violations": violations,
        "lower_shift": lower_shift,
        "upper_rect": upper_rect,
        "bracket_ok": lower_shift <= upper_rect,
        "points": n_pts,
    }


def key_fact_cloud_size(spec, n_rows, m_cols):
    eps = 0.5 * float(spec.alphabet) ** (-m_cols)
    tail = 1
    while 2.0**-tail >= eps / 2.0:
        tail += 1
    return g2.count_rectangles(spec, n_rows + tail, m_cols)


@st.composite
def key_fact_cases(draw):
    a = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["free", "three_dot", "hard_square", "linear"]))
    if kind == "free":
        spec = g2.free_rule(a)
    elif kind == "three_dot":
        spec = g2.three_dot_rule(a)
    elif kind == "hard_square":
        spec = g2.hard_square_rule()
    else:
        c = st.integers(0, a - 1)
        spec = g2.linear_rule(a, draw(c), draw(c), draw(c))
    return spec, draw(st.integers(1, 2)), draw(st.integers(1, 2))


class TestKeyFact:
    @pytest.mark.parametrize("n_rows,m_cols", [(1, 1), (2, 1)])
    def test_free_rule_implication_and_bracket(self, n_rows, m_cols):
        rep = g2.key_fact_check(g2.free_rule(2), n_rows, m_cols)
        assert rep["pointwise_ok"]
        assert rep["bracket_ok"]

    def test_three_dot_small(self):
        rep = g2.key_fact_check(g2.three_dot_rule(2), 1, 1)
        assert rep["pointwise_ok"]
        assert rep["bracket_ok"]

    def test_runs_the_separated_greedy_alone(self, monkeypatch):
        # the check reads only the lower bound, so the centers greedy of
        # covering_bounds is not run
        from meandim import oracle

        scans = []
        scan = oracle._scan_greedy
        monkeypatch.setattr(oracle, "_scan_greedy", lambda *args: scans.append(1) or scan(*args))
        rep = g2.key_fact_check(g2.free_rule(2), 1, 2)
        assert len(scans) == 1
        cloud = g2.torus_points(g2.free_rule(2), 1, 2, depth=rep["tail"])
        assert rep["lower_shift"] == covering_bounds(cloud, rep["eps"]).lower

    @settings(max_examples=30, deadline=None)
    @given(key_fact_cases())
    def test_matches_pairwise_fraction_reference(self, case):
        # a = 3 makes the threshold 1/(4a) non-dyadic; a = 3 with m_cols = 2
        # has a^M > 2a, so rows can differ by less than 1/(2a) before the
        # digit multiplication
        spec, n_rows, m_cols = case
        assume(key_fact_cloud_size(spec, n_rows, m_cols) <= 81)
        assert g2.key_fact_check(spec, n_rows, m_cols) == reference_key_fact_check(
            spec, n_rows, m_cols
        )

    @pytest.mark.parametrize(
        "spec,n_rows,m_cols",
        # 243 points with a^M <= 2a; 9 points with a^M > 2a
        [(g2.free_rule(3), 1, 1), (g2.linear_rule(3, 1, 2, 0), 2, 2)],
    )
    def test_matches_reference_on_base_3_clouds(self, spec, n_rows, m_cols):
        assert g2.key_fact_check(spec, n_rows, m_cols) == reference_key_fact_check(
            spec, n_rows, m_cols
        )

    @staticmethod
    def timed_in_child(call):
        """(seconds, report) of grid2d.<call> in a child with one BLAS thread."""
        child = (
            "import json, time\n"
            "from meandim import grid2d\n"
            "t0 = time.perf_counter()\n"
            f"rep = grid2d.{call}\n"
            "print(json.dumps([time.perf_counter() - t0, rep]))\n"
        )
        src = str(Path(g2.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        return json.loads(proc.stdout)

    def test_free_2x2_under_ten_seconds(self):
        # The pairwise Fraction loop took more than a minute.  The brackets
        # were cross-checked once against a blocked all-pairs numpy computation.
        seconds, rep = self.timed_in_child("key_fact_check(grid2d.free_rule(2), 2, 2)")
        assert seconds < 10.0
        assert rep == {
            "eps": 0.125,
            "tail": 5,
            "pointwise_ok": True,
            "violations": 0,
            "lower_shift": 64,
            "upper_rect": 16384,
            "bracket_ok": True,
            "points": 16384,
        }

    def test_base_3_cloud_with_large_row_gaps_under_three_seconds(self):
        # a^M = 9 > 2a: measuring every rectangle-metric pair of these 6,561
        # points took about 7.5 s; the digit-gap lemma measures none
        seconds, rep = self.timed_in_child("key_fact_check(grid2d.linear_rule(3, 1, 1, 1), 1, 2)")
        assert seconds < 3.0
        assert rep == {
            "eps": 0.05555555555555555,
            "tail": 6,
            "pointwise_ok": True,
            "violations": 0,
            "lower_shift": 54,
            "upper_rect": 6561,
            "bracket_ok": True,
            "points": 6561,
        }


HARD_SQUARE_DOC = {  # the seven 2x2 windows without two adjacent 1s
    "a": 2,
    "rule": "patterns",
    "window": [2, 2],
    "allowed": [
        [[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
        [[0, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]],
    ],
}


class TestRuleJson:
    def test_round_trip(self):
        # literal documents against the rules their constructors build
        cases = [
            ({"a": 2, "rule": "free"}, g2.free_rule(2)),
            ({"a": 2, "rule": "linear", "coeffs": [1, 1, 1]}, g2.three_dot_rule(2)),
            (HARD_SQUARE_DOC, g2.hard_square_rule()),
        ]
        for doc, spec in cases:
            back = g2.rule_from_json(json.dumps(doc))
            assert back == spec
            assert g2.count_rectangles(back, 3, 3) == g2.count_rectangles(spec, 3, 3)
