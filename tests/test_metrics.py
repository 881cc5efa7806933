"""Metric axioms and window monotonicity on random truncated points."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim import metrics
from meandim.errors import DomainError
from meandim.metrics import (
    LINF_FINITE,
    SUM_WEIGHTED_ABS,
    SUM_WEIGHTED_TORUS,
    MetricDescriptor,
    PointCloud,
    pairwise_to_point,
    torus_gap,
)

SCALAR_KINDS = (SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS, LINF_FINITE)


def distance(x, y, metric):
    """One distance through the vector kernel."""
    return float(pairwise_to_point(np.asarray(x)[None], y, metric)[0])


@pytest.mark.parametrize("kind", SCALAR_KINDS)
@pytest.mark.parametrize("iterates", [None, 1, 4])
def test_metric_axioms_on_random_triples(kind, iterates):
    rng = np.random.default_rng(hash((kind, iterates)) % 2**32)
    metric = MetricDescriptor(kind=kind, iterates=iterates)
    for _ in range(1000):
        x, y, z = rng.random((3, 12))
        dxy = distance(x, y, metric)
        dyx = distance(y, x, metric)
        assert abs(dxy - dyx) <= 1e-12
        assert distance(x, x, metric) == 0.0
        assert dxy <= distance(x, z, metric) + distance(z, y, metric) + 1e-12


@pytest.mark.parametrize("kind", (SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS))
def test_window_monotone(kind):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.random((2, 16))
        values = [
            distance(x, y, MetricDescriptor(kind=kind, iterates=n)) for n in range(1, 6)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_dynamic_dominates_static():
    rng = np.random.default_rng(6)
    for _ in range(100):
        x, y = rng.random(10), rng.random(10)
        static = distance(x, y, MetricDescriptor(kind=SUM_WEIGHTED_ABS))
        dynamic = distance(x, y, MetricDescriptor(kind=SUM_WEIGHTED_ABS, iterates=5))
        assert dynamic >= static - 1e-15


def test_torus_gap_wraps():
    assert torus_gap(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert torus_gap(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert float(torus_gap(0.25, 0.25)) == 0.0


def test_weighted_abs_hand_value():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    metric = MetricDescriptor(kind=SUM_WEIGHTED_ABS)
    assert distance(x, y, metric) == pytest.approx(0.5 + 0.25, abs=1e-15)
    shifted = MetricDescriptor(kind=SUM_WEIGHTED_ABS, iterates=2)
    # the shift drops the first coordinate: max(0.75, 0.5)
    assert distance(x, y, shifted) == pytest.approx(0.75, abs=1e-15)


def test_cloud_pairwise_and_min():
    rng = np.random.default_rng(7)
    cloud = PointCloud(
        points=rng.random((9, 6)),
        metric=MetricDescriptor(kind=LINF_FINITE),
    )
    mat = cloud.pairwise()
    n = len(cloud)
    direct = min(mat[i][j] for i in range(n) for j in range(n) if i != j)
    assert cloud.min_pairwise() == pytest.approx(direct, abs=1e-15)
    assert np.allclose(mat, mat.T)


def reference_min_pairwise(cloud):
    """The per-point loop the linf grid join replaced."""
    best = np.inf
    for i in range(len(cloud) - 1):
        row = pairwise_to_point(cloud.points[i + 1 :], cloud.points[i], cloud.metric)
        best = min(best, float(row.min()))
    return best


@st.composite
def linf_clouds(draw):
    """Points on (1/8) Z^dim, scaled by a non-dyadic factor or jittered by
    tiny offsets: many pairs tie at the same distance, and duplicates occur."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 120))
    coords = st.integers(-24, 24).map(lambda k: k / 8.0)
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    pts = np.array(rows) * draw(st.sampled_from([1.0, 0.1, 3.7]))
    if draw(st.booleans()):
        pts += np.random.default_rng(draw(st.integers(0, 99))).random(pts.shape) * 1e-6
    iterates = draw(st.none() | st.integers(1, dim + 1))
    return PointCloud(points=pts, metric=MetricDescriptor(kind=LINF_FINITE, iterates=iterates))


@settings(max_examples=200, deadline=None)
@given(linf_clouds())
def test_linf_min_pairwise_matches_the_per_point_loop(cloud):
    assert cloud.min_pairwise() == reference_min_pairwise(cloud)


def test_min_pairwise_on_a_wide_cloud_with_one_close_pair():
    rng = np.random.default_rng(8)
    pts = rng.random((3000, 5)) * 1e3
    pts[1234] = pts[17] + 1e-7
    cloud = PointCloud(points=pts, metric=MetricDescriptor(kind=LINF_FINITE, iterates=3))
    assert cloud.min_pairwise() == reference_min_pairwise(cloud)


def test_min_pairwise_joins_adjacent_cells():
    # the closest pair (9.99, 5.5), (10.01, 5.5) straddles the cell border
    # near 10 and is not adjacent in lexicographic order, where integer
    # grid points a distance 1 apart set the cell side
    grid = np.array([(i, j) for i in range(30) for j in range(30)], dtype=float)
    pts = np.vstack([grid, [(9.99, 5.5), (10.01, 5.5), (10.0, 50.0)]])
    cloud = PointCloud(points=pts, metric=MetricDescriptor(kind=LINF_FINITE))
    assert cloud.min_pairwise() == reference_min_pairwise(cloud)
    assert cloud.min_pairwise() < 0.03


@st.composite
def grid_cells(draw):
    """Integer cell rows for `_grid_join`: coordinate k in [0, radix[k] - 1),
    with the edge digits 0 and radix[k] - 2 drawn often and repeated rows."""
    radix = draw(st.lists(st.integers(2, 6), max_size=4))
    digits = [st.sampled_from([0, r - 2]) | st.integers(0, r - 2) for r in radix]
    rows = draw(st.lists(st.tuples(*digits), max_size=90))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=30))
    cells = np.array(rows, dtype=np.int64).reshape(len(rows), len(radix))
    return cells[np.random.default_rng(draw(st.integers(0, 99))).permutation(len(rows))], radix


@settings(max_examples=300, deadline=None)
@given(grid_cells(), st.sampled_from([None, 1, 5]))
def test_grid_join_pairs_equal_or_adjacent_cells_once(case, chunk):
    cells, radix = case
    n = len(cells)
    want = {(i, j) for i in range(n) for j in range(i + 1, n)
            if np.abs(cells[i] - cells[j]).max(initial=0) <= 1}
    with mock.patch.object(metrics, "_PAIR_CHUNK", chunk or metrics._PAIR_CHUNK):
        count, blocks = metrics._grid_join(cells, radix)
        got = [(min(i, j), max(i, j)) for a, b in blocks
               for i, j in zip(a.tolist(), b.tolist(), strict=True)]
    assert count() == len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("kind", [SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS])
def test_weighted_window_past_the_coordinates_is_refused(kind):
    pts = np.zeros((3, 4))
    PointCloud(points=pts, metric=MetricDescriptor(kind=kind, iterates=4))
    with pytest.raises(DomainError, match="metric iterates 5 exceeds the cloud's 4 coordinates"):
        PointCloud(points=pts, metric=MetricDescriptor(kind=kind, iterates=5))


def explicit_distance(x, y, metric):
    """The weighted sum of one shift at a time, with math.fsum."""
    gaps = np.asarray(metrics._base_rows(np.asarray(x), np.asarray(y), metric.kind))
    shifts = 1 if metric.iterates is None else metric.iterates
    return max(
        math.fsum(g * 0.5 ** (n - i + 1) for n, g in enumerate(gaps) if n >= i)
        for i in range(shifts)
    )


@st.composite
def weighted_clouds(draw):
    """Random clouds of the weighted metrics, with non-dyadic coordinates
    and duplicates."""
    kind = draw(st.sampled_from([SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS]))
    dim = draw(st.integers(1, 9))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = (rng.random((n, dim)) - 0.25) * draw(st.sampled_from([1.0, 3.7, 1e-3]))
    if n > 1 and draw(st.booleans()):
        pts = np.concatenate([pts, pts[rng.integers(0, n, 3)]])
    iterates = draw(st.none() | st.integers(1, dim))
    return PointCloud(points=pts, metric=MetricDescriptor(kind=kind, iterates=iterates))


@settings(max_examples=150, deadline=None)
@given(weighted_clouds())
def test_kernel_gives_the_same_doubles_in_one_batch_and_row_by_row(cloud):
    pts, metric = cloud.points, cloud.metric
    batch = pairwise_to_point(pts[:, None], pts, metric)
    for j in range(len(pts)):
        assert np.array_equal(batch[:, j], pairwise_to_point(pts, pts[j], metric))
        assert np.array_equal(batch[j], pairwise_to_point(pts[j : j + 1, None], pts, metric)[0])
    i, j = 0, len(pts) - 1
    assert batch[i, j] == distance(pts[i], pts[j], metric) == batch[j, i]
    # summing from the last coordinate down rounds once per coordinate
    want = explicit_distance(pts[i], pts[j], metric)
    assert abs(batch[i, j] - want) <= 4 * pts.shape[-1] * 2.0**-53 * max(want, 1e-300)


def reference_pairwise(cloud):
    """The per-point loop that filled the distance matrix."""
    n = len(cloud)
    out = np.zeros((n, n))
    for i in range(n):
        row = pairwise_to_point(cloud.points[i:], cloud.points[i], cloud.metric)
        out[i, i:] = row
        out[i:, i] = row
    return out


@settings(max_examples=100, deadline=None)
@given(weighted_clouds() | linf_clouds(), st.sampled_from([None, 1, 3, 50]))
def test_pairwise_and_min_pairwise_match_the_per_point_loops(cloud, chunk):
    # a small _PAIR_CHUNK splits small clouds into many batches
    with mock.patch.object(metrics, "_PAIR_CHUNK", chunk or metrics._PAIR_CHUNK):
        assert np.array_equal(cloud.pairwise(), reference_pairwise(cloud))
        assert cloud.min_pairwise() == reference_min_pairwise(cloud)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [LINF_FINITE, SUM_WEIGHTED_TORUS])
def test_non_finite_coordinates_are_refused(bad, kind):
    with pytest.raises(DomainError, match="cloud coordinates must be finite"):
        PointCloud(points=np.array([[0.0, 0.5], [bad, 0.3]]), metric=MetricDescriptor(kind=kind))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
def test_torus_gap_reduces_as_the_remainder_does(xy):
    x, y = xy
    diff = abs(x - y) % 1.0
    assert torus_gap(x, y) == min(diff, 1.0 - diff)


@settings(max_examples=300, deadline=None)
@given(*[st.floats(allow_nan=False, allow_infinity=False)] * 2)
def test_torus_gap_keeps_every_finite_difference(x, y):
    with np.errstate(over="ignore"):
        diff = abs(np.float64(x) - np.float64(y))
    if math.isfinite(diff):
        diff = float(diff) % 1.0
        assert torus_gap(x, y) == min(diff, 1.0 - diff)
    else:  # two doubles this far apart are integers, 0 apart on the circle
        assert torus_gap(x, y) == 0.0


@pytest.mark.parametrize("x,y", [(1e308, -1e308), (-1.7e308, 1.7e308), (1.5e308, -0.5e308)])
def test_torus_gap_of_a_difference_that_overflows(x, y):
    # |x - y| overflowed to inf, whose remainder mod 1 is NaN
    assert torus_gap(x, y) == 0.0
    assert torus_gap(np.array([x, 0.25]), np.array([y, 0.5])).tolist() == [0.0, 0.25]


def test_torus_points_far_apart_share_one_cover():
    # a NaN distance counted as no conflict: both brackets and the exact
    # cover read 2 where one set covers both points (0 mod 1)
    from meandim.oracle import covering_bounds, exact_min_cover

    cloud = PointCloud(np.array([[1e308], [-1e308]]), MetricDescriptor(SUM_WEIGHTED_TORUS))
    assert cloud.pairwise().tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert cloud.min_pairwise() == 0.0
    bounds = covering_bounds(cloud, 0.2)
    assert (bounds.lower, bounds.upper) == (1, 1)
    assert exact_min_cover(cloud, 0.2) == 1


NUMBERS = {
    "int": st.integers(-(2**70), 2**70),
    "double": st.floats(-1e300, 1e300, allow_nan=False),
    "fraction": st.fractions(max_denominator=10**6)
    | st.builds(Fraction, st.integers(-(2**60), 2**60), st.integers(1, 99)),  # past 2^53
}


@st.composite
def digit_point_cases(draw):
    """(tables, choices, terms, fixed, kind): digit tables whose columns (the
    product of the layers' term counts) are tabulated (at most the point
    count), ranked, or ranked with codes past int64 (4 terms on each of 33
    to 40 layers); terms and fixed parts are ints, doubles or Fractions, and
    choices repeat rows."""
    kind = draw(st.sampled_from(sorted(NUMBERS)))
    mode = draw(st.sampled_from(["table", "rank", "long"]))
    if mode == "long":
        sizes = [4] * draw(st.integers(33, 40))
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    columns = math.prod(sizes)
    if mode == "table":
        n_points = draw(st.integers(columns, columns + 12))
    else:
        n_points = draw(st.integers(0, min(columns - 1, 30)))
    coords = draw(st.integers(1, 3))
    terms = [draw(st.lists(NUMBERS[kind], min_size=size, max_size=size)) for size in sizes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    options = [int(rng.integers(1, 5)) for _ in sizes]
    tables = [rng.integers(0, size, (o, coords)) for size, o in zip(sizes, options)]
    choices = np.stack([rng.integers(0, o, n_points) for o in options], axis=1)
    choices[1::2, 1:] = choices[: n_points // 2 * 2 : 2, 1:]  # pairs apart at most in layer 0
    fixed = draw(st.none() | st.lists(NUMBERS[kind], min_size=coords, max_size=coords))
    return tables, choices.reshape(n_points, len(sizes)), terms, fixed, kind


def digit_terms(tables, choices, terms, fixed):
    """Per point and coordinate, its layer terms and then its fixed part."""
    tail = [[f] for f in fixed] if fixed else [[]] * tables[0].shape[1]
    return [[[terms[k][tables[k][c, j]] for k, c in enumerate(row)] + tail[j]
             for j in range(tables[0].shape[1])] for row in choices.tolist()]


@settings(max_examples=200, deadline=None)
@given(digit_point_cases())
def test_digit_points_are_the_exact_sums_rounded_once(case):
    tables, choices, terms, fixed, kind = case
    got = metrics.digit_points(tables, choices, terms, fixed)
    parts = digit_terms(tables, choices, terms, fixed)
    want = np.array([[float(sum(map(Fraction, c), Fraction(0))) for c in p] for p in parts])
    assert np.array_equal(got.view(np.int64), want.reshape(got.shape).view(np.int64))
    if kind == "double":  # one rounding of the exact sum is math.fsum
        fsums = np.array([[math.fsum(c) for c in p] for p in parts])
        assert (got == fsums.reshape(got.shape)).all()


@pytest.mark.parametrize("sizes", [(), (3,), (2, 3, 4), (3, 1, 2), (2, 0, 3), (1,) * 70,
                                   (2,) * 12, (1, 2) * 8])
def test_product_rows_follow_itertools_product(sizes):
    rows = metrics.product_rows(sizes)
    want = list(itertools.product(*map(range, sizes)))
    assert rows.shape == (len(want), len(sizes))
    assert list(map(tuple, rows.tolist())) == want
