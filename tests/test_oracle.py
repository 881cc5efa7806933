"""Oracle operations: covering brackets, box machinery, measures, witnesses."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meandim import carpet as cp
from meandim import grid2d as g2
from meandim import limits
from meandim import oracle as orc
from meandim import symbolic as sym
from meandim import weighted as wt
from meandim.errors import (
    DegenerateScale,
    DomainError,
    EmptySubshift,
    ParameterOverflow,
    ResourceLimit,
)
from meandim.metrics import (
    LINF_FINITE,
    SUM_WEIGHTED_ABS,
    SUM_WEIGHTED_TORUS,
    MetricDescriptor,
    PointCloud,
    pairwise_to_point,
)

R_EXAMPLE = [(0, 0), (1, 1), (2, 0)]


def line_cloud(values):
    return PointCloud(
        points=np.array(values).reshape(-1, 1),
        metric=MetricDescriptor(kind=LINF_FINITE),
    )


class TestCoveringBounds:
    def test_equispaced_points_bracket_the_optimum(self):
        cloud = line_cloud([j / 8 for j in range(8)])
        bounds = orc.covering_bounds(cloud, 0.26)
        optimum = orc.exact_min_cover(cloud, 0.26)
        assert bounds.lower <= optimum <= bounds.upper
        assert optimum == 3  # groups of three span 0.25 < 0.26

    def test_singleton(self):
        cloud = line_cloud([0.4])
        bounds = orc.covering_bounds(cloud, 0.1)
        assert bounds.lower == bounds.upper == 1

    def test_brackets_contain_exhaustive_optimum_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            cloud = line_cloud(sorted(rng.random(n).tolist()))
            eps = float(rng.uniform(0.05, 0.6))
            bounds = orc.covering_bounds(cloud, eps)
            optimum = orc.exact_min_cover(cloud, eps)
            assert bounds.lower <= optimum <= bounds.upper

    def test_beta_family_lower_bound(self):
        from meandim import selfsim as ss

        spec = ss.beta_system(2, 2.0)
        fam = ss.covering_lower_bound(spec, 2, 2)
        bounds = orc.covering_bounds(fam.points, fam.eps)
        assert bounds.lower >= fam.n_words**2

    def test_degenerate_scale(self):
        cloud = PointCloud(
            points=np.array([[0.0], [1.0]]),
            metric=MetricDescriptor(kind=LINF_FINITE),
            truncation_error=0.1,
        )
        with pytest.raises(DegenerateScale):
            orc.covering_bounds(cloud, 0.3)


def reference_exact_min_cover(cloud, eps):
    """The set-cover DP over all 2^n masks: a table of the diameter-<eps
    masks, then the memoised submask recursion through the least point."""
    n = len(cloud)
    dist = cloud.pairwise()
    ok = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        ok.append(all(dist[i][j] < eps for i, j in itertools.combinations(idx, 2)))
    memo = {0: 0}

    def solve(mask):
        if mask in memo:
            return memo[mask]
        low = (mask & -mask).bit_length() - 1
        best = n + 1
        sub = mask
        while sub:
            if sub >> low & 1 and ok[sub]:
                best = min(best, 1 + solve(mask & ~sub))
            sub = (sub - 1) & mask
        memo[mask] = best
        return best

    return solve((1 << n) - 1)


class TestExactMinCover:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda d: st.lists(
            st.lists(st.integers(0, 8), min_size=d, max_size=d), max_size=12,
        ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), d) / 8)),
        st.sampled_from([LINF_FINITE, SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS]),
        st.integers(1, 12).map(lambda k: k / 16),
    )
    def test_equals_the_reference_dp(self, points, kind, eps):
        """Grid points 1/8 apart and eps on the 1/16 grid make distances tie
        with eps exactly, where < and <= part."""
        cloud = PointCloud(points=points, metric=MetricDescriptor(kind=kind))
        assert orc.exact_min_cover(cloud, eps) == reference_exact_min_cover(cloud, eps)

    def test_empty_cloud_needs_no_sets(self):
        cloud = PointCloud(points=np.zeros((0, 2)), metric=MetricDescriptor(kind=LINF_FINITE))
        assert orc.exact_min_cover(cloud, 0.3) == 0

    def test_complete_four_partite_graph_has_81_maximal_cliques(self):
        """K(3,3,3,3), the graph with the most maximal cliques on 12 points
        (3^4, Moon-Moser): point i of part g sits at one of three corners
        +-0.99 s of coordinates (2g, 2g + 1) and at 0 elsewhere, so points of
        one part are 1.98 s apart and points of two parts 0.99 s."""
        s = 0.25
        corners = [(1, 1), (1, -1), (-1, 1)]
        points = np.zeros((12, 8))
        for g, i in itertools.product(range(4), range(3)):
            points[3 * g + i, 2 * g : 2 * g + 2] = np.multiply(corners[i], 0.99 * s)
        cloud = PointCloud(points=points, metric=MetricDescriptor(kind=LINF_FINITE))
        near = cloud.pairwise() < s
        assert near.sum() == 12 + 12 * 9  # the diagonal, and the 9 points of the other parts
        assert orc.exact_min_cover(cloud, s) == reference_exact_min_cover(cloud, s) == 3

    def test_thirteen_points_are_refused(self):
        cloud = line_cloud([j / 13 for j in range(13)])
        with pytest.raises(ResourceLimit, match="exact cover limited to 12 points"):
            orc.exact_min_cover(cloud, 0.3)
        assert orc.exact_min_cover(line_cloud([j / 12 for j in range(12)]), 0.3) == 3


def reference_covering_bounds(cloud, eps):
    """The plain greedy: each point against every point kept so far."""
    radius = eps / 2.0 - orc.SLACK
    separated, centers = [], []
    for i, p in enumerate(cloud.points):
        for kept, limit, close in (
            (separated, eps, np.less),
            (centers, radius, np.less_equal),
        ):
            if not kept or not close(
                pairwise_to_point(cloud.points[kept], p, cloud.metric).min(), limit
            ):
                kept.append(i)
    return orc.CoverBounds(
        lower=len(separated),
        upper=len(centers),
        separated=tuple(separated),
        centers=tuple(centers),
    )


@st.composite
def dyadic_linf_clouds(draw):
    """Clouds on the grid (1/8) Z^dim, so distances equal eps exactly."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 80))
    coords = st.integers(-24, 24).map(lambda k: k / 8.0)
    row = st.lists(coords, min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):  # duplicates
        rows += draw(st.lists(st.sampled_from(rows), max_size=n))
    iterates = draw(st.none() | st.integers(1, dim + 1))
    metric = MetricDescriptor(kind=LINF_FINITE, iterates=iterates)
    return PointCloud(points=np.array(rows), metric=metric)


class TestCoveringMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(dyadic_linf_clouds(), st.sampled_from([0.125, 0.25, 0.375, 0.5, 1, 2.5, 9]))
    def test_dyadic_linf_clouds(self, cloud, eps):
        assert orc.covering_bounds(cloud, eps) == reference_covering_bounds(cloud, eps)

    @pytest.mark.parametrize("n_coords, n_layers", [(2, 1), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("golden", [False, True])
    def test_beta_families_with_window(self, n_coords, n_layers, golden):
        from meandim import selfsim as ss
        from meandim import symbolic as sy

        omega = sy.forbidden_words(2, ["11"]) if golden else None
        fam = ss.covering_lower_bound(ss.beta_system(2, 2.5, omega), n_coords, n_layers)
        assert fam.points.metric.iterates == n_coords
        for eps in (fam.eps, fam.eps / 2, 2.5 * fam.eps):
            got = orc.covering_bounds(fam.points, eps)
            assert got == reference_covering_bounds(fam.points, eps)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_qbox_witness_cloud(self, scale):
        fam = orc.qbox_family(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 2, 4)
        cloud, eps = fam.witness_cloud(), scale * fam.min_separation()
        assert orc.covering_bounds(cloud, eps) == reference_covering_bounds(cloud, eps)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.1, 0.2, 0.4]))
    def test_weighted_torus_cloud(self, seed, eps):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(
            points=rng.integers(0, 16, size=(int(rng.integers(1, 60)), 5)) / 16.0,
            metric=MetricDescriptor(kind=SUM_WEIGHTED_TORUS, iterates=2),
        )
        assert orc.covering_bounds(cloud, eps) == reference_covering_bounds(cloud, eps)

    def test_single_point_and_negative_coordinates(self):
        for rows in ([[-0.5, 3.0]], [[-1.0, -2.0], [-1.0, -2.0], [-1.25, -2.0]]):
            metric = MetricDescriptor(kind=LINF_FINITE)
            cloud = PointCloud(points=np.array(rows), metric=metric)
            want = reference_covering_bounds(cloud, 0.25)
            assert orc.covering_bounds(cloud, 0.25) == want

    def test_pair_just_under_eps_two_cells_apart_at_side_eps(self):
        # 1 - 7e-10 apart, so they conflict at eps = 1; with cells of side
        # exactly 1 - 1e-9 they would land two cells apart
        pts = np.array([[1 - 1.2e-9], [2 - 1.9e-9], [0.0], [10.0], [20.0], [30.0]])
        cloud = PointCloud(points=pts, metric=MetricDescriptor(kind=LINF_FINITE))
        want = reference_covering_bounds(cloud, 1.0)
        assert want.separated == (0, 3, 4, 5)
        assert orc.covering_bounds(cloud, 1.0) == want

    def test_wide_span_and_dense_clouds(self):
        # more cells per coordinate than the grid keeps, and a cloud so dense
        # that the candidate pairs exceed the grid's budget
        rng = np.random.default_rng(5)
        wide = np.concatenate([rng.random((300, 2)), [[4.0e4, 0.0], [-3.0e4, 1.0]]])
        dense = rng.random((400, 3))
        for pts, eps in ((wide, 1e-2), (wide, 1e-3), (dense, 0.9), (dense, 0.05)):
            cloud = PointCloud(points=pts, metric=MetricDescriptor(kind=LINF_FINITE))
            want = reference_covering_bounds(cloud, eps)
            assert orc.covering_bounds(cloud, eps) == want

    @pytest.mark.parametrize("last, declined", [(20.0, False), (11.0, True)])
    def test_pair_budget_is_checked_before_any_pair_is_measured(self, last, declined):
        # cells of side 1: four points share cell 0 (6 pairs), 10 sits in
        # cell 9 and `last` in cell 19 or, one pair over the budget of one
        # pair per point, in the adjacent cell 10
        pts = np.array([[0.0], [0.1], [0.2], [0.3], [10.0], [last]])
        cloud = PointCloud(points=pts, metric=MetricDescriptor(kind=LINF_FINITE))
        with mock.patch.object(orc, "_PAIRS_PER_POINT", 1), mock.patch.object(
            orc, "_linf_pair_distances", wraps=orc._linf_pair_distances
        ) as measured:
            conflicts = orc._linf_conflicts(cloud, 1.0, 0.5 - orc.SLACK)
            assert (conflicts is None) == declined
            assert (measured.call_count == 0) == declined
            assert orc.covering_bounds(cloud, 1.0) == reference_covering_bounds(cloud, 1.0)

    def test_join_memory_on_the_46656_point_family(self):
        # ru_maxrss growth in a child with one BLAS thread, as perfbench runs:
        # about 6 MB for both calls with the join taken a block at a time; one
        # int64 array over all 40 offsets x 43,681 occupied cells takes 14 MB
        child = (
            "import json, resource\n"
            "from meandim import carpet as cp, oracle as orc\n"
            "fam = orc.qbox_family(cp.carpet_from_tuples(3, 2, ((0, 0), (1, 1), (2, 0))), 2, 6)\n"
            "cloud, eps = fam.witness_cloud(), fam.min_separation()\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "bounds = orc.covering_bounds(cloud, eps)\n"
            "best = cloud.min_pairwise()\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base\n"
            "print(json.dumps([len(cloud), eps, bounds.lower, bounds.upper, best, grown]))\n"
        )
        src = str(Path(orc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        n, eps, lower, upper, best, grown_kb = json.loads(proc.stdout)
        assert n == lower == upper == 46656  # separated at eps = 2^-6
        assert best == eps == 2.0**-6
        assert grown_kb < 16 * 1024


def reference_scan_greedy(cloud, eps, radius):
    """The per-point scan the blocked greedy replaced: each point against
    the kept points, which sit in buffers that double when full."""
    pts, metric = cloud.points, cloud.metric
    size = min(len(pts), 64)
    sep_buf = np.empty((size,) + pts.shape[1:])
    cen_buf = np.empty_like(sep_buf)
    separated, centers = [], []
    for i, p in enumerate(pts):
        k = len(separated)
        if not k or float(pairwise_to_point(sep_buf[:k], p, metric).min()) >= eps:
            sep_buf = _push(sep_buf, k, p)
            separated.append(i)
        k = len(centers)
        if not k or float(pairwise_to_point(cen_buf[:k], p, metric).min()) > radius:
            cen_buf = _push(cen_buf, k, p)
            centers.append(i)
    return separated, centers


def _push(buf, k, p):
    if k == len(buf):
        buf = np.concatenate([buf, np.empty_like(buf)])
    buf[k] = p
    return buf


@st.composite
def metric_clouds(draw):
    """Clouds of every metric on the grid (1/8) Z^dim, so that distances tie
    with dyadic eps and radii exactly; or scaled by 0.1, so that they round."""
    kind = draw(st.sampled_from([LINF_FINITE, SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS]))
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 60))
    coords = st.integers(-12, 12).map(lambda k: k / 8.0)
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):  # duplicates
        rows += draw(st.lists(st.sampled_from(rows), max_size=n))
    pts = np.array(rows) * draw(st.sampled_from([1.0, 0.1]))
    top = dim + 1 if kind == LINF_FINITE else dim
    iterates = draw(st.none() | st.integers(1, top))
    return PointCloud(points=pts, metric=MetricDescriptor(kind=kind, iterates=iterates))


class TestBlockedScan:
    @settings(max_examples=300, deadline=None)
    @given(
        metric_clouds(),
        st.integers(1, 8).map(lambda k: k / 16),
        st.sampled_from([None, 1, 2, 5, 64]),
    )
    def test_matches_the_per_point_scan(self, cloud, eps, chunk):
        """With the radius eps/2 exactly, distances tie with it as they tie
        with eps; a small _PAIR_CHUNK splits small clouds into many blocks."""
        with mock.patch.object(orc, "_PAIR_CHUNK", chunk or orc._PAIR_CHUNK):
            got = orc.covering_bounds(cloud, eps)
            want = reference_scan_greedy(cloud, eps, eps / 2.0 - orc.SLACK)
            assert (list(got.separated), list(got.centers)) == want
            tie = (orc._scan_greedy(cloud, lambda d: d < eps),
                   orc._scan_greedy(cloud, lambda d: d <= eps / 2.0))
            assert tie == reference_scan_greedy(cloud, eps, eps / 2.0)

    def test_kept_set_past_the_pair_chunk(self):
        # every point of the first 4,200 is kept, so the blocks shrink to one
        # point; the repeats after them are all dropped
        n = orc._PAIR_CHUNK + 104
        line = np.stack([np.arange(n) / 1024.0, np.zeros(n)], axis=1)
        pts = np.concatenate([line, line[::97]])
        cloud = PointCloud(points=pts, metric=MetricDescriptor(kind=SUM_WEIGHTED_ABS))
        got = orc.covering_bounds(cloud, 1 / 4096)
        assert got.separated == got.centers == tuple(range(n))
        eps = 1 / 2048  # the line's neighbours 1/2048 apart tie with eps
        got = orc.covering_bounds(cloud, eps)
        want = reference_scan_greedy(cloud, eps, eps / 2.0 - orc.SLACK)
        assert (list(got.separated), list(got.centers)) == want
        assert len(got.separated) == n

    @pytest.mark.parametrize(
        "spec,n_rows,m_cols,depth,eps",
        [
            (g2.free_rule(2), 1, 3, 3, 0.15),
            (g2.free_rule(2), 1, 3, 3, 0.25),
            (g2.hard_square_rule(), 2, 3, 3, 0.2),
        ],
    )
    def test_torus_clouds(self, spec, n_rows, m_cols, depth, eps):
        cloud = g2.torus_points(spec, n_rows, m_cols, depth=depth)
        got = orc.covering_bounds(cloud, eps)
        want = reference_scan_greedy(cloud, eps, eps / 2.0 - orc.SLACK)
        assert (list(got.separated), list(got.centers)) == want

    @pytest.mark.parametrize(
        "spec,n_rows,m_cols",
        [(g2.free_rule(2), 2, 1), (g2.three_dot_rule(2), 1, 2), (g2.free_rule(3), 1, 1),
         (g2.hard_square_rule(), 1, 2)],
    )
    def test_key_fact_clouds(self, spec, n_rows, m_cols):
        """The clouds key_fact_check covers, with its eps and tail rows."""
        eps = 0.5 * float(spec.alphabet) ** (-m_cols)
        tail = 1
        while 2.0**-tail >= eps / 2.0:
            tail += 1
        cloud = g2.torus_points(spec, n_rows, m_cols, depth=tail)
        got = orc.covering_bounds(cloud, eps)
        want = reference_scan_greedy(cloud, eps, eps / 2.0 - orc.SLACK)
        assert (list(got.separated), list(got.centers)) == want
        assert got.lower == g2.key_fact_check(spec, n_rows, m_cols)["lower_shift"]


class TestHausdorffUpper:
    def test_two_quarter_sets(self):
        # 2 (1/4)^s = 1 at s = 1/2
        assert orc.hausdorff_upper_at_scale([0.25, 0.25], 0.3) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_single_set_is_zero(self):
        assert orc.hausdorff_upper_at_scale([0.17], 0.3) == 0.0

    def test_qbox_cover_exponent(self):
        # six boxes of diameter 1/3: s* = log 6 / log 3
        assert orc.hausdorff_upper_at_scale([1 / 3] * 6, 0.4) == pytest.approx(
            math.log(6) / math.log(3), abs=1e-9
        )

    def test_root_past_1e9_is_found(self):
        # 2 d^s = 1 at s* = log 2 / -log d, about 6.2e15 for the largest
        # double below 1; the doubling search used to stop at 1e9
        d = math.nextafter(1.0, 0.0)
        s = orc.hausdorff_upper_at_scale([d, d], 1.0)
        assert s == pytest.approx(math.log(2) / -math.log(d), rel=1e-12)
        assert 2 * d ** math.nextafter(s, 0.0) >= 1.0 > 2 * d ** math.nextafter(s, math.inf)

    def test_diameter_validation(self):
        with pytest.raises(DomainError):
            orc.hausdorff_upper_at_scale([0.5], 0.3)  # diam >= eps
        with pytest.raises(DomainError):
            orc.hausdorff_upper_at_scale([1.1], 2.0)  # diam >= 1
        with pytest.raises(DomainError):
            orc.hausdorff_upper_at_scale([0.0, 0.2], 0.3)  # nonpositive diam

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tol_that_ends_no_bisection_rejected(self, tol):
        # nan and inf returned the first midpoint, unconverged
        with pytest.raises(DomainError, match=f"tol = {tol}"):
            orc.hausdorff_upper_at_scale([0.1, 0.2], 0.5, tol=tol)

    def test_tol_below_the_double_spacing_ends(self):
        # with lo and hi adjacent doubles the midpoint is one of them, so a
        # tol of 1e-300 bisected forever, as did 0 and -1; a child process
        # bounds the run
        child = (
            "from meandim import oracle\n"
            "from meandim.errors import DomainError\n"
            "print(repr(oracle.hausdorff_upper_at_scale([0.1, 0.2], 0.5, tol=1e-300)))\n"
            "for tol in (0.0, -1.0):\n"
            "    try:\n"
            "        oracle.hausdorff_upper_at_scale([0.1, 0.2], 0.5, tol=tol)\n"
            "    except DomainError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(orc.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=20, check=True)
        root, zero, negative = proc.stdout.splitlines()
        # 0.1^s + 0.2^s = 1
        assert float(root) == pytest.approx(
            orc.hausdorff_upper_at_scale([0.1, 0.2], 0.5), abs=1e-9
        )
        assert zero == "tol = 0.0 is not a finite number above 0"
        assert negative == "tol = -1.0 is not a finite number above 0"


def reference_family_words(family):
    """The family's words as tuples, decoded from the N-words of Omega one
    letter at a time, apart from the row tables: the sorted (u-word, v-word)
    pairs, the sorted v-words, the section (the least u-word of each v) and
    the anchor pair (the least pair)."""
    b = family.spec.b
    words = sym.enumerate_words(family.spec.system.omega, family.n).tolist()
    pairs = sorted((tuple(l // b for l in w), tuple(l % b for l in w)) for w in words)
    image_words = sorted({v for _, v in pairs})
    section = {v: u for u, v in reversed(pairs)}  # the least u-word per v comes last
    return pairs, image_words, section, pairs[0]


def reference_witness_points(family, choices, depth):
    """`_witness_points` as it summed every point's exact integer terms,
    before equal digit columns were summed once."""
    a, b = family.spec.a, family.spec.b
    n, m, t = family.n, family.m, family.floor_wm
    omega_words, image_words, section, (xi_u, xi_v) = reference_family_words(family)
    terms = [
        [(float(u) * float(base) ** -(i + 1)).as_integer_ratio() for u in range(base)]
        for base in (a, b)
        for i in range(depth)
    ]
    shift = max(den.bit_length() - 1 for layer in terms for _, den in layer)
    scaled = [
        [num << (shift + 1 - den.bit_length()) for num, den in layer] for layer in terms
    ]

    def numerators(i, u_word, v_word):
        return [scaled[i][u] for u in u_word] + [scaled[depth + i][v] for v in v_word]

    layer_words = [omega_words] * t + [[(section[v], v) for v in image_words]] * (m - t)
    tail_layers = [numerators(i, xi_u, xi_v) for i in range(m, depth)]
    tail = [sum(layer[j] for layer in tail_layers) for j in range(2 * n)]
    tables = [
        np.array([numerators(i, u, v) for u, v in words], dtype=object)
        for i, words in enumerate(layer_words)
    ]
    points = np.empty((len(choices), 2 * n))
    for j in range(2 * n):
        total = np.full(len(choices), tail[j], dtype=object)
        for i, table in enumerate(tables):
            total += table[choices[:, i], j]
        points[:, j] = total / (1 << shift)
    return points


def fsum_witness_point(family, choice, depth):
    """Coordinates of one witness point by math.fsum over its layer terms."""
    a, b, t = family.spec.a, family.spec.b, family.floor_wm
    omega_words, image_words, section, anchor_pair = reference_family_words(family)
    pairs = [omega_words[c] for c in choice[:t]]
    pairs += [(section[image_words[c]], image_words[c]) for c in choice[t:]]
    pairs += [anchor_pair] * (depth - family.m)
    return [
        math.fsum(pair[k][j] * base ** -(i + 1) for i, pair in enumerate(pairs))
        for k, base in ((0, a), (1, b))
        for j in range(family.n)
    ]


def fsum_sampled_minimum(family, samples, seed):
    """Least linf distance over the sampled pairs, points by math.fsum."""
    depth = family.m + orc.WITNESS_TAIL_LAYERS
    first, second, _ = orc._sample_pairs(family.layer_sizes, samples, seed)
    return min((
        max(abs(x - y) for x, y in zip(fsum_witness_point(family, p, depth),
                                       fsum_witness_point(family, q, depth)))
        for p, q in zip(first.tolist(), second.tolist())
    ), default=math.inf)


@st.composite
def witness_cases(draw):
    """A q-box family of a random relation or pair SFT, a random set of
    digit choices (repeats included) and a depth."""
    a = draw(st.integers(2, 5))
    b = draw(st.integers(2, a))
    if draw(st.booleans()):
        cells = [(u, v) for u in range(a) for v in range(b)]
        rel = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
        spec = cp.carpet_from_tuples(a, b, rel)
    else:
        row = st.lists(st.integers(0, 1), min_size=a * b, max_size=a * b)
        matrix = draw(st.lists(row, min_size=a * b, max_size=a * b))
        try:
            spec = cp.CarpetSpec(a, b, wt.pair_system(a, b, sym.sft_from_matrix(matrix)))
            sym.prune(spec.system.omega)
        except EmptySubshift:
            assume(False)
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    with limits.override(2**62):
        fam = orc.qbox_family(spec, n, m)
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = fam.layer_sizes
    pool = [[rng.randrange(s) for s in sizes] for _ in range(draw(st.integers(1, 30)))]
    choices = np.array([rng.choice(pool) for _ in range(draw(st.integers(0, 60)))], dtype=np.intp)
    return fam, choices.reshape(-1, m), m + draw(st.integers(0, orc.WITNESS_TAIL_LAYERS))


class TestQBoxFamily:
    def test_example_counts_exact(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        for n in range(1, 4):
            omega_n = 3**n
            image_n = 2**n
            for m in range(1, 6):
                fam = orc.qbox_family(spec, n, m)
                t = fam.floor_wm
                assert fam.count == fam.count_formula == omega_n**t * image_n ** (m - t)
                assert fam.diam_certified
                assert fam.separation_certified

    def test_m_one_fixes_only_y(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        fam = orc.qbox_family(spec, 1, 1)
        assert fam.floor_wm == 0
        assert fam.count == 2  # |Omega'|_1|

    def test_singleton_relation(self):
        spec = cp.carpet_from_tuples(3, 2, [(1, 0)])
        for n, m in ((1, 1), (2, 3), (3, 5)):
            assert orc.qbox_family(spec, n, m).count == 1

    @pytest.mark.parametrize("n,m", [(0, 2), (1, 0)])
    def test_level_below_one_rejected(self, n, m):
        # N = 0 or M = 0 gave one box and an infinite separation; a negative
        # N enumerated words without end
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        with pytest.raises(DomainError, match=rf"\(N, M\) = \({n}, {m}\)"):
            orc.qbox_family(spec, n, m)

    def test_separation_observed(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        for n, m in ((1, 2), (2, 3), (2, 4)):
            fam = orc.qbox_family(spec, n, m)
            rep = orc.verify_family_separation(fam)
            assert rep["ok"]
            assert rep["observed_min"] == pytest.approx(2.0**-m, abs=1e-12)

    def test_sampled_separation_on_large_family(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        fam = orc.qbox_family(spec, 3, 4)
        rep = orc.verify_family_separation(fam, samples=500)
        assert rep["mode"] == "sampled_pairs"
        assert rep["ok"]

    @pytest.mark.parametrize(
        "a, rel", [(3, R_EXAMPLE), (4, [(0, 0), (1, 1), (3, 0), (2, 1)])]
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_witness_cloud_matches_fsum_formula(self, a, rel, n):
        fam = orc.qbox_family(cp.carpet_from_tuples(a, 2, rel), n, 5 - n)
        cloud = fam.witness_cloud()
        depth = fam.m + orc.WITNESS_TAIL_LAYERS
        omega_words, image_words, section, (xi_u, xi_v) = reference_family_words(fam)
        pts = []
        for pairs in itertools.product(omega_words, repeat=fam.floor_wm):
            for vs in itertools.product(image_words, repeat=fam.m - fam.floor_wm):
                u_rows = [p[0] for p in pairs] + [section[v] for v in vs]
                v_rows = [p[1] for p in pairs] + list(vs)
                u_rows += [xi_u] * (depth - fam.m)
                v_rows += [xi_v] * (depth - fam.m)
                pts.append(
                    [
                        math.fsum(rows[i][j] * base ** -(i + 1) for i in range(depth))
                        for rows, base in ((u_rows, a), (v_rows, 2))
                        for j in range(n)
                    ]
                )
        assert np.array_equal(cloud.points, np.array(pts))
        assert len(cloud) == fam.count == fam.count_formula

    def test_sampled_separation_pinned(self, monkeypatch):
        # minima over the seeded pairs, each also the fsum formula's minimum
        # over the same pairs
        spec = cp.carpet_from_tuples(5, 3, [(0, 0), (1, 1), (2, 2), (4, 0), (3, 1)])
        fam = orc.qbox_family(spec, 1, 5)
        monkeypatch.setattr(orc, "FULL_PAIR_CAP", 100)
        for seed, observed in (
            (1, 0.037037037037037035),
            (2, 0.008230452674897082),
            (3, 0.008230452674897137),
            (4, 0.004115226337448541),
        ):
            rep = orc.verify_family_separation(fam, samples=6, seed=seed)
            assert rep["mode"] == "sampled_pairs"
            assert rep["observed_min"] == observed == fsum_sampled_minimum(fam, 6, seed)
        fam = orc.qbox_family(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 2, 6)
        rep = orc.verify_family_separation(fam, samples=4, seed=4)
        assert (rep["mode"], rep["observed_min"]) == ("sampled_pairs", 0.015625)
        assert fsum_sampled_minimum(fam, 4, 4) == 0.015625

    def test_single_option_layers_are_not_perturbed(self):
        # every image layer of this relation has one option; the sampler
        # drew its perturbation from an empty range and raised ValueError
        fam = orc.qbox_family(cp.carpet_from_tuples(3, 2, [(0, 0), (1, 0), (2, 0)]), 2, 7)
        assert fam.layer_sizes[-1] == 1 and fam.count > 3000
        rep = orc.verify_family_separation(fam)
        assert (rep["mode"], rep["ok"]) == ("sampled_pairs", True)
        assert rep["observed_min"] == fsum_sampled_minimum(fam, 2000, 0)

    def test_no_sampled_pair_is_no_pass(self):
        # refused on entry, for small families too; 0 raised numpy's
        # ValueError from an empty minimum, -1 one from randbytes
        for fam in (
            orc.qbox_family(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 2, 6),
            orc.qbox_family(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 1, 2),
        ):
            for samples in (0, -1):
                with pytest.raises(DomainError, match=rf"^samples = {samples} must be >= 1$"):
                    orc.verify_family_separation(fam, samples=samples)

    def test_samples_past_the_budgets_are_refused(self):
        # 3,000,000 samples asked randbytes for a block past getrandbits' C-int
        # bit count, a raw OverflowError; both budgets are checked before a draw
        fam = orc.qbox_family(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 2, 6)
        message = r"^word budget: separation sample: 45000000 draws exceed the cap 20000000$"
        with pytest.raises(ResourceLimit, match=message):
            orc.verify_family_separation(fam, samples=3_000_000)
        fam = orc.qbox_family(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 12, 1)
        message = r"^point budget: separation sample: 3000000 points exceed the cap 2000000$"
        with pytest.raises(ResourceLimit, match=message):
            orc.verify_family_separation(fam, samples=1_500_000)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=8),
        st.integers(0, 60),
        st.integers(0, 2**40),
    )
    def test_sampler_properties(self, sizes, samples, seed):
        first, second, perturbed = orc._sample_pairs(sizes, samples, seed)
        assert first.shape == second.shape == (len(perturbed), len(sizes))
        assert len(perturbed) <= samples
        for choice in (first, second):
            assert ((choice >= 0) & (choice < np.array(sizes))).all()
        moved = first != second
        assert moved.any(axis=1).all()
        assert (moved[perturbed].sum(axis=1) == 1).all()
        assert not moved[perturbed][:, np.array(sizes) == 1].any()
        again = orc._sample_pairs(sizes, samples, seed)
        assert all(np.array_equal(x, y) for x, y in zip(again, (first, second, perturbed)))

    def test_sampler_mixes_fresh_and_perturbed_pairs(self):
        first, second, perturbed = orc._sample_pairs((3, 3, 2, 2), 400, 0)
        assert 150 < perturbed.sum() < 250
        assert ((first != second).sum(axis=1)[~perturbed] > 1).any()
        for choice in (first, second):
            assert [len(set(col)) for col in choice.T.tolist()] == [3, 3, 2, 2]
        layers = np.flatnonzero((first != second)[perturbed].any(axis=0))
        assert layers.tolist() == [0, 1, 2, 3]
        # one layer with options: every perturbation moves it, none is lost
        first, second, perturbed = orc._sample_pairs((1, 4, 1, 1), 400, 0)
        assert 150 < perturbed.sum() < 250
        assert (first[:, [0, 2, 3]] == 0).all() and (second[:, [0, 2, 3]] == 0).all()

    @settings(max_examples=60, deadline=None)
    @given(witness_cases())
    def test_witness_points_match_reference(self, case):
        fam, choices, depth = case
        # layer sizes: the pairs, then the v-words; row tables: each pair u
        # then v, and each v after its least u (the section)
        pairs, image_words, section, _ = reference_family_words(fam)
        t = fam.floor_wm
        assert fam.layer_sizes == (len(pairs),) * t + (len(image_words),) * (fam.m - t)
        omega_rows, image_rows = orc._layer_rows(fam.spec, fam.n)
        assert omega_rows.tolist() == [list(u + v) for u, v in pairs]
        assert image_rows.tolist() == [list(section[v] + v) for v in image_words]
        got = orc._witness_points(fam, choices, depth)
        want = reference_witness_points(fam, choices, depth)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("a,b,rel,m", [
        (2, 2, [(0, 0), (1, 1)], 66),  # base-2 column codes of 66 digits wrap in int64
        (3, 2, [(0, 0), (1, 0), (2, 1)], 45),
    ])
    def test_witness_points_of_long_columns(self, a, b, rel, m):
        # column codes are ranked before they pass int64, so columns that
        # differ only in their first layers stay apart
        with limits.override(2**200):
            fam = orc.qbox_family(cp.carpet_from_tuples(a, b, rel), 1, m)
        rng = random.Random(m)
        sizes = fam.layer_sizes
        choices = np.array([[rng.randrange(s) for s in sizes] for _ in range(60)])
        choices[1::2, 1:] = choices[::2, 1:]  # pairs that differ at most in layer 0
        depth = m + orc.WITNESS_TAIL_LAYERS
        got = orc._witness_points(fam, choices, depth)
        assert np.array_equal(got, reference_witness_points(fam, choices, depth))

    def test_family_is_counted_not_enumerated(self, monkeypatch):
        # |Omega|_N| and |Omega'|_N| come from the path counter: the family
        # holds no array, and only its points build rows
        spec = cp.CarpetSpec(3, 2, wt.pair_system(3, 2, sym.sft_from_matrix(
            [[int((i + j) % 4 != 1) for j in range(6)] for i in range(6)])))
        want = orc.qbox_family(spec, 2, 3)
        enumerate_words = sym.Automaton.enumerate_words
        calls = []
        monkeypatch.setattr(sym.Automaton, "enumerate_words",
                            lambda *args: calls.append(args) or enumerate_words(*args))
        fam = orc.qbox_family(spec, 2, 3)
        assert calls == [] and fam == want
        assert not any(isinstance(v, np.ndarray) for v in vars(fam).values())
        fam.witness_cloud()
        assert len(calls) == 1

    def test_witness_cloud_distinct_points(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        cloud = orc.qbox_family(spec, 2, 3).witness_cloud()
        seen = {tuple(p) for p in cloud.points.tolist()}
        assert len(seen) == len(cloud)


class TestSandwich:
    def test_ratio_brackets_the_formula(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        target = cp.mean_dims(spec, 6).mdim_m.value
        sw = orc.covering_sandwich(spec, 3, 4)
        assert target - 0.15 <= sw["ratio"] <= target + 0.15

    def test_greedy_agrees_on_materialized_family(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        sw = orc.covering_sandwich(spec, 2, 4)
        assert sw["greedy"]["lower"] == sw["count"]


class TestMassDistribution:
    def test_example_certificate(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        z1 = 1.0 + 2.0**spec.w
        s = math.log2(z1) - 0.1
        rep = orc.mass_distribution_check(spec, 1, range(4, 11), s)
        assert rep["all_passed"]
        assert rep["identity_ok"]
        for m, cell in rep["per_m"].items():
            assert cell["mass_ok"]
            assert cell["largest_s"] >= s

    def test_hand_computed_level_one_measure(self):
        # f_1 over the three tuples: t(0) = 2, t(1) = 1, Z_1 = 2^w + 1
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        w = spec.w
        z1 = 2.0**w + 1.0
        table = wt.fiber_counts(spec.system, 1)
        total = math.fsum(
            t ** (w - 1.0) / z1 * t for t in table.level(1).values()
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_uniform_relation_gives_uniform_measure(self):
        rel = [(u, v) for u in range(3) for v in range(2)]
        spec = cp.carpet_from_tuples(3, 2, rel)
        rep = orc.mass_distribution_check(spec, 1, [4], s=0.5)
        assert rep["identity_ok"]
        cell = rep["per_m"][4]
        assert cell["mass_ok"]
        assert cell["box_count"] == 6 ** cell["floor_wm"] * 2 ** (4 - cell["floor_wm"])

    def test_too_large_s_fails(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        rep = orc.mass_distribution_check(spec, 1, [6], s=2.5)
        assert not rep["all_passed"]

    @pytest.mark.parametrize(
        "n,m_range,match",
        [
            (0, range(4, 6), "N = 0"),  # a bare KeyError
            (1, range(0, 3), r"M range\(0, 3\)"),  # division by zero
            (1, range(3, 3), r"M range\(3, 3\)"),  # max() of an empty sequence
        ],
    )
    def test_window_and_m_range_checked_on_entry(self, n, m_range, match):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        with pytest.raises(DomainError, match=match):
            orc.mass_distribution_check(spec, n, m_range, s=0.5)

    @pytest.mark.parametrize(
        "a, b, rel, m_range, flat",
        [
            (2, 2, [(0, 0), (1, 1)], range(1, 3), 1),  # a = b
            (4, 2, [(0, 0), (1, 1), (3, 1)], range(2, 4), 2),  # a = b^2
            (2**53 + 1, 2**53, [(0, 0), (1, 1)], range(1, 2), 1),  # log a rounds to log b
            # a = b^3 exactly, but log a - 3 log b is +-8.9e-16, not 0.0
            (125, 5, [(0, 0), (1, 1), (2, 1)], range(3, 4), 3),
            (1000, 10, [(0, 0), (1, 1), (2, 1)], range(3, 4), 3),
        ],
    )
    def test_box_scale_one_is_refused_on_entry(self, a, b, rel, m_range, flat):
        # log a - M log b = 0.0 divided by zero; a smaller M has a scale above
        # 1 and is refused too, at the least M of the range
        spec = cp.carpet_from_tuples(a, b, rel)
        with pytest.raises(DomainError, match=f"M = {flat}: the box scale a b\\^-M is 1"):
            orc.mass_distribution_check(spec, 1, m_range, s=0.5)
        rest = [m for m in range(1, 5) if m > flat]
        assert orc.mass_distribution_check(spec, 1, rest, s=0.0)["per_m"].keys() == set(rest)

    @pytest.mark.parametrize(
        "a, b, rel, m_range",
        [
            (3, 2, R_EXAMPLE, [1]),  # scale 1.5: every box has mass <= 1 <= 1.5^0.5
            (5, 2, [(0, 0), (1, 1), (4, 1)], range(1, 4)),  # 2.5 and 1.25 at M = 1, 2
            (4, 2, [(0, 0), (1, 1), (3, 1)], range(1, 2)),  # 2 at M = 1
            (10**12, 2, [(0, 0), (1, 1)], range(4, 11)),  # 10^12 / 1024 at M = 10
        ],
    )
    def test_box_scale_above_one_is_refused(self, a, b, rel, m_range):
        # log mu / log(a b^-M) with log(a b^-M) > 0 kept the inequality's
        # direction, so a box within its bound was reported as failing
        spec = cp.carpet_from_tuples(a, b, rel)
        m = min(m_range)
        with pytest.raises(DomainError, match=f"^M = {m}: the box scale a b\\^-M is 1 or more"):
            orc.mass_distribution_check(spec, 1, m_range, s=0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_is_refused(self, s):
        # -inf passed every box and certified nothing; nan and inf failed every box
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        with pytest.raises(DomainError, match=f"exponent s = {s} is not a finite number"):
            orc.mass_distribution_check(spec, 1, range(4, 6), s)


def reference_mass_per_m(spec, n, m_range):
    """The per-sequence loop that the multiset enumeration replaced: every
    y-sequence in itertools.product order, masses summed in that order."""
    a, b, w = spec.a, spec.b, spec.w
    fibers = wt.fiber_counts(spec.system, n).level(n)
    z_n = math.fsum(tv**w for tv in sorted(fibers.values(), reverse=True))
    log_z = math.log(z_n)
    log_t = {v: math.log(tv) for v, tv in fibers.items()}
    v_words = sorted(fibers)
    per_m = {}
    for m in m_range:
        t_floor = cp.floor_w_m(a, b, m)
        log_diam = math.log(a) - m * math.log(b)
        min_s_box = math.inf
        worst = None
        total_mass = 0.0
        n_boxes = 0
        for y_seq in itertools.product(v_words, repeat=m):
            log_mu = -m * log_z + math.fsum(
                (w - 1.0) * log_t[v] for v in y_seq
            ) + math.fsum(log_t[v] for v in y_seq[t_floor:])
            s_box = log_mu / log_diam
            if s_box < min_s_box:
                min_s_box = s_box
                worst = y_seq
            multiplicity = 1
            for v in y_seq[:t_floor]:
                multiplicity *= fibers[v]
            total_mass += multiplicity * math.exp(log_mu)
            n_boxes += multiplicity
        per_m[m] = {"largest_s": min_s_box, "worst_y": worst, "box_count": n_boxes,
                    "total_mass": total_mass}
    return per_m


@st.composite
def mass_cases(draw):
    a, b = draw(st.sampled_from([(3, 2), (4, 3)]))
    cells = [(u, v) for u in range(a) for v in range(b)]
    if draw(st.booleans()):
        # every column holds the same number of tuples, so all fibers are
        # equal and every box ties for largest_s
        per_column = draw(st.integers(1, a))
        rel = [(u, v) for v in range(b) for u in draw(st.permutations(range(a)))[:per_column]]
    else:
        rel = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    n = draw(st.integers(1, 2))
    m_lo = draw(st.integers(1, 4))
    return cp.carpet_from_tuples(a, b, rel), n, range(m_lo, m_lo + draw(st.integers(1, 2)))


class TestMassMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(mass_cases(), st.sampled_from([0.3, 0.8, 1.2]))
    def test_boxes_match_the_per_sequence_loop(self, case, s):
        spec, n, m_range = case
        v_count = len(wt.fiber_counts(spec.system, n).level(n))
        assume(v_count ** max(m_range) <= 5000)
        if m_range[0] == 1:  # a b^-1 = 3/2 or 4/3: the box scale is above 1
            with pytest.raises(DomainError, match=r"^M = 1: the box scale a b\^-M is 1 or more"):
                orc.mass_distribution_check(spec, n, m_range, s)
            return
        rep = orc.mass_distribution_check(spec, n, m_range, s)
        want = reference_mass_per_m(spec, n, m_range)
        for m in m_range:
            got = rep["per_m"][m]
            for key in ("largest_s", "worst_y", "box_count"):
                assert got[key] == want[m][key], key
            assert got["passed"] == (want[m]["largest_s"] >= s - orc.SLACK)
            assert got["mass_ok"] == (abs(want[m]["total_mass"] - 1.0) <= 1e-9)

    def test_equal_fibers_break_ties_by_the_least_sequence(self):
        rel = [(u, v) for u in range(3) for v in range(2)]
        spec = cp.carpet_from_tuples(3, 2, rel)
        rep = orc.mass_distribution_check(spec, 1, [3], s=0.5)
        assert rep["per_m"][3]["worst_y"] == ((0,), (0,), (0,))


def _multisets(words, size: int, weights):
    """(sorted words, orderings, product of weights) for every multiset of
    `size` words; weights None counts 1 per word."""
    out = []
    for combo in itertools.combinations_with_replacement(words, size):
        orderings = math.factorial(size)
        for _, group in itertools.groupby(combo):
            orderings //= math.factorial(len(list(group)))
        product = math.prod(weights[v] for v in combo) if weights is not None else 1
        out.append((combo, orderings, product))
    return out


def reference_mass_distribution_check(spec, n, m_range, s, seed=0):
    """mass_distribution_check by enumeration: one math.fsum pair per
    (prefix, suffix) multiset pair, a box's mass depending only on the
    multisets of its fixed and free layers, the first minimum and the total
    mass in a Python loop; errors are left to the library."""
    a, b = spec.a, spec.b
    log_a, log_b = math.log(a), math.log(b)
    w = spec.w
    table = wt.fiber_counts(spec.system, n)
    fibers = dict(table.level(n).items())
    words_total = table.total(n)
    z_n = math.fsum(tv**w for tv in fibers.values())
    log_z = math.log(z_n)
    log_t = {v: math.log(tv) for v, tv in fibers.items()}
    v_words = list(fibers)
    rng = random.Random(seed)
    per_m = {}
    all_passed = True
    for m in m_range:
        t_floor = cp.floor_w_m(a, b, m)
        log_diam = log_a - m * log_b
        min_s_box = math.inf
        worst = None
        masses = []
        for prefix, prefix_count, prefix_mass in _multisets(v_words, t_floor, fibers):
            for suffix, suffix_count, _ in _multisets(v_words, m - t_floor, None):
                log_mu = -m * log_z + math.fsum(
                    (w - 1.0) * log_t[v] for v in prefix + suffix
                ) + math.fsum(log_t[v] for v in suffix)
                s_box = log_mu / log_diam
                if s_box < min_s_box:
                    min_s_box = s_box
                    worst = prefix + suffix
                masses.append(prefix_count * suffix_count * prefix_mass * math.exp(log_mu))
        total_mass = math.fsum(masses)
        passed = min_s_box >= s - orc.SLACK
        all_passed = all_passed and passed
        per_m[m] = {
            "floor_wm": t_floor,
            "diam_bound": float(a) * float(b) ** (-m),
            "largest_s": min_s_box,
            "passed": passed,
            "worst_y": worst,
            "box_count": words_total ** t_floor * len(v_words) ** (m - t_floor),
            "mass_ok": abs(total_mass - 1.0) <= 1e-9,
        }
    identity_max_err = 0.0
    for _ in range(orc.IDENTITY_SAMPLES):
        m = rng.choice(list(m_range))
        t_floor = cp.floor_w_m(a, b, m)
        y_seq = [rng.choice(v_words) for _ in range(m)]
        log_mu = -m * log_z + math.fsum(
            (w - 1.0) * log_t[v] for v in y_seq
        ) + math.fsum(log_t[v] for v in y_seq[t_floor:])
        lhs = log_mu / (n * m)
        s_m = math.fsum(log_t[v] for v in y_seq) / n
        s_t = math.fsum(log_t[v] for v in y_seq[:t_floor]) / n
        rhs = -log_z / n + w * (s_m / m - s_t / (w * m))
        identity_max_err = max(identity_max_err, abs(lhs - rhs))
    return {
        "w": w,
        "z_n": z_n,
        "s": s,
        "per_m": per_m,
        "all_passed": all_passed,
        "identity_max_err": identity_max_err,
        "identity_ok": identity_max_err <= 1e-10,
    }


ENUMERATED_BOXES = 20_000  # |V|^M at most, the y-sequences behind the multisets


@st.composite
def mass_report_cases(draw):
    """Product, equal-fiber and non-product carpets with a >= b in 2..6 (a = b
    included), N in {1, 2} and M ranges from 1 through every M with
    |V|^M <= ENUMERATED_BOXES (up to 30 for one projected word), where a b^-M
    can be 1 or more, exactly or in log."""
    kind = draw(st.sampled_from(["product", "equal fibers", "matrix"]))
    a = draw(st.integers(2, 5 if kind == "matrix" else 6))
    b = draw(st.integers(2, a))
    if kind == "product":
        cells = [(u, v) for u in range(a) for v in range(b)]
        rel = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
        spec = cp.carpet_from_tuples(a, b, rel)
    elif kind == "equal fibers":
        # every column holds the same number of tuples, so every fiber ties
        per_column = draw(st.integers(1, a))
        rel = [(u, v) for v in range(b) for u in draw(st.permutations(range(a)))[:per_column]]
        spec = cp.carpet_from_tuples(a, b, rel)
    else:
        row = st.lists(st.integers(0, 1), min_size=a * b, max_size=a * b)
        matrix = draw(st.lists(row, min_size=a * b, max_size=a * b))
        try:
            spec = cp.CarpetSpec(a, b, wt.pair_system(a, b, sym.sft_from_matrix(matrix)))
            sym.prune(spec.system.omega)
        except EmptySubshift:
            assume(False)
    n = draw(st.integers(1, 2))
    v_count = len(wt.fiber_counts(spec.system, n).level(n))
    m_top = max(m for m in range(1, 31) if v_count**m <= ENUMERATED_BOXES)
    m_lo = draw(st.integers(1, m_top))
    m_range = range(m_lo, draw(st.integers(m_lo, m_top)) + 1)
    return spec, n, m_range, draw(st.floats(-1.0, 2.0))


class TestMassReportMatchesPerPairLoop:
    @settings(max_examples=300, deadline=None)
    @given(mass_report_cases(), st.integers(0, 3))
    @example((cp.carpet_from_tuples(5, 2, [(0, 0), (1, 1), (4, 1)]), 1, range(1, 4), 0.5), 0)
    @example((cp.carpet_from_tuples(5, 2, [(0, 0), (1, 1), (4, 1)]), 1, range(3, 6), 0.5), 0)
    @example((cp.carpet_from_tuples(4, 2, [(0, 0), (3, 1)]), 2, range(1, 3), 0.5), 0)
    @example((cp.carpet_from_tuples(3, 3, [(0, 0), (2, 1)]), 1, range(1, 3), 0.5), 0)
    @example((cp.carpet_from_tuples(3, 2, [(0, 0), (1, 0), (2, 0)]), 2, range(2, 5), 0.3), 1)
    def test_whole_report_is_equal(self, case, seed):
        # (5, 2): a b^-M > 1 at M = 1, 2, refused, and below 1 from M = 3;
        # (4, 2) and (3, 3): the box scale is 1 at M = 2 and M = 1, refused;
        # one column only: every fiber weight (w - 1) log t(v) is one value;
        # the extremal box's largest_s, worst_y, box_count and passed, and
        # mass_ok from the layer sums, equal the enumeration's bit for bit
        spec, n, m_range, s = case
        log_a, log_b = math.log(spec.a), math.log(spec.b)
        if any(spec.a >= spec.b**m or log_a - m * log_b >= 0.0 for m in m_range):
            with pytest.raises(DomainError, match=r"the box scale a b\^-M is 1"):
                orc.mass_distribution_check(spec, n, m_range, s, seed)
            return
        got = orc.mass_distribution_check(spec, n, m_range, s, seed)
        want = reference_mass_distribution_check(spec, n, m_range, s, seed)
        assert got == want
        assert repr(got) == repr(want)  # the same bits, signed zeros included


class TestDuplicationBound:
    def test_any_excess_collection_contains_a_separated_pair(self):
        # among any 4^N + 1 boxes with distinct fixed digits, two are
        # >= b^-M apart: with N = 1, any 5 of the 6 level-(1,2) boxes work
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        fam = orc.qbox_family(spec, 1, 2)
        cloud = fam.witness_cloud()
        pts = cloud.points
        dist = cloud.pairwise()
        target = 2.0**-2
        for combo in itertools.combinations(range(len(pts)), 4**1 + 1):
            found = any(
                dist[i, j] >= target - 1e-12
                for i, j in itertools.combinations(combo, 2)
            )
            assert found


def reference_reciprocal_product_witness(x, n_window, m, eps):
    """reciprocal_product_witness with one inverse_square_mass and one class
    lookup per coordinate (errors left to the library); passed compares the
    log of the mass with the log of the required mass."""
    delta = orc.reciprocal_witness_delta(m, eps)
    tail = orc.reciprocal_tail_depth(m, delta)
    n_total = n_window + tail
    x = [float(v) for v in x][:n_total]
    thresholds = [delta ** (m**k) for k in range(m + 1)]

    def class_of(v):
        if v > delta:
            return 0
        for k in range(1, m + 1):
            if thresholds[k] < v <= thresholds[k - 1]:
                return k
        return m + 1

    classes = [class_of(v) for v in x]
    sizes = [classes.count(k) for k in range(m + 2)]
    m0 = next(k for k in range(m + 1) if sizes[k] <= n_total / (m + 1))
    r = delta ** (m**m0)
    mass = 1.0
    logs = []
    cases = []
    for v in x:
        lo = v - r
        mass_v = orc.inverse_square_mass(lo, v)
        mass *= mass_v
        logs.append(math.log(mass_v) if mass_v > 0.0 else -math.inf)
        k = class_of(v)
        cases.append("zero_atom" if k > m0 else ("thin_class" if k == m0 else "large_value"))
    diam_bound = r + 2.0**-tail if tail < 1074 else r
    exponent = 6.0 * n_total / m
    required = diam_bound**exponent
    return {
        "m": m,
        "m0": m0,
        "r": r,
        "delta": delta,
        "tail_depth": tail,
        "n_total": n_total,
        "diam_bound": diam_bound,
        "mass": mass,
        "exponent": exponent,
        "required": required,
        "passed": math.fsum(logs) >= (1.0 + orc.SLACK) * exponent * math.log(diam_bound),
        "cases": cases,
        "class_sizes": sizes,
    }


# points of the reciprocal space: 0, 1/j, and doubles below 2^-53, each the
# double of some 1/j
ATOMS = (
    st.just(0.0)
    | st.integers(1, 10**6).map(lambda j: 1.0 / j)
    | st.integers(1, 2**60).map(lambda j: 1.0 / j)
    | st.floats(0.0, 2.0**-54)
)


class TestReciprocalSpace:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(1, 3),
        st.floats(0.02, 0.15),
        st.integers(0, 10**6),
        st.lists(ATOMS, max_size=6),
    )
    def test_distinct_value_masses_match_the_per_coordinate_loop(
        self, m, n_window, eps, seed, extra
    ):
        # sampled points repeat 0 and 1/j often; extra values are any atoms
        delta = orc.reciprocal_witness_delta(m, eps)
        tail = orc.reciprocal_tail_depth(m, delta)
        x = orc.sample_reciprocal_point(n_window + tail, 100_000, seed=seed)
        x[: len(extra)] = extra[: len(x)]
        got = orc.reciprocal_product_witness(x, n_window, m, eps)
        assert got == reference_reciprocal_product_witness(x, n_window, m, eps)

    def test_interval_mass_hand_values(self):
        a = orc.INV_SQ_WEIGHT
        assert orc.inverse_square_mass(0.99, 1.0) == pytest.approx(a, abs=1e-15)
        assert orc.inverse_square_mass(1 / 3 - 1e-12, 0.5) == pytest.approx(
            a * (1 / 4 + 1 / 9), abs=1e-12
        )
        assert orc.inverse_square_mass(-0.01, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert orc.inverse_square_mass(-1.0, 2.0) <= 1.0

    def test_full_line_mass_is_one(self):
        assert orc.inverse_square_mass(-1.0, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_point(self):
        delta = orc.reciprocal_witness_delta(2, 0.1)
        tail = orc.reciprocal_tail_depth(2, delta)
        wit = orc.reciprocal_product_witness([0.0] * (3 + tail), 3, 2, 0.1)
        assert wit["passed"]
        assert all(c == "zero_atom" for c in wit["cases"])

    def test_all_ones_point(self):
        delta = orc.reciprocal_witness_delta(2, 0.12)
        tail = orc.reciprocal_tail_depth(2, delta)
        wit = orc.reciprocal_product_witness([1.0] * (2 + tail), 2, 2, 0.12)
        assert wit["passed"]
        assert all(c == "large_value" for c in wit["cases"])
        # per-coordinate bound of the large-value case, checked directly
        r = wit["r"]
        assert orc.INV_SQ_WEIGHT > (2 * r) ** (3 / 2)

    def test_single_coordinate_case_analysis(self):
        delta = orc.reciprocal_witness_delta(1, 0.1)
        tail = orc.reciprocal_tail_depth(1, delta)
        x = [0.5] + [0.0] * tail
        wit = orc.reciprocal_product_witness(x, 1, 1, 0.1)
        assert wit["passed"]
        assert wit["cases"][0] in ("large_value", "thin_class")
        assert all(c == "zero_atom" for c in wit["cases"][1:])

    def test_100_random_points(self):
        for i in range(100):
            m = 2 + (i % 2)
            n_window = 1 + (i % 3)
            eps = 0.05 + 0.01 * (i % 5)
            delta = orc.reciprocal_witness_delta(m, eps)
            tail = orc.reciprocal_tail_depth(m, delta)
            x = orc.sample_reciprocal_point(n_window + tail, 100_000, seed=i)
            wit = orc.reciprocal_product_witness(x, n_window, m, eps)
            assert wit["passed"]
        # and 20 points on a coarser sample at n_window = 2, m = 2, eps = 0.1
        delta = orc.reciprocal_witness_delta(2, 0.1)
        tail = orc.reciprocal_tail_depth(2, delta)
        for i in range(20):
            x = orc.sample_reciprocal_point(2 + tail, 10_000, seed=i)
            assert orc.reciprocal_product_witness(x, 2, 2, 0.1)["passed"]

    @pytest.mark.parametrize("v", [2.0, 0.3, 0.75, -0.5, 1.0 / 3 + 2**-50, math.nan, math.inf])
    def test_coordinates_off_the_space_rejected(self, v):
        # 2.0 passed with mass 0: no interval (2 - r, 2] holds an atom
        with pytest.raises(DomainError, match="neither 0 nor 1/j"):
            orc.reciprocal_product_witness([v] * 300, 1, 2, 0.1)
        with pytest.raises(DomainError, match="neither 0 nor 1/j"):
            orc.reciprocal_product_witness([0.0] * 299 + [v], 1, 2, 0.1)

    @pytest.mark.parametrize("n_cap", [1, 1000, 10**18])
    def test_each_distinct_value_is_weighed_once(self, monkeypatch, n_cap):
        # the interval masses are taken once per distinct value
        x = orc.sample_reciprocal_point(300, n_cap, seed=5)
        want = orc.reciprocal_product_witness(x, 1, 2, 0.1)
        weighed = []
        mass = orc.inverse_square_mass
        monkeypatch.setattr(orc, "inverse_square_mass",
                            lambda lo, hi: weighed.append(hi) or mass(lo, hi))
        assert orc.reciprocal_product_witness(x, 1, 2, 0.1) == want
        assert sorted(weighed) == sorted(set(x[: want["n_total"]]))

    @pytest.mark.parametrize("n_cap", [1, 2, 7, 100_000, 10**18])
    @pytest.mark.parametrize("seed", [0, 1, 9101])
    def test_samples_match_the_per_draw_formula(self, n_cap, seed):
        rng = random.Random(seed)
        want = []
        for _ in range(200):
            if rng.random() < 0.5:
                want.append(0.0)
            else:
                u = rng.random()
                j = min(n_cap, max(1, int(1.0 / (1.0 - u * (1.0 - 1.0 / (n_cap + 1.0))))))
                want.append(1.0 / j)
        assert orc.sample_reciprocal_point(200, n_cap, seed=seed) == want

    @pytest.mark.parametrize("fake", [1e-300, 0.0])
    def test_witness_fails_when_the_mass_is_too_small(self, monkeypatch, fake):
        # 1e-300 per coordinate underflows the product to 0.0, which the
        # absolute test mass >= required - 1e-12 passed; a zero mass fails too
        monkeypatch.setattr(orc, "inverse_square_mass", lambda lo, hi: fake)
        wit = orc.reciprocal_product_witness([0.0] * 300, 1, 2, 0.1)
        assert wit["mass"] == 0.0
        assert not wit["passed"]

    def test_witness_decides_in_log_space_when_required_underflows(self):
        # m = 3: required = diam^444 underflows to 0.0; the mass is about 3e-249
        wit = orc.reciprocal_product_witness([0.5] * 300, 1, 3, 0.1)
        assert wit["required"] == 0.0
        assert wit["passed"]
        per_coordinate = orc.inverse_square_mass(0.5 - wit["r"], 0.5)
        margin = wit["n_total"] * math.log(per_coordinate) - wit["exponent"] * math.log(
            wit["diam_bound"]
        )
        assert margin > 300.0

    def test_atoms_and_their_neighbours(self):
        for j in [1, 2, 3, 7, 1000, 99_991, 2**26, 2**40, 2**52, 2**53, 2**60]:
            v = 1.0 / j
            assert orc._is_atom(v)
            if j <= 2**26:  # 1/j and 1/(j + 1) lie more than an ulp apart
                assert not orc._is_atom(math.nextafter(v, 0.0))
                assert j == 1 or not orc._is_atom(math.nextafter(v, 1.0))
        assert orc._is_atom(0.0) and orc._is_atom(5e-324) and orc._is_atom(2.0**-60)
        assert not orc._is_atom(-0.25) and not orc._is_atom(1.5)

    def test_large_m_overflows(self):
        with pytest.raises(ParameterOverflow):
            orc.reciprocal_product_witness([0.0] * 10, 1, 7, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.floats(1e-300, 1.0 / 6.0, exclude_max=True))
    @example(3, 1e-12)  # 27 |log2 delta| just below and above 1,000 around here
    @example(3, 1e-10)
    def test_tail_depth_refuses_exactly_the_underflowing_witnesses(self, m, eps):
        # the log-space guard for large m moves no boundary where m^m is small
        delta = orc.reciprocal_witness_delta(m, eps)
        if float(m**m) * math.log2(delta) < -1000.0:
            with pytest.raises(ParameterOverflow, match=r"delta\^\(m\^m\) underflows"):
                orc.reciprocal_tail_depth(m, delta)
        else:
            want = int(math.floor(float(m**m) * math.log2(1.0 / delta))) + 1
            assert orc.reciprocal_tail_depth(m, delta) == want <= 1001

    @pytest.mark.parametrize("m", [5, 6, 7, 30, 627, 10**12])
    def test_tail_depth_refuses_large_m_with_no_power_taken(self, m):
        # m^m at m = 10^12 would not finish; the cap on the tail depth went
        delta = orc.reciprocal_witness_delta(m, 0.1)  # 0.0 from m = 627
        with pytest.raises(ParameterOverflow, match=r"delta\^\(m\^m\) underflows"):
            orc.reciprocal_tail_depth(m, delta)

    def test_sample_past_the_word_budget_is_refused_before_any_draw(self):
        with pytest.raises(ResourceLimit, match=r"^word budget: reciprocal sample: "
                                                r"1000000000000 coordinates exceed the cap"):
            orc.sample_reciprocal_point(10**12, 100)

    def test_set_dims(self):
        rep = orc.reciprocal_set_dims(100_000, 1e-4)
        assert 0.40 <= rep["minkowski_scale"] <= 0.60
        assert rep["hausdorff_scale_upper"] == 0.0

    def test_tiny_k_set(self):
        rep = orc.reciprocal_set_dims(1, 0.5)  # K = {0, 1}
        assert rep["covering_number"] == 2

    def test_eps_below_truncation_rejected(self):
        with pytest.raises(DegenerateScale):
            orc.reciprocal_set_dims(100, 1e-4)

    @pytest.mark.parametrize("eps", [1.0, 2.0, math.inf, math.nan, 0.0])
    def test_eps_outside_the_unit_interval_rejected(self, eps):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            orc.reciprocal_set_dims(100, eps)

    @pytest.mark.parametrize("n_cap", [0, -5])
    def test_truncation_below_one_rejected(self, n_cap):
        # 0 divided by zero; -5 reported a Minkowski value of 0
        with pytest.raises(DomainError, match=f"n_cap = {n_cap}"):
            orc.reciprocal_set_dims(n_cap, 0.5)
        with pytest.raises(DomainError, match=f"n_cap = {n_cap}"):
            orc.sample_reciprocal_point(4, n_cap)

    def test_witness_depth_and_window_checked_on_entry(self):
        # m = 0 divided by zero; N = -1 gave a witness over fewer coordinates
        with pytest.raises(DomainError, match="m = 0"):
            orc.reciprocal_witness_delta(0, 0.1)
        with pytest.raises(DomainError, match="N = -1"):
            orc.reciprocal_product_witness([0.0] * 40, -1, 2, 0.1)


def first_index(holds):
    """Least j >= 1 where holds(j), by bisection over the integers, for a
    holds false then true along j and true at 2^1075 (1 / 2^1075 rounds to 0)."""
    below, top = 0, 2**1075
    while top - below > 1:
        mid = (below + top) // 2
        if holds(mid):
            top = mid
        else:
            below = mid
    return top


def exact_least_index(hi):
    """Least j >= 1 whose correctly rounded 1 / j is at most hi > 0."""
    return first_index(lambda j: 1 / j <= hi)


def exact_greatest_index(lo):
    """Greatest j >= 1 whose correctly rounded 1 / j is at least lo > 0 (0 if none)."""
    return first_index(lambda j: 1 / j < lo) - 1


def enumerated_inverse_square_mass(lo, hi, enum_cap):
    """The inverse-square mass as it was bounded before the Euler-Maclaurin
    tail: up to enum_cap atoms summed one by one by math.fsum, the rest by
    the integral bounds sum_{j>=J} j^-2 >= 1/J and
    sum_{j0<=j<=j1} j^-2 >= 1/j0 - 1/(j1 + 1)."""
    if hi < lo:
        return 0.0
    total = 0.0
    if lo <= 0.0 <= hi:
        total += 0.5
        if hi > 0.0:
            j_min = exact_least_index(hi)
            j_stop = j_min + enum_cap
            total += orc.INV_SQ_WEIGHT * math.fsum(1.0 / (j * j) for j in range(j_min, j_stop))
            total += orc.INV_SQ_WEIGHT / j_stop
        return min(total, 1.0)
    if hi <= 0.0:
        return 0.0
    j_min = exact_least_index(hi)
    j_max = exact_greatest_index(lo)
    if j_max < j_min:
        return 0.0
    if j_max - j_min + 1 <= enum_cap:
        return orc.INV_SQ_WEIGHT * math.fsum(1.0 / (j * j) for j in range(j_min, j_max + 1))
    return orc.INV_SQ_WEIGHT * (1.0 / j_min - 1.0 / (j_max + 1))


def tail_upper(j):
    """U(j) = 1/j + 1/(2j^2) + 1/(6j^3) >= sum_{i>=j} i^-2, exact."""
    return Fraction(1, j) + Fraction(1, 2 * j * j) + Fraction(1, 6 * j**3)


def tail_lower(j):
    """L(j) = U(j) - 1/(30j^5) <= sum_{i>=j} i^-2, exact."""
    return tail_upper(j) - Fraction(1, 30 * j**5)


def reference_inverse_square_bracket(lo, hi, prefix):
    """Exact (lower, upper) on the inverse-square mass of [lo, hi] with the
    weight 3/pi^2 taken as the double INV_SQ_WEIGHT: the first `prefix` atoms
    summed as Fractions, the atoms past them bracketed by L and U."""
    weight = Fraction(orc.INV_SQ_WEIGHT)
    zero = Fraction(1, 2) if lo <= 0.0 <= hi else Fraction(0)
    if hi < lo or hi < orc._ATOM_FLOOR:
        return (zero, zero) if hi >= lo else (Fraction(0), Fraction(0))
    j_min = exact_least_index(hi)
    j_end = None if zero else exact_greatest_index(lo) + 1
    j_stop = j_min + prefix if j_end is None else min(j_min + prefix, j_end)
    exact = sum((Fraction(1, j * j) for j in range(j_min, j_stop)), Fraction(0))
    if j_stop == j_end:
        return zero + weight * exact, zero + weight * exact
    if j_end is None:
        return zero + weight * (exact + tail_lower(j_stop)), zero + weight * (
            exact + tail_upper(j_stop)
        )
    return (
        weight * (exact + tail_lower(j_stop) - tail_upper(j_end)),
        weight * (exact + tail_upper(j_stop) - tail_lower(j_end)),
    )


ULPS = 4  # rounding of the prefix's terms, its sum and the weight
ROUND_DOWN = 1.0 - 2.0**-50  # inverse_square_mass's factor past those roundings


def within_ulps_below(mass, bound):
    """mass <= float(bound), allowing ULPS ulps for rounding."""
    top = float(bound)
    return mass <= top + ULPS * math.ulp(top)


def within_ulps_above(mass, bound):
    """mass >= float(bound) rounded down by ROUND_DOWN, allowing ULPS ulps for rounding."""
    low = float(bound) * ROUND_DOWN
    return mass >= low - ULPS * math.ulp(low)


def exact_inverse_square_measure(lo, hi):
    """The inverse-square measure of [lo, hi] at 50 digits: 1/2 for the atom
    0 and (3/pi^2) / j^2 for each atom 1/j, j_min <= j <= j_max (indices by
    bisection), a tail past a thousand atoms by Hurwitz zeta(2, j)."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0.5) if lo <= 0.0 <= hi else mpmath.mpf(0)
        if not hi > 0.0:
            return total
        j_min = exact_least_index(hi)
        j_max = exact_greatest_index(lo) if lo > 0.0 else math.inf
        if j_max - j_min < 1000:
            atoms = mpmath.fsum(mpmath.mpf(1) / j**2 for j in range(j_min, j_max + 1))
        else:
            atoms = mpmath.zeta(2, j_min) - (0 if j_max == math.inf else mpmath.zeta(2, j_max + 1))
        return total + 3 / mpmath.pi**2 * atoms


def reference_set_dims_counts(n_cap, eps):
    """Greedy interval count and singleton count of reciprocal_set_dims,
    one point at a time over a list of Python floats."""
    points = [0.0] + [1.0 / j for j in range(n_cap, 0, -1)]
    assert orc.reciprocal_atoms(n_cap).tolist() == points
    count, i = 0, 0
    while i < len(points):
        start = points[i]
        while i < len(points) and points[i] - start < eps:
            i += 1
        count += 1
    return count, sum(1 for p in points if p > eps / 2.0)


class TestReciprocalKernelsMatchReference:
    @pytest.mark.parametrize("j_lo, j_hi", [
        (1, 2), (1, 3), (7, orc._INV_SQ_BLOCK), (7, orc._INV_SQ_BLOCK + 8),
        (orc._INV_SQ_BLOCK - 1, 3 * orc._INV_SQ_BLOCK + 2), (10**9, 10**9 + 2**16 + 3),
        (2**53 - 5, 2**53 + 4),  # past 2^53 the indices stay Python ints
    ])
    def test_sum_equals_the_fsum_generator(self, j_lo, j_hi):
        want = math.fsum(1.0 / (j * j) for j in range(j_lo, j_hi))
        assert orc._inverse_square_sum(j_lo, j_hi) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([-0.1, 0.0]) | st.floats(1e-6, 1.0) | st.integers(1, 10**5).map(lambda j: 1 / j),
        st.floats(1e-12, 0.2) | st.sampled_from([0.0, 1e-7, 1e-5]),
        st.sampled_from([1, 2, 50, 400]),
    )
    def test_mass_lies_in_the_exact_bracket(self, lo, width, block):
        """With the exact prefix cut short, the tail bound does most of the
        work: the mass stays below the exact upper side, within rounding of
        the exact lower side, and at or above the old enumeration of the
        same prefix with its integral tail."""
        hi = lo + width
        with mock.patch.object(orc, "_INV_SQ_BLOCK", block):
            mass = orc.inverse_square_mass(lo, hi)
        lower, upper = reference_inverse_square_bracket(lo, hi, block)
        assert within_ulps_below(mass, upper)
        assert within_ulps_above(mass, lower)
        assert within_ulps_above(mass, enumerated_inverse_square_mass(lo, hi, block))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([-0.1, 0.0]) | st.floats(1e-6, 1.0) | st.integers(1, 10**5).map(lambda j: 1 / j),
        st.floats(1e-12, 0.2) | st.sampled_from([0.0, 1e-7, 1e-5]),
        st.sampled_from([1, 100, 40_000, 200_000]),
    )
    def test_mass_no_looser_than_the_enumeration(self, lo, width, enum_cap):
        """At full size the tail bound beats every enumeration with an
        integral tail, up to rounding; below one block of atoms the sum is
        the enumeration's, rounded down: at or below it, within a few ulps."""
        hi = lo + width
        mass = orc.inverse_square_mass(lo, hi)
        want = enumerated_inverse_square_mass(lo, hi, enum_cap)
        assert within_ulps_above(mass, want)
        if lo > 0.0:
            j_min, j_max = exact_least_index(hi), exact_greatest_index(lo)
            if j_max - j_min < orc._INV_SQ_BLOCK:
                enumerated = enumerated_inverse_square_mass(lo, hi, orc._INV_SQ_BLOCK)
                assert within_ulps_above(mass, enumerated) and mass <= enumerated

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([-0.1, 0.0]) | st.floats(1e-9, 1.0) | st.integers(1, 10**6).map(lambda j: 1 / j),
        st.floats(1e-12, 0.5) | st.sampled_from([0.0, 1e-7, 1e-5, 1.5]),
    )
    @example(0.99, 0.01)  # [0.99, 1.0]: the one atom 1 weighed by the double above 3/pi^2
    @example(0.3, 0.2)  # the atoms 1/2 and 1/3
    def test_mass_is_at_most_the_exact_measure(self, lo, width):
        """The judge: the exact measure at 50 digits, with mpmath."""
        hi = lo + width
        assert orc.inverse_square_mass(lo, hi) <= exact_inverse_square_measure(lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        (math.nan, 0.5), (0.3, math.nan), (math.nan, math.nan), (math.nan, 0.0), (0.0, math.nan),
    ])
    def test_an_interval_with_a_nan_end_has_no_mass(self, lo, hi):
        # a nan lo raised ValueError: cannot convert NaN to integer ratio
        assert orc.inverse_square_mass(lo, hi) == 0.0

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (-1.0, 2.0), (0.0, 1e-3), (1e-6, 1.0), (1e-9, 1e-3),
    ])
    def test_mass_at_full_size_within_its_bracket(self, lo, hi):
        """The exact prefix at its full size, 16,384 Fractions, on a few
        intervals that reach the tail bound."""
        mass = orc.inverse_square_mass(lo, hi)
        lower, upper = reference_inverse_square_bracket(lo, hi, orc._INV_SQ_BLOCK)
        assert within_ulps_below(mass, upper)
        assert within_ulps_above(mass, lower)

    @pytest.mark.parametrize("lo, hi, want", [
        (0.0, 6.4e-162, 0.5), (0.0, 1e-300, 0.5), (0.0, 5e-324, 0.5),
        (1e-160, 1e-160, 0.0), (5e-324, 1e-300, 0.0), (0.0, 1e-25, 0.5),
    ])
    def test_tiny_intervals_do_not_overflow(self, lo, hi, want):
        """Past j = 2^512, j * j overflows a double; atoms that far out are
        left to the tail bound or left out, both under-counts."""
        assert orc.inverse_square_mass(lo, hi) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True)
        | st.integers(1, 2**60).flatmap(lambda j: st.sampled_from(
            [math.nextafter(1 / j, 0.0), 1 / j, math.nextafter(1 / j, 1.0)]))
        | st.integers(1, 300).map(lambda k: float(f"1e-{k}"))
        | st.sampled_from([2.0**-500, 5e-324])
    )
    @example(1e-25)  # the least index, 9999999999999999041079452, lies in a run of
    @example(7.3e-25)  # about 10^9 integers that round to one double
    @example(1e-17)
    @example(3e-20)
    @example(5e-324)  # the double below is 0.0, whose least index is 2^1075
    @example(1.0)
    def test_indices_equal_the_exact_bisection(self, v):
        """Both index rules equal a bisection over j on the correctly
        rounded comparison, at any size of j."""
        assert orc._least_index_at_most(v) == exact_least_index(v)
        assert orc._greatest_index_at_least(v) == exact_greatest_index(v)
        assert orc._is_atom(v) == (1 / exact_least_index(v) == v)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1e-150) | st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 2.0**-500]),
        st.floats(0.0, 1e-150) | st.floats(0.0, 2.0) | st.sampled_from([0.0, 5e-324, 2.0**-500]),
    )
    @example(6.066545253144683e-151, 6.066545253144683e-151)  # indices far past 2^53
    def test_mass_is_a_finite_probability(self, x, y):
        lo, hi = sorted((x, y))
        mass = orc.inverse_square_mass(lo, hi)
        assert 0.0 <= mass <= 1.0

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 10, 30])
    def test_tail_bracket_holds_zeta_2(self, j):
        # sum_{i>=j} i^-2 = pi^2/6 - sum_{i<j} i^-2; the bracket is at
        # least 1/(30 * 30^5) = 1.4e-9 wide, far beyond the double's error
        tail = math.pi**2 / 6 - math.fsum(1.0 / (i * i) for i in range(1, j))
        assert float(tail_lower(j)) < tail - 1e-14
        assert float(tail_upper(j)) > tail + 1e-14

    @pytest.mark.parametrize("j_lo, j_end", [
        (1, None), (2, 3), (7, 100), (16_385, None), (16_385, 16_386), (10**6, 10**9),
        (2**60, None), (2**60, 2**60 + 1),
    ])
    def test_tail_is_exact_bound_rounded_down(self, j_lo, j_end):
        bound = tail_lower(j_lo) - (0 if j_end is None else tail_upper(j_end))
        got = orc._inverse_square_tail(j_lo, j_end)
        assert Fraction(got) <= bound < Fraction(math.nextafter(got, math.inf))

    @pytest.mark.parametrize("n_cap, eps", [
        (100_000, 1e-4), (100_000, 1e-3), (100_000, 1e-2), (100_000, 0.1), (1, 0.5),
        (1000, 0.3), (1000, 0.25),
    ])
    def test_set_dims_counts_equal_the_point_loop(self, n_cap, eps):
        rep = orc.reciprocal_set_dims(n_cap, eps)
        count, singletons = reference_set_dims_counts(n_cap, eps)
        assert rep["covering_number"] == count
        assert rep["witness"]["singletons"] == singletons


def test_all_zero_point_records_threshold_scale():
    # with every coordinate in the smallest class, mass >= (1/2)^(N+L);
    # the claim follows whenever m stays below 6 log2(1 / (2r))
    delta = orc.reciprocal_witness_delta(2, 0.1)
    tail = orc.reciprocal_tail_depth(2, delta)
    wit = orc.reciprocal_product_witness([0.0] * (3 + tail), 3, 2, 0.1)
    m_star = 6.0 * math.log2(1.0 / (2.0 * wit["r"]))
    assert wit["m"] <= m_star
    assert wit["mass"] >= 0.5 ** wit["n_total"] - 1e-12


def test_reciprocal_minkowski_trend_toward_half():
    values = [orc.reciprocal_set_dims(100_000, e)["minkowski_scale"] for e in (1e-2, 1e-3, 1e-4)]
    # approaches 1/2 from above as the scale shrinks
    assert values[0] > values[1] > values[2] > 0.5


def test_uniform_relation_measure_is_uniform():
    rel = [(u, v) for u in range(3) for v in range(2)]
    spec = cp.carpet_from_tuples(3, 2, rel)
    table = wt.fiber_counts(spec.system, 1)
    z1 = math.fsum(t**spec.w for t in table.level(1).values())
    for t in table.level(1).values():
        assert t ** (spec.w - 1.0) / z1 == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_square_base_qbox_fixes_all_layers():
    # a == b means w == 1: every layer fixes a full (u, v) word
    spec = cp.carpet_from_tuples(2, 2, [(0, 0), (1, 1), (0, 1)])
    fam = orc.qbox_family(spec, 2, 3)
    assert fam.floor_wm == 3
    assert fam.count == 9**3
    assert fam.separation_certified and fam.diam_certified
    rep = orc.verify_family_separation(fam, samples=300)
    assert rep["ok"]
