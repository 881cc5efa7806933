"""Beta-expansion systems: exact gaps, separated families, similarity maps."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from meandim import metrics
from meandim import oracle as orc
from meandim import selfsim as ss
from meandim import symbolic as sym
from meandim.errors import ConstructionFailure, DomainError, ResourceLimit
from meandim.metrics import SUM_WEIGHTED_ABS, MetricDescriptor, pairwise_to_point


def exhaustive_min_gap(a, beta, n):
    """Independent oracle: all pairs over a^n tuples, exact fractions."""
    frac = Fraction(beta)
    values = sorted(
        sum(Fraction(u) * frac ** -(k + 1) for k, u in enumerate(tup))
        for tup in itertools.product(range(a), repeat=n)
    )
    return float(min(y - x for x, y in zip(values, values[1:])))


def python_int_min_gap(a, beta, n):
    """min_gap's rational path with one Python-int sum per digit tuple."""
    frac = Fraction(beta).limit_denominator(1 << 30)
    assert float(frac) == beta
    p, q = frac.numerator, frac.denominator
    scaled = sorted(
        sum(u * q**k2 * p ** (n - k2) for k2, u in zip(range(1, n + 1), tup))
        for tup in itertools.product(range(a), repeat=n)
    )
    best = min(b2 - a2 for a2, b2 in zip(scaled, scaled[1:]))
    return best / float(p) ** n


def scaled_sum_bound(a, beta, n):
    """(a - 1) times the digit weights of min_gap's rational path: the
    largest scaled sum, which decides between int64 and Python ints."""
    frac = Fraction(beta).limit_denominator(1 << 30)
    p, q = frac.numerator, frac.denominator
    return (a - 1) * sum(q**k * p ** (n - k) for k in range(1, n + 1))


class TestMinGap:
    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("offset", [0.0, 0.5, 1.0, 0.25, 0.125, 1.75])
    def test_int64_sweep_equals_the_python_int_sweep(self, a, offset):
        beta = a + offset
        for n in range(1, 8 if a < 4 else 6):
            assert scaled_sum_bound(a, beta, n) < 2**62
            assert ss.min_gap(a, beta, n) == python_int_min_gap(a, beta, n)

    def test_largest_int64_case_next_to_the_python_int_dtype(self):
        assert scaled_sum_bound(2, 2.3, 13) < 2**62 <= scaled_sum_bound(2, 2.3, 14)
        assert ss.min_gap(2, 2.3, 13) == python_int_min_gap(2, 2.3, 13)

    @pytest.mark.parametrize(
        "a, beta, n", [(3, 3.000001, 6), (2, 2.000001, 5), (2, 2.3, 14), (2, 2.3, 15)]
    )
    def test_python_int_dtype_sweep_equals_the_reference(self, a, beta, n):
        assert scaled_sum_bound(a, beta, n) >= 2**62
        assert ss.min_gap(a, beta, n) == python_int_min_gap(a, beta, n)

    def test_dyadic_exact(self):
        assert ss.min_gap(2, 2.0, 3) == 0.125

    def test_ternary_exact(self):
        assert ss.min_gap(3, 3.0, 2) == pytest.approx(1 / 9, abs=0)

    def test_beta_2_5_matches_exhaustive_pairs(self):
        got = ss.min_gap(2, 2.5, 4)
        assert got == pytest.approx(exhaustive_min_gap(2, 2.5, 4), abs=1e-15)
        assert got == pytest.approx(0.0256, abs=1e-15)  # = (2/5)^4, the last digit
        assert got >= 2.5**-4 - 1e-12

    def test_separation_claim_sweep(self):
        for a in (2, 3):
            for beta in (float(a), a + 0.5, a + 1.0):
                for n in range(1, 9):
                    assert ss.min_gap(a, beta, n) >= beta**-n - 1e-12

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            ss.min_gap(3, 2.5, 4)  # beta < a

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(DomainError, match="finite beta"):
            ss.beta_system(2, beta)


class TestCoveringLowerBound:
    def test_full_shift_family(self):
        spec = ss.beta_system(2, 2.0)
        fam = ss.covering_lower_bound(spec, 2, 2)
        assert fam.count == 16
        assert fam.points.min_pairwise() >= 0.25 - 1e-9
        bounds = orc.covering_bounds(fam.points, fam.eps)
        assert bounds.lower >= 16

    def test_golden_mean_family(self):
        spec = ss.beta_system(2, 2.0, sym.forbidden_words(2, ["11"]))
        fam = ss.covering_lower_bound(spec, 3, 2)
        assert fam.n_words == 5
        assert fam.count == 25
        assert fam.points.min_pairwise() >= fam.eps - 1e-9

    def test_singleton_subshift(self):
        spec = ss.beta_system(2, 2.0, sym.sft_from_matrix([[1, 0], [0, 0]]))
        fam = ss.covering_lower_bound(spec, 2, 2)
        assert fam.count == 1

    def test_dynamical_metric_separation_is_half_scale(self):
        # under the weighted shift metric the leading weight is 1/2, so the
        # certified separation is beta^-n / 2 and it is attained
        spec = ss.beta_system(2, 2.0)
        fam = ss.covering_lower_bound(spec, 2, 2)
        metric = MetricDescriptor(kind=SUM_WEIGHTED_ABS, iterates=2)
        pts = fam.points.points
        best = min(
            pairwise_to_point(pts[i + 1 :], pts[i], metric).min() for i in range(len(pts) - 1)
        )
        assert best >= fam.dyn_eps - 1e-9
        assert best == pytest.approx(fam.dyn_eps, abs=1e-9)


def reference_family_points(spec, n_coords, n_layers, tol=1e-9):
    """The per-coordinate math.fsum loop that the column tables replaced."""
    aut = sym.ensure_pruned(spec.omega).automaton
    words = aut.enumerate_words(n_coords)
    depth = min(n_coords + n_layers * max(1, math.ceil(math.log2(1.0 / tol))), n_coords + 80)
    anchor = aut.lex_least_extension((), depth)
    streams = [aut.lex_least_extension(w, depth) for w in words]
    beta = spec.beta
    pts = []
    for combo in itertools.product(range(len(words)), repeat=n_layers):
        rows = [streams[i] for i in combo]
        pts.append([
            math.fsum(rows[k][j] * beta ** -(k + 1) for k in range(n_layers))
            + anchor[j] * (beta**-n_layers) / (beta - 1.0)
            for j in range(depth)
        ])
    return np.array(pts)


class TestFamilyPointsMatchReference:
    @pytest.mark.parametrize(
        "a,beta,forbidden",
        [(2, beta, forbidden) for beta in (2.0, 2.5, 3.5) for forbidden in (None, ["11"])]
        + [(3, 3.5, None), (3, 3.5, ["00", "12"]), (3, 3.5, ["0"])],
    )
    @pytest.mark.parametrize("n_coords,n_layers", [(1, 1), (2, 3), (3, 2), (4, 1)])
    def test_points_equal_the_fsum_loop(self, a, beta, forbidden, n_coords, n_layers):
        omega = sym.forbidden_words(a, forbidden) if forbidden else None
        spec = ss.beta_system(a, beta, omega)
        got = ss.covering_lower_bound(spec, n_coords, n_layers).points.points
        want = reference_family_points(spec, n_coords, n_layers)
        assert got.shape == want.shape
        assert (got == want).all()


    def test_digit_table_beyond_the_budget_is_refused(self):
        # the rooted orbit 0 1 0 1 ... has one word of length 1 but uses two
        # digits, so its fsum table (2^3 columns) outgrows its one point
        orbit = sym.automaton_spec(sym.Automaton(2, 0, ({0: 1}, {1: 0})), 2)
        with pytest.raises(ResourceLimit, match="digit table"):
            ss.covering_lower_bound(ss.beta_system(2, 2.5, orbit), 1, 3, budget=4)


class TestSelfSimilarDims:
    def test_full_shift_base_two(self):
        assert ss.self_similar_dims(ss.beta_system(2, 2.0))["mdim"] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_full_shift_base_three(self):
        rep = ss.self_similar_dims(ss.beta_system(2, 3.0))
        assert rep["mdim"] == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
        assert rep["similarity_bound"] == pytest.approx(rep["mdim"], abs=1e-15)

    def test_singleton_is_zero(self):
        spec = ss.beta_system(2, 2.0, sym.sft_from_matrix([[1, 0], [0, 0]]))
        assert ss.self_similar_dims(spec)["mdim"] == pytest.approx(0.0, abs=1e-12)

    def test_consistent_with_covering_slope(self):
        # log(count) / (N n log beta) approaches the dimension from below
        spec = ss.beta_system(2, 2.0)
        target = ss.self_similar_dims(spec)["mdim"]
        slopes = []
        for n_coords in (1, 2, 3):
            fam = ss.covering_lower_bound(spec, n_coords, 2)
            slopes.append(
                math.log(fam.count) / (n_coords * 2 * math.log(spec.beta))
            )
        assert slopes == sorted(slopes)  # nondecreasing for full shifts
        assert all(s <= target + 1e-9 for s in slopes)


class TestWordSetOmega:
    """A stored word set has entropy but no automaton: the dimensions work,
    the family and the similarity maps refuse it."""

    def setup_method(self):
        omega = sym.spec_from_json(
            {"alphabet": 2, "kind": "wordset", "words": {"1": ["0", "1"], "2": ["00", "01", "10", "11"]}}
        )
        self.spec = ss.beta_system(2, 2.0, omega)

    def test_dimensions_accept_a_word_set(self):
        assert ss.self_similar_dims(self.spec, 2)["mdim"] == pytest.approx(1.0, abs=1e-12)

    def test_family_and_similarity_refuse_a_word_set(self):
        with pytest.raises(DomainError, match="enumeration-only word set"):
            ss.covering_lower_bound(self.spec, 2, 2)
        with pytest.raises(DomainError, match="enumeration-only word set"):
            ss.ball_similarity_check(self.spec, 2, 0.3, [[0, 1]], [])


def reference_ball_similarity_check(spec, n_window, eps, p_digits, sample_digits, tol=1e-9):
    """`ball_similarity_check` as it measured the sample pairs: two
    pairwise_to_point calls per sample point, against the later points."""
    aut = ss._omega_automaton(spec)
    a_bound = spec.diameter_bound()
    beta, c = spec.beta, spec.c
    k = 0
    while c**k * a_bound > eps:
        k += 1
    p_digits = [tuple(row) for row in p_digits]
    depth = len(p_digits[0]) if p_digits else 0
    if k > len(p_digits) or not all(ss._admissible_prefix(aut, p_digits[i]) for i in range(k)):
        raise ConstructionFailure("the cell of p does not exist")

    def point_of(rows):
        rows = [tuple(r) for r in rows]
        return np.array([
            math.fsum(rows[m][j] * beta ** -(m + 1) for m in range(len(rows)))
            for j in range(depth)
        ])

    p_point = point_of(p_digits)

    def phi(x):
        out = x
        for i in reversed(range(k)):
            out = (out + np.array(p_digits[i], dtype=float)) / beta
        return out

    metric = MetricDescriptor(kind=SUM_WEIGHTED_ABS, iterates=n_window)
    sample_pts = np.array([point_of(rows) for rows in sample_digits]).reshape(-1, depth)
    images = phi(sample_pts)
    radii = pairwise_to_point(images, p_point, metric)
    worst_radius = float(radii.max(initial=0.0))
    radius_ok = bool((radii <= eps + tol).all())
    expansion = min(c**k, c * eps / a_bound)
    expansion_ok = True
    worst_ratio = math.inf
    for i in range(len(images) - 1):
        base = pairwise_to_point(sample_pts[i + 1 :], sample_pts[i], metric)
        mapped = pairwise_to_point(images[i + 1 :], images[i], metric)
        moved = base > 0
        worst_ratio = min(worst_ratio, float((mapped[moved] / base[moved]).min(initial=math.inf)))
        expansion_ok = expansion_ok and bool((mapped >= expansion * base - tol).all())
    return {
        "k": k,
        "eps": eps,
        "diameter_bound": a_bound,
        "radius_ok": radius_ok,
        "worst_radius": worst_radius,
        "expansion_ok": expansion_ok,
        "required_ratio": expansion,
        "worst_ratio": worst_ratio if worst_ratio != math.inf else c**k,
        "ok": radius_ok and expansion_ok,
    }


class TestBallSimilarity:
    def setup_method(self):
        self.spec = ss.beta_system(2, 2.0)
        rng = np.random.default_rng(9)
        self.p = [tuple(int(d) for d in rng.integers(0, 2, 10))] * 12
        self.samples = [
            [tuple(int(d) for d in rng.integers(0, 2, 10)) for _ in range(12)]
            for _ in range(10)
        ]

    def test_contraction_into_ball(self):
        rep = ss.ball_similarity_check(self.spec, 2, 0.3, self.p, self.samples)
        assert rep["ok"]
        assert rep["k"] >= 1
        assert rep["worst_radius"] <= 0.3 + 1e-9

    def test_large_eps_identity(self):
        rep = ss.ball_similarity_check(self.spec, 2, 2.0, self.p, self.samples)
        assert rep["k"] == 0
        assert rep["ok"]

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("seed", range(4))
    def test_report_matches_the_per_point_loop(self, monkeypatch, chunk, seed):
        # the pairs are measured in blocks of at most _PAIR_CHUNK; patched
        # small, the samples split into many blocks
        if chunk is not None:
            monkeypatch.setattr(metrics, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        beta = (2.0, 2.5, 2.2, 3.0)[seed]
        spec = ss.beta_system(3 if beta == 3.0 else 2, beta)
        depth, layers = int(rng.integers(3, 12)), int(rng.integers(1, 5))
        p = [(0,) * depth] * 16  # enough layers for the contraction at every eps
        samples = [rng.integers(0, spec.a, (layers, depth)).tolist() for _ in range(40)]
        samples += samples[:3]  # repeated points: pairs at distance 0
        for window, eps in ((1, 0.5), (2, 0.3), (depth, 0.05), (depth + 2, 3.0)):
            want = reference_ball_similarity_check(spec, window, eps, p, samples)
            assert ss.ball_similarity_check(spec, window, eps, p, samples) == want

    def test_inadmissible_point_rejected(self):
        bad = [tuple([5] * 10)] + self.p[1:]
        with pytest.raises(ConstructionFailure):
            ss.ball_similarity_check(self.spec, 2, 0.3, bad, self.samples)

    def test_inadmissible_subshift_row_rejected(self):
        spec = ss.beta_system(2, 2.0, sym.forbidden_words(2, ["11"]))
        bad = [tuple([1, 1] + [0] * 8)] * 12  # contains the forbidden factor
        with pytest.raises(ConstructionFailure):
            ss.ball_similarity_check(spec, 2, 0.2, bad, self.samples)
