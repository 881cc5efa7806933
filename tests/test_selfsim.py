"""Beta-expansion systems: exact gaps, separated families, dimensions."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandim import limits
from meandim import oracle as orc
from meandim import selfsim as ss
from meandim import symbolic as sym
from meandim.errors import DomainError, ResourceLimit
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
    return best / p**n


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

    @given(a=st.sampled_from([2, 3]), n=st.integers(1, 5),
           offset=st.one_of(st.floats(0.0, 1.0), st.floats(1e-15, 1e-9)))
    @example(a=2, n=7, offset=1e-10)  # the first three have no small-denominator fraction
    @example(a=2, n=7, offset=0.1000000000001)
    @example(a=3, n=6, offset=0.1000000000001)
    @example(a=2, n=7, offset=0.3)  # 23/10
    @settings(max_examples=100, deadline=None)
    def test_every_double_beta_equals_its_exact_reference(self, a, n, offset):
        # a beta with a fraction of denominator at most 2^30 equal to it is
        # read as that fraction, any other as its exact binary value
        beta = a + offset
        frac = Fraction(beta).limit_denominator(1 << 30)
        reference = python_int_min_gap if float(frac) == beta else exhaustive_min_gap
        assert ss.min_gap(a, beta, n) == reference(a, beta, n)

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
        assert best >= fam.eps / 2 - 1e-9
        assert best == pytest.approx(fam.eps / 2, abs=1e-9)


def reference_family_points(spec, n_coords, n_layers, tol=1e-9):
    """The per-coordinate math.fsum loop that the column tables replaced."""
    aut = spec.omega.automaton
    words = [tuple(w) for w in aut.enumerate_words(n_coords).tolist()]
    depth = min(n_coords + n_layers * max(1, math.ceil(math.log2(1.0 / tol))), n_coords + 80)
    anchor = aut.least_word(aut.root, depth)
    streams = []
    for w in words:  # each word, continued by the least word from its end state
        state = aut.root
        for d in w:
            state = aut.succ[state][d]
        streams.append(w + aut.least_word(state, depth - n_coords))
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


    def test_rooted_orbit_family_is_built_within_its_point_budget(self):
        # the rooted orbit 0 1 0 1 ... has one word of length 1 but uses two
        # digits: its 2^3 digit columns exceed its one point, and only the
        # point budget applies
        spec = ss.beta_system(2, 2.5, sym.automaton_spec(sym.Automaton(2, 0, ({0: 1}, {1: 0})), 2))
        with limits.override(1):
            got = ss.covering_lower_bound(spec, 1, 3).points.points
        assert (got == reference_family_points(spec, 1, 3)).all()
        with pytest.raises(ResourceLimit, match="covering family"), limits.override(7):
            ss.covering_lower_bound(ss.beta_system(2, 2.5), 1, 3)

    def test_a_family_without_layers_is_refused(self):
        with pytest.raises(DomainError, match="digit layers"):
            ss.covering_lower_bound(ss.beta_system(2, 2.5), 2, 0)


class TestSelfSimilarDims:
    def test_full_shift_base_two(self):
        assert ss.self_similar_dims(ss.beta_system(2, 2.0))["mdim"] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_full_shift_base_three(self):
        rep = ss.self_similar_dims(ss.beta_system(2, 3.0))
        assert rep["mdim"] == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_singleton_is_zero(self):
        spec = ss.beta_system(2, 2.0, sym.sft_from_matrix([[1, 0], [0, 0]]))
        assert ss.self_similar_dims(spec)["mdim"] == pytest.approx(0.0, abs=1e-12)

    def test_entropy_is_the_spectral_value(self):
        spec = ss.beta_system(2, 2.5, sym.forbidden_words(2, ["11"]))
        h = sym.entropy(spec.omega).spectral_value
        assert ss.self_similar_dims(spec) == {"mdim": h / math.log(2.5), "entropy": h}

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

